import random
import time

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

import tsplinedim as t
from tsplinedim import formats
from tsplinedim.errors import (
    BadRational,
    CoordinateOnCellBoundary,
    MeshError,
    TmeshSyntaxError,
    UnknownCell,
    UnknownDirective,
    UnknownNode,
)
from tsplinedim.formats import (
    MeshDocument,
    apply_history,
    document_mesh,
    document_smoothness,
    format_tmesh,
    format_tsub,
    parse_tmesh,
    parse_tsub,
)

from meshgen import EX11_CELLS, EX51_CELLS, mapped_history, random_history
from witnesses import is_weighted, split_cell


EX51_TEXT = """tmesh 1
# three strips, middle split at one half
cell 0 0 1 1
cell 1 0 2 1/2
cell 1 1/2 2 1
cell 2 0 3 1
default-smooth 1 1
"""


def test_parse_minimal():
    doc = parse_tmesh("tmesh 1\ncell 0 0 1 1\n")
    assert doc.cells == ((F(0), F(0), F(1), F(1)),)
    assert doc.default_smooth is None


def test_parse_reference_meshes():
    lines = ["tmesh 1"] + [f"cell {a} {b} {c} {d}" for a, b, c, d in EX11_CELLS]
    doc = parse_tmesh("\n".join(lines))
    mesh = document_mesh(doc)
    counts = t.stats(mesh)
    assert counts.f2 == 7 and counts.f1o == 9

    doc51 = parse_tmesh(EX51_TEXT)
    assert len(doc51.cells) == 4
    assert doc51.default_smooth == (1, 1)
    mesh51 = document_mesh(doc51)
    dist = document_smoothness(doc51, mesh51)
    assert dist.is_constant() == (1, 1)


def test_parse_rationals_and_decimals():
    doc = parse_tmesh("tmesh 1\ncell 0 0 1/2 0.75\n")
    assert doc.cells == ((F(0), F(0), F(1, 2), F(3, 4)),)


def test_roundtrip():
    doc = parse_tmesh(EX51_TEXT)
    assert parse_tmesh(format_tmesh(doc)) == doc
    with_nodes = MeshDocument.make(
        EX51_CELLS, default_smooth=(1, 1), smooth_h={F(1): 0}, smooth_v={F(1, 2): 2}
    )
    assert parse_tmesh(format_tmesh(with_nodes)) == with_nodes


def test_format_rational_refuses_floats():
    assert formats.format_rational(F(3, 4)) == "3/4"
    assert formats.format_rational(2) == "2"
    with pytest.raises(TypeError):
        formats.format_rational(0.1)
    # A document constructed without make holds its cells as given.
    with pytest.raises(TypeError):
        format_tmesh(MeshDocument(((0, 0, 0.5, 1),)))


def test_make_refuses_floats():
    with pytest.raises(TypeError):
        MeshDocument.make([(0, 0, 0.5, 1), (F(1, 2), 0, 1, 1)])
    with pytest.raises(TypeError):
        MeshDocument.make([(0, 0, 1, 1)], smooth_h={0: 1.5})
    with pytest.raises(TypeError):
        MeshDocument.make([(0, 0, 1, 1)], smooth_v={0.5: 1})
    with pytest.raises(TypeError):
        MeshDocument.make([(0, 0, 1, 1)], default_smooth=(1.0, 1))
    doc = MeshDocument.make([("0", 0, F(1, 2), 1)], smooth_h={"1/2": 1})
    assert doc.cells == ((F(0), F(0), F(1, 2), F(1)),)
    assert doc.smooth_h == ((F(1, 2), 1),)


def test_make_refuses_two_keys_on_one_node_line():
    # 1 and "1" are two keys but one node line: the document stored both
    # pairs, and did not survive the round trip through its own text.
    with pytest.raises(ValueError, match=r"^smooth h 1: two orders for one node line$"):
        MeshDocument.make(EX51_CELLS, smooth_h={1: 0, "1": 2})
    with pytest.raises(ValueError, match=r"^smooth v 1/2: two orders for one node line$"):
        MeshDocument.make(EX51_CELLS, smooth_v={F(1, 2): 0, "0.5": 1})
    # A file keeps its rule: the later smooth line of a node line wins.
    doc = parse_tmesh(EX51_TEXT + "smooth h 1 0\nsmooth h 2/2 2\n")
    assert doc.smooth_h == ((1, 2),)
    assert parse_tmesh(format_tmesh(doc)) == doc


_RATIONALS = st.builds(F, st.integers(min_value=-96, max_value=96), st.integers(min_value=1, max_value=12))
_LENGTHS = st.builds(F, st.integers(min_value=1, max_value=96), st.integers(min_value=1, max_value=12))
_ORDERS = st.integers(min_value=0, max_value=5)


@st.composite
def _rectangles(draw):
    x0, y0 = draw(_RATIONALS), draw(_RATIONALS)
    return (x0, y0, x0 + draw(_LENGTHS), y0 + draw(_LENGTHS))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_rectangles(), min_size=1, max_size=6),
    st.none() | st.tuples(_ORDERS, _ORDERS),
    st.dictionaries(_RATIONALS, _ORDERS, max_size=4),
    st.dictionaries(_RATIONALS, _ORDERS, max_size=4),
)
def test_tmesh_roundtrip_property(cells, default_smooth, smooth_h, smooth_v):
    doc = MeshDocument.make(cells, default_smooth, smooth_h, smooth_v)
    assert parse_tmesh(format_tmesh(doc)) == doc
    # the lattice sort keeps the order of the Fraction tuples
    assert doc.cells == tuple(sorted(tuple(map(F, r)) for r in cells))


@settings(max_examples=200, deadline=None)
@given(
    _rectangles(),
    st.lists(
        st.builds(
            t.SplitEvent,
            st.integers(min_value=0, max_value=40),
            st.sampled_from("hv"),
            _RATIONALS,
            rule=st.none() | st.tuples(_ORDERS, _ORDERS),
        ),
        max_size=8,
    ),
)
def test_tsub_roundtrip_property(initial, events):
    history = t.SubdivisionHistory(initial, events)
    assert parse_tsub(format_tsub(history)) == history


def test_a_wsplit_line_keeps_its_rule():
    text = "tsub 1\ninit 0 0 4 4\nsplit 0 h 1\nwsplit 1 v 2 3 3\n"
    assert format_tsub(parse_tsub(text)) == text


def test_a_document_equals_the_document_of_its_fields(monkeypatch):
    # The lattice a parsed document carries is not a field: it is neither
    # compared nor shown, and both documents build the same mesh.
    doc = parse_tmesh(EX51_TEXT + "smooth h 2 0\nsmooth v 1/2 0\n")
    plain = MeshDocument(doc.cells, doc.default_smooth, doc.smooth_h, doc.smooth_v)
    assert doc._grid is not None and plain._grid is None
    assert doc == plain and repr(doc) == repr(plain)
    assert MeshDocument(doc.cells) == doc._replace(default_smooth=None, smooth_h=(), smooth_v=())
    mesh = document_mesh(plain)
    # The parsed document builds on its own lattice, not through build_mesh.
    monkeypatch.setattr(formats, "build_mesh", None)
    built = document_mesh(doc)
    assert (built.cells, built.edges, built.vertices) == (mesh.cells, mesh.edges, mesh.vertices)


def test_histories_never_share_an_event_list():
    first, second = t.SubdivisionHistory((0, 0, 1, 1)), t.SubdivisionHistory((0, 0, 1, 1))
    first.events.append(t.SplitEvent(0, "v", F(1, 2)))
    assert second.events == [] and first != second
    copy = first.copy()
    copy.events.append(t.SplitEvent(0, "h", F(1, 2)))
    assert len(first.events) == 1 and copy != first


_FUZZ_DIRECTIVES = ("cell", "smooth", "default-smooth", "init", "split", "wsplit", "bogus", "#")
_FUZZ_TOKENS = (
    "h", "v", "0", "1", "2", "3", "-1", "1/2", "3/2", "2/4", "1/0", "0.5", "1e2", "-0", "x",
    "nan", "inf", "#", "1#2",
)
_FUZZ_WELL_FORMED = {
    "tmesh": (
        *(f"cell {i} {j} {i + 1} {j + 1}" for i in range(2) for j in range(2)),
        "cell 0 0 1 1/2", "cell 1/2 0 1 1", "smooth h 1 0", "smooth v 1 2", "smooth v 1/2 1",
        "default-smooth 1 1",
    ),
    "tsub": ("init 0 0 2 2", "split 0 v 1", "split 1 h 1/2", "wsplit 1 h 1/2 2 2"),
}


@st.composite
def _fuzz_text(draw):
    """A header, mostly the right one, then well-formed lines of that format
    shuffled with at most two bad ones: a directive with random tokens, or
    random text."""
    kind = draw(st.sampled_from(("tmesh", "tsub")))
    header = draw(st.sampled_from((f"{kind} 1",) * 3 + (f"{kind} 2", kind, "")))
    argument = st.sampled_from(_FUZZ_TOKENS) | st.text(max_size=2)
    bad = st.tuples(st.sampled_from(_FUZZ_DIRECTIVES), st.lists(argument, max_size=5)).map(
        lambda parts: " ".join([parts[0], *parts[1]])
    ) | st.text(max_size=8)
    body = draw(st.lists(st.sampled_from(_FUZZ_WELL_FORMED[kind]), max_size=6))
    body += draw(st.lists(bad, max_size=2))
    return "\n".join([header, *draw(st.permutations(body))])


@settings(max_examples=300, deadline=None)
@given(_fuzz_text())
def test_fuzzed_text_raises_only_mesh_errors(text):
    try:
        doc = parse_tmesh(text)
        mesh = document_mesh(doc)
        document_smoothness(doc, mesh)
    except MeshError:
        pass
    try:
        parse_tsub(text)
    except MeshError:
        pass


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TmeshSyntaxError):
        parse_tmesh("")
    with pytest.raises(TmeshSyntaxError) as info:
        parse_tmesh("tmesh 1\ncell 0 0 0 1\n")
    assert info.value.line == 2
    with pytest.raises(UnknownDirective) as info:
        parse_tmesh("tmesh 1\nvertex 0 0\n")
    assert info.value.line == 2
    with pytest.raises(BadRational) as info:
        parse_tmesh("tmesh 1\ncell 0 0 one 1\n")
    assert info.value.line == 2
    with pytest.raises(TmeshSyntaxError):
        parse_tmesh("tmesh 2\ncell 0 0 1 1\n")
    with pytest.raises(TmeshSyntaxError):
        parse_tmesh("tmesh 1\ncell 0 0 1\n")
    # each token is read once; errors still name the line they are on
    with pytest.raises(BadRational) as info:
        parse_tmesh("tmesh 1\ncell 0 0 1 1\ncell 1 0 1/0 1\ncell 1/0 0 2 1\n")
    assert info.value.line == 3
    with pytest.raises(TmeshSyntaxError) as info:
        parse_tmesh("tmesh 1\ncell 0 0 1 1\ncell 1 0 2 1\ncell 1 0 1 2\n")
    assert info.value.line == 4
    doc = parse_tmesh("tmesh 1\ncell 0 0 1/2 1\ncell 0 0 0.5 1\ncell 0 0 2/4 1\n")
    assert doc.cells == ((F(0), F(0), F(1, 2), F(1)),) * 3


def test_each_distinct_token_is_parsed_once(monkeypatch):
    parses = []

    def counting_parse_rational(token, line=None):
        parses.append(token)
        return formats.as_fraction(token)

    monkeypatch.setattr(formats, "parse_rational", counting_parse_rational)
    text = "tmesh 1\n" + "".join(f"cell {i} {j} {i + 1} {j + 1}\n" for i in range(32) for j in range(32))
    doc = parse_tmesh(text)
    assert len(doc.cells) == 32 * 32
    assert len(parses) == len(set(parses)) == 33
    parses.clear()
    parse_tsub("tsub 1\ninit 0 0 4 4\nsplit 0 v 2\nsplit 0 h 2\nsplit 1 h 2\n")
    assert sorted(parses) == ["0", "2", "4"]


def test_parsing_and_building_a_grid_compares_no_fraction(monkeypatch):
    # The parser checks and sorts the cells on lattice ints, and the build
    # keys and compares the same ints, so no Fraction is ever compared.
    compared = []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):

        def counting(a, b, _name=name, _compare=getattr(F, name)):
            compared.append(_name)
            return _compare(a, b)

        monkeypatch.setattr(F, name, counting)
    text = "tmesh 1\n" + "".join(f"cell {i} {j} {i + 1} {j + 1}\n" for i in range(32) for j in range(32))
    mesh = document_mesh(parse_tmesh(text))
    assert len(mesh.cells) == 32 * 32
    assert compared == []
    assert F(1, 2) < F(2, 3) and compared == ["__lt__"]  # the counter counts


@pytest.mark.parametrize(
    "line5, error",
    [
        ("cell 0 0 one 1", BadRational),
        ("cell 0 0 1", TmeshSyntaxError),
        ("vertex 0 0", UnknownDirective),
        ("smooth h 1 -1", TmeshSyntaxError),
    ],
)
def test_a_degenerate_cell_line_is_reported_before_a_later_error(line5, error):
    lines = ["tmesh 1", "cell 0 0 1 1", "cell 1 0 {x1} 1", "cell 1 0 2 1", line5]
    with pytest.raises(error) as later:
        parse_tmesh("\n".join(lines).format(x1=2) + "\n")
    assert later.value.line == 5
    with pytest.raises(TmeshSyntaxError, match="degenerate rectangle") as first:
        parse_tmesh("\n".join(lines).format(x1=1) + "\n")
    assert first.value.line == 3


def test_exponent_tokens_are_refused_quickly():
    # Fraction("1e99999999") would build a 10**99999999 first; the grammar
    # (integers, decimals, p/q) has no exponent, so the token is refused.
    for text, parse in (
        ("tmesh 1\ncell 0 0 1e99999999 1\n", parse_tmesh),
        ("tsub 1\ninit 0 0 1E99999999 1\n", parse_tsub),
        ("tmesh 1\ncell 0 0 1e2 1\n", parse_tmesh),
    ):
        start = time.perf_counter()
        with pytest.raises(BadRational) as info:
            parse(text)
        assert time.perf_counter() - start < 0.1
        assert info.value.line == 2


def test_digit_separators_and_non_ascii_digits_are_refused():
    # int() and Fraction() read "1_0" as 10 and any Unicode digit as its
    # value; the grammar has ASCII digits only, so the token is refused on
    # its line.
    for text, parse, error, line in (
        ("tmesh 1\ncell 0 0 1 1\nsmooth h 1 1_0\n", parse_tmesh, TmeshSyntaxError, 3),
        ("tmesh 1\ncell 0 0 1 1\ndefault-smooth \uff11 1\n", parse_tmesh, TmeshSyntaxError, 3),
        ("tmesh 1\ncell \u0660 \u0660 \u0661 \u0661\n", parse_tmesh, BadRational, 2),
        ("tmesh 1\ncell 0 0 1_000/3 1\n", parse_tmesh, BadRational, 2),
        ("tsub 1\ninit 0 0 3 3\nwsplit 1 h 2 3 3_0\n", parse_tsub, TmeshSyntaxError, 3),
        ("tsub 1\ninit 0 0 3 3\nsplit \u0660 h 2\n", parse_tsub, TmeshSyntaxError, 3),
        ("tsub 1\ninit 0 0 3 3\nsplit 0 h 3_0/2\n", parse_tsub, BadRational, 3),
    ):
        with pytest.raises(error) as info:
            parse(text)
        assert info.value.line == line
    for token in ("1_0", "\u0661", "1/\u0663", "0.\uff15"):
        with pytest.raises(ValueError):
            t.mesh.as_fraction(token)
        with pytest.raises(ValueError):
            t.mesh.ascii_int(token)


def test_per_node_smoothness_resolution():
    text = EX51_TEXT + "smooth h 1 0\nsmooth v 1/2 2\n"
    doc = parse_tmesh(text)
    mesh = document_mesh(doc)
    dist = document_smoothness(doc, mesh)
    assert dist.order("v", 1) == 0
    assert dist.order("v", 2) == 1
    assert dist.order("h", F(1, 2)) == 2
    override = document_smoothness(doc, mesh, override=(0, 0))
    assert override.is_constant() == (0, 0)


def test_smoothness_for_unknown_node_rejected():
    # 1/2 is a node line of EX51, but a horizontal one (a y), not an x.
    for line in ("smooth h 7 0", "smooth v 1/3 1", "smooth h 1/2 1"):
        doc = parse_tmesh(EX51_TEXT + "smooth v 1/2 2\n" + line + "\n")
        mesh = document_mesh(doc)
        with pytest.raises(UnknownNode) as info:
            document_smoothness(doc, mesh)
        assert str(info.value) == f"{' '.join(line.split()[:3])}: not a node of the mesh"


def test_tsub_roundtrip_and_apply():
    text = "tsub 1\ninit 0 0 2 2\nsplit 0 v 1\nsplit 0 h 1/2\n"
    history = parse_tsub(text)
    assert history.initial == (F(0), F(0), F(2), F(2))
    cells, expanded = apply_history(history)
    assert len(cells) == 3
    assert parse_tsub(format_tsub(expanded)).events == expanded.events
    assert expanded.replay().cell_rects() == cells


def test_tsub_weighted_lines():
    text = (
        "tsub 1\ninit 0 0 3 3\n"
        "split 0 v 1\nsplit 1 v 2\n"
        "split 0 h 1\nsplit 1 h 1\nsplit 2 h 1\n"
        "split 3 h 2\nsplit 4 h 2\nsplit 5 h 2\n"
        "wsplit 4 v 3/2 3 3\n"
    )
    history = parse_tsub(text)
    with pytest.raises(ValueError):
        apply_history(history)  # rule parameters need smoothness and degree
    cells, expanded = apply_history(history, smoothness=(1, 1), degree=(2, 2))
    mesh = t.build_mesh(cells)
    analysis = t.analyze_segments(mesh)
    dist = t.constant_distribution(mesh, 1, 1)
    order = t.appearance_ordering(expanded, analysis)
    assert is_weighted(analysis, dist, (2, 2), order, 3, 3)
    # the wsplit at x=3/2 gains one extension hop through cell 8
    assert format_tsub(expanded) == (
        "tsub 1\ninit 0 0 3 3\n"
        "split 0 v 1\nsplit 1 v 2\n"
        "split 0 h 1\nsplit 1 h 1\nsplit 2 h 1\n"
        "split 3 h 2\nsplit 4 h 2\nsplit 5 h 2\n"
        "split 4 v 3/2\nsplit 8 v 3/2\n"
    )
    # the expanded events carry no rule, so the history replays as recorded
    # with or without a smoothness and a degree at hand
    for context in ((), ((1, 1), (2, 2))):
        again, events = apply_history(expanded, *context)
        assert again == cells
        assert events.events == expanded.events


def test_tsub_errors():
    with pytest.raises(TmeshSyntaxError):
        parse_tsub("tsub 1\nsplit 0 v 1\n")  # split before init
    with pytest.raises(TmeshSyntaxError):
        parse_tsub("tsub 1\ninit 0 0 1 1\ninit 0 0 2 2\n")
    with pytest.raises(UnknownDirective):
        parse_tsub("tsub 1\ninit 0 0 1 1\nmerge 0 1\n")


@pytest.mark.parametrize("rule", ["-5 3", "3 -1", "-1 -1"])
def test_a_negative_wsplit_rule_is_a_syntax_error(rule):
    # --weighted and the tmesh smooth directive refuse negatives too.
    with pytest.raises(TmeshSyntaxError) as info:
        parse_tsub(f"tsub 1\ninit 0 0 2 2\nsplit 0 v 1\nwsplit 0 h 1 {rule}\n")
    assert info.value.line == 4
    assert str(info.value) == "line 4: wsplit rule k, k' must be nonnegative"


_SPACE = ((1, 1), (2, 2))


@pytest.mark.parametrize("lines, context, error, message", [
    (["split 0 v 1", "split 5 h 1"], (), UnknownCell, "no cell with id 5"),
    (["split 0 v 1", "split 1 v 2"], (), CoordinateOnCellBoundary, "x=2 not inside cell 1 [1, 0, 2, 2]"),
    (["split 0 v 1", "split 7 h 1", "wsplit 0 h 1 3 3"], (), UnknownCell, "no cell with id 7"),
    (["split 0 v 1", "wsplit 0 h 1 3 3", "split 9 h 1"], (), ValueError,
     "weighted splits need a smoothness and a degree"),
    (["split 0 v 1", "wsplit 4 h 1 3 3"], _SPACE, UnknownCell, "no cell with id 4"),
])
def test_apply_history_raises_at_the_first_bad_event(lines, context, error, message):
    """Plain splits are replayed only when a mesh is needed, yet the first bad
    event still raises first: a bad split before a wsplit gives the split's
    error, a wsplit without smoothness before a bad split gives ValueError."""
    history = parse_tsub("tsub 1\ninit 0 0 2 2\n" + "\n".join(lines) + "\n")
    with pytest.raises(error) as info:
        apply_history(history, *context)
    assert str(info.value) == message


@pytest.mark.parametrize("rule", [None, (3, 3)])
def test_apply_history_rejects_a_degenerate_init(rule):
    initial = (F(1), F(0), F(0), F(1))
    history = t.SubdivisionHistory(initial, [t.SplitEvent(0, "v", F(1, 2), rule)])
    with pytest.raises(t.DegenerateCell) as info:
        apply_history(history)
    assert isinstance(info.value, ValueError) and str(info.value) == "degenerate rectangle [1, 0, 0, 1]"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0), st.booleans(), st.booleans())
def test_applied_cells_need_no_build(seed, transpose, reflect):
    """apply_history returns the replay's cells and builds no mesh of them:
    they are sorted by (y0, x0), build_mesh takes them without raising, and
    its mesh has them as its cells, for a random plain history, maybe
    transposed or reflected, with plain and wsplit lines on top.  Half the
    coordinates lie on a node line, so that the rule also extends segments."""
    rng = random.Random(seed)
    history, _ = random_history(rng, rng.randrange(20), rng.choice((1, 4)), rng.choice((1, 3)))
    if transpose:
        history = mapped_history(history, transpose=True)
    if reflect:
        history = mapped_history(history, transpose=False)
    degree = m, n = rng.randint(1, 3), rng.randint(1, 3)
    smooth = rng.randint(0, m + 1), rng.randint(0, n + 1)
    lines = t.SubdivisionHistory(history.initial, list(history.events))
    for _ in range(rng.randint(0, 5)):
        cells, _ = apply_history(lines, smooth, degree)
        cell = rng.randrange(len(cells))
        direction = rng.choice("hv")
        axis = 0 if direction == "v" else 1
        lo, hi = cells[cell][axis], cells[cell][axis + 2]
        on_lines = sorted({c for rect in cells for c in rect[axis::2] if lo < c < hi})
        if on_lines and rng.random() < 0.5:
            coord = rng.choice(on_lines)
        else:
            coord = lo + (hi - lo) * rng.choice((F(1, 4), F(1, 2), F(3, 4)))
        rule = None if rng.random() < 0.25 else (rng.randint(0, m + 2), rng.randint(0, n + 2))
        lines.events.append(t.SplitEvent(cell, direction, coord, rule))
    cells, expanded = apply_history(lines, smooth, degree)
    assert cells == sorted(cells, key=lambda rect: (rect[1], rect[0]))
    assert cells is not expanded._kept.rects
    assert t.build_mesh(cells).cell_rects() == cells == expanded.replay().cell_rects()


def test_mixed_history_matches_stepwise_splits():
    # Each line applied to the mesh of the lines before it: the mesh-route
    # split_cell for a plain line, weighted_split for a wsplit line.
    history = parse_tsub(
        "tsub 1\ninit 0 0 3 3\n"
        "split 0 v 1\nsplit 1 v 2\n"
        "split 0 h 1\nsplit 1 h 1\nsplit 2 h 1\n"
        "split 3 h 2\nsplit 4 h 2\nsplit 5 h 2\n"
        "wsplit 4 v 3/2 3 3\nsplit 0 v 1/2\nwsplit 1 h 1/2 3 3\nsplit 0 h 1/2\n"
    )
    cells, expanded = apply_history(history, *_SPACE)
    reference, stepped = t.initial_mesh(*history.initial)
    for ev in history.events:
        if ev.rule is None:
            outcome = split_cell(reference, stepped, ev.cell, ev.direction, ev.coord)
        else:
            outcome = t.weighted_split(reference, stepped, ev.cell, ev.direction, ev.coord, *_SPACE, *ev.rule)
        reference = outcome.mesh
    assert len(stepped.events) == 14  # each wsplit line gained one extension hop
    assert expanded.events == stepped.events
    assert cells == reference.cell_rects()
