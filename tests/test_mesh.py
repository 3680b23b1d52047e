import hashlib
import random
import time
from bisect import bisect_left
from operator import itemgetter

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

import tsplinedim as t
from tsplinedim.formats import MeshDocument, document_mesh, format_tmesh, parse_tmesh
from tsplinedim.mesh import (
    BOUNDARY,
    CORNER,
    CROSSING,
    HORIZONTAL,
    T_VERTEX,
    VERTICAL,
    Cell,
    Edge,
    TMesh,
    Vertex,
    _check_cells,
    _check_overlaps,
    _mesh,
    _normalize_rects,
    _sweep_finds_overlap,
)
from tsplinedim.errors import (
    DanglingGeometry,
    DegenerateCell,
    DisconnectedDomain,
    DomainNotSimplyConnected,
    OverlappingCells,
)

from meshgen import (
    EX11_CELLS,
    EX51_CELLS,
    L_CELLS,
    _SORT_KEY,
    PINWHEEL_CELLS,
    RING_CELLS,
    _reflected,
    _transposed,
    ex11_mesh,
    ex51_mesh,
    grid_cells,
    grid_mesh,
    random_mesh,
    spaces,
)


def test_single_cell():
    m = t.build_mesh([(0, 0, 1, 1)])
    c = t.stats(m)
    assert (c.f2, c.f1, c.f1o, c.f0, c.f0o, c.f0b, c.corners) == (1, 4, 0, 4, 0, 4, 4)
    assert c.euler == 1


def test_reference_staircase_counts():
    c = t.stats(ex11_mesh())
    assert c.f2 == 7
    assert c.f1o == 9 and c.f1h == 4 and c.f1v == 5
    assert c.f0o == 3 and c.f0plus == 1 and c.f0T == 2
    assert c.f0b == 15 and c.corners == 12
    assert c.euler == 1


def test_reference_staircase_nodes():
    m = ex11_mesh()
    assert m.nodes_x == tuple(F(i) for i in range(6))
    assert m.nodes_y == tuple(F(i) for i in range(5))


def test_grid_counts():
    c = t.stats(grid_mesh(3, 3))
    assert (c.f2, c.f1o, c.f0o, c.f0b) == (9, 12, 4, 12)
    assert c.f0plus == 4 and c.f0T == 0


def test_two_cell_strip():
    c = t.stats(t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1)]))
    assert (c.f2, c.f1o, c.f0o, c.f0b) == (2, 1, 0, 6)


def test_overlap_rejected():
    with pytest.raises(OverlappingCells):
        t.build_mesh([(0, 0, 2, 2), (1, 0, 3, 2)])
    with pytest.raises(OverlappingCells):
        t.build_mesh([(0, 0, 1, 1), (0, 0, 1, 1)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedDomain):
        t.build_mesh([(0, 0, 1, 1), (2, 0, 3, 1)])
    # touching only at a corner: interior is disconnected
    with pytest.raises(DisconnectedDomain):
        t.build_mesh([(0, 0, 1, 1), (1, 1, 2, 2)])


def test_hole_rejected():
    with pytest.raises(DomainNotSimplyConnected):
        t.build_mesh(RING_CELLS)


def test_degenerate_rectangle_rejected():
    # A MeshError that stays a ValueError, named with the rect as written
    # in files, not with Fraction reprs.
    for cells, message in (
        ([(0, 0, 0, 1)], "degenerate rectangle [0, 0, 0, 1]"),
        ([(0, 0, 1, 1), (F(1, 2), 1, 1, F(1, 2))], "degenerate rectangle [1/2, 1, 1, 1/2]"),
        ([], "cell list is empty"),
    ):
        with pytest.raises(DegenerateCell) as caught:
            t.build_mesh(cells)
        assert isinstance(caught.value, (t.MeshError, ValueError)) and str(caught.value) == message
    with pytest.raises(DegenerateCell, match=r"^degenerate rectangle \[0, 0, 0, 1\]$"):
        t.SubdivisionHistory((F(0), F(0), F(0), F(1))).replay()


def test_float_coordinates_rejected():
    with pytest.raises(TypeError):
        t.build_mesh([(0, 0, 0.1, 1)])
    exact = t.build_mesh([(0, 0, "1/10", F(1))])
    assert exact.cells[0].rect == (0, 0, F(1, 10), 1)


def test_exponent_strings_are_refused_quickly():
    # Fraction("1e99999999") would build a 10**99999999 first; the rational
    # grammar (integers, decimals, p/q) has no exponent, so it is refused.
    _, history = t.initial_mesh(0, 0, 200, 1)
    for token in ("1e2", "1e99999999"):
        for call in (
            lambda: t.build_mesh([(0, 0, token, 1)]),
            lambda: t.initial_mesh(0, 0, token, 1),
            lambda: t.apply_history(t.SubdivisionHistory(history.initial, [t.SplitEvent(0, "v", token)])),
        ):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="exponents are not allowed"):
                call()
            assert time.perf_counter() - start < 0.1


def test_build_deterministic_under_input_order():
    rng = random.Random(5)
    cells = list(EX11_CELLS)
    reference = t.build_mesh(cells)
    for _ in range(5):
        rng.shuffle(cells)
        again = t.build_mesh(cells)
        assert [c.rect for c in again.cells] == [c.rect for c in reference.cells]
        assert [(e.start, e.end, e.direction) for e in again.edges] == [
            (e.start, e.end, e.direction) for e in reference.edges
        ]
        assert [v.position for v in again.vertices] == [v.position for v in reference.vertices]
        assert [v.kind for v in again.vertices] == [v.kind for v in reference.vertices]


def test_a_one_shot_iterable_builds_the_same_records():
    rng = random.Random(17)
    for cells in [list(EX51_CELLS), list(PINWHEEL_CELLS)] + [
        random_mesh(rng, rng.randrange(1, 30), 3, 2)[0].cell_rects() for _ in range(5)
    ]:
        expected = _record_text(t.build_mesh(cells))
        assert _record_text(t.build_mesh(cell for cell in cells)) == expected
        assert _record_text(t.build_mesh(iter(cell) for cell in cells)) == expected


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ((0, 0, 0.5, 1), TypeError, "is a float"),
        ((0, 0, "x", 1), ValueError, "cannot parse rational 'x'"),
        ((0, 0, "1e3", 1), ValueError, "exponents are not allowed"),
    ],
)
def test_the_first_bad_cell_in_input_order_raises(bad, error, message):
    # Coordinates are coerced before the lattice check, yet a degenerate
    # cell ahead of a cell that cannot be coerced is still reported first.
    degenerate = (1, 0, 1, 1)
    with pytest.raises(DegenerateCell, match=r"^degenerate rectangle \[1, 0, 1, 1\]$"):
        t.build_mesh([(0, 0, 1, 1), degenerate, bad])
    with pytest.raises(error, match=message) as caught:
        t.build_mesh([(0, 0, 1, 1), bad, degenerate])
    assert not isinstance(caught.value, DegenerateCell)


def _line_text(mesh):
    return f"{mesh.edge_line} {mesh.vertex_xline} {mesh.vertex_yline}"


def test_document_mesh_matches_build_mesh():
    # document_mesh builds on the lattice MeshDocument.make sorted on; a
    # document made without make goes through build_mesh.
    rng = random.Random(23)
    for cells in [list(EX11_CELLS), list(EX51_CELLS), list(PINWHEEL_CELLS)] + [
        random_mesh(rng, rng.randrange(1, 40), 3, 4)[0].cell_rects() for _ in range(8)
    ]:
        doc = parse_tmesh(format_tmesh(MeshDocument.make(cells)))
        rng.shuffle(cells)
        expected = t.build_mesh(cells)
        for mesh in (document_mesh(doc), document_mesh(MeshDocument(doc.cells))):
            assert _record_text(mesh) == _record_text(expected)
            assert _line_text(mesh) == _line_text(expected)
    for doc in (MeshDocument.make([(0, 0, 1, 1), (1, 0, 1, 1)]), MeshDocument.make([])):
        with pytest.raises(DegenerateCell):
            document_mesh(doc)


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_line_indices_name_the_node_lines(space):
    mesh = space[0]
    assert len(mesh.edge_line) == len(mesh.edges)
    for e in mesh.edges:
        assert (mesh.nodes_y if e.horizontal else mesh.nodes_x)[mesh.edge_line[e.id]] == e.coord
    assert len(mesh.vertex_xline) == len(mesh.vertex_yline) == len(mesh.vertices)
    for v in mesh.vertices:
        assert (mesh.nodes_x[mesh.vertex_xline[v.id]], mesh.nodes_y[mesh.vertex_yline[v.id]]) == v.position


def test_vertex_classification():
    m = ex11_mesh()
    kinds = {v.position: v.kind for v in m.vertices}
    assert kinds[(F(2), F(2))] == "crossing"
    assert kinds[(F(1), F(2))] == "t-vertex"
    assert kinds[(F(3), F(2))] == "t-vertex"
    assert kinds[(F(0), F(2))] == "boundary"
    assert kinds[(F(0), F(0))] == "corner"
    assert kinds[(F(2), F(1))] == "corner"  # reflex corner of the staircase


def _incidence(mesh):
    """Per vertex, its horizontal and its vertical edge ids in edge-id order,
    read off each edge's start and end."""
    h_edges = [[] for _ in mesh.vertices]
    v_edges = [[] for _ in mesh.vertices]
    for e in mesh.edges:
        incident = h_edges if e.horizontal else v_edges
        incident[e.start].append(e.id)
        incident[e.end].append(e.id)
    return h_edges, v_edges


def test_incidence_invariants():
    rng = random.Random(42)
    for _ in range(10):
        mesh, _ = random_mesh(rng, rng.randrange(1, 15))
        for e in mesh.edges:
            assert len(e.cells) == (2 if e.interior else 1)
            a, b = mesh.vertices[e.start].position, mesh.vertices[e.end].position
            if e.horizontal:
                assert (a, b) == ((e.lo, e.coord), (e.hi, e.coord))
            else:
                assert (a, b) == ((e.coord, e.lo), (e.coord, e.hi))
        h_edges, v_edges = _incidence(mesh)
        for v in mesh.vertices:
            incident = h_edges[v.id] + v_edges[v.id]
            assert h_edges[v.id] and v_edges[v.id]
            if v.interior:
                assert len(incident) == (4 if v.kind == CROSSING else 3)
            else:
                assert sum(1 for eid in incident if not mesh.edges[eid].interior) == 2
        for cell in mesh.cells:
            own = [e for e in mesh.edges if cell.id in e.cells]
            for e in own:
                lo, hi = (cell.x0, cell.x1) if e.horizontal else (cell.y0, cell.y1)
                assert e.coord in ((cell.y0, cell.y1) if e.horizontal else (cell.x0, cell.x1))
                assert lo <= e.lo < e.hi <= hi
            covered = sum(e.hi - e.lo for e in own)
            assert covered == 2 * (cell.x1 - cell.x0) + 2 * (cell.y1 - cell.y0)


def test_counting_identities_grid():
    rep = t.check_counting_identities(grid_mesh(3, 3))
    assert rep.rectangular and rep.all_ok
    # by hand: f2 = 4 + 0 + 6 - 1 = 9, f1o = 8 + 0 + 6 - 2 = 12
    c = t.stats(grid_mesh(3, 3))
    assert c.f0plus + c.f0T / 2 + c.f0b / 2 - 1 == c.f2
    assert 2 * c.f0plus + 3 * c.f0T / 2 + c.f0b / 2 - 2 == c.f1o


def test_counting_identities_staircase():
    rep = t.check_counting_identities(ex11_mesh())
    assert rep.euler_ok
    assert not rep.rectangular
    assert rep.nbf_f2_ok is None and rep.nbf_f1_ok is None and rep.nbf_f0_ok is None


def test_counting_identities_l_domain():
    m = t.build_mesh(L_CELLS)
    rep = t.check_counting_identities(m)
    assert rep.euler_ok and not rep.rectangular


def test_euler_on_random_meshes():
    rng = random.Random(7)
    for _ in range(20):
        mesh, _ = random_mesh(rng, rng.randrange(1, 20))
        assert t.stats(mesh).euler == 1


def _join(values):
    return " ".join(map(str, values))


def _record_text(mesh):
    """Every record field a build derives, one line per record."""
    lines = [f"cell {c.id} {c.x0} {c.y0} {c.x1} {c.y1}" for c in mesh.cells]
    lines += [
        f"edge {e.id} {e.start} {e.end} {e.direction} {e.interior} {_join(e.cells)}"
        f" {e.coord} {e.lo} {e.hi}"
        for e in mesh.edges
    ]
    h_edges, v_edges = _incidence(mesh)
    lines += [
        f"vertex {v.id} {v.x} {v.y} {v.kind} h {_join(h_edges[v.id])} v {_join(v_edges[v.id])}"
        for v in mesh.vertices
    ]
    lines.append(f"nodes_x {_join(mesh.nodes_x)}")
    lines.append(f"nodes_y {_join(mesh.nodes_y)}")
    lines.append(f"interior_edges {_join(mesh.interior_edges)}")
    lines.append(f"interior_vertices {_join(mesh.interior_vertices)}")
    return "\n".join(lines)


def _outcome_text(cells):
    try:
        return _record_text(t.build_mesh(cells))
    except (t.MeshError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _digest(texts):
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()


# Two cells meet only at their corner (3, 2), so that vertex carries four
# boundary edges.
PINCHED_CELLS = [(0, 0, 2, 2), (2, 0, 4, 1), (3, 1, 4, 2), (2, 2, 3, 4), (0, 2, 2, 3)]


def test_records_pinned():
    # Digests of the records (or of the error type and message) that every
    # build so far has produced on these inputs.
    rng = random.Random(20101)
    valid = [list(EX11_CELLS), list(EX51_CELLS), list(PINWHEEL_CELLS), list(L_CELLS)]
    for _ in range(32):
        mesh, _ = random_mesh(rng, rng.randrange(0, 30), rng.choice((1, 2, 4)), rng.choice((1, 3, 4)))
        cells = mesh.cell_rects()
        rng.shuffle(cells)
        assert _record_text(t.build_mesh(cells)) == _record_text(mesh)
        valid.append(cells)
    texts = [_outcome_text(cells) for cells in valid]
    assert all(text.startswith("cell ") for text in texts)
    assert _digest(texts) == "7f9699123ef405f107a77f3593332f9d873dabcdad4466103058a5f3cc996207"

    corrupted = [[], RING_CELLS, PINCHED_CELLS]
    for cells in valid:
        i = rng.randrange(len(cells))
        x0, y0, x1, y1 = cells[i]
        corrupted.append(cells[:i] + cells[i + 1:])  # dropped
        corrupted.append(cells[:i] + [(x0, y0, x1 + (x1 - x0) * F(1, 2), y1)] + cells[i + 1:])  # wider
        corrupted.append(cells[:i] + [(x0, y0, x1, y1 + (y1 - y0) * F(1, 3))] + cells[i + 1:])  # taller
        corrupted.append(cells + [cells[i]])  # duplicate
        corrupted.append(cells[:i] + [(x0, y0, x0, y1)] + cells[i + 1:])  # degenerate
    texts = [_outcome_text(cells) for cells in corrupted]
    assert {text.split(":")[0] for text in texts if not text.startswith("cell ")} == {
        "DegenerateCell",
        "OverlappingCells",
        "DisconnectedDomain",
        "DomainNotSimplyConnected",
        "DanglingGeometry",
    }
    assert _digest(texts) == "62f70fbc3aebdabe40f77590424616adb5dae9c2666e01d5c2e21acdcd8fa24e"


# Split points with mixed and coprime denominators.
_CUTS = (F(1, 2), F(1, 3), F(2, 3), F(1, 7), F(4, 7))
_POOL = sorted({F(k, d) for d in (1, 2, 3, 7) for k in range(2 * d + 1)})
_SPANS = st.lists(st.sampled_from(_POOL), min_size=2, max_size=2, unique=True).map(sorted)


def _tiling(draw, max_splits):
    """A random tiling of [0, 2]^2, each split at a cut from ``_CUTS``."""
    rects = [(F(0), F(0), F(2), F(2))]
    for _ in range(draw(st.integers(0, max_splits))):
        i = draw(st.integers(0, len(rects) - 1))
        x0, y0, x1, y1 = rects[i]
        cut = draw(st.sampled_from(_CUTS))
        if draw(st.booleans()):
            c = x0 + (x1 - x0) * cut
            rects[i : i + 1] = [(x0, y0, c, y1), (c, y0, x1, y1)]
        else:
            c = y0 + (y1 - y0) * cut
            rects[i : i + 1] = [(x0, y0, x1, c), (x0, c, x1, y1)]
    return rects


@st.composite
def _rect_sets(draw):
    """Random tilings of [0, 2]^2, some corrupted, or loose rects from a small pool."""
    if draw(st.booleans()):
        rects = [draw(st.tuples(_SPANS, _SPANS)) for _ in range(draw(st.integers(1, 8)))]
        rects = [(x0, y0, x1, y1) for (x0, x1), (y0, y1) in rects]
    else:
        rects = _tiling(draw, 12)
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(rects) - 1))
            x0, y0, x1, y1 = rects[i]
            fix = draw(st.sampled_from(_CUTS))
            rects += draw(
                st.sampled_from(
                    [
                        [rects[i]],  # duplicate
                        [(x0, y0, x0 + (x1 - x0) * fix, y1)],  # nested on a shared side
                        [(x0 + (x1 - x0) * fix / 2, y0 + (y1 - y0) * fix / 2, x1, y1)],  # nested
                        [(x1, y0, x1 + fix, y1)],  # outside, on a shared side
                        [(x1 - fix, y1 - fix, x1 + fix, y1 + fix)],  # across a corner
                        [(x1, y1, x1 + fix, y1 + fix)],  # on a shared corner
                    ]
                )
            )
    return draw(st.permutations(rects))


@settings(max_examples=300, deadline=None)
@given(_rect_sets())
def test_overlap_sweep_agrees_with_pairwise_scan(cells):
    rects = sorted(cells, key=_SORT_KEY)
    try:
        _check_overlaps(rects)
        expected = None
    except OverlappingCells as exc:
        expected = str(exc)
    assert _sweep_finds_overlap(rects) == (expected is not None)
    try:
        t.build_mesh(cells)
        got = None
    except OverlappingCells as exc:
        got = str(exc)
    except t.MeshError:
        got = None
    assert got == expected


def _coordinate_fields(mesh):
    for c in mesh.cells:
        yield from c.rect
    for e in mesh.edges:
        yield from (e.coord, e.lo, e.hi)
    for v in mesh.vertices:
        yield from v.position
    yield from mesh.nodes_x
    yield from mesh.nodes_y


def _grid_cells_at(xs, ys):
    return [(a, c, b, d) for a, b in zip(xs, xs[1:]) for c, d in zip(ys, ys[1:])]


def test_record_coordinates_are_fractions():
    # Records hold Fractions, never a lattice int: str(3) == str(F(3)) and
    # 3 == F(3), so neither the pinned digest nor an equality test sees one.
    coprime = [F(0), F(1, 3), F(1, 2), F(5, 7), F(1)]
    meshes = [grid_mesh(4, 3), ex51_mesh(), t.build_mesh(_grid_cells_at(coprime, coprime[:4]))]
    rng = random.Random(11)
    meshes += [random_mesh(rng, rng.randrange(1, 25))[0] for _ in range(8)]
    for mesh in meshes:
        fields = list(_coordinate_fields(mesh))
        assert fields and {type(v) for v in fields} == {F}


def test_records_refuse_assignment_and_stay_hashable():
    mesh = ex11_mesh()
    rebuilt = t.build_mesh(list(reversed(EX11_CELLS)))
    assert Vertex._fields == ("id", "x", "y", "kind")
    for records, again in ((mesh.cells, rebuilt.cells), (mesh.edges, rebuilt.edges),
                           (mesh.vertices, rebuilt.vertices)):
        for record in records:
            with pytest.raises(AttributeError):
                record.id = -1
            with pytest.raises(AttributeError):
                record.note = "extra"
        assert [record.id for record in records] == list(range(len(records)))
        assert hash(records) == hash(again) and set(records) == set(again)
        assert len(set(records)) == len(records)


def _walk_boundary(edges):
    """Walk the boundary edges once round; raise unless they form one cycle.

    ``_mesh`` proves this walk cannot fail once its other checks pass (see
    its docstring); the reference build keeps it as the witness.
    """
    boundary = [e for e in edges if not e.interior]
    at_vertex: dict[int, list[int]] = {}
    for e in boundary:
        at_vertex.setdefault(e.start, []).append(e.id)
        at_vertex.setdefault(e.end, []).append(e.id)
    start_vertex = min(at_vertex)
    walked = 0
    prev_vertex = start_vertex
    edge = edges[min(at_vertex[start_vertex])]
    while True:
        walked += 1
        nxt = edge.end if edge.start == prev_vertex else edge.start
        if nxt == start_vertex:
            break
        candidates = [i for i in at_vertex[nxt] if i != edge.id]
        if len(candidates) != 1:
            raise DanglingGeometry(f"boundary walk stuck at vertex {nxt}")
        prev_vertex = nxt
        edge = edges[candidates[0]]
    if walked != len(boundary):
        raise DomainNotSimplyConnected("boundary edges form more than one cycle")


def _mesh_by_fragments(rects, grid):
    """Reference build: every cell side cut at the corners on its line, the
    fragments keyed by (direction, line, span) in a dict, each fragment's
    owners counted, and the edges sorted by their (start, end) vertex ids."""
    if not rects:
        raise DegenerateCell("cell list is empty")
    _check_cells(rects, grid)
    exact = {}
    keyed = []
    for rect, ints in zip(rects, grid):
        x0, y0, x1, y1 = ints
        exact.update(zip(ints, rect))
        keyed.append(((y0, x0, y1, x1), rect))
    keyed.sort(key=itemgetter(0))
    rects = [rect for _, rect in keyed]
    grid = [(x0, y0, x1, y1) for (y0, x0, y1, x1), _ in keyed]
    if _sweep_finds_overlap(grid):
        _check_overlaps(rects)

    corners = set()
    for x0, y0, x1, y1 in grid:
        corners.update(((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    points = sorted(corners)
    vid_at = {point: vid for vid, point in enumerate(points)}
    xs_at_y: dict[int, list[int]] = {}
    ys_at_x: dict[int, list[int]] = {}
    for y, x in points:
        xs_at_y.setdefault(y, []).append(x)
        ys_at_x.setdefault(x, []).append(y)
    y_line = {y: i for i, y in enumerate(xs_at_y)}
    x_line = {x: i for i, x in enumerate(sorted(ys_at_x))}

    fragments: dict[tuple, list[int]] = {}

    def side(cell_id, direction, coord, lo, hi):
        pts = xs_at_y[coord] if direction == HORIZONTAL else ys_at_x[coord]
        i = bisect_left(pts, lo)
        span = pts[i : bisect_left(pts, hi, i) + 1]
        for a, b in zip(span, span[1:]):
            fragments.setdefault((direction, coord, a, b), []).append(cell_id)

    for ci, (x0, y0, x1, y1) in enumerate(grid):
        side(ci, HORIZONTAL, y0, x0, x1)
        side(ci, HORIZONTAL, y1, x0, x1)
        side(ci, VERTICAL, x0, y0, y1)
        side(ci, VERTICAL, x1, y0, y1)

    spans = []
    for (direction, coord, lo, hi), owners in fragments.items():
        fragment = (direction, exact[coord], exact[lo], exact[hi])
        if len(owners) > 2:
            raise OverlappingCells(f"edge fragment {fragment} claimed by {len(owners)} cells")
        if direction == HORIZONTAL:
            start, end, line = vid_at[(coord, lo)], vid_at[(coord, hi)], y_line[coord]
        else:
            start, end, line = vid_at[(lo, coord)], vid_at[(hi, coord)], x_line[coord]
        spans.append((start, end, fragment, tuple(sorted(owners)), line))
    spans.sort(key=lambda s: (s[0], s[1]))
    edges = []
    h_edges_of: list[list[int]] = [[] for _ in points]
    v_edges_of: list[list[int]] = [[] for _ in points]
    for eid, (start, end, (direction, coord, lo, hi), owners, _) in enumerate(spans):
        edges.append(Edge(eid, start, end, direction, len(owners) == 2, owners, coord, lo, hi))
        incident = h_edges_of if direction == HORIZONTAL else v_edges_of
        incident[start].append(eid)
        incident[end].append(eid)
    edges = tuple(edges)

    vertices = []
    anomalies = []
    for vid, (y, x) in enumerate(points):
        x, y = exact[x], exact[y]
        h_list, v_list = tuple(h_edges_of[vid]), tuple(v_edges_of[vid])
        if not h_list or not v_list:
            anomalies.append(f"vertex ({x}, {y}) misses a horizontal or vertical edge")
        h_boundary = sum(1 for eid in h_list if not edges[eid].interior)
        v_boundary = sum(1 for eid in v_list if not edges[eid].interior)
        degree = len(h_list) + len(v_list)
        if h_boundary or v_boundary:
            if h_boundary + v_boundary != 2:
                anomalies.append(
                    f"boundary vertex ({x}, {y}) has {h_boundary + v_boundary} boundary edges"
                )
            kind = CORNER if (h_boundary and v_boundary) else BOUNDARY
        elif degree == 4:
            kind = CROSSING
        elif degree == 3:
            kind = T_VERTEX
        else:
            anomalies.append(f"interior vertex ({x}, {y}) has degree {degree}")
            kind = T_VERTEX
        vertices.append(Vertex(vid, x, y, kind))
    vertices = tuple(vertices)
    cells = tuple(Cell(ci, *rect) for ci, rect in enumerate(rects))

    adjacency: dict[int, set[int]] = {ci: set() for ci in range(len(cells))}
    for e in edges:
        if e.interior:
            a, b = e.cells
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(cells):
        raise DisconnectedDomain(f"{len(cells) - len(seen)} cells unreachable in the dual graph")

    f2 = len(cells)
    f1o = sum(1 for e in edges if e.interior)
    f0o = sum(1 for v in vertices if v.interior)
    if f2 - f1o + f0o != 1:
        raise DomainNotSimplyConnected(f"Euler count f2 - f1o + f0o = {f2 - f1o + f0o} != 1")
    if anomalies:
        raise DanglingGeometry("; ".join(anomalies))
    _walk_boundary(edges)
    return TMesh(
        cells,
        edges,
        vertices,
        tuple(exact[x] for x in x_line),
        tuple(exact[y] for y in y_line),
        tuple(s[4] for s in spans),
        tuple(x_line[x] for _, x in points),
        tuple(y_line[y] for y, _ in points),
    )


@st.composite
def _corrupted_tilings(draw):
    """A random tiling of [0, 2]^2 with mixed denominators in shuffled order,
    as it is or with one cell dropped, widened, duplicated or made
    degenerate."""
    rects = _tiling(draw, 16)
    i = draw(st.integers(0, len(rects) - 1))
    x0, y0, x1, y1 = rects[i]
    stretch = draw(st.sampled_from(_CUTS))
    change = draw(st.sampled_from(["keep", "drop", "wider", "taller", "duplicate", "degenerate"]))
    if change == "drop":
        del rects[i]
    elif change == "wider":
        rects[i] = (x0, y0, x1 + (x1 - x0) * stretch, y1)
    elif change == "taller":
        rects[i] = (x0, y0, x1, y1 + (y1 - y0) * stretch)
    elif change == "duplicate":
        rects.append(rects[i])
    elif change == "degenerate":
        rects[i] = draw(st.sampled_from([(x0, y0, x0, y1), (x0, y1, x1, y1), (x1, y0, x0, y1)]))
    return draw(st.permutations(rects))


def _build_outcome(build, cells):
    try:
        mesh = build(*_normalize_rects(cells))
    except (t.MeshError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return _record_text(mesh) + "\n" + _line_text(mesh)


# The messages of the reference's boundary walk and of its interior-degree
# anomaly: `_mesh` proves both checks redundant and no longer makes them.
_UNREACHABLE = ("boundary walk stuck", "more than one cycle", "interior vertex")


def _checked_outcome(cells):
    """``_mesh``'s outcome on ``cells``, after checking that the reference
    build agrees and never fails a check that ``_mesh`` proves redundant."""
    got = _build_outcome(_mesh, cells)
    reference = _build_outcome(_mesh_by_fragments, cells)
    assert got == reference
    assert not any(message in reference for message in _UNREACHABLE), reference
    return got


def _integer_splits(rng, n_splits):
    """The cells of ``n_splits`` random splits of [0, 8]^2 at integer cuts."""
    rects = [(0, 0, 8, 8)]
    for _ in range(n_splits):
        x0, y0, x1, y1 = rect = rng.choice([r for r in rects if r[2] - r[0] > 1 or r[3] - r[1] > 1])
        rects.remove(rect)
        if x1 - x0 > 1 and (y1 - y0 == 1 or rng.random() < 0.5):
            c = rng.randrange(x0 + 1, x1)
            rects += [(x0, y0, c, y1), (c, y0, x1, y1)]
        else:
            c = rng.randrange(y0 + 1, y1)
            rects += [(x0, y0, x1, c), (x0, c, x1, y1)]
    return rects


def _hostile_cells(rng):
    """A random subset of an n x m integer grid or of an integer split mesh,
    transposed, reflected and shuffled at random: often disconnected,
    holed or pinched."""
    if rng.random() < 0.5:
        rects, keep = grid_cells(rng.randint(2, 6), rng.randint(2, 6)), rng.uniform(0.5, 0.95)
    else:
        rects, keep = _integer_splits(rng, rng.randint(3, 25)), rng.uniform(0.6, 0.97)
    cells = [rect for rect in rects if rng.random() < keep] or rects[:1]
    if rng.random() < 0.5:
        cells = [_transposed(rect) for rect in cells]
    if rng.random() < 0.5:
        cells = [_reflected(rect) for rect in cells]
    rng.shuffle(cells)
    return cells


@settings(max_examples=500, deadline=None)
@given(st.one_of(_corrupted_tilings(), _rect_sets(), st.integers(0, 2**32 - 1).map(random.Random).map(_hostile_cells)))
def test_corner_walk_matches_the_fragment_reference(cells):
    _checked_outcome(cells)


def test_corner_walk_matches_the_fragment_reference_on_named_and_larger_meshes():
    # The random ones have up to 60 splits.
    rng = random.Random(20101)
    cases = [EX11_CELLS, EX51_CELLS, PINWHEEL_CELLS, L_CELLS, RING_CELLS, PINCHED_CELLS]
    for _ in range(20):
        mesh, _ = random_mesh(rng, rng.randrange(0, 60), rng.choice((1, 2, 4)), rng.choice((1, 3, 4)))
        cells = mesh.cell_rects()
        rng.shuffle(cells)
        cases.append(cells)
    for cells in cases:
        _checked_outcome(cells)


def test_hostile_topology_sweep_reaches_every_outcome():
    # Subsets of grids and split meshes reach each topological failure, so
    # the agreement above is tested where the proofs in `_mesh` matter.  On
    # the valid ones, every vertex strictly inside a maximal segment is
    # interior, as `analyze_segments` proves.
    rng = random.Random(28)
    outcomes = set()
    inner = 0
    for _ in range(600):
        cells = _hostile_cells(rng)
        outcome = _checked_outcome(cells)
        outcomes.add("valid" if outcome.startswith("cell ") else outcome.split(":")[0])
        if outcome.startswith("cell "):
            mesh = t.build_mesh(cells)
            for seg in t.analyze_segments(mesh).segments:
                assert all(mesh.vertices[v].interior for v in seg.vertices[1:-1]), seg
                inner += len(seg.vertices) - 2
    assert inner > 1000
    assert outcomes == {"valid", "DisconnectedDomain", "DomainNotSimplyConnected", "DanglingGeometry"}
