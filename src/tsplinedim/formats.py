"""Text formats: "tmesh v1" mesh files and "tsub v1" subdivision histories.

Rationals are printed as ``p/q`` (plain integer when q = 1) so files
round-trip losslessly; ``#`` starts a comment anywhere on a line.
"""

import operator
from typing import NamedTuple

from .errors import BadRational, MeshError, TmeshSyntaxError, UnknownDirective
from .hierarchy import SplitEvent, SubdivisionHistory, weighted_split
from .mesh import _mesh, as_fraction, ascii_int, build_mesh, lattice, to_lattice
from .smoothness import SmoothnessDistribution, constant_distribution


def format_rational(value):
    value = as_fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def parse_rational(token, line=None):
    """An integer, a decimal or ``p/q``, read by ``as_fraction``."""
    try:
        return as_fraction(token)
    except ValueError as exc:
        raise BadRational(str(exc), line) from exc


def _token_reader():
    """``parse_rational`` behind a per-document ``{token: Fraction}`` memo, so
    each distinct token is read once; a bad token raises on its first line.
    Returns the reader and its memo."""
    memo = {}

    def read(token, line):
        value = memo.get(token)
        if value is None:
            value = memo[token] = parse_rational(token, line)
        return value

    return read, memo


def _parse_int(token, line):
    try:
        return ascii_int(token)
    except ValueError as exc:
        raise TmeshSyntaxError(f"expected an integer, got {token!r}", line) from exc


def _significant_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def _body(text, name):
    """The significant lines of a ``<name> 1`` file after its header line."""
    lines = _significant_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise TmeshSyntaxError(f"empty file: missing '{name} 1' header")
    if header != [name, "1"]:
        raise TmeshSyntaxError(f"expected header '{name} 1'", number)
    return lines


class _DocumentFields(NamedTuple):
    cells: tuple
    default_smooth: tuple[int, int] | None = None
    smooth_h: tuple = ()
    smooth_v: tuple = ()


class MeshDocument(_DocumentFields):
    """Parsed tmesh file: cells plus optional smoothness declarations."""

    # Not a field, neither compared nor shown: ``make`` and ``parse_tmesh``
    # set it to the cells on their integer lattice (``mesh.to_lattice``), so
    # that ``document_mesh`` scales them no second time.  A document built
    # or replaced otherwise has none.
    _grid = None

    @staticmethod
    def make(cells, default_smooth=None, smooth_h=(), smooth_v=()):
        """Canonical document: cells and node orders sorted, coordinates exact.

        Coordinates go through ``as_fraction`` and orders through
        ``operator.index``, so a float raises TypeError instead of becoming
        a rational.  The cells sort on their integer-lattice keys, in the
        order of their ``Fraction`` tuples.
        """
        cells = [tuple(map(as_fraction, rect)) for rect in cells]
        if default_smooth is not None:
            default_smooth = tuple(map(operator.index, default_smooth))
        smooth_h = [(as_fraction(k), operator.index(v)) for k, v in dict(smooth_h).items()]
        smooth_v = [(as_fraction(k), operator.index(v)) for k, v in dict(smooth_v).items()]
        return MeshDocument._sorted(cells, to_lattice(cells), default_smooth, smooth_h, smooth_v)

    @staticmethod
    def _sorted(cells, grid, default_smooth, smooth_h, smooth_v):
        """The document of exact cells, given on their integer lattice as
        ``grid`` in the same order, and of (node, order) pairs: both sorted,
        the cells on their lattice keys."""
        keyed = sorted(zip(grid, cells), key=operator.itemgetter(0))
        cells = tuple(cell for _, cell in keyed)
        doc = MeshDocument(cells, default_smooth, tuple(sorted(smooth_h)), tuple(sorted(smooth_v)))
        doc._grid = tuple(ints for ints, _ in keyed)
        return doc


def _check_cell_lines(grid, numbers):
    """Raise for the first cell line, in file order, of zero width or height;
    ``grid`` holds the cells on any monotone scale, such as the lattice."""
    for (x0, y0, x1, y1), number in zip(grid, numbers):
        if x0 >= x1 or y0 >= y1:
            raise TmeshSyntaxError("degenerate rectangle", number)


def parse_tmesh(text):
    lines = _body(text, "tmesh")

    rational, memo = _token_reader()
    cells = []  # the four coordinate tokens of each cell line
    numbers = []  # and its line number
    default_smooth = None
    smooth_h = {}
    smooth_v = {}
    try:
        for number, tokens in lines:
            directive, args = tokens[0], tokens[1:]
            if directive == "cell":
                if len(args) != 4:
                    raise TmeshSyntaxError("cell needs 4 coordinates", number)
                for token in args:
                    if token not in memo:
                        rational(token, number)
                cells.append(args)
                numbers.append(number)
            elif directive == "smooth":
                if len(args) != 3 or args[0] not in ("h", "v"):
                    raise TmeshSyntaxError("usage: smooth h|v <node> <order>", number)
                node = rational(args[1], number)
                order = _parse_int(args[2], number)
                if order < 0:
                    raise TmeshSyntaxError("smoothness order must be nonnegative", number)
                (smooth_h if args[0] == "h" else smooth_v)[node] = order
            elif directive == "default-smooth":
                if len(args) != 2:
                    raise TmeshSyntaxError("usage: default-smooth <r> <r'>", number)
                default_smooth = (_parse_int(args[0], number), _parse_int(args[1], number))
                if min(default_smooth) < 0:
                    raise TmeshSyntaxError("smoothness order must be nonnegative", number)
            else:
                raise UnknownDirective(f"unknown directive {directive!r}", number)
    except MeshError:
        # A degenerate cell line before this one is the first error.
        _check_cell_lines(([memo[token] for token in cell] for cell in cells), numbers)
        raise
    if not cells:
        raise TmeshSyntaxError("no 'cell' line: a tmesh needs at least one cell")

    # One lattice int per distinct cell token; the cells are checked and
    # sorted on those ints, and no Fraction is compared.
    tokens = list(set().union(*cells))
    ints = dict(zip(tokens, lattice([memo[token] for token in tokens])))
    grid = [tuple(map(ints.__getitem__, cell)) for cell in cells]
    _check_cell_lines(grid, numbers)
    cells = [tuple(map(memo.__getitem__, cell)) for cell in cells]
    return MeshDocument._sorted(cells, grid, default_smooth, smooth_h.items(), smooth_v.items())


def format_tmesh(doc):
    out = ["tmesh 1"]
    if doc.default_smooth is not None:
        out.append(f"default-smooth {doc.default_smooth[0]} {doc.default_smooth[1]}")
    for node, order in doc.smooth_h:
        out.append(f"smooth h {format_rational(node)} {order}")
    for node, order in doc.smooth_v:
        out.append(f"smooth v {format_rational(node)} {order}")
    for x0, y0, x1, y1 in doc.cells:
        out.append(
            f"cell {format_rational(x0)} {format_rational(y0)}"
            f" {format_rational(x1)} {format_rational(y1)}"
        )
    return "\n".join(out) + "\n"


def document_mesh(doc):
    """The mesh of the document's cells: ``build_mesh``, on the lattice
    ``MeshDocument.make`` already computed when there is one."""
    if doc._grid is None:
        return build_mesh(doc.cells)
    return _mesh(doc.cells, doc._grid)


def document_smoothness(doc, mesh, override=None):
    """Distribution from the file declarations, or from an (r, r') override.

    Returns None when the document declares nothing and no override is given.
    A ``smooth`` line on a coordinate that is no node line of the mesh is
    refused by ``SmoothnessDistribution``, as ``smooth h|v <node>: not a node
    of the mesh``, the first such line of each direction in sorted order.
    """
    if override is not None:
        return constant_distribution(mesh, *override)
    if doc.default_smooth is None and not doc.smooth_h and not doc.smooth_v:
        return None
    r_h, r_v = {}, {}
    if doc.default_smooth is not None:
        r, rp = doc.default_smooth
        r_h, r_v = dict.fromkeys(mesh.nodes_x, r), dict.fromkeys(mesh.nodes_y, rp)
    r_h.update(doc.smooth_h)
    r_v.update(doc.smooth_v)
    return SmoothnessDistribution(mesh, r_h, r_v)


def parse_tsub(text):
    lines = _body(text, "tsub")

    rational, _ = _token_reader()
    initial = None
    events = []
    for number, tokens in lines:
        directive, args = tokens[0], tokens[1:]
        if directive == "init":
            if initial is not None:
                raise TmeshSyntaxError("duplicate init line", number)
            if len(args) != 4:
                raise TmeshSyntaxError("init needs 4 coordinates", number)
            x0, y0, x1, y1 = (rational(t, number) for t in args)
            if x0 >= x1 or y0 >= y1:
                raise TmeshSyntaxError("degenerate initial rectangle", number)
            initial = (x0, y0, x1, y1)
        elif directive in ("split", "wsplit"):
            if initial is None:
                raise TmeshSyntaxError("split before init", number)
            expect = 3 if directive == "split" else 5
            if len(args) != expect or args[1] not in ("h", "v"):
                raise TmeshSyntaxError(f"usage: {directive} <cell-id> h|v <coord>"
                                       + ("" if directive == "split" else " <k> <k'>"), number)
            cell = _parse_int(args[0], number)
            coord = rational(args[2], number)
            if directive == "split":
                events.append(SplitEvent(cell, args[1], coord))
            else:
                rule = (_parse_int(args[3], number), _parse_int(args[4], number))
                if min(rule) < 0:
                    raise TmeshSyntaxError("wsplit rule k, k' must be nonnegative", number)
                events.append(SplitEvent(cell, args[1], coord, rule))
        else:
            raise UnknownDirective(f"unknown directive {directive!r}", number)
    if initial is None:
        raise TmeshSyntaxError("missing init line")
    return SubdivisionHistory(initial, events)


def format_tsub(history):
    """Write a history as split lines; an event with a rule (a parsed
    ``wsplit`` line) as a ``wsplit`` line.  Expanded histories have none."""
    x0, y0, x1, y1 = history.initial
    out = [
        "tsub 1",
        f"init {format_rational(x0)} {format_rational(y0)}"
        f" {format_rational(x1)} {format_rational(y1)}",
    ]
    for ev in history.events:
        line = f"{ev.cell} {ev.direction} {format_rational(ev.coord)}"
        out.append(f"split {line}" if ev.rule is None else f"wsplit {line} {ev.rule[0]} {ev.rule[1]}")
    return "\n".join(out) + "\n"


def apply_history(history, smoothness=None, degree=None, rule=None):
    """Execute a parsed history; returns (cells, elementary history).

    ``cells`` is a new list of the refined mesh's rectangles in canonical
    order, equal to ``build_mesh(cells).cell_rects()``.  No mesh of the
    cells is built, only the one-cell mesh that validates the initial
    rectangle: each split lies strictly inside one cell of a rectangle
    tiling and replaces it by its two halves, so the cells always tile the
    initial rectangle and ``build_mesh`` cannot fail on them.

    Plain splits are only recorded, and ``wsplit`` events run the weighted
    rule on the expanded history's replay.  ``wsplit`` events need
    ``smoothness`` and ``degree``.  When ``rule`` is given, plain splits are
    run through the weighted rule with that (k, k') as well.  The first bad
    event raises first: the plain splits before a ``wsplit`` are replayed
    before its arguments are checked, and the rest at the end.
    """
    expanded = SubdivisionHistory(history.initial)
    for ev in history.events:
        use_rule = rule if ev.rule is None else ev.rule
        if use_rule is None:
            expanded.events.append(SplitEvent(ev.cell, ev.direction, as_fraction(ev.coord)))
            continue
        expanded._replayed()
        if smoothness is None or degree is None:
            raise ValueError("weighted splits need a smoothness and a degree")
        weighted_split(None, expanded, ev.cell, ev.direction, ev.coord, smoothness, degree, *use_rule)
    return list(expanded._replayed().rects), expanded
