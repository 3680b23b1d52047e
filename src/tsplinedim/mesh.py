"""T-mesh construction, validation, classification and face counts.

A T-mesh is entered as a bare list of axis-aligned rational rectangles.
The vertices are the cell corners; the edges are the cell sides cut at every
corner that lands on them, with the fragments shared by adjacent cells
merged.  Every coordinate in the named-tuple records ``Cell``, ``Edge`` and
``Vertex`` is an exact ``Fraction``, so incidence tests never depend on
tolerances.  Inside, ``build_mesh`` coerces each coordinate once and scales
the cells once onto one integer lattice, the lcm of all coordinate
denominators, and checks, sorts, keys and compares plain ints; the overlap
check is a sort-and-sweep over y.  A parsed document hands over the lattice
it was sorted on, so its cells are not scaled twice.

Validation stops at the first failure, in this order: a coordinate that does
not coerce, an empty list or a degenerate cell (``DegenerateCell``), an
overlap (``OverlappingCells``), dual connectivity (``DisconnectedDomain``),
the Euler count (``DomainNotSimplyConnected``), and per-vertex incidence
anomalies (``DanglingGeometry``).  The last three imply that the boundary is
one cycle and that every interior vertex has degree 3 or 4, so neither is
checked again (see ``_mesh``).

The edges come from one walk over the corners sorted by (y, x).  The corners
on a horizontal line are a contiguous run of vertex ids, and those on a
vertical line a contiguous run of one column-ordered list of the ids, so
each cell side marks its owner on a slice of fragments, and the walk emits
each vertex's right fragment, then its up fragment, in canonical order.

Beside the ``Fraction`` records, a ``TMesh`` indexes its node lines with flat
int tuples: the line of each edge and the x- and y-line of each vertex, as
positions in ``nodes_x``/``nodes_y``.  Work that depends only on the lines
through a face, such as the combinatorial term or grouping collinear edges
into maximal segments, runs on those ints.
"""

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    DanglingGeometry,
    DegenerateCell,
    DisconnectedDomain,
    DomainNotSimplyConnected,
    OverlappingCells,
)

HORIZONTAL = "h"
VERTICAL = "v"

CROSSING = "crossing"
T_VERTEX = "t-vertex"
BOUNDARY = "boundary"
CORNER = "corner"


def as_fraction(value):
    """Exact coordinate from an int, a Fraction or a rational string (an
    integer, a decimal or ``p/q``; any other string raises ValueError).

    A float is refused: it would silently become its binary expansion.  So is
    an exponent, before ``Fraction`` runs: a short string like ``"1e99999999"``
    would make it build a huge integer first.  So are ``_`` separators and
    non-ASCII digits, which ``Fraction`` reads too (see ``ascii_int``).
    """
    if isinstance(value, float):
        raise TypeError(f"coordinate {value!r} is a float; pass an int, a Fraction or a string")
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"cannot parse rational {value!r}: exponents are not allowed")
        if "_" in value or not value.isascii():
            raise ValueError(f"cannot parse rational {value!r}: digits must be ASCII, without '_'")
    try:
        return value if isinstance(value, Fraction) else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {value!r}") from exc


def ascii_int(text):
    """``int(text)`` for ASCII digits only: ``int`` alone also reads ``1_0``
    as 10 and an Arabic-Indic or full-width digit as its value."""
    if "_" in text or not text.isascii():
        raise ValueError(f"invalid integer {text!r}: digits must be ASCII, without '_'")
    return int(text)


class Vertex(NamedTuple):
    id: int
    x: Fraction
    y: Fraction
    kind: str

    @property
    def position(self):
        return (self.x, self.y)

    @property
    def interior(self):
        return self.kind in (CROSSING, T_VERTEX)


class Edge(NamedTuple):
    id: int
    start: int  # vertex id at (lo) end: left for horizontal, bottom for vertical
    end: int
    direction: str
    interior: bool
    cells: tuple[int, ...]
    coord: Fraction  # supporting-line coordinate: y for horizontal, x for vertical
    lo: Fraction
    hi: Fraction

    @property
    def horizontal(self):
        return self.direction == HORIZONTAL


class Cell(NamedTuple):
    id: int
    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    @property
    def rect(self):
        return (self.x0, self.y0, self.x1, self.y1)


class FaceCounts(NamedTuple):
    f2: int
    f1: int
    f1o: int
    f1h: int
    f1v: int
    f0: int
    f0o: int
    f0plus: int
    f0T: int
    f0b: int
    corners: int

    @property
    def euler(self):
        return self.f2 - self.f1o + self.f0o


class IdentityReport(NamedTuple):
    """Outcome of the counting-identity checks.

    ``nbf_*`` entries are None when the domain is not a rectangle with four
    corner vertices (the identities are only claimed there).
    """

    euler_ok: bool
    rectangular: bool
    nbf_f2_ok: bool | None
    nbf_f1_ok: bool | None
    nbf_f0_ok: bool | None

    @property
    def all_ok(self):
        nbf = (self.nbf_f2_ok, self.nbf_f1_ok, self.nbf_f0_ok)
        return self.euler_ok and all(v is None or v for v in nbf)


class TMesh:
    """Immutable planar T-mesh: tuples of ``Cell``, ``Edge`` and ``Vertex``.

    The vertices are exactly the cell corners.  Canonical ids, each a
    record's position in its tuple: vertices sorted by (y, x), cells by
    (y0, x0), edges by their (start, end) vertex ids, so identical input
    cell lists give identical meshes.  A horizontal edge runs from vertex v
    to v + 1; a vertical one from v to the next corner above v on its line.

    Beside the ``Fraction`` records, flat int tuples index the node lines:
    ``edge_line[eid]`` is the position of an edge's supporting line in
    ``nodes_y`` (horizontal edge) or ``nodes_x`` (vertical edge), and
    ``vertex_xline[vid]``/``vertex_yline[vid]`` are the positions of a
    vertex's x in ``nodes_x`` and its y in ``nodes_y``.  Per-face work that
    depends only on the lines reads these ints instead of hashing or
    comparing coordinates.
    """

    def __init__(self, cells, edges, vertices, nodes_x, nodes_y, edge_line, vertex_xline, vertex_yline):
        self.cells: tuple[Cell, ...] = cells
        self.edges: tuple[Edge, ...] = edges
        self.vertices: tuple[Vertex, ...] = vertices
        self.nodes_x: tuple[Fraction, ...] = nodes_x
        self.nodes_y: tuple[Fraction, ...] = nodes_y
        self.edge_line: tuple[int, ...] = edge_line
        self.vertex_xline: tuple[int, ...] = vertex_xline
        self.vertex_yline: tuple[int, ...] = vertex_yline
        self.interior_edges = tuple(e.id for e in edges if e.interior)
        self.interior_vertices = tuple(v.id for v in vertices if v.interior)

    def cell_rects(self):
        return [c.rect for c in self.cells]

    @property
    def bbox(self):
        return (
            min(c.x0 for c in self.cells),
            min(c.y0 for c in self.cells),
            max(c.x1 for c in self.cells),
            max(c.y1 for c in self.cells),
        )


def _normalize_rects(rectangles):
    """The cells as ``Fraction`` 4-tuples and their lattice ints.

    Each coordinate is coerced once and the input is iterated once, so a
    one-shot iterable works.  The degeneracy check runs later, on the
    lattice (``_check_cells``); when a coordinate fails to coerce, a
    degenerate cell before it is reported first, as when each cell was
    checked as it was read.
    """
    rects = []
    try:
        for rect in rectangles:
            x0, y0, x1, y1 = (as_fraction(v) for v in rect)
            rects.append((x0, y0, x1, y1))
    except (TypeError, ValueError):
        _check_cells(rects, rects)
        raise
    return rects, to_lattice(rects)


def _check_cells(rects, grid):
    """Raise for the first rect of zero width or height; ``grid`` holds the
    same rects on any monotone scale, such as the lattice."""
    for rect, (x0, y0, x1, y1) in zip(rects, grid):
        if x0 >= x1 or y0 >= y1:
            raise DegenerateCell(f"degenerate rectangle {_format_rect(rect)}")


def to_lattice(rects):
    """The rects of exact coordinates on one integer lattice (see ``lattice``)."""
    ints = iter(lattice([v for rect in rects for v in rect]))
    return list(zip(ints, ints, ints, ints))


def lattice(values):
    """Exact values on one integer lattice: each times the lcm of all their
    denominators.

    The scaling is monotone and one-to-one, so the ints sort, key and
    compare exactly as the ``Fraction`` values do, at int speed.
    """
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values]


def _format_rect(rect):
    return "[" + ", ".join(str(v) for v in rect) + "]"


def _check_overlaps(rects):
    """Raise for the first pair, in list order, of rects whose interiors overlap."""
    for i in range(len(rects)):
        x0, y0, x1, y1 = rects[i]
        for j in range(i + 1, len(rects)):
            a0, b0, a1, b1 = rects[j]
            if x0 < a1 and a0 < x1 and y0 < b1 and b0 < y1:
                raise OverlappingCells(
                    f"cells {_format_rect(rects[i])} and {_format_rect(rects[j])} overlap"
                )


def _sweep_finds_overlap(rects):
    """True when two of the rects, sorted by y0, have overlapping interiors.

    A sweep upward over y (Bentley & Wood 1980): a heap holds the active
    rects by top y, and their x-intervals sit in one sorted list.  Until an
    overlap is found the active intervals are disjoint, so a new interval
    overlaps one of them exactly when it overlaps the last one that starts
    left of its right end.
    """
    tops = []  # (y1, x0) of each active rect
    starts, ends = [], []  # the active x-intervals, sorted
    for x0, y0, x1, y1 in rects:
        while tops and tops[0][0] <= y0:
            i = bisect_left(starts, heappop(tops)[1])
            del starts[i], ends[i]
        i = bisect_left(starts, x1)
        if i and ends[i - 1] > x0:
            return True
        starts.insert(i, x0)
        ends.insert(i, x1)
        heappush(tops, (y1, x0))
    return False


def build_mesh(rectangles):
    """Build a validated TMesh from rational rectangles with disjoint interiors."""
    return _mesh(*_normalize_rects(rectangles))


def _mesh(rects, grid):
    """The TMesh of the ``Fraction`` rects, given on the integer lattice as
    ``grid`` (see ``to_lattice``), in the same order.

    Past the cell and overlap checks, a mesh is valid when it is
    dual-connected, has Euler count f2 - f1o + f0o = 1 and has no incidence
    anomaly: every boundary vertex has exactly two boundary edges.  These
    three imply the two properties below, so neither is checked.

    * One boundary cycle.  Each boundary vertex has two boundary edges, so
      the boundary edges form b disjoint cycles and f1b = f0b.  Then
      f2 - f1o + f0o = f2 - f1 + f0 is the Euler characteristic of the cell
      union.  That union is connected (dual connectivity) and a surface
      (no pinch), and it lies in the plane with b boundary circles, so its
      Euler characteristic is 2 - b.  The Euler check forces b = 1.
    * Interior degree 3 or 4.  An interior vertex is a corner of some cell,
      and both of that corner's sides start with interior edges.  The cell
      across either side adds a third edge at the vertex: its own side at
      its corner there, or the continuation of its side through the vertex.
      No direction holds two edges, so the degree is 3 or 4.
    """
    if not rects:
        raise DegenerateCell("cell list is empty")
    _check_cells(rects, grid)

    # Sorting, keying and comparing on the integer lattice gives the
    # canonical order and ids; `exact` maps each lattice value back to its
    # one Fraction.
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
        _check_overlaps(rects)  # names the first overlapping pair in canonical order

    # The vertices are the cell corners, with ids in (y, x) order, so the
    # corners on one horizontal line are one contiguous vid range.  A stable
    # sort of the vids by x lists the corners of each vertical line
    # contiguously too: `column` is that list and `place[vid]` a vertex's
    # position in it.  Every fragment below ends at a corner on its line, and
    # every corner ends its own cell's side fragments.
    corners = set()
    for x0, y0, x1, y1 in grid:
        corners.update(((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    points = sorted(corners)
    count = len(points)
    vid_at = {point: vid for vid, point in enumerate(points)}
    point_x = [x for _, x in points]
    column = sorted(range(count), key=point_x.__getitem__)
    place = [0] * count
    for position, vid in enumerate(column):
        place[vid] = position
    # Node-line indices: nodes_y is the distinct y of the corners in vid
    # order, nodes_x their sorted distinct x.  Every corner lies on one line
    # of each.
    y_line = {y: i for i, y in enumerate(dict.fromkeys(y for y, _ in points))}
    x_line = {x: i for i, x in enumerate(sorted(set(point_x)))}
    vertex_xline = tuple(x_line[x] for x in point_x)
    vertex_yline = tuple(y_line[y] for y, _ in points)

    # A side fragment runs from a corner to the next corner on its line: from
    # vid v to v + 1 when horizontal, from column[k] to column[k + 1] when
    # vertical.  So a cell side covers the fragments that start at a slice of
    # the vids, or of the column positions, and each fragment records the
    # cell on either side of it.  A second cell on the same side of a
    # fragment would overlap the first, which the sweep above has refused,
    # so no fragment has more than two owners and none needs counting.
    below = [None] * count  # by vid: the cell whose top side holds the fragment
    above = [None] * count  # by vid: the cell whose bottom side holds it
    left = [None] * count  # by column position: the cell whose right side holds it
    right = [None] * count  # by column position: the cell whose left side holds it
    for ci, (x0, y0, x1, y1) in enumerate(grid):
        v00, v10, v01, v11 = vid_at[(y0, x0)], vid_at[(y0, x1)], vid_at[(y1, x0)], vid_at[(y1, x1)]
        above[v00:v10] = [ci] * (v10 - v00)
        below[v01:v11] = [ci] * (v11 - v01)
        k0, k1 = place[v00], place[v01]
        right[k0:k1] = [ci] * (k1 - k0)
        k0, k1 = place[v10], place[v11]
        left[k0:k1] = [ci] * (k1 - k0)

    # Walking the vids in order and taking each vertex's right fragment, then
    # its up fragment, gives the edges sorted by their (start, end) vertex
    # ids: the right neighbour v + 1 comes before any vertex on a higher line.
    # The cell below a horizontal fragment sorts before the one above it.
    # The walk also counts each vertex's edges, and its boundary edges per
    # direction, and lists the cell pairs that share an interior edge.
    xs = [exact[x] for x in point_x]
    ys = [exact[y] for y, _ in points]
    up = column[1:] + [None]
    edges = []
    edge_line = []
    shared = []
    degrees = [0] * count
    h_boundary, v_boundary = [0] * count, [0] * count
    for vid, a, b, position in zip(range(count), below, above, place):
        if a is not None or b is not None:
            end = vid + 1
            if a is None or b is None:
                owners = (b,) if a is None else (a,)
                h_boundary[vid] += 1
                h_boundary[end] += 1
            else:
                owners = (a, b)
                shared.append(owners)
            eid = len(edges)
            edges.append(Edge(eid, vid, end, HORIZONTAL, len(owners) == 2, owners, ys[vid], xs[vid], xs[end]))
            edge_line.append(vertex_yline[vid])
            degrees[vid] += 1
            degrees[end] += 1
        a, b = left[position], right[position]
        if a is not None or b is not None:
            end = up[position]
            if a is None or b is None:
                owners = (b,) if a is None else (a,)
                v_boundary[vid] += 1
                v_boundary[end] += 1
            else:
                owners = (a, b) if a < b else (b, a)
                shared.append(owners)
            eid = len(edges)
            edges.append(Edge(eid, vid, end, VERTICAL, len(owners) == 2, owners, xs[vid], ys[vid], ys[end]))
            edge_line.append(vertex_xline[vid])
            degrees[vid] += 1
            degrees[end] += 1
    edges = tuple(edges)

    # Classify vertices; incidence anomalies are reported only after the
    # connectivity and Euler checks, which give more specific errors.  Every
    # vertex is a cell corner, so it has an edge in each direction, and an
    # interior one has degree 3 or 4 (see the docstring).
    vertices = []
    anomalies = []
    f0o = 0
    for vid, x, y, degree, h_ends, v_ends in zip(range(count), xs, ys, degrees, h_boundary, v_boundary):
        if h_ends or v_ends:
            if h_ends + v_ends != 2:
                anomalies.append(f"boundary vertex ({x}, {y}) has {h_ends + v_ends} boundary edges")
            kind = CORNER if (h_ends and v_ends) else BOUNDARY
        else:
            f0o += 1
            kind = CROSSING if degree == 4 else T_VERTEX
        vertices.append(Vertex(vid, x, y, kind))
    vertices = tuple(vertices)
    cells = tuple(Cell(ci, *rect) for ci, rect in enumerate(rects))

    # Dual connectivity over shared interior edges.
    adjacency: list[list[int]] = [[] for _ in cells]
    for a, b in shared:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = [False] * len(cells)
    seen[0] = True
    reached = 1
    stack = [0]
    while stack:
        for nb in adjacency[stack.pop()]:
            if not seen[nb]:
                seen[nb] = True
                reached += 1
                stack.append(nb)
    if reached != len(cells):
        raise DisconnectedDomain(f"{len(cells) - reached} cells unreachable in the dual graph")

    f2 = len(cells)
    f1o = len(shared)
    if f2 - f1o + f0o != 1:
        raise DomainNotSimplyConnected(f"Euler count f2 - f1o + f0o = {f2 - f1o + f0o} != 1")
    if anomalies:
        raise DanglingGeometry("; ".join(anomalies))

    return TMesh(
        cells,
        edges,
        vertices,
        tuple(exact[x] for x in x_line),
        tuple(exact[y] for y in y_line),
        tuple(edge_line),
        vertex_xline,
        vertex_yline,
    )


def stats(mesh):
    """Face counts of a valid mesh."""
    kinds = Counter(v.kind for v in mesh.vertices)
    f1h = sum(1 for eid in mesh.interior_edges if mesh.edges[eid].horizontal)
    return FaceCounts(
        f2=len(mesh.cells),
        f1=len(mesh.edges),
        f1o=len(mesh.interior_edges),
        f1h=f1h,
        f1v=len(mesh.interior_edges) - f1h,
        f0=len(mesh.vertices),
        f0o=len(mesh.interior_vertices),
        f0plus=kinds[CROSSING],
        f0T=kinds[T_VERTEX],
        f0b=len(mesh.vertices) - len(mesh.interior_vertices),
        corners=kinds[CORNER],
    )


def is_rectangular_domain(mesh):
    """True when the cell union is exactly its bounding box."""
    x0, y0, x1, y1 = mesh.bbox
    area = sum((c.x1 - c.x0) * (c.y1 - c.y0) for c in mesh.cells)
    corners = sum(1 for v in mesh.vertices if v.kind == CORNER)
    return area == (x1 - x0) * (y1 - y0) and corners == 4


def check_counting_identities(mesh):
    """Euler identity on any mesh; the three rectangle-domain identities when applicable."""
    counts = stats(mesh)
    euler_ok = counts.euler == 1
    rectangular = is_rectangular_domain(mesh)
    if not rectangular:
        return IdentityReport(euler_ok, False, None, None, None)
    half = Fraction(1, 2)
    nbf_f2 = counts.f2 == counts.f0plus + half * counts.f0T + half * counts.f0b - 1
    nbf_f1 = counts.f1o == 2 * counts.f0plus + 3 * half * counts.f0T + half * counts.f0b - 2
    nbf_f0 = counts.f0o == counts.f0plus + counts.f0T
    return IdentityReport(euler_ok, True, nbf_f2, nbf_f1, nbf_f0)
