"""Canonical meshes and random generators shared by the test modules."""

import random
from fractions import Fraction as F

from hypothesis import strategies as st

import tsplinedim as t
from tsplinedim.hierarchy import SplitEvent

# Staircase domain with 7 cells: 12 corners, 3 boundary T-vertices, and an
# interior chain at y=2 carrying two T-vertices and one crossing.  Matches
# the reference example's published face counts exactly.
EX11_CELLS = [
    (0, 0, 2, 2),
    (2, 1, 4, 2),
    (4, 1, 5, 2),
    (0, 2, 1, 4),
    (1, 2, 2, 3),
    (2, 2, 3, 4),
    (3, 2, 4, 4),
]

# Three vertical strips with the middle one split at height 1/2: one
# horizontal interior segment pinned only at its two end points.
EX51_CELLS = [
    (0, 0, 1, 1),
    (1, 0, 2, F(1, 2)),
    (1, F(1, 2), 2, 1),
    (2, 0, 3, 1),
]

# Ring of eight cells around a pinwheel of five: the four interior segments
# block one another in a cycle, so the mesh is not hierarchical.
PINWHEEL_CELLS = [
    (0, 0, 1, 1), (1, 0, 4, 1), (4, 0, 5, 1),
    (0, 1, 1, 4), (4, 1, 5, 4),
    (0, 4, 1, 5), (1, 4, 4, 5), (4, 4, 5, 5),
    (1, 1, 3, 2), (3, 1, 4, 3), (2, 3, 4, 4), (1, 2, 2, 4), (2, 2, 3, 3),
]

L_CELLS = [(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2)]

# Annulus: four cells around a missing centre square.
RING_CELLS = [(0, 0, 3, 1), (0, 1, 1, 2), (2, 1, 3, 2), (0, 2, 3, 3)]


def ex11_mesh():
    return t.build_mesh(EX11_CELLS)


def ex51_mesh():
    return t.build_mesh(EX51_CELLS)


def grid_cells(nx, ny):
    return [(i, j, i + 1, j + 1) for i in range(nx) for j in range(ny)]


def grid_mesh(nx, ny):
    return t.build_mesh(grid_cells(nx, ny))


def pinwheel_mesh():
    return t.build_mesh(PINWHEEL_CELLS)


def cell_containing(mesh, x, y):
    """The cell whose open interior contains (x, y), or None."""
    return next((c for c in mesh.cells if c.x0 < x < c.x1 and c.y0 < y < c.y1), None)


def vertex_at(mesh, x, y):
    """The id of the vertex at (x, y), or None."""
    return next((v.id for v in mesh.vertices if v.position == (x, y)), None)


def split_at(mesh, hist, px, py, direction, coord):
    """Split the cell whose interior contains (px, py)."""
    cell = cell_containing(mesh, px, py)
    return t.split_cell(mesh, hist, cell.id, direction, coord)


def ex19():
    """Mesh with four interior segments created in order rho1..rho4.

    Two full support lines each way on [0,6]^2, then: rho1 at y=2 and rho2 at
    y=4 spanning x in [1,5]; rho3 at x=2 over y in [1,4]; rho4 at x=4 over
    y in [2,5].  rho1 blocks rho4 and rho2 blocks rho3.
    """
    m, h = t.initial_mesh(0, 0, 6, 6)
    m = split_at(m, h, 3, 3, "v", 1).mesh
    m = split_at(m, h, 3, 3, "v", 5).mesh
    for px in (F(1, 2), 3, F(11, 2)):
        m = split_at(m, h, px, 3, "h", 1).mesh
    for px in (F(1, 2), 3, F(11, 2)):
        m = split_at(m, h, px, 3, "h", 5).mesh
    m = split_at(m, h, 3, 3, "h", 2).mesh  # rho1
    m = split_at(m, h, 3, 3, "h", 4).mesh  # rho2
    m = split_at(m, h, 3, F(3, 2), "v", 2).mesh  # rho3 appears
    m = split_at(m, h, 3, 3, "v", 2).mesh  # rho3 extended
    m = split_at(m, h, 3, 3, "v", 4).mesh  # rho4 appears
    m = split_at(m, h, 3, F(9, 2), "v", 4).mesh  # rho4 extended
    return m, h


def grid_history(nx, ny):
    """nx x ny unit grid on [0,nx]x[0,ny] with its construction history:
    full-height vertical lines left to right, then each row line cell by cell."""
    m, h = t.initial_mesh(0, 0, nx, ny)
    for x in range(1, nx):
        m = split_at(m, h, x + F(1, 2), F(ny, 2), "v", x).mesh
    for y in range(1, ny):
        for x in range(nx):
            m = split_at(m, h, x + F(1, 2), y + F(1, 2), "h", y).mesh
    return m, h


def grid3x3_history():
    """3x3 unit grid on [0,3]^2 with its construction history."""
    return grid_history(3, 3)


def subdivide_cell_3x3(mesh, hist, x0, y0):
    """Subdivide the unit cell with lower-left corner (x0, y0) into nine equal cells."""
    a1, a2 = F(1, 3), F(2, 3)
    m = split_at(mesh, hist, x0 + F(1, 2), y0 + F(1, 2), "v", x0 + a1).mesh
    m = split_at(m, hist, x0 + F(2, 3), y0 + F(1, 2), "v", x0 + a2).mesh
    for dx in (F(1, 6), F(1, 2), F(5, 6)):
        m = split_at(m, hist, x0 + dx, y0 + F(1, 2), "h", y0 + a1).mesh
    for dx in (F(1, 6), F(1, 2), F(5, 6)):
        m = split_at(m, hist, x0 + dx, y0 + F(3, 4), "h", y0 + a2).mesh
    return m


def subdivide_center_3x3(mesh, hist):
    """Subdivide the centre unit cell of the 3x3 grid into nine equal cells."""
    return subdivide_cell_3x3(mesh, hist, 1, 1)


_SORT_KEY = lambda r: (r[1], r[0], r[3], r[2])
_SPLIT_FRACTIONS = (F(1, 4), F(1, 2), F(3, 4))


def random_history(rng, n_splits, width=4, height=4):
    """Random hierarchical mesh as (history, final rectangle list).

    Maintains the canonically sorted rectangle list directly, so no
    intermediate meshes are built; cell ids in the recorded events are the
    positions in that sorted list, which is exactly the canonical id rule.
    """
    initial = (F(0), F(0), F(width), F(height))
    rects = [initial]
    events = []
    for _ in range(n_splits):
        idx = rng.randrange(len(rects))
        x0, y0, x1, y1 = rects[idx]
        direction = rng.choice("hv")
        frac = rng.choice(_SPLIT_FRACTIONS)
        if direction == "v":
            c = x0 + (x1 - x0) * frac
            halves = [(x0, y0, c, y1), (c, y0, x1, y1)]
        else:
            c = y0 + (y1 - y0) * frac
            halves = [(x0, y0, x1, c), (x0, c, x1, y1)]
        events.append(SplitEvent(idx, direction, c))
        rects[idx : idx + 1] = halves
        rects.sort(key=_SORT_KEY)
    return t.SubdivisionHistory(initial, events), rects


def random_mesh(rng, n_splits, width=4, height=4):
    history, rects = random_history(rng, n_splits, width, height)
    return t.build_mesh(rects), history


def univariate_spline_dim(m, orders):
    """Dimension of degree <= m univariate splines with the given interior
    continuity orders (min-truncated multiplicities)."""
    return m + 1 + sum(m - min(r, m) for r in orders)


@st.composite
def spaces(draw):
    """(mesh, distribution, degree): a random history, the pinwheel or a
    grid, maybe transposed or reflected, a degree in 1..3 each way and
    per-line orders 0..degree + 1."""
    rng = random.Random(draw(st.integers(min_value=0)))
    kind = draw(st.sampled_from(("history", "pinwheel", "grid")))
    if kind == "history":
        cells = random_history(rng, rng.randrange(40), rng.choice((1, 4)), rng.choice((1, 3)))[1]
    elif kind == "pinwheel":
        cells = PINWHEEL_CELLS
    else:
        cells = grid_cells(rng.randint(1, 7), rng.randint(1, 7))
    if draw(st.booleans()):  # transpose: (x, y) -> (y, x)
        cells = [(y0, x0, y1, x1) for x0, y0, x1, y1 in cells]
    if draw(st.booleans()):  # reflect: x -> -x
        cells = [(-x1, y0, -x0, y1) for x0, y0, x1, y1 in cells]
    mesh = t.build_mesh(cells)
    degree = m, n = rng.randint(1, 3), rng.randint(1, 3)
    r_h = {x: rng.randint(0, m + 1) for x in mesh.nodes_x}
    r_v = {y: rng.randint(0, n + 1) for y in mesh.nodes_y}
    return mesh, t.SmoothnessDistribution(mesh, r_h, r_v), degree
