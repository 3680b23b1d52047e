import random

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

import tsplinedim as t
from tsplinedim import oracle
from tsplinedim.errors import DegreeOutOfRange, DuplicatePoints
from tsplinedim.linalg import SparseRationalMatrix, rational_rank
from tsplinedim.mesh import HORIZONTAL, VERTICAL

from meshgen import (
    PINWHEEL_CELLS,
    ex19,
    ex51_mesh,
    grid3x3_history,
    grid_mesh,
    pinwheel_mesh,
    random_history,
    random_mesh,
    spaces,
    subdivide_center_3x3,
    univariate_spline_dim,
)


def test_rational_rank_basics():
    empty = SparseRationalMatrix(3, 4)
    assert t.rational_rank(empty) == 0
    eye = SparseRationalMatrix(5, 5)
    for i in range(5):
        eye.set(i, i, F(3, 7))
    assert t.rational_rank(eye) == 5
    dependent = SparseRationalMatrix(3, 3)
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            dependent.set(i, j, v)
    assert t.rational_rank(dependent) == 2


def test_dump_triplets_roundtrip_shape():
    mat = SparseRationalMatrix(2, 2)
    mat.set(0, 0, F(1, 3))
    mat.set(1, 1, -2)
    text = mat.dump_triplets()
    lines = text.strip().splitlines()
    assert lines[0] == "2 2"
    assert lines[1] == "0 0 1/3" and lines[2] == "1 1 -2/1"


def test_system_shapes_and_ranks():
    deg = (2, 2)
    single = t.build_mesh([(0, 0, 1, 1)])
    sys0 = t.build_spline_system(single, t.constant_distribution(single, 1, 1), deg)
    assert (sys0.nrows, sys0.ncols) == (0, 9)

    strip = t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    sys1 = t.build_spline_system(strip, t.constant_distribution(strip, 1, 1), deg)
    assert (sys1.nrows, sys1.ncols) == (6, 18)
    assert t.rational_rank(sys1) == 6

    m51 = ex51_mesh()
    sys2 = t.build_spline_system(m51, t.constant_distribution(m51, 1, 1), deg)
    assert (sys2.nrows, sys2.ncols) == (30, 36)
    assert t.rational_rank(sys2) == 21


def test_exact_dimensions():
    deg = (2, 2)
    m51 = ex51_mesh()
    assert t.spline_dimension_exact(m51, t.constant_distribution(m51, 1, 1), deg) == 15

    single = t.build_mesh([(0, 0, 1, 1)])
    for m, n in ((1, 2), (3, 3)):
        assert (
            t.spline_dimension_exact(single, t.constant_distribution(single, 0, 0), (m, n))
            == (m + 1) * (n + 1)
        )

    grid = grid_mesh(3, 3)
    assert t.spline_dimension_exact(grid, t.constant_distribution(grid, 1, 1), deg) == 25


def test_defect_triple_agreement_on_named_meshes():
    deg = (2, 2)
    cases = []
    m51 = ex51_mesh()
    cases.append((m51, t.constant_distribution(m51, 1, 1), 1))
    mesh19, _ = ex19()
    cases.append((mesh19, t.constant_distribution(mesh19, 1, 1), None))
    grid, hist = grid3x3_history()
    refined = subdivide_center_3x3(grid, hist)
    cases.append((refined, t.constant_distribution(refined, 1, 1), 1))
    pin = pinwheel_mesh()
    cases.append((pin, t.constant_distribution(pin, 1, 1), None))
    for mesh, dist, expected in cases:
        via_kernel = t.h_exact(mesh, dist, deg)
        assert via_kernel == t.h_via_h0(mesh, dist, deg)
        assert via_kernel == t.h_via_mis_presentation(mesh, dist, deg)
        if expected is not None:
            assert via_kernel == expected


def test_defect_zero_without_interior_segments():
    grid = grid_mesh(2, 3)
    dist = t.constant_distribution(grid, 1, 1)
    assert t.h_exact(grid, dist, (2, 2)) == 0
    assert t.h_via_h0(grid, dist, (2, 2)) == 0
    assert t.h_via_mis_presentation(grid, dist, (2, 2)) == 0


def test_smoothness_above_degree_collapses_constraints():
    strip = t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    deg = (2, 2)
    dist = t.constant_distribution(strip, 5, 5)
    # the two cells must carry one global polynomial
    assert t.spline_dimension_exact(strip, dist, deg) == 9
    assert t.combinatorial_term(strip, dist, deg) == 9


def test_d1_surjective():
    deg = (2, 2)
    for mesh in (ex51_mesh(), grid_mesh(3, 3), pinwheel_mesh()):
        dist = t.constant_distribution(mesh, 1, 1)
        assert t.d1_full_row_rank(mesh, dist, deg)
    rng = random.Random(9)
    for _ in range(6):
        mesh, _ = random_mesh(rng, rng.randrange(2, 12))
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        dist = t.constant_distribution(mesh, rng.randrange(0, m), rng.randrange(0, n))
        assert t.d1_full_row_rank(mesh, dist, (m, n))


def test_tensor_grid_oracle_with_varying_orders():
    nodes_x = [0, 1, 3, 4]
    nodes_y = [0, 2, 3]
    cells = [
        (nodes_x[i], nodes_y[j], nodes_x[i + 1], nodes_y[j + 1])
        for i in range(3)
        for j in range(2)
    ]
    mesh = t.build_mesh(cells)
    r_h = {F(0): 0, F(1): 1, F(3): 0, F(4): 2}
    r_v = {F(0): 1, F(2): 1, F(3): 0}
    dist = t.SmoothnessDistribution(mesh, r_h, r_v)
    m, n = 2, 2
    expected = univariate_spline_dim(m, [1, 0]) * univariate_spline_dim(n, [1])
    assert t.spline_dimension_exact(mesh, dist, (m, n)) == expected


def test_apolar_bruteforce_values():
    assert t.apolar_dim_bruteforce(2, [0], [1]) == 2
    assert t.apolar_dim_bruteforce(3, [0, 1], [2, 2]) == 4
    assert t.apolar_dim_bruteforce(4, [0, 1, 2], [4, 4, 4]) == 3
    assert t.apolar_dim_bruteforce(5, [0, 1, 2], [3, 3, 3]) == 6
    # rational shift points
    assert t.apolar_dim_bruteforce(3, [F(1, 2), F(5, 2)], [2, 3]) == t.apolar_dim(
        3, [(F(1, 2), 2), (F(5, 2), 3)]
    )


def test_apolar_bruteforce_validation():
    with pytest.raises(DuplicatePoints):
        t.apolar_dim_bruteforce(4, [2, 2], [1, 1])
    with pytest.raises(DegreeOutOfRange):
        t.apolar_dim_bruteforce(2, [0], [5])
    with pytest.raises(TypeError):
        t.apolar_dim_bruteforce(2, [0.5], [1])


def test_pinwheel_sandwich():
    mesh = pinwheel_mesh()
    dist = t.constant_distribution(mesh, 1, 1)
    a = t.analyze_segments(mesh)
    order = t.default_ordering(a)
    C = t.combinatorial_term(mesh, dist, (2, 2))
    bound = t.h_upper_bound(a, dist, (2, 2), order).total
    dim = t.spline_dimension_exact(mesh, dist, (2, 2))
    assert C <= dim <= C + bound


_SPLIT_FRACTIONS = (F(1, 4), F(1, 2), F(3, 4))
_PINWHEEL_2X2 = [
    (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
    for dx in (0, 5) for dy in (0, 5) for x0, y0, x1, y1 in PINWHEEL_CELLS
]


def _split_random_cells(rng, cells, count):
    """Split ``count`` random cells across their full width or height."""
    rects = [tuple(map(F, rect)) for rect in cells]
    for _ in range(count):
        x0, y0, x1, y1 = rects.pop(rng.randrange(len(rects)))
        frac = rng.choice(_SPLIT_FRACTIONS)
        if rng.random() < 0.5:
            c = x0 + (x1 - x0) * frac
            rects += [(x0, y0, c, y1), (c, y0, x1, y1)]
        else:
            c = y0 + (y1 - y0) * frac
            rects += [(x0, y0, x1, c), (x0, c, x1, y1)]
    return rects


def _exact_dimension(cells, degree, r_h, r_v):
    """(kernel dimension, combinatorial term + MIS-presentation defect)."""
    mesh = t.build_mesh(cells)
    dist = t.SmoothnessDistribution(mesh, r_h, r_v)
    term = t.combinatorial_term(mesh, dist, degree)
    return t.spline_dimension_exact(mesh, dist, degree), term + t.h_via_mis_presentation(mesh, dist, degree)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["hierarchical", "pinwheel", "pinwheel-2x2"]), st.integers(min_value=0))
def test_exact_routes_agree_on_large_meshes(family, seed):
    # `dim --exact` prints combinatorial_term + h_via_mis_presentation; the
    # kernel of the cell system is the definition it must reproduce, on
    # hierarchical meshes and on refined pinwheels, which are not.
    rng = random.Random(seed)
    history = None
    if family == "hierarchical":
        history, cells = random_history(rng, rng.randint(40, 55))
    elif family == "pinwheel":
        cells = _split_random_cells(rng, PINWHEEL_CELLS, rng.randint(28, 45))
    else:
        cells = _split_random_cells(rng, _PINWHEEL_2X2, rng.randint(0, 10))
    mesh = t.build_mesh(cells)
    assert len(mesh.cells) > 40
    degree = m, n = rng.randint(1, 3), rng.randint(1, 3)
    r_h = {x: rng.randint(0, m + 1) for x in mesh.nodes_x}
    r_v = {y: rng.randint(0, n + 1) for y in mesh.nodes_y}
    dist = t.SmoothnessDistribution(mesh, r_h, r_v)

    dim = t.spline_dimension_exact(mesh, dist, degree)
    term = t.combinatorial_term(mesh, dist, degree)
    h = dim - term
    assert t.h_via_h0(mesh, dist, degree) == h
    assert t.h_via_mis_presentation(mesh, dist, degree) == h
    report = t.dimension_bounds(mesh, dist, degree, "auto", history)
    assert report.h_lower <= h <= report.h_upper

    transposed = [(y0, x0, y1, x1) for x0, y0, x1, y1 in cells]
    assert _exact_dimension(transposed, (n, m), r_v, r_h) == (dim, dim)
    reflected = [(-x1, y0, -x0, y1) for x0, y0, x1, y1 in cells]
    assert _exact_dimension(reflected, degree, {-x: r for x, r in r_h.items()}, r_v) == (dim, dim)


def _mis_presentation_by_fractions(mesh, dist, degree):
    """Reference for ``h_via_mis_presentation``: the same presentation with
    its relations built on the ``Fraction`` coordinates, each vertex's shifted
    powers taken again for every (alpha, beta)."""
    m, n = degree
    analysis = t.analyze_segments(mesh)
    offsets = {}
    widths = {}
    total = 0
    for sid in analysis.mis:
        seg = analysis.segments[sid]
        r = dist.order(seg.direction, seg.coord)
        shape = (m + 1, max(0, n - r)) if seg.horizontal else (max(0, m - r), n + 1)
        offsets[sid] = total
        widths[sid] = shape
        total += shape[0] * shape[1]
    rows = []
    for vid in mesh.interior_vertices:
        v = mesh.vertices[vid]
        seg_h = analysis.segment_through(vid, "h")
        seg_v = analysis.segment_through(vid, "v")
        in_h, in_v = seg_h in offsets, seg_v in offsets
        if not (in_h or in_v):
            continue
        rh = dist.order(VERTICAL, v.x)
        rv = dist.order(HORIZONTAL, v.y)
        for alpha in range(m - rh):
            for beta in range(n - rv):
                row = {}
                if in_v:
                    _, height = widths[seg_v]
                    for l, c in enumerate(oracle._shifted_power(v.y, rv + 1)):
                        col = offsets[seg_v] + alpha * height + (beta + l)
                        row[col] = row.get(col, 0) + c
                if in_h:
                    _, height = widths[seg_h]
                    for i, c in enumerate(oracle._shifted_power(v.x, rh + 1)):
                        col = offsets[seg_h] + (alpha + i) * height + beta
                        row[col] = row.get(col, 0) - c
                row = {c: val for c, val in row.items() if val}
                if row:
                    rows.append(row)
    return total - rational_rank(rows)


# x -> scale * x + shift on one axis: non-dyadic scales, and the scales of
# the big-grid and tiny-steps texts of the command-line tests.
_AXIS_MAPS = [
    (F(1), F(0)),
    (F(1, 3), F(-7, 3)),
    (F(3, 7), F(1, 2)),
    (F(7, 5), F(11, 7)),
    (F(10**400), F(0)),
    (F(1, 10**400), F(3)),
]


def _mapped_space(mesh, dist, x_map, y_map):
    """The space on the image of the mesh under the two axis maps, each line
    keeping its order."""
    (ax, bx), (ay, by) = x_map, y_map
    image = t.build_mesh(
        [(ax * x0 + bx, ay * y0 + by, ax * x1 + bx, ay * y1 + by) for x0, y0, x1, y1 in mesh.cell_rects()]
    )
    r_h = {ax * x + bx: dist.order(VERTICAL, x) for x in mesh.nodes_x}
    r_v = {ay * y + by: dist.order(HORIZONTAL, y) for y in mesh.nodes_y}
    return image, t.SmoothnessDistribution(image, r_h, r_v)


@settings(max_examples=150, deadline=None)
@given(spaces(), st.sampled_from(_AXIS_MAPS), st.sampled_from(_AXIS_MAPS))
def test_the_int_presentation_matches_the_fraction_presentation(space, x_map, y_map):
    mesh, dist, degree = space
    image, image_dist = _mapped_space(mesh, dist, x_map, y_map)
    h = _mis_presentation_by_fractions(image, image_dist, degree)
    assert t.h_via_mis_presentation(image, image_dist, degree) == h
    assert _mis_presentation_by_fractions(mesh, dist, degree) == h


def test_the_presentation_ranks_int_rows_only(monkeypatch):
    ranked = []

    def int_rows_only(rows):
        rows = list(rows)
        assert all(type(value) is int for row in rows for value in row.values())
        ranked.append(len(rows))
        return rational_rank(rows)

    monkeypatch.setattr(oracle, "rational_rank", int_rows_only)
    rng = random.Random(31)
    for x_map, y_map in zip(_AXIS_MAPS, reversed(_AXIS_MAPS)):
        for cells in (PINWHEEL_CELLS, ex19()[0].cell_rects(), random_history(rng, 30)[1]):
            mesh = t.build_mesh(cells)
            dist = t.SmoothnessDistribution(
                mesh, {x: rng.randint(0, 2) for x in mesh.nodes_x}, {y: rng.randint(0, 2) for y in mesh.nodes_y}
            )
            image, image_dist = _mapped_space(mesh, dist, x_map, y_map)
            h = t.h_via_mis_presentation(image, image_dist, (3, 3))
            assert h == _mis_presentation_by_fractions(image, image_dist, (3, 3))
    assert len(ranked) == 18 and min(ranked) > 0
