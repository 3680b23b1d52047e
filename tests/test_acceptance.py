"""Acceptance suite: one test per criterion, exact integer equality throughout.

Every test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output).  Randomized criteria use fixed seeds so the whole suite
is reproducible.
"""

import functools
import random
from itertools import combinations, product

from fractions import Fraction as F

import tsplinedim as t

from meshgen import (
    ex11_mesh,
    ex19,
    ex51_mesh,
    grid3x3_history,
    random_history,
    subdivide_center_3x3,
    univariate_spline_dim,
)
from witnesses import (
    apolar_dim_bruteforce,
    exactness_certificate,
    is_weighted,
    new_isolated_segment_count,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({title}): FAIL")
                raise
            print(f"criterion {number:02d} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "staircase face counts")
def test_c01_staircase_counts():
    counts = t.stats(ex11_mesh())
    assert counts.f2 == 7
    assert counts.f1o == 9 and counts.f1h == 4 and counts.f1v == 5
    assert counts.f0o == 3 and counts.f0b == 15 and counts.corners == 12
    assert counts.f2 - counts.f1o + counts.f0o == 1


@criterion(2, "pinned-segment mesh: 14 + 1 = 15")
def test_c02_single_segment_mesh():
    mesh = ex51_mesh()
    dist = t.constant_distribution(mesh, 1, 1)
    deg = (2, 2)
    assert t.combinatorial_term(mesh, dist, deg) == 14
    analysis = t.analyze_segments(mesh)
    ordering = t.default_ordering(analysis)
    cert = exactness_certificate(analysis, dist, deg, ordering)
    assert cert.name == t.CERT_SMALL_WEIGHTS and cert.h == 1
    assert t.spline_dimension_exact(mesh, dist, deg) == 15
    assert t.h_exact(mesh, dist, deg) == 1
    assert t.h_via_h0(mesh, dist, deg) == 1
    assert t.h_via_mis_presentation(mesh, dist, deg) == 1


@criterion(3, "isolated 3x3 refinement adds exactly one dimension")
def test_c03_center_subdivision():
    grid, hist = grid3x3_history()
    before = t.stats(grid)
    dist1 = t.constant_distribution(grid, 1, 1)
    dim1 = t.spline_dimension_exact(grid, dist1, (2, 2))

    refined = subdivide_center_3x3(grid, hist)
    after = t.stats(refined)
    assert after.f2 - before.f2 == 8
    assert after.f1o - before.f1o == 20
    assert after.f0o - before.f0o == 12

    dist2 = t.constant_distribution(refined, 1, 1)
    assert t.spline_dimension_exact(refined, dist2, (2, 2)) == dim1 + 1

    analysis = t.analyze_segments(refined)
    ordering = t.appearance_ordering(hist, analysis)
    assert is_weighted(analysis, dist2, (2, 2), ordering, 2, 2)
    assert not is_weighted(analysis, dist2, (2, 2), ordering, 3, 3)


@criterion(4, "four-segment mesh: weights (2,2,3,3), bound 2")
def test_c04_four_segment_weights():
    mesh, hist = ex19()
    dist = t.constant_distribution(mesh, 1, 1)
    deg = (2, 2)
    analysis = t.analyze_segments(mesh)
    ordering = t.appearance_ordering(hist, analysis)
    weights = [
        t.segment_weight(analysis, dist, deg, ordering, sid).weight
        for sid in sorted(analysis.mis, key=lambda sid: ordering.index[sid])
    ]
    assert weights == [2, 2, 3, 3]
    bound = t.h_upper_bound(analysis, dist, deg, ordering)
    assert bound.total == 2
    defect = t.h_exact(mesh, dist, deg)
    assert 0 <= defect <= 2


@criterion(5, "shifted-power dimension: closed form == brute force, exhaustive")
def test_c05_apolar_exhaustive():
    for n in range(0, 9):
        for k in range(1, 5):
            for points in combinations(range(5), k):
                for ds in product(range(n + 1), repeat=k):
                    closed = t.apolar_dim(n, list(zip(points, ds)))
                    brute = apolar_dim_bruteforce(n, points, ds)
                    assert closed == brute, (n, points, ds, closed, brute)


@criterion(6, "dimension formula vs oracle on 200 random hierarchical meshes")
def test_c06_formula_vs_oracle():
    rng = random.Random(60601)
    for trial in range(200):
        n_splits = rng.randrange(1, 12) if trial % 6 else rng.randrange(12, 38)
        history, rects = random_history(rng, n_splits)
        mesh = t.build_mesh(rects)
        assert len(mesh.cells) <= 40
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        r, rp = rng.randrange(0, m), rng.randrange(0, n)
        dist = t.constant_distribution(mesh, r, rp)
        deg = (m, n)
        dim = t.spline_dimension_exact(mesh, dist, deg)
        term = t.combinatorial_term(mesh, dist, deg)
        via_h0 = t.h_via_h0(mesh, dist, deg)
        via_segments = t.h_via_mis_presentation(mesh, dist, deg)
        assert dim == term + via_h0, (trial, dim, term, via_h0)
        assert via_h0 == via_segments, (trial, via_h0, via_segments)


@criterion(7, "hierarchical exactness for m >= 2r+1")
def test_c07_hierarchical_exactness():
    rng = random.Random(70707)
    for trial in range(60):
        history, rects = random_history(rng, rng.randrange(1, 16))
        mesh = t.build_mesh(rects)
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        r, rp = rng.randrange(0, (m + 1) // 2), rng.randrange(0, (n + 1) // 2)
        assert m >= 2 * r + 1 and n >= 2 * rp + 1
        dist = t.constant_distribution(mesh, r, rp)
        counts = t.stats(mesh)
        constant_case = (
            (m + 1) * (n + 1) * counts.f2
            - ((m + 1) * (rp + 1) * counts.f1h + (n + 1) * (r + 1) * counts.f1v)
            + (r + 1) * (rp + 1) * counts.f0o
        )
        dim = t.spline_dimension_exact(mesh, dist, (m, n))
        assert dim == constant_case, (trial, dim, constant_case)
        assert dim == t.combinatorial_term(mesh, dist, (m, n))


@criterion(8, "weighted subdivision rule keeps the defect at zero")
def test_c08_weighted_rule():
    rng = random.Random(80808)
    for trial in range(100):
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        r, rp = rng.randrange(0, m), rng.randrange(0, n)
        smooth = t.ConstantSmoothness(r, rp)
        deg = (m, n)
        mesh, history = t.initial_mesh(0, 0, 4, 4)
        for _ in range(rng.randrange(2, 5)):
            cell = mesh.cells[rng.randrange(len(mesh.cells))]
            direction = rng.choice("hv")
            lo, hi = (cell.x0, cell.x1) if direction == "v" else (cell.y0, cell.y1)
            coord = lo + (hi - lo) * rng.choice((F(1, 4), F(1, 2), F(3, 4)))
            outcome = t.weighted_split(
                mesh, history, cell.id, direction, coord, smooth, deg, m + 1, n + 1
            )
            mesh = outcome.mesh
            analysis = t.analyze_segments(mesh)
            dist = t.constant_distribution(mesh, r, rp)
            ordering = t.appearance_ordering(history, analysis)
            assert is_weighted(analysis, dist, deg, ordering, m + 1, n + 1), trial
            assert t.h_exact(mesh, dist, deg) == 0, trial


@criterion(9, "small-degree closed forms")
def test_c09_small_degree_closed_forms():
    rng = random.Random(90909)
    for trial in range(50):
        history, rects = random_history(rng, rng.randrange(1, 14))
        mesh = t.build_mesh(rects)
        counts = t.stats(mesh)
        bilinear = t.constant_distribution(mesh, 0, 0)
        assert t.spline_dimension_exact(mesh, bilinear, (1, 1)) == counts.f0plus + counts.f0b
        c1 = t.constant_distribution(mesh, 1, 1)
        assert t.spline_dimension_exact(mesh, c1, (3, 3)) == 4 * (counts.f0plus + counts.f0b)
        lower = 9 * counts.f2 - 6 * counts.f1o + 4 * counts.f0o
        slack = new_isolated_segment_count(history)
        biquadratic = t.spline_dimension_exact(mesh, c1, (2, 2))
        assert lower <= biquadratic <= lower + slack, (trial, lower, biquadratic, slack)


@criterion(10, "counting identities")
def test_c10_counting_identities():
    rng = random.Random(101010)
    for _ in range(50):
        history, rects = random_history(rng, rng.randrange(1, 25))
        mesh = t.build_mesh(rects)
        report = t.check_counting_identities(mesh)
        assert report.rectangular and report.all_ok
    for cells in (
        [(0, 0, 2, 2), (2, 1, 4, 2), (4, 1, 5, 2), (0, 2, 1, 4), (1, 2, 2, 3), (2, 2, 3, 4), (3, 2, 4, 4)],
        [(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2)],
    ):
        report = t.check_counting_identities(t.build_mesh(cells))
        assert report.euler_ok and not report.rectangular


@criterion(11, "refinement monotonicity and tensor-product grids")
def test_c11_grids_and_monotonicity():
    rng = random.Random(111111)
    for trial in range(50):
        nx, ny = rng.randrange(2, 6), rng.randrange(2, 6)
        cells = [(i, j, i + 1, j + 1) for i in range(nx) for j in range(ny)]
        mesh = t.build_mesh(cells)
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        r_h = {x: rng.randrange(0, m + 2) for x in mesh.nodes_x}
        r_v = {y: rng.randrange(0, n + 2) for y in mesh.nodes_y}
        dist = t.SmoothnessDistribution(mesh, r_h, r_v)
        expected = univariate_spline_dim(m, [r_h[x] for x in mesh.nodes_x[1:-1]]) * (
            univariate_spline_dim(n, [r_v[y] for y in mesh.nodes_y[1:-1]])
        )
        assert t.spline_dimension_exact(mesh, dist, (m, n)) == expected, trial

        r, rp = rng.randrange(0, m + 1), rng.randrange(0, n + 1)
        before = t.spline_dimension_exact(mesh, t.constant_distribution(mesh, r, rp), (m, n))
        cell = mesh.cells[rng.randrange(len(mesh.cells))]
        direction = rng.choice("hv")
        lo, hi = (cell.x0, cell.x1) if direction == "v" else (cell.y0, cell.y1)
        refined = t.split_cell(mesh, None, cell.id, direction, (lo + hi) / 2).mesh
        after = t.spline_dimension_exact(
            refined, t.constant_distribution(refined, r, rp), (m, n)
        )
        assert after >= before, trial
