import random
from collections import Counter
from itertools import permutations

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

import tsplinedim as t
from tsplinedim.errors import DegreeOutOfRange, DuplicatePoints

from meshgen import (
    EX11_CELLS,
    PINWHEEL_CELLS,
    ex11_mesh,
    ex19,
    ex51_mesh,
    grid3x3_history,
    grid_history,
    grid_mesh,
    mapped_history,
    pinwheel_mesh,
    random_history,
    random_mesh,
    spaces,
    subdivide_cell_3x3,
    subdivide_center_3x3,
)
from witnesses import exactness_certificate, segment_weight


def test_apolar_dim_examples():
    assert t.apolar_dim(2, [(0, 1)]) == 2
    assert t.apolar_dim(3, [(0, 2), (1, 2)]) == 4
    assert t.apolar_dim(5, [(0, 3), (1, 3), (2, 3)]) == 6
    assert t.apolar_dim(4, [(0, 4), (1, 4), (2, 4)]) == 3
    assert t.apolar_dim(3, []) == 0
    # The codimension n + 1 - apolar_dim in degree <= n.
    assert 2 + 1 - t.apolar_dim(2, [(0, 1)]) == 1
    assert 3 + 1 - t.apolar_dim(3, [(0, 2), (1, 2)]) == 0


def test_apolar_dim_validation():
    with pytest.raises(DuplicatePoints):
        t.apolar_dim(4, [(1, 2), (1, 3)])
    with pytest.raises(DegreeOutOfRange):
        t.apolar_dim(2, [(0, 3)])


def test_defect_shares_are_apolar_codimensions():
    # A horizontal segment's share of the bound is the codimension of its
    # counted vertices' shifted powers (u - x_v)^(r_v + 1) in degree <= m,
    # times (n - r)_+; a vertex on a line of order >= m pins nothing.  The
    # mirror holds for a vertical segment.
    rng = random.Random(11)
    shares = 0
    for index in range(150):
        if index % 10 == 0:
            mesh, orderings = pinwheel_mesh(), []
        else:
            history, rects = random_history(rng, rng.randrange(1, 30))
            mesh = t.build_mesh(rects)
            orderings = [t.appearance_ordering(history, t.analyze_segments(mesh))]
        analysis = t.analyze_segments(mesh)
        orderings.append(t.default_ordering(analysis))
        degree = m, n = rng.randint(1, 3), rng.randint(1, 3)
        r_h = {x: rng.randint(0, m + 1) for x in mesh.nodes_x}
        r_v = {y: rng.randint(0, n + 1) for y in mesh.nodes_y}
        dist = t.SmoothnessDistribution(mesh, r_h, r_v)
        searched = t.search_ordering(analysis, dist, degree)
        if searched is not None:
            orderings.append(searched)
        for ordering in orderings:
            for part in t.h_upper_bound(analysis, dist, degree, ordering).per_segment:
                seg = analysis.segments[part.segment]
                witness = segment_weight(analysis, dist, degree, ordering, seg.id)
                assert (part.counted, part.weight) == (witness.vertices, witness.weight)
                assert part.capacity == (m + 1 if seg.horizontal else n + 1)
                counted = [mesh.vertices[v] for v in part.counted]
                if seg.horizontal:
                    points = [(v.x, r_h[v.x] + 1) for v in counted if r_h[v.x] < m]
                    expected = (m + 1 - t.apolar_dim(m, points)) * max(0, n - r_v[seg.coord])
                else:
                    points = [(v.y, r_v[v.y] + 1) for v in counted if r_v[v.y] < n]
                    expected = (n + 1 - t.apolar_dim(n, points)) * max(0, m - r_h[seg.coord])
                assert part.contribution == expected
                shares += 1
    assert shares > 1000


def test_combinatorial_terms():
    deg = (2, 2)
    m51 = ex51_mesh()
    assert t.combinatorial_term(m51, t.constant_distribution(m51, 1, 1), deg) == 14

    single = t.build_mesh([(0, 0, 1, 1)])
    for m, n in ((1, 1), (2, 3), (4, 4)):
        dist = t.constant_distribution(single, 1, 1)
        assert t.combinatorial_term(single, dist, (m, n)) == (m + 1) * (n + 1)

    grid = grid_mesh(3, 3)
    assert t.combinatorial_term(grid, t.constant_distribution(grid, 1, 1), deg) == 25


def _combinatorial_term_by_faces(mesh, dist, degree):
    """Reference route: quotient_dims of every face, one face at a time."""
    return (
        sum(t.quotient_dims(dist, degree, cell) for cell in mesh.cells)
        - sum(t.quotient_dims(dist, degree, mesh.edges[eid]) for eid in mesh.interior_edges)
        + sum(t.quotient_dims(dist, degree, mesh.vertices[vid]) for vid in mesh.interior_vertices)
    )


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_combinatorial_term_matches_the_face_by_face_sum(space):
    mesh, dist, degree = space
    assert t.combinatorial_term(mesh, dist, degree) == _combinatorial_term_by_faces(mesh, dist, degree)


_FRACTION_OPS = ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _count_fraction_ops(monkeypatch):
    """Count every Fraction hash and comparison until ``monkeypatch.undo()``."""
    calls = Counter()
    for name in _FRACTION_OPS:
        def counted(*args, _name=name, _original=getattr(F, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(F, name, counted)
    return calls


def _per_line_distribution(mesh, degree, rng):
    m, n = degree
    r_h = {x: rng.randint(0, m + 1) for x in mesh.nodes_x}
    r_v = {y: rng.randint(0, n + 1) for y in mesh.nodes_y}
    return t.SmoothnessDistribution(mesh, r_h, r_v)


def test_the_engine_makes_no_fraction_operation_once_the_distribution_is_built(monkeypatch):
    # The dimension depends on the orders only through the node lines, and
    # the distribution keeps them aligned with the mesh's node tuples: the
    # combinatorial term, the bound, the ordering search, the presentation
    # and the cell system read them by line index, never by coordinate, and
    # the segment grouping reads the mesh's line indices.
    rng = random.Random(5)
    meshes = [(grid_mesh(16, 16), (3, 3)), (t.build_mesh(random_history(rng, 30)[1]), (2, 3))]
    meshes.append((t.build_mesh(random_history(rng, 150)[1]), (3, 2)))
    for mesh, degree in meshes:
        dist = _per_line_distribution(mesh, degree, rng)
        calls = _count_fraction_ops(monkeypatch)
        analysis = t.analyze_segments(mesh)
        term = t.combinatorial_term(mesh, dist, degree)
        bound = t.h_upper_bound(analysis, dist, degree, t.default_ordering(analysis))
        searched = t.search_ordering(analysis, dist, degree)
        reports = [t.dimension_bounds(mesh, dist, degree, policy, analysis=analysis) for policy in ("auto", "search")]
        h = t.h_via_mis_presentation(mesh, dist, degree, analysis)
        system = t.build_spline_system(mesh, dist, degree)
        monkeypatch.undo()
        assert sum(calls.values()) == 0, (len(mesh.cells), calls)
        assert term == _combinatorial_term_by_faces(mesh, dist, degree)
        assert (searched is None) == (len(analysis.mis) > t.dimension.SEARCH_LIMIT)
        assert reports[0].per_segment == bound.per_segment and reports[1].h_upper <= reports[0].h_upper
        assert reports[1].h_lower <= h <= reports[1].h_upper
        assert system.nrows > 0
    counts = [(len(t.analyze_segments(mesh).segments), len(t.analyze_segments(mesh).mis)) for mesh, _ in meshes]
    assert counts[0] == (30, 0) and 0 < counts[1][1] <= t.dimension.SEARCH_LIMIT < counts[2][1], counts


def test_combinatorial_term_constant_case_formula():
    rng = random.Random(8)
    for _ in range(15):
        mesh, _ = random_mesh(rng, rng.randrange(1, 15))
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        r, rp = rng.randrange(0, m), rng.randrange(0, n)
        counts = t.stats(mesh)
        expected = (
            (m + 1) * (n + 1) * counts.f2
            - ((m + 1) * (rp + 1) * counts.f1h + (n + 1) * (r + 1) * counts.f1v)
            + (r + 1) * (rp + 1) * counts.f0o
        )
        dist = t.constant_distribution(mesh, r, rp)
        assert t.combinatorial_term(mesh, dist, (m, n)) == expected


def test_h_upper_bound_examples():
    staircase = ex11_mesh()
    a = t.analyze_segments(staircase)
    dist = t.constant_distribution(staircase, 1, 1)
    order = t.default_ordering(a)
    assert t.h_upper_bound(a, dist, (2, 2), order).total == 0

    m51 = ex51_mesh()
    a51 = t.analyze_segments(m51)
    bound = t.h_upper_bound(a51, t.constant_distribution(m51, 1, 1), (2, 2), t.default_ordering(a51))
    assert bound.total == 1
    assert [p.contribution for p in bound.per_segment] == [1]

    mesh19, hist19 = ex19()
    a19 = t.analyze_segments(mesh19)
    order19 = t.appearance_ordering(hist19, a19)
    bound19 = t.h_upper_bound(a19, t.constant_distribution(mesh19, 1, 1), (2, 2), order19)
    assert bound19.total == 2


def test_h_bound_invariant_under_disjoint_swap():
    mesh, hist = ex19()
    a = t.analyze_segments(mesh)
    dist = t.constant_distribution(mesh, 1, 1)
    order = t.appearance_ordering(hist, a)
    # segments ranked 1 and 2 (the two horizontal ones) share no vertex
    first = next(sid for sid, rank in order.index.items() if rank == 1)
    second = next(sid for sid, rank in order.index.items() if rank == 2)
    assert not set(a.segments[first].vertices) & set(a.segments[second].vertices)
    swapped_index = dict(order.index)
    swapped_index[first], swapped_index[second] = 2, 1
    swapped = t.Ordering(swapped_index, "topological")
    assert (
        t.h_upper_bound(a, dist, (2, 2), swapped).total
        == t.h_upper_bound(a, dist, (2, 2), order).total
    )


def test_certificates():
    deg = (2, 2)
    staircase = ex11_mesh()
    a = t.analyze_segments(staircase)
    dist = t.constant_distribution(staircase, 1, 1)
    cert = exactness_certificate(a, dist, deg, t.default_ordering(a))
    assert cert.name == t.CERT_NO_MIS and cert.h == 0

    m51 = ex51_mesh()
    a51 = t.analyze_segments(m51)
    cert51 = exactness_certificate(
        a51, t.constant_distribution(m51, 1, 1), deg, t.default_ordering(a51)
    )
    assert cert51.name == t.CERT_SMALL_WEIGHTS and cert51.h == 1

    mesh19, hist19 = ex19()
    a19 = t.analyze_segments(mesh19)
    dist19 = t.constant_distribution(mesh19, 1, 1)
    order19 = t.appearance_ordering(hist19, a19)
    cert33 = exactness_certificate(a19, dist19, (3, 3), order19)
    assert cert33.name == t.CERT_WEIGHTED and cert33.h == 0  # weights 4,4,6,6 >= 4


def test_hierarchical_degree_certificate():
    rng = random.Random(12)
    mesh, hist = random_mesh(rng, 10)
    a = t.analyze_segments(mesh)
    if not a.mis:  # make sure the certificate is not trivially no-MIS
        mesh, hist = random_mesh(rng, 16)
        a = t.analyze_segments(mesh)
    dist = t.constant_distribution(mesh, 1, 1)
    order = t.appearance_ordering(hist, a)
    cert = exactness_certificate(a, dist, (3, 3), order)
    assert cert == t.dimension.Certificate(t.CERT_WEIGHTED, 0)  # m = 3 >= 2r + 1
    assert t.h_exact(mesh, dist, (3, 3)) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0),
    st.booleans(),
    st.booleans(),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
)
def test_hierarchical_meshes_are_weighted(seed, transpose, reflect, orders):
    # Under the appearance ordering each end of an interior segment's first
    # edge is counted: the segment across it there is boundary or older.  So
    # with constant (r, r'), m >= 2r + 1 and n >= 2r' + 1 every weight
    # reaches 2(m - r) >= m + 1 (or 2(n - r') >= n + 1), and the hierarchical
    # theorem is the `weighted` certificate.
    rng = random.Random(seed)
    history, _ = random_history(rng, rng.randrange(40), rng.choice((1, 4)), rng.choice((1, 3)))
    if transpose:
        history = mapped_history(history, transpose=True)
    if reflect:
        history = mapped_history(history, transpose=False)
    mesh = history.replay()
    r, rp, dm, dn = orders
    degree = (2 * r + 1 + dm, 2 * rp + 1 + dn)
    dist = t.constant_distribution(mesh, r, rp)
    a = t.analyze_segments(mesh)
    appearance = t.appearance_ordering(history, a)
    for sid in a.mis:
        assert segment_weight(a, dist, degree, appearance, sid).count >= 2
    for policy in ("auto", "search"):
        report = t.dimension_bounds(mesh, dist, degree, policy, history)
        assert report.certificate in (t.CERT_WEIGHTED, t.CERT_NO_MIS)
        assert (report.h_lower, report.h_upper) == (0, 0)


def test_dimension_bounds_reports():
    m51 = ex51_mesh()
    dist = t.constant_distribution(m51, 1, 1)
    report = t.dimension_bounds(m51, dist, (2, 2))
    assert (report.dim_lower, report.dim_upper) == (15, 15)
    assert report.certificate == t.CERT_SMALL_WEIGHTS

    strip = t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    report2 = t.dimension_bounds(strip, t.constant_distribution(strip, 1, 1), (2, 2))
    assert (report2.dim_lower, report2.dim_upper) == (12, 12)
    assert report2.certificate == t.CERT_NO_MIS

    payload = report.to_json_dict()
    assert payload["combinatorial"] == 14
    assert payload["per_mis"][0]["omega"] == 2


def test_ordering_search_sharpens_bound():
    grid, hist = grid3x3_history()
    refined = subdivide_center_3x3(grid, hist)
    dist = t.constant_distribution(refined, 1, 1)
    a = t.analyze_segments(refined)
    appearance = t.appearance_ordering(hist, a)
    assert t.h_upper_bound(a, dist, (2, 2), appearance).total == 2
    best = t.search_ordering(a, dist, (2, 2))
    assert t.h_upper_bound(a, dist, (2, 2), best).total == 1
    report = t.dimension_bounds(refined, dist, (2, 2), ordering_policy="search", history=hist)
    assert report.h_upper == 1
    # search result is deterministic
    again = t.search_ordering(a, dist, (2, 2))
    assert again.index == best.index


def _brute_force_ordering(a, dist, degree):
    """Reference minimiser: every permutation in lexicographic order, first
    strict minimum of the defect bound."""
    best = best_index = None
    for perm in permutations(sorted(a.mis)):
        index = {sid: rank for rank, sid in enumerate(perm, 1)}
        total = t.h_upper_bound(a, dist, degree, t.Ordering(index)).total
        if best is None or total < best:
            best, best_index = total, index
    return best_index


def test_search_ordering_matches_brute_force():
    rng = random.Random(46)
    quota = {1: 6, 2: 6, 3: 6, 4: 6, 5: 6, 6: 4, 7: 2}
    checked = Counter()
    while checked != quota:
        mesh, _ = random_mesh(rng, rng.randrange(2, 22))
        a = t.analyze_segments(mesh)
        k = len(a.mis)
        if checked[k] >= quota.get(k, 0):
            continue
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        dist = t.SmoothnessDistribution(
            mesh,
            {x: rng.randrange(0, m + 1) for x in mesh.nodes_x},
            {y: rng.randrange(0, n + 1) for y in mesh.nodes_y},
        )
        assert t.search_ordering(a, dist, (m, n)).index == _brute_force_ordering(a, dist, (m, n))
        checked[k] += 1


def test_ordering_search_beyond_eight_segments():
    # Three disjoint centre subdivisions of a 5x5 grid: 12 interior segments,
    # each block's appearance order costs 2 where the best order costs 1.
    mesh, hist = grid_history(5, 5)
    for corner in ((1, 1), (3, 1), (1, 3)):
        mesh = subdivide_cell_3x3(mesh, hist, *corner)
    dist = t.constant_distribution(mesh, 1, 1)
    assert len(t.analyze_segments(mesh).mis) == 12
    auto = t.dimension_bounds(mesh, dist, (2, 2), "auto", history=hist)
    search = t.dimension_bounds(mesh, dist, (2, 2), "search", history=hist)
    assert search.ordering_source == "search"
    assert search.h_upper <= auto.h_upper
    assert (auto.h_upper, search.h_upper) == (6, 3)
    assert t.h_via_mis_presentation(mesh, dist, (2, 2)) == 3


def test_sandwich_on_random_meshes():
    rng = random.Random(44)
    for _ in range(12):
        mesh, hist = random_mesh(rng, rng.randrange(2, 14))
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        r, rp = rng.randrange(0, m), rng.randrange(0, n)
        dist = t.constant_distribution(mesh, r, rp)
        a = t.analyze_segments(mesh)
        order = t.appearance_ordering(hist, a)
        C = t.combinatorial_term(mesh, dist, (m, n))
        bound = t.h_upper_bound(a, dist, (m, n), order).total
        dim = t.spline_dimension_exact(mesh, dist, (m, n))
        assert C <= dim <= C + bound


def test_certificate_soundness_against_oracle():
    rng = random.Random(45)
    for _ in range(12):
        mesh, hist = random_mesh(rng, rng.randrange(2, 12))
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        r, rp = rng.randrange(0, m), rng.randrange(0, n)
        dist = t.constant_distribution(mesh, r, rp)
        a = t.analyze_segments(mesh)
        order = t.appearance_ordering(hist, a)
        cert = exactness_certificate(a, dist, (m, n), order)
        if cert.h is not None:
            assert t.h_exact(mesh, dist, (m, n)) == cert.h


@settings(max_examples=300, deadline=None)
@given(spaces(with_history=True), st.sampled_from(("auto", "search")), st.booleans())
def test_pinned_defects_are_the_defect(space, policy, use_history):
    # `dim --exact` prints a pinned h without ranking, so every pin must be
    # the rank defect of the presentation, and on small meshes the kernel's.
    mesh, dist, degree, history = space
    report = t.dimension_bounds(mesh, dist, degree, policy, history if use_history else None)
    if report.h_lower == report.h_upper:
        assert report.h_lower == t.h_via_mis_presentation(mesh, dist, degree)
        if len(mesh.cells) <= 16:
            assert report.h_lower == t.h_exact(mesh, dist, degree)


_SCALES = (F(1, 3), F(3, 7), F(1), F(7, 5), F(5))
_SHIFTS = (F(-7, 3), F(-1, 2), F(0), F(3), F(11, 7))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([None, PINWHEEL_CELLS, EX11_CELLS]),
    st.integers(min_value=0),
    st.sampled_from(_SCALES),
    st.sampled_from(_SHIFTS),
    st.sampled_from(_SCALES),
    st.sampled_from(_SHIFTS),
)
def test_bounds_invariant_under_cell_order_and_monotone_affine_maps(base, seed, ax, bx, ay, by):
    # Building a mesh scales it onto an integer lattice, which relies on
    # exactly this invariance.
    rng = random.Random(seed)
    cells = random_mesh(rng, rng.randrange(15))[0].cell_rects() if base is None else list(base)
    mesh = t.build_mesh(cells)
    degree = (rng.randint(1, 3), rng.randint(1, 3))
    r_h = {x: rng.randint(0, degree[0] + 1) for x in mesh.nodes_x}
    r_v = {y: rng.randint(0, degree[1] + 1) for y in mesh.nodes_y}
    image_cells = [(ax * x0 + bx, ay * y0 + by, ax * x1 + bx, ay * y1 + by) for x0, y0, x1, y1 in cells]
    rng.shuffle(image_cells)
    image = t.build_mesh(image_cells)
    pairs = [
        (mesh, t.SmoothnessDistribution(mesh, r_h, r_v)),
        (
            image,
            t.SmoothnessDistribution(
                image,
                {ax * x + bx: r for x, r in r_h.items()},
                {ay * y + by: r for y, r in r_v.items()},
            ),
        ),
    ]
    for policy in ("auto", "search"):
        original, mapped = (t.dimension_bounds(m, dist, degree, policy) for m, dist in pairs)
        assert mapped == original
    original, mapped = (
        t.combinatorial_term(m, dist, degree) + t.h_via_mis_presentation(m, dist, degree)
        for m, dist in pairs
    )
    assert mapped == original
