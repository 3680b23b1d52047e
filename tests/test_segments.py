import random

from fractions import Fraction as F

from hypothesis import given, settings

import tsplinedim as t

from meshgen import (
    ex11_mesh,
    ex19,
    ex51_mesh,
    grid3x3_history,
    pinwheel_mesh,
    random_mesh,
    spaces,
    subdivide_center_3x3,
)
from witnesses import is_weighted


def test_staircase_has_no_interior_segments():
    a = t.analyze_segments(ex11_mesh())
    assert a.mis == ()
    assert all(not a.segments[s.id].interior for s in a.segments)


def test_single_split_segment_not_interior():
    m = t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    a = t.analyze_segments(m)
    assert len(a.segments) == 1 and not a.segments[0].interior


def test_segment_edge_partition():
    rng = random.Random(3)
    for _ in range(15):
        mesh, _ = random_mesh(rng, rng.randrange(1, 18))
        a = t.analyze_segments(mesh)
        member_edges = [eid for seg in a.segments for eid in seg.edges]
        assert sorted(member_edges) == sorted(mesh.interior_edges)


def test_ex19_segments_and_blocking():
    mesh, hist = ex19()
    a = t.analyze_segments(mesh)
    assert len(a.mis) == 4

    def seg_on(direction, coord):
        return next(
            a.segments[sid] for sid in a.mis if a.segments[sid].direction == direction
            and a.segments[sid].coord == coord
        )

    r1, r2 = seg_on("h", 2), seg_on("h", 4)
    r3, r4 = seg_on("v", 2), seg_on("v", 4)
    assert (r1.lo, r1.hi) == (1, 5) and (r4.lo, r4.hi) == (2, 5)
    assert set(t.blocking(a)) == {(r1.id, r4.id), (r2.id, r3.id)}

    order = t.appearance_ordering(hist, a)
    assert [order.index[s.id] for s in (r1, r2, r3, r4)] == [1, 2, 3, 4]

    dist = t.constant_distribution(mesh, 1, 1)
    deg = t.Degree(2, 2)
    weights = [t.segment_weight(a, dist, deg, order, s.id) for s in (r1, r2, r3, r4)]
    assert [w.count for w in weights] == [2, 2, 3, 3]
    assert [w.weight for w in weights] == [2, 2, 3, 3]
    # end points always stay in the counted set
    for seg, w in zip((r1, r2, r3, r4), weights):
        assert seg.vertices[0] in w.vertices and seg.vertices[-1] in w.vertices


def test_ex51_weight():
    mesh = ex51_mesh()
    a = t.analyze_segments(mesh)
    assert len(a.mis) == 1
    order = t.default_ordering(a)
    w = t.segment_weight(a, t.constant_distribution(mesh, 1, 1), t.Degree(2, 2), order, a.mis[0])
    assert (w.count, w.weight) == (2, 2)


def test_constant_distribution_weight_is_multiplicity_times_count():
    mesh, hist = ex19()
    a = t.analyze_segments(mesh)
    order = t.appearance_ordering(hist, a)
    for m, n, r, rp in ((3, 2, 1, 0), (4, 4, 2, 3)):
        dist = t.constant_distribution(mesh, r, rp)
        for sid in a.mis:
            w = t.segment_weight(a, dist, (m, n), order, sid)
            if a.segments[sid].horizontal:
                assert w.weight == (m - r) * w.count
            else:
                assert w.weight == (n - rp) * w.count


def test_pinwheel_blocking_cycle():
    a = t.analyze_segments(pinwheel_mesh())
    assert len(a.mis) == 4
    pairs = t.blocking(a)
    assert len(pairs) == 4
    succ = dict(pairs)
    assert len(succ) == 4
    node = next(iter(succ))
    seen = [node]
    for _ in range(4):
        node = succ[node]
        seen.append(node)
    assert node == seen[0]  # a 4-cycle
    order = t.default_ordering(a)
    assert order.source == "canonical"
    assert sorted(order.index.values()) == [1, 2, 3, 4]


def test_topological_ordering_respects_blocking():
    mesh, _ = ex19()
    a = t.analyze_segments(mesh)
    order = t.default_ordering(a)
    assert order.source == "topological"
    for blocker, blocked in t.blocking(a):
        assert order.index[blocker] < order.index[blocked]


def test_is_weighted_vacuous_and_examples():
    staircase = ex11_mesh()
    a = t.analyze_segments(staircase)
    dist = t.constant_distribution(staircase, 1, 1)
    order = t.default_ordering(a)
    for k in range(5):
        assert is_weighted(a, dist, (2, 2), order, k, k)

    grid, hist = grid3x3_history()
    refined = subdivide_center_3x3(grid, hist)
    a2 = t.analyze_segments(refined)
    dist2 = t.constant_distribution(refined, 1, 1)
    order2 = t.appearance_ordering(hist, a2)
    assert is_weighted(a2, dist2, (2, 2), order2, 2, 2)
    assert not is_weighted(a2, dist2, (2, 2), order2, 3, 3)

    m51 = ex51_mesh()
    a51 = t.analyze_segments(m51)
    assert not is_weighted(
        a51, t.constant_distribution(m51, 1, 1), (2, 2), t.default_ordering(a51), 3, 3
    )


def test_weights_invariant_under_similarity():
    mesh, hist = ex19()
    a = t.analyze_segments(mesh)
    order = t.appearance_ordering(hist, a)
    dist = t.constant_distribution(mesh, 1, 1)
    reference = sorted(
        t.segment_weight(a, dist, (2, 2), order, sid).weight for sid in a.mis
    )
    # translate by (7, -3) and scale by 1/2
    scaled = t.build_mesh(
        [tuple((v + off) * F(1, 2) for v, off in zip(c.rect, (7, -3, 7, -3))) for c in mesh.cells]
    )
    a2 = t.analyze_segments(scaled)
    dist2 = t.constant_distribution(scaled, 1, 1)
    order2 = t.default_ordering(a2)
    got = sorted(t.segment_weight(a2, dist2, (2, 2), order2, sid).weight for sid in a2.mis)
    assert got == reference


def test_two_interior_segments_meet_in_one_vertex():
    rng = random.Random(20)
    for _ in range(10):
        mesh, _ = random_mesh(rng, rng.randrange(4, 25))
        a = t.analyze_segments(mesh)
        for i in a.mis:
            for j in a.mis:
                if i < j:
                    si, sj = a.segments[i], a.segments[j]
                    shared = set(si.vertices) & set(sj.vertices)
                    assert len(shared) <= 1
                    for vid in shared:
                        assert mesh.vertices[vid].kind in ("t-vertex", "crossing")


def _blocking_by_scan(analysis):
    """Reference: every ordered pair of interior segments, scanned directly."""
    pairs = []
    for sid in analysis.mis:
        inner = set(analysis.segments[sid].vertices[1:-1])
        for other_id in analysis.mis:
            other = analysis.segments[other_id]
            if other_id != sid and (other.vertices[0] in inner or other.vertices[-1] in inner):
                pairs.append((sid, other_id))
    return tuple(pairs)


def test_blocking_matches_the_all_pairs_scan():
    grid, hist = grid3x3_history()
    meshes = [pinwheel_mesh(), ex51_mesh(), ex11_mesh(), ex19()[0], subdivide_center_3x3(grid, hist)]
    rng = random.Random(41)
    meshes += [random_mesh(rng, rng.randrange(1, 60))[0] for _ in range(150)]
    checked = 0
    for mesh in meshes:
        a = t.analyze_segments(mesh)
        assert t.blocking(a) == _blocking_by_scan(a)
        checked += len(t.blocking(a))
    assert checked > 500  # the family really exercises blocking


def _segments_by_fractions(mesh):
    """Reference route: group the interior edges on (direction, coord) and
    chain them by comparing Fraction ends, as (direction, coord, lo, hi,
    edges, vertices, interior) in (direction, coord, lo) order."""
    by_line = {}
    for eid in mesh.interior_edges:
        e = mesh.edges[eid]
        by_line.setdefault((e.direction, e.coord), []).append(e)
    runs = []
    for (direction, coord), line_edges in by_line.items():
        line_edges.sort(key=lambda e: e.lo)
        run = [line_edges[0]]
        for e in line_edges[1:]:
            if e.lo == run[-1].hi:
                run.append(e)
            else:
                runs.append((direction, coord, run))
                run = [e]
        runs.append((direction, coord, run))
    runs.sort(key=lambda item: (item[0], item[1], item[2][0].lo))
    found = []
    for direction, coord, run in runs:
        vertices = (run[0].start,) + tuple(e.end for e in run)
        interior = mesh.vertices[vertices[0]].interior and mesh.vertices[vertices[-1]].interior
        found.append((direction, coord, run[0].lo, run[-1].hi, tuple(e.id for e in run), vertices, interior))
    return found


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_segments_match_the_fraction_keyed_grouping(space):
    mesh = space[0]
    segments = t.analyze_segments(mesh).segments
    assert [s.id for s in segments] == list(range(len(segments)))
    assert [
        (s.direction, s.coord, s.lo, s.hi, s.edges, s.vertices, s.interior) for s in segments
    ] == _segments_by_fractions(mesh)
