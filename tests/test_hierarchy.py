import random

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

import tsplinedim as t
from tsplinedim import formats, hierarchy
from tsplinedim.errors import CoordinateOnCellBoundary, HistoryMismatch, UnknownCell

from meshgen import (
    cell_containing,
    ex51_mesh,
    grid3x3_history,
    grid_history,
    random_history,
    random_mesh,
    split_at,
    subdivide_center_3x3,
)


def test_full_span_splits_make_grid():
    mesh, hist = grid3x3_history()
    counts = t.stats(mesh)
    assert counts.f2 == 9 and counts.f1o == 12 and counts.f0o == 4
    assert t.analyze_segments(mesh).mis == ()
    assert t.appearance_ordering(hist, t.analyze_segments(mesh)).index == {}


def test_split_validation():
    mesh, hist = t.initial_mesh(0, 0, 2, 2)
    with pytest.raises(UnknownCell):
        t.split_cell(mesh, hist, 5, "v", 1)
    with pytest.raises(CoordinateOnCellBoundary):
        t.split_cell(mesh, hist, 0, "v", 0)
    with pytest.raises(CoordinateOnCellBoundary):
        t.split_cell(mesh, hist, 0, "h", 7)


def test_split_at_float_coordinate_rejected():
    mesh, hist = t.initial_mesh(0, 0, 2, 2)
    with pytest.raises(TypeError):
        t.split_cell(mesh, hist, 0, "v", 0.5)
    assert hist.events == []


def test_ex51_built_by_one_interior_split():
    strips = t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1)])
    middle = cell_containing(strips, F(3, 2), F(1, 2))
    out = t.split_cell(strips, None, middle.id, "h", F(1, 2))
    assert out.classification == t.NEW_MIS
    counts = t.stats(out.mesh)
    assert (counts.f2, counts.f1o, counts.f0o) == (4, 5, 2)
    assert sorted(out.mesh.cell_rects()) == sorted(ex51_mesh().cell_rects())


def test_center_subdivision_deltas():
    grid, hist = grid3x3_history()
    before = t.stats(grid)
    refined = subdivide_center_3x3(grid, hist)
    after = t.stats(refined)
    assert after.f2 - before.f2 == 8
    assert after.f1o - before.f1o == 20
    assert after.f0o - before.f0o == 12


def test_split_classifications():
    mesh, hist = t.initial_mesh(0, 0, 3, 2)
    out = t.split_cell(mesh, hist, 0, "v", 1)
    assert out.classification == t.BOUNDARY_REACHING
    mesh = out.mesh
    out = split_at(mesh, hist, 2, 1, "v", 2)
    assert out.classification == t.BOUNDARY_REACHING
    mesh = out.mesh
    # horizontal cut of the middle cell: both end points interior
    out = split_at(mesh, hist, F(3, 2), 1, "h", 1)
    assert out.classification == t.NEW_MIS
    mesh = out.mesh
    # prolonging it through the left cell reaches the boundary
    out = split_at(mesh, hist, F(1, 2), 1, "h", 1)
    assert out.classification == t.BOUNDARY_REACHING
    assert not out.segment.interior
    mesh = out.mesh
    # prolonging through the right cell extends a boundary-reaching run
    out = split_at(mesh, hist, F(5, 2), 1, "h", 1)
    assert out.classification == t.BOUNDARY_REACHING


def test_replay_reproduces_mesh():
    rng = random.Random(17)
    for _ in range(25):
        hist, rects = random_history(rng, rng.randrange(1, 25))
        assert sorted(hist.replay().cell_rects()) == sorted(rects)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=1, max_value=20))
def test_stepwise_splits_agree_with_replay(seed, n_splits):
    """split_cell builds and analyses every mesh, where replay only splits the
    cell list and records edge spans.  The reference tracked here keeps one
    record per interior segment: a new segment absorbs the records it touches
    on its line, and it is extended exactly when it touched one."""
    history, _ = random_history(random.Random(seed), n_splits)
    mesh, stepped = t.initial_mesh(*history.initial)
    isolated = 0
    births = {}  # (direction, coord, lo, hi) -> index of the creating event
    for index, ev in enumerate(history.events):
        out = t.split_cell(mesh, stepped, ev.cell, ev.direction, ev.coord)
        seg = out.segment
        if out.classification == t.NEW_MIS and len(seg.vertices) == 2:
            isolated += 1
        touched = [
            span for span in births
            if span[:2] == (seg.direction, seg.coord) and span[2] <= seg.hi and seg.lo <= span[3]
        ]
        if not seg.interior:
            assert out.classification == t.BOUNDARY_REACHING
        else:
            assert out.classification == (t.EXTENDED_MIS if touched else t.NEW_MIS)
        first = min([index] + [births.pop(span) for span in touched])
        if seg.interior:
            births[(seg.direction, seg.coord, seg.lo, seg.hi)] = first
        mesh = out.mesh
    assert stepped.events == history.events
    assert sorted(mesh.cell_rects()) == sorted(history.replay().cell_rects())
    assert isolated == t.new_isolated_segment_count(history)
    analysis = t.analyze_segments(mesh)
    spans = {sid: (s.direction, s.coord, s.lo, s.hi) for sid, s in enumerate(analysis.segments)}
    by_birth = sorted(analysis.mis, key=lambda sid: births[spans[sid]])
    expected = {sid: rank for rank, sid in enumerate(by_birth, start=1)}
    assert t.appearance_ordering(history, analysis).index == expected


def test_appearance_order_respects_blocking():
    rng = random.Random(23)
    checked = 0
    for _ in range(100):
        mesh, hist = random_mesh(rng, rng.randrange(2, 22))
        analysis = t.analyze_segments(mesh)
        order = t.appearance_ordering(hist, analysis)
        assert sorted(order.index) == sorted(analysis.mis)
        assert len(set(order.index.values())) == len(analysis.mis)
        for blocker, blocked in t.blocking(analysis):
            assert order.index[blocker] < order.index[blocked]
            checked += 1
    assert checked > 20  # the family really exercises blocking


def test_history_mismatch_detected():
    mesh_a, hist_a = random_mesh(random.Random(1), 6)
    mesh_b, _ = random_mesh(random.Random(2), 6)
    with pytest.raises(HistoryMismatch):
        t.appearance_ordering(hist_a, t.analyze_segments(mesh_b))


def test_nesting_dimension_monotone():
    rng = random.Random(31)
    deg = (2, 2)
    for _ in range(8):
        mesh, hist = random_mesh(rng, rng.randrange(1, 8))
        dist = t.constant_distribution(mesh, 1, 1)
        before = t.spline_dimension_exact(mesh, dist, deg)
        cell = mesh.cells[rng.randrange(len(mesh.cells))]
        direction = rng.choice("hv")
        lo, hi = (cell.x0, cell.x1) if direction == "v" else (cell.y0, cell.y1)
        out = t.split_cell(mesh, hist, cell.id, direction, (lo + hi) / 2)
        after = t.spline_dimension_exact(out.mesh, t.constant_distribution(out.mesh, 1, 1), deg)
        assert after >= before


def test_weighted_split_extends_until_weighted():
    grid, hist = grid3x3_history()
    smooth = t.ConstantSmoothness(1, 1)
    deg = t.Degree(2, 2)
    center = cell_containing(grid, F(3, 2), F(3, 2))
    out = t.weighted_split(grid, hist, center.id, "v", F(4, 3), smooth, deg, 3, 3)
    # the hop reaches the boundary before the weight can reach 3
    assert out.classification == t.BOUNDARY_REACHING
    mesh = out.mesh
    dist = t.constant_distribution(mesh, 1, 1)
    analysis = t.analyze_segments(mesh)
    order = t.appearance_ordering(hist, analysis)
    assert t.is_weighted(analysis, dist, deg, order, 3, 3)
    assert t.h_exact(mesh, dist, deg) == 0
    assert sorted(hist.replay().cell_rects()) == sorted(mesh.cell_rects())


def test_weighted_split_boundary_prolongation_needs_no_extension():
    mesh, hist = t.initial_mesh(0, 0, 2, 2)
    mesh = t.split_cell(mesh, hist, 0, "v", 1).mesh
    left = cell_containing(mesh, F(1, 2), 1)
    mesh = t.split_cell(mesh, hist, left.id, "h", 1).mesh
    right = cell_containing(mesh, F(3, 2), 1)
    events_before = len(hist.events)
    out = t.weighted_split(mesh, hist, right.id, "h", 1, t.ConstantSmoothness(0, 0), (1, 1), 2, 2)
    assert out.classification == t.BOUNDARY_REACHING
    assert len(hist.events) == events_before + 1  # no extension hops


def test_weighted_split_history_mismatch_leaves_history_unchanged():
    grid, hist = grid3x3_history()
    short = t.SubdivisionHistory(hist.initial, hist.events[:-1])
    center = cell_containing(grid, F(3, 2), F(3, 2))
    smooth = t.ConstantSmoothness(1, 1)
    with pytest.raises(HistoryMismatch):
        t.weighted_split(grid, short, center.id, "v", F(4, 3), smooth, t.Degree(2, 2), 3, 3)
    assert len(short.events) == len(hist.events) - 1


def test_weighted_split_boundary_split_on_mismatched_history_raises():
    # the split reaches the boundary at once, so no weight is ever checked;
    # the history must still replay to the mesh it is applied to
    grid, hist = grid3x3_history()
    short = t.SubdivisionHistory(hist.initial, hist.events[:-1])
    corner = cell_containing(grid, F(1, 2), F(1, 2))
    with pytest.raises(HistoryMismatch):
        t.weighted_split(grid, short, corner.id, "v", F(1, 2), (1, 1), (2, 2), 3, 3)
    assert short.events == hist.events[:-1]


def test_builds_one_mesh_per_returned_or_weighed_state(monkeypatch):
    """A history replays on its cell list: whatever its length, only the
    meshes that are returned or weighed are built."""
    real_build, real_analyze = hierarchy.build_mesh, hierarchy.analyze_segments
    built, analysed = [], []
    for module in (hierarchy, formats):
        monkeypatch.setattr(module, "build_mesh", lambda rects: built.append(rects) or real_build(rects))
    monkeypatch.setattr(hierarchy, "analyze_segments", lambda mesh: analysed.append(mesh) or real_analyze(mesh))

    def builds(call):
        built.clear()
        call()
        return len(built)

    hops = 0
    for n_splits in (0, 4, 30):
        rng = random.Random(n_splits)
        history, rects = random_history(rng, n_splits)
        mesh = t.build_mesh(rects)
        analysis = t.analyze_segments(mesh)
        assert builds(lambda: t.appearance_ordering(history, analysis)) == 0
        assert builds(lambda: t.new_isolated_segment_count(history)) == 0
        assert builds(history.replay) == 1
        analysed.clear()
        assert builds(lambda: t.apply_history(history)) == 1
        assert analysed == []
        cell = mesh.cells[-1]
        assert builds(lambda: t.split_cell(mesh, None, cell.id, "h", (cell.y0 + cell.y1) / 2)) == 1
        for cell in mesh.cells[:8]:
            trial = history.copy()
            count = builds(lambda: t.weighted_split(
                mesh, trial, cell.id, "v", (cell.x0 + cell.x1) / 2, (1, 1), (2, 2), 3, 3
            ))
            appended = len(trial.events) - len(history.events)
            assert count == appended
            hops += appended - 1
    assert hops > 0  # extension hops are counted too


def test_weighted_split_takes_constant_smoothness_only():
    # The split at x = 3/2 adds a node line: a distribution bound to the mesh
    # before the split cannot describe the meshes after it, so the rule takes
    # constant smoothness and binds it to each new mesh itself.
    for smooth in (t.ConstantSmoothness(1, 1), (1, 1)):
        mesh, hist = grid_history(4, 4)
        cell = cell_containing(mesh, F(3, 2), F(3, 2))
        out = t.weighted_split(mesh, hist, cell.id, "v", F(3, 2), smooth, (2, 2), 3, 3)
        assert out.classification == t.NEW_MIS
        assert sorted(hist.replay().cell_rects()) == sorted(out.mesh.cell_rects())
    mesh, hist = grid_history(4, 4)
    cell = cell_containing(mesh, F(3, 2), F(3, 2))
    events = list(hist.events)
    dist = t.constant_distribution(mesh, 1, 1)
    with pytest.raises(TypeError):
        t.weighted_split(mesh, hist, cell.id, "v", F(3, 2), dist, (2, 2), 3, 3)
    assert hist.events == events


def test_isolated_segment_count():
    grid, hist = grid3x3_history()
    assert t.new_isolated_segment_count(hist) == 0
    refined = subdivide_center_3x3(grid, hist)
    # all four segments of the centre block cross or touch one another, but
    # each is created bare before the transversal ones arrive
    sigma = t.new_isolated_segment_count(hist)
    dist = t.constant_distribution(refined, 1, 1)
    counts = t.stats(refined)
    low = 9 * counts.f2 - 6 * counts.f1o + 4 * counts.f0o
    dim = t.spline_dimension_exact(refined, dist, (2, 2))
    assert low <= dim <= low + sigma
