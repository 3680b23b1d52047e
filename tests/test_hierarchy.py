import operator
import random

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

import tsplinedim as t
from tsplinedim import formats, hierarchy
from tsplinedim.errors import CoordinateOnCellBoundary, HistoryMismatch, MeshError, UnknownCell

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
from witnesses import is_weighted, new_isolated_segment_count


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
    assert isolated == new_isolated_segment_count(history)
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
    assert is_weighted(analysis, dist, deg, order, 3, 3)
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


def _wsplit_lines(rng, n_lines):
    """(lines, expanded): n_lines wsplit events under the (3, 3) rule, each
    through the middle of a random cell of the mesh the rule left, and the
    elementary history the rule expands them to."""
    mesh, expanded = t.initial_mesh(0, 0, 8, 8)
    lines = t.SubdivisionHistory(expanded.initial)
    for _ in range(n_lines):
        cell = rng.choice(mesh.cells)
        direction = rng.choice("hv")
        coord = (cell.y0 + cell.y1) / 2 if direction == "h" else (cell.x0 + cell.x1) / 2
        lines.events.append(t.SplitEvent(cell.id, direction, coord, (3, 3)))
        mesh = t.weighted_split(mesh, expanded, cell.id, direction, coord, (1, 1), (2, 2), 3, 3).mesh
    return lines, expanded


def test_builds_one_mesh_per_returned_or_weighed_state(monkeypatch):
    """A history replays on its cell list: whatever its length, only the
    meshes that are returned or weighed are built.  It keeps its replay, so
    each event is split once however often the history is replayed."""
    real_build, real_analyze = hierarchy.build_mesh, hierarchy.analyze_segments
    real_split = hierarchy._split
    built, analysed, split = [], [], []
    for module in (hierarchy, formats):
        monkeypatch.setattr(module, "build_mesh", lambda rects: built.append(rects) or real_build(rects))
    monkeypatch.setattr(hierarchy, "analyze_segments", lambda mesh: analysed.append(mesh) or real_analyze(mesh))
    monkeypatch.setattr(hierarchy, "_split", lambda rects, event: split.append(event) or real_split(rects, event))

    def run(call):
        """(meshes built, cells split) by the call."""
        built.clear()
        split.clear()
        call()
        return len(built), len(split)

    hops = 0
    for n_splits in (0, 4, 30):
        rng = random.Random(n_splits)
        history, rects = random_history(rng, n_splits)
        mesh = t.build_mesh(rects)
        analysis = t.analyze_segments(mesh)
        assert run(history.replay) == (1, n_splits)
        assert run(lambda: t.appearance_ordering(history, analysis)) == (0, 0)
        assert run(lambda: new_isolated_segment_count(history)) == (0, 0)
        assert run(history.replay) == (1, 0)
        analysed.clear()
        assert run(lambda: t.apply_history(history)) == (1, n_splits)
        assert analysed == []
        cell = mesh.cells[-1]
        assert run(lambda: t.split_cell(mesh, None, cell.id, "h", (cell.y0 + cell.y1) / 2)) == (1, 1)
        for cell in mesh.cells[:8]:
            trial = history.copy()
            count = run(lambda: t.weighted_split(
                mesh, trial, cell.id, "v", (cell.x0 + cell.x1) / 2, (1, 1), (2, 2), 3, 3
            ))
            appended = len(trial.events) - len(history.events)
            assert count == (appended, n_splits + appended)  # a copy replays anew
            assert run(lambda: new_isolated_segment_count(trial)) == (0, 0)
            hops += appended - 1
    assert hops > 0  # extension hops are counted too

    lines, expanded = _wsplit_lines(random.Random(1), 12)
    assert len(expanded.events) > len(lines.events)
    built.clear()
    split.clear()
    mesh, applied = t.apply_history(lines, (1, 1), (2, 2))
    assert applied == expanded
    # one mesh per event, and the initial one that the first wsplit weighs
    assert (len(built), len(split)) == (len(expanded.events) + 1, len(expanded.events))
    analysis = t.analyze_segments(mesh)
    assert run(lambda: t.appearance_ordering(applied, analysis)) == (0, 0)
    assert run(lambda: new_isolated_segment_count(applied)) == (0, 0)
    assert run(applied.replay) == (1, 0)


def _fresh(history):
    """Reference: a new replay of the history's initial rectangle and all
    its events."""
    state = hierarchy._Replay(history.initial)
    for event in history.events:
        state.split(event)
    return state


def _results(history, calls, pick):
    """What each call gives on history, in order; an error is a result too.

    A weighing or ordering call gets its mesh from a fresh replay, so the
    first call on history is the one that meets its kept replay."""
    results = []
    for call in calls:
        try:
            if call == "replay":
                value = history.replay().cell_rects()
            elif call == "isolated":
                value = new_isolated_segment_count(history)
            elif call == "ordering":
                analysis = t.analyze_segments(t.build_mesh(_fresh(history).rects))
                value = t.appearance_ordering(history, analysis)
            else:
                mesh = t.build_mesh(_fresh(history).rects)
                cell = mesh.cells[pick % len(mesh.cells)]
                x = (cell.x0 + cell.x1) / 2
                out = t.weighted_split(mesh, history, cell.id, "v", x, (1, 1), (2, 2), 3, 3)
                value = (out.mesh.cell_rects(), out.classification, list(history.events))
        except MeshError as exc:  # the fresh route must raise alike
            value = (type(exc), str(exc))
        results.append((call, value))
    return results


_CHANGES = (
    "replace", "truncate", "reassign-events", "reassign-initial", "copy",
    "on-boundary", "mismatch", "raise-mid-rule",
)


@pytest.mark.parametrize("change", _CHANGES)
@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=12),
    st.permutations(("replay", "isolated", "ordering", "weighted")),
    st.integers(min_value=0),
)
def test_kept_replay_matches_a_fresh_replay(change, seed, n_splits, calls, pick):
    """After any change to a history whose replay is kept, the next calls
    give what a new history of the same initial rectangle and events gives,
    and the kept replay equals a fresh one."""
    history, _ = random_history(random.Random(seed), n_splits)
    events, initial = list(history.events), history.initial
    mesh = history.replay()
    cell = mesh.cells[pick % len(mesh.cells)]
    if change == "replace":
        event = history.events[pick % n_splits]
        x0, _, x1, _ = _fresh(t.SubdivisionHistory(initial, events[:pick % n_splits])).rects[event.cell]
        history.events[pick % n_splits] = t.SplitEvent(event.cell, "v", (x0 + 3 * x1) / 4)
    elif change == "truncate":
        del history.events[pick % n_splits:]
    elif change == "reassign-events":
        history.events = random_history(random.Random(seed + 1), pick % 12)[0].events
    elif change == "reassign-initial":
        history.initial = (initial[0], initial[1], initial[2] + 1, initial[3] + 1)
    elif change == "copy":
        original, history = history, history.copy()
        history.events.append(t.SplitEvent(cell.id, "h", (cell.y0 + cell.y1) / 2))
    else:
        weighed, x, smooth = mesh, (cell.x0 + cell.x1) / 2, (1, 1)
        if change == "on-boundary":
            expected, x = CoordinateOnCellBoundary, cell.x0
        elif change == "mismatch":
            expected, weighed = HistoryMismatch, t.SubdivisionHistory(initial, events[:-1]).replay()
            cell = weighed.cells[0]
            x = (cell.x0 + cell.x1) / 2
        else:  # the rule splits before it checks the orders, then raises
            expected, smooth = ValueError, (-1, -1)
        try:
            t.weighted_split(weighed, history, cell.id, "v", x, smooth, (2, 2), 3, 3)
        except expected:
            assert history.initial is initial
            assert len(history.events) == len(events) and all(map(operator.is_, history.events, events))
        else:
            assert change == "raise-mid-rule"  # the new segment reached the boundary
    fresh = t.SubdivisionHistory(history.initial, list(history.events))
    assert _results(history, calls, pick) == _results(fresh, calls, pick)
    if change == "copy":
        assert original.events == events
        assert _results(original, calls, pick) == _results(t.SubdivisionHistory(initial, events), calls, pick)
    try:
        reference = _fresh(history)
    except MeshError:  # the calls above compared the error
        return
    state = history._replayed()
    assert (state.rects, state.lines, state.events) == (reference.rects, reference.lines, reference.events)


def test_failed_weighted_split_starts_a_new_replay():
    """The rule's own splits stay in the kept replay when it raises after
    them, so the replay is then longer than the history and starts over."""
    grid, hist = grid3x3_history()
    events = list(hist.events)
    center = cell_containing(grid, F(3, 2), F(3, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        t.weighted_split(grid, hist, center.id, "v", F(4, 3), (-1, -1), (2, 2), 3, 3)
    assert hist.events == events
    assert len(hist._kept.events) == len(events) + 1
    assert sorted(hist.replay().cell_rects()) == sorted(grid.cell_rects())
    assert hist._kept.events == events
    out = t.weighted_split(grid, hist, center.id, "v", F(4, 3), (1, 1), (2, 2), 3, 3)
    assert sorted(hist.replay().cell_rects()) == sorted(out.mesh.cell_rects())


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
    assert new_isolated_segment_count(hist) == 0
    refined = subdivide_center_3x3(grid, hist)
    # all four segments of the centre block cross or touch one another, but
    # each is created bare before the transversal ones arrive
    sigma = new_isolated_segment_count(hist)
    dist = t.constant_distribution(refined, 1, 1)
    counts = t.stats(refined)
    low = 9 * counts.f2 - 6 * counts.f1o + 4 * counts.f0o
    dim = t.spline_dimension_exact(refined, dist, (2, 2))
    assert low <= dim <= low + sigma
