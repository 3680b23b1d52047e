"""Hierarchical T-meshes: cell splits, replayable histories, appearance
ordering of interior segments, and the weighted subdivision rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CoordinateOnCellBoundary, HistoryMismatch, UnknownCell
from .mesh import HORIZONTAL, VERTICAL, as_fraction, build_mesh
from .segments import Ordering, analyze_segments, segment_weight
from .smoothness import constant_distribution

NEW_MIS = "new-MIS"
EXTENDED_MIS = "extended-MIS"
BOUNDARY_REACHING = "boundary-reaching"


@dataclass(frozen=True)
class SplitEvent:
    cell: int  # canonical cell id in the mesh state just before the event
    direction: str  # direction of the inserted edge: "h" or "v"
    coord: Fraction
    kind: str = "split"  # "split" | "wsplit" | "ext"
    rule: tuple[int, int] | None = None  # (k, k') recorded on wsplit events


@dataclass
class SubdivisionHistory:
    """Initial rectangle plus an ordered list of elementary splits.

    Replaying the events from the initial rectangle reproduces the mesh
    exactly; weighted splits record their extension hops as further
    elementary events, so replay never needs the rule parameters.
    """

    initial: tuple[Fraction, Fraction, Fraction, Fraction]
    events: list[SplitEvent] = field(default_factory=list)

    def copy(self):
        return SubdivisionHistory(self.initial, list(self.events))

    def replay(self):
        return _replay(self).mesh


@dataclass(frozen=True)
class SplitOutcome:
    mesh: object
    segment: object  # maximal segment of .mesh containing the new edge
    classification: str


def initial_mesh(x0, y0, x1, y1):
    initial = (as_fraction(x0), as_fraction(y0), as_fraction(x1), as_fraction(y1))
    return build_mesh([initial]), SubdivisionHistory(initial)


def _split_rects(mesh, cell_id, direction, coord):
    if not 0 <= cell_id < len(mesh.cells):
        raise UnknownCell(f"no cell with id {cell_id}")
    cell = mesh.cells[cell_id]
    coord = as_fraction(coord)
    rect = "[" + ", ".join(str(v) for v in cell.rect) + "]"
    if direction == VERTICAL:
        if not cell.x0 < coord < cell.x1:
            raise CoordinateOnCellBoundary(f"x={coord} not inside cell {cell_id} {rect}")
        halves = [(cell.x0, cell.y0, coord, cell.y1), (coord, cell.y0, cell.x1, cell.y1)]
    elif direction == HORIZONTAL:
        if not cell.y0 < coord < cell.y1:
            raise CoordinateOnCellBoundary(f"y={coord} not inside cell {cell_id} {rect}")
        halves = [(cell.x0, cell.y0, cell.x1, coord), (cell.x0, coord, cell.x1, cell.y1)]
    else:
        raise ValueError(f"bad direction {direction!r}")
    rects = [c.rect for c in mesh.cells if c.id != cell_id]
    rects.extend(halves)
    return rects, cell


def _containing_segment(analysis, direction, coord, at):
    for seg in analysis.segments:
        if seg.direction == direction and seg.coord == coord and seg.lo <= at <= seg.hi:
            return seg
    return None


def _covered(old_analysis, segment):
    """Interior segments of an earlier analysis that segment overlaps on its line."""
    return [
        old
        for old in old_analysis.segments
        if old.interior
        and old.direction == segment.direction
        and old.coord == segment.coord
        and old.lo <= segment.hi
        and segment.lo <= old.hi
    ]


def _classify(covered, segment):
    if not segment.interior:
        return BOUNDARY_REACHING
    return EXTENDED_MIS if covered else NEW_MIS


def _span(segment):
    return (segment.direction, segment.coord, segment.lo, segment.hi)


class _Replay:
    """Mesh state advanced one elementary split at a time.

    Keeps the segment analysis of the current mesh, which is the "old"
    analysis of the next split; the index of the event that created each
    interior segment, keyed by its span (merges keep the earliest); and the
    number of events that created a new interior segment with no interior
    vertex.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.analysis = analyze_segments(mesh)
        self.births = {}
        self.events = 0
        self.isolated = 0

    def split(self, event):
        rects, cell = _split_rects(self.mesh, event.cell, event.direction, event.coord)
        mesh = build_mesh(rects)
        analysis = analyze_segments(mesh)
        lo, hi = (cell.y0, cell.y1) if event.direction == VERTICAL else (cell.x0, cell.x1)
        segment = _containing_segment(analysis, event.direction, event.coord, (lo + hi) / 2)
        covered = _covered(self.analysis, segment)
        # a segment that was there before the first replayed event has no record
        births = [self.births.pop(_span(old), self.events) for old in covered]
        if segment.interior:
            self.births[_span(segment)] = min([self.events] + births)
        classification = _classify(covered, segment)
        if classification == NEW_MIS and len(segment.vertices) == 2:
            self.isolated += 1
        self.mesh, self.analysis = mesh, analysis
        self.events += 1
        return SplitOutcome(mesh, segment, classification)

    def ordering(self, analysis):
        """Order the interior segments of analysis by the event that created each.

        Raises HistoryMismatch when analysis is not of the replayed mesh or a
        segment has no birth record.
        """
        if sorted(self.mesh.cell_rects()) != sorted(analysis.mesh.cell_rects()):
            raise HistoryMismatch("history does not replay to the analyzed mesh")
        births = []
        for sid in analysis.mis:
            birth = self.births.get(_span(analysis.segments[sid]))
            if birth is None:
                raise HistoryMismatch(f"segment {sid} has no unique replay record")
            births.append((birth, sid))
        births.sort()
        return Ordering({sid: i + 1 for i, (_, sid) in enumerate(births)}, "appearance")


def _replay(history):
    state = _Replay(build_mesh([history.initial]))
    for event in history.events:
        state.split(event)
    return state


def split_cell(mesh, history, cell_id, direction, coord):
    """Split one cell along a horizontal or vertical line strictly inside it.

    Existing edges met by the new segment's end points are re-fragmented by
    the rebuild; the history (when given) records the elementary event.
    """
    event = SplitEvent(cell_id, direction, as_fraction(coord))
    outcome = _Replay(mesh).split(event)
    if history is not None:
        history.events.append(event)
    return outcome


def _extension_target(mesh, segment, at_hi):
    """Cell entered when the segment is prolonged past one of its end points."""
    vid = segment.vertices[-1] if at_hi else segment.vertices[0]
    v = mesh.vertices[vid]
    for cell in mesh.cells:
        if segment.horizontal:
            edge_hit = cell.x0 == v.x if at_hi else cell.x1 == v.x
            inside = cell.y0 < segment.coord < cell.y1
        else:
            edge_hit = cell.y0 == v.y if at_hi else cell.y1 == v.y
            inside = cell.x0 < segment.coord < cell.x1
        if edge_hit and inside:
            return cell
    raise AssertionError(f"no cell continues segment {segment.id} past vertex {vid}")


def weighted_split(mesh, history, cell_id, direction, coord, smoothness, degree, k, kp):
    """Split a cell, then extend the new segment until the weighted rule holds.

    After the split, if the containing maximal segment is interior, it is
    prolonged one transversal hop at a time (high end first, then
    alternating) until it either reaches the domain boundary or its weight
    under the appearance ordering is at least k (horizontal) / kp (vertical).
    Every hop splits the cell it crosses and is recorded in the history.
    ``smoothness`` is a ConstantSmoothness or an (r, r') pair.  The history
    is left unchanged when an error is raised.
    """
    if history is None:
        raise ValueError("the weighted rule needs a history for the appearance ordering")
    r, rp = smoothness
    events = [SplitEvent(cell_id, direction, as_fraction(coord), "wsplit", (k, kp))]
    state = _Replay(mesh)
    base = state.analysis
    outcome = state.split(events[0])
    if outcome.segment.interior:
        state = _replay(history)
        state.ordering(base)  # HistoryMismatch unless the history replays to mesh
        outcome = state.split(events[0])
        threshold = k if direction == HORIZONTAL else kp
        at_hi = True
        while outcome.segment.interior:
            dist = constant_distribution(state.mesh, r, rp)
            ordering = state.ordering(state.analysis)
            if segment_weight(state.analysis, dist, degree, ordering, outcome.segment.id).weight >= threshold:
                break
            target = _extension_target(state.mesh, outcome.segment, at_hi)
            events.append(SplitEvent(target.id, direction, events[0].coord, "ext"))
            outcome = state.split(events[-1])
            at_hi = not at_hi
    history.events.extend(events)
    segment = outcome.segment
    return SplitOutcome(outcome.mesh, segment, _classify(_covered(base, segment), segment))


def appearance_ordering(history, analysis):
    """Order interior segments by the event that created each of them.

    Raises HistoryMismatch when the history does not replay to the analyzed
    mesh or a segment cannot be matched to a replay record.
    """
    return _replay(history).ordering(analysis)


def new_isolated_segment_count(history):
    """Number of events that introduce a new interior segment carrying no
    interior vertex at the moment of its creation.

    This is the slack term of the hierarchical biquadratic dimension bound.
    """
    return _replay(history).isolated
