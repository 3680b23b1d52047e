"""Hierarchical T-meshes: cell splits, replayable histories, appearance
ordering of interior segments, and the weighted subdivision rule.

A history replays on its cell list, recording the span of every inserted
edge on its line; the appearance ordering is read off those spans, so a
mesh is built only to be returned or weighed.
A history keeps its replay and extends it by the events appended since, so
each event is split once however often the history is replayed, ordered or
weighed.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from operator import is_
from typing import NamedTuple

from .errors import CoordinateOnCellBoundary, HistoryMismatch, UnknownCell
from .mesh import HORIZONTAL, VERTICAL, _check_cells, as_fraction, build_mesh
from .segments import Ordering, analyze_segments, segment_weight
from .smoothness import constant_distribution

NEW_MIS = "new-MIS"
EXTENDED_MIS = "extended-MIS"
BOUNDARY_REACHING = "boundary-reaching"


class SplitEvent(NamedTuple):
    cell: int  # canonical cell id in the mesh state just before the event
    direction: str  # direction of the inserted edge: "h" or "v"
    coord: Fraction
    rule: tuple[int, int] | None = None  # (k, k') of a parsed wsplit line


class SubdivisionHistory:
    """Initial rectangle plus an ordered list of elementary splits.

    Replaying the events from the initial rectangle reproduces the mesh
    exactly; weighted splits record their extension hops as further
    elementary events, so replay never needs the rule parameters.  The one
    mutable record: splits append to ``events``, one list per history.

    The history keeps the replay of its events and splits only the events
    appended since.  The replay starts over from ``initial`` when the events
    it split are no longer the first of ``events``, object for object (an
    event was replaced or removed, or the weighted rule raised after its own
    splits), when ``initial`` holds other objects, and for each ``copy()``.
    Since even a replay or an ordering may extend the kept replay, a history
    is not to be shared between threads.
    """

    __slots__ = ("initial", "events", "_kept")

    def __init__(self, initial, events=None):
        self.initial: tuple[Fraction, Fraction, Fraction, Fraction] = initial
        self.events: list[SplitEvent] = [] if events is None else events
        self._kept = None

    def __eq__(self, other):
        if type(other) is not SubdivisionHistory:
            return NotImplemented
        return (self.initial, self.events) == (other.initial, other.events)

    def __repr__(self):
        return f"SubdivisionHistory(initial={self.initial!r}, events={self.events!r})"

    def copy(self):
        return SubdivisionHistory(self.initial, list(self.events))

    def replay(self):
        return build_mesh(self._replayed().rects)

    def _replayed(self):
        """The kept replay, extended by the events appended since it ran, or
        a new one when its initial rectangle or events are no longer these."""
        state = self._kept
        stale = state is None or not _same(state.initial, self.initial)
        if stale or not _same(state.events, self.events[: len(state.events)]):
            state = self._kept = _Replay(self.initial)
        for event in self.events[len(state.events):]:
            state.split(event)
        return state


def _same(a, b):
    """Whether a and b hold the very same objects."""
    return len(a) == len(b) and all(map(is_, a, b))


class SplitOutcome(NamedTuple):
    mesh: object
    segment: object  # maximal segment of .mesh containing the new edge
    classification: str


def initial_mesh(x0, y0, x1, y1):
    initial = (as_fraction(x0), as_fraction(y0), as_fraction(x1), as_fraction(y1))
    return build_mesh([initial]), SubdivisionHistory(initial)


def _split(rects, event):
    """Replace cell event.cell of rects, kept sorted by (y0, x0) so that an
    index is a canonical cell id, by its two halves.

    Returns the line coordinate and the (lo, hi) span of the new edge.
    """
    if not 0 <= event.cell < len(rects):
        raise UnknownCell(f"no cell with id {event.cell}")
    x0, y0, x1, y1 = rects[event.cell]
    coord = as_fraction(event.coord)
    if event.direction == VERTICAL:
        axis, a, b, lo, hi = "x", x0, x1, y0, y1
        halves = [(x0, y0, coord, y1), (coord, y0, x1, y1)]
    elif event.direction == HORIZONTAL:
        axis, a, b, lo, hi = "y", y0, y1, x0, x1
        halves = [(x0, y0, x1, coord), (x0, coord, x1, y1)]
    else:
        raise ValueError(f"bad direction {event.direction!r}")
    if not a < coord < b:
        rect = ", ".join(map(str, rects[event.cell]))
        raise CoordinateOnCellBoundary(f"{axis}={coord} not inside cell {event.cell} [{rect}]")
    del rects[event.cell]
    for half in halves:
        insort(rects, half, key=lambda r: (r[1], r[0]))
    return coord, lo, hi


def _outcome(rects, direction, coord, lo, hi, inserted):
    """Build the mesh of rects and classify the maximal segment holding the
    new edge [lo, hi]; inserted is the length this call put on its line."""
    mesh = build_mesh(rects)
    analysis = analyze_segments(mesh)
    segment = next(
        s for s in analysis.segments
        if s.direction == direction and s.coord == coord and s.lo <= lo and hi <= s.hi
    )
    if not segment.interior:
        classification = BOUNDARY_REACHING
    elif segment.hi - segment.lo == inserted:
        classification = NEW_MIS
    else:
        classification = EXTENDED_MIS
    return SplitOutcome(mesh, segment, classification), analysis


class _Replay:
    """An initial rectangle and the events split on its cell list so far.

    Keeps the initial rectangle as given, the events in split order, the
    cells sorted by (y0, x0), an index being the canonical cell id, and for
    each line (direction, coord) the (lo, hi, event index) of every edge
    inserted on it, in event order.  No mesh is built: the initial
    rectangle is validated as build_mesh validates a cell, with its errors.
    """

    def __init__(self, initial):
        self.initial = tuple(initial)
        self.rects = [tuple(map(as_fraction, self.initial))]
        _check_cells(self.rects, self.rects)
        self.lines = {}
        self.events = []

    def split(self, event):
        coord, lo, hi = _split(self.rects, event)
        self.lines.setdefault((event.direction, coord), []).append((lo, hi, len(self.events)))
        self.events.append(event)
        return coord, lo, hi

    def check(self, mesh):
        if self.rects != mesh.cell_rects():
            raise HistoryMismatch("history does not replay to the analyzed mesh")

    def ordering(self, analysis):
        """Order the interior segments of analysis by the event that created
        each: the first event whose edge lies inside the segment.

        Raises HistoryMismatch when analysis is not of the replayed mesh or a
        segment has no such event.
        """
        self.check(analysis.mesh)
        births = []
        for sid in analysis.mis:
            seg = analysis.segments[sid]
            spans = self.lines.get((seg.direction, seg.coord), ())
            birth = min((i for lo, hi, i in spans if seg.lo <= lo and hi <= seg.hi), default=None)
            if birth is None:
                raise HistoryMismatch(f"segment {sid} has no unique replay record")
            births.append((birth, sid))
        births.sort()
        return Ordering({sid: i + 1 for i, (_, sid) in enumerate(births)}, "appearance")


def split_cell(mesh, history, cell_id, direction, coord):
    """Split one cell along a horizontal or vertical line strictly inside it.

    Existing edges met by the new segment's end points are re-fragmented by
    the rebuild; the history (when given) records the elementary event.
    """
    event = SplitEvent(cell_id, direction, as_fraction(coord))
    rects = mesh.cell_rects()
    coord, lo, hi = _split(rects, event)
    outcome, _ = _outcome(rects, direction, coord, lo, hi, hi - lo)
    if history is not None:
        history.events.append(event)
    return outcome


def _extension_target(rects, segment, at_hi):
    """Id of the cell entered when the segment is prolonged past one of its end points."""
    end = segment.hi if at_hi else segment.lo
    for cell_id, (x0, y0, x1, y1) in enumerate(rects):
        if segment.horizontal:
            hit = (x0 if at_hi else x1) == end and y0 < segment.coord < y1
        else:
            hit = (y0 if at_hi else y1) == end and x0 < segment.coord < x1
        if hit:
            return cell_id
    raise AssertionError(f"no cell continues segment {segment.id} past {end}")


def weighted_split(mesh, history, cell_id, direction, coord, smoothness, degree, k, kp):
    """Split a cell, then extend the new segment until the weighted rule holds.

    After the split, if the containing maximal segment is interior, it is
    prolonged one transversal hop at a time (high end first, then
    alternating) until it either reaches the domain boundary or its weight
    under the appearance ordering is at least k (horizontal) / kp (vertical).
    Every hop splits the cell it crosses and is recorded in the history.
    ``smoothness`` is a ConstantSmoothness or an (r, r') pair.  The history
    is left unchanged when an error is raised, and HistoryMismatch is raised
    unless it replays to ``mesh``.
    """
    if history is None:
        raise ValueError("the weighted rule needs a history for the appearance ordering")
    r, rp = smoothness
    events = [SplitEvent(cell_id, direction, as_fraction(coord))]
    state = history._replayed()
    state.check(mesh)
    threshold = k if direction == HORIZONTAL else kp
    inserted = 0
    at_hi = True
    while True:
        coord, lo, hi = state.split(events[-1])
        inserted += hi - lo
        outcome, analysis = _outcome(state.rects, direction, coord, lo, hi, inserted)
        if not outcome.segment.interior:
            break
        dist = constant_distribution(outcome.mesh, r, rp)
        ordering = state.ordering(analysis)
        if segment_weight(analysis, dist, degree, ordering, outcome.segment.id).weight >= threshold:
            break
        target = _extension_target(state.rects, outcome.segment, at_hi)
        events.append(SplitEvent(target, direction, coord))
        at_hi = not at_hi
    history.events.extend(events)
    return outcome


def appearance_ordering(history, analysis):
    """Order interior segments by the event that created each of them.

    Raises HistoryMismatch when the history does not replay to the analyzed
    mesh or a segment cannot be matched to a replay record.
    """
    return history._replayed().ordering(analysis)

