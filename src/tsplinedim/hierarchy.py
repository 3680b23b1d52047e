"""Hierarchical T-meshes: cell splits, replayable histories, appearance
ordering of interior segments, and the weighted subdivision rule.

A history replays on its cell list, recording the span of every inserted
edge on its line; the appearance ordering and the weighted rule are read off
those spans, so a mesh is built only to be returned.
A history keeps its replay and extends it by the events appended since, so
each event is split once however often the history is replayed, ordered or
weighed.
"""

import operator
from bisect import insort
from fractions import Fraction
from typing import NamedTuple

from .errors import CoordinateOnCellBoundary, HistoryMismatch, UnknownCell
from .mesh import HORIZONTAL, VERTICAL, as_fraction, build_mesh
from .segments import Ordering, analyze_segments

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
    return len(a) == len(b) and all(map(operator.is_, a, b))


class SplitOutcome(NamedTuple):
    # The mesh after the split and the maximal segment of it that holds the
    # new edge; both None when weighted_split was given no mesh.
    mesh: object
    segment: object
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


def _classify(interior, length, inserted):
    """Classification of the maximal segment holding a new edge, from whether
    it is interior, its length and the length the call inserted on its line."""
    if not interior:
        return BOUNDARY_REACHING
    return NEW_MIS if length == inserted else EXTENDED_MIS


def _segment(mesh, line, lo, hi):
    """The maximal segment of mesh on the line (direction, coord) holding [lo, hi]."""
    direction, coord = line
    return next(
        s for s in analyze_segments(mesh).segments
        if s.direction == direction and s.coord == coord and s.lo <= lo and hi <= s.hi
    )


class _Replay:
    """An initial rectangle and the events split on its cell list so far.

    Keeps the initial rectangle as given, the events in split order, the
    cells sorted by (y0, x0), an index being the canonical cell id, and for
    each line (direction, coord) the (lo, hi, event index) of every edge
    inserted on it, in event order.  The one mesh built is the initial
    rectangle's one-cell mesh: build_mesh coerces and validates it, with
    its errors, and no mesh of the split cells is built.

    Every interior edge of the mesh is an inserted edge, so the spans hold
    its maximal segments, their births and their vertices (``run``,
    ``inside``, ``counted``).
    """

    def __init__(self, initial):
        self.initial = tuple(initial)
        self.rects = build_mesh([self.initial]).cell_rects()
        self.box = self.rects[0]
        self.lines = {}
        self.events = []

    def split(self, event):
        coord, lo, hi = _split(self.rects, event)
        self.lines.setdefault((event.direction, coord), []).append((lo, hi, len(self.events)))
        self.events.append(event)
        return coord, lo, hi

    def run(self, line, lo, hi):
        """(lo, hi, birth) of the maximal segment on the line that holds
        [lo, hi], or None: the connected union of the line's spans, where
        spans that touch at an end join, and the smallest event index among
        them."""
        runs = []
        for a, b, i in sorted(self.lines.get(line, ())):
            if runs and runs[-1][1] == a:
                runs[-1] = (runs[-1][0], b, min(runs[-1][2], i))
            else:
                runs.append((a, b, i))
        return next((run for run in runs if run[0] <= lo and hi <= run[1]), None)

    def inside(self, direction, lo, hi):
        """Whether [lo, hi] on a line of the direction lies strictly inside
        the initial rectangle, so that a segment there is interior."""
        x0, y0, x1, y1 = self.box
        return (x0 < lo and hi < x1) if direction == HORIZONTAL else (y0 < lo and hi < y1)

    def counted(self, line, run):
        """Number of counted vertices of the interior segment run on the line.

        Its vertices are the points where a span across the line meets it;
        both its ends are among them, since an interior segment ends on
        edges across it.  A vertex is counted unless the segment across it
        is interior and born later.
        """
        direction, coord = line
        lo, hi, birth = run
        across = VERTICAL if direction == HORIZONTAL else HORIZONTAL
        count = 0
        for d, p in self.lines:
            if d != across or not lo <= p <= hi:
                continue
            other = self.run((d, p), coord, coord)
            if other is not None:
                count += not (other[2] > birth and self.inside(across, other[0], other[1]))
        return count

    def check(self, mesh):
        if self.rects != mesh.cell_rects():
            raise HistoryMismatch("history does not replay to the analyzed mesh")

    def ordering(self, analysis):
        """Order the interior segments of analysis by the event that created
        each: the birth of its ``run``, the first event whose edge lies
        inside the segment.

        Raises HistoryMismatch when analysis is not of the replayed mesh.
        After that check the run of each segment is the segment: each
        interior edge lies in a span inserted on its line, and spans that
        touch on a line lie in one maximal segment.
        """
        self.check(analysis.mesh)
        births = []
        for sid in analysis.mis:
            seg = analysis.segments[sid]
            births.append((self.run((seg.direction, seg.coord), seg.lo, seg.hi)[2], sid))
        births.sort()
        return Ordering({sid: i + 1 for i, (_, sid) in enumerate(births)}, "appearance")


def _extension_target(rects, line, end, at_hi):
    """Id of the cell entered when the segment on the line is prolonged past
    its end point ``end``, its high end when at_hi."""
    direction, coord = line
    for cell_id, (x0, y0, x1, y1) in enumerate(rects):
        if direction == HORIZONTAL:
            hit = (x0 if at_hi else x1) == end and y0 < coord < y1
        else:
            hit = (y0 if at_hi else y1) == end and x0 < coord < x1
        if hit:
            return cell_id
    raise AssertionError(f"no cell continues the {direction} segment at {coord} past {end}")


def weighted_split(mesh, history, cell_id, direction, coord, smoothness, degree, k, kp):
    """Split a cell, then extend the new segment until the weighted rule holds.

    After the split, if the containing maximal segment is interior, it is
    prolonged one transversal hop at a time (high end first, then
    alternating) until it either reaches the domain boundary or its weight
    under the appearance ordering is at least k (horizontal) / kp (vertical).
    Every hop splits the cell it crosses and is recorded in the history.
    ``smoothness`` is a ConstantSmoothness or an (r, r') pair of
    nonnegative ints, checked before the first split.  Under constant
    smoothness the weight is the number of counted vertices times
    (m - r)+ for a horizontal segment, (n - r')+ for a vertical one, and
    the rule reads it off the history's replay: no mesh is built per hop.

    With a ``mesh``, HistoryMismatch is raised unless the history replays
    to it, and the outcome holds the mesh after the rule and its maximal
    segment holding the last inserted edge.  With ``mesh=None``, cell ids
    refer to the replay's own canonical order, nothing is checked or
    built, and the outcome's mesh and segment are None.  The history is
    left unchanged when an error is raised.
    """
    if history is None:
        raise ValueError("the weighted rule needs a history for the appearance ordering")
    r, rp = map(operator.index, smoothness)
    if r < 0 or rp < 0:
        raise ValueError("smoothness orders must be nonnegative")
    events = [SplitEvent(cell_id, direction, as_fraction(coord))]
    state = history._replayed()
    if mesh is not None:
        state.check(mesh)
    threshold = k if direction == HORIZONTAL else kp
    inserted = 0
    at_hi = True
    while True:
        coord, lo, hi = state.split(events[-1])
        line = (direction, coord)
        inserted += hi - lo
        run = state.run(line, lo, hi)
        interior = state.inside(direction, run[0], run[1])
        if not interior:
            break
        m, n = degree
        multiplicity = max(0, m - r) if direction == HORIZONTAL else max(0, n - rp)
        if state.counted(line, run) * multiplicity >= threshold:
            break
        target = _extension_target(state.rects, line, run[1] if at_hi else run[0], at_hi)
        events.append(SplitEvent(target, direction, coord))
        at_hi = not at_hi
    history.events.extend(events)
    classification = _classify(interior, run[1] - run[0], inserted)
    if mesh is None:
        return SplitOutcome(None, None, classification)
    mesh = build_mesh(state.rects)
    return SplitOutcome(mesh, _segment(mesh, line, lo, hi), classification)


def appearance_ordering(history, analysis):
    """Order interior segments by the event that created each of them.

    Raises HistoryMismatch when the history does not replay to the analyzed
    mesh; every interior segment of the replayed mesh holds a span, and the
    first event among its spans is its birth.
    """
    return history._replayed().ordering(analysis)

