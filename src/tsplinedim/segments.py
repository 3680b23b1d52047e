"""Maximal segments, the interior subset, blocking, orderings and weights."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DanglingGeometry
from .mesh import HORIZONTAL, VERTICAL


class MaxSegment(NamedTuple):
    """Maximal run of collinear, connected interior edges."""

    id: int
    direction: str
    coord: Fraction  # supporting-line coordinate
    lo: Fraction
    hi: Fraction
    edges: tuple[int, ...]  # ordered along the segment
    vertices: tuple[int, ...]  # every mesh vertex on the segment, ordered
    interior: bool  # True iff the segment does not meet the domain boundary

    @property
    def horizontal(self):
        return self.direction == HORIZONTAL


class SegmentAnalysis:
    def __init__(self, mesh, segments):
        self.mesh = mesh
        self.segments: tuple[MaxSegment, ...] = segments
        self.mis = tuple(s.id for s in segments if s.interior)
        self._through: dict[tuple[int, str], int] = {}
        self._mis_at_vertex: dict[int, tuple[int, ...]] = {}
        for seg in segments:
            for vid in seg.vertices:
                self._through[(vid, seg.direction)] = seg.id
        for sid in self.mis:
            for vid in segments[sid].vertices:
                self._mis_at_vertex.setdefault(vid, ())
                self._mis_at_vertex[vid] += (sid,)

    def segment_through(self, vertex_id, direction):
        """Maximal segment of the given direction through a vertex, or None."""
        return self._through.get((vertex_id, direction))

    def interior_segments_at(self, vertex_id):
        return self._mis_at_vertex.get(vertex_id, ())


def analyze_segments(mesh):
    """Group interior edges into maximal segments (one segment per connected run).

    Edges are grouped by their node line (``mesh.edge_line``).  Edge ids run
    in (start, end) vertex order, which on one line is the order along it,
    so a line's edges arrive sorted and two of them join when one starts at
    the vertex where the other ends.
    """
    by_line: dict[tuple[str, int], list] = {}
    for eid in mesh.interior_edges:
        e = mesh.edges[eid]
        by_line.setdefault((e.direction, mesh.edge_line[eid]), []).append(e)

    raw = []
    for (direction, line), line_edges in by_line.items():
        run = [line_edges[0]]
        for e in line_edges[1:]:
            if e.start == run[-1].end:
                run.append(e)
            else:
                raw.append((direction, line, run))
                run = [e]
        raw.append((direction, line, run))

    # Line indices and start vertex ids order the segments as their
    # coordinates and low ends do.
    raw.sort(key=lambda item: (item[0], item[1], item[2][0].start))
    segments = []
    for sid, (direction, _, run) in enumerate(raw):
        verts = [run[0].start] + [e.end for e in run]
        vobjs = [mesh.vertices[v] for v in verts]
        interior = vobjs[0].interior and vobjs[-1].interior
        if not all(v.interior for v in vobjs[1:-1]):
            raise DanglingGeometry(f"{direction} segment at {run[0].coord} pinched on the boundary")
        segments.append(
            MaxSegment(
                id=sid,
                direction=direction,
                coord=run[0].coord,
                lo=run[0].lo,
                hi=run[-1].hi,
                edges=tuple(e.id for e in run),
                vertices=tuple(verts),
                interior=interior,
            )
        )
    return SegmentAnalysis(mesh, tuple(segments))


def blocking(analysis):
    """Directed pairs (a, b), sorted: segment a blocks segment b.

    a blocks b when an end point of b lies strictly inside a; only interior
    segments participate.  Only the segment across each end of b can
    contain that end, so each end is looked up once.
    """
    pairs = []
    for b in analysis.mis:
        seg = analysis.segments[b]
        across = VERTICAL if seg.horizontal else HORIZONTAL
        for vid in (seg.vertices[0], seg.vertices[-1]):
            a = analysis.segments[analysis.segment_through(vid, across)]
            if a.interior and vid not in (a.vertices[0], a.vertices[-1]):
                pairs.append((a.id, b))
    return tuple(sorted(pairs))


class Ordering(NamedTuple):
    """Injective ranking of the interior segments.

    source is "appearance" (from a subdivision history), "topological"
    (blocking order) or "canonical" (fallback when blocking has a cycle).
    """

    index: dict[int, int]
    source: str = "topological"


def default_ordering(analysis):
    """Blocking-topological order of the interior segments.

    Cyclic blocking falls back to the canonical segment order, with source
    "canonical".  The appearance order of a split history is
    ``hierarchy.appearance_ordering``.
    """
    mis = list(analysis.mis)
    succ = {}
    indeg = {sid: 0 for sid in mis}
    for a, b in blocking(analysis):
        succ.setdefault(a, []).append(b)
        indeg[b] += 1
    order = []
    ready = sorted(sid for sid in mis if indeg[sid] == 0)
    while ready:
        sid = ready.pop(0)
        order.append(sid)
        for nxt in succ.get(sid, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    if len(order) != len(mis):
        return Ordering({sid: i + 1 for i, sid in enumerate(sorted(mis))}, "canonical")
    return Ordering({sid: i + 1 for i, sid in enumerate(order)}, "topological")


class SegmentWeight(NamedTuple):
    vertices: tuple[int, ...]  # counted vertices: not on any later interior segment
    count: int
    weight: int


def segment_weight(analysis, dist, degree, ordering, segment_id):
    """Counted vertex set, its size, and the weight of one interior segment.

    A vertex of the segment is counted unless it lies on another interior
    segment with a larger ordering rank.  Each counted vertex contributes its
    transversal multiplicity: degree minus smoothness of the crossing line,
    clamped at zero (orders at or above the degree pin nothing).
    """
    seg = analysis.segments[segment_id]
    rank = ordering.index[segment_id]
    kept = []
    for vid in seg.vertices:
        covered = any(
            other != segment_id and ordering.index[other] > rank
            for other in analysis.interior_segments_at(vid)
        )
        if not covered:
            kept.append(vid)
    weight = sum(_transversal_weight(analysis, dist, degree, seg, v) for v in kept)
    return SegmentWeight(tuple(kept), len(kept), weight)


def _transversal_weight(analysis, dist, degree, seg, vertex_id):
    """What one counted vertex adds to the weight of ``seg``."""
    m, n = degree
    vertex = analysis.mesh.vertices[vertex_id]
    if seg.horizontal:
        return max(0, m - dist.order(VERTICAL, vertex.x))
    return max(0, n - dist.order(HORIZONTAL, vertex.y))

