"""Maximal segments, the interior subset, blocking and orderings."""

from fractions import Fraction
from typing import NamedTuple

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

    Every vertex strictly inside a segment is interior, so only the two ends
    decide whether the segment is.  Let v lie between the segment's interior
    edges a and b, with cells A and C on either side of a and B and D on
    either side of b.  v is a cell corner, so A != B or C != D.  If A != B,
    the edge at v between A and B has a cell on each side, so it is
    interior; if A = B, no edge leaves v on that side.  The same holds on
    the side of C and D, so v has no boundary edge and is interior.
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
        interior = mesh.vertices[verts[0]].interior and mesh.vertices[verts[-1]].interior
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
