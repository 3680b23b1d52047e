"""Test-side witnesses: routines that check the engine but that no command or
engine path calls.

Each was part of the package until nothing in it read the routine any more.
The tests check the paper's statements with them: the weight of an interior
segment as the paper defines it, the surjectivity of the vertex-level
quotient map, the shifted-power dimension count against its brute force,
the weighted-mesh predicate, the isolated-segment slack of the hierarchical
bound, and the exactness certificate from an ordering.  The plain split of a mesh's cell list and the weighted subdivision rule on one
built and analysed mesh per hop are the references for the splits and the
rule read off a history's replay.
"""

from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from tsplinedim.dimension import _certificate, h_upper_bound
from tsplinedim.errors import DegreeOutOfRange, DuplicatePoints
from tsplinedim.hierarchy import (
    BOUNDARY_REACHING, EXTENDED_MIS, NEW_MIS, SplitEvent, SplitOutcome, _classify, _extension_target, _segment,
    _split,
)
from tsplinedim.linalg import rational_rank
from tsplinedim.mesh import HORIZONTAL, VERTICAL, as_fraction, build_mesh
from tsplinedim.oracle import _shifted_power
from tsplinedim.segments import analyze_segments
from tsplinedim.smoothness import constant_distribution


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


def d1_full_row_rank(mesh, dist, degree):
    """Surjectivity of the vertex-level map of the quotient complex.

    Columns are edge-quotient basis elements, rows vertex-quotient basis
    elements; the map must have full row rank on every valid mesh.
    """
    m, n = degree
    v_offset = {}
    total_rows = 0
    v_shape = {}
    for vid in mesh.interior_vertices:
        v = mesh.vertices[vid]
        rh = min(dist.order(VERTICAL, v.x), m)
        rv = min(dist.order(HORIZONTAL, v.y), n)
        v_offset[vid] = total_rows
        v_shape[vid] = (rh, rv)
        total_rows += (rh + 1) * (rv + 1)

    columns = []
    for eid in mesh.interior_edges:
        e = mesh.edges[eid]
        r = dist.order(e.direction, e.coord)
        if e.horizontal:
            basis = [(i, l) for i in range(m + 1) for l in range(min(r, n) + 1)]
        else:
            basis = [(k, j) for k in range(min(r, m) + 1) for j in range(n + 1)]
        for idx in basis:
            col = {}
            for sign, vid in ((-1, e.start), (1, e.end)):
                if not mesh.vertices[vid].interior:
                    continue
                v = mesh.vertices[vid]
                ph, pv = v_shape[vid]
                base = v_offset[vid]
                if e.horizontal:
                    i, l = idx  # s^i (t-a)^l at vertex (x0, a): expand s^i around x0
                    if l > pv:
                        continue
                    expansion = _shifted_power(-v.x, i)
                    for p in range(min(i, ph) + 1):
                        slot = base + p * (pv + 1) + l
                        col[slot] = col.get(slot, 0) + sign * expansion[p]
                else:
                    k, j = idx  # (s-a)^k t^j at vertex (a, y0): expand t^j around y0
                    if k > ph:
                        continue
                    expansion = _shifted_power(-v.y, j)
                    for q in range(min(j, pv) + 1):
                        slot = base + k * (pv + 1) + q
                        col[slot] = col.get(slot, 0) + sign * expansion[q]
            if col:
                columns.append(col)

    return rational_rank(columns) == total_rows


def apolar_dim_bruteforce(n, points, ds):
    """Rank of the shifted-power generator matrix; the oracle for apolar_dim.

    Points are ints or Fractions.  Also verifies the orthogonality
    characterization: every multiple of the complementary product of
    degree <= n is apolar-orthogonal to every generator.
    """
    if len(points) != len(ds):
        raise ValueError("points and exponents must pair up")
    seen = set()
    for a, d in zip(points, ds):
        if not isinstance(a, (int, Fraction)):
            raise TypeError(f"point {a!r} is not an int or a Fraction")
        if a in seen:
            raise DuplicatePoints(f"point {a} repeated")
        seen.add(a)
        if not 0 <= d <= n:
            raise DegreeOutOfRange(f"exponent {d} outside [0, {n}]")

    generators = []
    for a, d in zip(points, ds):
        base = _shifted_power(a, d)
        for j in range(n - d + 1):
            generators.append({j + i: c for i, c in enumerate(base)})
    rank = rational_rank(generators)

    # Orthogonality cross-check: every degree <= n multiple of the
    # complementary product pairs to zero with every generator under the
    # apolar form (reversed coefficients with alternating signs; pairing a
    # polynomial against (u - a)^n evaluates it at a).  Scaled by
    # lcm of the binomials so integer inputs stay in integer arithmetic.
    total = sum(n - d + 1 for d in ds)
    if points and total <= n:
        product = [1]
        for a, d in zip(points, ds):
            product = _poly_mul(product, _shifted_power(a, n - d + 1))
        scale = lcm(*(comb(n, i) for i in range(n + 1)))
        weights = [(-1) ** i * (scale // comb(n, i)) for i in range(n + 1)]
        for k in range(n - (len(product) - 1) + 1):
            shifted = [0] * k + product + [0] * (n + 1 - k - len(product))
            for g in generators:
                inner = sum(weights[i] * c * shifted[n - i] for i, c in g.items())
                if inner != 0:
                    raise RuntimeError("apolar orthogonality violated")

    return rank


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def is_weighted(analysis, dist, degree, ordering, k, kp):
    """True iff every horizontal interior segment has weight >= k and every
    vertical one weight >= kp (vacuously true without interior segments)."""
    return all(
        segment_weight(analysis, dist, degree, ordering, sid).weight
        >= (k if analysis.segments[sid].horizontal else kp)
        for sid in analysis.mis
    )


def new_isolated_segment_count(history):
    """Number of events that introduce a new interior segment carrying no
    interior vertex at the moment of its creation.

    This is the slack term of the hierarchical biquadratic dimension bound,
    read off the history's replay spans.  An event counts when both ends of
    its edge lie strictly inside the initial box and no earlier span on its
    line ends at its lo or starts at its hi: earlier spans never reach into
    the split cell, so only one touching an end joins the edge to a longer
    segment.
    """
    x0, y0, x1, y1 = map(as_fraction, history.initial)
    across = {VERTICAL: (y0, y1), HORIZONTAL: (x0, x1)}
    return sum(
        across[d][0] < lo and hi < across[d][1] and all(b != lo and a != hi for a, b, _ in spans[:i])
        for (d, _), spans in history._replayed().lines.items()
        for i, (lo, hi, _) in enumerate(spans)
    )


def exactness_certificate(analysis, dist, degree, ordering):
    """The exactness certificate of the defect bound under ``ordering``, as
    ``dimension_bounds`` finds it for the ordering it chooses."""
    return _certificate(h_upper_bound(analysis, dist, degree, ordering))


def split_cell(mesh, history, cell_id, direction, coord):
    """Split one cell of a mesh along a horizontal or vertical line strictly
    inside it, and build the mesh after the split.

    Existing edges met by the new segment's end points are re-fragmented by
    the rebuild; the history (when given) records the elementary event.
    """
    event = SplitEvent(cell_id, direction, as_fraction(coord))
    rects = mesh.cell_rects()
    coord, lo, hi = _split(rects, event)
    mesh = build_mesh(rects)
    segment = _segment(mesh, (direction, coord), lo, hi)
    if history is not None:
        history.events.append(event)
    return SplitOutcome(mesh, segment, _classify(segment.interior, segment.hi - segment.lo, hi - lo))


def weighted_split_by_meshes(mesh, history, cell_id, direction, coord, smoothness, degree, k, kp):
    """``hierarchy.weighted_split`` with a mesh, weighing each hop on a
    built and analysed mesh: the constant distribution bound to it, the
    appearance ordering of the replay and ``segment_weight``."""
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
        mesh = build_mesh(state.rects)
        analysis = analyze_segments(mesh)
        segment = next(
            s for s in analysis.segments
            if s.direction == direction and s.coord == coord and s.lo <= lo and hi <= s.hi
        )
        if not segment.interior:
            break
        dist = constant_distribution(mesh, r, rp)
        ordering = state.ordering(analysis)
        if segment_weight(analysis, dist, degree, ordering, segment.id).weight >= threshold:
            break
        target = _extension_target(state.rects, (direction, coord), segment.hi if at_hi else segment.lo, at_hi)
        events.append(SplitEvent(target, direction, coord))
        at_hi = not at_hi
    history.events.extend(events)
    if not segment.interior:
        classification = BOUNDARY_REACHING
    elif segment.hi - segment.lo == inserted:
        classification = NEW_MIS
    else:
        classification = EXTENDED_MIS
    return SplitOutcome(mesh, segment, classification)
