"""Closed-form dimension results: the combinatorial term, shifted-power
dimension counts, defect bounds, exactness certificates and the final report."""

from typing import NamedTuple

from .errors import DegreeOutOfRange, DuplicatePoints
from .hierarchy import appearance_ordering
from .segments import Ordering, analyze_segments, default_ordering
from .smoothness import _factor

SEARCH_LIMIT = 14  # exact ordering minimization up to this many interior segments

CERT_NO_MIS = "no-MIS"
CERT_WEIGHTED = "weighted"
CERT_SMALL_WEIGHTS = "small-weights-equality"
CERT_ORACLE = "oracle"
CERT_NONE = "none"


def apolar_dim(n, points):
    """Dimension of a sum of shifted-power multiple spaces in degree <= n.

    ``points`` lists (a_i, d_i) pairs; the span of all (u - a_i)^{d_i} times
    degree <= n - d_i polynomials has dimension min(n + 1, sum(n - d_i + 1)).
    """
    seen = set()
    total = 0
    for a, d in points:
        if a in seen:
            raise DuplicatePoints(f"point {a} repeated")
        seen.add(a)
        if not 0 <= d <= n:
            raise DegreeOutOfRange(f"exponent {d} outside [0, {n}]")
        total += n - d + 1
    if not points:
        return 0
    return min(n + 1, total)


def combinatorial_term(mesh, dist, degree):
    """Alternating sum of quotient dimensions over cells, interior edges and
    interior vertices; the topology-only part of the spline space dimension.

    Each term is ``quotient_dims`` of its face.  It depends only on the node
    lines through the face, so each line's truncated factor is read once and
    the faces are summed through the mesh's line indices.
    """
    m, n = degree
    across_x = [_factor(r, m) for r in dist.orders_x]
    across_y = [_factor(r, n) for r in dist.orders_y]
    total = len(mesh.cells) * (m + 1) * (n + 1)
    edges, edge_line = mesh.edges, mesh.edge_line
    for eid in mesh.interior_edges:
        if edges[eid].horizontal:
            total -= (m + 1) * across_y[edge_line[eid]]
        else:
            total -= across_x[edge_line[eid]] * (n + 1)
    xline, yline = mesh.vertex_xline, mesh.vertex_yline
    for vid in mesh.interior_vertices:
        total += across_x[xline[vid]] * across_y[yline[vid]]
    return total


class SegmentContribution(NamedTuple):
    segment: int
    weight: int
    contribution: int
    counted: tuple[int, ...]  # counted vertices: on no higher-ranked interior segment
    capacity: int  # m + 1 (horizontal) or n + 1 (vertical), as in _weight_table


class DefectBound(NamedTuple):
    total: int
    per_segment: tuple[SegmentContribution, ...]


def _weight_table(analysis, dist, degree):
    """The ordering-free part of every interior segment's weight and share.

    Under an ordering, the weight of a horizontal interior segment sums
    (m - r)_+ over its counted vertices, r the order of the vertical line
    through the vertex, and its share of the defect bound is
    (m + 1 - weight)_+ times (n - r)_+, r the order of its own line; a
    vertical segment mirrors this.  So each segment is listed, in
    ``analysis.mis`` order, as (sid, capacity, factor, vertices): capacity
    m + 1 (n + 1), factor (n - r)_+ ((m - r)_+), and per vertex (vid, the
    other interior segment through it or None, the crossing line's share).
    A vertex is counted unless that other segment ranks higher.  Each node
    line's order is read once.
    """
    if not analysis.mis:
        return []
    m, n = degree
    mesh = analysis.mesh
    share_x = [max(0, m - r) for r in dist.orders_x]
    share_y = [max(0, n - r) for r in dist.orders_y]
    xline, yline = mesh.vertex_xline, mesh.vertex_yline
    table = []
    for sid in analysis.mis:
        seg = analysis.segments[sid]
        if seg.horizontal:
            capacity, factor = m + 1, share_y[yline[seg.vertices[0]]]
            across, shares = xline, share_x
        else:
            capacity, factor = n + 1, share_x[xline[seg.vertices[0]]]
            across, shares = yline, share_y
        vertices = []
        for vid in seg.vertices:
            other = next((o for o in analysis.interior_segments_at(vid) if o != sid), None)
            vertices.append((vid, other, shares[across[vid]]))
        table.append((sid, capacity, factor, vertices))
    return table


def h_upper_bound(analysis, dist, degree, ordering):
    """Upper bound for the homology defect under a fixed segment ordering."""
    rank = ordering.index
    parts = []
    total = 0
    for sid, capacity, factor, vertices in _weight_table(analysis, dist, degree):
        own = rank[sid]
        counted = [(vid, share) for vid, other, share in vertices if other is None or rank[other] < own]
        weight = sum(share for _, share in counted)
        contribution = max(0, capacity - weight) * factor
        parts.append(SegmentContribution(sid, weight, contribution, tuple(vid for vid, _ in counted), capacity))
        total += contribution
    return DefectBound(total, tuple(parts))


def search_ordering(analysis, dist, degree):
    """Minimize the defect bound over all segment orderings.

    Only attempted when there are at most SEARCH_LIMIT interior segments (the
    bound is valid for every ordering, so the minimum is the sharpest
    certified value).  Returns the lexicographically smallest minimizer.

    A segment's weight depends only on the set of segments ranked above it,
    so this is a dynamic program over subsets, O(2^k k) for k segments:
    ``best[placed]`` is the smallest total contribution of the segments in
    the bitmask ``placed`` when they hold the highest ranks.
    """
    if len(analysis.mis) > SEARCH_LIMIT:
        return None
    mis = analysis.mis  # ascending segment ids
    bit = {sid: 1 << i for i, sid in enumerate(mis)}
    # Per segment: the mask of the segments sharing one of its vertices, and
    # its contribution for every set of those that can rank above it.
    costs = []
    for _, capacity, factor, vertices in _weight_table(analysis, dist, degree):
        masks = [(0 if other is None else bit[other], share) for _, other, share in vertices]
        near = 0
        for mask, _ in masks:
            near |= mask
        table = {}
        above = near
        while True:  # every submask of near, near itself first
            weight = sum(share for mask, share in masks if not mask & above)
            table[above] = max(0, capacity - weight) * factor
            if not above:
                break
            above = (above - 1) & near
        costs.append((near, table))

    full = (1 << len(mis)) - 1
    best = [0] * (full + 1)

    def totals(placed):
        """(total, i) for each segment i in ``placed`` taking the lowest rank
        of the set, below the others."""
        for i, (near, table) in enumerate(costs):
            if placed >> i & 1:
                above = placed ^ 1 << i
                yield best[above] + table[above & near], i

    for placed in range(1, full + 1):
        best[placed] = min(totals(placed))[0]
    # Fill ranks from the bottom, each time with the smallest segment that
    # still reaches the minimum: the lexicographically smallest minimizer.
    order = []
    placed = full
    while placed:
        i = next(i for total, i in totals(placed) if total == best[placed])
        order.append(mis[i])
        placed ^= 1 << i
    return Ordering({sid: rank for rank, sid in enumerate(order, 1)}, "search")


class Certificate(NamedTuple):
    name: str
    h: int | None  # exact defect when the certificate pins it


def _certificate(bound):
    """Strongest applicable exactness statement for the defect, read from
    the segment weights and capacities already held in ``bound``.

    In order: no interior segments; (m+1, n+1)-weighted, every weight at
    least its capacity; every weight at most its capacity, so the bound is
    attained.  Otherwise "none".

    The paper's hierarchical result needs no certificate of its own: on a
    mesh built by a split history, under constant smoothness (r, r') with
    m >= 2r+1 and n >= 2r'+1, the appearance ordering makes ``weighted``
    fire.  Let sigma be an interior segment and e its birth, the first event
    whose edge lies in sigma.  That edge crosses the cell e split, so each
    of its two ends p lies strictly inside a side of that cell, and that
    side is initial boundary or made of spans inserted before e.  So the
    segment across sigma at p is not interior, or was born before e and
    ranks below sigma; no other segment passes through p, so p is counted.
    The weight of sigma is then at least 2(m - r) >= m + 1 (horizontal) or
    2(n - r') >= n + 1 (vertical).  ``--ordering search`` replaces that
    ordering only by one whose bound is strictly below 0, and there is none.
    """
    if not bound.per_segment:
        return Certificate(CERT_NO_MIS, 0)
    excess = [p.weight - p.capacity for p in bound.per_segment]
    if all(e >= 0 for e in excess):
        return Certificate(CERT_WEIGHTED, 0)
    if all(e <= 0 for e in excess):
        return Certificate(CERT_SMALL_WEIGHTS, bound.total)
    return Certificate(CERT_NONE, None)


class DimensionReport(NamedTuple):
    combinatorial: int
    h_lower: int
    h_upper: int
    dim_lower: int
    dim_upper: int
    certificate: str
    ordering: dict[int, int]
    ordering_source: str
    per_segment: tuple[SegmentContribution, ...]
    dim_exact: int | None = None
    h_exact: int | None = None

    def to_json_dict(self):
        payload = {
            "combinatorial": self.combinatorial,
            "h_lower": self.h_lower,
            "h_upper": self.h_upper,
            "dim_lower": self.dim_lower,
            "dim_upper": self.dim_upper,
            "certificate": self.certificate,
            "ordering": {str(sid): rank for sid, rank in sorted(self.ordering.items())},
            "per_mis": [
                {"id": p.segment, "omega": p.weight, "contribution": p.contribution}
                for p in self.per_segment
            ],
        }
        if self.dim_exact is not None:
            payload["dim"] = self.dim_exact
            payload["h"] = self.h_exact
        return payload


def _choose_ordering(analysis, dist, degree, ordering_policy, history):
    """The ordering a report uses, with its defect bound.

    "auto" takes the appearance order when a history is given, else the
    blocking-topological order; "search" takes the search result instead
    only when its bound is strictly smaller.
    """
    ordering = default_ordering(analysis) if history is None else appearance_ordering(history, analysis)
    bound = h_upper_bound(analysis, dist, degree, ordering)
    if ordering_policy == "search":
        found = search_ordering(analysis, dist, degree)
        if found is not None:
            found_bound = h_upper_bound(analysis, dist, degree, found)
            if found_bound.total < bound.total:
                return found, found_bound
    elif ordering_policy != "auto":
        raise ValueError(f"unknown ordering policy {ordering_policy!r}")
    return ordering, bound


def dimension_bounds(mesh, dist, degree, ordering_policy="auto", history=None, analysis=None):
    """Combinatorial term plus certified defect interval for one spline space.

    ordering_policy "auto" takes the appearance order when a history is
    given, else the blocking-topological order; "search" additionally
    minimizes the bound over all orderings when few segments are present.
    """
    if analysis is None:
        analysis = analyze_segments(mesh)
    ordering, bound = _choose_ordering(analysis, dist, degree, ordering_policy, history)
    term = combinatorial_term(mesh, dist, degree)
    certificate = _certificate(bound)
    if certificate.h is not None:
        h_lo = h_hi = certificate.h
    else:
        h_lo, h_hi = 0, bound.total
    return DimensionReport(
        combinatorial=term,
        h_lower=h_lo,
        h_upper=h_hi,
        dim_lower=term + h_lo,
        dim_upper=term + h_hi,
        certificate=certificate.name,
        ordering=dict(ordering.index),
        ordering_source=ordering.source,
        per_segment=bound.per_segment,
    )
