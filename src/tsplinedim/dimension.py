"""Closed-form dimension results: the combinatorial term, shifted-power
dimension counts, defect bounds, exactness certificates and the final report."""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegreeOutOfRange, DuplicatePoints
from .hierarchy import appearance_ordering
from .mesh import HORIZONTAL, VERTICAL
from .segments import (
    Ordering,
    _transversal_weight,
    analyze_segments,
    default_ordering,
    segment_weight,
)
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
    across_x = [_factor(dist.order(VERTICAL, x), m) for x in mesh.nodes_x]
    across_y = [_factor(dist.order(HORIZONTAL, y), n) for y in mesh.nodes_y]
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


class DefectBound(NamedTuple):
    total: int
    per_segment: tuple[SegmentContribution, ...]


def _contribution(seg, dist, degree, weight):
    """Defect-bound share of one interior segment of the given weight.

    A horizontal segment contributes (m + 1 - weight)_+ times the transversal
    factor (n - r)_+, with r the order of its supporting line, and
    symmetrically for a vertical segment.
    """
    m, n = degree
    r = dist.order(seg.direction, seg.coord)
    if seg.horizontal:
        return max(0, m + 1 - weight) * max(0, n - r)
    return max(0, m - r) * max(0, n + 1 - weight)


def h_upper_bound(analysis, dist, degree, ordering):
    """Upper bound for the homology defect under a fixed segment ordering."""
    parts = []
    total = 0
    for sid in analysis.mis:
        w = segment_weight(analysis, dist, degree, ordering, sid).weight
        contribution = _contribution(analysis.segments[sid], dist, degree, w)
        parts.append(SegmentContribution(sid, w, contribution))
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
    mis = sorted(analysis.mis)
    if len(mis) > SEARCH_LIMIT:
        return None
    bit = {sid: 1 << i for i, sid in enumerate(mis)}
    # Per segment: the mask of the segments sharing one of its vertices, and
    # its contribution for every set of those that can rank above it.
    costs = []
    for sid in mis:
        seg = analysis.segments[sid]
        vertices = []
        near = 0
        for vid in seg.vertices:
            mask = 0
            for other in analysis.interior_segments_at(vid):
                if other != sid:
                    mask |= bit[other]
            vertices.append((mask, _transversal_weight(analysis, dist, degree, seg, vid)))
            near |= mask
        table = {}
        above = near
        while True:  # every submask of near, near itself first
            weight = sum(w for mask, w in vertices if not mask & above)
            table[above] = _contribution(seg, dist, degree, weight)
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


def _certificate(analysis, degree, bound):
    """Strongest applicable exactness statement for the defect, read from
    the segment weights already held in ``bound``.

    In order: no interior segments; (m+1, n+1)-weighted; all weights small
    enough that the bound is attained.  Otherwise "none".

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
    m, n = degree
    if not analysis.mis:
        return Certificate(CERT_NO_MIS, 0)
    # A segment's weight against m + 1 (horizontal) or n + 1 (vertical).
    excess = [
        p.weight - (m + 1 if analysis.segments[p.segment].horizontal else n + 1)
        for p in bound.per_segment
    ]
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
    certificate = _certificate(analysis, degree, bound)
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
