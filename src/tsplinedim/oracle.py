"""Exact rational computations for spline space dimensions.

Everything here assembles constraint matrices over the rationals and reduces
dimension questions to exact ranks: the spline space itself as the kernel of
the smoothness-difference map, and the homology defect three independent
ways.  ``dim --exact`` prints the combinatorial term plus h.  When the
certified bounds already pin h (a certificate fired, or the upper bound is
0), it prints that value and ranks nothing.  Otherwise it ranks
``h_via_mis_presentation``, whose system has one block per interior segment
and one relation per interior vertex, built on lattice ints: h does not
change under x -> lambda x + mu on each axis, so the node lines of each axis
are scaled onto the integers from 0.  The kernel (``spline_dimension_exact``,
``h_exact``) and the vertex ideals (``h_via_h0``) keep the ``Fraction``
coordinates: the kernel is the definition of the space, and the tests check
the other routes and the combinatorial formulas against it.
"""

from math import comb

from .dimension import combinatorial_term
from .linalg import SparseRationalMatrix, rational_rank
from .mesh import lattice
from .segments import analyze_segments
from .smoothness import quotient_dims


def build_spline_system(mesh, dist, degree):
    """Constraint matrix whose kernel is the spline space.

    One column per (cell, monomial s^i t^j); for each interior edge the rows
    are the coefficients of the cell-difference in the shifted basis at the
    edge's supporting line, truncated to the smoothness order.  The sign
    convention takes the lower-id cell positively.  Entries are ints on
    integer lines and Fractions elsewhere.
    """
    m, n = degree
    block = (m + 1) * (n + 1)

    nrows = 0
    rows_per_edge = {}
    for eid in mesh.interior_edges:
        e = mesh.edges[eid]
        r = (dist.orders_y if e.horizontal else dist.orders_x)[mesh.edge_line[eid]]
        if e.horizontal:
            span = [(i, l) for i in range(m + 1) for l in range(min(r, n) + 1)]
        else:
            span = [(k, j) for k in range(min(r, m) + 1) for j in range(n + 1)]
        rows_per_edge[eid] = (nrows, span)
        nrows += len(span)

    matrix = SparseRationalMatrix(nrows, len(mesh.cells) * block)
    for eid in mesh.interior_edges:
        e = mesh.edges[eid]
        offset, span = rows_per_edge[eid]
        low, high = e.cells
        a = e.coord.numerator if e.coord.denominator == 1 else e.coord
        # u^j = (u - a + a)^j, so the coefficient of (u - a)^l in u^j is
        # entry l of (u + a)^j, that is of (u - (-a))^j.
        powers = [_shifted_power(-a, j) for j in range((n if e.horizontal else m) + 1)]
        # Each entry is written once: a row touches two different cells, and
        # inside one cell each j (or i) names a different monomial.
        for sign, cell in ((1, low), (-1, high)):
            base = cell * block
            if e.horizontal:
                # rows (i, l): coefficient of s^i (t-a)^l in the difference
                for pos, (i, l) in enumerate(span):
                    for j in range(l, n + 1):
                        matrix.set(offset + pos, base + i * (n + 1) + j, sign * powers[j][l])
            else:
                for pos, (k, j) in enumerate(span):
                    for i in range(k, m + 1):
                        matrix.set(offset + pos, base + i * (n + 1) + j, sign * powers[i][k])
    return matrix


def spline_dimension_exact(mesh, dist, degree):
    """dim of the spline space: columns minus rank of the constraint system."""
    system = build_spline_system(mesh, dist, degree)
    return system.ncols - rational_rank(system)


def h_exact(mesh, dist, degree):
    """Homology defect as (exact dimension) minus (combinatorial term)."""
    value = spline_dimension_exact(mesh, dist, degree) - combinatorial_term(mesh, dist, degree)
    if value < 0:
        raise RuntimeError(f"defect must be nonnegative, got {value}")
    return value


def _shifted_power(a, k):
    """Coefficients c[i] with (u - a)^k = sum c[i] u^i, ascending powers.

    Integer ``a`` gives ints and Fraction ``a`` gives Fractions.
    """
    return [comb(k, i) * (-a) ** (k - i) for i in range(k + 1)]


def h_via_h0(mesh, dist, degree):
    """Defect from the constraint-ideal complex at the vertex level.

    Dimension of the direct sum of vertex ideals minus the rank of the
    boundary map restricted to the edge ideals, all in ambient monomial
    coordinates (the image lies inside the vertex ideals automatically).
    """
    m, n = degree
    block = (m + 1) * (n + 1)

    interior_vs = list(mesh.interior_vertices)
    v_offset = {vid: i * block for i, vid in enumerate(interior_vs)}
    target_dim = sum(block - quotient_dims(dist, degree, mesh.vertices[vid]) for vid in interior_vs)

    columns = []
    for eid in mesh.interior_edges:
        e = mesh.edges[eid]
        a = e.coord
        r = (dist.orders_y if e.horizontal else dist.orders_x)[mesh.edge_line[eid]]
        if e.horizontal:
            basis = [(i, l) for l in range(r + 1, n + 1) for i in range(m + 1)]
        else:
            basis = [(k, j) for k in range(r + 1, m + 1) for j in range(n + 1)]
        for idx in basis:
            # monomial expansion of the ideal basis element
            mono = {}
            if e.horizontal:
                i, l = idx
                for j, c in enumerate(_shifted_power(a, l)):
                    mono[i * (n + 1) + j] = c
            else:
                k, j = idx
                for i, c in enumerate(_shifted_power(a, k)):
                    mono[i * (n + 1) + j] = c
            col = {}
            for sign, vid in ((-1, e.start), (1, e.end)):
                if not mesh.vertices[vid].interior:
                    continue
                base = v_offset[vid]
                for slot, c in mono.items():
                    col[base + slot] = col.get(base + slot, 0) + sign * c
            if col:
                columns.append(col)

    rank = rational_rank(columns)
    return target_dim - rank


def h_via_mis_presentation(mesh, dist, degree, analysis=None):
    """Defect from the interior-segment presentation.

    One free block per interior segment (polynomials of the complementary
    bidegree) modulo, for every interior vertex on at least one interior
    segment, the cross relation between its horizontal and vertical segment
    symbols; symbols of boundary-reaching segments are zero.  The relations
    are built on the lattice ints of the node lines (``_axis_ints``), so the
    rank sees int rows only.
    """
    m, n = degree
    if analysis is None:
        analysis = analyze_segments(mesh)

    xline, yline = mesh.vertex_xline, mesh.vertex_yline
    offsets = {}
    widths = {}
    total = 0
    for sid in analysis.mis:
        seg = analysis.segments[sid]
        if seg.horizontal:
            shape = (m + 1, max(0, n - dist.orders_y[yline[seg.vertices[0]]]))
        else:
            shape = (max(0, m - dist.orders_x[xline[seg.vertices[0]]]), n + 1)
        offsets[sid] = total
        widths[sid] = shape
        total += shape[0] * shape[1]

    xs, ys = _axis_ints(mesh.nodes_x), _axis_ints(mesh.nodes_y)
    rows = []
    for vid in mesh.interior_vertices:
        seg_h = analysis.segment_through(vid, "h")
        seg_v = analysis.segment_through(vid, "v")
        in_h = seg_h in offsets
        in_v = seg_v in offsets
        if not (in_h or in_v):
            continue
        rh = dist.orders_x[xline[vid]]
        rv = dist.orders_y[yline[vid]]
        qa, qb = m - rh - 1, n - rv - 1
        if qa < 0 or qb < 0:
            continue
        # [vertical segment] times (t - y)^{rv+1} s^alpha t^beta, minus
        # [horizontal segment] times (s - x)^{rh+1} s^alpha t^beta.  Each
        # term is (its column at alpha = beta = 0, the column step per
        # alpha, its coefficient); the two segments' blocks are disjoint.
        terms = []
        if in_v:
            base, height = offsets[seg_v], widths[seg_v][1]
            power = _shifted_power(ys[yline[vid]], rv + 1)
            terms += [(base + l, height, c) for l, c in enumerate(power) if c]
        if in_h:
            base, height = offsets[seg_h], widths[seg_h][1]
            power = _shifted_power(xs[xline[vid]], rh + 1)
            terms += [(base + i * height, height, -c) for i, c in enumerate(power) if c]
        for alpha in range(qa + 1):
            for beta in range(qb + 1):
                rows.append({col + alpha * step + beta: c for col, step, c in terms})

    return total - rational_rank(rows)


def _axis_ints(nodes):
    """The sorted node lines of one axis as ints from 0, an affine image of
    them that leaves h unchanged: their lattice, shifted to start at 0."""
    ints = lattice(nodes)
    return [v - ints[0] for v in ints]

