"""Exact dimension engine for bivariate spline spaces on planar T-meshes.

Two independent routes to every dimension: combinatorial formulas with
certified defect bounds, and a brute-force exact-rational linear-algebra
oracle over the smoothness constraint system.  A hierarchical subdivision
engine implements the weighted refinement rule that makes the two coincide.
"""

from .dimension import (
    CERT_NO_MIS,
    CERT_NONE,
    CERT_ORACLE,
    CERT_SMALL_WEIGHTS,
    CERT_WEIGHTED,
    DimensionReport,
    apolar_dim,
    combinatorial_term,
    dimension_bounds,
    h_upper_bound,
    search_ordering,
)
from .errors import (
    BadRational,
    CoordinateOnCellBoundary,
    CoordinateOutOfRange,
    DanglingGeometry,
    DegenerateCell,
    DegreeOutOfRange,
    DisconnectedDomain,
    DomainNotSimplyConnected,
    DuplicatePoints,
    HistoryMismatch,
    MeshError,
    NonConstantSmoothness,
    OverlappingCells,
    TmeshSyntaxError,
    UnknownCell,
    UnknownDirective,
    UnknownNode,
)
from .formats import (
    MeshDocument,
    apply_history,
    document_mesh,
    document_smoothness,
    format_rational,
    format_tmesh,
    format_tsub,
    parse_tmesh,
    parse_tsub,
)
from .hierarchy import (
    BOUNDARY_REACHING,
    EXTENDED_MIS,
    NEW_MIS,
    SplitEvent,
    SplitOutcome,
    SubdivisionHistory,
    appearance_ordering,
    initial_mesh,
    weighted_split,
)
from .linalg import SparseRationalMatrix, rational_rank
from .mesh import (
    Cell,
    Edge,
    FaceCounts,
    TMesh,
    Vertex,
    build_mesh,
    check_counting_identities,
    is_rectangular_domain,
    stats,
)
from .oracle import (
    build_spline_system,
    h_exact,
    h_via_h0,
    h_via_mis_presentation,
    spline_dimension_exact,
)
from .segments import (
    MaxSegment,
    Ordering,
    SegmentAnalysis,
    analyze_segments,
    blocking,
    default_ordering,
)
from .smoothness import (
    ConstantSmoothness,
    SmoothnessDistribution,
    constant_distribution,
    quotient_dims,
)
from .svg import render_svg

__version__ = "0.1.0"
