"""Exception types raised by the mesh, refinement and dimension machinery."""


class MeshError(Exception):
    """Base class for all domain-specific errors."""


class DegenerateCell(MeshError, ValueError):
    """A cell has zero width or height, or the cell list is empty.

    Also a ValueError, like the other refusals of a bad coordinate.
    """


class OverlappingCells(MeshError):
    """Two input rectangles have intersecting interiors."""


class DisconnectedDomain(MeshError):
    """The cell union is not edge-connected."""


class DomainNotSimplyConnected(MeshError):
    """The cell union has a hole (Euler count or boundary walk failed)."""


class DanglingGeometry(MeshError):
    """Inconsistent incidence detected while assembling the mesh."""


class UnknownNode(MeshError):
    """A smoothness value was requested or set for a coordinate that is not a node."""


class UnknownCell(MeshError):
    """A split referenced a cell id that does not exist."""


class CoordinateOnCellBoundary(MeshError):
    """A split coordinate does not lie strictly inside the cell."""


class HistoryMismatch(MeshError):
    """A subdivision history does not replay to the mesh it was paired with."""


class NonConstantSmoothness(MeshError):
    """The weighted subdivision rule was asked to run under per-line smoothness."""


class CoordinateOutOfRange(MeshError):
    """A coordinate is too large to draw: SVG numbers are floats."""


class DuplicatePoints(MeshError):
    """Shifted-power points must be pairwise distinct."""


class DegreeOutOfRange(MeshError):
    """A shifted-power exponent exceeds the ambient degree."""


class FormatError(MeshError):
    """Base class for text-format errors; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TmeshSyntaxError(FormatError):
    """Malformed line in a tmesh/tsub file."""


class UnknownDirective(FormatError):
    """Line starts with a directive the format does not define."""


class BadRational(FormatError):
    """A token could not be parsed as an integer, decimal or p/q rational."""
