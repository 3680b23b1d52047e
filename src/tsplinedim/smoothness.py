"""Smoothness distributions on mesh nodes and the induced quotient dimensions.

A distribution assigns a continuity order to every node line.  It is entered
as ``r_h`` (one order per vertical node line x, the continuity in s across
it) and ``r_v`` (one per horizontal node line y), and read back through one
lookup, ``order(direction, coord)``: the order across the line of that
direction (``"h"`` or ``"v"``) at that coordinate.  Values larger than the
degree are legal; every dimension formula truncates with ``min`` so the
constraint simply saturates.
"""

import operator
from typing import NamedTuple

from .errors import UnknownNode
from .mesh import HORIZONTAL, VERTICAL, Cell, Edge, Vertex, as_fraction


class SmoothnessDistribution:
    def __init__(self, mesh, r_h, r_v):
        # A vertical line at x carries r_h(x); a horizontal line at y, r_v(y).
        self._orders = {(VERTICAL, as_fraction(x)): operator.index(r) for x, r in r_h.items()}
        self._orders.update(((HORIZONTAL, as_fraction(y)), operator.index(r)) for y, r in r_v.items())
        for x in mesh.nodes_x:
            if (VERTICAL, x) not in self._orders:
                raise UnknownNode(f"missing smoothness for vertical node line x={x}")
        for y in mesh.nodes_y:
            if (HORIZONTAL, y) not in self._orders:
                raise UnknownNode(f"missing smoothness for horizontal node line y={y}")
        if any(r < 0 for r in self._orders.values()):
            raise ValueError("smoothness orders must be nonnegative")

    def order(self, direction, coord):
        """Continuity order across the ``direction`` line at ``coord``.

        ``coord`` is an int or a Fraction, the y of a horizontal line or the
        x of a vertical one; it is looked up as given, without coercion.
        """
        if isinstance(coord, float):
            raise TypeError(f"coordinate {coord!r} is a float; pass an int or a Fraction")
        try:
            return self._orders[direction, coord]
        except KeyError:
            raise UnknownNode(f"no {direction} node line at {coord}") from None

    def is_constant(self):
        hs = {r for (direction, _), r in self._orders.items() if direction == VERTICAL}
        vs = {r for (direction, _), r in self._orders.items() if direction == HORIZONTAL}
        if len(hs) == 1 and len(vs) == 1:
            return (hs.pop(), vs.pop())
        return None


class ConstantSmoothness(NamedTuple):
    """Mesh-independent constant smoothness, the same thing as an (r, r') pair.

    This is the form the weighted subdivision rule takes: the mesh changes
    after every extension hop, and with one order each way the weight of a
    segment needs no distribution bound to a mesh, only its counted
    vertices times (m - r)+ or (n - r')+.
    """

    r: int
    rp: int


def constant_distribution(mesh, r, rp):
    return SmoothnessDistribution(
        mesh,
        {x: r for x in mesh.nodes_x},
        {y: rp for y in mesh.nodes_y},
    )


def _factor(order, bound):
    """Dimension of degree-``bound`` univariate polynomials modulo the
    shifted power of ``order``: ``min(order, bound) + 1``, so an order at or
    above the degree saturates."""
    return min(order, bound) + 1


def quotient_dims(dist, degree, face):
    """Dimension of the degree-(m, n) polynomial space modulo the face constraint.

    Cells carry no constraint; edges quotient by one shifted power, vertices
    by two.  Every factor is min-truncated (``_factor``) so orders above the
    degree are handled exactly.
    """
    m, n = degree
    if isinstance(face, Cell):
        return (m + 1) * (n + 1)
    if isinstance(face, Edge):
        r = dist.order(face.direction, face.coord)
        if face.horizontal:
            return (m + 1) * _factor(r, n)
        return _factor(r, m) * (n + 1)
    if isinstance(face, Vertex):
        return _factor(dist.order(VERTICAL, face.x), m) * _factor(dist.order(HORIZONTAL, face.y), n)
    raise TypeError(f"not a mesh face: {face!r}")
