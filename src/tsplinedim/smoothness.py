"""Smoothness distributions on mesh nodes and the induced quotient dimensions.

A distribution assigns a continuity order to every node line.  It is entered
as ``r_h`` (one order per vertical node line x, the continuity in s across
it) and ``r_v`` (one per horizontal node line y), and kept as ``orders_x``
and ``orders_y``, int tuples aligned with ``mesh.nodes_x`` and
``mesh.nodes_y``, which the engine indexes with the mesh's line indices.
``order(direction, coord)`` is the lookup by coordinate: the order across
the line of that direction (``"h"`` or ``"v"``) at that coordinate.  Values
larger than the degree are legal; every dimension formula truncates with
``min`` so the constraint simply saturates.
"""

import operator
from bisect import bisect_left
from typing import NamedTuple

from .errors import UnknownNode
from .mesh import HORIZONTAL, VERTICAL, Cell, Edge, Vertex, as_fraction


class SmoothnessDistribution:
    def __init__(self, mesh, r_h, r_v):
        # A vertical line at x carries r_h(x); a horizontal line at y, r_v(y).
        given = [{as_fraction(k): operator.index(r) for k, r in orders.items()} for orders in (r_h, r_v)]
        axes = list(zip("hv", given, (mesh.nodes_x, mesh.nodes_y)))
        columns = [tuple(map(orders.get, nodes)) for _, orders, nodes in axes]
        for (name, orders, nodes), column in zip(axes, columns):
            if len(orders) > len(column) - column.count(None):  # a key on no node line
                known = set(nodes)
                extra = next(k for k in orders if k not in known)
                raise UnknownNode(f"smooth {name} {extra}: not a node of the mesh")
        for (_, _, nodes), column, line in zip(axes, columns, ("vertical node line x", "horizontal node line y")):
            if None in column:
                raise UnknownNode(f"missing smoothness for {line}={nodes[column.index(None)]}")
        self.orders_x, self.orders_y = columns
        if any(r < 0 for r in self.orders_x + self.orders_y):
            raise ValueError("smoothness orders must be nonnegative")
        self._lines = {VERTICAL: (mesh.nodes_x, self.orders_x), HORIZONTAL: (mesh.nodes_y, self.orders_y)}

    def order(self, direction, coord):
        """Continuity order across the ``direction`` line at ``coord``.

        ``coord`` is an int or a Fraction, the y of a horizontal line or the
        x of a vertical one; it is found, without coercion, by bisection in
        the mesh's sorted node lines of that axis.
        """
        if isinstance(coord, float):
            raise TypeError(f"coordinate {coord!r} is a float; pass an int or a Fraction")
        nodes, orders = self._lines.get(direction, ((), ()))
        i = bisect_left(nodes, coord)
        if i < len(nodes) and nodes[i] == coord:
            return orders[i]
        raise UnknownNode(f"no {direction} node line at {coord}")

    def is_constant(self):
        hs, vs = set(self.orders_x), set(self.orders_y)
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
