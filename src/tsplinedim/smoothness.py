"""Smoothness distributions on mesh nodes and the induced quotient dimensions.

A distribution assigns a continuity order to every vertical node line (via
``r_h``) and every horizontal node line (via ``r_v``).  Values larger than
the degree are legal; every dimension formula truncates with ``min`` so the
constraint simply saturates.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import UnknownNode
from .mesh import Cell, Edge, Vertex, as_fraction


class Degree(NamedTuple):
    """Bidegree bound: ``m`` in s, ``n`` in t."""

    m: int
    n: int


class SmoothnessDistribution:
    def __init__(self, mesh, r_h, r_v):
        self.r_h = {as_fraction(k): operator.index(v) for k, v in r_h.items()}
        self.r_v = {as_fraction(k): operator.index(v) for k, v in r_v.items()}
        for x in mesh.nodes_x:
            if x not in self.r_h:
                raise UnknownNode(f"missing smoothness for vertical node line x={x}")
        for y in mesh.nodes_y:
            if y not in self.r_v:
                raise UnknownNode(f"missing smoothness for horizontal node line y={y}")
        if any(v < 0 for v in self.r_h.values()) or any(v < 0 for v in self.r_v.values()):
            raise ValueError("smoothness orders must be nonnegative")

    def horizontal_order(self, x):
        """r_h at abscissa x (continuity across the vertical line there)."""
        x = as_fraction(x)
        if x not in self.r_h:
            raise UnknownNode(f"x={x} is not a node")
        return self.r_h[x]

    def vertical_order(self, y):
        y = as_fraction(y)
        if y not in self.r_v:
            raise UnknownNode(f"y={y} is not a node")
        return self.r_v[y]

    def is_constant(self):
        hs = set(self.r_h.values())
        vs = set(self.r_v.values())
        if len(hs) == 1 and len(vs) == 1:
            return (hs.pop(), vs.pop())
        return None


class ConstantSmoothness(NamedTuple):
    """Mesh-independent constant smoothness, the same thing as an (r, r') pair.

    This is the form the weighted subdivision rule takes: the mesh changes
    after every extension hop, so each hop builds a fresh
    ``constant_distribution`` from it.
    """

    r: int
    rp: int


def constant_distribution(mesh, r, rp):
    if r < 0 or rp < 0:
        raise ValueError("smoothness orders must be nonnegative")
    return SmoothnessDistribution(
        mesh,
        {x: r for x in mesh.nodes_x},
        {y: rp for y in mesh.nodes_y},
    )


def edge_smoothness(dist, edge):
    """Continuity order r(tau) imposed across an edge."""
    if edge.horizontal:
        return dist.vertical_order(edge.coord)
    return dist.horizontal_order(edge.coord)


def edge_bidegree(dist, edge):
    """Bidegree of the edge constraint: (r+1, 0) vertical, (0, r+1) horizontal."""
    r = edge_smoothness(dist, edge)
    return (0, r + 1) if edge.horizontal else (r + 1, 0)


def vertex_orders(dist, vertex):
    return (dist.horizontal_order(vertex.x), dist.vertical_order(vertex.y))


def vertex_bidegree(dist, vertex):
    rh, rv = vertex_orders(dist, vertex)
    return (rh + 1, rv + 1)


def quotient_dims(dist, degree, face):
    """Dimension of the degree-(m, n) polynomial space modulo the face constraint.

    Cells carry no constraint; edges quotient by one shifted power, vertices
    by two.  Every factor is min-truncated so orders above the degree are
    handled exactly.
    """
    m, n = degree
    if isinstance(face, Cell):
        return (m + 1) * (n + 1)
    if isinstance(face, Edge):
        r = edge_smoothness(dist, face)
        if face.horizontal:
            return (m + 1) * (min(r, n) + 1)
        return (min(r, m) + 1) * (n + 1)
    if isinstance(face, Vertex):
        rh, rv = vertex_orders(dist, face)
        return (min(rh, m) + 1) * (min(rv, n) + 1)
    raise TypeError(f"not a mesh face: {face!r}")
