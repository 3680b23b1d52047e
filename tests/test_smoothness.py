import pytest
from fractions import Fraction as F

import tsplinedim as t
from tsplinedim.errors import UnknownNode

from meshgen import ex11_mesh, ex51_mesh, vertex_at


@pytest.fixture(scope="module")
def staircase():
    return ex11_mesh()


def ex12_distribution(mesh):
    """Constant vertical smoothness 1; horizontal smoothness 1 except order 0
    across the line x=2."""
    r_h = {x: 1 for x in mesh.nodes_x}
    r_h[F(2)] = 0
    return t.SmoothnessDistribution(mesh, r_h, {y: 1 for y in mesh.nodes_y})


def test_constant_distribution(staircase):
    dist = t.constant_distribution(staircase, 1, 1)
    assert all(dist.order("v", x) == 1 for x in staircase.nodes_x)
    assert all(dist.order("h", y) == 1 for y in staircase.nodes_y)
    assert dist.is_constant() == (1, 1)
    c0 = t.constant_distribution(staircase, 0, 0)
    assert c0.is_constant() == (0, 0)


def test_per_node_distribution(staircase):
    dist = ex12_distribution(staircase)
    assert dist.order("v", 2) == 0
    assert dist.order("v", F(1)) == 1
    assert dist.order("h", 2) == 1
    assert dist.is_constant() is None


def test_missing_node_rejected(staircase):
    with pytest.raises(UnknownNode):
        t.SmoothnessDistribution(staircase, {F(0): 1}, {y: 1 for y in staircase.nodes_y})
    dist = t.constant_distribution(staircase, 1, 1)
    with pytest.raises(UnknownNode):
        dist.order("v", F(7, 2))


def test_order_of_a_non_node_or_a_float_is_refused(staircase):
    dist = ex12_distribution(staircase)
    with pytest.raises(UnknownNode):
        dist.order("h", F(1, 3))
    # x=5 is a vertical node line but not a horizontal one
    assert 5 in staircase.nodes_x and 5 not in staircase.nodes_y
    assert dist.order("v", 5) == 1
    with pytest.raises(UnknownNode):
        dist.order("h", 5)
    with pytest.raises(TypeError):
        dist.order("v", 2.0)


def test_fractional_order_rejected(staircase):
    r_h = {x: 1 for x in staircase.nodes_x}
    r_h[F(2)] = 1.5
    with pytest.raises(TypeError):
        t.SmoothnessDistribution(staircase, r_h, {y: 1 for y in staircase.nodes_y})


def test_edge_order(staircase):
    dist = t.constant_distribution(staircase, 1, 1)
    vertical = next(e for e in staircase.edges if e.direction == "v" and e.interior)
    assert dist.order(vertical.direction, vertical.coord) == 1

    ex12 = ex12_distribution(staircase)
    at_two = next(
        e for e in staircase.edges if e.direction == "v" and e.coord == 2 and e.interior
    )
    assert ex12.order(at_two.direction, at_two.coord) == 0

    dist21 = t.constant_distribution(staircase, 2, 1)
    horizontal = next(e for e in staircase.edges if e.direction == "h" and e.interior)
    assert dist21.order(horizontal.direction, horizontal.coord) == 1


def test_vertex_orders(staircase):
    dist = t.constant_distribution(staircase, 1, 1)
    v = staircase.vertices[vertex_at(staircase, 2, 2)]
    assert (dist.order("v", v.x), dist.order("h", v.y)) == (1, 1)
    ex12 = ex12_distribution(staircase)
    assert (ex12.order("v", v.x), ex12.order("h", v.y)) == (0, 1)
    dist20 = t.constant_distribution(staircase, 2, 0)
    assert (dist20.order("v", v.x), dist20.order("h", v.y)) == (2, 0)


def test_quotient_dims(staircase):
    deg = (2, 2)
    dist = t.constant_distribution(staircase, 1, 1)
    assert t.quotient_dims(dist, deg, staircase.cells[0]) == 9
    vertical = next(e for e in staircase.edges if e.direction == "v" and e.interior)
    assert t.quotient_dims(dist, deg, vertical) == 2 * 3
    # truncation: orders above the degree saturate
    dist5 = t.constant_distribution(staircase, 5, 1)
    v = staircase.vertices[vertex_at(staircase, 2, 2)]
    assert t.quotient_dims(dist5, deg, v) == 3 * 2
    assert t.quotient_dims(dist5, deg, vertical) == 3 * 3


def test_quotient_dim_monotone_in_order():
    mesh = ex51_mesh()
    deg = m, n = 3, 2
    edge = next(e for e in mesh.edges if e.interior and e.direction == "v")
    previous = None
    for r in range(6):
        dist = t.constant_distribution(mesh, r, r)
        value = (m + 1) * (n + 1) - t.quotient_dims(dist, deg, edge)
        # ideal dimension shrinks as the order grows
        if previous is not None:
            assert value <= previous
        previous = value


def test_collinear_edges_share_smoothness(staircase):
    dist = ex12_distribution(staircase)
    by_line = {}
    for e in staircase.edges:
        if e.interior:
            by_line.setdefault((e.direction, e.coord), []).append(e)
    for group in by_line.values():
        values = {dist.order(e.direction, e.coord) for e in group}
        assert len(values) == 1


def test_orders_on_lines_the_mesh_does_not_have_are_refused():
    # x = 7 is no node line of this strip: its order would be stored but
    # never read, and is_constant would see two orders across x.
    strip = t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    with pytest.raises(UnknownNode, match=r"^smooth h 7: not a node of the mesh$"):
        t.SmoothnessDistribution(strip, {0: 1, 1: 1, 2: 1, 7: 0}, {0: 1, 1: 1})
    with pytest.raises(UnknownNode, match=r"^smooth v 1/2: not a node of the mesh$"):
        t.SmoothnessDistribution(strip, {0: 1, 1: 1, 2: 1}, {0: 1, F(1, 2): 1, 1: 1})
    dist = t.SmoothnessDistribution(strip, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1})
    assert dist.is_constant() == (1, 1)
    with pytest.raises(UnknownNode):
        dist.order("v", 7)


def test_the_first_error_is_an_extra_h_line_then_an_extra_v_line_then_a_missing_line():
    # The order in which document_smoothness has always reported a bad file.
    strip = t.build_mesh([(0, 0, 1, 1), (1, 0, 2, 1)])
    full_h, full_v = {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}
    cases = [
        ({**full_h, 9: 1, 8: 1}, {1: -1, 5: 1}, UnknownNode, "smooth h 9: not a node of the mesh"),
        ({1: -1}, {**full_v, F(-1, 2): 1}, UnknownNode, "smooth v -1/2: not a node of the mesh"),
        ({0: 1, 2: -1}, {1: 1}, UnknownNode, "missing smoothness for vertical node line x=1"),
        ({**full_h, 1: -1}, {1: 1}, UnknownNode, "missing smoothness for horizontal node line y=0"),
        ({**full_h, 1: -1}, full_v, ValueError, "smoothness orders must be nonnegative"),
    ]
    for r_h, r_v, error, message in cases:
        with pytest.raises(error) as caught:
            t.SmoothnessDistribution(strip, r_h, r_v)
        assert str(caught.value) == message


def test_the_orders_are_aligned_with_the_node_lines(staircase):
    dist = ex12_distribution(staircase)
    assert len(dist.orders_x) == len(staircase.nodes_x) and len(dist.orders_y) == len(staircase.nodes_y)
    assert dist.orders_x == tuple(dist.order("v", x) for x in staircase.nodes_x)
    assert dist.orders_y == tuple(dist.order("h", y) for y in staircase.nodes_y)
    assert dist.orders_x[staircase.nodes_x.index(2)] == 0
