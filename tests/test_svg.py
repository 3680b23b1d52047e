from fractions import Fraction as F

import pytest

import tsplinedim as t
from tsplinedim.svg import render_svg

from meshgen import ex11_mesh, ex19


def test_single_cell_svg():
    mesh = t.build_mesh([(0, 0, 1, 1)])
    text = render_svg(mesh)
    assert text.count("<rect") == 1
    assert text.count('class="mis"') == 0
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_interior_segments_highlighted():
    mesh, _ = ex19()
    text = render_svg(mesh)
    assert text.count('class="mis"') == 4
    assert text.count("<rect") == len(mesh.cells)
    # one marker per vertex, one line per edge
    assert text.count("<circle") == len(mesh.vertices)
    assert text.count("<line") == len(mesh.edges) + 4


def test_svg_deterministic():
    mesh = ex11_mesh()
    assert render_svg(mesh) == render_svg(mesh)
    rebuilt = t.build_mesh(list(reversed([c.rect for c in mesh.cells])))
    assert render_svg(rebuilt) == render_svg(mesh)


@pytest.mark.parametrize("far", [10**400, -(10**400), F(10**800, 3)])
def test_a_coordinate_beyond_float_range_is_named(far):
    cells = [(0, 0, far, 1)] if far > 0 else [(far, 0, 0, 1)]
    with pytest.raises(t.CoordinateOutOfRange) as info:
        render_svg(t.build_mesh(cells))
    assert str(info.value) == f"coordinate {far} is beyond float range"


def test_a_coordinate_below_float_resolution_draws():
    tiny = F(1, 10**400)
    text = render_svg(t.build_mesh([(0, 0, tiny, 1), (tiny, 0, 1, 1)]))
    assert text.count("<rect") == 2
