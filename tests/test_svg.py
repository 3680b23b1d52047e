import hashlib
from fractions import Fraction as F

import pytest

import tsplinedim as t
from tsplinedim.svg import render_svg

from meshgen import EX51_CELLS, ex11_mesh, ex19, pinwheel_mesh


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


def test_a_coordinate_below_float_resolution_is_named():
    # float() takes 1/10**400 to 0.0: next to a line at 0 it would be drawn
    # on top of it, and alone it draws.
    tiny = F(1, 10**400)
    with pytest.raises(t.CoordinateOutOfRange) as info:
        render_svg(t.build_mesh([(0, 0, tiny, 1), (tiny, 0, 1, 1)]))
    assert str(info.value) == f"node lines x=0 and x={tiny} both print as 0"
    assert render_svg(t.build_mesh([(tiny, 0, 1, 1)])).count("<rect") == 1


@pytest.mark.parametrize(
    "cells, message",
    [
        # 6 significant digits: knots a millionth apart collapse.
        ([(10**6, 0, 10**6 + 1, 1), (10**6 + 1, 0, 10**6 + 2, 1)],
         "node lines x=1000000 and x=1000001 both print as 1e+06"),
        ([(0, 10**6, 1, 10**6 + 1), (0, 10**6 + 1, 1, 10**6 + 2)],
         "node lines y=1000000 and y=1000001 both print as 1e+06"),
        # The tiny-steps mesh: every line prints as 0.
        ([tuple(v * F(1, 10**400) for v in cell) for cell in EX51_CELLS],
         f"node lines x=0 and x={F(1, 10**400)} both print as 0"),
    ],
    ids=["x-knots", "y-knots", "tiny-steps"],
)
def test_node_lines_that_print_alike_are_named(cells, message):
    with pytest.raises(t.CoordinateOutOfRange) as info:
        render_svg(t.build_mesh(cells))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ex11", "34e09b5ee977dafadb31825ebabba6e9b9bcce8f0c286d011636e06cb23d0308"),
        ("ex19", "a87709889656be1f1864ff2d1298fb4c5db933d4535c90605f107765aab3ab85"),
        ("pinwheel", "c3db38159fbae3fcd5fda9e89ad121fa6b4f0409e9436783e0006641c3e4230d"),
        ("ex51-thirds", "faa60f8581d3d5da8e7a1e408513dcb87a47ebc67d027ee285fe87cb1703ed57"),
    ],
)
def test_svg_bytes_pinned(name, digest):
    # Meshes whose lines print apart render byte for byte as they always did.
    meshes = {
        "ex11": ex11_mesh,
        "ex19": lambda: ex19()[0],
        "pinwheel": pinwheel_mesh,
        "ex51-thirds": lambda: t.build_mesh(
            [(F(a, 3) - F(7, 3), F(3 * b, 7), F(c, 3) - F(7, 3), F(3 * d, 7)) for a, b, c, d in EX51_CELLS]
        ),
    }
    assert hashlib.sha256(render_svg(meshes[name]()).encode()).hexdigest() == digest
