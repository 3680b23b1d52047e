import hashlib
import json
import random
import sys

import pytest
from fractions import Fraction as F

import tsplinedim as t
from tsplinedim import oracle
from tsplinedim.cli import main
from tsplinedim.formats import document_mesh, document_smoothness, parse_tmesh

from meshgen import EX11_CELLS, EX51_CELLS, L_CELLS, PINWHEEL_CELLS, grid_cells


@pytest.fixture()
def ex51_file(tmp_path):
    lines = ["tmesh 1"] + [f"cell {a} {b} {c} {d}" for a, b, c, d in EX51_CELLS]
    path = tmp_path / "ex51.tmesh"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def ex11_file(tmp_path):
    lines = ["tmesh 1"] + [f"cell {a} {b} {c} {d}" for a, b, c, d in EX11_CELLS]
    path = tmp_path / "ex11.tmesh"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_dim_exact(ex51_file, capsys):
    code = main(["dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--exact"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dim 15" in out and "h 1" in out


def test_dim_json(ex51_file, capsys):
    code = main(["dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--exact", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["combinatorial"] == 14
    assert payload["dim"] == 15 and payload["h"] == 1
    assert payload["dim_lower"] == payload["dim_upper"] == 15
    assert payload["certificate"] == "small-weights-equality"
    assert payload["per_mis"] == [{"id": 0, "omega": 2, "contribution": 1}]


def test_dim_search_ordering(ex51_file, capsys):
    code = main(["dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--ordering", "search"])
    assert code == 0
    assert "dim bounds [15, 15]" in capsys.readouterr().out


def test_mis_and_dim_search_report_the_same_ordering(tmp_path, capsys):
    # Three interior segments; the search minimiser ties the blocking order's
    # bound, so the report keeps the blocking order, and so must mis.
    cells = [(0, 0, 64, 4), (0, 4, 36, 16), (36, 4, 48, 7), (48, 4, 64, 16),
             (36, 7, 48, 16), (0, 16, 16, 64), (16, 16, 64, 64)]
    path = tmp_path / "tie.tmesh"
    path.write_text("\n".join(["tmesh 1"] + [f"cell {a} {b} {c} {d}" for a, b, c, d in cells]) + "\n")
    args = [str(path), "-m", "2", "-n", "2", "--smooth", "1,1", "--ordering", "search", "--json"]
    assert main(["dim", *args]) == 0
    dim_ordering = json.loads(capsys.readouterr().out)["ordering"]
    assert main(["mis", *args]) == 0
    mis_ranks = {str(rec["id"]): rec["rank"] for rec in json.loads(capsys.readouterr().out)["mis"]}
    assert len(mis_ranks) == 3
    assert mis_ranks == dim_ordering


def test_validate_overlap(tmp_path, capsys):
    bad = tmp_path / "bad.tmesh"
    bad.write_text("tmesh 1\ncell 0 0 2 2\ncell 1 0 3 2\n")
    code = main(["validate", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "OverlappingCells" in out


def test_validate_ok_and_json(ex11_file, capsys):
    assert main(["validate", ex11_file]) == 0
    capsys.readouterr()
    assert main(["validate", ex11_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["f2"] == 7


def test_stats_json(ex11_file, capsys):
    code = main(["stats", ex11_file, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f2"] == 7 and payload["f1o"] == 9 and payload["f0o"] == 3
    assert payload["f0b"] == 15 and payload["corners"] == 12
    assert payload["identities"]["euler_ok"] is True


# Exact `stats`, `stats --json` and `validate --json` output: the text layout,
# the JSON key order (the FaceCounts fields, euler, then the IdentityReport
# fields) and every value.
_PINNED_COUNTS = {
    "ex11": (
        EX11_CELLS,
        'f2 7\nf1 24\nf1o 9\nf1h 4\nf1v 5\nf0 18\nf0o 3\n'
        'f0plus 1\nf0T 2\nf0b 15\ncorners 12\neuler 1\neuler_ok True\nnbf n/a\n',
        '{"f2": 7, "f1": 24, "f1o": 9, "f1h": 4, "f1v": 5, "f0": 18, "f0o": 3, "f0plus": 1, '
        '"f0T": 2, "f0b": 15, "corners": 12, "euler": 1, "identities": {"euler_ok": true, '
        '"rectangular": false, "nbf_f2_ok": null, "nbf_f1_ok": null, "nbf_f0_ok": null}}\n',
    ),
    "L": (
        L_CELLS,
        'f2 3\nf1 10\nf1o 2\nf1h 1\nf1v 1\nf0 8\nf0o 0\n'
        'f0plus 0\nf0T 0\nf0b 8\ncorners 6\neuler 1\neuler_ok True\nnbf n/a\n',
        '{"f2": 3, "f1": 10, "f1o": 2, "f1h": 1, "f1v": 1, "f0": 8, "f0o": 0, "f0plus": 0, '
        '"f0T": 0, "f0b": 8, "corners": 6, "euler": 1, "identities": {"euler_ok": true, '
        '"rectangular": false, "nbf_f2_ok": null, "nbf_f1_ok": null, "nbf_f0_ok": null}}\n',
    ),
    "grid3": (
        grid_cells(3, 3),
        'f2 9\nf1 24\nf1o 12\nf1h 6\nf1v 6\nf0 16\nf0o 4\n'
        'f0plus 4\nf0T 0\nf0b 12\ncorners 4\neuler 1\neuler_ok True\nnbf (True, True, True)\n',
        '{"f2": 9, "f1": 24, "f1o": 12, "f1h": 6, "f1v": 6, "f0": 16, "f0o": 4, "f0plus": 4, '
        '"f0T": 0, "f0b": 12, "corners": 4, "euler": 1, "identities": {"euler_ok": true, '
        '"rectangular": true, "nbf_f2_ok": true, "nbf_f1_ok": true, "nbf_f0_ok": true}}\n',
    ),
    "pinwheel": (
        PINWHEEL_CELLS,
        'f2 13\nf1 36\nf1o 24\nf1h 12\nf1v 12\nf0 24\nf0o 12\n'
        'f0plus 4\nf0T 8\nf0b 12\ncorners 4\neuler 1\neuler_ok True\nnbf (True, True, True)\n',
        '{"f2": 13, "f1": 36, "f1o": 24, "f1h": 12, "f1v": 12, "f0": 24, "f0o": 12, "f0plus": 4, '
        '"f0T": 8, "f0b": 12, "corners": 4, "euler": 1, "identities": {"euler_ok": true, '
        '"rectangular": true, "nbf_f2_ok": true, "nbf_f1_ok": true, "nbf_f0_ok": true}}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_COUNTS))
def test_counts_output_pinned(name, tmp_path, capsys):
    cells, text, payload = _PINNED_COUNTS[name]
    path = tmp_path / f"{name}.tmesh"
    path.write_text("tmesh 1\n" + "".join(f"cell {a} {b} {c} {d}\n" for a, b, c, d in cells))
    for argv, expected in (
        (["stats", str(path)], text),
        (["stats", str(path), "--json"], payload),
        (["validate", str(path), "--json"], '{"ok": true, ' + payload[1:]),
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


def test_usage_errors(ex51_file, capsys):
    assert main(["dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "bogus"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["dim", ex51_file, "-m", "2", "-n", "2"]) == 2  # no smoothness anywhere
    capsys.readouterr()


def test_mis_listing(ex51_file, capsys):
    code = main(["mis", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["mis"]) == 1
    record = payload["mis"][0]
    assert record["lambda"] == 2 and record["omega"] == 2
    assert record["direction"] == "h" and record["blocks"] == []


def test_dump_matrix(ex51_file, tmp_path, capsys):
    target = tmp_path / "system.txt"
    code = main([
        "dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--dump-matrix", str(target)
    ])
    assert code == 0
    text = target.read_text()
    assert text.startswith("30 36\n0 0 1/1\n")
    assert "\n12 10 1/2\n12 11 1/4\n" in text  # from the edges on y = 1/2
    # The whole file, 150 entries, as every version so far has written it.
    digest = "18805caf1046a86e6fd4d023106087c55b0201c9a2ef8cfd7ff97adadfc28938"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    capsys.readouterr()


def test_subdivide_roundtrip(tmp_path, capsys):
    hist = tmp_path / "h.tsub"
    hist.write_text("tsub 1\ninit 0 0 2 2\nsplit 0 v 1\nsplit 0 h 1/2\n")
    code = main(["subdivide", str(hist)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("tmesh 1")
    assert "cell 0 0 1 1/2" in out


def test_svg_command(ex11_file, capsys):
    code = main(["svg", ex11_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("<svg") and out.count("<rect") == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "{mesh}", "-m", "2", "-n", "-3", "--smooth", "1,1", "--exact"],
        ["mis", "{mesh}", "-m", "-1", "-n", "2", "--smooth", "1,1"],
        ["subdivide", "{history}", "-m", "-1", "-n", "2", "--smooth", "1,1", "--weighted", "3,3"],
        ["dim", "{mesh}", "-m", "2", "-n", "2", "--smooth=-1,-1"],
        ["subdivide", "{history}", "-m", "2", "-n", "2", "--smooth", "1,1", "--weighted=-1,3"],
    ],
)
def test_negative_degree_is_a_usage_error(argv, ex51_file, tmp_path, capsys):
    history = tmp_path / "h.tsub"
    history.write_text("tsub 1\ninit 0 0 2 2\nsplit 0 v 1\n")
    argv = [a.format(mesh=ex51_file, history=history) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "{mesh}", "-m", "\u0661", "-n", "2", "--smooth", "1,1"],
        ["mis", "{mesh}", "-m", "2", "-n", "2", "--smooth", "1_0,1"],
        ["subdivide", "{history}", "-m", "2", "-n", "1_0", "--smooth", "1,1", "--weighted", "3,3"],
        ["subdivide", "{history}", "-m", "2", "-n", "2", "--smooth", "1,1", "--weighted", "3,\uff13"],
    ],
)
def test_integer_flags_take_ascii_digits_only(argv, ex51_file, tmp_path, capsys):
    # int() alone reads "1_0" as 10 and any Unicode digit as its value.
    history = tmp_path / "h.tsub"
    history.write_text("tsub 1\ninit 0 0 2 2\nsplit 0 v 1\n")
    argv = [a.format(mesh=ex51_file, history=history) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_missing_history_file_is_a_usage_error(ex51_file, tmp_path, capsys):
    missing = tmp_path / "missing.tsub"
    argv = ["dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--history", str(missing)]
    assert main(argv) == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_non_utf8_input_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.tmesh"
    bad.write_bytes(b"tmesh 1\ncell 0 0 1 1\n# caf\xe9\n")
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot read {bad}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "{mesh}", "-m", "2", "-n", "2", "--smooth", "1,1", "--dump-matrix", "{target}"],
        ["subdivide", "{history}", "--emit-history", "{target}"],
    ],
)
def test_an_unwritable_output_path_is_a_usage_error(argv, ex51_file, tmp_path, capsys):
    history = tmp_path / "h.tsub"
    history.write_text("tsub 1\ninit 0 0 2 2\nsplit 0 v 1\n")
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        args = [a.format(mesh=ex51_file, history=history, target=target) for a in argv]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {target}: " in captured.err


def test_dump_matrix_with_exact_assembles_once(ex51_file, tmp_path, monkeypatch, capsys):
    calls = []
    build = oracle.build_spline_system

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "build_spline_system", counting)
    target = tmp_path / "system.txt"
    argv = ["dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--exact",
            "--dump-matrix", str(target)]
    assert main(argv) == 0
    assert len(calls) == 1
    assert "dim 15" in capsys.readouterr().out
    assert target.read_text().startswith("30 36\n")


@pytest.mark.parametrize("command", ["validate", "stats", "mis", "dim", "svg"])
def test_header_only_tmesh_is_a_syntax_error(command, tmp_path, capsys):
    path = tmp_path / "empty.tmesh"
    path.write_text("tmesh 1\ndefault-smooth 1 1  # but no cell\n")
    args = [str(path)] + (["-m", "2", "-n", "2"] if command in ("mis", "dim") else [])
    assert main([command, *args]) == 1
    assert capsys.readouterr().out.startswith("TmeshSyntaxError: no 'cell' line")
    if command != "svg":
        assert main([command, *args, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "TmeshSyntaxError"


def test_svg_takes_no_json_flag(ex11_file, capsys):
    assert main(["svg", ex11_file, "--json"]) == 2
    assert capsys.readouterr().out == ""


_FUZZ_COORDS = ("0", "1", "2", "3", "1/2", "3/2", "0", "1", "2", "-1", "1/0", "x", "0.5")
_FUZZ_INTS = ("0", "1", "2", "3", "1", "-1", "x")
_FUZZ_DIRECTIVES = {
    "tmesh": {
        "cell": (_FUZZ_COORDS,) * 4,
        "smooth": (("h", "v", "d"), _FUZZ_COORDS, _FUZZ_INTS),
        "default-smooth": (_FUZZ_INTS,) * 2,
    },
    "tsub": {
        "init": (_FUZZ_COORDS,) * 4,
        "split": (_FUZZ_INTS, ("h", "v", "d"), _FUZZ_COORDS),
        "wsplit": (_FUZZ_INTS, ("h", "v", "d"), _FUZZ_COORDS, _FUZZ_INTS, _FUZZ_INTS),
    },
}


def _fuzz_lines(rng, kind):
    """A well-formed body half of the time, random directives otherwise."""
    well_formed = rng.random() < 0.5
    if well_formed and kind == "tmesh":
        nx, ny = rng.randrange(1, 4), rng.randrange(1, 3)
        return [f"cell {i} {j} {i + 1} {j + 1}" for i in range(nx) for j in range(ny)]
    if well_formed:
        lines = ["init 0 0 2 2"]
        for _ in range(rng.randrange(4)):
            split = f"{rng.randrange(3)} {rng.choice('hv')} {rng.choice(('1/2', '1', '3/2'))}"
            lines.append(f"wsplit {split} 2 2" if rng.random() < 0.3 else f"split {split}")
        return lines
    directives = _FUZZ_DIRECTIVES[kind]
    lines = []
    for _ in range(rng.randrange(1, 6)):
        name = rng.choice(list(directives) + ["bogus"])
        tokens = [rng.choice(pool) for pool in directives.get(name, (_FUZZ_COORDS,))]
        lines.append(" ".join([name, *tokens]))
    return lines


def _fuzz_text(rng, index):
    kind = rng.choice(("tmesh", "tsub"))
    header = f"{kind} 1" if rng.random() < 0.9 else " ".join(rng.choices(("tmesh", "tsub", "1", "2"), k=2))
    if index % 8 == 0:  # header only, now and then with a comment or a smoothness line
        lines = [header, *rng.choice(([], ["# nothing else"], ["default-smooth 1 1"]))]
        return "\n".join(lines) + "\n"
    lines = [header, *_fuzz_lines(rng, kind)]
    if rng.random() < 0.3:  # one token swapped, dropped or added
        row = rng.randrange(1, len(lines))
        tokens = lines[row].split()
        at = rng.randrange(len(tokens))
        tokens[at:at + 1] = rng.choice(([rng.choice(_FUZZ_COORDS + _FUZZ_INTS)], [], [tokens[at], "1"]))
        lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_cli_token_fuzz_never_raises(tmp_path, capsys):
    rng = random.Random(7)
    path = tmp_path / "fuzz.txt"
    codes = set()
    for index in range(300):
        text = _fuzz_text(rng, index)
        path.write_text(text)
        space = ["-m", "2", "-n", "2", "--smooth", rng.choice(("1,1", "0,1", "1,1", "1", "-1,1"))]
        weighted = ["--weighted", "2,2"] if index % 2 else []
        for argv in (["validate", str(path)], ["dim", str(path), *space],
                     ["subdivide", str(path), *space, *weighted]):
            try:
                code = main(argv)
            except Exception as exc:  # any escape is the failure under test
                pytest.fail(f"{argv[0]} on {text!r} raised {exc!r}")
            assert code in (0, 1, 2), (argv[0], text, code)
            codes.add(code)
        capsys.readouterr()
    assert codes == {0, 1, 2}


_BIG = "1" + "0" * 400
_TINY = "1/" + _BIG


def _scaled_cells(cells, factor):
    return "\n".join("cell " + " ".join(str(v * factor) for v in cell) for cell in cells)


_HOSTILE_TMESH = {
    "big": f"cell 0 0 {_BIG} 1",
    "big-negative": f"cell -{_BIG} 0 0 1\ncell 0 0 1 1",
    "big-grid": _scaled_cells(grid_cells(3, 3), int(_BIG)) + "\ndefault-smooth 1 1",
    "tiny-steps": _scaled_cells(EX51_CELLS, F(1, int(_BIG))) + "\ndefault-smooth 1 1",
    "tiny": f"cell 0 0 {_TINY} 1\ncell {_TINY} 0 1 1",
    "tiny-and-big": f"cell 0 0 {_BIG} {_TINY}",
    "zero-denominator": "cell 0 0 1/0 1",
    "exponent": "cell 0 0 1e400 1",
    "smooth-non-node": "cell 0 0 1 1\ncell 1 0 2 1\ndefault-smooth 1 1\nsmooth h 7 1\nsmooth v 1/2 1",
    "negative-order": "cell 0 0 1 1\ncell 1 0 2 1\nsmooth h 1 -1",
    "negative-default": "cell 0 0 1 1\ndefault-smooth -1 0",
    # int() and Fraction() read digit separators and any Unicode digit.
    "underscore-order": "cell 0 0 1 1\ncell 1 0 2 1\nsmooth h 1 1_0",
    "underscore-rational": "cell 0 0 1_000/3 1",
    "non-ascii-digits": "cell \u0660 \u0660 \u0661 \u0661",
    "full-width-default": "cell 0 0 1 1\ndefault-smooth \uff11 1",
}

# Texts whose tokens only int() or Fraction() would read: every command
# refuses each with this error on this line.
_LENIENT_TOKENS = {
    "underscore-order": ("TmeshSyntaxError", "line 4: "),
    "underscore-rational": ("BadRational", "line 2: "),
    "non-ascii-digits": ("BadRational", "line 2: "),
    "full-width-default": ("TmeshSyntaxError", "line 3: "),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE_TMESH))
def test_hostile_tmesh_texts_exit_cleanly(name, tmp_path, capsys):
    path = tmp_path / f"{name}.tmesh"
    path.write_text(f"tmesh 1\n{_HOSTILE_TMESH[name]}\n", encoding="utf-8")
    space = ["-m", "2", "-n", "2"]
    argvs = [["validate"], ["validate", "--json"], ["stats"], ["stats", "--json"], ["svg"]]
    for smooth in ([], ["--smooth", "1,1"]):
        argvs += [["mis", *space, *smooth], ["dim", *space, *smooth], ["dim", *space, *smooth, "--exact"]]
    for command, *options in argvs:
        argv = [command, str(path), *options]
        try:
            code = main(argv)
        except Exception as exc:  # any escape is the failure under test
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2), (argv, code)
        out = capsys.readouterr().out
        if code == 1:
            assert out.count("\n") == 1, (argv, out[:200])
        if name in _LENIENT_TOKENS:
            error, line = _LENIENT_TOKENS[name]
            assert code == 1 and error in out and line in out, (argv, out)


def test_svg_names_node_lines_that_print_alike(tmp_path, capsys):
    # Every line of the tiny-steps mesh prints as 0: a picture of it would be
    # empty, so it is refused on one line.
    path = tmp_path / "tiny-steps.tmesh"
    path.write_text(f"tmesh 1\n{_HOSTILE_TMESH['tiny-steps']}\n")
    assert main(["svg", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("CoordinateOutOfRange: node lines x=0 and x=1/1000")
    assert out.endswith(" both print as 0\n") and out.count("\n") == 1


def _tmesh_file(tmp_path, name, cells, tail=""):
    path = tmp_path / f"{name}.tmesh"
    path.write_text("tmesh 1\n" + "".join(f"cell {a} {b} {c} {d}\n" for a, b, c, d in cells) + tail)
    return str(path)


@pytest.mark.parametrize("name, cells", [("ex11", EX11_CELLS), ("ex51", EX51_CELLS), ("pinwheel", PINWHEEL_CELLS)])
@pytest.mark.parametrize("degree, order", [((2, 2), 1), ((3, 3), 1), ((2, 2), 0), ((3, 3), 2)])
def test_dim_exact_matches_the_kernel(name, cells, degree, order, tmp_path, capsys):
    path = _tmesh_file(tmp_path, name, cells)
    m, n = degree
    argv = ["dim", path, "-m", str(m), "-n", str(n), "--smooth", f"{order},{order}", "--exact", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    mesh = t.build_mesh(cells)
    dist = t.constant_distribution(mesh, order, order)
    kernel = oracle.spline_dimension_exact(mesh, dist, degree)
    assert (payload["dim"], payload["h"]) == (kernel, kernel - t.combinatorial_term(mesh, dist, degree))


def test_dim_exact_assembles_no_cell_system(ex51_file, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("dim --exact assembled the cell system")

    monkeypatch.setattr(oracle, "build_spline_system", refuse)
    assert main(["dim", ex51_file, "-m", "2", "-n", "2", "--smooth", "1,1", "--exact"]) == 0
    out = capsys.readouterr().out
    assert "dim 15\nh 1\n" in out


# Two vertical interior segments under (2,2): x=1 has weight 4, above
# n + 1 = 3, and x=3 has weight 2, below it, but its order 2 = m makes its
# share of the bound 0.  Mixed weights give no certificate, yet the paper's
# upper bound is 0.
_ZERO_BOUND_CELLS = [(0, 0, 4, F(1, 4)), (0, F(1, 4), 1, 1), (1, F(1, 4), 4, 1),
                     (0, 1, 3, F(5, 2)), (3, 1, 4, F(5, 2)), (0, F(5, 2), 4, 4)]
_ZERO_BOUND_SMOOTH = "default-smooth 0 0\nsmooth h 3 2\nsmooth v 5/2 3\n"


def _dim_exact(tmp_path, cells, smooth, as_json, capsys):
    """`dim --exact` at degree (2, 2) on the cells under the smoothness lines:
    its stdout, and the kernel's dim and h."""
    path = _tmesh_file(tmp_path, "space", cells, smooth)
    argv = ["dim", path, "-m", "2", "-n", "2", "--exact"] + (["--json"] if as_json else [])
    assert main(argv) == 0
    with open(path, encoding="utf-8") as fh:
        doc = parse_tmesh(fh.read())
    mesh = document_mesh(doc)
    dist = document_smoothness(doc, mesh)
    dim = oracle.spline_dimension_exact(mesh, dist, (2, 2))
    return capsys.readouterr().out, dim, dim - t.combinatorial_term(mesh, dist, (2, 2))


def _assert_exact_output(out, as_json, certificate, dim, h):
    if as_json:
        payload = json.loads(out)
        assert payload["certificate"] == certificate
        assert (payload["dim"], payload["h"]) == (dim, h)
        bounds = [payload[key] for key in ("h_lower", "h_upper", "dim_lower", "dim_upper")]
        assert bounds == [h, h, dim, dim]
    else:
        assert f"h bounds [{h}, {h}] certificate {certificate}\ndim bounds [{dim}, {dim}]\n" in out
        assert out.endswith(f"dim {dim}\nh {h}\n")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "cells, smooth, certificate",
    [
        (EX11_CELLS, "default-smooth 1 1\n", "no-MIS"),
        (EX51_CELLS, "default-smooth 0 0\n", "weighted"),
        (EX51_CELLS, "default-smooth 1 1\n", "small-weights-equality"),
        (_ZERO_BOUND_CELLS, _ZERO_BOUND_SMOOTH, "oracle"),
    ],
    ids=["no-MIS", "weighted", "small-weights", "none-zero-bound"],
)
def test_dim_exact_ranks_no_pinned_query(cells, smooth, certificate, as_json, tmp_path, monkeypatch, capsys):
    # A certificate, or an upper bound of 0, pins h: nothing is ranked.  A
    # `none` certificate still reads `oracle`, as when the query was ranked.
    def refuse(*args):
        raise AssertionError("dim --exact ranked a pinned query")

    monkeypatch.setattr(oracle, "h_via_mis_presentation", refuse)
    out, dim, h = _dim_exact(tmp_path, cells, smooth, as_json, capsys)
    _assert_exact_output(out, as_json, certificate, dim, h)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_dim_exact_ranks_an_open_query(as_json, tmp_path, monkeypatch, capsys):
    # The pinwheel under (2,2) C0: certificate `none`, bounds [0, 4].
    ranked = []
    rank = oracle.h_via_mis_presentation

    def counting(*args):
        ranked.append(args)
        return rank(*args)

    monkeypatch.setattr(oracle, "h_via_mis_presentation", counting)
    out, dim, h = _dim_exact(tmp_path, PINWHEEL_CELLS, "default-smooth 0 0\n", as_json, capsys)
    assert len(ranked) == 1
    _assert_exact_output(out, as_json, "oracle", dim, h)


# Three full-height strips; the wsplit in the middle strip makes a segment of
# weight 2 under (2,2) C1, below the rule's 3, so the rule adds one hop.
_WSPLIT_HISTORY = "tsub 1\ninit 0 0 8 8\nsplit 0 v 2\nsplit 1 v 6\nwsplit 1 h 4 3 3\nsplit 0 h 3\n"


def test_history_with_wsplit_lines_reads_like_its_expansion(tmp_path, capsys):
    original = tmp_path / "weighted.tsub"
    original.write_text(_WSPLIT_HISTORY)
    emitted = tmp_path / "elementary.tsub"
    space = ["-m", "2", "-n", "2", "--smooth", "1,1"]
    assert main(["subdivide", str(original), *space, "--emit-history", str(emitted)]) == 0
    mesh = tmp_path / "weighted.tmesh"
    mesh.write_text(capsys.readouterr().out)
    assert emitted.read_text().count("split") > _WSPLIT_HISTORY.count("split")  # the rule hopped
    for command in ("dim", "mis"):
        outputs = []
        for history in (original, emitted):
            assert main([command, str(mesh), *space, "--history", str(history)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_history_with_wsplit_lines_needs_constant_smoothness(tmp_path, capsys):
    original = tmp_path / "weighted.tsub"
    original.write_text(_WSPLIT_HISTORY)
    space = ["-m", "2", "-n", "2", "--smooth", "1,1"]
    assert main(["subdivide", str(original), *space]) == 0
    mesh = tmp_path / "weighted.tmesh"
    mesh.write_text(capsys.readouterr().out + "default-smooth 1 1\nsmooth h 2 0\n")
    argv = ["dim", str(mesh), "-m", "2", "-n", "2", "--history", str(original), "--json"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "NonConstantSmoothness"


def test_subdivide_of_a_wsplit_history_builds_one_mesh(tmp_path, monkeypatch, capsys):
    # subdivide prints the cells of the history's replay, and the weighted
    # rule weighs on its spans: the one mesh built, for a plain or a wsplit
    # history however many hops the rule makes, is the one-cell mesh that
    # validates the initial rectangle.  dim and mis --history expand a wsplit
    # history the same way, on top of the parsed mesh.
    built = []
    real = t.build_mesh
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tsplinedim" and vars(module).get("build_mesh") is real:
            monkeypatch.setattr(module, "build_mesh", lambda rects: built.append(list(rects)) or real(rects))
    initial = [(0, 0, 8, 8)]
    space = ["-m", "2", "-n", "2", "--smooth", "1,1"]
    plain = "tsub 1\ninit 0 0 8 8\nsplit 0 v 2\nsplit 1 v 6\nsplit 1 h 4\nsplit 0 h 3\n"
    for text in (plain, _WSPLIT_HISTORY):
        original = tmp_path / "history.tsub"
        original.write_text(text)
        emitted = tmp_path / "elementary.tsub"
        built.clear()
        assert main(["subdivide", str(original), *space, "--emit-history", str(emitted)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tmesh 1")
        assert emitted.read_text().count("split") >= text.count("split")
        assert built == [initial]
        built.clear()
        assert main(["subdivide", str(original), *space, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tmesh"] == out
        assert built == [initial]
        mesh = tmp_path / "refined.tmesh"
        mesh.write_text(out)
        for command in ("dim", "mis"):
            built.clear()
            assert main([command, str(mesh), *space, "--history", str(original)]) == 0
            capsys.readouterr()
            assert built == [initial]
    assert emitted.read_text().count("split") > _WSPLIT_HISTORY.count("split")  # the rule hopped
