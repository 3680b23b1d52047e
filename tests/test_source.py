"""Source-level rules for the package."""

import ast
import subprocess
import sys
from pathlib import Path

import tsplinedim

PACKAGE = Path(tsplinedim.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_true_division_in_mesh():
    # build_mesh and parse_tmesh compute on lattice ints, where `/` would
    # make a float.
    found = []
    for name in ("mesh.py", "formats.py"):
        path = PACKAGE / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
    assert found == []


def test_orders_are_read_only_through_the_distribution_lookup():
    # The rule "a horizontal line at y carries r_v(y), a vertical one at x
    # carries r_h(x)" lives in SmoothnessDistribution.order alone.
    per_axis = {"r_h", "r_v", "horizontal_order", "vertical_order"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "smoothness.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in per_axis
        ]
    assert found == []


def test_cli_ranks_no_matrix_itself():
    # `dim --exact` answers from the segment presentation; the cell-system
    # kernel stays a library reference, so the command line never imports
    # the rank kernel.
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        found += [f"cli.py:{node.lineno} {name}" for name in modules if "linalg" in name.split(".")]
    assert found == []


def test_segments_imports_only_errors_and_mesh():
    # segments sits below hierarchy and dimension: the appearance order of a
    # history is theirs to ask for, so segments never imports them back.
    path = PACKAGE / "segments.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tsplinedim")):
            module = "." * node.level + (node.module or "")
            if module not in (".errors", ".mesh"):
                found.append(f"segments.py:{node.lineno} {module}")
        elif isinstance(node, ast.Import):
            found += [f"segments.py:{node.lineno} {a.name}" for a in node.names if a.name.startswith("tsplinedim")]
    assert found == []


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # The console script imports tsplinedim.cli in a new process on every
    # call; dataclasses and the inspect machinery it pulls in would be over
    # half of that import.
    code = (
        "import sys, tsplinedim.cli; "
        "print(sorted(name for name in ('dataclasses', 'inspect') if name in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code],
        cwd=PACKAGE.parent, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"


# Public functions that no package code reaches, each with why it stays.
KEEP = {
    "dimension.apolar_dim": "ROADMAP item 9: the one-MIS closed form of the defect's lower bound calls it",
    "hierarchy.initial_mesh": "a README example, and the benchmark generator starts each weighted history with it",
    "hierarchy.split_cell": "the library's plain split; the benchmark tracer's hierarchy.split_cell metrics wrap it",
    "oracle.h_exact": "a README example: the defect from the cell-system kernel",
    "oracle.h_via_h0": "the benchmark judge cross-checks exact-oracle answers with it",
}


def _reached(trees):
    """(module, name) of every function that package code imports or reads.

    Names resolve per module: a bare name to the module's own definition,
    an imported name to its source module, and ``alias.name`` only when the
    alias is a package module, so a record field such as
    ``report.h_exact`` does not count as a use of ``oracle.h_exact``.  The
    package imports its own modules relatively, and the re-exports of
    ``__init__`` do not count.
    """
    reached = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        aliases = {}  # names bound to package modules by `from . import`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module:
                        reached.add((node.module, a.name))
                    else:
                        aliases[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                reached.add((aliases[node.value.id], node.attr))
    return reached


def test_every_public_function_is_reached():
    # A routine that only tests call belongs in tests/witnesses.py.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    public = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    unreached = public - {f"{module}.{name}" for module, name in _reached(trees)}
    assert sorted(unreached - KEEP.keys()) == []
    assert sorted(KEEP.keys() - unreached) == []
