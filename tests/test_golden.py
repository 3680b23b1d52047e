"""Golden corpus: exit codes and output digests of a fixed set of command lines.

Every query runs ``cli.main`` in-process on input files written from the
meshes of ``meshgen`` and the hostile texts of ``test_cli``.  For each one
``golden/expected.json`` pins the argv, the exit code and the sha256 of
stdout and of every file the query writes, so any change to what a command
prints or emits fails here.  A change that means to alter output rewrites
the file with

    PYTHONPATH=src python tests/test_golden.py

and says in its log which entries moved and why.
"""

import argparse
import hashlib
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from tsplinedim.cli import _build_parser, main

from meshgen import EX11_CELLS, EX51_CELLS, L_CELLS, PINWHEEL_CELLS, RING_CELLS, grid_cells, random_history
from test_cli import _HOSTILE_TMESH

EXPECTED = Path(__file__).parent / "golden" / "expected.json"
DIR = "{dir}"  # argv placeholder for the directory holding the inputs
_OUTPUT_FLAGS = ("--dump-matrix", "--emit-history")


def _tmesh(cells, tail=()):
    lines = ["tmesh 1"] + [f"cell {a} {b} {c} {d}" for a, b, c, d in cells]
    return "\n".join([*lines, *tail]) + "\n"


def _tsub(history, rules=None):
    """A history as tsub text; ``rules`` maps event positions to the (k, k')
    of a ``wsplit`` line."""
    rules = rules or {}
    lines = ["tsub 1", "init " + " ".join(map(str, history.initial))]
    for i, ev in enumerate(history.events):
        line = f"{ev.cell} {ev.direction} {ev.coord}"
        lines.append(f"wsplit {line} {rules[i][0]} {rules[i][1]}" if i in rules else f"split {line}")
    return "\n".join(lines) + "\n"


def _per_line(rects, rng, top, default=None):
    """``smooth`` lines for the node lines of ``rects``: every line with an
    order in 0..top, or, under a ``default-smooth`` line, every third one."""
    xs = sorted({r[0] for r in rects} | {r[2] for r in rects})
    ys = sorted({r[1] for r in rects} | {r[3] for r in rects})
    lines = [] if default is None else [f"default-smooth {default[0]} {default[1]}"]
    step = 1 if default is None else 3
    lines += [f"smooth h {x} {rng.randint(0, top)}" for x in xs[::step]]
    lines += [f"smooth v {y} {rng.randint(0, top)}" for y in ys[::step]]
    return lines


def _inputs():
    """{file name: text} of every input file."""
    files = {
        "ex11.tmesh": _tmesh(EX11_CELLS),
        "ex51.tmesh": _tmesh(EX51_CELLS, ["default-smooth 1 1"]),
        "pinwheel.tmesh": _tmesh(PINWHEEL_CELLS, ["default-smooth 0 0"]),
        "ring.tmesh": _tmesh(RING_CELLS),
        "L.tmesh": _tmesh(L_CELLS, ["default-smooth 1 0"]),
        "grid3.tmesh": _tmesh(grid_cells(3, 3), ["default-smooth 1 1"]),
    }
    for seed, splits, default in ((1, 12, None), (2, 30, (1, 1)), (3, 60, None)):
        rng = random.Random(seed)
        history, rects = random_history(rng, splits)
        files[f"rand{seed}.tmesh"] = _tmesh(rects, _per_line(rects, rng, 3, default))
        files[f"rand{seed}-plain.tmesh"] = _tmesh(rects)
        files[f"rand{seed}.tsub"] = _tsub(history)
    # The last split of each history through the weighted rule, which adds
    # one or two extension hops there under (2,2) C1.
    for seed, splits, rule in ((6, 8, (4, 4)), (13, 20, (3, 3)), (16, 20, (4, 4))):
        history, _ = random_history(random.Random(seed), splits)
        files[f"w{seed}.tsub"] = _tsub(history, {splits - 1: rule})
    # Under --weighted the first hops, and in the second a later split then
    # lands on a cell side (exit code 1).
    for name, seed, splits in (("short", 23, 6), ("clash", 16, 4)):
        files[f"{name}.tsub"] = _tsub(random_history(random.Random(seed), splits)[0])
    for name, text in _HOSTILE_TMESH.items():
        files[f"hostile-{name}.tmesh"] = f"tmesh 1\n{text}\n"
    return files


def _queries():
    """(argv, file name its stdout is saved to or None), in run order."""
    def at(name):
        return f"{DIR}/{name}"

    queries = []

    def add(*argv, save=None):
        queries.append((list(argv), save))

    for name in ("ex11", "ring", "L", "rand1"):
        add("validate", at(f"{name}.tmesh"))
        add("validate", at(f"{name}.tmesh"), "--json")
    for name in ("ex11", "grid3", "rand2", "ring"):
        add("stats", at(f"{name}.tmesh"))
        add("stats", at(f"{name}.tmesh"), "--json")
    for name in ("ex11", "pinwheel", "rand1"):
        add("svg", at(f"{name}.tmesh"))

    # mis and dim on file smoothness: default-smooth, per-line declarations.
    for name in ("ex51", "pinwheel", "L", "grid3", "rand1", "rand2", "rand3"):
        for m, n in ((2, 2), (3, 2), (1, 3)):
            space = ["-m", str(m), "-n", str(n)]
            for ordering in ("auto", "search"):
                add("mis", at(f"{name}.tmesh"), *space, "--ordering", ordering, "--json")
                add("dim", at(f"{name}.tmesh"), *space, "--ordering", ordering)
                add("dim", at(f"{name}.tmesh"), *space, "--ordering", ordering, "--json")
            add("mis", at(f"{name}.tmesh"), *space)
            add("dim", at(f"{name}.tmesh"), *space, "--exact")
            add("dim", at(f"{name}.tmesh"), *space, "--exact", "--json")
    # --smooth overrides, pinned and open --exact, --dump-matrix.
    for name in ("ex11", "ex51", "pinwheel", "rand1", "rand3"):
        for smooth in ("0,0", "1,1", "2,1"):
            space = ["-m", "2", "-n", "2", "--smooth", smooth]
            add("dim", at(f"{name}.tmesh"), *space, "--exact", "--json")
            add("mis", at(f"{name}.tmesh"), *space, "--ordering", "search")
    for name in ("ex51", "pinwheel", "rand1"):
        add("dim", at(f"{name}.tmesh"), "-m", "2", "-n", "2", "--dump-matrix", at(f"{name}.triplets"))
        add("dim", at(f"{name}.tmesh"), "-m", "3", "-n", "2", "--exact", "--dump-matrix", at(f"{name}.triplets"))

    # Histories: plain, and with a wsplit line expanded under the query's space.
    for seed in (1, 2, 3):
        add("subdivide", at(f"rand{seed}.tsub"))
        add("subdivide", at(f"rand{seed}.tsub"), "--json")
        for options in ([], ["--json"], ["--ordering", "search"], ["--exact", "--json"]):
            add("dim", at(f"rand{seed}-plain.tmesh"), "-m", "3", "-n", "3", "--smooth", "1,1",
                "--history", at(f"rand{seed}.tsub"), *options)
        add("mis", at(f"rand{seed}-plain.tmesh"), "-m", "2", "-n", "2", "--smooth", "0,0",
            "--history", at(f"rand{seed}.tsub"), "--json")
    for seed in (6, 13, 16):
        space = ["-m", "2", "-n", "2", "--smooth", "1,1"]
        history = at(f"w{seed}.tsub")
        add("subdivide", history, *space, "--emit-history", at(f"w{seed}-expanded.tsub"), save=f"w{seed}.tmesh")
        add("subdivide", history, *space, "--json")
        for command in ("dim", "mis"):
            for source in (history, at(f"w{seed}-expanded.tsub")):
                add(command, at(f"w{seed}.tmesh"), *space, "--history", source, "--json")
        add("dim", at(f"w{seed}.tmesh"), *space, "--history", history, "--exact")
        add("dim", at(f"rand1.tmesh"), "-m", "2", "-n", "2", "--history", history)  # not constant: 1
        add("dim", at(f"w{seed}.tmesh"), *space, "--history", at("rand1.tsub"))  # another mesh: 1
    for rule in ("3,3", "2,2", "4,1"):
        space = ["-m", "2", "-n", "2", "--smooth", "1,1", "--weighted", rule]
        add("subdivide", at("short.tsub"), *space, "--emit-history", at("short-expanded.tsub"))
        add("subdivide", at("clash.tsub"), *space, "--json")

    # Usage errors: exit code 2 with nothing on stdout.
    add("dim", at("ex11.tmesh"), "-m", "2", "-n", "2")
    add("dim", at("ex51.tmesh"), "-m", "2", "-n", "2", "--smooth", "bogus")
    add("dim", at("missing.tmesh"), "-m", "2", "-n", "2", "--smooth", "1,1")
    add("mis", at("ex51.tmesh"), "-m", "-1", "-n", "2")
    add("subdivide", at("short.tsub"), "--weighted", "3,3")
    add("svg", at("ex11.tmesh"), "--json")
    add("nonsense")

    space = ["-m", "2", "-n", "2"]
    for name in sorted(_HOSTILE_TMESH):
        path = at(f"hostile-{name}.tmesh")
        for options in (["validate"], ["validate", "--json"], ["stats"], ["stats", "--json"], ["svg"]):
            add(options[0], path, *options[1:])
        for smooth in ([], ["--smooth", "1,1"]):
            add("mis", path, *space, *smooth)
            add("dim", path, *space, *smooth)
            add("dim", path, *space, *smooth, "--exact", "--json")
    return queries


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_corpus(directory):
    """Write the inputs into ``directory``, run every query there, and return
    one record per query: argv, exit code, stdout digest and the digest of
    each file its ``--dump-matrix`` or ``--emit-history`` wrote."""
    directory = Path(directory)
    for name, text in _inputs().items():
        (directory / name).write_text(text, encoding="utf-8")
    records = []
    for argv, save in _queries():
        argv_here = [a.replace(DIR, str(directory)) for a in argv]
        outputs = [Path(argv_here[i + 1]) for i, a in enumerate(argv[:-1]) if a in _OUTPUT_FLAGS]
        for path in outputs:
            path.unlink(missing_ok=True)
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = main(argv_here)
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs if path.exists()}
        if save is not None:
            (directory / save).write_text(out.getvalue(), encoding="utf-8")
        records.append({"argv": argv, "code": code, "stdout": _digest(out.getvalue()), "files": written})
    return records


def test_golden_corpus(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    records = run_corpus(tmp_path)
    assert [r["argv"] for r in records] == [r["argv"] for r in expected]
    mismatched = [(got["argv"], want, got) for got, want in zip(records, expected) if got != want]
    assert mismatched == []


def test_golden_corpus_passes_every_command_and_option():
    # A subcommand or an option that no query passes would not be pinned.
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    used = {}
    for argv, _ in _queries():
        used.setdefault(argv[0], set()).update(argv[1:])
    unused = [
        f"{name} {action.option_strings[0]}"
        for name, sub in commands.items()
        for action in sub._actions
        if action.option_strings and action.dest != "help" and not used.get(name, set()) & set(action.option_strings)
    ]
    assert unused == [] and sorted(used) == sorted([*commands, "nonsense"])


def test_golden_corpus_reaches_every_exit_code():
    codes = {}
    for record in json.loads(EXPECTED.read_text(encoding="utf-8")):
        codes[record["code"]] = codes.get(record["code"], 0) + 1
    assert sorted(codes) == [0, 1, 2] and min(codes.values()) >= 7, codes


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        records = run_corpus(scratch)
    EXPECTED.parent.mkdir(exist_ok=True)
    # One query per line, so a diff of the file names the queries that moved.
    EXPECTED.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {EXPECTED}", file=sys.stderr)
