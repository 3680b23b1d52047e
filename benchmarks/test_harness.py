"""Smoke tests of the benchmark harness on a tiny seed (a few queries each)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads
from tsplinedim import cli

TINY_SEED = 0


def _distinct(queries):
    return list(dict.fromkeys(queries))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_answers_pass_their_checks(workload, tmp_path):
    queries = _distinct(workloads.build_pass(workload, TINY_SEED, tmp_path, slots=1))
    attempted, failed = run.check_answers(run.run_pass(queries))
    assert attempted == len(queries) >= 1
    assert failed == 0


def test_generation_depends_only_on_the_seed(tmp_path):
    def snapshot(seed, where):
        queries = workloads.build_pass("exact-oracle", seed, where, slots=2)
        return [q.label for q in queries], sorted(p.read_text() for p in where.iterdir())

    first = snapshot(TINY_SEED, tmp_path / "a")
    assert snapshot(TINY_SEED, tmp_path / "b") == first
    assert snapshot(TINY_SEED + 1, tmp_path / "c") != first


def test_a_wrong_answer_is_counted_as_failed(tmp_path):
    query = workloads.build_pass("exact-oracle", TINY_SEED, tmp_path, slots=1)[0]
    (_, status, out, emitted, _), = run.run_pass([query])
    answer = json.loads(out)
    answer["dim"] += 1
    assert query.verdict(status, out, emitted) is None
    assert query.verdict(status, json.dumps(answer), emitted) is not None
    assert query.verdict(1, out, emitted) is not None


def _bindings():
    held = {}
    for name, module in list(sys.modules.items()):
        if name == "tsplinedim" or name.startswith("tsplinedim."):
            held.update({(name, key): value for key, value in vars(module).items()})
    from tsplinedim.linalg import SparseRationalMatrix

    held[("SparseRationalMatrix", "add")] = SparseRationalMatrix.__dict__["add"]
    return held


def test_tracer_restores_bindings_and_accounts_for_query_time(tmp_path):
    queries = _distinct(workloads.build_pass("weighted-refine", TINY_SEED, tmp_path, slots=1))
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install(run.HOOKS)
    try:
        assert cli.main is not before[("tsplinedim.cli", "main")]
        records = run.run_pass(queries, tracer)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = run.layer_metrics(tracer, records)
    assert 0.9 < metrics["trace.accounted_ratio"] <= 1.0 + 1e-9
    assert metrics["mesh.build_mesh.calls"] >= 1
    assert metrics["hierarchy.weighted_split.calls"] >= 1
    assert metrics["hierarchy.events"] >= metrics["hierarchy.ext_hops"] >= 0
    spans = len(tracer.span_start)
    assert spans == sum(tracer.calls.values())
    assert all(tracer.span_end[i] >= tracer.span_start[i] for i in range(spans))
    assert all(tracer.span_parent[i] < i for i in range(spans))


def test_refuses_to_run_without_the_program_source(tmp_path):
    repo = Path(run.ROOT)
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "exact-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
