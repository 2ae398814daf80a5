"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the package's default test collection.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_file(workload: str, trace: int, seed: int = 5) -> dict:
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}-tiny", "result.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    name = request.param
    out = {}
    for trace in (0, 1):
        proc = bench(name, trace)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        out[trace] = (json.loads(proc.stdout.strip().splitlines()[-1]), result_file(name, trace))
    return out


def test_every_metric_emitted_with_unit(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = runs[trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_tracing_never_changes_results(runs):
    reps = runs[0][1]["repetitions"] + runs[1][1]["repetitions"]
    assert any(r["traced"] for r in reps) and any(not r["traced"] for r in reps)
    assert len({json.dumps(r["sha256"], sort_keys=True) for r in reps}) == 1
    assert len({r["test_fitness"] for r in reps}) == 1
    for trace in (0, 1):
        assert all(c["ok"] for c in runs[trace][1]["checks"])


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "no-sources")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
