"""Run records and instance files: every mutation of a valid file either
reads or raises DataError.

Each example starts from a file the program wrote and applies one to three
edits: drop a key, give a value another JSON type, or drop, duplicate or
truncate a line.
"""
from __future__ import annotations

import json
import math

import pytest
from conftest import make_golden_instance
from hypothesis import given, settings
from hypothesis import strategies as st

from gpshop.errors import DataError
from gpshop.gp import EvolutionLog, GenerationStats, GPParams, SeedRejection
from gpshop.records import build_run_meta, read_run_record, write_run_record
from gpshop.rules import RulePair
from gpshop.sim.config import Scenario, SimConfig
from gpshop.sim.instance import dump_instance, load_instance

RETYPED = [None, "x", [], {}, True, 10**400, float("nan")]
EDITS = ["drop-key", "retype", "drop-line", "duplicate-line", "truncate-line"]


def _slots(value, kinds):
    """Every (container, key) pair in a JSON value whose container is one of ``kinds``."""
    if isinstance(value, dict):
        members = list(value.items())
    elif isinstance(value, list):
        members = list(enumerate(value))
    else:
        return []
    own = [(value, key) for key, _ in members] if isinstance(value, kinds) else []
    return own + [slot for _, member in members for slot in _slots(member, kinds)]


def mutate(data, lines: list[str]) -> list[str]:
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        edit = data.draw(st.sampled_from(EDITS), label="edit")
        if edit == "drop-line":
            del lines[i]
        elif edit == "duplicate-line":
            lines.insert(i, lines[i])
        elif edit == "truncate-line":
            lines[i] = lines[i][: data.draw(st.integers(0, max(0, len(lines[i]) - 1)), label="cut")]
        else:
            try:
                row = json.loads(lines[i])
            except ValueError:
                continue
            slots = _slots(row, dict if edit == "drop-key" else (dict, list))
            if not slots:
                continue
            container, key = data.draw(st.sampled_from(slots), label="slot")
            if edit == "drop-key":
                del container[key]
            else:
                container[key] = data.draw(st.sampled_from(RETYPED), label="value")
            lines[i] = json.dumps(row)
    return lines


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("file-fuzz")


@pytest.fixture(scope="module")
def record_lines(scratch) -> list[str]:
    scenario = Scenario(
        objectives=("Fmean", "WTmean"), lambdas=(0.2, 0.8), training_seeds=(1,), test_seeds=(2,), name="mix"
    )
    log = EvolutionLog(
        entries=[
            GenerationStats(0, 10.0, 20.0, 1.0, "WIQ", "PT", {"init": 4}, 1),
            GenerationStats(1, 8.0, 15.0, 0.75, "WIQ", "(PT + WKR)", {"crossover": 3, "mutation": 1}),
        ],
        gen0_fitness=[10.0, 20.0, 25.0, 25.0],
        seed_rejections=[SeedRejection(index=2, cause="max depth exceeded (9 > 8)")],
    )
    meta = build_run_meta(
        method="gp-llm", scenario=scenario, sim=SimConfig(num_machines=2, total_jobs=10, warmup_jobs=2),
        gp=GPParams(population_size=4, generations=2), run_index=3, run_seed=12345, master_seed=42,
        init_mode="llm", seed_pairs=[RulePair.from_text("WIQ", "PT")], seed_rejections=log.seed_rejections,
    )
    result = {
        "best_routing": "WIQ", "best_sequencing": "(PT + WKR)",
        "train_fitness": 8.0, "test_fitness": 9.5, "test_aborted": 0, "evaluations": 12,
    }
    path = scratch / "run.jsonl"
    write_run_record(str(path), meta, log, result)
    read_run_record(str(path))
    return path.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def instance_lines(scratch) -> list[str]:
    path = scratch / "golden.jsonl"
    dump_instance(make_golden_instance(), str(path))
    load_instance(str(path))
    return path.read_text(encoding="utf-8").splitlines()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_record_reads_or_raises_data_error(scratch, record_lines, data):
    """A record that reads holds finite numbers of each field's type."""
    path = scratch / "fuzz-run.jsonl"
    path.write_text("\n".join(mutate(data, record_lines)) + "\n", encoding="utf-8")
    try:
        rec = read_run_record(str(path))
    except DataError:
        return
    numbers = [rec.run.fitness, *rec.log.gen0_fitness]
    ints = [rec.run.seed, rec.result["test_aborted"], *(r.index for r in rec.log.seed_rejections)]
    texts = [rec.run.method, rec.run.scenario, *(r.cause for r in rec.log.seed_rejections)]
    for entry in rec.log.entries:
        numbers += [entry.best_fitness, entry.mean_fitness, entry.diversity]
        ints += [entry.generation, entry.aborted, *entry.op_counts.values()]
        texts += [entry.best_routing, entry.best_sequencing, *entry.op_counts]
    assert all(type(x) is float and math.isfinite(x) for x in numbers)
    assert all(type(n) is int for n in ints)
    assert all(type(s) is str for s in texts)
    raw = rec.result["test_fitness"]
    assert type(raw) in (int, float) and math.isfinite(raw)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_instance_loads_or_raises_data_error(scratch, instance_lines, data):
    path = scratch / "fuzz-instance.jsonl"
    path.write_text("\n".join(mutate(data, instance_lines)) + "\n", encoding="utf-8")
    try:
        load_instance(str(path))
    except DataError:
        pass
