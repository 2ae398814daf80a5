"""The random stream behind generate_instance.

generate_instance draws its integers in Python from raw PCG64 words.
These tests hold it to the numpy-call generator it replaced, kept here
as an oracle, and pin two dumps by digest so that a numpy release that
changes PCG64 or ``exponential`` fails here rather than silently.
"""
from __future__ import annotations

import hashlib
import statistics

import numpy as np
import pytest

from gpshop.sim import Instance, Job, Operation, SimConfig, dump_instance, generate_instance
from gpshop.sim.instance import _integer_drawer, _sample_machines, arrival_rate_for_utilization


def numpy_call_instance(config: SimConfig, seed: int) -> Instance:
    """The former generate_instance: one numpy call per draw."""
    rng = np.random.default_rng(seed)
    m = config.num_machines
    rates = tuple(float(r) for r in rng.uniform(*config.rate_range, size=m))
    d_lo, d_hi = config.distance_range
    entry = tuple(float(d) for d in rng.integers(d_lo, d_hi + 1, size=m))
    dist = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = float(rng.integers(d_lo, d_hi + 1))
            dist[i][j] = d
            dist[j][i] = d
    lam = arrival_rate_for_utilization(config)
    ops_lo, ops_hi = config.ops_per_job_range
    wl_lo, wl_hi = config.workload_range
    weights = np.array([w for w, _ in config.weight_mix])
    probs = np.array([p for _, p in config.weight_mix])
    jobs = []
    clock = 0.0
    for job_id in range(1, config.total_jobs + 1):
        clock += float(rng.exponential(1.0 / lam))
        n_ops = int(rng.integers(ops_lo, ops_hi + 1))
        operations = []
        total_median = 0.0
        for _ in range(n_ops):
            workload = float(rng.integers(wl_lo, wl_hi + 1))
            k = int(rng.integers(1, m + 1))
            members = tuple(sorted(int(x) for x in rng.choice(m, size=k, replace=False)))
            proc_times = tuple(workload / rates[idx] for idx in members)
            median = statistics.median(proc_times)
            operations.append(Operation(workload, members, proc_times, median))
            total_median += median
        weight = int(rng.choice(weights, p=probs))
        due = clock + config.due_date_factor * total_median
        jobs.append(Job(job_id, clock, weight, due, tuple(operations)))
    return Instance(
        config=config,
        seed=seed,
        machine_rates=rates,
        entry_distances=entry,
        machine_distances=tuple(tuple(row) for row in dist),
        jobs=tuple(jobs),
    )


ORACLE_CONFIGS = {
    **{f"m{m}": SimConfig(num_machines=m, total_jobs=40, warmup_jobs=4) for m in (1, 2, 3, 10, 17)},
    "fixed-ops": SimConfig(num_machines=4, total_jobs=40, warmup_jobs=4, ops_per_job_range=(3, 3)),
    "one-weight": SimConfig(num_machines=4, total_jobs=40, warmup_jobs=4, weight_mix=((3, 1.0),)),
    "four-weights": SimConfig(
        num_machines=4, total_jobs=40, warmup_jobs=4,
        weight_mix=((1, 0.1), (2, 0.0), (5, 0.5), (7, 0.4)),
    ),
    "util-095": SimConfig(num_machines=5, total_jobs=40, warmup_jobs=4, utilization=0.95),
    # Ranges where Lemire's method rejects about half (32-bit) and a
    # quarter (64-bit) of its draws, then the edges of the 32-bit path.
    "rejecting-ranges": SimConfig(
        num_machines=3, total_jobs=20, warmup_jobs=2,
        workload_range=(1, 2**31 + 1), distance_range=(1, 2**62 + 1),
    ),
    # Bounds that integers() truncates with int(), as YAML configs allow.
    "float-bounds": SimConfig(
        num_machines=3, total_jobs=20, warmup_jobs=2,
        workload_range=(100.5, 1000.7), distance_range=(35.2, 500.9),
    ),
    "range-edges": SimConfig(
        num_machines=3, total_jobs=20, warmup_jobs=2,
        workload_range=(1, 2**32), distance_range=(1, 2**32 + 1),
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_matches_numpy_call_generator(name):
    config = ORACLE_CONFIGS[name]
    for seed in range(30):
        # Compared outside the assert: pytest's diff of two long reprs is slow.
        identical = repr(generate_instance(config, seed=seed)) == repr(numpy_call_instance(config, seed))
        assert identical, f"seed {seed}"


@pytest.mark.parametrize(
    "m, ks",
    [(6, (1, 3, 6)), (10001, (1, 200, 201, 10001)), (12000, (240, 241))],
)
def test_sample_machines_matches_choice(m, ks):
    """Floyd's algorithm, and numpy's tail shuffle above 10,000 elements."""
    for k in ks:
        for seed in range(3):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            draw = _integer_drawer(ours.bit_generator)
            for _ in range(2):
                expected = tuple(sorted(int(x) for x in theirs.choice(m, size=k, replace=False)))
                assert _sample_machines(draw, m, k) == expected
            # An odd number of 32-bit draws leaves a high half waiting.
            assert draw(999) == theirs.integers(0, 1000)


@pytest.mark.parametrize(
    "config, seed, digest",
    [
        (
            SimConfig(num_machines=3, total_jobs=25, warmup_jobs=2),
            4,
            "ac23d231c16badb266188393a6600253a0cfef9067c10e3be75a8d726cea587f",
        ),
        (
            SimConfig(
                num_machines=7, total_jobs=40, warmup_jobs=4, utilization=0.95,
                weight_mix=((1, 0.1), (2, 0.2), (4, 0.3), (8, 0.4)),
            ),
            1001,
            "d690ac551293377ee460af7f949a24c20f883d0c73a69e4f6f3993626763e924",
        ),
    ],
)
def test_dump_digest_is_pinned(tmp_path, config, seed, digest):
    path = tmp_path / "instance.jsonl"
    dump_instance(generate_instance(config, seed=seed), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
