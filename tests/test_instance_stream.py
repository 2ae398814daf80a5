"""The random stream behind generate_instance.

generate_instance draws each field in one vectorised numpy call.  These
tests hold it to an oracle that follows its documented draw order with
plain-Python assembly, hold every instance it makes to the invariants the
simulator relies on, check that eligible sets are uniform, and pin two
dumps by digest so that a numpy release that changes PCG64 or one of the
draws used fails here rather than silently.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gpshop.sim import Instance, SimConfig, dump_instance, generate_instance, load_instance
from gpshop.sim import instance as instance_mod
from gpshop.sim.instance import arrival_rate_for_utilization

from conftest import instance_from_jobs, jobs_of


def numpy_call_instance(config: SimConfig, seed: int) -> Instance:
    """generate_instance's draw order, one numpy call per field, assembled element by element.

    Distances fill a symmetric matrix pair by pair, releases are a running
    sum, and an operation's machines are found by sorting its keys, so only
    the draws themselves are shared with the code under test.
    """
    rng = np.random.default_rng(seed)
    m, n = config.num_machines, config.total_jobs

    def integers(bounds, size):
        lo, hi = bounds
        return [float(int(x)) for x in rng.integers(int(lo), int(hi) + 1, size=size, dtype=np.uint64)]

    rates = [float(r) for r in rng.uniform(*config.rate_range, size=m)]
    distances = iter(integers(config.distance_range, m * (m + 1) // 2))
    entry = tuple(next(distances) for _ in range(m))
    dist = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            dist[i][j] = dist[j][i] = next(distances)
    gaps = rng.exponential(1.0 / arrival_rate_for_utilization(config), size=n)
    n_ops = [int(c) for c in integers(config.ops_per_job_range, n)]
    workloads = integers(config.workload_range, sum(n_ops))
    sizes = [int(k) for k in rng.integers(1, m + 1, size=len(workloads))]
    keys = rng.random((len(workloads), m))
    weights = rng.choice([int(w) for w, _ in config.weight_mix], size=n, p=[p for _, p in config.weight_mix])

    operations = []
    for workload, k, row in zip(workloads, sizes, keys.tolist()):
        members = tuple(sorted(sorted(range(m), key=lambda i: (row[i], i))[:k]))
        times = tuple(workload / rates[i] for i in members)
        operations.append((workload, members, times, statistics.median(times)))
    jobs = []
    clock = 0.0
    ops = iter(operations)
    for job_id in range(1, n + 1):
        clock += float(gaps[job_id - 1])
        chain = tuple(next(ops) for _ in range(n_ops[job_id - 1]))
        total_median = 0.0
        for *_, median in chain:
            total_median += median
        due = clock + config.due_date_factor * total_median
        jobs.append((clock, int(weights[job_id - 1]), due, chain))
    return instance_from_jobs(config, seed, rates, entry, dist, jobs)


def assert_invariants(inst: Instance) -> None:
    config = inst.config
    m = config.num_machines
    rates = inst.machine_rates
    weights = {w for w, p in config.weight_mix if p > 0}
    n, n_ops, n_cands = config.total_jobs, len(inst.workload), len(inst.machines)
    lengths = {
        "release": n, "weight": n, "due": n, "op_start": n + 1,
        "workload": n_ops, "median": n_ops, "npt": n_ops, "wkr": n_ops, "cand_start": n_ops + 1,
        "machines": n_cands, "proc_times": n_cands,
    }
    for name, length in lengths.items():
        column = getattr(inst, name)
        # Plain Python values: the simulator indexes them in its event loop.
        assert type(column) is tuple and len(column) == length, name
        kind = int if name in ("weight", "op_start", "cand_start", "machines") else float
        assert {type(x) for x in column} <= {kind}, name
    assert inst.op_start[0] == 0 and inst.cand_start[0] == 0
    previous = 0.0
    for release, weight, due, ops in jobs_of(inst):
        assert ops
        assert release >= previous
        previous = release
        assert weight in weights
        total_median = 0.0
        for workload, machines, times, median in ops:
            assert machines == tuple(sorted(set(machines)))
            assert 0 <= machines[0] and machines[-1] < m
            assert times == tuple(workload / rates[i] for i in machines)
            assert median == statistics.median(times)
            total_median += median
        assert due == release + config.due_date_factor * total_median


INVARIANT_CONFIGS = {
    **{f"m{m}": SimConfig(num_machines=m, total_jobs=40, warmup_jobs=4) for m in (1, 2, 3, 10, 17)},
    "fixed-ops": SimConfig(num_machines=4, total_jobs=40, warmup_jobs=4, ops_per_job_range=(3, 3)),
    "one-weight": SimConfig(num_machines=4, total_jobs=40, warmup_jobs=4, weight_mix=((3, 1.0),)),
    "four-weights": SimConfig(
        num_machines=4, total_jobs=40, warmup_jobs=4,
        weight_mix=((1, 0.1), (2, 0.0), (5, 0.5), (7, 0.4)),
    ),
    "util-095": SimConfig(num_machines=5, total_jobs=40, warmup_jobs=4, utilization=0.95),
    # Wide integer ranges: workloads past 2**31, distances past 2**62.
    "rejecting-ranges": SimConfig(
        num_machines=3, total_jobs=20, warmup_jobs=2,
        workload_range=(1, 2**31 + 1), distance_range=(1, 2**62 + 1),
    ),
    # Bounds past int64, drawn as uint64.
    "uint64-ranges": SimConfig(
        num_machines=3, total_jobs=20, warmup_jobs=2,
        workload_range=(2**63, 2**63 + 9), distance_range=(1, 2**64 - 1),
    ),
    # Integral float bounds, as YAML configs may give them.
    "float-bounds": SimConfig(
        num_machines=3, total_jobs=20, warmup_jobs=2,
        workload_range=(100.0, 1000.0), distance_range=(35.0, 500.0),
    ),
    "range-edges": SimConfig(
        num_machines=3, total_jobs=20, warmup_jobs=2,
        workload_range=(1, 2**32), distance_range=(1, 2**32 + 1),
    ),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_CONFIGS))
def test_matches_numpy_call_generator(name):
    config = INVARIANT_CONFIGS[name]
    for seed in range(30):
        # Compared outside the assert: pytest's diff of two long reprs is slow.
        identical = repr(generate_instance(config, seed=seed)) == repr(numpy_call_instance(config, seed))
        assert identical, f"seed {seed}"


@pytest.mark.parametrize("name", sorted(INVARIANT_CONFIGS))
def test_invariants(name):
    config = INVARIANT_CONFIGS[name]
    for seed in range(30):
        inst = generate_instance(config, seed=seed)
        assert_invariants(inst)
        # Compared outside the assert: pytest's diff of two long reprs is slow.
        same = repr(generate_instance(config, seed=seed)) == repr(inst)
        assert same, f"seed {seed}"


def per_job_derivation(inst: Instance) -> tuple[list, list, list]:
    """NPT, WKR and due dates computed job by job in plain Python, flattened to the column order.

    The NPT and WKR loop is the body ``Instance.__post_init__`` had while
    the columns were nested per job.
    """
    npt: list[list[float]] = []
    wkr: list[list[float]] = []
    due = []
    for release, _, _, ops in jobs_of(inst):
        medians = [median for *_, median in ops]
        npt.append([*medians[1:], 0.0])
        remaining = []
        acc = 0.0
        for med in reversed(medians):
            acc += med
            remaining.append(acc)
        remaining.reverse()
        wkr.append(remaining)
        total_median = 0.0
        for med in medians:
            total_median += med
        due.append(release + inst.config.due_date_factor * total_median)
    return [x for row in npt for x in row], [x for row in wkr for x in row], due


@pytest.mark.parametrize("name", sorted(INVARIANT_CONFIGS))
def test_derived_columns_match_a_per_job_loop(name, tmp_path):
    """NPT, WKR and due dates are bit-identical to a per-job loop, on generated and loaded instances.

    The loaded instance, config included, also equals the generated one.
    """
    config = INVARIANT_CONFIGS[name]
    path = tmp_path / "instance.jsonl"
    for seed in range(10):
        inst = generate_instance(config, seed=seed)
        dump_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert loaded == inst, f"seed {seed}"
        for candidate in (inst, loaded):
            npt, wkr, due = per_job_derivation(candidate)
            # repr tells -0.0 from 0.0 and compares every bit of each double.
            assert repr(candidate.npt) == repr(tuple(npt)), f"seed {seed}"
            assert repr(candidate.wkr) == repr(tuple(wkr)), f"seed {seed}"
            assert repr(candidate.due) == repr(tuple(due)), f"seed {seed}"


def test_integral_float_bounds_match_int_bounds():
    floats = INVARIANT_CONFIGS["float-bounds"]
    ints = replace(floats, workload_range=(100, 1000), distance_range=(35, 500))
    for seed in range(5):
        assert replace(generate_instance(floats, seed=seed), config=ints) == generate_instance(ints, seed=seed)


def test_key_blocks_do_not_change_the_stream(monkeypatch):
    """Eligibility keys come from one stream of doubles, however it is cut into blocks."""
    config = SimConfig(num_machines=7, total_jobs=30, warmup_jobs=3)
    whole = repr(generate_instance(config, seed=12))
    for block in (1, 7, 50):
        monkeypatch.setattr(instance_mod, "_KEY_BLOCK", block)
        cut = repr(generate_instance(config, seed=12))
        assert cut == whole, f"block {block}"


def test_wide_shop_spans_several_key_blocks():
    config = SimConfig(num_machines=5000, total_jobs=50, warmup_jobs=5)
    inst = generate_instance(config, seed=3)
    assert len(inst.workload) * config.num_machines > instance_mod._KEY_BLOCK
    assert_invariants(inst)


def test_default_instance_holds_each_distinct_number_once():
    """Repeated values share one float object; npt takes median's objects and one 0.0."""
    inst = generate_instance(SimConfig(), seed=1)
    for column in (inst.workload, inst.proc_times):
        assert len({id(x) for x in column}) == len(set(column))
    medians = {id(x) for x in inst.median}
    zeros = [x for x in inst.npt if id(x) not in medians]
    assert len(zeros) == len(inst.release) and all(x is zeros[0] for x in zeros) and zeros[0] == 0.0


def test_default_instance_memory():
    """A default 5,000-job instance takes 12.3 MB when every entry is its own object."""
    tracemalloc.start()
    try:
        inst = generate_instance(SimConfig(), seed=1)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inst.release) == 5000
    assert size < 8e6


def test_wide_shop_holds_each_distance_once():
    """Distances and travel times: one object per distinct value, not m * m."""
    config = SimConfig(num_machines=1000, total_jobs=20, warmup_jobs=2)
    inst = generate_instance(config, seed=5)
    lo, hi = config.distance_range
    rows = (inst.entry_distances, *inst.machine_distances)
    assert len({id(d) for row in rows for d in row}) <= (hi - lo + 1) + 1  # and one 0.0
    assert len({id(t) for row in inst.travel for t in row if t}) <= hi - lo + 1
    assert inst.travel == tuple(tuple(d / config.transport_speed for d in row) for row in rows)


def test_travel_divides_every_zero():
    """0, 0.0 and -0.0 are equal keys but travel as 0.0, 0.0 and -0.0."""
    inst = generate_instance(SimConfig(num_machines=3, total_jobs=10, warmup_jobs=1), seed=1)
    odd = replace(
        inst, entry_distances=(-0.0, 0, 35.0), machine_distances=((0.0, 35, 35.0), *inst.machine_distances[1:])
    )
    rows = (odd.entry_distances, *odd.machine_distances)
    assert repr(odd.travel) == repr(tuple(tuple(d / 5.0 for d in row) for row in rows))


def test_eligible_sets_are_uniform():
    """Set sizes are uniform on 1..m and every machine is equally likely to be eligible.

    Each count must lie within 4 binomial standard deviations of its
    expectation: 1/m of the operations for each size, and (m + 1) / 2m of
    them for each machine, the mean size over m.
    """
    m = 6
    inst = generate_instance(SimConfig(num_machines=m, total_jobs=2000, warmup_jobs=10), seed=41)
    ops = [machines for *_, chain in jobs_of(inst) for _, machines, _, _ in chain]
    n = len(ops)
    sizes = Counter(len(machines) for machines in ops)
    inclusion = Counter(i for machines in ops for i in machines)
    assert set(sizes) == set(range(1, m + 1)) and set(inclusion) == set(range(m))
    for counts, p in ((sizes, 1 / m), (inclusion, (m + 1) / (2 * m))):
        sigma = math.sqrt(n * p * (1 - p))
        for key, count in counts.items():
            assert abs(count - n * p) < 4 * sigma, (key, count, n * p)


@pytest.mark.parametrize(
    "config, seed, digest",
    [
        (
            SimConfig(num_machines=3, total_jobs=25, warmup_jobs=2),
            4,
            "8dbb16ec35d65e59c0bf10e1fe2e8810c8e9ba10d457db07fa2bff91da0ade18",
        ),
        (
            SimConfig(
                num_machines=7, total_jobs=40, warmup_jobs=4, utilization=0.95,
                weight_mix=((1, 0.1), (2, 0.2), (4, 0.3), (8, 0.4)),
            ),
            1001,
            "0fb9d02a973a4694ad8a9068f664459ba1d4e8ef0e495916a9fd1ef680e18f7f",
        ),
    ],
)
def test_dump_digest_is_pinned(tmp_path, config, seed, digest):
    path = tmp_path / "instance.jsonl"
    dump_instance(generate_instance(config, seed=seed), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_wide_shop_generation_peak():
    """The value bound reads the largest travel time, not an m * m array of them."""
    config = SimConfig(num_machines=1000, total_jobs=20, warmup_jobs=2)
    tracemalloc.start()
    try:
        generate_instance(config, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 19e6
