"""Problem instance generation and (de)serialization.

An instance freezes everything random about one simulation run: machine
rates, transport distances and the full job stream.  Identical
(config, seed) pairs always produce byte-identical instances.
"""
from __future__ import annotations

import bisect
import itertools
import json
import os
import statistics
from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .config import SimConfig


@dataclass(frozen=True, slots=True)
class Operation:
    """One processing step: eligible machines and the matching times.

    ``machines`` holds machine indexes in ascending order;
    ``proc_times[i]`` is workload / rate of ``machines[i]``.
    ``median_proc_time`` is the median over eligible machines, used for
    due dates and the work-remaining terminals.
    """

    workload: float
    machines: tuple[int, ...]
    proc_times: tuple[float, ...]
    median_proc_time: float


@dataclass(frozen=True, slots=True)
class Job:
    """A job with its release time, weight, due date and operation chain.

    Ids are 1-based and ordered by release; jobs with id <= warmup_jobs
    are simulated but excluded from the objectives.
    """

    id: int
    release: float
    weight: int
    due: float
    operations: tuple[Operation, ...]


@dataclass(frozen=True)
class Instance:
    config: SimConfig
    seed: int
    machine_rates: tuple[float, ...]
    entry_distances: tuple[float, ...]
    machine_distances: tuple[tuple[float, ...], ...]
    jobs: tuple[Job, ...]


def arrival_rate_for_utilization(config: SimConfig) -> float:
    """Poisson arrival rate that hits the configured machine utilization.

    Expected work per job is E[ops per job] * E[workload] / E[rate]
    (midpoint expectations), so the rate solves
    utilization = rate * E[work per job] / num_machines.
    """
    ops_lo, ops_hi = config.ops_per_job_range
    wl_lo, wl_hi = config.workload_range
    r_lo, r_hi = config.rate_range
    mean_ops = (ops_lo + ops_hi) / 2.0
    mean_workload = (wl_lo + wl_hi) / 2.0
    mean_rate = (r_lo + r_hi) / 2.0
    mean_proc = mean_workload / mean_rate
    return config.utilization * config.num_machines / (mean_ops * mean_proc)


def _halves(raw):
    """32-bit draws as numpy's PCG64 makes them: low, then high half."""
    while True:
        word = raw()
        yield word & 0xFFFFFFFF
        yield word >> 32


def _integer_drawer(bit_generator):
    """Return ``draw(r)``, a uniform integer on [0, r] for 0 <= r < 2**63.

    ``draw`` consumes raw PCG64 words exactly as ``Generator.integers``
    does, so it can be mixed with numpy's own 64-bit draws
    (``exponential``, ``random``) as long as numpy has made no 32-bit
    draw on the generator.  A range of 0 draws nothing.  A range below
    2**32 is Lemire's method on 32-bit draws, each the low and then the
    high half of one raw word; the unused high half waits for the next
    32-bit draw, across any 64-bit draws in between, as numpy's buffer
    does.  A wider range is Lemire's method on whole raw words.
    """
    raw = bit_generator.random_raw
    half = _halves(raw).__next__

    def draw(r: int) -> int:
        if r == 0:
            return 0
        n = r + 1
        if r > 0xFFFFFFFF:
            prod = raw() * n
            while prod & 0xFFFFFFFFFFFFFFFF < n and prod & 0xFFFFFFFFFFFFFFFF < (1 << 64) % n:
                prod = raw() * n
            return prod >> 64
        prod = half() * n
        while prod & 0xFFFFFFFF < n and prod & 0xFFFFFFFF < (1 << 32) % n:
            prod = half() * n
        return prod >> 32

    return draw


def _sample_machines(draw, m: int, k: int) -> tuple[int, ...]:
    """Sorted k of range(m), as ``sorted(rng.choice(m, k, replace=False))``.

    numpy picks the set with Floyd's algorithm (k draws on [0, j] for
    j = m - k .. m - 1), then shuffles it (k - 1 draws on [0, i] for
    i = k - 1 .. 1), whose outcome sorting discards.  Above 10,000
    elements with k > m // 50 it instead shuffles the tail of range(m).
    """
    if m > 10000 and k > m // 50:
        pool = list(range(m))
        for i in range(m - 1, max(m - k, 1) - 1, -1):
            j = draw(i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[m - k:]))
    chosen = set()
    for j in range(m - k, m):
        v = draw(j)
        chosen.add(j if v in chosen else v)
    for i in range(k - 1, 0, -1):
        draw(i)
    return tuple(sorted(chosen))


def _low_and_span(lo, hi) -> tuple[int, int]:
    """Offset and range of ``integers(lo, hi + 1)``, which applies int() to both bounds."""
    low = int(lo)
    return low, int(hi + 1) - 1 - low


def generate_instance(config: SimConfig, seed: int | None = None) -> Instance:
    """Sample a full instance from one PCG64 stream seeded with ``seed``.

    The stream is the one numpy's ``default_rng(seed)`` calls would
    consume; integers are drawn in Python from its raw words (see
    ``_integer_drawer``), the rest by numpy.  Draw order, fixed for
    reproducibility:

    1. ``uniform(*rate_range, size=m)``: one double per machine rate;
    2. entry distances, then pairwise distances (upper triangle, row by
       row), each ``integers(d_lo, d_hi + 1)``;
    3. per job: the inter-arrival gap ``exponential(1 / lambda)``; the
       operation count ``integers(ops_lo, ops_hi + 1)``; per operation
       the workload ``integers(wl_lo, wl_hi + 1)``, the eligible-set
       size ``integers(1, m + 1)`` and the eligible set
       ``choice(m, size, replace=False)`` (see ``_sample_machines``);
       then the weight, ``choice(weights, p=probs)``: one double
       ``(raw >> 11) * 2**-53`` located with ``bisect_right`` in the
       cumulative probabilities divided by their total.
    """
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    m = config.num_machines

    rates = tuple(float(r) for r in rng.uniform(*config.rate_range, size=m))

    draw = _integer_drawer(rng.bit_generator)
    d_lo, d_span = _low_and_span(*config.distance_range)
    entry = tuple(float(d_lo + draw(d_span)) for _ in range(m))
    dist = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = float(d_lo + draw(d_span))
            dist[i][j] = d
            dist[j][i] = d
    machine_distances = tuple(tuple(row) for row in dist)

    scale = 1.0 / arrival_rate_for_utilization(config)
    ops_lo, ops_span = _low_and_span(*config.ops_per_job_range)
    wl_lo, wl_span = _low_and_span(*config.workload_range)
    weights = [w for w, _ in config.weight_mix]
    cdf = list(itertools.accumulate(float(p) for _, p in config.weight_mix))
    cdf = [c / cdf[-1] for c in cdf]
    raw = rng.bit_generator.random_raw
    exponential = rng.exponential

    jobs = []
    clock = 0.0
    for job_id in range(1, config.total_jobs + 1):
        clock += float(exponential(scale))
        operations = []
        total_median = 0.0
        for _ in range(ops_lo + draw(ops_span)):
            workload = float(wl_lo + draw(wl_span))
            members = _sample_machines(draw, m, 1 + draw(m - 1))
            proc_times = tuple(workload / rates[idx] for idx in members)
            median = statistics.median(proc_times)
            operations.append(
                Operation(
                    workload=workload,
                    machines=members,
                    proc_times=proc_times,
                    median_proc_time=median,
                )
            )
            total_median += median
        weight = int(weights[bisect.bisect_right(cdf, (raw() >> 11) * 2.0**-53)])
        due = clock + config.due_date_factor * total_median
        jobs.append(
            Job(
                id=job_id,
                release=clock,
                weight=weight,
                due=due,
                operations=tuple(operations),
            )
        )

    return Instance(
        config=config,
        seed=seed,
        machine_rates=rates,
        entry_distances=entry,
        machine_distances=machine_distances,
        jobs=tuple(jobs),
    )


# ------------------------------------------------------------ persistence

_CONFIG_FIELDS = (
    "num_machines",
    "total_jobs",
    "warmup_jobs",
    "utilization",
    "rate_range",
    "workload_range",
    "ops_per_job_range",
    "distance_range",
    "transport_speed",
    "weight_mix",
    "due_date_factor",
    "seed",
)


def _config_to_dict(config: SimConfig) -> dict:
    out = {}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if isinstance(value, tuple):
            value = list(list(v) if isinstance(v, tuple) else v for v in value)
        out[name] = value
    return out


def _config_from_dict(data: dict) -> SimConfig:
    kwargs = {}
    for name in _CONFIG_FIELDS:
        value = data[name]
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[name] = value
    return SimConfig(**kwargs)


def dump_instance(instance: Instance, path: str) -> None:
    """Write an instance as JSON lines: one header line, then one per job.

    Output is deterministic (sorted keys, no timestamps), so identical
    instances serialize to byte-identical files.  Writes via a temp file
    and atomic rename.
    """
    header = {
        "kind": "gpshop-instance",
        "version": 1,
        "config": _config_to_dict(instance.config),
        "seed": instance.seed,
        "machine_rates": list(instance.machine_rates),
        "entry_distances": list(instance.entry_distances),
        "machine_distances": [list(row) for row in instance.machine_distances],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for job in instance.jobs:
            record = {
                "id": job.id,
                "release": job.release,
                "weight": job.weight,
                "due": job.due,
                "ops": [
                    {
                        "workload": op.workload,
                        "machines": list(op.machines),
                        "proc_times": list(op.proc_times),
                        "median": op.median_proc_time,
                    }
                    for op in job.operations
                ],
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp, path)


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read instance file {path!r}: {exc}") from exc
    if not lines:
        raise DataError(f"instance file {path!r} is empty")
    try:
        header = json.loads(lines[0])
        if header.get("kind") != "gpshop-instance":
            raise DataError(f"{path!r} is not an instance file")
        config = _config_from_dict(header["config"])
        jobs = []
        for line in lines[1:]:
            rec = json.loads(line)
            operations = tuple(
                Operation(
                    workload=op["workload"],
                    machines=tuple(op["machines"]),
                    proc_times=tuple(op["proc_times"]),
                    median_proc_time=op["median"],
                )
                for op in rec["ops"]
            )
            jobs.append(
                Job(
                    id=rec["id"],
                    release=rec["release"],
                    weight=rec["weight"],
                    due=rec["due"],
                    operations=operations,
                )
            )
        return Instance(
            config=config,
            seed=header["seed"],
            machine_rates=tuple(header["machine_rates"]),
            entry_distances=tuple(header["entry_distances"]),
            machine_distances=tuple(tuple(row) for row in header["machine_distances"]),
            jobs=tuple(jobs),
        )
    except DataError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"malformed instance file {path!r}: {exc}") from exc
