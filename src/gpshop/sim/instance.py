"""Problem instance generation and (de)serialization.

An instance freezes everything random about one simulation run: machine
rates, transport distances and the full job stream.  Identical
(config, seed) pairs always produce byte-identical instances.
"""
from __future__ import annotations

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


def generate_instance(config: SimConfig, seed: int | None = None) -> Instance:
    """Sample a full instance from one numpy Generator stream.

    Draw order (fixed for reproducibility): machine rates, entry
    distances, pairwise distances (upper triangle row by row), then per
    job: inter-arrival gap, operation count, per operation (workload,
    eligible-set size, eligible members), weight.
    """
    if seed is None:
        seed = config.seed
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
    machine_distances = tuple(tuple(row) for row in dist)

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
            operations.append(
                Operation(
                    workload=workload,
                    machines=members,
                    proc_times=proc_times,
                    median_proc_time=median,
                )
            )
            total_median += median
        weight = int(rng.choice(weights, p=probs))
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
