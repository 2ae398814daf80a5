"""Problem instance generation and (de)serialization.

An instance freezes everything random about one simulation run: machine
rates, transport distances and the full job stream.  Identical
(config, seed) pairs always produce byte-identical instances.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..errors import DataError
from ..fileio import write_text_atomic
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


class JobTables(NamedTuple):
    """An instance's static job data as lists indexed by job position.

    The per-operation lists are indexed ``[job][op]``: eligible machines,
    their processing times, the next operation's median processing time
    (NPT, 0 for the last operation) and the median work remaining from
    that operation on, itself included (WKR).
    """

    release: list[float]
    due: list[float]
    weight: list[int]
    n_ops: list[int]
    machines: list[list[tuple[int, ...]]]
    proc_times: list[list[tuple[float, ...]]]
    npt: list[list[float]]
    wkr: list[list[float]]


@dataclass(frozen=True)
class Instance:
    config: SimConfig
    seed: int
    machine_rates: tuple[float, ...]
    entry_distances: tuple[float, ...]
    machine_distances: tuple[tuple[float, ...], ...]
    jobs: tuple[Job, ...]

    @cached_property
    def tables(self) -> JobTables:
        """The job data the simulator reads, built on first use and kept.

        Not a dataclass field, so equality, ``repr`` and ``dump_instance``
        are unaffected.
        """
        jobs = self.jobs
        npt: list[list[float]] = []
        wkr: list[list[float]] = []
        for job in jobs:
            medians = [op.median_proc_time for op in job.operations]
            npt.append(medians[1:] + [0.0])
            remaining = []
            acc = 0.0
            for med in reversed(medians):
                acc += med
                remaining.append(acc)
            remaining.reverse()
            wkr.append(remaining)
        return JobTables(
            release=[job.release for job in jobs],
            due=[job.due for job in jobs],
            weight=[job.weight for job in jobs],
            n_ops=[len(job.operations) for job in jobs],
            machines=[[op.machines for op in job.operations] for job in jobs],
            proc_times=[[op.proc_times for op in job.operations] for job in jobs],
            npt=npt,
            wkr=wkr,
        )


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


# Eligibility keys drawn per block: a wide shop's keys, ops x machines,
# are never all held at once.
_KEY_BLOCK = 2**20


def _eligible_machines(rng: np.random.Generator, m: int, sizes: np.ndarray) -> np.ndarray:
    """Each operation's eligible machines, concatenated in operation order.

    An operation of size k draws one uniform key per machine, ``random``
    on a (block rows, m) array, and takes the k machines with the lowest
    keys (ties to the lower index), listed in ascending machine order.
    Blocks hold ``_KEY_BLOCK // m`` operations, at least one.
    """
    rows = max(1, _KEY_BLOCK // m)
    chosen = []
    for start in range(0, len(sizes), rows):
        k = sizes[start:start + rows]
        keys = rng.random((len(k), m))
        rank = np.argsort(np.argsort(keys, axis=1, kind="stable"), axis=1)
        chosen.append(np.nonzero(rank < k[:, None])[1])
    return np.concatenate(chosen)


def generate_instance(config: SimConfig, seed: int | None = None) -> Instance:
    """Sample a full instance from ``np.random.default_rng(seed)``.

    Each field is one vectorised draw, in this order, fixed for
    reproducibility (m machines, n jobs, N operations in all):

    1. machine rates, ``uniform(*rate_range, size=m)``;
    2. distances, ``integers(d_lo, d_hi + 1, size=m * (m + 1) // 2)``:
       the m entry distances, then the pairwise ones (upper triangle, row
       by row);
    3. inter-arrival gaps, ``exponential(1 / lambda, size=n)``; releases
       are their cumulative sum;
    4. operation counts, ``integers(ops_lo, ops_hi + 1, size=n)``;
    5. workloads, ``integers(wl_lo, wl_hi + 1, size=N)``;
    6. eligible-set sizes, ``integers(1, m + 1, size=N)``;
    7. eligibility keys, ``random`` in blocks of at most ``_KEY_BLOCK``
       keys (see ``_eligible_machines``);
    8. weights, ``choice(weights, size=n, p=probs)``.

    Every job's gap is drawn before any operation, so an instance with
    fewer jobs is not a prefix of one with more.  Bounded integers are
    uint64, and integral float bounds give the same instance as int
    bounds.  The block size does not change the stream.  A median is
    ``statistics.median`` of the operation's processing times, and a due
    date is ``release + due_date_factor * total_median``, the medians
    summed in operation order.
    """
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    m, n = config.num_machines, config.total_jobs

    def integers(bounds, size):
        lo, hi = bounds
        return rng.integers(int(lo), int(hi) + 1, size=size, dtype=np.uint64)

    rates = rng.uniform(*config.rate_range, size=m)
    distances = integers(config.distance_range, m * (m + 1) // 2).astype(float)
    releases = np.cumsum(rng.exponential(1.0 / arrival_rate_for_utilization(config), size=n))
    n_ops = integers(config.ops_per_job_range, n)
    workloads = integers(config.workload_range, int(n_ops.sum())).astype(float)
    sizes = rng.integers(1, m + 1, size=len(workloads))
    machines = _eligible_machines(rng, m, sizes)
    weights = rng.choice([int(w) for w, _ in config.weight_mix], size=n, p=[p for _, p in config.weight_mix])

    # Row i takes its lower part from column i of the rows above, so the
    # matrix holds each pairwise distance once.
    machine_distances = []
    start = m
    for i in range(m):
        right = distances[start:start + m - 1 - i].tolist()
        machine_distances.append(tuple([row[i] for row in machine_distances] + [0.0] + right))
        start += m - 1 - i

    proc = (np.repeat(workloads, sizes) / rates[machines]).tolist()
    machines, ends = machines.tolist(), np.cumsum(sizes)
    ops = []
    for workload, a, b in zip(workloads.tolist(), (ends - sizes).tolist(), ends.tolist()):
        times = tuple(proc[a:b])
        ops.append(Operation(workload, tuple(machines[a:b]), times, statistics.median(times)))
    jobs = []
    first = 0
    for job_id, release, count, weight in zip(range(1, n + 1), releases.tolist(), n_ops.tolist(), weights.tolist()):
        operations = tuple(ops[first:first + count])
        total_median = 0.0
        for op in operations:
            total_median += op.median_proc_time
        jobs.append(Job(job_id, release, weight, release + config.due_date_factor * total_median, operations))
        first += count

    return Instance(
        config=config,
        seed=seed,
        machine_rates=tuple(rates.tolist()),
        entry_distances=tuple(distances[:m].tolist()),
        machine_distances=tuple(machine_distances),
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
    instances serialize to byte-identical files.  Written with
    ``write_text_atomic``.
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
    lines = [json.dumps(header, sort_keys=True) + "\n"]
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
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    write_text_atomic(path, "".join(lines))


def _check_instance(instance: Instance) -> None:
    """Raise ValueError where ``instance`` breaks what ``generate_instance`` guarantees."""
    config = instance.config
    m = config.num_machines
    rates = instance.machine_rates
    if len(rates) != m or len(instance.entry_distances) != m:
        raise ValueError(f"expected {m} machine rates and {m} entry distances")
    if not all(0 < r < math.inf for r in rates):
        raise ValueError("machine rates must be positive and finite")
    if len(instance.machine_distances) != m or any(len(row) != m for row in instance.machine_distances):
        raise ValueError(f"the distance matrix must be {m} x {m}")
    if not all(0 <= d < math.inf for row in (instance.entry_distances, *instance.machine_distances) for d in row):
        raise ValueError("distances must be non-negative and finite")
    weights = {w for w, _ in config.weight_mix}
    previous = -math.inf
    for position, job in enumerate(instance.jobs, 1):
        if job.id != position:
            raise ValueError(f"job ids must run 1..n in order; job {position} has id {job.id}")
        if not job.release >= previous:
            raise ValueError(f"job {job.id}: release {job.release} is before the previous job's")
        previous = job.release
        if job.weight not in weights:
            raise ValueError(f"job {job.id}: weight {job.weight} is not in the weight mix")
        if not job.operations:
            raise ValueError(f"job {job.id} has no operations")
        total_median = 0.0
        for k, op in enumerate(job.operations):
            where = f"job {job.id} op {k}"
            machines = op.machines
            if not (machines and list(machines) == sorted(set(machines)) and 0 <= machines[0] and machines[-1] < m):
                raise ValueError(f"{where}: machines {list(machines)} must be sorted, unique and in range({m})")
            if op.proc_times != tuple(op.workload / rates[i] for i in machines):
                raise ValueError(f"{where}: processing times are not workload / machine rate")
            if op.median_proc_time != statistics.median(op.proc_times):
                raise ValueError(f"{where}: median {op.median_proc_time} is not the processing times' median")
            total_median += op.median_proc_time
        if job.due != job.release + config.due_date_factor * total_median:
            raise ValueError(f"job {job.id}: due date is not release + due_date_factor * total median")


def load_instance(path: str) -> Instance:
    """Read an instance written by ``dump_instance``; DataError if it is unreadable or inconsistent."""
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
        instance = Instance(
            config=config,
            seed=header["seed"],
            machine_rates=tuple(header["machine_rates"]),
            entry_distances=tuple(header["entry_distances"]),
            machine_distances=tuple(tuple(row) for row in header["machine_distances"]),
            jobs=tuple(jobs),
        )
        _check_instance(instance)
        return instance
    except DataError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"malformed instance file {path!r}: {exc}") from exc
