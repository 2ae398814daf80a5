"""Problem instance generation and (de)serialization.

An instance freezes everything random about one simulation run: machine
rates, transport distances and the full job stream.  Identical
(config, seed) pairs always produce byte-identical instances.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError
from ..expr import MAX_INSTANCE_VALUE
from ..fileio import write_text_atomic
from .config import SimConfig


@dataclass(frozen=True)
class Instance:
    """One frozen simulation input: machines, distances and the job stream.

    The job stream is held as columns.  ``release``, ``weight`` and
    ``due`` are indexed by job position ``j``; the job's id is ``j + 1``,
    ids follow release order, and jobs with id <= warmup_jobs are
    simulated but excluded from the objectives.  ``workload``,
    ``machines``, ``proc_times`` and ``median`` are indexed ``[j][k]`` by
    job and operation: an operation's eligible machines in ascending
    order, ``proc_times[j][k][i]`` = workload / rate of
    ``machines[j][k][i]``, and the median of those times.  A due date is
    ``release + due_date_factor`` times the job's medians summed in
    operation order.

    ``npt`` and ``wkr``, also ``[j][k]``, are derived on construction:
    the next operation's median (NPT, 0 for the last operation) and the
    medians from that operation on, itself included, summed from the
    last operation back (WKR).  They are left out of equality, ``repr``
    and ``dump_instance``.
    """

    config: SimConfig
    seed: int
    machine_rates: tuple[float, ...]
    entry_distances: tuple[float, ...]
    machine_distances: tuple[tuple[float, ...], ...]
    release: tuple[float, ...]
    weight: tuple[int, ...]
    due: tuple[float, ...]
    workload: tuple[tuple[float, ...], ...]
    machines: tuple[tuple[tuple[int, ...], ...], ...]
    proc_times: tuple[tuple[tuple[float, ...], ...], ...]
    median: tuple[tuple[float, ...], ...]
    npt: list[list[float]] = field(init=False, repr=False, compare=False)
    wkr: list[list[float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        npt: list[list[float]] = []
        wkr: list[list[float]] = []
        for medians in self.median:
            npt.append([*medians[1:], 0.0])
            remaining = []
            acc = 0.0
            for med in reversed(medians):
                acc += med
                remaining.append(acc)
            remaining.reverse()
            wkr.append(remaining)
        object.__setattr__(self, "npt", npt)
        object.__setattr__(self, "wkr", wkr)


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


def _check_magnitudes(release, due, weight, proc_times, travel) -> None:
    """Raise ValueError unless every value lies strictly within +/-MAX_INSTANCE_VALUE.

    NaN fails too.  This bound is what keeps every rule terminal, and so
    every rule score, finite (see ``expr.MAX_MAGNITUDE``).
    """
    columns = {
        "release": release, "due date": due, "weight": weight,
        "processing time": proc_times, "travel time": travel,
    }
    for name, values in columns.items():
        values = np.asarray(values, dtype=float)
        bad = ~(np.abs(values) < MAX_INSTANCE_VALUE)
        if bad.any():
            raise ValueError(
                f"{name} {float(values[bad][0])!r} is outside (-{MAX_INSTANCE_VALUE:g}, {MAX_INSTANCE_VALUE:g})"
            )


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

    Raises ConfigError if a release, due date, weight, processing time or
    travel time is not within +/-MAX_INSTANCE_VALUE.
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

    def split(values: list | tuple, ends: list) -> tuple:
        """``values`` cut into tuples that end at ``ends``."""
        values = tuple(values)
        return tuple([values[a:b] for a, b in zip([0, *ends], ends)])

    op_ends, job_ends = np.cumsum(sizes).tolist(), np.cumsum(n_ops).tolist()
    proc_times = np.repeat(workloads, sizes) / rates[machines]
    op_times = split(proc_times.tolist(), op_ends)
    medians = split([statistics.median(times) for times in op_times], job_ends)
    releases = releases.tolist()
    due = []
    for release, job_medians in zip(releases, medians):
        total_median = 0.0
        for med in job_medians:
            total_median += med
        due.append(release + config.due_date_factor * total_median)
    try:
        _check_magnitudes(releases, due, weights, proc_times, distances / config.transport_speed)
    except ValueError as exc:
        raise ConfigError(f"the config generates an out-of-range instance: {exc}") from exc

    return Instance(
        config=config,
        seed=seed,
        machine_rates=tuple(rates.tolist()),
        entry_distances=tuple(distances[:m].tolist()),
        machine_distances=tuple(machine_distances),
        release=tuple(releases),
        weight=tuple(weights.tolist()),
        due=tuple(due),
        workload=split(workloads.tolist(), job_ends),
        machines=split(split(machines.tolist(), op_ends), job_ends),
        proc_times=split(op_times, job_ends),
        median=medians,
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
    for j, release in enumerate(instance.release):
        record = {
            "id": j + 1,
            "release": release,
            "weight": instance.weight[j],
            "due": instance.due[j],
            "ops": [
                {"workload": workload, "machines": list(machines), "proc_times": list(times), "median": median}
                for workload, machines, times, median in zip(
                    instance.workload[j], instance.machines[j], instance.proc_times[j], instance.median[j]
                )
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
    if len(instance.release) != config.total_jobs:
        raise ValueError(f"expected {config.total_jobs} jobs, found {len(instance.release)}")
    _check_magnitudes(
        instance.release, instance.due, instance.weight,
        [t for job in instance.proc_times for times in job for t in times],
        [d / config.transport_speed for row in (instance.entry_distances, *instance.machine_distances) for d in row],
    )
    weights = {w for w, _ in config.weight_mix}
    previous = -math.inf
    columns = zip(
        instance.release, instance.weight, instance.due,
        instance.workload, instance.machines, instance.proc_times, instance.median,
    )
    for job_id, (release, weight, due, workloads, machine_sets, op_times, medians) in enumerate(columns, 1):
        if not release >= previous:
            raise ValueError(f"job {job_id}: release {release} is before the previous job's")
        previous = release
        if weight not in weights:
            raise ValueError(f"job {job_id}: weight {weight} is not in the weight mix")
        if not workloads:
            raise ValueError(f"job {job_id} has no operations")
        total_median = 0.0
        for k, (workload, machines, times, median) in enumerate(zip(workloads, machine_sets, op_times, medians)):
            where = f"job {job_id} op {k}"
            if not (machines and list(machines) == sorted(set(machines)) and 0 <= machines[0] and machines[-1] < m):
                raise ValueError(f"{where}: machines {list(machines)} must be sorted, unique and in range({m})")
            if times != tuple(workload / rates[i] for i in machines):
                raise ValueError(f"{where}: processing times are not workload / machine rate")
            if median != statistics.median(times):
                raise ValueError(f"{where}: median {median} is not the processing times' median")
            total_median += median
        if due != release + config.due_date_factor * total_median:
            raise ValueError(f"job {job_id}: due date is not release + due_date_factor * total median")


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
        jobs = [json.loads(line) for line in lines[1:]]
        for position, rec in enumerate(jobs, 1):
            if rec["id"] != position:
                raise ValueError(f"job ids must run 1..n in order; job {position} has id {rec['id']}")
        ops = [rec["ops"] for rec in jobs]
        instance = Instance(
            config=config,
            seed=header["seed"],
            machine_rates=tuple(header["machine_rates"]),
            entry_distances=tuple(header["entry_distances"]),
            machine_distances=tuple(tuple(row) for row in header["machine_distances"]),
            release=tuple(rec["release"] for rec in jobs),
            weight=tuple(rec["weight"] for rec in jobs),
            due=tuple(rec["due"] for rec in jobs),
            workload=tuple(tuple(op["workload"] for op in job) for job in ops),
            machines=tuple(tuple(tuple(op["machines"]) for op in job) for job in ops),
            proc_times=tuple(tuple(tuple(op["proc_times"]) for op in job) for job in ops),
            median=tuple(tuple(op["median"] for op in job) for job in ops),
        )
        _check_instance(instance)
        return instance
    except DataError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"malformed instance file {path!r}: {exc}") from exc
