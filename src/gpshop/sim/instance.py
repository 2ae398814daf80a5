"""Problem instance generation and (de)serialization.

An instance freezes everything random about one simulation run: machine
rates, transport distances and the full job stream.  Identical
(config, seed) pairs always produce byte-identical instances.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from ..errors import ConfigError, DataError
from ..expr import MAX_INSTANCE_VALUE, MAX_MAGNITUDE
from ..fileio import write_text_atomic
from .config import SimConfig, config_from_mapping


@dataclass(frozen=True)
class Instance:
    """One frozen simulation input: machines, distances and the job stream.

    The job stream is held as flat columns of plain Python values, in
    three tables linked by offsets (n jobs, N operations, C candidates):

    * per job ``j``: ``release``, ``weight`` and ``due``.  The job's id is
      ``j + 1``, ids follow release order, and jobs with id <= warmup_jobs
      are simulated but excluded from the objectives.  ``op_start`` has
      n + 1 entries: job j's operations, in order, are the global
      operation indices ``op_start[j]`` to ``op_start[j + 1] - 1``.
    * per operation ``o``: ``workload`` and ``median``, the median of its
      processing times.  ``cand_start`` has N + 1 entries: operation o's
      candidates are ``cand_start[o]`` to ``cand_start[o + 1] - 1``.
    * per candidate ``i``, one eligible (operation, machine) pair:
      ``machines[i]``, ascending within each operation, and
      ``proc_times[i]`` = workload / rate of that machine.

    ``proc_times``, ``median`` and ``due`` follow ``_timing_columns``.

    ``npt`` and ``wkr``, per operation, are derived on construction by
    ``_derived_columns``: the next operation's median (NPT, 0 for a job's
    last operation) and the medians from that operation on, itself
    included, summed from the job's last operation back (WKR).  They are
    left out of equality, ``repr`` and ``dump_instance``; every other
    column is given.  ``travel`` is derived on first use.

    Columns share their number objects where values repeat.  ``npt``
    holds ``median``'s own objects and one 0.0.  ``generate_instance``
    holds one float object per distinct value in ``workload``,
    ``proc_times`` and the distances, and ``travel`` holds one per
    distinct non-zero distance.  Only object identity is shared:
    values, equality, ``repr`` and dumps are those of one object per
    entry.
    """

    config: SimConfig
    seed: int
    machine_rates: tuple[float, ...]
    entry_distances: tuple[float, ...]
    machine_distances: tuple[tuple[float, ...], ...]
    release: tuple[float, ...]
    weight: tuple[int, ...]
    due: tuple[float, ...]
    op_start: tuple[int, ...]
    workload: tuple[float, ...]
    median: tuple[float, ...]
    cand_start: tuple[int, ...]
    machines: tuple[int, ...]
    proc_times: tuple[float, ...]
    npt: tuple[float, ...] = field(init=False, repr=False, compare=False)
    wkr: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        following, wkr = _derived_columns(self.op_start, self.median)
        medians = np.empty(len(self.median) + 1, dtype=object)
        medians[:-1] = self.median
        medians[-1] = 0.0
        object.__setattr__(self, "npt", tuple(medians[following].tolist()))
        object.__setattr__(self, "wkr", tuple(wkr.tolist()))

    @cached_property
    def travel(self) -> tuple[tuple[float, ...], ...]:
        """Travel times, distance / transport_speed: row 0 from the entry point, row 1 + i from machine i."""
        quotients = _Quotients(self.config.transport_speed)
        return tuple(tuple(map(quotients.__getitem__, row)) for row in (self.entry_distances, *self.machine_distances))


class _Quotients(dict):
    """``q[d]`` is ``d / divisor``, divided once per distinct non-zero ``d``.

    A zero is divided each time: 0, 0.0, -0.0 and False are equal keys,
    but their quotients are 0.0 or -0.0.
    """

    def __init__(self, divisor: float):
        super().__init__()
        self.divisor = divisor

    def __missing__(self, d):
        quotient = d / self.divisor
        if d:
            self[d] = quotient
        return quotient


def _derived_columns(op_start, median) -> tuple[np.ndarray, np.ndarray]:
    """Per operation, where its NPT is in ``median + (0.0,)``, and its WKR.

    NPT is the next operation's median, index ``o + 1``, or the appended
    0.0, index ``len(median)``, for a job's last operation.  WKR is
    vectorised position by position over the jobs, in the order a per-job
    loop adds: it starts at 0.0 plus the last median and adds each
    earlier median in turn, ``wkr[o] = wkr[o + 1] + median[o]``.
    """
    op_start = np.asarray(op_start, dtype=np.int64)
    first, n_ops = op_start[:-1], np.diff(op_start)
    median = np.asarray(median, dtype=float)
    following = np.arange(1, len(median) + 1)
    following[op_start[1:][n_ops > 0] - 1] = len(median)
    wkr = 0.0 + median
    for k in range(int(n_ops.max(initial=0)) - 2, -1, -1):
        ops = first[n_ops > k + 1] + k
        wkr[ops] = wkr[ops + 1] + median[ops]
    return following, wkr


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
    """Raise ValueError unless every rule score and every objective stays finite.

    Every value must lie strictly within +/-MAX_INSTANCE_VALUE (NaN fails
    too).  This bound is what keeps every rule terminal, and so every rule
    score, finite (see ``expr.MAX_MAGNITUDE``).

    The weighted objectives need one more bound, since a weight and a
    tardiness each within it can multiply past the double range: with n
    jobs, w = max(1, largest |weight|) and

        H = (last release - first release) + (sum of processing times)
            + (number of processing times) * (largest travel time)
            + max |due - release|,

    n * w * H must lie below MAX_MAGNITUDE.  H bounds every flowtime and
    tardiness.  From the last release R until the last completion, some
    operation is always being processed or in transit: a machine falls
    idle only with an empty queue, and an operation arriving at an idle
    machine starts at once.  Each operation is processed once, for at most
    its longest eligible time, and travels once, for at most the largest
    travel time; ``proc_times`` holds every eligible time, so its sum and
    its length bound the operations' work and count.  So every completion
    C_j is at most R plus the two middle terms of H, the flowtime
    C_j - r_j is at most H less its last term, and the tardiness
    max(0, C_j - d_j) <= flowtime + |d_j - r_j| is at most H.  Each sum in ``compute_objectives`` adds n terms of at most
    w * H, so it stays below MAX_MAGNITUDE, and so does each mean.  H and
    the product are computed in floats; their rounding is far inside the
    gap between MAX_MAGNITUDE and the largest double.
    """
    columns = {
        "release": release, "due date": due, "weight": weight,
        "processing time": proc_times, "travel time": travel,
    }
    for name, values in columns.items():
        try:
            values = columns[name] = np.asarray(values, dtype=float)
        except OverflowError:
            raise ValueError(f"a {name} is too large for a double") from None
        bad = ~(np.abs(values) < MAX_INSTANCE_VALUE)
        if bad.any():
            raise ValueError(
                f"{name} {float(values[bad][0])!r} is outside (-{MAX_INSTANCE_VALUE:g}, {MAX_INSTANCE_VALUE:g})"
            )
    release, due, weight, proc_times, travel = columns.values()
    horizon = (
        float(release.max() - release.min()) + float(proc_times.sum())
        + proc_times.size * float(travel.max(initial=0.0)) + float(np.abs(due - release).max())
    )
    bound = len(release) * max(1.0, float(np.abs(weight).max())) * horizon
    if not bound < MAX_MAGNITUDE:
        raise ValueError(
            f"jobs x largest weight x horizon is {bound:g}, not below {MAX_MAGNITUDE:g}, "
            "so the weighted objectives could overflow"
        )


@np.errstate(over="ignore")
def _timing_columns(rates, release, op_start, workload, cand_start, machines, due_date_factor):
    """Processing times (workload / machine rate), medians and due dates, as float arrays.

    A median is the middle time, or (a + b) / 2 of the middle two, as
    ``statistics.median`` gives.  A due date is ``release +
    due_date_factor *`` the job's medians summed in operation order.  A
    value past the double range is inf, without a warning; callers reject
    it (``_check_magnitudes``, or ``_check_instance`` naming the factor).
    """
    rates, release, workload = (np.asarray(c, dtype=float) for c in (rates, release, workload))
    op_start, cand_start, machines = (np.asarray(c) for c in (op_start, cand_start, machines))
    sizes, n_ops = np.diff(cand_start), np.diff(op_start)
    proc_times = np.repeat(workload, sizes) / rates[machines]
    # The operations of eligible-set size s, as a row-sorted (count, s)
    # matrix.  bincount finds the sizes present, where np.unique would
    # import numpy.ma (about 1.4 MB resident); the stable kind reuses the
    # sort _eligible_machines already loaded.
    medians = np.empty(len(sizes))
    for s in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == s)
        times = np.sort(proc_times[cand_start[rows][:, None] + np.arange(s)], axis=1, kind="stable")
        half = s // 2
        medians[rows] = times[:, half] if s % 2 else (times[:, half - 1] + times[:, half]) / 2
    # Position by position, not np.add.reduceat, whose sums are pairwise.
    first = op_start[:-1]
    total_median = np.zeros(len(release))
    for k in range(int(n_ops.max(initial=0))):
        jobs = np.flatnonzero(n_ops > k)
        total_median[jobs] += medians[first[jobs] + k]
    return proc_times, medians, release + due_date_factor * total_median


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
    bounds.  The block size does not change the stream.  Processing
    times, medians and due dates follow from the draws by
    ``_timing_columns``, which ``load_instance`` checks files against.
    Workloads, processing times and distances hold one float object per
    distinct value.

    Raises ConfigError if a release, due date, weight, processing time or
    travel time is not within +/-MAX_INSTANCE_VALUE, or if the weighted
    objectives could overflow (see ``_check_magnitudes``).
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

    # One float object per distinct distance.  Row i takes its lower part
    # from column i of the rows above, so the matrix holds each pairwise
    # distance once.
    distinct: dict[float, float] = {}

    def shared_distances(start, stop):
        values = distances[start:stop].tolist()
        return list(map(distinct.setdefault, values, values))

    entry_distances = tuple(shared_distances(0, m))
    machine_distances = []
    start = m
    for i in range(m):
        right = shared_distances(start, start + m - 1 - i)
        machine_distances.append(tuple([row[i] for row in machine_distances] + [0.0] + right))
        start += m - 1 - i
    del distances  # the matrix holds every distance now

    cand_start = np.concatenate(([0], np.cumsum(sizes)))
    op_start = np.concatenate(([0], np.cumsum(n_ops, dtype=np.int64)))
    proc_times, medians, due = _timing_columns(
        rates, releases, op_start, workloads, cand_start, machines, config.due_date_factor
    )
    try:
        # Distances are non-negative, so the largest travel time decides the bound.
        _check_magnitudes(releases, due, weights, proc_times, [max(distinct) / config.transport_speed])
    except ValueError as exc:
        raise ConfigError(f"the config generates an out-of-range instance: {exc}") from exc

    # One float object per distinct workload, and one per distinct
    # processing time: keyed by (distinct workload, machine), for the keys
    # present, and divided as _timing_columns divides.
    workload_values, workload_index = np.unique(workloads, return_inverse=True)
    shared_workloads = np.empty(len(workload_values), dtype=object)
    shared_workloads[:] = workload_values.tolist()
    key = np.repeat(workload_index, sizes) * m + machines
    present = np.flatnonzero(np.bincount(key))
    shared_times = np.empty(len(workload_values) * m, dtype=object)
    shared_times[present] = (workload_values[present // m] / rates[present % m]).tolist()

    return Instance(
        config=config,
        seed=seed,
        machine_rates=tuple(rates.tolist()),
        entry_distances=entry_distances,
        machine_distances=tuple(machine_distances),
        release=tuple(releases.tolist()),
        weight=tuple(weights.tolist()),
        due=tuple(due.tolist()),
        op_start=tuple(op_start.tolist()),
        workload=tuple(shared_workloads[workload_index].tolist()),
        median=tuple(medians.tolist()),
        cand_start=tuple(cand_start.tolist()),
        machines=tuple(machines.tolist()),
        proc_times=tuple(shared_times[key].tolist()),
    )


# ------------------------------------------------------------ persistence

def _config_from_dict(data: dict) -> SimConfig:
    """The SimConfig written by ``dump_instance``: every field required, ValueError if invalid."""
    for f in fields(SimConfig):
        if f.name not in data:
            raise KeyError(f.name)
    try:
        return config_from_mapping(SimConfig, "config", data)
    except ConfigError as exc:
        raise ValueError(str(exc)) from exc


def dump_instance(instance: Instance, path: str) -> None:
    """Write an instance as JSON lines: one header line, then one per job.

    Each job line nests its operations, each with its workload, eligible
    machines, processing times and median.  Output is deterministic
    (sorted keys, no timestamps), so identical instances serialize to
    byte-identical files.  Written with ``write_text_atomic``.
    """
    header = {
        "kind": "gpshop-instance",
        "version": 1,
        "config": asdict(instance.config),
        "seed": instance.seed,
        "machine_rates": list(instance.machine_rates),
        "entry_distances": list(instance.entry_distances),
        "machine_distances": [list(row) for row in instance.machine_distances],
    }
    lines = [json.dumps(header, sort_keys=True) + "\n"]
    op_start, cand_start = instance.op_start, instance.cand_start
    for j, release in enumerate(instance.release):
        ops = []
        for o in range(op_start[j], op_start[j + 1]):
            a, b = cand_start[o], cand_start[o + 1]
            ops.append({
                "workload": instance.workload[o],
                "machines": list(instance.machines[a:b]),
                "proc_times": list(instance.proc_times[a:b]),
                "median": instance.median[o],
            })
        record = {"id": j + 1, "release": release, "weight": instance.weight[j], "due": instance.due[j], "ops": ops}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    write_text_atomic(path, "".join(lines))


def _first_mismatch(given: tuple, derived: tuple) -> int | None:
    """Index of the first entry in which two equally long columns differ; None if they are equal."""
    return None if given == derived else next(i for i, (a, b) in enumerate(zip(given, derived)) if a != b)


def _check_instance(instance: Instance) -> None:
    """Raise ValueError where ``instance`` breaks what ``generate_instance`` guarantees.

    Each operation's machines were checked as they were read (see
    ``load_instance``), so candidates line up with their machines.  The
    first value ``_timing_columns`` does not reproduce is named, column
    by column.
    """
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
        instance.release, instance.due, instance.weight, instance.proc_times,
        [max(map(max, (instance.entry_distances, *instance.machine_distances))) / config.transport_speed],
    )
    weights = {w for w, _ in config.weight_mix}
    op_start, cand_start = instance.op_start, instance.cand_start
    previous = -math.inf
    for j, (release, weight, due) in enumerate(zip(instance.release, instance.weight, instance.due)):
        job_id = j + 1
        if not release >= previous:
            raise ValueError(f"job {job_id}: release {release} is before the previous job's")
        previous = release
        if weight not in weights:
            raise ValueError(f"job {job_id}: weight {weight} is not in the weight mix")
        if op_start[j] == op_start[j + 1]:
            raise ValueError(f"job {job_id} has no operations")

    def where(o: int) -> str:
        j = bisect.bisect_right(op_start, o) - 1
        return f"job {j + 1} op {o - op_start[j]}"

    o = next((o for o, w in enumerate(instance.workload) if not 0 < w < math.inf), None)
    if o is not None:
        raise ValueError(f"{where(o)}: workload {instance.workload[o]} is not positive and finite")
    proc_times, median, due = (tuple(c.tolist()) for c in _timing_columns(
        rates, instance.release, op_start, instance.workload, cand_start, instance.machines, config.due_date_factor
    ))
    i = _first_mismatch(instance.proc_times, proc_times)
    if i is not None:
        o = bisect.bisect_right(cand_start, i) - 1
        raise ValueError(f"{where(o)}: processing times are not workload / machine rate")
    o = _first_mismatch(instance.median, median)
    if o is not None:
        raise ValueError(f"{where(o)}: median {instance.median[o]} is not the processing times' median")
    if not max(due) < math.inf:
        raise ValueError(f"due_date_factor {config.due_date_factor!r} times a job's total median overflows its due date")
    j = _first_mismatch(instance.due, due)
    if j is not None:
        raise ValueError(f"job {j + 1}: due date is not release + due_date_factor * total median")


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
        if not isinstance(header, dict) or header.get("kind") != "gpshop-instance":
            raise DataError(f"{path!r} is not an instance file")
        config = _config_from_dict(header["config"])
        m = config.num_machines
        jobs = [json.loads(line) for line in lines[1:]]
        op_start, cand_start = [0], [0]
        workload, median, machines, proc_times = [], [], [], []
        for position, rec in enumerate(jobs, 1):
            if not isinstance(rec, dict):
                raise ValueError(f"job line {position} is not a JSON object")
            if rec["id"] != position:
                raise ValueError(f"job ids must run 1..n in order; job {position} has id {rec['id']}")
            for k, op in enumerate(rec["ops"]):
                members, times = op["machines"], op["proc_times"]
                where = f"job {position} op {k}"
                ints = all(type(i) is int for i in members)
                if not (members and ints and members == sorted(set(members)) and 0 <= members[0] and members[-1] < m):
                    raise ValueError(f"{where}: machines {members} must be sorted, unique integers in range({m})")
                if len(times) != len(members):
                    raise ValueError(f"{where}: {len(times)} processing times for {len(members)} machines")
                workload.append(op["workload"])
                median.append(op["median"])
                machines += members
                proc_times += times
                cand_start.append(len(machines))
            op_start.append(len(workload))
        instance = Instance(
            config=config,
            seed=header["seed"],
            machine_rates=tuple(header["machine_rates"]),
            entry_distances=tuple(header["entry_distances"]),
            machine_distances=tuple(tuple(row) for row in header["machine_distances"]),
            release=tuple(rec["release"] for rec in jobs),
            weight=tuple(rec["weight"] for rec in jobs),
            due=tuple(rec["due"] for rec in jobs),
            op_start=tuple(op_start),
            workload=tuple(workload),
            median=tuple(median),
            cand_start=tuple(cand_start),
            machines=tuple(machines),
            proc_times=tuple(proc_times),
        )
        _check_instance(instance)
        return instance
    except DataError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"malformed instance file {path!r}: {exc}") from exc
