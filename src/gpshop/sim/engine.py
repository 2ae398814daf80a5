"""Discrete-event simulation of the dynamic flexible job shop.

Event semantics:

* A job release makes its first operation ready; ready operations are
  routed immediately (the routing rule scores every eligible machine and
  the minimum wins, ties to the lowest machine index).
* Routing schedules an arrival event after the transport time, even when
  the job is already at the chosen machine (zero delay).  An operation
  becomes dispatchable only once it has physically arrived, but it counts
  toward the machine's NIQ/WIQ from the moment it is routed: machines see
  committed work, including operations still in transit.  Without this the
  routing rule herds jobs onto machines whose inbound work is invisible
  and the shop runs measurably above the configured utilization.
* When a machine finishes an operation, the job's next operation is
  routed first and only then is the freed machine dispatched, so the
  just-routed operation is never dispatchable in that same instant.
* Dispatching scores all queued operations with the sequencing rule; the
  minimum wins, ties to the earliest ready time and then the lowest job
  id.  An operation's ready time is the moment it was routed (its
  predecessor's completion, or the job release), so waiting time includes
  transport.
* Queue order carries no meaning.  Scores are finite and a job has one
  operation in flight, so (score, ready time, job) has one minimum in
  any order.  An operation that reaches a busy machine strictly before
  the machine's current completion is therefore queued when it is
  routed, with no arrival event: a busy machine's queue is read only at
  its completion, and the arrival event would have run before it.  Any
  other arrival stays an event; one at the completion instant runs after
  the completion, so the freed machine's dispatch does not see it.
* A machine's ready time is the completion time of the operation it is
  working on, or the moment it last fell idle; MWT = now - ready time is
  therefore negative while the machine is busy.
* Event order: releases come from the release column in (time, job)
  order and precede any arrival or completion at the same instant.
  Arrivals and completions run in time order, ties in the order they were
  scheduled.

The run ends when every job has completed; machine utilization is
measured as total busy time over num_machines * end time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

from ..expr import TERMINAL_ORDER, DecisionContext, expression_source, terminal_histogram
from ..expr import compile_expression  # noqa: F401  unused; perfbench/spans.py hooks it here by name
from ..rules import RulePair, check_depth
from .instance import Instance
from .objectives import ObjectiveVector, compute_objectives

_INF = math.inf


class SimulationStalled(RuntimeError):
    """The event queue drained before every job completed (engine bug)."""


class QueueOverflow(RuntimeError):
    """A machine's committed queue exceeded the configured guard.

    Degenerate routing rules (constant across candidates) funnel every
    operation onto one machine, which turns dispatch scans quadratic.  A
    guard lets callers abort such runs early; well-behaved rules stay
    roughly an order of magnitude below sensible thresholds.
    """

    def __init__(self, machine: int, time: float, limit: int):
        super().__init__(
            f"machine {machine} exceeded {limit} committed operations at t={time:.1f}"
        )
        self.machine = machine
        self.time = time
        self.limit = limit


class _RecordedCandidate:
    """A recorded candidate reads as the ``DecisionContext`` of its 13 terminals.

    It keeps only what the instance cannot give back; ``as_args``
    recomputes the rest with the choosers' own expressions, so each value
    is the same float, and every terminal attribute reads through it.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return repr(DecisionContext(*self.as_args()))


for _index, _term in enumerate(TERMINAL_ORDER):
    setattr(_RecordedCandidate, _term.name, property(lambda self, i=_index: self.as_args()[i]))


def _job_terms(instance: Instance, j: int, t: float, wkr: float) -> tuple:
    """rDD, SLACK, W and TIS of job j at time t, as the choosers compute them."""
    due = instance.due[j]
    return due - t, due - t - wkr, instance.weight[j], t - instance.release[j]


class _RoutingCandidate(_RecordedCandidate):
    """One machine of a routing decision.

    ``head`` is ("route", t, job_id, op_index, row, a, instance): ``row``
    is the travel row from the job's location and ``a`` the decision's
    first candidate index.  The candidate is ``a + k``; ``niq``, ``wiq``
    and ``mrt`` are its machine's entries when it was scored.
    """

    __slots__ = ("head", "k", "niq", "wiq", "mrt")

    def __init__(self, head, k, niq, wiq, mrt):
        self.head = head
        self.k = k
        self.niq = niq
        self.wiq = wiq
        self.mrt = mrt

    def as_args(self) -> tuple:
        _, t, job_id, op_index, row, a, instance = self.head
        j, i = job_id - 1, a + self.k
        o = instance.op_start[j] + op_index
        wkr = instance.wkr[o]
        return (
            self.niq, self.wiq, t - self.mrt, instance.proc_times[i], instance.npt[o], 0.0, wkr,
            instance.op_start[j + 1] - o, *_job_terms(instance, j, t, wkr), row[instance.machines[i]],
        )

    def entry(self) -> tuple:
        kind, t, job_id, op_index, _, a, instance = self.head
        return kind, t, job_id, op_index, instance.machines[a + self.k], self


class _QueuedOperation(_RecordedCandidate):
    """One queued operation of a dispatch; ``op`` is its queue entry.

    ``head`` is ("sequence", t, machine, niq[machine], wiq[machine], mrt[machine], job_ids, instance).
    """

    __slots__ = ("head", "op")

    def __init__(self, head, op):
        self.head = head
        self.op = op

    def as_args(self) -> tuple:
        _, t, _, niq, wiq, mrt, _, instance = self.head
        j, _, ready_t, pt, trant, npt, wkr, nor = self.op
        return (niq, wiq, t - mrt, pt, npt, t - ready_t, wkr, nor, *_job_terms(instance, j, t, wkr), trant)

    def entry(self) -> tuple:
        kind, t, machine, _, _, _, job_ids, instance = self.head
        j, o = self.op[:2]
        return kind, t, job_ids[j], o - instance.op_start[j], machine, self


class DecisionLog:
    """Every candidate a recording run scored, in scoring order.

    Iteration yields one entry per candidate, (kind, time, job_id,
    op_index, machine, context) with kind "route" or "sequence", built
    on demand; ``context`` has the 13 terminal attributes, ``as_args()``
    in ``TERMINAL_ORDER`` and the repr of the equal ``DecisionContext``.
    The log iterates repeatably, has ``len``, and its repr is that of
    the list of its entries.
    """

    __slots__ = ("_candidates",)

    def __init__(self, candidates: list) -> None:
        self._candidates = candidates

    def __len__(self) -> int:
        return len(self._candidates)

    def __iter__(self):
        return (candidate.entry() for candidate in self._candidates)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SimOutcome:
    """Everything a simulation run reports.

    ``completion`` is a per-job column, indexed by job position like the
    instance's ``release``: ``completion[j]`` is the time job id j + 1
    finished its last operation.  Warm-up jobs are included; only the
    objectives leave them out.  ``contexts`` is the ``DecisionLog`` of a
    recording run; its contexts recompute terminals from the instance,
    so the log, and any context taken from it, keeps the instance alive.
    """

    objectives: ObjectiveVector
    busy_fraction: float
    makespan: float
    completion: list[float]
    trace: list[tuple] | None = None
    contexts: DecisionLog | None = None


# Statements that bind each terminal in the generated choosers.  A routing
# decision scores the candidates a..b-1 of job j's operation o (a global
# operation index) at time t; a sequencing decision scores the queued
# operations of machine mch.  SLACK is (due - t) - WKR, in that order of
# operations.
_JOB_TERMS = {
    "rDD": "rDD = due[j] - t",
    "SLACK": "SLACK = due[j] - t - wkr[o]",
    "W": "W = weight[j]",
    "TIS": "TIS = t - release[j]",
}
_MACHINE_TERMS = {
    "NIQ": "NIQ = niq[mch]",
    "WIQ": "WIQ = wiq[mch]",
    "MWT": "MWT = t - mrt[mch]",
}
_ROUTE_PER_DECISION = {
    **_JOB_TERMS,
    "NPT": "NPT = npt[o]",
    "WKR": "WKR = wkr[o]",
    "NOR": "NOR = op_start[j + 1] - o",
    "OWT": "OWT = 0.0",
}
_ROUTE_PER_MACHINE = {**_MACHINE_TERMS, "PT": "PT = proc_times[i]", "TRANT": "TRANT = row[mch]"}
# Routing terminals that need the candidate's machine index, mch.
_READS_MACHINE = {*_MACHINE_TERMS, "TRANT"}
# PT, TRANT, NPT, WKR and NOR come unpacked from the queue entry.
_SEQUENCE_PER_OPERATION = {**_JOB_TERMS, "OWT": "OWT = t - ready_t"}
# The recording lines.  A decision binds its head once, after its own
# terms; each candidate is passed to ``_record`` with the head and what
# the instance cannot give back before it is scored.
_ROUTE_HEAD = 'head = ("route", t, job_ids[j], o - op_start[j], row, a, instance)'
_ROUTE_CANDIDATE = "_record(_RoutingCandidate(head, i - a, niq[mch], wiq[mch], mrt[mch]))"
_SEQUENCE_HEAD = 'head = ("sequence", t, mch, niq[mch], wiq[mch], mrt[mch], job_ids, instance)'
_SEQUENCE_CANDIDATE = "_record(_QueuedOperation(head, queue[i]))"

_CHOOSERS = """\
def _bind(niq, wiq, mrt, release, due, weight, op_start, npt, wkr, machines, proc_times, _record, job_ids{instance}):
    def choose_machine(j, o, t, a, b, row):
{route_decision}
        best = _INF
        chosen = a
        for i in range(a, b):
{route_machine}
            s = {route_body}
            if s < best:
                best = s
                chosen = i
        return chosen

    def choose_op(queue, mch, t):
{sequence_decision}
        best = _INF
        best_ready = _INF
        best_job = -1
        idx = 0
        for i, (j, o, ready_t, PT, TRANT, NPT, WKR, NOR) in enumerate(queue):
{sequence_operation}
            s = {sequence_body}
            if s < best or (s == best and (ready_t, j) < (best_ready, best_job)):
                best = s
                best_ready = ready_t
                best_job = j
                idx = i
        return idx

    return choose_machine, choose_op
"""


def _bindings(statements: dict[str, str], reads: set[str], indent: str) -> str:
    """The statements that bind the terminals a rule reads."""
    return "\n".join(indent + stmt for name, stmt in statements.items() if name in reads)


def compile_choosers(
    rules: RulePair, niq: list, wiq: list, mrt: list, instance: Instance, record=None, job_ids=None
):
    """Generate the simulator's two decision functions for one rule pair.

    ``choose_machine(j, o, t, a, b, row)`` scores the candidates
    ``a``..``b - 1`` of job j's operation o (global indices into the
    instance's operation and candidate columns) and returns the candidate
    index the routing rule scores lowest, ties to the lower index;
    ``row`` is the travel-time row from the job's location.
    ``choose_op(queue, mch, t)`` returns the index of the queue entry the
    sequencing rule scores lowest, ties to the earliest ready time, then
    the lowest job.  Each rule's ``expression_source`` is inlined into
    its candidate loop, and only the terminals it reads are computed (NIQ
    and NOR are ints, OWT is 0.0 when routing).  The functions read the
    live machine state ``niq``, ``wiq`` and ``mrt`` at call time, and the
    job data from ``instance``'s columns.  Given ``record`` and
    ``job_ids``, the choosers still bind only what the rules read, plus
    their record lines: each decision binds one head tuple, and each
    candidate is passed to ``record`` before it is scored, as an object
    that keeps the head and the live machine state or queue entry (see
    ``_RecordedCandidate``); job j's id is read from ``job_ids[j]``, so a
    caller can share one int per job.  The decisions are the same.  The
    compiled factory is kept per (rule pair, recording), so a pair met
    again, on another seed or instance, is only rebound.

    Raises DataError for a rule deeper than ``MAX_DEPTH``: the depth cap
    and the instance value bound are what keep every score finite (see
    ``expr.MAX_MAGNITUDE``), so the candidate loops test no score.
    """
    recording = () if record is None else (instance,)  # the recording choosers' last argument
    return _compiled_bind(rules, record is not None)(
        niq, wiq, mrt, instance.release, instance.due, instance.weight, instance.op_start,
        instance.npt, instance.wkr, instance.machines, instance.proc_times, record, job_ids, *recording,
    )


@lru_cache(maxsize=256)
def _compiled_bind(rules: RulePair, recording: bool):
    """The ``_bind`` factory for one rule pair, generated and compiled once."""
    check_depth(rules)
    route_reads = {t.name for t in terminal_histogram(rules.routing)}
    sequence_reads = {t.name for t in terminal_histogram(rules.sequencing)}
    route_machine = _bindings(_ROUTE_PER_MACHINE, route_reads, " " * 12)
    if recording or route_reads & _READS_MACHINE:
        route_machine = " " * 12 + "mch = machines[i]\n" + route_machine
    route_decision = _bindings(_ROUTE_PER_DECISION, route_reads, " " * 8)
    sequence_decision = _bindings(_MACHINE_TERMS, sequence_reads, " " * 8)
    sequence_operation = _bindings(_SEQUENCE_PER_OPERATION, sequence_reads, " " * 12)
    if recording:
        route_decision += "\n" + " " * 8 + _ROUTE_HEAD
        route_machine += "\n" + " " * 12 + _ROUTE_CANDIDATE
        sequence_decision += "\n" + " " * 8 + _SEQUENCE_HEAD
        sequence_operation += "\n" + " " * 12 + _SEQUENCE_CANDIDATE
    src = _CHOOSERS.format(
        instance=", instance" if recording else "",
        route_decision=route_decision,
        route_machine=route_machine,
        route_body=expression_source(rules.routing),
        sequence_decision=sequence_decision,
        sequence_operation=sequence_operation,
        sequence_body=expression_source(rules.sequencing),
    )
    namespace: dict = {
        "_INF": _INF, "_RoutingCandidate": _RoutingCandidate, "_QueuedOperation": _QueuedOperation,
    }
    exec(compile(src, "<choosers>", "exec"), namespace)
    return namespace["_bind"]


def run_simulation(
    rules: RulePair,
    instance: Instance,
    record_trace: bool = False,
    capture_contexts: bool = False,
    max_queue: int | None = None,
) -> SimOutcome:
    """Simulate one instance under a rule pair, with the instance's config.

    Decisions are made by the two functions ``compile_choosers`` binds
    for this rule pair, once per call, over the instance's columns.
    With ``capture_contexts`` the choosers are generated in their
    recording form, and ``SimOutcome.contexts`` is a ``DecisionLog`` of
    every scored candidate, which iterates as (kind, time, job_id,
    op_index, machine, context) entries; a context keeps only what the
    instance cannot give back.  Decisions are identical either way,
    which tests pin.  ``max_queue`` aborts the run with QueueOverflow
    once any machine holds more committed operations, which fitness
    evaluators use to prune degenerate rules.

    Jobs are released in (release time, job) order, read from the release
    column, and each release runs before any arrival or completion at the
    same instant.  Only arrivals and completions go through the event
    heap, in time order with ties in scheduling order, so it holds just
    the events in flight; an arrival at a busy machine before its
    completion is queued at once instead (see the module docstring).
    A heap event (time, sequence number, machine, job j, operation o,
    entry) carries what its handler needs: an arrival, the queue entry
    made when o was routed, (j, o, ready time, PT, TRANT, NPT, WKR, NOR);
    a completion of o, None.  A job's next operation is routed from the
    machine it left, its first from the entry point, travel row 0.
    Operations and candidates are addressed by their global indices in
    the instance's flat columns.  Each job's completion time goes into
    ``SimOutcome.completion``; ``compute_objectives`` reads it from the
    first job after the warm-up.
    """
    cfg = instance.config
    release = instance.release
    op_start, cand_start = instance.op_start, instance.cand_start
    machines, proc_times, npt, wkr = instance.machines, instance.proc_times, instance.npt, instance.wkr
    trav = instance.travel  # row 0 from the entry point, row 1 + i from machine i
    n_jobs = len(release)
    m = len(instance.machine_rates)

    queues: list[list] = [[] for _ in range(m)]  # waiting ops: arrived, or due before mrt
    niq = [0] * m  # committed op counts (queued or in transit)
    wiq = [0.0] * m  # committed work (queued or in transit)
    busy = [False] * m  # not mrt > t: an arrival at a completion instant may pop first
    mrt = [0.0] * m  # time the machine is/was next ready
    busy_time = [0.0] * m

    completion = [0.0] * n_jobs
    trace: list[tuple] | None = [] if record_trace else None
    candidates: list | None = [] if capture_contexts else None
    # One int per job id, shared by every event and context that names it.
    job_ids = list(range(1, n_jobs + 1)) if record_trace or capture_contexts else None

    # Heap keys (time, sequence number) are unique, so payloads are never compared.
    order = sorted(range(n_jobs), key=release.__getitem__)
    released = 0
    heap: list[tuple] = []
    seq_counter = 0

    n_done = 0
    end_time = 0.0
    queue_limit = _INF if max_queue is None else max_queue

    record = None if candidates is None else candidates.append
    choose_machine, choose_op = compile_choosers(rules, niq, wiq, mrt, instance, record, job_ids)

    while True:
        # Each pass handles one release or heap event, then routes job j's operation o
        # from machine mch (-1: the entry point) if j >= 0 and dispatches mch if mch >= 0.
        if released < n_jobs and (not heap or release[order[released]] <= heap[0][0]):
            # A release precedes any event at the same instant.
            j = order[released]
            released += 1
            t = release[j]
            o = op_start[j]
            mch = -1
        elif heap:
            t, _, mch, j, o, entry = heappop(heap)
            if entry is not None:  # an arrival
                queues[mch].append(entry)
                if busy[mch]:
                    continue
                j = -1
            else:  # o completed: route the job's next operation, then dispatch mch
                if trace is not None:
                    trace.append((t, mch, job_ids[j], o - op_start[j], "complete"))
                busy[mch] = False
                mrt[mch] = t
                o += 1
                if o == op_start[j + 1]:
                    completion[j] = t
                    n_done += 1
                    if n_done == n_jobs:
                        end_time = t
                        break
                    j = -1
        else:
            break

        if j >= 0:
            a, b = cand_start[o], cand_start[o + 1]
            row = trav[mch + 1]
            chosen = choose_machine(j, o, t, a, b, row) if b - a > 1 else a
            to = machines[chosen]
            pt = proc_times[chosen]
            trant = row[to]
            niq[to] += 1
            if niq[to] > queue_limit:
                raise QueueOverflow(to, t, max_queue)
            wiq[to] += pt
            entry = (j, o, t, pt, trant, npt[o], wkr[o], op_start[j + 1] - o)
            arrival = t + trant
            if busy[to] and arrival < mrt[to]:
                # Nothing reads this queue before mrt[to], the completion
                # that frees the machine, and the arrival event would pop
                # before it: queue the entry now.
                queues[to].append(entry)
            else:
                heappush(heap, (arrival, seq_counter, to, j, o, entry))
                seq_counter += 1

        if mch >= 0 and queues[mch]:
            queue = queues[mch]
            idx = choose_op(queue, mch, t) if len(queue) > 1 else 0
            j, o, ready_t, pt, _, _, _, _ = queue.pop(idx)
            niq[mch] -= 1
            wiq[mch] -= pt
            busy[mch] = True
            busy_time[mch] += pt
            # One float for mrt, the completion event and the trace's completion time.
            mrt[mch] = done = t + pt
            heappush(heap, (done, seq_counter, mch, j, o, None))
            seq_counter += 1
            if trace is not None:
                trace.append((t, mch, job_ids[j], o - op_start[j], "start"))

    if n_done < n_jobs:
        raise SimulationStalled(f"only {n_done} of {n_jobs} jobs completed")

    objectives = compute_objectives(release, instance.due, instance.weight, completion, cfg.warmup_jobs)
    busy_fraction = sum(busy_time) / (m * end_time) if end_time > 0 else 0.0
    return SimOutcome(
        objectives=objectives,
        busy_fraction=busy_fraction,
        makespan=end_time,
        completion=completion,
        trace=trace,
        contexts=None if candidates is None else DecisionLog(candidates),
    )


def validate_trace(trace: list[tuple], instance: Instance) -> list[str]:
    """Check a recorded trace against the instance; returns violations.

    Verified: every operation starts and completes exactly once on an
    eligible machine, durations match the machine's processing time,
    operations of a job run in order with transport respected, and no
    machine overlaps two operations.  Every event must be a ``start`` or
    ``complete`` of an operation the instance has, named by an int job id
    and an int operation index.  An empty list means a clean trace.

    Problems come in a fixed order: unknown kinds and duplicates in trace
    order, then each operation's faults in (job, operation) order, then
    the events that name no operation (starts, then completions, each in
    trace order), then overlaps machine by machine, on the machines the
    shop has.
    """
    eps = 1e-9
    problems: list[str] = []
    speed = instance.config.transport_speed
    n_machines = instance.config.num_machines
    op_start, cand_start = instance.op_start, instance.cand_start
    n_jobs = len(instance.release)

    # Each operation's start and complete event, by global operation index;
    # events that name no operation are kept by (job, op) instead.
    starts: list[tuple | None] = [None] * op_start[-1]
    completes: list[tuple | None] = [None] * op_start[-1]
    columns = {"start": starts, "complete": completes}
    strays: dict[str, dict] = {"start": {}, "complete": {}}
    for event in trace:
        time, mch, job_id, op_idx, kind = event
        column = columns.get(kind)
        if column is None:
            problems.append(f"job {job_id} op {op_idx}: unknown event kind {kind!r} at {time}")
            continue
        if (
            type(job_id) is int and type(op_idx) is int and 0 < job_id <= n_jobs
            and 0 <= op_idx < op_start[job_id] - op_start[job_id - 1]
        ):
            o = op_start[job_id - 1] + op_idx
            duplicate = column[o] is not None
            if not duplicate:
                column[o] = event
        else:
            stray = strays[kind]
            duplicate = (job_id, op_idx) in stray
            if not duplicate:
                stray[job_id, op_idx] = time
        if duplicate:
            problems.append(f"job {job_id} op {op_idx}: duplicate {kind}")

    by_machine: dict[int, list[int]] = {}  # operations started on each machine
    for job_id, release in enumerate(instance.release, 1):
        prev_complete = None
        prev_machine = None
        for op_idx, o in enumerate(range(op_start[job_id - 1], op_start[job_id])):
            start, complete = starts[o], completes[o]
            if start is None or complete is None:
                problems.append(f"job {job_id} op {op_idx}: missing start or complete")
                continue
            s_time, s_mch = start[0], start[1]
            c_time, c_mch = complete[0], complete[1]
            machines = instance.machines[cand_start[o]:cand_start[o + 1]]
            # Distances are looked up only for a machine the shop has.
            known = type(s_mch) is int and 0 <= s_mch < n_machines
            if s_mch != c_mch:
                problems.append(f"job {job_id} op {op_idx}: started on {s_mch}, completed on {c_mch}")
            if not known or s_mch not in machines:
                problems.append(f"job {job_id} op {op_idx}: machine {s_mch} not eligible")
            else:
                pt = instance.proc_times[cand_start[o] + machines.index(s_mch)]
                if abs((c_time - s_time) - pt) > eps:
                    problems.append(
                        f"job {job_id} op {op_idx}: duration {c_time - s_time} != processing time {pt}"
                    )
            earliest = None
            if known and op_idx == 0:
                earliest = release + instance.entry_distances[s_mch] / speed
            elif known and prev_machine is not None:
                earliest = prev_complete + instance.machine_distances[prev_machine][s_mch] / speed
            if earliest is not None and s_time < earliest - eps:
                problems.append(
                    f"job {job_id} op {op_idx}: starts at {s_time} before reachable time {earliest}"
                )
            prev_complete = c_time
            prev_machine = s_mch if known else None
            if known:  # any other machine is already reported not eligible
                by_machine.setdefault(s_mch, []).append(o)

    for kind, stray in strays.items():
        for (job_id, op_idx), time in stray.items():
            problems.append(f"job {job_id} op {op_idx}: {kind} at {time} names no operation of the instance")

    # Operation indices grow with (job, op), so this is (start, complete, job, op) order.
    for mch, ops in by_machine.items():
        ops.sort(key=lambda o: (starts[o][0], completes[o][0], o))
        for o1, o2 in zip(ops, ops[1:]):
            s1, _, j1, k1, _ = starts[o1]
            s2, _, j2, k2, _ = starts[o2]
            c1, c2 = completes[o1][0], completes[o2][0]
            if s2 < c1 - eps:
                problems.append(
                    f"machine {mch}: job {j1} op {k1} [{s1}, {c1}] overlaps job {j2} op {k2} [{s2}, {c2}]"
                )
    return problems
