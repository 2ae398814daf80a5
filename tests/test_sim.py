"""Simulation layer tests.

The golden-schedule expectations were derived by hand; the full working
is in tests/data/golden_schedule.md.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpshop.errors import ConfigError, DataError
from gpshop.expr import TERMINAL_ORDER, evaluate, parse, random_tree
from gpshop.rules import RulePair
from gpshop.sim import (
    Instance,
    ObjectiveVector,
    QueueOverflow,
    Scenario,
    SimConfig,
    arrival_rate_for_utilization,
    compute_objectives,
    dump_instance,
    generate_instance,
    load_instance,
    run_simulation,
    validate_trace,
    weighted_fitness,
)
from gpshop.sim.engine import compile_choosers

from conftest import FIFO_RULES, SPT_RULES, build_instance, jobs_of, make_golden_instance


def completions_by_job(outcome) -> dict[int, float]:
    return {j + 1: t for j, t in enumerate(outcome.completion)}


class TestGoldenSchedule:
    """Exact expectations from tests/data/golden_schedule.md."""

    def test_fifo_objectives_and_completions(self, golden_instance):
        out = run_simulation(FIFO_RULES, golden_instance, record_trace=True)
        assert completions_by_job(out) == {1: 40.0, 2: 85.0, 3: 85.0}
        obj = out.objectives
        assert obj.Tmax == 42.5
        assert obj.Tmean == (0.0 + 40.0 + 42.5) / 3
        assert obj.Fmean == (40.0 + 85.0 + 80.0) / 3
        assert obj.WTmean == (0.0 + 40.0 + 170.0) / 3
        assert obj.WFmean == (80.0 + 85.0 + 320.0) / 3
        assert out.makespan == 85.0

    def test_spt_objectives_and_completions(self, golden_instance):
        out = run_simulation(SPT_RULES, golden_instance, record_trace=True)
        assert completions_by_job(out) == {1: 40.0, 2: 95.0, 3: 85.0}
        obj = out.objectives
        assert obj.Tmax == 50.0
        assert obj.Tmean == (0.0 + 50.0 + 42.5) / 3
        assert obj.Fmean == (40.0 + 95.0 + 80.0) / 3
        assert obj.WTmean == (0.0 + 50.0 + 170.0) / 3
        assert obj.WFmean == (80.0 + 95.0 + 320.0) / 3
        assert out.makespan == 95.0

    def test_makespans(self, golden_instance):
        assert run_simulation(FIFO_RULES, golden_instance).makespan == 85.0
        assert run_simulation(SPT_RULES, golden_instance).makespan == 95.0

    def test_fifo_start_times(self, golden_instance):
        out = run_simulation(FIFO_RULES, golden_instance, record_trace=True)
        starts = {(j, k): (t, m) for t, m, j, k, kind in out.trace if kind == "start"}
        assert starts == {
            (1, 0): (10.0, 0),
            (2, 0): (40.0, 0),
            (3, 0): (60.0, 0),
            (3, 1): (70.0, 0),
            (2, 1): (75.0, 1),
        }

    def test_spt_start_times(self, golden_instance):
        out = run_simulation(SPT_RULES, golden_instance, record_trace=True)
        starts = {(j, k): (t, m) for t, m, j, k, kind in out.trace if kind == "start"}
        assert starts == {
            (1, 0): (10.0, 0),
            (3, 0): (40.0, 0),
            (2, 0): (50.0, 0),
            (3, 1): (70.0, 0),
            (2, 1): (85.0, 1),
        }

    def test_traces_are_valid(self, golden_instance):
        for rules in (FIFO_RULES, SPT_RULES):
            out = run_simulation(rules, golden_instance, record_trace=True)
            assert validate_trace(out.trace, golden_instance) == []

    def test_fifo_decision_contexts(self, golden_instance):
        """All 13 terminal values at the t=40 sequencing decision."""
        out = run_simulation(FIFO_RULES, golden_instance, capture_contexts=True)
        at_40 = [c for c in out.contexts if c[0] == "sequence" and c[1] == 40.0]
        assert [(c[2], c[3], c[4]) for c in at_40] == [(2, 0, 0), (3, 0, 0)]
        o21 = at_40[0][5]
        assert (o21.NIQ, o21.WIQ, o21.MWT) == (2.0, 30.0, 0.0)
        assert (o21.PT, o21.NPT, o21.OWT) == (20.0, 10.0, 40.0)
        assert (o21.WKR, o21.NOR) == (30.0, 2.0)
        assert (o21.rDD, o21.SLACK) == (5.0, -25.0)
        assert (o21.W, o21.TIS, o21.TRANT) == (1.0, 40.0, 10.0)
        o31 = at_40[1][5]
        assert (o31.NIQ, o31.WIQ, o31.MWT) == (2.0, 30.0, 0.0)
        assert (o31.PT, o31.NPT, o31.OWT) == (10.0, 15.0, 35.0)
        assert (o31.WKR, o31.NOR) == (25.0, 2.0)
        assert (o31.rDD, o31.SLACK) == (2.5, -22.5)
        assert (o31.W, o31.TIS, o31.TRANT) == (4.0, 35.0, 10.0)

    def test_capture_path_matches_fast_path(self, golden_instance):
        for rules in (FIFO_RULES, SPT_RULES):
            fast = run_simulation(rules, golden_instance, record_trace=True)
            slow = run_simulation(
                rules, golden_instance, record_trace=True, capture_contexts=True
            )
            assert fast.objectives == slow.objectives
            assert fast.trace == slow.trace


def _routing_probe_instance() -> Instance:
    """J1 commits 30 units of work to M0 (in transit); J2 then chooses."""
    rates = (10.0, 10.0)
    config = SimConfig(
        num_machines=2,
        total_jobs=2,
        warmup_jobs=0,
        utilization=0.5,
        rate_range=(10.0, 10.0),
        workload_range=(100, 300),
        ops_per_job_range=(1, 1),
        distance_range=(50, 100),
    )
    jobs = (
        (0.0, 1, 45.0, ((300.0, (0,)),)),
        (1.0, 1, 16.0, ((100.0, (0, 1)),)),
    )
    return build_instance(config, rates, jobs)


class TestCommittedAccounting:
    """Routing must see work that is still in transit to a machine."""

    @pytest.mark.parametrize("routing", ["WIQ", "NIQ"])
    def test_in_transit_work_steers_routing(self, routing):
        inst = _routing_probe_instance()
        rules = RulePair.from_text(routing, "PT")
        out = run_simulation(rules, inst, record_trace=True)
        starts = {(j, k): (t, m) for t, m, j, k, kind in out.trace if kind == "start"}
        # J1 is still in transit to M0 at t=1; its committed work must
        # push J2 to the farther but empty M1.
        assert starts[(2, 0)] == (21.0, 1)
        assert starts[(1, 0)] == (10.0, 0)
        assert completions_by_job(out) == {1: 40.0, 2: 31.0}
        assert validate_trace(out.trace, inst) == []

    def test_routing_context_values(self):
        inst = _routing_probe_instance()
        out = run_simulation(
            RulePair.from_text("WIQ", "PT"), inst, capture_contexts=True
        )
        routes = [c for c in out.contexts if c[0] == "route"]
        # Only J2's decision has two candidates; forced routings skip scoring.
        assert [(c[1], c[2], c[4]) for c in routes] == [(1.0, 2, 0), (1.0, 2, 1)]
        m0 = routes[0][5]
        assert (m0.NIQ, m0.WIQ, m0.MWT) == (1.0, 30.0, 1.0)
        assert (m0.PT, m0.NPT, m0.OWT) == (10.0, 0.0, 0.0)
        assert (m0.WKR, m0.NOR) == (10.0, 1.0)
        assert (m0.rDD, m0.SLACK) == (15.0, 5.0)
        assert (m0.W, m0.TIS, m0.TRANT) == (1.0, 0.0, 10.0)
        m1 = routes[1][5]
        assert (m1.NIQ, m1.WIQ, m1.MWT) == (0.0, 0.0, 1.0)
        assert m1.TRANT == 20.0


def _tie_instance(jobs: tuple) -> Instance:
    config = SimConfig(
        num_machines=2,
        total_jobs=len(jobs),
        warmup_jobs=0,
        utilization=0.5,
        rate_range=(10.0, 10.0),
        workload_range=(100, 300),
        ops_per_job_range=(1, 2),
        distance_range=(50, 100),
    )
    return build_instance(config, (10.0, 10.0), jobs)


def _starts(instance: Instance) -> dict:
    """(job, op) -> (start, machine) under WIQ routing, PT sequencing."""
    out = run_simulation(RulePair.from_text("WIQ", "PT"), instance, record_trace=True)
    assert validate_trace(out.trace, instance) == []
    return {(j, k): (t, m) for t, m, j, k, kind in out.trace if kind == "start"}


class TestEventOrder:
    """Same-instant events, and arrivals at busy machines.  Worked by hand.

    Releases run first, in job order.  An operation that reaches a busy
    machine before its completion is queued when routed, without an
    arrival event; one that arrives at the completion instant or later,
    or at an idle machine, gets its event.

    Transport takes 10 from the entry to M0, 20 to M1 and 15 between the
    machines; every operation takes 10 per 100 units of work.  WIQ routing
    breaks ties to M0, so the order in which jobs are routed decides where
    they go.
    """

    def test_release_is_routed_before_a_completion_at_the_same_time(self):
        # J1 op0 completes on M0 at t=20, when J2 is released.  J2 is
        # routed first, onto the tied M0; J1 op1 then sees WIQ 10 on M0 and
        # goes to M1.  Completion first would send J1 op1 to M0 (no
        # transport, start 20) and J2 to M1 (start 40).
        inst = _tie_instance((
            (0.0, 1, 100.0, ((100.0, (0,)), (100.0, (0, 1)))),
            (20.0, 1, 100.0, ((100.0, (0, 1)),)),
        ))
        assert _starts(inst) == {(1, 0): (10.0, 0), (2, 0): (30.0, 0), (1, 1): (35.0, 1)}

    def test_equal_releases_are_routed_in_job_order(self):
        # J1 takes the tied M0 (WIQ 10), J2 the empty M1 (WIQ 20), J3 the
        # lighter M0, where it waits for J1.
        inst = _tie_instance((
            (0.0, 1, 100.0, ((100.0, (0, 1)),)),
            (0.0, 1, 100.0, ((200.0, (0, 1)),)),
            (0.0, 1, 100.0, ((100.0, (0, 1)),)),
        ))
        assert _starts(inst) == {(1, 0): (10.0, 0), (2, 0): (20.0, 1), (3, 0): (20.0, 0)}

    def test_out_of_order_releases_run_in_time_order(self):
        # load_instance rejects decreasing releases; the constructor does
        # not.  J2 and J3 (t=0) are routed before J1 (t=5): J2 to the tied
        # M0, J3 to M1, J1 to the lighter M0, where it waits for J2.
        inst = _tie_instance((
            (5.0, 1, 100.0, ((100.0, (0, 1)),)),
            (0.0, 1, 100.0, ((100.0, (0, 1)),)),
            (0.0, 1, 100.0, ((200.0, (0, 1)),)),
        ))
        assert _starts(inst) == {(2, 0): (10.0, 0), (3, 0): (20.0, 1), (1, 0): (20.0, 0)}

    def test_arrivals_before_a_completion_start_at_it(self):
        # J1 holds M0 from 10 to 40.  J2 and J3, released at 15 and 20,
        # reach the busy M0 at 25 and 30 and are queued when routed; at 40
        # PT picks the shorter J3, then J2 follows at 50.
        inst = _tie_instance((
            (0.0, 1, 100.0, ((300.0, (0,)),)),
            (15.0, 1, 100.0, ((200.0, (0,)),)),
            (20.0, 1, 100.0, ((100.0, (0,)),)),
        ))
        assert _starts(inst) == {(1, 0): (10.0, 0), (3, 0): (40.0, 0), (2, 0): (50.0, 0)}

    def test_arrival_at_the_completion_instant_misses_that_dispatch(self):
        # J1 holds M0 from 10 to 40.  J3 arrives at exactly 40, after the
        # completion, so the freed M0 sees only J2 (arrived at 25) and
        # starts it, although PT prefers J3; J3 waits until 60.
        inst = _tie_instance((
            (0.0, 1, 100.0, ((300.0, (0,)),)),
            (15.0, 1, 100.0, ((200.0, (0,)),)),
            (30.0, 1, 100.0, ((100.0, (0,)),)),
        ))
        assert _starts(inst) == {(1, 0): (10.0, 0), (2, 0): (40.0, 0), (3, 0): (60.0, 0)}

    def test_negative_releases_reach_idle_machines(self):
        # The constructor accepts releases before 0.0, the ready time an
        # unused machine starts with.  Each job still arrives and starts
        # on its idle machine: J1 on M0 at -40, J2 on M1 at -10.
        inst = _tie_instance((
            (-50.0, 1, 100.0, ((100.0, (0,)),)),
            (-30.0, 1, 100.0, ((100.0, (1,)),)),
        ))
        out = run_simulation(RulePair.from_text("WIQ", "PT"), inst, record_trace=True)
        assert out.trace == [
            (-40.0, 0, 1, 0, "start"),
            (-30.0, 0, 1, 0, "complete"),
            (-10.0, 1, 2, 0, "start"),
            (0.0, 1, 2, 0, "complete"),
        ]


class TestObjectives:
    def test_worked_example(self):
        # Columns release, due, weight, completion for jobs 1 and 2.
        obj = compute_objectives((0.0, 1.0), (8.0, 9.0), (2, 1), [10.0, 5.0])
        assert obj.Tmax == 2.0
        assert obj.Tmean == 1.0
        assert obj.Fmean == 7.0
        assert obj.WTmean == 2.0
        assert obj.WFmean == 12.0

    def test_warm_up_jobs_are_not_counted(self):
        # The same two jobs after a warm-up job whose tardiness of 100
        # would dominate every objective if it were counted.
        obj = compute_objectives((0.0, 0.0, 1.0), (0.0, 8.0, 9.0), (4, 2, 1), [100.0, 10.0, 5.0], 1)
        assert obj == compute_objectives((0.0, 1.0), (8.0, 9.0), (2, 1), [10.0, 5.0])
        assert (obj.Tmax, obj.Tmean, obj.Fmean, obj.WTmean, obj.WFmean) == (2.0, 1.0, 7.0, 2.0, 12.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_objectives((), (), (), [])
        with pytest.raises(ValueError):
            compute_objectives((0.0,), (8.0,), (2,), [10.0], 1)

    def test_weighted_fitness_single_objective(self):
        scenario = Scenario(
            objectives=("Fmean",), lambdas=(1.0,), training_seeds=(1,), test_seeds=(2,)
        )
        obj = ObjectiveVector(Tmax=9.0, Tmean=4.0, Fmean=7.0, WTmean=5.0, WFmean=11.0)
        assert weighted_fitness(obj, scenario) == 7.0

    def test_weighted_fitness_multi_objective(self):
        scenario = Scenario(
            objectives=("Fmean", "WTmean"),
            lambdas=(0.2, 0.8),
            training_seeds=(1,),
            test_seeds=(2,),
        )
        obj = ObjectiveVector(Tmax=0.0, Tmean=0.0, Fmean=50.0, WTmean=20.0, WFmean=0.0)
        ref = ObjectiveVector(Tmax=0.0, Tmean=0.0, Fmean=100.0, WTmean=10.0, WFmean=0.0)
        assert weighted_fitness(obj, scenario, ref) == pytest.approx(
            0.2 * 50.0 / 100.0 + 0.8 * 20.0 / 10.0
        )
        # A vector normalized by itself scores exactly 1, also where
        # lam * f / ref would round to 1.0000000000000002.
        assert weighted_fitness(ref, scenario, ref) == 1.0
        held_out = ObjectiveVector(
            Tmax=0.0, Tmean=0.0, Fmean=548.3336478445025, WTmean=3124.385618678229, WFmean=0.0
        )
        assert weighted_fitness(held_out, scenario, held_out) == 1.0

    def test_weighted_fitness_requires_reference(self):
        scenario = Scenario(
            objectives=("Fmean", "WTmean"),
            lambdas=(0.5, 0.5),
            training_seeds=(1,),
            test_seeds=(2,),
        )
        obj = ObjectiveVector(Tmax=0.0, Tmean=0.0, Fmean=1.0, WTmean=1.0, WFmean=0.0)
        with pytest.raises(ConfigError):
            weighted_fitness(obj, scenario)
        zero_ref = ObjectiveVector(Tmax=0.0, Tmean=0.0, Fmean=1.0, WTmean=0.0, WFmean=0.0)
        with pytest.raises(ConfigError):
            weighted_fitness(obj, scenario, zero_ref)


class TestArrivalRate:
    def test_default_setup_value(self):
        # 0.85 * 10 / (6 * 550 / 12.5) = 0.85 * 10 / 264
        lam = arrival_rate_for_utilization(SimConfig())
        assert lam == pytest.approx(0.85 * 10 / 264.0)
        assert lam == pytest.approx(0.0322, abs=1e-4)

    def test_monotone_in_utilization(self):
        lo = arrival_rate_for_utilization(SimConfig(utilization=0.85))
        hi = arrival_rate_for_utilization(SimConfig(utilization=0.95))
        assert lo < hi
        tiny = arrival_rate_for_utilization(SimConfig(utilization=1e-9))
        assert tiny < 1e-9


class TestInstanceGeneration:
    def test_deterministic(self):
        config = SimConfig(num_machines=4, total_jobs=50, warmup_jobs=5)
        a = generate_instance(config, seed=9)
        b = generate_instance(config, seed=9)
        assert a == b
        c = generate_instance(config, seed=10)
        assert c != a

    def test_seed_defaults_to_config(self):
        config = SimConfig(num_machines=3, total_jobs=10, warmup_jobs=1, seed=77)
        assert generate_instance(config) == generate_instance(config, seed=77)

    def test_field_ranges(self):
        config = SimConfig(num_machines=5, total_jobs=400, warmup_jobs=10)
        inst = generate_instance(config, seed=3)
        assert len(inst.release) == 400
        assert all(10.0 <= r < 15.0 for r in inst.machine_rates)
        assert all(35.0 <= d <= 500.0 for d in inst.entry_distances)
        for i, row in enumerate(inst.machine_distances):
            assert row[i] == 0.0
            for j, d in enumerate(row):
                assert d == inst.machine_distances[j][i]
                if i != j:
                    assert 35.0 <= d <= 500.0
        prev = -1.0
        for release, weight, _, ops in jobs_of(inst):
            assert release > prev
            prev = release
            assert weight in (1, 2, 4)
            assert 2 <= len(ops) <= 10
            for workload, machines, times, median in ops:
                assert 100.0 <= workload <= 1000.0
                assert machines == tuple(sorted(set(machines)))
                assert 1 <= len(machines) <= 5
                for mch, pt in zip(machines, times):
                    assert pt == workload / inst.machine_rates[mch]
                assert median == float(np.median(times))

    def test_due_dates_recompute(self):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=60, warmup_jobs=5), seed=11)
        for release, _, due, ops in jobs_of(inst):
            total_median = sum(median for *_, median in ops)
            assert due == pytest.approx(release + 1.5 * total_median)

    def test_weight_mix_within_three_sigma(self):
        n = 2000
        inst = generate_instance(
            SimConfig(num_machines=3, total_jobs=n, warmup_jobs=10), seed=5
        )
        counts = {1: 0, 2: 0, 4: 0}
        for weight in inst.weight:
            counts[weight] += 1
        for w, p in ((1, 0.2), (2, 0.6), (4, 0.2)):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[w] - n * p) < 3 * sigma

    def test_interarrival_mean(self):
        n = 3000
        config = SimConfig(num_machines=10, total_jobs=n, warmup_jobs=10)
        inst = generate_instance(config, seed=21)
        gaps = [inst.release[0]] + [
            b - a for a, b in zip(inst.release, inst.release[1:])
        ]
        target = 1.0 / arrival_rate_for_utilization(config)
        mean_gap = sum(gaps) / n
        # Exponential: sigma == mean, so a 3 sigma/sqrt(n) band.
        assert abs(mean_gap - target) < 3 * target / math.sqrt(n)

    def test_ops_per_job_mean(self):
        inst = generate_instance(
            SimConfig(num_machines=3, total_jobs=2000, warmup_jobs=10), seed=8
        )
        counts = [b - a for a, b in zip(inst.op_start, inst.op_start[1:])]
        # U{2..10}: mean 6, variance (9^2 - 1) / 12.
        sigma = math.sqrt((81 - 1) / 12.0)
        assert abs(sum(counts) / len(counts) - 6.0) < 3 * sigma / math.sqrt(len(counts))


# (where, field, value, message fragment): "header", a job index, or a
# (job, op) index into the golden instance's dump; "config" sets a field
# of the header's config, or deletes it for value None; "jobs" keeps
# only the first ``value`` job lines; a job index with field None sets
# each field of the dict ``value``; "header" with field None replaces the
# header by ``value``, and "line" replaces job line ``field``.
_CORRUPTIONS = [
    ("header", "machine_rates", [10.0, 10.0, 10.0], "2 machine rates"),
    ("header", "machine_rates", [10.0, 0.0], "positive"),
    ("header", "entry_distances", [50.0], "2 entry distances"),
    ("header", "machine_distances", [[0.0, 75.0]], "2 x 2"),
    ("header", "machine_distances", [[0.0, 75.0], [75.0]], "2 x 2"),
    ("header", "machine_distances", [[0.0, "far"], [75.0, 0.0]], "not supported"),
    ("header", "entry_distances", [50.0, -1.0], "non-negative"),
    (0, "id", 2, "job ids must run 1..n"),
    (2, "release", -1.0, "before the previous job"),
    (0, "weight", 3, "weight mix"),
    (0, "due", 46.0, "due date"),
    (0, "ops", [], "no operations"),
    ((0, 0), "machines", [0, 7], "in range(2)"),
    ((0, 0), "machines", [1, 0], "sorted"),
    ((0, 0), "machines", [0, 0], "unique"),
    ((0, 0), "machines", [], "sorted"),
    ((0, 0), "proc_times", [31.0], "processing times"),
    ((0, 0), "median", 29.0, "median"),
    ("jobs", None, 2, "expected 3 jobs, found 2"),
    (2, "release", math.inf, "release inf is outside (-1e+280, 1e+280)"),
    (2, "release", 1e307, "release 1e+307 is outside"),
    (0, "due", math.inf, "due date inf is outside"),
    ((0, 0), "proc_times", [math.inf], "processing time inf is outside"),
    ("header", "entry_distances", [50.0, 1e307], "travel time 2e+306 is outside"),
    (2, None, {"weight": 10**279, "due": 1e279}, "the weighted objectives could overflow"),
    (0, "weight", 10**400, "a weight is too large for a double"),
    ((0, 0), "proc_times", [30.0, 30.0], "2 processing times for 1 machines"),
    ("header", None, [1, 2], "is not an instance file"),
    ("header", None, "x", "is not an instance file"),
    ("line", 1, 7, "job line 2 is not a JSON object"),
    ("line", 0, [1], "job line 1 is not a JSON object"),
    # Consistent in every derived column; only the workload's sign is wrong.
    (
        0, None,
        {"due": -45.0, "ops": [{"workload": -300.0, "machines": [0], "proc_times": [-30.0], "median": -30.0}]},
        "job 1 op 0: workload -300.0 is not positive and finite",
    ),
    ("config", "utilization", 2.0, "config: utilization must lie in (0, 1), got 2.0"),
    ("config", "weight_mix", [[1, 0.5]], "config: weight probabilities must sum to 1"),
    ("config", "seed", None, "'seed'"),
    ((0, 0), "machines", [0.0], "integers"),
    ("config", "machine_count", 3, "config: unknown key 'machine_count'"),
]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=40, warmup_jobs=4), seed=2)
        path = tmp_path / "inst.jsonl"
        dump_instance(inst, str(path))
        assert load_instance(str(path)) == inst
        assert [p.name for p in tmp_path.iterdir()] == ["inst.jsonl"]

    def test_tables_leave_instance_unchanged(self, tmp_path):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=25, warmup_jobs=2), seed=4)
        before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
        text = repr(inst)
        dump_instance(inst, str(before))
        run_simulation(FIFO_RULES, inst)
        assert repr(inst) == text
        dump_instance(inst, str(after))
        assert after.read_bytes() == before.read_bytes()
        assert inst == generate_instance(inst.config, seed=4)

    def test_dump_is_byte_identical(self, tmp_path):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=25, warmup_jobs=2), seed=4)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        dump_instance(inst, str(p1))
        dump_instance(inst, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_instance_simulates_identically(self, tmp_path, golden_instance):
        path = tmp_path / "golden.jsonl"
        dump_instance(golden_instance, str(path))
        loaded = load_instance(str(path))
        assert (
            run_simulation(FIFO_RULES, loaded).objectives
            == run_simulation(FIFO_RULES, golden_instance).objectives
        )

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataError):
            load_instance(str(tmp_path / "missing.jsonl"))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(DataError):
            load_instance(str(empty))
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('{"kind": "other"}\n')
        with pytest.raises(DataError):
            load_instance(str(wrong))
        mangled = tmp_path / "mangled.jsonl"
        mangled.write_text('{"kind": "gpshop-instance", "version": 1}\n')
        with pytest.raises(DataError):
            load_instance(str(mangled))

    @pytest.mark.parametrize("where, field, value, fragment", _CORRUPTIONS)
    def test_load_rejects_inconsistent_instances(self, tmp_path, golden_instance, where, field, value, fragment):
        path = tmp_path / "golden.jsonl"
        dump_instance(golden_instance, str(path))
        header, *jobs = (json.loads(line) for line in path.read_text().splitlines())
        if where == "header" and field is None:
            header = value
        elif where == "header":
            header[field] = value
        elif where == "config" and value is None:
            del header["config"][field]
        elif where == "config":
            header["config"][field] = value
        elif where == "line":
            jobs[field] = value
        elif where == "jobs":
            jobs = jobs[:value]
        elif field is None:
            jobs[where].update(value)
        elif isinstance(where, int):
            jobs[where][field] = value
        else:
            jobs[where[0]]["ops"][where[1]][field] = value
        path.write_text("".join(json.dumps(record) + "\n" for record in (header, *jobs)))
        with pytest.raises(DataError, match=re.escape(fragment)):
            load_instance(str(path))


    def test_load_names_the_first_value_one_ulp_off(self, tmp_path):
        """A processing time, median or due date one ulp off is rejected and located."""
        inst = generate_instance(SimConfig(num_machines=4, total_jobs=6, warmup_jobs=1), seed=7)
        where, op_where = [], []  # "job J op K" of each candidate, and of each operation
        for j in range(len(inst.release)):
            for k, o in enumerate(range(inst.op_start[j], inst.op_start[j + 1])):
                op_where.append(f"job {j + 1} op {k}")
                where += [op_where[-1]] * (inst.cand_start[o + 1] - inst.cand_start[o])
        sizes = [b - a for a, b in zip(inst.cand_start, inst.cand_start[1:])]
        assert sum(size > 1 for size in sizes) >= 10
        cases = (
            [("proc_times", i, f": {where[i]}: processing times are not") for i in range(len(where))]
            + [("median", o, f": {op_where[o]}: median") for o in range(len(op_where))]
            + [("due", j, f": job {j + 1}: due date is not") for j in range(len(inst.release))]
        )
        path = tmp_path / "nudged.jsonl"
        for column, index, fragment in cases:
            values = list(getattr(inst, column))
            values[index] = math.nextafter(values[index], math.inf)
            dump_instance(replace(inst, **{column: tuple(values)}), str(path))
            with pytest.raises(DataError, match=re.escape(fragment)):
                load_instance(str(path))


class TestEngineBehaviour:
    def test_deterministic_runs(self):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=60, warmup_jobs=5), seed=13)
        rules = RulePair.from_text("(WIQ + PT) + TRANT", "PT")
        a = run_simulation(rules, inst, record_trace=True)
        b = run_simulation(rules, inst, record_trace=True)
        assert a.objectives == b.objectives
        assert a.trace == b.trace

    def test_generated_instance_trace_is_valid(self):
        inst = generate_instance(SimConfig(num_machines=4, total_jobs=80, warmup_jobs=5), seed=6)
        out = run_simulation(FIFO_RULES, inst, record_trace=True)
        assert validate_trace(out.trace, inst) == []
        assert 0.0 < out.busy_fraction <= 1.0
        assert out.makespan >= max(out.completion) - 1e-9
        assert len(out.completion) == 80

    def test_capture_matches_fast_on_generated(self):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=50, warmup_jobs=5), seed=17)
        rules = RulePair.from_text("(WIQ + PT) + TRANT", "(PT + PT) + WKR")
        fast = run_simulation(rules, inst, record_trace=True)
        slow = run_simulation(rules, inst, record_trace=True, capture_contexts=True)
        assert fast.objectives == slow.objectives
        assert fast.trace == slow.trace

    def test_warmup_exclusion(self):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=30, warmup_jobs=0), seed=19)
        full = run_simulation(FIFO_RULES, inst)
        trimmed = run_simulation(
            FIFO_RULES, replace(inst, config=inst.config.with_overrides(warmup_jobs=10))
        )
        assert trimmed.completion == full.completion
        assert trimmed.objectives == compute_objectives(inst.release, inst.due, inst.weight, full.completion, 10)
        assert trimmed.objectives != full.objectives

    def test_queue_overflow_guard(self):
        inst = generate_instance(SimConfig(num_machines=5, total_jobs=200, warmup_jobs=10), seed=23)
        degenerate = RulePair.from_text("W - W", "PT")
        with pytest.raises(QueueOverflow) as exc_info:
            run_simulation(degenerate, inst, max_queue=40)
        assert exc_info.value.limit == 40
        assert (exc_info.value.machine, exc_info.value.time) == (0, 6805.405473141113)
        # A sane routing rule stays far below the same guard.
        run_simulation(RulePair.from_text("WIQ", "PT"), inst, max_queue=40)

    def test_validate_trace_flags_corruption(self, golden_instance):
        out = run_simulation(FIFO_RULES, golden_instance, record_trace=True)
        trace = list(out.trace)
        for i, row in enumerate(trace):
            if row[4] == "start":
                t, mch, job_id, op_idx, kind = row
                trace[i] = (t - 5.0, mch, job_id, op_idx, kind)
                break
        assert validate_trace(trace, golden_instance)
        dropped = [row for row in out.trace if row[4] == "complete"][1:]
        starts_only = [row for row in out.trace if row[4] == "start"] + dropped
        assert any("missing" in p for p in validate_trace(starts_only, golden_instance))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_machines": 0},
            {"total_jobs": 0},
            {"warmup_jobs": 10, "total_jobs": 10},
            {"utilization": 0.0},
            {"utilization": 1.0},
            {"rate_range": (15.0, 10.0)},
            {"workload_range": (0, 10)},
            {"transport_speed": 0.0},
            {"due_date_factor": 0.0},
            {"weight_mix": ((1, 0.5), (2, 0.4))},
            {"weight_mix": ((0, 0.5), (2, 0.5))},
            {"weight_mix": ((1, math.nan), (2, 1.0))},
            {"weight_mix": ((math.nan, 1.0),)},
            {"weight_mix": ((math.inf, 1.0),)},
            {"weight_mix": ((1, math.inf), (2, -math.inf))},
            {"rate_range": (10.0, math.inf)},
            {"rate_range": (math.nan, 15.0)},
            {"workload_range": (100, math.inf)},
            {"distance_range": (35, math.inf)},
            {"transport_speed": math.nan},
            {"transport_speed": math.inf},
            {"due_date_factor": math.nan},
            {"due_date_factor": math.inf},
            {"workload_range": (100.5, 1000.7)},
            {"workload_range": (100, 1000.5)},
            {"ops_per_job_range": (2.5, 10)},
            {"distance_range": (35.2, 500.9)},
            {"weight_mix": ((1.5, 0.5), (2, 0.5))},
        ],
    )
    def test_bad_sim_config(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    def test_integral_float_bounds_accepted(self):
        """YAML may give integers as floats such as 100.0."""
        config = SimConfig(
            workload_range=(100.0, 1000.0), ops_per_job_range=(2.0, 10.0),
            distance_range=(35.0, 500.0), weight_mix=((1.0, 0.2), (2.0, 0.6), (4.0, 0.2)),
        )
        assert config.workload_range == (100.0, 1000.0)

    def test_with_overrides(self):
        base = SimConfig()
        small = base.with_overrides(total_jobs=100, warmup_jobs=10)
        assert small.total_jobs == 100
        assert base.total_jobs == 5000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objectives": (), "lambdas": ()},
            {"objectives": ("Fmean", "Fmean"), "lambdas": (0.5, 0.5)},
            {"objectives": ("Bogus",), "lambdas": (1.0,)},
            {"objectives": ("Fmean",), "lambdas": (0.5,)},
            {"objectives": ("Fmean", "WTmean"), "lambdas": (0.7, 0.7)},
            {"objectives": ("Fmean",), "lambdas": (1.0,), "utilization": 1.5},
            {"objectives": ("Fmean",), "lambdas": (1.0,), "training_seeds": ()},
        ],
    )
    def test_bad_scenario(self, kwargs):
        kwargs.setdefault("training_seeds", (1,))
        kwargs.setdefault("test_seeds", (2,))
        with pytest.raises(ConfigError):
            Scenario(**kwargs)

    def test_scenario_label_and_equation(self):
        s = Scenario(
            objectives=("Fmean", "WTmean"),
            lambdas=(0.2, 0.8),
            utilization=0.95,
            training_seeds=(1,),
            test_seeds=(2,),
        )
        assert s.label == "<Fmean-WTmean, 0.95>"
        assert s.is_multi_objective
        named = Scenario(
            objectives=("Tmax",), lambdas=(1.0,), training_seeds=(1,), test_seeds=(2,), name="peak"
        )
        assert named.label == "peak"
        assert not named.is_multi_objective


_PROP_INSTANCE = generate_instance(
    SimConfig(num_machines=3, total_jobs=25, warmup_jobs=5, utilization=0.8), seed=31
)


# Rules that tie on every candidate, or on many, plus one that reads all
# thirteen terminals.
_TIE_HEAVY_RULES = (
    "W - W", "NOR", "W", "NIQ", "OWT", "min(NOR, W)", "TRANT / TRANT",
    # Two chains of sums, not one, to stay within the depth cap.
    " + ".join(f"({' + '.join(t.name for t in half)})" for half in (TERMINAL_ORDER[:7], TERMINAL_ORDER[7:])),
)
_GUARD_INSTANCE = generate_instance(SimConfig(num_machines=4, total_jobs=60, warmup_jobs=5), seed=29)


@st.composite
def _rule_trees(draw):
    if draw(st.integers(0, 3)) == 0:
        return parse(draw(st.sampled_from(_TIE_HEAVY_RULES)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    mode = draw(st.sampled_from(["full", "grow"]))
    return random_tree(rng, mode=mode, depth_range=(1, draw(st.integers(1, 8))))


def _decisions(rules: RulePair):
    """repr of objectives and trace, or where the queue guard aborted the run."""
    try:
        out = run_simulation(rules, _GUARD_INSTANCE, record_trace=True, max_queue=12)
    except QueueOverflow as exc:
        return ("abort", exc.machine, exc.time)
    return repr(out.objectives), repr(out.trace)


def _assert_choices_are_argmins(rules: RulePair, out) -> None:
    """Re-score every recorded decision with ``evaluate``; the trace's choice must win.

    Routing ties go to the lowest candidate index, dispatch ties to the
    earliest ready time and then the lowest job.  A ready time is the
    completion of the job's previous operation, or its release.
    """
    starts = {(j, k): (t, mch) for t, mch, j, k, kind in out.trace if kind == "start"}
    started_at = {where: op for op, where in starts.items()}
    ready = {(j, k + 1): t for t, _, j, k, kind in out.trace if kind == "complete"}
    ready.update({(j, 0): release for j, release in enumerate(_GUARD_INSTANCE.release, 1)})

    def decision(c):
        return (c[0], c[1], c[2], c[3]) if c[0] == "route" else (c[0], c[1], c[4])

    for (kind, t, *_), group in itertools.groupby(out.contexts, key=decision):
        group = list(group)
        if kind == "route":
            _, _, j, k, _, _ = group[0]
            scores = [evaluate(rules.routing, ctx) for *_, ctx in group]
            best = min(range(len(group)), key=scores.__getitem__)
            assert starts[(j, k)][1] == group[best][4]
        else:
            mch = group[0][4]
            keys = {
                (j, k): (evaluate(rules.sequencing, ctx), ready[(j, k)], j)
                for _, _, j, k, _, ctx in group
            }
            assert len(keys) == len(group)
            assert started_at[(t, mch)] == min(keys, key=keys.__getitem__)


class TestEngineProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_rule_pair_yields_valid_schedule(self, seed):
        """Arbitrary rule trees always produce feasible schedules."""
        rng = np.random.default_rng(seed)
        rules = RulePair(
            routing=random_tree(rng, mode="grow", depth_range=(2, 4)),
            sequencing=random_tree(rng, mode="grow", depth_range=(2, 4)),
        )
        out = run_simulation(rules, _PROP_INSTANCE, record_trace=True, max_queue=500)
        assert len(out.completion) == 25
        assert 0.0 < out.busy_fraction <= 1.0
        assert validate_trace(out.trace, _PROP_INSTANCE) == []

    @settings(max_examples=60, deadline=None)
    @given(routing=_rule_trees(), sequencing=_rule_trees())
    def test_capture_never_changes_decisions(self, routing, sequencing):
        """Recording contexts changes no decision, and every decision is an argmin.

        Guard aborts must hit the same machine and time.  The argmin check
        re-scores the recorded contexts with the interpreter, so it does
        not trust the generated choosers.
        """
        rules = RulePair(routing=routing, sequencing=sequencing)
        fast = _decisions(rules)
        try:
            out = run_simulation(
                rules, _GUARD_INSTANCE, record_trace=True, capture_contexts=True, max_queue=12
            )
        except QueueOverflow as exc:
            assert fast == ("abort", exc.machine, exc.time)
            return
        assert fast == (repr(out.objectives), repr(out.trace))
        _assert_choices_are_argmins(rules, out)

    @settings(max_examples=100, deadline=None)
    @given(
        sequencing=_rule_trees(),
        entries=st.lists(
            st.tuples(
                st.integers(0, len(_PROP_INSTANCE.release) - 1),  # job
                st.sampled_from([0.0, -0.0, 3.0]),  # ready time
                st.sampled_from([0.0, -0.0, 2.0, 5.0]),  # PT
                st.sampled_from([0.0, 10.0]),  # TRANT
                st.sampled_from([0.0, -0.0, 7.0]),  # NPT
                st.sampled_from([0.0, 7.0]),  # WKR
                st.integers(1, 3),  # NOR
            ),
            min_size=2,
            max_size=5,
            unique_by=lambda entry: entry[0],
        ),
        t=st.sampled_from([0.0, -0.0, 4.0]),
    )
    def test_dispatch_ignores_queue_order(self, sequencing, entries, t):
        """``choose_op`` picks the same operation from every ordering of a queue.

        The simulator gives queue order no meaning: an operation bound for
        a busy machine may be queued when it is routed, others when they
        arrive.  Values come from small sets with +/-0.0, so scores and
        ready times often tie.
        """
        inst = _PROP_INSTANCE
        m = len(inst.machine_rates)
        _, choose_op = compile_choosers(RulePair(parse("PT"), sequencing), [2] * m, [9.0] * m, [1.0] * m, inst)
        queue = [(j, inst.op_start[j], *values) for j, *values in entries]
        chosen = {
            order[choose_op(list(order), 0, t)][:2] for order in itertools.permutations(queue)
        }
        assert len(chosen) == 1

    def test_objectives_digest_is_pinned(self):
        """24 random pairs of depth 1-8; the digest was computed before the choosers existed.

        The instance is the one generate_instance made for (5 machines,
        150 jobs, seed 31) before its stream changed, stored as a file so
        the digest pins the simulator alone.
        """
        inst = load_instance(str(Path(__file__).parent / "data" / "digest_instance_m5_n150_s31.jsonl"))
        rng = np.random.default_rng(2024)
        lines = []
        for i in range(24):
            mode = "full" if i % 2 == 0 else "grow"
            depths = (1, 1 + i % 8)
            rules = RulePair(routing=random_tree(rng, mode, depths), sequencing=random_tree(rng, mode, depths))
            lines.append(repr(run_simulation(rules, inst).objectives))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "23399184ff8b8d36bd87c4654c9ef078de1a2bb2194c24f7088d478ff5e3088a"

    def test_guarded_outcomes_digest_is_pinned(self):
        """16 ramped pairs (depth 2-6, full/grow) under the guard on a 1,000-job, 0.95-load instance.

        Each pair adds the repr of its objectives, or the QueueOverflow
        machine, time and limit; 12 of the 16 abort.  The instance is
        generated, so the digest pins the generator as well as the
        simulator.
        """
        inst = generate_instance(SimConfig(total_jobs=1000, warmup_jobs=100, utilization=0.95), seed=37)
        rng = np.random.default_rng(2025)
        lines = []
        for i in range(16):
            mode = "full" if i % 2 == 0 else "grow"
            depths = (2 + (i // 2) % 5,) * 2
            rules = RulePair(routing=random_tree(rng, mode, depths), sequencing=random_tree(rng, mode, depths))
            try:
                lines.append(repr(run_simulation(rules, inst, max_queue=100).objectives))
            except QueueOverflow as exc:
                lines.append(repr((exc.machine, exc.time, exc.limit)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "b0753d1c5feb4c46a9c8854f09a79c2dcd3ad8c8d90fb0e14df56438497b4e3a"
