"""Simulation layer tests.

The golden-schedule expectations were derived by hand; the full working
is in tests/data/golden_schedule.md.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpshop.errors import ConfigError, DataError
from gpshop.expr import random_tree
from gpshop.rules import RulePair
from gpshop.sim import (
    CompletedJob,
    Instance,
    Job,
    ObjectiveVector,
    Operation,
    QueueOverflow,
    Scenario,
    SimConfig,
    arrival_rate_for_utilization,
    compute_objectives,
    dump_instance,
    generate_instance,
    load_instance,
    mean_objective_vectors,
    run_simulation,
    simulate,
    validate_trace,
    weighted_fitness,
)
from gpshop.sim.engine import trace_to_csv

from conftest import FIFO_RULES, SPT_RULES, make_golden_instance


def completions_by_job(outcome) -> dict[int, float]:
    return {c.job_id: c.completion for c in outcome.completed}


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

    def test_simulate_wrapper(self, golden_instance):
        assert simulate(FIFO_RULES, golden_instance) == run_simulation(
            FIFO_RULES, golden_instance
        ).objectives


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

    def op(workload, machines):
        pts = tuple(workload / rates[m] for m in machines)
        return Operation(
            workload=workload,
            machines=machines,
            proc_times=pts,
            median_proc_time=float(np.median(pts)),
        )

    jobs = (
        Job(id=1, release=0.0, weight=1, due=45.0, operations=(op(300.0, (0,)),)),
        Job(id=2, release=1.0, weight=1, due=16.0, operations=(op(100.0, (0, 1)),)),
    )
    return Instance(
        config=config,
        seed=0,
        machine_rates=rates,
        entry_distances=(50.0, 100.0),
        machine_distances=((0.0, 75.0), (75.0, 0.0)),
        jobs=jobs,
    )


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


class TestObjectives:
    def test_worked_example(self):
        jobs = [
            CompletedJob(job_id=1, release=0.0, due=8.0, weight=2, completion=10.0),
            CompletedJob(job_id=2, release=1.0, due=9.0, weight=1, completion=5.0),
        ]
        obj = compute_objectives(jobs)
        assert obj.Tmax == 2.0
        assert obj.Tmean == 1.0
        assert obj.Fmean == 7.0
        assert obj.WTmean == 2.0
        assert obj.WFmean == 12.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_objectives([])

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

    def test_mean_objective_vectors(self):
        a = ObjectiveVector(Tmax=2.0, Tmean=1.0, Fmean=4.0, WTmean=6.0, WFmean=8.0)
        b = ObjectiveVector(Tmax=4.0, Tmean=3.0, Fmean=8.0, WTmean=2.0, WFmean=0.0)
        mean = mean_objective_vectors([a, b])
        assert mean == ObjectiveVector(Tmax=3.0, Tmean=2.0, Fmean=6.0, WTmean=4.0, WFmean=4.0)
        with pytest.raises(ValueError):
            mean_objective_vectors([])


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
        assert len(inst.jobs) == 400
        assert all(10.0 <= r < 15.0 for r in inst.machine_rates)
        assert all(35.0 <= d <= 500.0 for d in inst.entry_distances)
        for i, row in enumerate(inst.machine_distances):
            assert row[i] == 0.0
            for j, d in enumerate(row):
                assert d == inst.machine_distances[j][i]
                if i != j:
                    assert 35.0 <= d <= 500.0
        prev = -1.0
        for job in inst.jobs:
            assert job.release > prev
            prev = job.release
            assert job.weight in (1, 2, 4)
            assert 2 <= len(job.operations) <= 10
            for op in job.operations:
                assert 100.0 <= op.workload <= 1000.0
                assert op.machines == tuple(sorted(set(op.machines)))
                assert 1 <= len(op.machines) <= 5
                for mch, pt in zip(op.machines, op.proc_times):
                    assert pt == op.workload / inst.machine_rates[mch]
                assert op.median_proc_time == float(np.median(op.proc_times))

    def test_due_dates_recompute(self):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=60, warmup_jobs=5), seed=11)
        for job in inst.jobs:
            total_median = sum(op.median_proc_time for op in job.operations)
            assert job.due == pytest.approx(job.release + 1.5 * total_median)

    def test_weight_mix_within_three_sigma(self):
        n = 2000
        inst = generate_instance(
            SimConfig(num_machines=3, total_jobs=n, warmup_jobs=10), seed=5
        )
        counts = {1: 0, 2: 0, 4: 0}
        for job in inst.jobs:
            counts[job.weight] += 1
        for w, p in ((1, 0.2), (2, 0.6), (4, 0.2)):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[w] - n * p) < 3 * sigma

    def test_interarrival_mean(self):
        n = 3000
        config = SimConfig(num_machines=10, total_jobs=n, warmup_jobs=10)
        inst = generate_instance(config, seed=21)
        gaps = [inst.jobs[0].release] + [
            b.release - a.release for a, b in zip(inst.jobs, inst.jobs[1:])
        ]
        target = 1.0 / arrival_rate_for_utilization(config)
        mean_gap = sum(gaps) / n
        # Exponential: sigma == mean, so a 3 sigma/sqrt(n) band.
        assert abs(mean_gap - target) < 3 * target / math.sqrt(n)

    def test_ops_per_job_mean(self):
        inst = generate_instance(
            SimConfig(num_machines=3, total_jobs=2000, warmup_jobs=10), seed=8
        )
        counts = [len(job.operations) for job in inst.jobs]
        # U{2..10}: mean 6, variance (9^2 - 1) / 12.
        sigma = math.sqrt((81 - 1) / 12.0)
        assert abs(sum(counts) / len(counts) - 6.0) < 3 * sigma / math.sqrt(len(counts))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = generate_instance(SimConfig(num_machines=3, total_jobs=40, warmup_jobs=4), seed=2)
        path = tmp_path / "inst.jsonl"
        dump_instance(inst, str(path))
        assert load_instance(str(path)) == inst
        assert not (tmp_path / "inst.jsonl.tmp").exists()

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
        assert simulate(FIFO_RULES, loaded) == simulate(FIFO_RULES, golden_instance)

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
        assert out.makespan >= max(c.completion for c in out.completed) - 1e-9
        assert len(out.completed) == 80

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
            FIFO_RULES, inst, config=inst.config.with_overrides(warmup_jobs=10)
        )
        survivors = [c for c in full.completed if c.job_id > 10]
        assert trimmed.objectives == compute_objectives(survivors)
        assert trimmed.objectives != full.objectives

    def test_queue_overflow_guard(self):
        inst = generate_instance(SimConfig(num_machines=5, total_jobs=200, warmup_jobs=10), seed=23)
        degenerate = RulePair.from_text("W - W", "PT")
        with pytest.raises(QueueOverflow) as exc_info:
            run_simulation(degenerate, inst, max_queue=40)
        assert exc_info.value.limit == 40
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

    def test_trace_to_csv(self, tmp_path, golden_instance):
        out = run_simulation(FIFO_RULES, golden_instance, record_trace=True)
        path = tmp_path / "trace.csv"
        trace_to_csv(out.trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "time,machine,job,op,event"
        assert len(lines) == len(out.trace) + 1
        assert lines[1].endswith(",start")


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
        ],
    )
    def test_bad_sim_config(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

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
        assert s.objective_equation() == "0.2*Fmean + 0.8*WTmean"
        assert s.is_multi_objective
        named = Scenario(
            objectives=("Tmax",), lambdas=(1.0,), training_seeds=(1,), test_seeds=(2,), name="peak"
        )
        assert named.label == "peak"
        assert named.objective_equation() == "Tmax"
        assert not named.is_multi_objective


_PROP_INSTANCE = generate_instance(
    SimConfig(num_machines=3, total_jobs=25, warmup_jobs=5, utilization=0.8), seed=31
)


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
        assert len(out.completed) == 25
        assert 0.0 < out.busy_fraction <= 1.0
        assert validate_trace(out.trace, _PROP_INSTANCE) == []

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_capture_never_changes_decisions(self, seed):
        rng = np.random.default_rng(seed)
        rules = RulePair(
            routing=random_tree(rng, mode="full", depth_range=(2, 3)),
            sequencing=random_tree(rng, mode="grow", depth_range=(2, 4)),
        )
        fast = run_simulation(rules, _PROP_INSTANCE, record_trace=True, max_queue=500)
        slow = run_simulation(
            rules, _PROP_INSTANCE, record_trace=True, capture_contexts=True, max_queue=500
        )
        assert fast.trace == slow.trace
        assert fast.objectives == slow.objectives
