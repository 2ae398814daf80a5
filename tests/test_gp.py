"""GP engine tests: initialization, operators, selection, evolution loop."""
from __future__ import annotations

import copy
import math
import weakref

import numpy as np
import pytest

from gpshop import gp as gp_module
from gpshop.errors import ConfigError
from gpshop.expr import Expression, Function, Terminal, depth, parse, size
from gpshop.gp import (
    DEGENERATE_FITNESS,
    EvolutionLog,
    FitnessEvaluator,
    GPParams,
    Individual,
    crossover,
    evolve,
    init_random,
    init_seeded,
    mutate,
    phenotypic_diversity,
    start,
    step,
    tournament_select,
)
from gpshop.rules import RulePair
from gpshop.sim import QueueOverflow, Scenario, SimConfig, generate_instance, run_simulation, weighted_fitness

SMALL_CONFIG = SimConfig(num_machines=3, total_jobs=40, warmup_jobs=5)
# Long enough for ``W - W`` routing to trip the evaluator's default queue guard of 100.
GUARD_CONFIG = SMALL_CONFIG.with_overrides(total_jobs=400, warmup_jobs=10)
SMALL_SCENARIO = Scenario(
    objectives=("Fmean",),
    lambdas=(1.0,),
    utilization=0.8,
    training_seeds=(1, 2),
    test_seeds=(3,),
)
MULTI_SCENARIO = Scenario(
    objectives=("Fmean", "WTmean"),
    lambdas=(0.2, 0.8),
    utilization=0.8,
    training_seeds=(1,),
    test_seeds=(3, 4),
)


def small_params(**kwargs) -> GPParams:
    defaults = dict(population_size=12, generations=3)
    defaults.update(kwargs)
    return GPParams(**defaults)


class StubEvaluator:
    """Seed-independent stand-in: fitness = total genome size.

    Lets structural tests (operator rates, rotation, elitism) run the
    evolve loop without simulating anything.
    """

    def __init__(self, scenario: Scenario = SMALL_SCENARIO):
        self.scenario = scenario
        self.seeds_seen: list[int] = []

    def evaluate_population(self, population, seed):
        self.seeds_seen.append(seed)
        for ind in population:
            ind.fitness = float(size(ind.genome.routing) + size(ind.genome.sequencing))


class AbortingStub(StubEvaluator):
    """StubEvaluator whose every ``every``-th individual trips the queue guard."""

    def __init__(self, every: int):
        super().__init__()
        self.every = every

    def evaluate_population(self, population, seed):
        super().evaluate_population(population, seed)
        for ind in population[:: self.every]:
            ind.fitness = DEGENERATE_FITNESS


def deep_tree(levels: int) -> Expression:
    tree = Expression.leaf(Terminal.PT)
    for _ in range(levels - 1):
        tree = Expression.call(Function.ADD, tree, Expression.leaf(Terminal.PT))
    return tree


class TestGPParams:
    def test_defaults_are_valid(self):
        p = GPParams()
        assert p.population_size == 100
        assert p.generations == 50
        assert p.crossover_rate + p.mutation_rate + p.reproduction_rate == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"generations": -1},
            {"init_depth": (0, 6)},
            {"init_depth": (6, 2)},
            {"init_depth": (2, 9)},
            {"mutation_rate": 0.25, "reproduction_rate": -0.05},
            {"crossover_rate": 0.9},
            {"tournament_size": 0},
            {"terminal_rate": 1.5},
            {"mutation_grow_depth": (3, 12)},
            {"mutation_grow_depth": (0, 2)},
            {"mutation_grow_depth": (4, 2)},
            {"mutation_grow_depth": 3},
            {"init_depth": (2.5, 4)},
            {"init_depth": (2, 3.5)},
            {"init_depth": (True, 3)},
            {"mutation_grow_depth": (2, False)},
            {"init_depth": (2, 3, 4)},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ConfigError):
            GPParams(**kwargs)


class TestInitialization:
    def test_ramped_half_and_half_split(self):
        rng = np.random.default_rng(0)
        pop = init_random(GPParams(), rng)
        assert len(pop) == 100
        levels = [2, 3, 4, 5, 6]
        per_level = {lv: 0 for lv in levels}
        for i, ind in enumerate(pop):
            level = levels[(i // 2) % 5]
            per_level[level] += 1
            d_route = depth(ind.genome.routing)
            d_seq = depth(ind.genome.sequencing)
            if i % 2 == 0:  # full mode hits the level exactly
                assert d_route == level
                assert d_seq == level
            else:  # grow mode may stop early
                assert 1 <= d_route <= level
                assert 1 <= d_seq <= level
        assert per_level == {2: 20, 3: 20, 4: 20, 5: 20, 6: 20}

    def test_init_depths_within_cap(self):
        rng = np.random.default_rng(1)
        for ind in init_random(GPParams(population_size=200), rng):
            assert depth(ind.genome.routing) <= 6
            assert depth(ind.genome.sequencing) <= 6

    def test_seeded_population_contains_seeds_verbatim(self):
        rng = np.random.default_rng(2)
        seeds = [
            RulePair.from_text("(WIQ + PT) + TRANT", "PT"),
            RulePair.from_text("NIQ", "(PT + PT) + WKR"),
        ]
        pop, rejections = init_seeded(seeds, GPParams(population_size=10), rng)
        assert rejections == []
        assert len(pop) == 10
        assert pop[0].genome == seeds[0]
        assert pop[1].genome == seeds[1]

    def test_seeded_rejects_overdeep_trees(self):
        rng = np.random.default_rng(3)
        ok = RulePair.from_text("WIQ", "PT")
        too_deep = RulePair(routing=deep_tree(9), sequencing=parse("PT"))
        assert depth(too_deep.routing) == 9
        pop, rejections = init_seeded([ok, too_deep], GPParams(population_size=6), rng)
        assert len(pop) == 6
        assert pop[0].genome == ok
        assert len(rejections) == 1
        assert rejections[0].index == 1
        assert "depth" in rejections[0].cause
        assert "9 > 8" in rejections[0].cause

    def test_seeded_truncates_surplus(self):
        rng = np.random.default_rng(4)
        seeds = [RulePair.from_text("WIQ", "PT")] * 5
        pop, rejections = init_seeded(seeds, GPParams(population_size=3), rng)
        assert len(pop) == 3
        assert rejections == []


class ScriptedRng:
    """Replays integer draws; only what tournament_select needs."""

    def __init__(self, values):
        self._values = iter(values)

    def integers(self, n):
        return next(self._values)


class TestSelection:
    def test_tie_goes_to_lower_index(self):
        pop = [Individual(genome=RulePair.from_text("WIQ", "PT"), fitness=f) for f in (3.0, 1.0, 4.0, 1.0)]
        winner = tournament_select(pop, ScriptedRng([1, 3, 0, 2]), k=4)
        assert winner is pop[1]
        winner = tournament_select(pop, ScriptedRng([3, 1, 0, 2]), k=4)
        assert winner is pop[1]
        winner = tournament_select(pop, ScriptedRng([0, 2, 2, 0]), k=4)
        assert winner is pop[0]

    def test_best_selection_probability(self):
        n, k, trials = 20, 4, 20000
        pop = [
            Individual(genome=RulePair.from_text("WIQ", "PT"), fitness=float(i))
            for i in range(n)
        ]
        rng = np.random.default_rng(5)
        hits = sum(tournament_select(pop, rng, k) is pop[0] for _ in range(trials))
        expected = 1.0 - (1.0 - 1.0 / n) ** k
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 4 * sigma

    def test_selection_pressure(self):
        n = 30
        pop = [
            Individual(genome=RulePair.from_text("WIQ", "PT"), fitness=float(i))
            for i in range(n)
        ]
        rng = np.random.default_rng(6)
        picks = [tournament_select(pop, rng, 4).fitness for _ in range(5000)]
        assert sum(picks) / len(picks) < (n - 1) / 2.0


class TestOperators:
    def _parents(self):
        a = RulePair.from_text("(WIQ + PT) + TRANT", "min(PT, SLACK)")
        b = RulePair.from_text("max(NIQ, MWT)", "(W / rDD) - OWT")
        return a, b

    def test_crossover_is_deterministic(self):
        a, b = self._parents()
        c1 = crossover(a, b, np.random.default_rng(7))
        c2 = crossover(a, b, np.random.default_rng(7))
        assert c1 == c2

    def test_crossover_touches_one_slot(self):
        a, b = self._parents()
        changed_routing = changed_sequencing = 0
        for seed in range(40):
            c1, c2 = crossover(a, b, np.random.default_rng(seed))
            for child, parent in ((c1, a), (c2, b)):
                same_route = child.routing == parent.routing
                same_seq = child.sequencing == parent.sequencing
                assert same_route or same_seq
                if not same_route:
                    changed_routing += 1
                if not same_seq:
                    changed_sequencing += 1
        assert changed_routing > 0
        assert changed_sequencing > 0

    def test_crossover_respects_depth_cap(self):
        rng = np.random.default_rng(8)
        deep = RulePair(routing=deep_tree(8), sequencing=deep_tree(8))
        fallbacks = 0
        for _ in range(100):
            c1, c2 = crossover(deep, deep, rng)
            for child in (c1, c2):
                assert depth(child.routing) <= 8
                assert depth(child.sequencing) <= 8
                if child == deep:
                    fallbacks += 1
        assert fallbacks > 0  # the cap must have engaged at least once

    def test_mutation_respects_depth_cap(self):
        params = GPParams()
        rng = np.random.default_rng(9)
        deep = RulePair(routing=deep_tree(8), sequencing=deep_tree(8))
        changed = 0
        for _ in range(100):
            child = mutate(deep, rng, params)
            assert depth(child.routing) <= 8
            assert depth(child.sequencing) <= 8
            if child != deep:
                changed += 1
        assert changed > 0

    def test_mutation_is_deterministic(self):
        a, _ = self._parents()
        m1 = mutate(a, np.random.default_rng(10), GPParams())
        m2 = mutate(a, np.random.default_rng(10), GPParams())
        assert m1 == m2

    def test_mutation_touches_one_slot(self):
        a, _ = self._parents()
        for seed in range(30):
            child = mutate(a, np.random.default_rng(seed), GPParams())
            same_route = child.routing == a.routing
            same_seq = child.sequencing == a.sequencing
            assert same_route or same_seq


class TestDiversity:
    def _pop(self, fitnesses):
        return [
            Individual(genome=RulePair.from_text("WIQ", "PT"), fitness=f) for f in fitnesses
        ]

    def test_exact_values(self):
        assert phenotypic_diversity(self._pop([1.0, 2.0, 3.0])) == 1.0
        assert phenotypic_diversity(self._pop([5.0] * 4)) == 0.25
        assert phenotypic_diversity(self._pop([1.0, 1.0, 2.0])) == pytest.approx(2 / 3)

    def test_requires_evaluated_population(self):
        with pytest.raises(ValueError):
            phenotypic_diversity([Individual(genome=RulePair.from_text("WIQ", "PT"))])


class TestFitnessEvaluator:
    def test_single_objective_matches_direct_simulation(self):
        ev = FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO)
        pair = RulePair.from_text("(WIQ + PT) + TRANT", "PT")
        fit = ev.fitness(pair, seed=1)
        out = run_simulation(pair, ev.instance(1))
        assert fit == out.objectives.Fmean

    def test_evaluator_applies_scenario_utilization(self):
        scenario = Scenario(
            objectives=("Fmean",), lambdas=(1.0,), utilization=0.95,
            training_seeds=(1,), test_seeds=(2,),
        )
        ev = FitnessEvaluator(SMALL_CONFIG.with_overrides(utilization=0.5), scenario)
        assert ev.config.utilization == 0.95

    def test_multi_objective_reference_scores_one(self):
        scenario = Scenario(
            objectives=("Fmean", "WTmean"),
            lambdas=(0.2, 0.8),
            utilization=0.8,
            training_seeds=(1,),
            test_seeds=(2,),
        )
        ev = FitnessEvaluator(SMALL_CONFIG, scenario)
        assert ev.fitness(RulePair.reference(), seed=1) == 1.0

    def test_multi_objective_matches_manual_normalization(self):
        scenario = Scenario(
            objectives=("Fmean", "WTmean"),
            lambdas=(0.2, 0.8),
            utilization=0.8,
            training_seeds=(1,),
            test_seeds=(2,),
        )
        ev = FitnessEvaluator(SMALL_CONFIG, scenario)
        pair = RulePair.from_text("NIQ", "SLACK")
        expected = weighted_fitness(
            run_simulation(pair, ev.instance(1)).objectives,
            scenario,
            ev.reference_objectives(1),
        )
        assert ev.fitness(pair, seed=1) == expected

    def test_degenerate_rules_get_penalty_fitness(self):
        ev = FitnessEvaluator(GUARD_CONFIG, SMALL_SCENARIO)
        assert ev.max_queue == 100
        assert ev.fitness(RulePair.from_text("W - W", "PT"), seed=1) == DEGENERATE_FITNESS

    @staticmethod
    def spy_on_simulations(monkeypatch) -> list[int]:
        """Record the instance seed of every simulation the evaluator runs."""
        seeds: list[int] = []

        def spy(pair, instance, **kwargs):
            seeds.append(instance.seed)
            return run_simulation(pair, instance, **kwargs)

        monkeypatch.setattr(gp_module, "run_simulation", spy)
        return seeds

    def test_repeated_fitness_is_memoised(self, monkeypatch):
        simulated = self.spy_on_simulations(monkeypatch)
        ev = FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO)
        pair = RulePair.from_text("(WIQ + PT) + TRANT", "PT")
        first = ev.fitness(pair, seed=1)
        again = ev.fitness(RulePair.from_text("(WIQ + PT) + TRANT", "PT"), seed=1)
        assert again is first
        assert simulated == [1]
        # The same pair on another seed is a different evaluation.
        ev.fitness(pair, seed=2)
        assert simulated == [1, 2]

    def test_guard_aborts_are_memoised(self, monkeypatch):
        simulated = self.spy_on_simulations(monkeypatch)
        ev = FitnessEvaluator(GUARD_CONFIG, SMALL_SCENARIO)
        pair = RulePair.from_text("W - W", "PT")
        assert ev.fitness(pair, seed=1) == DEGENERATE_FITNESS
        assert ev.fitness(pair, seed=1) == DEGENERATE_FITNESS
        assert simulated == [1]

    def test_reference_pair_is_simulated_once_per_seed(self, monkeypatch):
        simulated = self.spy_on_simulations(monkeypatch)
        ev = FitnessEvaluator(SMALL_CONFIG, MULTI_SCENARIO)
        # Its guarded run both normalises and scores the reference pair.
        assert ev.test_performance(RulePair.reference()) == 1.0
        assert simulated == [3, 4]

    def test_reference_objectives_share_the_fitness_memo(self, monkeypatch):
        simulated = self.spy_on_simulations(monkeypatch)
        ev = FitnessEvaluator(SMALL_CONFIG, MULTI_SCENARIO)
        ev.reference_objectives(1)
        assert simulated == [1]
        assert ev.fitness(RulePair.reference(), seed=1) == 1.0
        assert simulated == [1]

    def test_reference_guard_abort_normalises_by_unguarded_run(self, monkeypatch):
        reference = RulePair.reference()
        runs: list[tuple[bool, bool]] = []  # (is the reference, guarded)

        def guard_trips_reference(pair, instance, max_queue=None, **kwargs):
            runs.append((pair == reference, max_queue is not None))
            if pair == reference and max_queue is not None:
                raise QueueOverflow(0, 0.0, max_queue)
            return run_simulation(pair, instance, max_queue=max_queue, **kwargs)

        monkeypatch.setattr(gp_module, "run_simulation", guard_trips_reference)
        ev = FitnessEvaluator(SMALL_CONFIG, MULTI_SCENARIO)
        unguarded = run_simulation(reference, ev.instance(1)).objectives
        assert ev.fitness(reference, seed=1) == DEGENERATE_FITNESS
        assert ev.reference_objectives(1) == unguarded
        pair = RulePair.from_text("NIQ", "SLACK")
        expected = weighted_fitness(run_simulation(pair, ev.instance(1)).objectives, MULTI_SCENARIO, unguarded)
        assert ev.fitness(pair, seed=1) == expected
        assert ev.fitness(pair, seed=1) == expected
        assert runs == [(True, True), (True, False), (False, True)]

    def test_instance_cache_reuses_objects(self):
        """The evaluator holds the last seed's instance only."""
        ev = FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO)
        first = ev.instance(1)
        assert ev.instance(1) is first
        second = ev.instance(2)
        assert second.seed == 2 and ev.instance(2) is second
        again = ev.instance(1)
        assert again is not first and again == first

    def test_regeneration_lets_the_old_instance_go_first(self, monkeypatch):
        """While the next seed's instance is built, the evaluator holds no other."""
        ev = FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO)
        old = weakref.ref(ev.instance(1))
        held = []

        def generate(config, seed):
            held.append(old())
            return generate_instance(config, seed=seed)

        monkeypatch.setattr(gp_module, "generate_instance", generate)
        assert ev.instance(2).seed == 2
        assert held == [None]

    def test_identical_genomes_get_identical_fitness(self):
        ev = FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO)
        pop = [
            Individual(genome=RulePair.from_text("WIQ", "PT")),
            Individual(genome=RulePair.from_text("WIQ", "PT")),
        ]
        ev.evaluate_population(pop, seed=2)
        assert pop[0].fitness == pop[1].fitness

    def test_test_performance_averages_seeds(self):
        scenario = Scenario(
            objectives=("Fmean",), lambdas=(1.0,), utilization=0.8,
            training_seeds=(1,), test_seeds=(3, 4),
        )
        ev = FitnessEvaluator(SMALL_CONFIG, scenario)
        pair = RulePair.reference()
        expected = (ev.fitness(pair, 3) + ev.fitness(pair, 4)) / 2
        assert ev.test_performance(pair) == pytest.approx(expected)
        # Test seeds are scored as fitness scores them.
        cold = FitnessEvaluator(SMALL_CONFIG, scenario)
        assert cold.test_performance(pair) == expected

    def test_test_performance_scores_guard_aborts(self, monkeypatch):
        simulated = self.spy_on_simulations(monkeypatch)
        scenario = Scenario(
            objectives=("Fmean",), lambdas=(1.0,), utilization=0.8,
            training_seeds=(1,), test_seeds=(3, 4),
        )
        ev = FitnessEvaluator(GUARD_CONFIG, scenario)
        pair = RulePair.from_text("W - W", "PT")
        assert ev.test_performance(pair) == DEGENERATE_FITNESS
        assert ev.test_performance(pair) == DEGENERATE_FITNESS
        assert ev.test_aborted(pair) == 2
        assert simulated == [3, 4]
        # The reference pair completes on both seeds; counting reads the memo.
        ev.test_performance(RulePair.reference())
        assert ev.test_aborted(RulePair.reference()) == 0
        assert simulated == [3, 4, 3, 4]


class TestEvolve:
    def test_small_run_returns_best_and_log(self):
        rng = np.random.default_rng(11)
        best, log = evolve(small_params(), FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO), rng)
        assert best.fitness is not None
        assert len(log.entries) == 3
        assert len(log.gen0_fitness) == 12
        assert log.entries[0].op_counts == {"init": 12}
        assert set(log.entries[1].op_counts) == {"crossover", "mutation", "reproduction"}
        assert best.fitness <= min(e.best_fitness for e in log.entries)
        for entry in log.entries:
            assert entry.best_routing
            assert entry.best_sequencing
            assert 0.0 < entry.diversity <= 1.0

    def test_evolve_is_deterministic(self):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(12)
            best, log = evolve(small_params(), FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO), rng)
            runs.append((best.genome, best.fitness, [e.best_fitness for e in log.entries]))
        assert runs[0] == runs[1]

    def test_training_seed_rotation(self):
        rng = np.random.default_rng(13)
        scenario = Scenario(
            objectives=("Fmean",), lambdas=(1.0,), utilization=0.8,
            training_seeds=(7, 8), test_seeds=(9,),
        )
        stub = StubEvaluator(scenario)
        evolve(small_params(generations=5), stub, rng)
        assert stub.seeds_seen == [7, 8, 7, 8, 7]

    def test_elitism_keeps_best_monotone_on_fixed_seed(self):
        # With one training seed and a deterministic evaluator the elite
        # guarantees a non-increasing best-fitness curve.
        rng = np.random.default_rng(14)
        scenario = Scenario(
            objectives=("Fmean",), lambdas=(1.0,), utilization=0.8,
            training_seeds=(1,), test_seeds=(2,),
        )
        _, log = evolve(small_params(population_size=30, generations=12), StubEvaluator(scenario), rng)
        bests = [e.best_fitness for e in log.entries]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_depth_cap_holds_every_generation(self):
        stub = StubEvaluator()
        rng = np.random.default_rng(15)
        params = small_params(population_size=40, generations=8)
        audited: list[int] = []
        state = start(params, rng)
        for _ in range(params.generations):
            step(state, params, stub, rng)
            for ind in state.population:
                audited.append(max(depth(ind.genome.routing), depth(ind.genome.sequencing)))
        assert len(audited) == 40 * 8
        assert max(audited) <= 8

    def test_operator_rates_roughly_hold(self):
        stub = StubEvaluator()
        rng = np.random.default_rng(16)
        _, log = evolve(small_params(population_size=300, generations=2), stub, rng)
        counts = log.entries[1].op_counts
        events = sum(counts.values())
        assert abs(counts["crossover"] / events - 0.80) < 0.10
        assert abs(counts["mutation"] / events - 0.15) < 0.09
        assert abs(counts["reproduction"] / events - 0.05) < 0.06
        # One elite plus operator outputs fill the population exactly.
        children = 2 * counts["crossover"] + counts["mutation"] + counts["reproduction"]
        assert children in (299, 300)  # final crossover may spill one child

    def test_zero_generations_evaluates_initial_population(self):
        params, evaluator = small_params(generations=0), FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO)
        best, log = evolve(params, evaluator, np.random.default_rng(17))
        assert log.entries == []
        assert len(log.gen0_fitness) == 12
        assert best.fitness == min(log.gen0_fitness)
        # A step is one generation and one log row, whatever the configured count.
        rng = np.random.default_rng(17)
        state = start(params, rng)
        step(state, params, evaluator, rng)
        assert [e.best_fitness for e in state.log.entries] == [best.fitness]

    def test_seeded_evolution_reports_rejections(self):
        rng = np.random.default_rng(18)
        seeds = [
            RulePair.from_text("(WIQ + PT) + TRANT", "PT"),
            RulePair(routing=deep_tree(9), sequencing=parse("PT")),
        ]
        params = small_params(generations=1)
        state = start(params, rng, seed_rules=seeds)
        step(state, params, FitnessEvaluator(SMALL_CONFIG, SMALL_SCENARIO), rng)
        log = state.log
        assert len(log.seed_rejections) == 1
        assert log.seed_rejections[0].index == 1
        genomes = [ind.genome for ind in state.population]
        assert seeds[0] in genomes

    @pytest.mark.parametrize("every, aborted", [(3, 4), (1, 12)])
    def test_mean_fitness_skips_guard_aborts(self, every, aborted):
        params = small_params()
        rng = np.random.default_rng(5)
        stub = AbortingStub(every)
        seen = []
        state = start(params, rng)
        for _ in range(params.generations):
            step(state, params, stub, rng)
            seen.append([ind.fitness for ind in state.population])
        log = state.log
        assert len(log.entries) == len(seen) == 3
        for entry, fitnesses in zip(log.entries, seen):
            assert entry.aborted == aborted
            completed = [f for f in fitnesses if f != DEGENERATE_FITNESS]
            if completed:
                assert entry.mean_fitness == sum(completed) / len(completed)
            else:
                assert entry.mean_fitness == DEGENERATE_FITNESS

    def test_state_and_rng_are_the_whole_run(self):
        # A run stopped after k generations and finished from a copy of
        # (state, rng) with a fresh evaluator ends where the uninterrupted
        # run ends: nothing else carries over from one step to the next.
        config = SMALL_CONFIG.with_overrides(total_jobs=200, warmup_jobs=20)
        scenario = Scenario(
            objectives=("Fmean", "WTmean"), lambdas=(0.2, 0.8), utilization=0.85,
            training_seeds=(1, 2), test_seeds=(3,),
        )
        params = small_params(generations=4)
        whole = evolve(params, FitnessEvaluator(config, scenario), np.random.default_rng(21))

        rng = np.random.default_rng(21)
        evaluator = FitnessEvaluator(config, scenario)
        state = start(params, rng)
        for _ in range(2):
            step(state, params, evaluator, rng)
        state, rng = copy.deepcopy((state, rng))
        evaluator = FitnessEvaluator(config, scenario)
        for _ in range(2):
            step(state, params, evaluator, rng)
        assert (state.best, state.log) == whole
        assert state.generation == 4
