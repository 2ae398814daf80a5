"""Genetic programming engine over routing/sequencing rule pairs.

Generational GP with tournament selection, slot-wise subtree crossover,
subtree mutation and reproduction, a single elite, and per-generation
rotation of the training instance.  Populations can start random (ramped
half-and-half) or warm-started from externally supplied rule pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .expr import (
    Expression,
    MAX_DEPTH,
    depth,
    format_expr,
    iter_subtrees,
    random_tree,
    replace_subtree,
    subtree_at,
)
from .rules import RulePair, check_depth
from .sim.config import Scenario, SimConfig
from .sim.engine import QueueOverflow, run_simulation
from .sim.instance import Instance, generate_instance
from .sim.objectives import ObjectiveVector, weighted_fitness

__all__ = [
    "GPParams",
    "Individual",
    "GenerationStats",
    "EvolutionLog",
    "EvolutionState",
    "SeedRejection",
    "FitnessEvaluator",
    "DEGENERATE_FITNESS",
    "init_random",
    "init_seeded",
    "tournament_select",
    "crossover",
    "mutate",
    "phenotypic_diversity",
    "start",
    "step",
    "evolve",
]

# Fitness assigned to rules whose simulation was aborted by the queue
# guard; large enough that selection always prefers any completed run.
DEGENERATE_FITNESS = 1e12


@dataclass(frozen=True)
class GPParams:
    """Search parameters; defaults follow the standard full-scale setup."""

    population_size: int = 100
    generations: int = 50
    init_depth: tuple[int, int] = (2, 6)
    crossover_rate: float = 0.80
    mutation_rate: float = 0.15
    reproduction_rate: float = 0.05
    tournament_size: int = 4
    terminal_rate: float = 0.10
    mutation_grow_depth: tuple[int, int] = (2, 4)

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        for name in ("init_depth", "mutation_grow_depth"):
            bounds = getattr(self, name)
            pair = isinstance(bounds, (tuple, list)) and len(bounds) == 2 and all(type(b) is int for b in bounds)
            if not (pair and 1 <= bounds[0] <= bounds[1] <= MAX_DEPTH):
                raise ConfigError(f"{name} must be a pair of integers lo <= hi within [1, {MAX_DEPTH}], got {bounds!r}")
        total = self.crossover_rate + self.mutation_rate + self.reproduction_rate
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"operator rates must sum to 1, got {total}")
        if min(self.crossover_rate, self.mutation_rate, self.reproduction_rate) < 0:
            raise ConfigError("operator rates must be non-negative")
        if self.tournament_size < 1:
            raise ConfigError("tournament_size must be >= 1")
        if not (0.0 <= self.terminal_rate <= 1.0):
            raise ConfigError("terminal_rate must lie in [0, 1]")


@dataclass
class Individual:
    genome: RulePair
    fitness: float | None = None


@dataclass(frozen=True)
class SeedRejection:
    index: int
    cause: str


@dataclass
class GenerationStats:
    """One generation's summary.

    ``mean_fitness`` averages the simulations that completed; the
    ``aborted`` ones, which the queue guard stopped, are only counted.
    When every simulation aborted the mean is DEGENERATE_FITNESS.
    """

    generation: int
    best_fitness: float
    mean_fitness: float
    diversity: float
    best_routing: str
    best_sequencing: str
    op_counts: dict[str, int] = field(default_factory=dict)
    aborted: int = 0


@dataclass
class EvolutionLog:
    entries: list[GenerationStats] = field(default_factory=list)
    gen0_fitness: list[float] = field(default_factory=list)
    seed_rejections: list[SeedRejection] = field(default_factory=list)


# ------------------------------------------------------------- population

def _ramped_pairs(count: int, params: GPParams, rng: np.random.Generator) -> list[RulePair]:
    """Ramped half-and-half: cycle depth levels, alternating full/grow.

    Levels run init_depth lo..hi; a population of 100 over levels 2..6
    gets 20 individuals per level, half full and half grow.  Routing and
    sequencing trees are generated independently.
    """
    lo, hi = params.init_depth
    levels = list(range(lo, hi + 1))
    pairs = []
    for i in range(count):
        level = levels[(i // 2) % len(levels)]
        mode = "full" if i % 2 == 0 else "grow"
        routing = random_tree(rng, mode, (level, level), params.terminal_rate)
        sequencing = random_tree(rng, mode, (level, level), params.terminal_rate)
        pairs.append(RulePair(routing=routing, sequencing=sequencing))
    return pairs


def init_random(params: GPParams, rng: np.random.Generator) -> list[Individual]:
    return [Individual(genome=pair) for pair in _ramped_pairs(params.population_size, params, rng)]


def init_seeded(
    seed_rules: list[RulePair],
    params: GPParams,
    rng: np.random.Generator,
) -> tuple[list[Individual], list[SeedRejection]]:
    """Warm-started population: accepted seeds verbatim, random refill.

    Seeds beyond population_size are truncated preserving order; seeds
    whose trees exceed the depth cap are rejected with index and cause
    (the caller decides whether to refill or fail).
    """
    accepted: list[RulePair] = []
    rejections: list[SeedRejection] = []
    for index, pair in enumerate(seed_rules):
        try:
            check_depth(pair)
        except DataError as exc:
            rejections.append(SeedRejection(index=index, cause=str(exc)))
            continue
        if len(accepted) < params.population_size:
            accepted.append(pair)
    filler = _ramped_pairs(params.population_size - len(accepted), params, rng)
    return [Individual(genome=pair) for pair in accepted + filler], rejections


# -------------------------------------------------------------- evaluation

class FitnessEvaluator:
    """Maps rule pairs to scenario fitness via simulation.

    Holds the instance of the last seed it was asked for, and memoises
    one guarded simulation per (pair, seed): its objectives, or None if
    the queue guard aborted it (fitness DEGENERATE_FITNESS).  Fitness,
    held-out scores and the reference objectives that normalise
    multi-objective fitness all read it; only an aborted reference run is
    repeated without the guard, memoised apart, to normalise the other
    pairs.  The memo is a cache, not state: a fresh evaluator scores
    every (pair, seed) as the old one did.

    One instance suffices: a generation scores its population on one
    seed, and ``test_performance`` finishes each seed before the next.
    A scenario with 2 to 8 training seeds and more generations than
    seeds does regenerate one instance per generation.
    """

    def __init__(self, config: SimConfig, scenario: Scenario):
        self.config = config.with_overrides(utilization=scenario.utilization)
        self.scenario = scenario
        # An order of magnitude above what well-behaved rules reach.
        self.max_queue = max(100, self.config.total_jobs // 10)
        self._instance: Instance | None = None
        self._outcomes: dict[tuple[RulePair, int, bool], ObjectiveVector | None] = {}

    def instance(self, seed: int) -> Instance:
        if self._instance is None or self._instance.seed != seed:
            self._instance = None  # the old instance goes before the next is built
            self._instance = generate_instance(self.config, seed=seed)
        return self._instance

    def _objectives(self, pair: RulePair, seed: int, guarded: bool = True) -> ObjectiveVector | None:
        """Memoised objectives of ``pair`` on ``seed``; None if the guard aborted the run."""
        key = (pair, seed, guarded)
        if key not in self._outcomes:
            try:
                outcome = run_simulation(pair, self.instance(seed), max_queue=self.max_queue if guarded else None)
                self._outcomes[key] = outcome.objectives
            except QueueOverflow:
                self._outcomes[key] = None
        return self._outcomes[key]

    def reference_objectives(self, seed: int) -> ObjectiveVector:
        reference = RulePair.reference()
        objectives = self._objectives(reference, seed)
        return objectives if objectives is not None else self._objectives(reference, seed, guarded=False)

    def fitness(self, pair: RulePair, seed: int) -> float:
        """Fitness of ``pair`` on ``seed``: the only scorer, for training and held-out seeds alike."""
        reference = self.reference_objectives(seed) if self.scenario.is_multi_objective else None
        objectives = self._objectives(pair, seed)
        return DEGENERATE_FITNESS if objectives is None else weighted_fitness(objectives, self.scenario, reference)

    def evaluate_population(self, population: list[Individual], seed: int) -> None:
        """Assign fitness to every individual on the given instance seed."""
        for ind in population:
            ind.fitness = self.fitness(ind.genome, seed)

    def test_performance(self, pair: RulePair) -> float:
        """Mean fitness across the scenario's held-out test seeds.

        Each seed is scored by ``fitness``; the scores are summed in seed
        order and divided once.  A seed whose simulation the queue guard
        aborted adds DEGENERATE_FITNESS (1e12) to that mean, like any
        aborted training simulation, so one such seed outweighs the rest.
        """
        total = 0.0
        for seed in self.scenario.test_seeds:
            total += self.fitness(pair, seed)
        return total / len(self.scenario.test_seeds)

    def test_aborted(self, pair: RulePair) -> int:
        """Held-out seeds on which the queue guard aborted ``pair``; after ``test_performance`` it reads the memo."""
        return sum(self._objectives(pair, seed) is None for seed in self.scenario.test_seeds)


# --------------------------------------------------------------- operators

def tournament_select(population: list[Individual], rng: np.random.Generator, k: int) -> Individual:
    """Best of k uniform-with-replacement contestants; ties to lower index."""
    n = len(population)
    best_idx = int(rng.integers(n))
    best_fit = population[best_idx].fitness
    for _ in range(k - 1):
        idx = int(rng.integers(n))
        fit = population[idx].fitness
        if fit < best_fit or (fit == best_fit and idx < best_idx):
            best_idx = idx
            best_fit = fit
    return population[best_idx]


def _biased_node_path(tree: Expression, rng: np.random.Generator) -> tuple[int, ...]:
    """Crossover point: 0.90 internal / 0.10 leaf (leaf if no internals)."""
    internal = []
    leaves = []
    for path, node in iter_subtrees(tree):
        (leaves if node.is_leaf else internal).append(path)
    if internal and rng.random() < 0.90:
        return internal[int(rng.integers(len(internal)))]
    return leaves[int(rng.integers(len(leaves)))]


def _uniform_node_path(tree: Expression, rng: np.random.Generator) -> tuple[int, ...]:
    paths = [path for path, _ in iter_subtrees(tree)]
    return paths[int(rng.integers(len(paths)))]


def _with_slot(pair: RulePair, slot: int, tree: Expression) -> RulePair:
    """``pair`` with ``tree`` in ``slot`` (0 routing, 1 sequencing), or ``pair`` itself if ``tree`` is deeper than MAX_DEPTH."""
    if depth(tree) > MAX_DEPTH:
        return pair
    if slot == 0:
        return RulePair(routing=tree, sequencing=pair.sequencing)
    return RulePair(routing=pair.routing, sequencing=tree)


def crossover(a: RulePair, b: RulePair, rng: np.random.Generator) -> tuple[RulePair, RulePair]:
    """Swap subtrees in one slot (routing or sequencing) of both parents.

    Draws the slot, then a's crossover point, then b's.  A child whose
    tree would exceed the depth cap is its own parent, unmodified.
    """
    slot = int(rng.integers(2))
    tree_a = a.routing if slot == 0 else a.sequencing
    tree_b = b.routing if slot == 0 else b.sequencing
    path_a = _biased_node_path(tree_a, rng)
    path_b = _biased_node_path(tree_b, rng)
    new_a = replace_subtree(tree_a, path_a, subtree_at(tree_b, path_b))
    new_b = replace_subtree(tree_b, path_b, subtree_at(tree_a, path_a))
    return _with_slot(a, slot, new_a), _with_slot(b, slot, new_b)


def mutate(pair: RulePair, rng: np.random.Generator, params: GPParams) -> RulePair:
    """Replace a uniformly chosen subtree of one slot with a fresh grow subtree; a too-deep mutant is ``pair``."""
    slot = int(rng.integers(2))
    tree = pair.routing if slot == 0 else pair.sequencing
    path = _uniform_node_path(tree, rng)
    fresh = random_tree(rng, "grow", params.mutation_grow_depth, params.terminal_rate)
    return _with_slot(pair, slot, replace_subtree(tree, path, fresh))


def phenotypic_diversity(population: list[Individual]) -> float:
    """Fraction of distinct fitness values in the population."""
    values = set()
    for ind in population:
        if ind.fitness is None:
            raise ValueError("phenotypic_diversity requires a fully evaluated population")
        values.add(ind.fitness)
    return len(values) / len(population)


def _breed(population: list[Individual], params: GPParams, rng: np.random.Generator) -> tuple[list[Individual], dict[str, int]]:
    """Next generation: one elite copy, then rate-driven operator events.

    Each event draws its parents' genomes by tournament (for crossover,
    the first parent, then the second, then the operator's own draws);
    the bred genomes become unevaluated individuals.
    """
    def parent() -> RulePair:
        return tournament_select(population, rng, params.tournament_size).genome

    genomes = [min(population, key=lambda ind: ind.fitness).genome]
    counts = {"crossover": 0, "mutation": 0, "reproduction": 0}
    n = params.population_size
    cx = params.crossover_rate
    mu = cx + params.mutation_rate
    while len(genomes) < n:
        r = rng.random()
        if r < cx:
            genomes.extend(crossover(parent(), parent(), rng))  # the second child may spill past n
            counts["crossover"] += 1
        elif r < mu:
            genomes.append(mutate(parent(), rng, params))
            counts["mutation"] += 1
        else:
            genomes.append(parent())
            counts["reproduction"] += 1
    return [Individual(genome=genome) for genome in genomes[:n]], counts


# ---------------------------------------------------------------- evolve

@dataclass
class EvolutionState:
    """A GP run between generations; together with the rng it is the whole run."""

    population: list[Individual]
    log: EvolutionLog
    op_counts: dict[str, int]  # the operator events that bred the population
    generation: int = 0  # generations evaluated so far
    best: Individual | None = None  # best-ever; None before the first evaluation


def start(params: GPParams, rng: np.random.Generator, seed_rules: list[RulePair] | None = None) -> EvolutionState:
    """Generation 0, random or warm-started, not yet evaluated."""
    if seed_rules is None:
        population, rejections = init_random(params, rng), []
    else:
        population, rejections = init_seeded(seed_rules, params, rng)
    return EvolutionState(population, EvolutionLog(seed_rejections=rejections), {"init": params.population_size})


def step(state: EvolutionState, params: GPParams, evaluator: FitnessEvaluator, rng: np.random.Generator) -> None:
    """Evaluate one generation, breeding it first unless it is generation 0.

    Generation g evaluates on training seed g mod len(training_seeds)
    and appends one log row.  Because the instance rotates, the best-ever
    comparison is across generations' training instances; the elite
    itself is re-evaluated every generation.
    """
    g = state.generation
    if g > 0:
        state.population, state.op_counts = _breed(state.population, params, rng)
    population = state.population
    seeds = evaluator.scenario.training_seeds
    evaluator.evaluate_population(population, seeds[g % len(seeds)])
    if g == 0:
        state.log.gen0_fitness = [ind.fitness for ind in population]
    gen_best = min(population, key=lambda ind: ind.fitness)
    if state.best is None or gen_best.fitness < state.best.fitness:
        state.best = Individual(genome=gen_best.genome, fitness=gen_best.fitness)
    completed = [ind.fitness for ind in population if ind.fitness != DEGENERATE_FITNESS]
    state.log.entries.append(
        GenerationStats(
            generation=g,
            best_fitness=gen_best.fitness,
            mean_fitness=sum(completed) / len(completed) if completed else DEGENERATE_FITNESS,
            diversity=phenotypic_diversity(population),
            best_routing=format_expr(gen_best.genome.routing),
            best_sequencing=format_expr(gen_best.genome.sequencing),
            op_counts=dict(state.op_counts),
            aborted=len(population) - len(completed),
        )
    )
    state.generation = g + 1


def evolve(
    params: GPParams,
    evaluator: FitnessEvaluator,
    rng: np.random.Generator,
    seed_rules: list[RulePair] | None = None,
) -> tuple[Individual, EvolutionLog]:
    """Run ``start`` then max(generations, 1) ``step``s; returns (best-ever individual, log).

    generations = 0 evaluates the initial population and logs no row.
    """
    state = start(params, rng, seed_rules)
    for _ in range(max(params.generations, 1)):
        step(state, params, evaluator, rng)
    del state.log.entries[params.generations:]
    return state.best, state.log
