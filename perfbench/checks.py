"""Output checks, run after the timed repetitions."""
from __future__ import annotations

import math
from dataclasses import dataclass

from gpshop.expr import compile_expression, evaluate
from gpshop.sim.engine import run_simulation, validate_trace

CONTEXTS_PER_KIND = 128


@dataclass
class Harvest:
    """One recorded simulation of a workload's best pair, and a fixed sample of its decisions."""

    problems: list[str]
    contexts: list  # DecisionContext, routing then sequencing


def harvest(workload, result) -> Harvest:
    pair, instance = workload.trace_target(result)
    outcome = run_simulation(pair, instance, record_trace=True, capture_contexts=True)
    sample = []
    for kind in ("route", "sequence"):
        found = [c[5] for c in outcome.contexts if c[0] == kind]
        step = max(1, len(found) // CONTEXTS_PER_KIND)
        sample += found[::step][:CONTEXTS_PER_KIND]
    return Harvest(problems=validate_trace(outcome.trace, instance), contexts=sample)


def _same(a: float, b: float) -> bool:
    """Bit-for-bit equal floats, counting any NaN equal to any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def run_checks(workload, results, sample: Harvest) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every check.

    ``results`` are the timed repetitions, then any untimed re-run; every
    output a later one produced must equal the first repetition's.
    """
    checks = []

    first = results[0]
    differing = sorted({
        key for r in results[1:] for key in r.outputs if r.outputs[key] != first.outputs.get(key)
    })
    fitness = {r.test_fitness for r in results if r.test_fitness is not None}
    checks.append((
        "identical-outputs",
        len(results) > 1 and not differing and len(fitness) == 1,
        f"{len(results)} repetitions (traced and re-runs included) against the first"
        + (f"; differ: {', '.join(differing)}" if differing else "")
        + ("" if len(fitness) == 1 else "; test_fitness differs"),
    ))

    checks.append((
        "validate-trace",
        not sample.problems,
        f"{len(sample.problems)} violations" + (f"; first: {sample.problems[0]}" if sample.problems else ""),
    ))

    mismatches = 0
    compared = 0
    for pair in workload.checked_pairs(first):
        for tree in (pair.routing, pair.sequencing):
            rule = compile_expression(tree)
            for ctx in sample.contexts:
                compared += 1
                mismatches += not _same(rule(*ctx.as_args()), evaluate(tree, ctx))
    checks.append(("compiled-equals-interpreter", mismatches == 0 and compared > 0,
                   f"{mismatches} mismatches in {compared} rule calls"))

    reference = getattr(workload, "reference_scores", None)
    if reference is not None:
        held_out, per_seed = reference(first)
        checks.append(("reference-scores-one", held_out == 1.0,
                       f"reference pair held-out score {held_out!r}; per seed {per_seed}"))
    return checks
