"""The gpshop names the benchmark uses stay defined where it looks.

``perfbench/spans.py`` replaces each of the ``HOOK_POINTS`` attributes by
name for the length of a repetition and refuses to run when one is not in
its owner's own namespace.  The rest of ``perfbench`` imports or calls the
``BENCHMARK_SURFACE`` names.  A refactor that moves, renames or deletes one
fails here instead of failing every benchmark run.
"""
from __future__ import annotations

import pytest

from gpshop import cli, expr, gp, records, rules
from gpshop.sim import engine
from gpshop.sim.config import SimConfig

HOOK_POINTS = [
    (gp, "generate_instance"),
    (gp, "run_simulation"),
    (engine, "compile_expression"),
    (engine, "compute_objectives"),
    (cli, "evolve"),
    (cli, "write_text_atomic"),
    (records, "write_text_atomic"),
] + [
    (gp.FitnessEvaluator, name)
    for name in ("fitness", "test_performance", "reference_objectives", "instance", "evaluate_population")
]


@pytest.mark.parametrize("owner, attr", HOOK_POINTS, ids=[f"{o.__name__}.{a}" for o, a in HOOK_POINTS])
def test_hook_point_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)


BENCHMARK_SURFACE = [
    *((expr, name) for name in ("compile_expression", "evaluate", "parse", "format_expr", "size")),
    (rules, "rules_to_text"),
    (rules.RulePair, "from_text"),
    (rules.RulePair, "reference"),
    (engine, "run_simulation"),
    (engine, "validate_trace"),
    (records, "load_config"),
    (records.AppConfig, "scenario"),
    (SimConfig, "with_overrides"),
    (expr.DecisionContext, "as_args"),
    (cli, "main"),
]


@pytest.mark.parametrize("owner, attr", BENCHMARK_SURFACE, ids=[f"{o.__name__}.{a}" for o, a in BENCHMARK_SURFACE])
def test_benchmark_name_is_callable(owner, attr):
    assert callable(getattr(owner, attr, None))
