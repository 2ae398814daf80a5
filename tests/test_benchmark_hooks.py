"""The functions the benchmark's tracer wraps stay defined where it looks.

``perfbench/spans.py`` replaces each of these attributes by name for the
length of a repetition and refuses to run when one is not in its owner's
own namespace.  A refactor that moves or renames one fails here instead
of failing every traced benchmark run.
"""
from __future__ import annotations

import pytest

from gpshop import cli, gp, records
from gpshop.sim import engine

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
