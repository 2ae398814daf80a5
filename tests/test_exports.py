"""Every name a module lists in ``__all__`` exists on it, so a deleted
class whose export stayed fails here rather than at ``import *``."""
from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["gpshop.llm", "gpshop.gp", "gpshop.expr", "gpshop.rules", "gpshop.records", "gpshop.analysis", "gpshop.cli"],
)
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
