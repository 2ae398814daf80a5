"""Rule-pair reports: model narrative plus a machine-generated appendix."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..expr import TERMINAL_ORDER, depth, size, terminal_histogram
from ..rules import RulePair, rules_to_text
from ..sim.config import Scenario
from .prompts import build_explain_prompt, objective_equation
from .provider import ProviderConfig, ProviderError, query

NARRATIVE_UNAVAILABLE = "*narrative unavailable: the language model could not be reached*"


@dataclass
class ReportResult:
    """A rendered report plus whether the narrative part actually arrived."""

    text: str
    narrative_ok: bool
    error: str | None = None


def _appendix(best: RulePair, scenario: Scenario, test_score: float | None) -> str:
    counts: Counter = Counter(terminal_histogram(best.routing))
    counts.update(terminal_histogram(best.sequencing))
    lines = [
        "## Appendix (machine generated)",
        "",
        f"Scenario: {scenario.label}, objective {objective_equation(scenario)}",
        "",
        "```",
        rules_to_text(best).strip(),
        "```",
        "",
        f"routing tree: depth {depth(best.routing)}, {size(best.routing)} nodes",
        f"sequencing tree: depth {depth(best.sequencing)}, {size(best.sequencing)} nodes",
        "",
        "Terminal usage (both trees):",
    ]
    lines += [f"- {t.name}: {counts[t]}" for t in TERMINAL_ORDER if counts[t]]
    if test_score is not None:
        lines += ["", f"Held-out test fitness: {test_score!r}"]
    return "\n".join(lines)


def generate_report(
    best: RulePair,
    scenario: Scenario,
    provider: ProviderConfig,
    test_score: float | None = None,
) -> ReportResult:
    """Ask the model to explain ``best``; degrade gracefully if it cannot.

    The appendix (genome text, tree metrics, terminal histogram, optional
    held-out score) is always computed locally, so the report stays useful
    even when the provider fails; the failure is still surfaced via
    ``narrative_ok`` so callers can exit nonzero.
    """
    prompt = build_explain_prompt(best, scenario)
    try:
        narrative = query(provider, prompt).strip()
        ok, error = True, None
    except ProviderError as exc:
        narrative = NARRATIVE_UNAVAILABLE
        ok, error = False, str(exc)
    text = (
        f"# Rule pair report: {scenario.label}\n\n"
        f"{narrative}\n\n"
        f"{_appendix(best, scenario, test_score)}\n"
    )
    return ReportResult(text=text, narrative_ok=ok, error=error)
