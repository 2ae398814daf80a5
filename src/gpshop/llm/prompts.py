"""Prompt construction for the three chat-completion tasks.

A prompt is a pure function of the scenario (objectives, lambdas,
utilization), the reference heuristics and the requested candidate count:
identical inputs render identical text, and the sha256 digest of that text
keys canned replies in the mock provider.  Every prompt has the four
``SECTION_KEYS`` sections (problem context, reference heuristics with
terminal semantics, task preferences, output format), each nonempty.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import ConfigError
from ..expr import Terminal, format_expr, parse
from ..rules import RulePair, rules_to_text
from ..sim.config import Scenario

SECTION_KEYS = (
    "problem context",
    "reference heuristics",
    "task preferences",
    "output format",
)


@dataclass(frozen=True)
class ReferenceHeuristic:
    """A known rule pair handed to the model, with its provenance.

    ``label`` names the scenario the pair was evolved or designed for;
    ``fitness_note`` is free text (e.g. its test score).  Both rule
    strings must parse under the expression grammar.
    """

    routing: str
    sequencing: str
    label: str = ""
    fitness_note: str = ""

    def __post_init__(self):
        parse(self.routing)
        parse(self.sequencing)

    @classmethod
    def from_pair(cls, pair: RulePair, label: str = "", fitness_note: str = "") -> "ReferenceHeuristic":
        return cls(
            routing=format_expr(pair.routing),
            sequencing=format_expr(pair.sequencing),
            label=label,
            fitness_note=fitness_note,
        )

    def text(self) -> str:
        return f"routing: {self.routing}\nsequencing: {self.sequencing}"


def objective_equation(scenario: Scenario) -> str:
    """Weighted-sum text, e.g. ``Fmean`` or ``0.2×Fmean + 0.8×WTmean``."""
    if len(scenario.objectives) == 1:
        return scenario.objectives[0]
    return " + ".join(f"{lam:g}×{key}" for key, lam in zip(scenario.objectives, scenario.lambdas))


@dataclass(frozen=True)
class PromptSpec:
    """A rendered prompt: ordered sections plus the derived text and digest."""

    kind: str  # init | transfer | explain
    sections: tuple[tuple[str, str], ...]

    def section(self, key: str) -> str:
        for title, body in self.sections:
            if title == key:
                return body
        raise KeyError(key)

    @property
    def text(self) -> str:
        parts = [f"## {title.title()}\n\n{body.strip()}" for title, body in self.sections]
        return "\n\n".join(parts) + "\n"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _spec(kind: str, context: str, references: str, preferences: str, contract: str) -> PromptSpec:
    return PromptSpec(kind, tuple(zip(SECTION_KEYS, (context, references, preferences, contract))))


def terminal_glossary() -> str:
    lines = ["Terminals available to both rules (symbol: meaning):"]
    lines += [f"- {t.name}: {t.value}" for t in Terminal]
    return "\n".join(lines)


def _shop_context(utilization: float) -> str:
    return (
        "Design priority rules for a dynamic flexible job shop. Jobs arrive\n"
        "over time as a Poisson stream and are unknown until they arrive. Each\n"
        "job is an ordered chain of operations; an operation runs on one\n"
        "machine from its eligible set, processing time depends on the\n"
        "machine, and moving a job to a machine costs transport time. Two\n"
        "rules act together, and in both roles the candidate with the LOWEST\n"
        "score wins:\n"
        "- the routing rule scores every eligible machine the moment an\n"
        "  operation becomes ready, and the job travels to the winner;\n"
        "- the sequencing rule scores every operation waiting at a machine\n"
        "  the moment the machine becomes free, and the winner starts.\n"
        f"Machine utilization is around {utilization:g}."
    )


def _references_block(references: list[ReferenceHeuristic]) -> str:
    parts = [terminal_glossary()]
    if not references:
        parts.append(
            "No reference heuristics are provided for this task (zero-shot\n"
            "mode): propose candidates from first principles using only the\n"
            "terminals above."
        )
        return "\n\n".join(parts)
    lines = ["Reference heuristics:"]
    for i, ref in enumerate(references, start=1):
        note = "; ".join(s for s in (ref.label, ref.fitness_note) if s)
        header = f"[{i}]" + (f" ({note})" if note else "")
        lines.append(f"{header}\n{ref.text()}")
    parts.append("\n\n".join(lines))
    return "\n\n".join(parts)


def _output_contract(n_requested: int) -> str:
    return (
        f"Output exactly {n_requested} candidate pairs, then your observations.\n"
        "Each candidate must be one fenced code block (three backticks on\n"
        "their own lines) containing exactly two lines:\n"
        "\n"
        "routing: <expression>\n"
        "sequencing: <expression>\n"
        "\n"
        "Grammar: leaves are the terminal symbols exactly as listed above;\n"
        "arithmetic is written infix with parentheses around every\n"
        "application, for example ((WIQ + PT) + TRANT); min and max are\n"
        "two-argument calls such as min(PT, SLACK); the only operators are\n"
        "+ - * / min max. Division by zero evaluates to 1, so ratios are\n"
        "always safe. Expression trees deeper than 8 levels are rejected.\n"
        "Do not number the blocks or add prose inside them.\n"
        "After the last block, add one line starting with INSIGHTS: followed\n"
        "by a short explanation of which shop signals you combined and why."
    )


def build_init_prompt(
    scenario: Scenario,
    references: list[ReferenceHeuristic],
    n_requested: int,
) -> PromptSpec:
    """Prompt asking for a knowledge-rich starting population."""
    if n_requested < 1:
        raise ConfigError("n_requested must be >= 1")
    preferences = (
        f"Minimize the weighted objective: {objective_equation(scenario)}.\n"
        "Lower is better for every term. Tardiness objectives compare\n"
        "completion times against due dates; flowtime objectives measure\n"
        "time from release to completion; weighted variants multiply by the\n"
        f"job weight. The shop runs at utilization {scenario.utilization:g}, so\n"
        "expect persistent queues and meaningful transport decisions.\n"
        "Aim for a diverse set: vary both the signals used and the size of\n"
        "the expressions."
    )
    return _spec(
        "init",
        _shop_context(scenario.utilization),
        _references_block(references),
        preferences,
        _output_contract(n_requested),
    )


def build_transfer_prompt(
    source_refs: list[ReferenceHeuristic],
    source_scenario: Scenario,
    target_scenario: Scenario,
    n_requested: int,
) -> PromptSpec:
    """Prompt asking to adapt heuristics from one scenario to another."""
    if source_scenario == target_scenario:
        raise ConfigError("transfer needs distinct source and target scenarios")
    if n_requested < 1:
        raise ConfigError("n_requested must be >= 1")
    context = (
        _shop_context(target_scenario.utilization)
        + "\n\nThe reference heuristics below were obtained for scenario "
        + f"{source_scenario.label}; your task is to produce rules for "
        + f"scenario {target_scenario.label}."
    )
    preferences = (
        f"The target task minimizes: {objective_equation(target_scenario)} "
        f"(utilization {target_scenario.utilization:g}).\n"
        "Adapt the reference heuristics in three steps:\n"
        "1. Extract the ingredients worth keeping unchanged: terminal\n"
        "   combinations expressing load balancing, urgency or transport\n"
        "   awareness that help regardless of the objective.\n"
        "2. Refit each rule to the target statistics above, that is the\n"
        "   load level and the objective mix; rebalance constants and\n"
        "   swap emphasis between terminals accordingly.\n"
        "3. Remap features whose meaning shifts between the tasks (due-date\n"
        "   terms only matter for tardiness objectives, weights only for\n"
        "   weighted ones) and drop anything source-specific that is left."
    )
    return _spec(
        "transfer", context, _references_block(source_refs), preferences, _output_contract(n_requested)
    )


def build_explain_prompt(best: RulePair, scenario: Scenario) -> PromptSpec:
    """Prompt asking for a plain-language report on an evolved rule pair."""
    context = (
        _shop_context(scenario.utilization)
        + "\n\nA genetic programming run produced the rule pair below for "
        + f"scenario {scenario.label}. Explain it to the people who will "
        + "run the shop."
    )
    refs = terminal_glossary() + "\n\nRule pair under analysis:\n\n" + rules_to_text(best).strip()
    preferences = (
        f"The pair was optimized to minimize: {objective_equation(scenario)}.\n"
        "Relate the behavior of both rules to this preference; point out\n"
        "anything that looks like a side effect rather than a design goal."
    )
    contract = (
        "Write a structured report with exactly these markdown sections:\n"
        "## Decision logic\n"
        "  How the routing rule picks machines and the sequencing rule\n"
        "  orders waiting work, step by step.\n"
        "## Dominant terminals\n"
        "  Which terminals drive the scores and their practical effect.\n"
        "## Preference alignment\n"
        "  How the observed behavior serves the stated objective weights.\n"
        "## Summary for non-experts\n"
        "  Three or four plain sentences, no formulas.\n"
        "Quote subexpressions in backticks where helpful. Do not repeat the\n"
        "terminal glossary."
    )
    return _spec("explain", context, refs, preferences, contract)
