"""Rule pairs: the unit the GP engine evolves and the simulator consumes.

A pair couples one routing expression (scores candidate machines for a
ready operation) with one sequencing expression (scores queued operations
for a freed machine).  Lower scores win in both roles.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .expr import MAX_DEPTH, Expression, ExprError, depth, format_expr, parse

__all__ = ["RulePair", "check_depth", "rules_to_text", "rules_from_text", "REFERENCE_ROUTING", "REFERENCE_SEQUENCING"]

# Baseline heuristics used as the normalization reference everywhere:
# route to the machine with the least waiting work, then shortest
# processing time first.
REFERENCE_ROUTING = "WIQ"
REFERENCE_SEQUENCING = "PT"


@dataclass(frozen=True, slots=True)
class RulePair:
    routing: Expression
    sequencing: Expression

    @classmethod
    def from_text(cls, routing: str, sequencing: str) -> "RulePair":
        return cls(routing=parse(routing), sequencing=parse(sequencing))

    @classmethod
    def reference(cls) -> "RulePair":
        return cls.from_text(REFERENCE_ROUTING, REFERENCE_SEQUENCING)


def check_depth(pair: RulePair) -> None:
    """Raise DataError if either rule is deeper than MAX_DEPTH, which keeps scores finite (``expr.MAX_MAGNITUDE``)."""
    d = max(depth(pair.routing), depth(pair.sequencing))
    if d > MAX_DEPTH:
        raise DataError(f"max depth exceeded ({d} > {MAX_DEPTH})")


def rules_to_text(pair: RulePair) -> str:
    """Two-line exchange format, also used inside LLM reply blocks."""
    return f"routing: {format_expr(pair.routing)}\nsequencing: {format_expr(pair.sequencing)}\n"


def rules_from_text(text: str) -> RulePair:
    """Parse the two-line format; raises DataError on any defect, a repeated line included."""
    routing_src: str | None = None
    sequencing_src: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lowered = stripped.lower()
        if lowered.startswith("routing:"):
            if routing_src is not None:
                raise DataError("rule text has more than one 'routing:' line")
            routing_src = stripped[len("routing:"):].strip()
        elif lowered.startswith("sequencing:"):
            if sequencing_src is not None:
                raise DataError("rule text has more than one 'sequencing:' line")
            sequencing_src = stripped[len("sequencing:"):].strip()
    if routing_src is None or sequencing_src is None:
        missing = "routing" if routing_src is None else "sequencing"
        raise DataError(f"rule text is missing a '{missing}:' line")
    try:
        routing = parse(routing_src)
    except ExprError as exc:
        raise DataError(f"routing rule: {exc}") from exc
    try:
        sequencing = parse(sequencing_src)
    except ExprError as exc:
        raise DataError(f"sequencing rule: {exc}") from exc
    return RulePair(routing=routing, sequencing=sequencing)
