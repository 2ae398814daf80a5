"""Rule pairs: the unit the GP engine evolves and the simulator consumes.

A pair couples one routing expression (scores candidate machines for a
ready operation) with one sequencing expression (scores queued operations
for a freed machine).  Lower scores win in both roles.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .expr import MAX_DEPTH, Expression, ExprError, depth, format_expr, parse

__all__ = [
    "RulePair", "check_depth", "rules_to_text", "rules_from_text", "read_rules", "has_rule_line",
    "RULE_KEYS", "REFERENCE_KEYS", "REFERENCE_ROUTING", "REFERENCE_SEQUENCING",
]

# Baseline heuristics used as the normalization reference everywhere:
# route to the machine with the least waiting work, then shortest
# processing time first.
REFERENCE_ROUTING = "WIQ"
REFERENCE_SEQUENCING = "PT"

# Keys of a block of rule lines: a seeds file or an LLM reply block holds
# the two rules; a references file may also label and annotate them.
RULE_KEYS = ("routing", "sequencing")
REFERENCE_KEYS = RULE_KEYS + ("label", "note")


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


def _split(line: str) -> tuple[str, str]:
    """``key: value`` at the first colon, key lower-cased; a line without a colon has key ''."""
    key, sep, value = line.partition(":")
    return key.strip().lower() if sep else "", value.strip()


def has_rule_line(text: str) -> bool:
    """Whether some line of ``text`` has a routing or sequencing key."""
    return any(_split(line)[0] in RULE_KEYS for line in text.splitlines())


def read_rules(lines: list[tuple[int, str]], keys: tuple[str, ...] = RULE_KEYS, path: str = "") -> tuple[RulePair, dict[str, str]]:
    """Read one block of numbered rule lines: the only reader of rule text.

    Blank and ``#`` lines are skipped; every other line is ``key: value``
    with a key from ``keys``, at most once.  Both rules must be given and
    parse.  Returns the pair and each key's value.  Raises DataError: a bad
    line is named ``path:N`` (``line N`` without a path); a missing or
    unparsable rule is prefixed with the block's first ``path:N`` (nothing
    without a path).
    """
    fields: dict[str, str] = {}
    block = ""
    for no, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not fields and path:
            block = f"{path}:{no}: "
        key, value = _split(line)
        where = f"{path}:{no}" if path else f"line {no}"
        if key not in keys:
            raise DataError(f"{where}: expected one of {keys}, got {line!r}")
        if key in fields:
            raise DataError(f"{where}: duplicate {key!r} line")
        fields[key] = value
    for key in RULE_KEYS:
        if key not in fields:
            raise DataError(f"{block}block is missing a {key!r} line")
    rules = []
    for key in RULE_KEYS:
        try:
            rules.append(parse(fields[key]))
        except ExprError as exc:
            raise DataError(f"{block}{key} rule: {exc}") from exc
    return RulePair(*rules), fields


def rules_from_text(text: str) -> RulePair:
    """Read ``text`` as one block of rule lines (see ``read_rules``)."""
    return read_rules(list(enumerate(text.splitlines(), start=1)))[0]
