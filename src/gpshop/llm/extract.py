"""Turning raw model replies into validated rule pairs.

A candidate is any fenced code block with a routing or sequencing line,
as ``rules.read_rules`` defines one.  Candidates either read as one block
of rule lines into a RulePair within the depth cap or are rejected with a
cause; they are never repaired, so a prose line inside one rejects it.
Free text after an INSIGHTS: line (outside the fences) is captured for
audit and reuse.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import DataError
from ..rules import RulePair, check_depth, has_rule_line, rules_from_text

_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_INSIGHTS = re.compile(r"(?m)^INSIGHTS:\s*")


@dataclass(frozen=True)
class RejectedCandidate:
    snippet: str
    cause: str


@dataclass
class ExtractionResult:
    """Outcome of scanning one reply; accepted + rejected = candidates."""

    accepted: list[RulePair] = field(default_factory=list)
    rejected: list[RejectedCandidate] = field(default_factory=list)
    insights: str = ""
    raw: str = ""

    @property
    def candidates(self) -> int:
        return len(self.accepted) + len(self.rejected)


def extract_heuristics(reply: str) -> ExtractionResult:
    """Scan a reply for fenced rule pairs; never raises on bad candidates."""
    result = ExtractionResult(raw=reply)
    for block in _FENCE.findall(reply):
        if not has_rule_line(block):
            continue  # fenced prose, not a candidate
        snippet = block.strip()
        try:
            pair = rules_from_text(block)
            check_depth(pair)
        except DataError as exc:
            result.rejected.append(RejectedCandidate(snippet=snippet, cause=str(exc)))
            continue
        result.accepted.append(pair)
    prose = _FENCE.sub("", reply)
    match = _INSIGHTS.search(prose)
    if match:
        result.insights = prose[match.end():].strip()
    return result
