"""Rule text: seeds files, LLM reply blocks and ``rules_from_text`` read a
block of rule lines the same way, and every reader either returns or
raises DataError.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpshop.errors import DataError
from gpshop.llm.extract import extract_heuristics
from gpshop.records import load_references, load_rule_pairs
from gpshop.rules import RulePair, rules_from_text

# Each is deeper than expr.MAX_NESTING: nested parentheses, nested min
# calls, and a flat chain that parses into a 3000-level tree.
DEEP_PARENS = "(" * 2000 + "PT" + ")" * 2000
DEEP_MIN = "min(" * 400 + "PT" + ", PT)" * 400
FLAT_CHAIN = " + ".join(["PT"] * 3000)

# (block, accepted): one verdict for every entry point.
BLOCKS = {
    "plain": ("routing: WIQ\nsequencing: PT", True),
    "space-before-colon": ("routing : WIQ\nsequencing :PT", True),
    "upper-case-key": ("ROUTING: WIQ\nSequencing: PT", True),
    "prose-line": ("Here is my pair.\nrouting: WIQ\nsequencing: PT", False),
    "duplicate-key": ("routing: WIQ\nrouting: PT\nsequencing: PT", False),
    "missing-key": ("routing: WIQ", False),
    "hash-line": ("# shortest processing time\nrouting: WIQ\nsequencing: PT", True),
    "label-line": ("label: x\nrouting: WIQ\nsequencing: PT", False),
    "deep-parens": (f"routing: {DEEP_PARENS}\nsequencing: PT", False),
    "deep-min": (f"routing: WIQ\nsequencing: {DEEP_MIN}", False),
    "flat-chain": (f"routing: {FLAT_CHAIN}\nsequencing: PT", False),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("rule-text")


def read_three_ways(text: str, path) -> list[RulePair | str]:
    """The pair, or the DataError text, from a seeds file, a reply block and ``rules_from_text``."""
    outcomes: list[RulePair | str] = []
    path.write_text(text + "\n")
    try:
        outcomes.append(load_rule_pairs(str(path))[0])
    except DataError as exc:
        outcomes.append(str(exc))
    extraction = extract_heuristics(f"Candidates:\n\n```\n{text}\n```\n")
    assert extraction.candidates == 1
    outcomes.append(extraction.accepted[0] if extraction.accepted else extraction.rejected[0].cause)
    try:
        outcomes.append(rules_from_text(text))
    except DataError as exc:
        outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("name", list(BLOCKS))
def test_one_verdict_from_every_entry_point(scratch, name):
    text, accepted = BLOCKS[name]
    outcomes = read_three_ways(text, scratch / f"{name}.txt")
    assert [isinstance(o, RulePair) for o in outcomes] == [accepted] * 3
    if accepted:
        assert outcomes[0] == outcomes[1] == outcomes[2] == RulePair.from_text("WIQ", "PT")


def test_causes_name_the_line(scratch):
    seeds, fence, text = read_three_ways(BLOCKS["prose-line"][0], scratch / "prose.txt")
    assert seeds == f"{scratch / 'prose.txt'}:1: expected one of ('routing', 'sequencing'), got 'Here is my pair.'"
    assert fence == text == "line 1: expected one of ('routing', 'sequencing'), got 'Here is my pair.'"
    seeds, fence, text = read_three_ways(BLOCKS["deep-parens"][0], scratch / "deep.txt")
    assert seeds.startswith(f"{scratch / 'deep.txt'}:1: routing rule: ")
    assert fence == text == "routing rule: parentheses and min/max calls nest deeper than 64 levels (at offset 64)"


def test_references_also_take_label_and_note(scratch):
    path = scratch / "refs.txt"
    path.write_text("# reference heuristics\nLabel : queue aware\nnote: x\nrouting: WIQ\nsequencing: PT\n")
    (ref,) = load_references(str(path))
    assert (ref.label, ref.fitness_note, ref.routing, ref.sequencing) == ("queue aware", "x", "WIQ", "PT")
    path.write_text("label: a\nlabel: b\nrouting: WIQ\nsequencing: PT\n")
    with pytest.raises(DataError, match=r"refs.txt:2: duplicate 'label' line"):
        load_references(str(path))
    path.write_text(f"routing: WIQ\nsequencing: {FLAT_CHAIN}\n")
    with pytest.raises(DataError, match=r"refs.txt:1: sequencing rule: expression deeper than 64 levels"):
        load_references(str(path))


# Rule-ish fragments: keys in several spellings, separators, terminals,
# operators, unknown symbols and over-deep nesting.
FRAGMENTS = [
    "routing", "sequencing", "ROUTING", " Sequencing ", "label", "note", "dispatch",
    ":", " : ", "::", "\n", "\n\n", "#", " ", "\t",
    "WIQ", "PT", "rDD", "wiq", "exp", "1.5", "(", ")", "min(", "max(", ",", "+", "-", "*", "/",
    "(" * 70, ")" * 70, " + PT" * 70, "min(PT, " * 70,
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parts=st.lists(st.sampled_from(FRAGMENTS), max_size=30))
def test_readers_return_or_raise_data_error(scratch, parts):
    text = "".join(parts)
    path = scratch / "fuzz.txt"
    path.write_text(text)
    for reader in (load_rule_pairs, load_references):
        try:
            reader(str(path))
        except DataError:
            pass
    try:
        rules_from_text(text)
    except DataError:
        pass
    extraction = extract_heuristics(f"```\n{text}\n```\n")
    assert extraction.candidates <= 1
