"""Rule-language tests: grammar, evaluation semantics, generation, metrics."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpshop.expr import (
    ArityError,
    DecisionContext,
    MAX_DEPTH,
    MAX_INSTANCE_VALUE,
    MAX_MAGNITUDE,
    MAX_NESTING,
    Expression,
    ExprSyntaxError,
    Function,
    Terminal,
    TERMINAL_ORDER,
    UnknownSymbolError,
    compile_expression,
    depth,
    evaluate,
    format_expr,
    iter_subtrees,
    parse,
    random_tree,
    replace_subtree,
    size,
    subtree_at,
    terminal_histogram,
)
from gpshop.rules import RulePair
from gpshop.sim import OBJECTIVE_KEYS, run_simulation

CTX = DecisionContext(*[float(v) for v in range(1, 14)])


def leaf(name: str) -> Expression:
    return Expression.leaf(Terminal[name])


# ---------------------------------------------------------------- grammar

def test_parse_single_terminal():
    assert parse("PT") == leaf("PT")


def test_parse_precedence_mul_binds_tighter():
    t = parse("NIQ + PT * W")
    assert t.fn is Function.ADD
    assert t.right.fn is Function.MUL


def test_parse_left_associative():
    t = parse("NIQ - PT - W")
    # ((NIQ - PT) - W)
    assert t.fn is Function.SUB
    assert t.left.fn is Function.SUB
    assert t.right == leaf("W")


def test_parse_parentheses_override():
    t = parse("(NIQ + PT) * W")
    assert t.fn is Function.MUL
    assert t.left.fn is Function.ADD


def test_parse_min_max_nested():
    t = parse("min(PT, max(WIQ, SLACK))")
    assert t.fn is Function.MIN
    assert t.right.fn is Function.MAX


def test_parse_is_case_sensitive():
    with pytest.raises(UnknownSymbolError) as exc:
        parse("pt")
    assert exc.value.symbol == "pt"
    assert exc.value.offset == 0


def test_parse_rejects_numeric_constants():
    with pytest.raises(UnknownSymbolError):
        parse("PT + 2")


def test_parse_rejects_unknown_symbol_with_offset():
    with pytest.raises(UnknownSymbolError) as exc:
        parse("PT + BOGUS")
    assert exc.value.symbol == "BOGUS"
    assert exc.value.offset == 5


def test_parse_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("PT + ")
    assert exc.value.offset == 5


def test_parse_unbalanced_paren():
    with pytest.raises(ExprSyntaxError):
        parse("(PT + W")


def test_parse_min_arity_too_few():
    with pytest.raises(ArityError):
        parse("min(PT)")


def test_parse_min_arity_too_many():
    with pytest.raises(ArityError):
        parse("min(PT, W, NIQ)")


def test_parse_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse("PT W")


def test_parse_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_parse_unexpected_character():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("PT ^ W")
    assert exc.value.offset == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(" * 2000 + "PT" + ")" * 2000, "parentheses and min/max calls nest deeper than 64 levels (at offset 64)"),
        ("min(" * 400 + "PT" + ", PT)" * 400, "nest deeper than 64 levels (at offset 256)"),
        (" + ".join(["PT"] * 3000), "expression deeper than 64 levels (at offset 318)"),
        ("PT * " * 64 + "PT", "expression deeper than 64 levels"),
        ("max(PT, " * 64 + "PT" + ")" * 64, "expression deeper than 64 levels"),
    ],
    ids=["parens", "min-calls", "flat-chain", "product-chain", "max-calls"],
)
def test_parse_rejects_text_deeper_than_the_nesting_bound(text, fragment):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_accepts_text_at_the_nesting_bound():
    assert MAX_NESTING > MAX_DEPTH
    assert parse("(" * MAX_NESTING + "PT" + ")" * MAX_NESTING) == Expression.leaf(Terminal.PT)
    chain = parse(" + ".join(["PT"] * MAX_NESTING))
    assert depth(chain) == MAX_NESTING
    nested = parse("min(PT, " * (MAX_NESTING - 1) + "PT" + ")" * (MAX_NESTING - 1))
    assert depth(nested) == MAX_NESTING
    assert parse(format_expr(nested)) == nested


# ------------------------------------------------------------- evaluation

def test_terminal_evaluates_to_context_field():
    for i, term in enumerate(TERMINAL_ORDER):
        assert evaluate(Expression.leaf(term), CTX) == float(i + 1)


def test_context_arg_order_matches_terminal_order():
    args = CTX.as_args()
    for i, term in enumerate(TERMINAL_ORDER):
        assert args[i] == getattr(CTX, term.name)


def test_basic_arithmetic():
    assert evaluate(parse("NIQ + WIQ"), CTX) == 3.0
    assert evaluate(parse("NIQ - WIQ"), CTX) == -1.0
    assert evaluate(parse("PT * W"), CTX) == 44.0
    assert evaluate(parse("WIQ / NIQ"), CTX) == 2.0
    assert evaluate(parse("min(PT, W)"), CTX) == 4.0
    assert evaluate(parse("max(PT, W)"), CTX) == 11.0


def test_protected_division_returns_one_on_zero_denominator():
    ctx = DecisionContext(0.0, *[1.0] * 12)
    assert evaluate(parse("PT / NIQ"), ctx) == 1.0
    assert compile_expression(parse("PT / NIQ"))(*ctx.as_args()) == 1.0


def test_division_by_negative_zero_is_protected():
    ctx = DecisionContext(-0.0, *[1.0] * 12)
    assert evaluate(parse("PT / NIQ"), ctx) == 1.0


def test_multiplication_saturates():
    big = 1e200
    ctx = DecisionContext(*[big] * 13)
    assert evaluate(parse("NIQ * WIQ"), ctx) == 1e300
    assert evaluate(parse("(NIQ * WIQ) * MWT"), ctx) == 1e300
    neg = DecisionContext(-big, *[big] * 12)
    assert evaluate(parse("NIQ * WIQ"), neg) == -1e300


def test_division_saturates():
    ctx = DecisionContext(1e-300, 1e300, *[1.0] * 11)
    assert evaluate(parse("WIQ / NIQ"), ctx) == 1e300


def test_fifo_rule_value():
    # (W - W) - OWT == -OWT
    assert evaluate(parse("(W - W) - OWT"), CTX) == -6.0


# ------------------------------------------------- interpreter == compiled

expr_strategy = st.recursive(
    st.sampled_from(TERMINAL_ORDER).map(Expression.leaf),
    lambda children: st.builds(
        Expression.call, st.sampled_from(list(Function)), children, children
    ),
    max_leaves=40,
)

context_strategy = st.builds(
    DecisionContext,
    *[
        st.floats(
            min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
        )
        for _ in range(13)
    ],
)


def same_float(a: float, b: float) -> bool:
    """Bit-for-bit equality: the sign of zero counts, and NaN equals NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=200, deadline=None)
@given(expr_strategy, context_strategy)
def test_compiled_matches_interpreter(tree, ctx):
    a = evaluate(tree, ctx)
    b = compile_expression(tree)(*ctx.as_args())
    assert same_float(a, b), (format_expr(tree), a, b)


EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 5e-324, 1.0)


@pytest.mark.parametrize("fn", list(Function), ids=lambda f: f.name)
def test_compiled_matches_interpreter_on_edge_values(fn):
    # Every (left, right) operand pair from the edge values, at the root of
    # each operator: NaN propagation, infinities, signed zeros, the
    # saturation bound and the smallest subnormal.
    tree = Expression.call(fn, leaf("NIQ"), leaf("WIQ"))
    rule = compile_expression(tree)
    rest = [1.0] * 11
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            ctx = DecisionContext(a, b, *rest)
            expected = evaluate(tree, ctx)
            got = rule(*ctx.as_args())
            assert same_float(got, expected), (fn, a, b, got, expected)


@settings(max_examples=200, deadline=None)
@given(expr_strategy)
def test_format_parse_round_trip(tree):
    assert parse(format_expr(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), context_strategy)
def test_depth_capped_trees_are_total(seed, ctx):
    # Depth <= 8 plus saturation of * and / keeps every node finite for
    # context values within +/-1e300.
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, "grow", (2, 8))
    assert math.isfinite(evaluate(tree, ctx))


def _worst_case_tree() -> Expression:
    """The full depth-8 tree of + over 64 alternating * and / nodes, leaves cycling the terminals.

    Only * and / saturate, at 1e300, far above any terminal the instance
    value bound allows, and + grows a value most: no rule within the
    depth cap scores larger.
    """
    leaves = itertools.cycle(TERMINAL_ORDER)
    level = [
        Expression.call(
            Function.MUL if i % 2 == 0 else Function.DIV, Expression.leaf(next(leaves)), Expression.leaf(next(leaves))
        )
        for i in range(64)
    ]
    while len(level) > 1:
        level = [Expression.call(Function.ADD, a, b) for a, b in zip(level[::2], level[1::2])]
    return level[0]


WORST_CASE = _worst_case_tree()
WORST_CASE_RULE = compile_expression(WORST_CASE)

# Terminal values at the instance value bound and just under the
# saturation bound, of both signs, with zeros (protected denominators)
# and the smallest subnormal (a denominator that saturates the quotient).
_EXTREMES = tuple(
    sign * v for v in (MAX_INSTANCE_VALUE, 0.99 * MAX_MAGNITUDE, 5e-324, 0.0) for sign in (1.0, -1.0)
)
extreme_context_strategy = st.builds(DecisionContext, *[st.sampled_from(_EXTREMES) for _ in range(13)])


@settings(max_examples=300, deadline=None)
@given(extreme_context_strategy)
def test_worst_case_depth_capped_tree_is_finite(ctx):
    """What lets the simulator's choosers use a score without testing it: finite, and compiled == interpreted."""
    score = evaluate(WORST_CASE, ctx)
    assert math.isfinite(score) and abs(score) <= 64 * MAX_MAGNITUDE
    assert same_float(WORST_CASE_RULE(*ctx.as_args()), score)


def test_worst_case_tree_reaches_saturation_and_simulates(golden_instance):
    assert depth(WORST_CASE) == MAX_DEPTH
    # Every product saturates at 1e300 and every quotient is 1.0.
    assert evaluate(WORST_CASE, DecisionContext(*[MAX_INSTANCE_VALUE] * 13)) >= 32 * MAX_MAGNITUDE
    outcome = run_simulation(RulePair(WORST_CASE, WORST_CASE), golden_instance)
    assert len(outcome.completion) == 3
    assert all(math.isfinite(outcome.objectives.get(key)) for key in OBJECTIVE_KEYS)


@settings(max_examples=100, deadline=None)
@given(expr_strategy)
def test_histogram_sums_to_leaf_count(tree):
    hist = terminal_histogram(tree)
    leaves = sum(1 for _, node in iter_subtrees(tree) if node.is_leaf)
    assert sum(hist.values()) == leaves
    assert all(c > 0 for c in hist.values())


# --------------------------------------------------------------- metrics

def test_depth_and_size_of_known_tree():
    t = parse("min((W - W) - OWT, PT / WIQ)")
    assert depth(t) == 4  # min -> sub -> sub -> W
    assert size(t) == 9
    assert depth(leaf("PT")) == 1
    assert size(leaf("PT")) == 1


def test_histogram_of_known_tree():
    t = parse("(W - W) - OWT")
    assert terminal_histogram(t) == {Terminal.W: 2, Terminal.OWT: 1}


def test_iter_subtrees_counts_and_paths():
    t = parse("(NIQ + PT) * W")
    nodes = list(iter_subtrees(t))
    assert len(nodes) == size(t)
    for path, node in nodes:
        assert subtree_at(t, path) == node


def test_replace_subtree():
    t = parse("(NIQ + PT) * W")
    swapped = replace_subtree(t, (0, 1), leaf("SLACK"))
    assert format_expr(swapped) == "((NIQ + SLACK) * W)"
    assert format_expr(t) == "((NIQ + PT) * W)"  # original untouched
    assert replace_subtree(t, (), leaf("PT")) == leaf("PT")


# ------------------------------------------------------- random generation

def test_random_tree_deterministic_per_seed():
    a = random_tree(np.random.default_rng(42), "grow")
    b = random_tree(np.random.default_rng(42), "grow")
    assert a == b


def test_full_trees_hit_target_depth_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = random_tree(rng, "full", (3, 3))
        assert depth(t) == 3


def test_full_trees_depth_within_range():
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(500):
        d = depth(random_tree(rng, "full", (2, 6)))
        assert 2 <= d <= 6
        seen.add(d)
    assert seen == {2, 3, 4, 5, 6}


def test_grow_trees_respect_depth_cap():
    rng = np.random.default_rng(9)
    for _ in range(500):
        assert depth(random_tree(rng, "grow", (2, 8))) <= 8


def test_grow_terminal_rate_is_about_ten_percent():
    # Every node strictly above the target level chooses a terminal with
    # probability 0.10; measure that empirically over many trees.
    rng = np.random.default_rng(10)
    early_leaves = 0
    choices = 0

    def walk(node, level, target):
        nonlocal early_leaves, choices
        if level >= target:
            return
        choices += 1
        if node.is_leaf:
            early_leaves += 1
        else:
            walk(node.left, level + 1, target)
            walk(node.right, level + 1, target)

    for _ in range(3000):
        t = random_tree(rng, "grow", (6, 6))
        walk(t, 1, 6)
    rate = early_leaves / choices
    assert abs(rate - 0.10) < 0.02


def test_random_tree_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_tree(rng, "bogus")
    with pytest.raises(ValueError):
        random_tree(rng, "grow", (0, 5))
    with pytest.raises(ValueError):
        random_tree(rng, "grow", (2, 9))


def test_expression_shape_validation():
    with pytest.raises(ValueError):
        Expression(fn=None, terminal=None)
    with pytest.raises(ValueError):
        Expression(fn=Function.ADD, terminal=None, left=leaf("PT"), right=None)
