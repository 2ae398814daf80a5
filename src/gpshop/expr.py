"""Priority-rule expression language.

Routing and sequencing rules are immutable binary trees over thirteen
shop-floor terminals and six arithmetic operators.  This module owns the
tree type, evaluation (a reference interpreter, the generated source
the simulator inlines into its decision loops, and a compiled function
form of that source for scoring single contexts), the textual grammar,
random tree generation, and the structural metrics everything else
relies on.

Lower rule values are better: the simulator always picks the candidate
with the minimum score.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "Terminal",
    "Function",
    "Expression",
    "DecisionContext",
    "ExprError",
    "ExprSyntaxError",
    "UnknownSymbolError",
    "ArityError",
    "TERMINAL_ORDER",
    "FUNCTION_ORDER",
    "MAX_MAGNITUDE",
    "MAX_INSTANCE_VALUE",
    "MAX_NESTING",
    "evaluate",
    "compile_expression",
    "expression_source",
    "parse",
    "format_expr",
    "random_tree",
    "depth",
    "size",
    "terminal_histogram",
    "iter_subtrees",
    "subtree_at",
    "replace_subtree",
]


class Terminal(Enum):
    """Observable shop-floor quantities usable as expression leaves.

    The enum value doubles as the glossary line shown to language models
    and in generated reports.
    """

    NIQ = "number of operations committed to the candidate machine's queue (waiting or in transit)"
    WIQ = "total processing time committed to the candidate machine's queue (waiting or in transit)"
    MWT = "machine waiting time: current time minus the time the machine last became ready"
    PT = "processing time of the candidate operation on the candidate machine"
    NPT = "median processing time of the job's next operation (0 for the last operation)"
    OWT = "operation waiting time: current time minus the operation's ready time"
    WKR = "median work remaining for the job, the current operation included"
    NOR = "number of operations remaining in the job, the current one included"
    rDD = "relative due date: job due date minus current time (negative when overdue)"
    SLACK = "job slack: relative due date minus median work remaining"
    W = "job weight (1, 2 or 4)"
    TIS = "time in system: current time minus the job release time"
    TRANT = "transport time the job needs to reach the candidate machine"


class Function(Enum):
    """Binary operators allowed at internal tree nodes."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MIN = "min"
    MAX = "max"


TERMINAL_ORDER: tuple[Terminal, ...] = tuple(Terminal)
FUNCTION_ORDER: tuple[Function, ...] = tuple(Function)

# Saturation bound applied to multiplication and division results.  Leaves
# stay raw and +/-/min/max pass through, so a rule's score is finite, with
# no check on it, under two preconditions:
#
# * the tree is at most MAX_DEPTH deep: at most 7 additions or subtractions
#   chain above a leaf or a saturated product, so |score| <= 128 * 1e300;
# * every terminal is below MAX_MAGNITUDE.  Terminals are built from the
#   instance's releases, due dates, weights, processing times and travel
#   times (distance / transport_speed), each below MAX_INSTANCE_VALUE.  With
#   fewer than 1e15 operations the clock stays below the last release plus
#   all processing and travel time, about 2e295, and so does every terminal.
#
# ``rules.check_depth`` enforces the first on every pair the simulator
# compiles; ``sim.instance`` enforces the second on every instance it
# generates or loads.
MAX_MAGNITUDE = 1e300
MAX_INSTANCE_VALUE = 1e280

MAX_DEPTH = 8

# ``parse`` rejects text whose parentheses and min/max calls nest deeper
# than this, or whose tree is deeper.  Redundant parentheses are legal, so
# the bound sits well above MAX_DEPTH (``rules.check_depth`` enforces that
# one); it keeps the recursive parser and the recursive tree functions
# (``depth``, ``format_expr``, hashing, pickling) far from Python's
# recursion limit.
MAX_NESTING = 64


class ExprError(ValueError):
    """Base class for rule-text problems; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownSymbolError(ExprError):
    def __init__(self, symbol: str, offset: int, reason: str = "unknown symbol"):
        super().__init__(f"{reason} {symbol!r}", offset)
        self.symbol = symbol


class ArityError(ExprError):
    pass


@dataclass(frozen=True, slots=True)
class Expression:
    """Immutable rule tree node: either a terminal leaf or a binary call."""

    fn: Function | None
    terminal: Terminal | None
    left: "Expression | None" = None
    right: "Expression | None" = None

    def __post_init__(self):
        if self.fn is None:
            if self.terminal is None or self.left is not None or self.right is not None:
                raise ValueError("leaf nodes carry a terminal and no children")
        else:
            if self.terminal is not None or self.left is None or self.right is None:
                raise ValueError("function nodes carry exactly two children")

    @classmethod
    def leaf(cls, terminal: Terminal) -> "Expression":
        return cls(fn=None, terminal=terminal)

    @classmethod
    def call(cls, fn: Function, left: "Expression", right: "Expression") -> "Expression":
        return cls(fn=fn, terminal=None, left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.fn is None

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True, slots=True)
class DecisionContext:
    """Snapshot of the thirteen terminal values at one decision point.

    Field order matches ``TERMINAL_ORDER``.  NIQ, WIQ, PT, OWT, WKR, TIS and
    TRANT are non-negative and NOR >= 1 by construction in the simulator;
    MWT, rDD and SLACK may legitimately be negative.
    """

    NIQ: float
    WIQ: float
    MWT: float
    PT: float
    NPT: float
    OWT: float
    WKR: float
    NOR: float
    rDD: float
    SLACK: float
    W: float
    TIS: float
    TRANT: float

    def as_args(self) -> tuple[float, ...]:
        return (
            self.NIQ, self.WIQ, self.MWT, self.PT, self.NPT, self.OWT,
            self.WKR, self.NOR, self.rDD, self.SLACK, self.W, self.TIS,
            self.TRANT,
        )


def evaluate(expr: Expression, ctx: DecisionContext) -> float:
    """Reference interpreter.

    Division by exactly zero yields 1.0; multiplication and division
    results are clamped to +/-MAX_MAGNITUDE.  Total (finite in, finite
    out) for any context whose values stay below MAX_MAGNITUDE.
    """
    if expr.fn is None:
        return float(getattr(ctx, expr.terminal.name))
    a = evaluate(expr.left, ctx)
    b = evaluate(expr.right, ctx)
    fn = expr.fn
    if fn is Function.ADD:
        return a + b
    if fn is Function.SUB:
        return a - b
    if fn is Function.MUL:
        return min(max(a * b, -MAX_MAGNITUDE), MAX_MAGNITUDE)
    if fn is Function.DIV:
        if b == 0.0:
            return 1.0
        return min(max(a / b, -MAX_MAGNITUDE), MAX_MAGNITUDE)
    if fn is Function.MIN:
        return min(a, b)
    return max(a, b)


_ARG_NAMES = tuple(t.name for t in TERMINAL_ORDER)


def expression_source(expr: Expression) -> str:
    """Python source of one expression that computes the tree's value.

    Terminals appear as bare names (``NIQ``, ``rDD`` ...), which the
    surrounding code must bind; ``_t0``, ``_t1`` ... are walrus
    temporaries, so the names must be free in that scope.  The source is
    arithmetic and inline conditionals, with walrus temporaries for values
    read twice; it calls no function.  ``min(a, b)`` is emitted as
    ``b if a > b else a`` and ``max(a, b)`` as ``b if a < b else a``, the
    builtins' own comparisons, and the +/-1e300 saturation of ``*`` and
    ``/`` compares against the bounds only.  Results are therefore
    bit-identical to ``evaluate``, NaN, infinities, the sign of zero and
    the left operand on ties included; tests pin the equivalence.
    """
    temps = (f"_t{i}" for i in itertools.count())

    def operand(node: Expression) -> tuple[str, str]:
        """(code that computes the value, a name to read it again)."""
        code = emit(node)
        if node.fn is None:
            return code, code
        t = next(temps)
        return f"({t} := {code})", t

    def clamp(value: str) -> str:
        t = next(temps)
        return f"(-1e300 if ({t} := {value}) < -1e300 else 1e300 if {t} > 1e300 else {t})"

    def emit(node: Expression) -> str:
        if node.fn is None:
            return node.terminal.name
        fn = node.fn
        if fn is Function.MIN or fn is Function.MAX:
            l, l_again = operand(node.left)
            r, r_again = operand(node.right)
            op = ">" if fn is Function.MIN else "<"
            return f"({r_again} if {l} {op} {r} else {l_again})"
        l = emit(node.left)
        if fn is Function.DIV:
            r, r_again = operand(node.right)
            return f"(1.0 if {r} == 0.0 else {clamp(f'{l} / {r_again}')})"
        r = emit(node.right)
        if fn is Function.ADD:
            return f"({l} + {r})"
        if fn is Function.SUB:
            return f"({l} - {r})"
        return clamp(f"{l} * {r}")

    return emit(expr)


def compile_expression(expr: Expression) -> Callable[..., float]:
    """Compile a tree into a plain Python function of 13 positional floats.

    Argument order is TERMINAL_ORDER; the body is ``expression_source``,
    so results are bit-identical to ``evaluate``.  The simulator does not
    call it: it inlines that same source into its generated decision
    loops (see ``sim.engine.compile_choosers``), recording contexts
    included.  This form serves checks and callers that score single
    contexts, such as the ``as_args()`` of a recorded context, which
    reads like a ``DecisionContext``.
    """
    src = f"def _rule({', '.join(_ARG_NAMES)}):\n    return {expression_source(expr)}\n"
    namespace: dict = {}
    exec(compile(src, "<rule>", "exec"), {}, namespace)
    return namespace["_rule"]


# --------------------------------------------------------------------------
# Grammar
#
#   expr   := term (("+" | "-") term)*
#   term   := factor (("*" | "/") factor)*
#   factor := TERMINAL | "min(" expr "," expr ")" | "max(" expr "," expr ")"
#           | "(" expr ")"
#
# Terminals are case-sensitive; numeric constants are rejected.
# --------------------------------------------------------------------------

_TERMINAL_BY_NAME = {t.name: t for t in Terminal}

_SINGLE_CHARS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SINGLE_CHARS:
            tokens.append((_SINGLE_CHARS[ch], ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch.isdigit() or ch == ".":
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            raise UnknownSymbolError(text[i:j], i, "numeric constants are not allowed:")
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Recursive descent; each method returns (tree, its depth).

    ``level`` counts the enclosing parentheses and min/max calls, at most
    MAX_NESTING, so recursion is a few frames per level; no node is built
    deeper than MAX_NESTING.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}, found {tok[1]!r}" if tok[1] else f"expected {what}, found end of input", tok[2])
        return self.advance()

    @staticmethod
    def call(fn: Function, lhs: tuple[Expression, int], rhs: tuple[Expression, int], offset: int) -> tuple[Expression, int]:
        d = 1 + (lhs[1] if lhs[1] > rhs[1] else rhs[1])
        if d > MAX_NESTING:
            raise ExprSyntaxError(f"expression deeper than {MAX_NESTING} levels", offset)
        return Expression.call(fn, lhs[0], rhs[0]), d

    def parse_expr(self, level: int) -> tuple[Expression, int]:
        node = self.parse_term(level)
        while self.peek()[0] in ("PLUS", "MINUS"):
            kind, _, offset = self.advance()
            rhs = self.parse_term(level)
            node = self.call(Function.ADD if kind == "PLUS" else Function.SUB, node, rhs, offset)
        return node

    def parse_term(self, level: int) -> tuple[Expression, int]:
        node = self.parse_factor(level)
        while self.peek()[0] in ("STAR", "SLASH"):
            kind, _, offset = self.advance()
            rhs = self.parse_factor(level)
            node = self.call(Function.MUL if kind == "STAR" else Function.DIV, node, rhs, offset)
        return node

    def parse_factor(self, level: int) -> tuple[Expression, int]:
        kind, text, offset = self.peek()
        if kind == "NAME":
            self.advance()
            if text in _TERMINAL_BY_NAME:
                return Expression.leaf(_TERMINAL_BY_NAME[text]), 1
            if text in ("min", "max"):
                return self.parse_min_max(text, offset, self.nest(level, offset))
            raise UnknownSymbolError(text, offset)
        if kind == "LPAREN":
            self.advance()
            node = self.parse_expr(self.nest(level, offset))
            self.expect("RPAREN", "')'")
            return node
        raise ExprSyntaxError(
            f"expected a terminal, 'min', 'max' or '(', found {text!r}" if text else "expected a terminal, 'min', 'max' or '(', found end of input",
            offset,
        )

    @staticmethod
    def nest(level: int, offset: int) -> int:
        if level >= MAX_NESTING:
            raise ExprSyntaxError(f"parentheses and min/max calls nest deeper than {MAX_NESTING} levels", offset)
        return level + 1

    def parse_min_max(self, name: str, offset: int, level: int) -> tuple[Expression, int]:
        self.expect("LPAREN", "'(' after " + repr(name))
        first = self.parse_expr(level)
        tok = self.peek()
        if tok[0] == "RPAREN":
            raise ArityError(f"{name} expects 2 arguments, got 1", tok[2])
        self.expect("COMMA", "','")
        second = self.parse_expr(level)
        tok = self.peek()
        if tok[0] == "COMMA":
            raise ArityError(f"{name} expects 2 arguments, got more", tok[2])
        self.expect("RPAREN", "')'")
        return self.call(Function.MIN if name == "min" else Function.MAX, first, second, offset)


def parse(text: str) -> Expression:
    """Parse rule text into an expression tree.

    Raises ExprSyntaxError / UnknownSymbolError / ArityError with the byte
    offset of the offending token.  Parentheses and min/max calls may nest
    at most MAX_NESTING deep, and the tree may be at most MAX_NESTING deep;
    deeper text is an ExprSyntaxError, not a RecursionError.
    """
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr(0)
    tok = parser.peek()
    if tok[0] != "END":
        raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return node


def format_expr(expr: Expression) -> str:
    """Canonical text form; parse(format_expr(t)) reproduces t exactly."""
    if expr.fn is None:
        return expr.terminal.name
    l = format_expr(expr.left)
    r = format_expr(expr.right)
    fn = expr.fn
    if fn is Function.MIN or fn is Function.MAX:
        return f"{fn.value}({l}, {r})"
    return f"({l} {fn.value} {r})"


def random_tree(
    rng: np.random.Generator,
    mode: str = "grow",
    depth_range: tuple[int, int] = (2, 6),
    terminal_rate: float = 0.10,
) -> Expression:
    """Generate a random tree.

    mode 'full' expands every branch to the sampled target depth; 'grow'
    may stop early, placing a terminal with probability ``terminal_rate``
    at any node above depth 1.  Depth is counted in levels: a bare leaf
    has depth 1.  The sampled target depth is uniform over depth_range.
    """
    if mode not in ("full", "grow"):
        raise ValueError(f"mode must be 'full' or 'grow', got {mode!r}")
    lo, hi = depth_range
    if not (1 <= lo <= hi <= MAX_DEPTH):
        raise ValueError(f"depth_range must lie within [1, {MAX_DEPTH}], got {depth_range!r}")
    target = int(rng.integers(lo, hi + 1))

    def build(level: int) -> Expression:
        if level >= target:
            return Expression.leaf(TERMINAL_ORDER[int(rng.integers(13))])
        if mode == "grow" and rng.random() < terminal_rate:
            return Expression.leaf(TERMINAL_ORDER[int(rng.integers(13))])
        fn = FUNCTION_ORDER[int(rng.integers(6))]
        left = build(level + 1)
        right = build(level + 1)
        return Expression.call(fn, left, right)

    return build(1)


def depth(expr: Expression) -> int:
    """Tree depth in levels; a single leaf has depth 1."""
    if expr.fn is None:
        return 1
    return 1 + max(depth(expr.left), depth(expr.right))


def size(expr: Expression) -> int:
    """Total node count, leaves included."""
    if expr.fn is None:
        return 1
    return 1 + size(expr.left) + size(expr.right)


def terminal_histogram(expr: Expression) -> dict[Terminal, int]:
    """Leaf occurrence counts; values sum to the leaf count of the tree."""
    counts: Counter = Counter()
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.fn is None:
            counts[node.terminal] += 1
        else:
            stack.append(node.left)
            stack.append(node.right)
    return dict(counts)


def iter_subtrees(expr: Expression) -> Iterator[tuple[tuple[int, ...], Expression]]:
    """Yield (path, node) pairs in preorder; path elements are 0=left, 1=right."""
    stack: list[tuple[tuple[int, ...], Expression]] = [((), expr)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if node.fn is not None:
            stack.append((path + (1,), node.right))
            stack.append((path + (0,), node.left))


def subtree_at(expr: Expression, path: tuple[int, ...]) -> Expression:
    node = expr
    for step in path:
        node = node.left if step == 0 else node.right
    return node


def replace_subtree(expr: Expression, path: tuple[int, ...], replacement: Expression) -> Expression:
    """Return a copy of ``expr`` with the node at ``path`` swapped out."""
    if not path:
        return replacement
    step, rest = path[0], path[1:]
    if step == 0:
        return Expression.call(expr.fn, replace_subtree(expr.left, rest, replacement), expr.right)
    return Expression.call(expr.fn, expr.left, replace_subtree(expr.right, rest, replacement))
