"""Spans recorded around calls into gpshop's public functions.

The benchmark never edits the package.  It replaces, for the duration of
one repetition, the module and class attributes that gpshop's own code
looks up at call time (``gp.run_simulation``, ``engine.compile_expression``,
``FitnessEvaluator.fitness`` ...) with wrappers that record a span around
the original call.  A span is ``[id, name, start, end, parent, eval_id,
error, attrs]``; every span opened while one fitness or test evaluation is
running carries that evaluation's id.  Spans stay in memory and are
written out by the caller when the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from gpshop import cli, gp, records
from gpshop.expr import format_expr, size
from gpshop.rules import rules_to_text
from gpshop.sim import engine

_now = time.perf_counter


class EvalClock:
    """Per-evaluation wall times and host-speed probes: the instruments of untraced runs.

    An evaluation is one scoring of one rule pair on one instance:
    a ``FitnessEvaluator.fitness`` call, or one test seed of a
    ``test_performance`` call.  Fitness calls made from inside
    ``test_performance`` are counted there, not as training evaluations.
    With ``time_tests``, each ``test_performance`` call is timed as one
    evaluation; the workload gives it one seed.  The host is probed before
    evaluations, instance generations and simulations; the host's clocks
    leave the probes out of every interval.
    """

    def __init__(self, host, time_tests: bool):
        self.host = host
        self.time_tests = time_tests
        self.timed: list[tuple[float, float]] = []  # (start, end) of each timed evaluation
        self.untimed_evals = 0
        self.failed = 0
        self._in_test = 0

    @property
    def evaluations(self) -> int:
        return len(self.timed) + self.untimed_evals

    def _timed(self, fn, *args):
        self.host.maybe_probe()
        t0 = _now()
        try:
            return fn(*args)
        finally:
            self.timed.append((t0, _now()))

    def eval_s(self) -> tuple[list[float], list[float]]:
        """Seconds of each timed evaluation: wall, and at the reference host speed."""
        work, norm = self.host.work_at, self.host.norm_at
        return ([work(b) - work(a) for a, b in self.timed], [norm(b) - norm(a) for a, b in self.timed])

    def _probing(self, fn):
        host = self.host

        def probed(*args, **kwargs):
            host.maybe_probe()
            try:
                return fn(*args, **kwargs)
            finally:
                host.maybe_probe()  # right after a long call, so no stretch spans much more than it

        return probed

    def patches(self):
        fitness = gp.FitnessEvaluator.fitness
        test_performance = gp.FitnessEvaluator.test_performance

        def timed_fitness(evaluator, pair, seed):
            if self._in_test:
                return fitness(evaluator, pair, seed)
            try:
                return self._timed(fitness, evaluator, pair, seed)
            except BaseException:
                self.failed += 1
                raise

        def counted_test(evaluator, pair):
            seeds = len(evaluator.scenario.test_seeds)
            self._in_test += 1
            try:
                if self.time_tests:
                    return self._timed(test_performance, evaluator, pair)
                self.host.maybe_probe()
                self.untimed_evals += seeds
                return test_performance(evaluator, pair)
            except BaseException:
                self.failed += seeds
                raise
            finally:
                self._in_test -= 1

        return [
            (gp.FitnessEvaluator, "fitness", timed_fitness),
            (gp.FitnessEvaluator, "test_performance", counted_test),
            (gp, "generate_instance", self._probing(gp.generate_instance)),
            (gp, "run_simulation", self._probing(gp.run_simulation)),
        ]


class Tracer:
    """Span recorder plus the per-rule call counters of compiled rules."""

    def __init__(self):
        self.spans: list[list] = []
        self.rule_calls: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._eval_id: int | None = None
        self._next_eval = 0

    def _wrap(self, name, fn, *, new_eval=False, attrs=None, after=None):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            outer_eval = self._eval_id
            if new_eval:
                self._eval_id = self._next_eval
                self._next_eval += 1
            rec = [sid, name, 0.0, 0.0, stack[-1] if stack else -1, self._eval_id, None,
                   attrs(*args, **kwargs) if attrs else None]
            spans.append(rec)
            stack.append(sid)
            rec[2] = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[3] = _now()
                stack.pop()
                self._eval_id = outer_eval
            return after(result, *args) if after else result

        return wrapper

    def count_calls(self, compiled, expression, cell=None):
        """Wrap a compiled rule so every call bumps its rule's counter."""
        if cell is None:
            cell = self.rule_calls.setdefault(format_expr(expression), [0])

        def counted(*args, _rule=compiled, _cell=cell):
            _cell[0] += 1
            return _rule(*args)

        return counted

    def patches(self):
        ev = gp.FitnessEvaluator
        wrap = self._wrap
        write = wrap(
            "records.write", records.write_text_atomic,
            attrs=lambda path, text, *_: {"bytes": len(text.encode("utf-8"))},
        )
        return [
            (gp, "generate_instance", wrap("sim.instance", gp.generate_instance)),
            (gp, "run_simulation", wrap("sim.engine", gp.run_simulation)),
            (engine, "compile_expression",
             wrap("expr.compile", engine.compile_expression, after=self.count_calls,
                  attrs=lambda expression: {"nodes": size(expression)})),
            (engine, "compute_objectives", wrap("sim.objectives", engine.compute_objectives)),
            (ev, "fitness", wrap(
                "gp.fitness", ev.fitness, new_eval=True,
                attrs=lambda self_, pair, seed: {"key": (id(self_), rules_to_text(pair), seed)},
            )),
            (ev, "test_performance", wrap(
                "gp.test", ev.test_performance, new_eval=True,
                attrs=lambda self_, pair: {"seeds": len(self_.scenario.test_seeds)},
            )),
            (ev, "reference_objectives", wrap("gp.reference", ev.reference_objectives)),
            (ev, "instance", wrap("gp.instance", ev.instance)),
            (ev, "evaluate_population", wrap("gp.evaluate_population", ev.evaluate_population)),
            (cli, "evolve", wrap("gp.evolve", cli.evolve)),
            (records, "write_text_atomic", write),
            (cli, "write_text_atomic", write),
        ]


@contextmanager
def patched(patches):
    """Install (owner, attribute, replacement) triples; restore on exit.

    Every target must already exist, so a renamed function fails the
    run instead of silently dropping out of the trace.
    """
    saved = []
    try:
        for owner, attr, replacement in patches:
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__name__}.{attr} is not defined; the trace cannot hook it")
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
