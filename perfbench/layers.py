"""Per-layer metrics from the spans of traced repetitions."""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

from gpshop.expr import compile_expression, parse

REPLAY_ROUNDS = 3


def _ns_per_call(rule, args) -> float:
    best = float("inf")
    for _ in range(REPLAY_ROUNDS):
        t0 = time.perf_counter()
        for a in args:
            rule(*a)
        best = min(best, time.perf_counter() - t0)
    return best / len(args) * 1e9


def replay_ns(tracer, contexts) -> tuple[float, float]:
    """Call-weighted ns per rule call, bare and through the tracer's counter.

    Every rule the traced repetition compiled is recompiled and called on
    the same fixed sample of harvested decision contexts; its time per
    call is weighted by how often the simulator called it.
    """
    args = [ctx.as_args() for ctx in contexts]
    total = bare = counted = 0.0
    for text, (calls,) in tracer.rule_calls.items():
        if not calls:
            continue
        tree = parse(text)
        rule = compile_expression(tree)
        wrapped = tracer.count_calls(rule, tree, cell=[0])
        total += calls
        bare += calls * _ns_per_call(rule, args)
        counted += calls * _ns_per_call(wrapped, args)
    if not total:
        return 0.0, 0.0
    return bare / total, counted / total


def _one_rep(rep, replay: tuple[float, float]) -> dict[str, tuple[float, str]]:
    seconds, tracer, work = rep.seconds, rep.tracer, rep.clock.host.work_at
    spans = tracer.spans
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def total(name):
        return duration(by_name[name])

    def duration(spans):
        return sum(work(s[3]) - work(s[2]) for s in spans)

    def children(span, name):
        return [s for s in by_name[name] if s[4] == span[0]]

    fitness = by_name["gp.fitness"]
    keys = [s[7]["key"] for s in fitness]
    lookups = by_name["gp.instance"]
    hits = sum(1 for s in lookups if not children(s, "sim.instance"))
    reference_sims = [c for s in by_name["gp.reference"] for c in children(s, "sim.engine")]
    aborted = [s for s in by_name["sim.engine"] if s[6] == "QueueOverflow" and s[5] is not None]
    test_evals = sum(s[7]["seeds"] for s in by_name["gp.test"])
    evaluations = len(fitness) + test_evals
    rule_calls = sum(cell[0] for cell in tracer.rule_calls.values())
    sims = len(by_name["sim.engine"])
    compiles = by_name["expr.compile"]
    call_ns, counted_ns = replay
    engine_s = total("sim.engine")
    return {
        "sim.instance.calls": (len(by_name["sim.instance"]), "count"),
        "sim.instance.s": (total("sim.instance"), "s"),
        "sim.instance.share": (total("sim.instance") / seconds, "fraction"),
        "gp.fitness.calls": (len(fitness), "count"),
        "gp.fitness.s": (total("gp.fitness"), "s"),
        "gp.fitness.repeat_frac": ((len(keys) - len(set(keys))) / len(keys) if keys else 0.0, "fraction"),
        "gp.instance_cache.hit_frac": (hits / len(lookups) if lookups else 0.0, "fraction"),
        "gp.reference.calls": (len(reference_sims), "count"),
        "gp.reference.s": (duration(reference_sims), "s"),
        "gp.guard_abort_frac": (len(aborted) / evaluations if evaluations else 0.0, "fraction"),
        "gp.guard_abort_s": (duration(aborted), "s"),
        "gp.test.evals": (test_evals, "count"),
        "gp.test.s": (total("gp.test"), "s"),
        "gp.breed.s": (total("gp.evolve") - total("gp.evaluate_population"), "s"),
        "expr.compile.calls": (len(compiles), "count"),
        "expr.compile.s": (total("expr.compile"), "s"),
        "expr.compile.nodes_mean": (statistics.mean(s[7]["nodes"] for s in compiles) if compiles else 0.0, "count"),
        "expr.rule_calls": (rule_calls, "count"),
        "expr.call_ns": (call_ns, "ns"),
        "sim.engine.calls": (sims, "count"),
        "sim.engine.s": (engine_s, "s"),
        # Derived: span time minus compile, objectives and the rule calls
        # (replayed cost per call, counter included, times the call count).
        "sim.engine.self_s": (
            engine_s - total("expr.compile") - total("sim.objectives") - rule_calls * counted_ns * 1e-9, "s"),
        "sim.engine.rule_calls_per_sim": (rule_calls / sims if sims else 0.0, "count"),
        "sim.objectives.calls": (len(by_name["sim.objectives"]), "count"),
        "sim.objectives.s": (total("sim.objectives"), "s"),
        "records.write.calls": (len(by_name["records.write"]), "count"),
        "records.write.s": (total("records.write"), "s"),
        "records.write.bytes": (sum(s[7]["bytes"] for s in by_name["records.write"]), "B"),
    }


def layer_metrics(traced_reps, untraced_norm_s: float, replay) -> dict[str, tuple[float, str]]:
    """Median of each layer metric over the traced repetitions, plus tracing overhead.

    Span times are wall seconds with the host-speed probes left out; the
    overhead compares repetition times at the reference host speed.
    """
    per_rep = [_one_rep(rep, replay) for rep in traced_reps]
    out = {name: (statistics.median(r[name][0] for r in per_rep), unit) for name, (_, unit) in per_rep[0].items()}
    traced_s = statistics.median(rep.norm_s for rep in traced_reps)
    out["trace.overhead_frac"] = (traced_s / untraced_norm_s - 1.0, "fraction")
    return out
