"""Acceptance suite: twelve binding criteria, one test and one verdict line each.

Run with -s (or read captured output) for the per-criterion PASS/FAIL
lines with measured margins.  Budgeted runtimes are asserted where the
criterion pins one.  Scale notes:

- "full config" means the stock SimConfig (10 machines, 5,000 jobs).
- "reduced scale" means population 30, 20 generations, 1,000 jobs with a
  200-job warm-up at utilization 0.85, single Fmean objective, training
  seed 101, test seeds 201-205.
"""
from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from conftest import FIFO_RULES, SPT_RULES, make_golden_instance
from gpshop.analysis import (
    _midranks,
    exact_rank_sum_p,
    friedman_ranks,
    normal_approx_rank_sum_p,
)
from gpshop.cli import main
from gpshop.expr import (
    MAX_DEPTH,
    TERMINAL_ORDER,
    compile_expression,
    depth,
    format_expr,
    parse,
    random_tree,
    terminal_histogram,
)
from gpshop.gp import (
    FitnessEvaluator,
    GPParams,
    Individual,
    evolve,
    init_seeded,
    phenotypic_diversity,
    start,
    step,
)
from gpshop.llm import provider as provider_mod
from gpshop.llm.prompts import build_explain_prompt, build_init_prompt
from gpshop.records import load_config, load_rule_pairs, read_run_record
from gpshop.rules import RulePair, rules_from_text, rules_to_text
from gpshop.sim.config import Scenario, SimConfig
from gpshop.sim.engine import run_simulation, validate_trace


def check(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion:2d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


# ------------------------------------------------------------ shared scale

FULL_SIM = SimConfig()

REDUCED_SIM = SimConfig(total_jobs=1000, warmup_jobs=200, utilization=0.85)
REDUCED_SCENARIO = Scenario(
    objectives=("Fmean",),
    lambdas=(1.0,),
    utilization=0.85,
    training_seeds=(101,),
    test_seeds=(201, 202, 203, 204, 205),
    name="reduced-fmean",
)
REDUCED_PARAMS = GPParams(population_size=30, generations=20)

# Transport-aware warm-start pairs for criterion 5; both route by queue
# work plus processing plus travel time, and sequence by (augmented) PT.
STRONG_SEED_PAIRS = [
    RulePair.from_text("(WIQ + PT) + TRANT", "PT"),
    RulePair.from_text("(WIQ + PT) + TRANT", "(PT + PT) + WKR"),
]


@pytest.fixture(scope="module")
def reduced_runs():
    """Five reduced-scale GP runs, shared by criteria 4 and 6.

    Each run also audits every evaluated individual's tree depths after
    each step, so criterion 6 gets its whole-evolution audit for free.
    """
    t0 = time.perf_counter()
    runs = []
    for gp_seed in range(1, 6):
        evaluator = FitnessEvaluator(REDUCED_SIM, REDUCED_SCENARIO)
        audit = {"individuals": 0, "too_deep": 0}
        rng = np.random.default_rng(gp_seed)
        state = start(REDUCED_PARAMS, rng)
        for _ in range(REDUCED_PARAMS.generations):
            step(state, REDUCED_PARAMS, evaluator, rng)
            for ind in state.population:
                audit["individuals"] += 1
                if depth(ind.genome.routing) > MAX_DEPTH or depth(ind.genome.sequencing) > MAX_DEPTH:
                    audit["too_deep"] += 1
        best, log = state.best, state.log
        runs.append(
            {
                "gen0_best": min(log.gen0_fitness),
                "best_train": best.fitness,
                "best_test": evaluator.test_performance(best.genome),
                "audited": audit["individuals"],
                "too_deep": audit["too_deep"],
            }
        )
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


# ------------------------------------------------------------ criteria 1-3

def test_criterion_01_simulator_oracle():
    t0 = time.perf_counter()
    instance = make_golden_instance()

    fifo = run_simulation(FIFO_RULES, instance)
    fifo_completions = {j + 1: t for j, t in enumerate(fifo.completion)}
    fifo_ok = (
        fifo_completions == {1: 40.0, 2: 85.0, 3: 85.0}
        and fifo.objectives.Tmax == 42.5
        and fifo.objectives.Tmean == 27.5
        and fifo.objectives.Fmean == 205 / 3
        and fifo.objectives.WTmean == 70.0
        and fifo.objectives.WFmean == 485 / 3
        and fifo.makespan == 85.0
    )

    spt = run_simulation(SPT_RULES, instance)
    spt_completions = {j + 1: t for j, t in enumerate(spt.completion)}
    spt_ok = (
        spt_completions == {1: 40.0, 2: 95.0, 3: 85.0}
        and spt.objectives.Tmax == 50.0
        and spt.objectives.Tmean == 92.5 / 3
        and spt.objectives.Fmean == 215 / 3
        and spt.objectives.WTmean == 220 / 3
        and spt.objectives.WFmean == 495 / 3
        and spt.makespan == 95.0
    )

    elapsed = time.perf_counter() - t0
    check(
        1, "simulator oracle (hand schedule, tolerance 0)",
        fifo_ok and spt_ok and elapsed < 1.0,
        f"fifo={fifo_ok} spt={spt_ok} {elapsed:.3f}s",
    )


def test_criterion_02_constraint_audit():
    t0 = time.perf_counter()
    evaluator = FitnessEvaluator(FULL_SIM, REDUCED_SCENARIO)  # instance cache only
    violations = 0
    for seed in range(1, 11):
        instance = evaluator.instance(seed)
        outcome = run_simulation(RulePair.reference(), instance, record_trace=True)
        violations += len(validate_trace(outcome.trace, instance))
    elapsed = time.perf_counter() - t0
    check(
        2, "constraint audit on 10 full-config instances",
        violations == 0 and elapsed < 120.0,
        f"violations={violations} {elapsed:.1f}s",
    )


def test_criterion_03_utilization_calibration():
    t0 = time.perf_counter()
    means = {}
    for util, lo, hi in ((0.85, 0.82, 0.88), (0.95, 0.91, 0.98)):
        cfg = FULL_SIM.with_overrides(utilization=util)
        fractions = []
        for seed in (1, 2, 3):
            from gpshop.sim.instance import generate_instance

            outcome = run_simulation(RulePair.reference(), generate_instance(cfg, seed=seed))
            fractions.append(outcome.busy_fraction)
        means[util] = (sum(fractions) / len(fractions), lo, hi)
    elapsed = time.perf_counter() - t0
    ok = all(lo <= mean <= hi for mean, lo, hi in means.values()) and elapsed < 300.0
    detail = " ".join(f"u{u:g}={m:.4f}in[{lo},{hi}]" for u, (m, lo, hi) in means.items())
    check(3, "utilization calibration (3-seed means)", ok, f"{detail} {elapsed:.1f}s")


# ------------------------------------------------------------ criteria 4-5

def test_criterion_04_gp_progress(reduced_runs):
    runs = reduced_runs["runs"]
    median_gen0 = statistics.median(r["gen0_best"] for r in runs)
    median_best = statistics.median(r["best_train"] for r in runs)
    improvement = (median_gen0 - median_best) / median_gen0

    evaluator = FitnessEvaluator(REDUCED_SIM, REDUCED_SCENARIO)
    baseline_test = evaluator.test_performance(RulePair.reference())
    median_test = statistics.median(r["best_test"] for r in runs)

    elapsed = reduced_runs["elapsed"]
    ok = improvement >= 0.05 and median_test < baseline_test and elapsed < 900.0
    check(
        4, "GP progress at reduced scale (5 runs)",
        ok,
        f"improvement={improvement:.1%} test={median_test:.1f} baseline={baseline_test:.1f} {elapsed:.0f}s",
    )


def test_criterion_05_warm_start_dominates_gen0():
    t0 = time.perf_counter()
    params0 = GPParams(population_size=30, generations=0)
    evaluator = FitnessEvaluator(REDUCED_SIM, REDUCED_SCENARIO)
    wins = 0
    for pair_seed in range(1, 11):
        random_best, _ = evolve(params0, evaluator, np.random.default_rng(pair_seed))
        seeded_best, _ = evolve(
            params0, evaluator, np.random.default_rng(pair_seed), seed_rules=list(STRONG_SEED_PAIRS),
        )
        wins += seeded_best.fitness <= random_best.fitness
    elapsed = time.perf_counter() - t0
    check(
        5, "warm start beats random init in gen 0",
        wins >= 9 and elapsed < 600.0,
        f"wins={wins}/10 {elapsed:.0f}s",
    )


# ------------------------------------------------------------ criteria 6-7

def test_criterion_06_depth_and_totality(reduced_runs):
    rng = np.random.default_rng(606)
    contexts = rng.uniform(0.0, 500.0, size=(1000, 13))
    # Signed signals and zero denominators must be survivable too.
    slack_col = [t.name for t in TERMINAL_ORDER].index("SLACK")
    mwt_col = [t.name for t in TERMINAL_ORDER].index("MWT")
    contexts[:, slack_col] -= 250.0
    contexts[:, mwt_col] -= 100.0
    contexts[rng.random(contexts.shape) < 0.05] = 0.0
    rows = [tuple(map(float, row)) for row in contexts]

    non_finite = 0
    too_deep_random = 0
    for i in range(10_000):
        tree = random_tree(rng, mode=("full" if i % 2 else "grow"), depth_range=(2, 6))
        if depth(tree) > MAX_DEPTH:
            too_deep_random += 1
        fn = compile_expression(tree)
        for row in rows:
            if not math.isfinite(fn(*row)):
                non_finite += 1
                break

    audited = sum(r["audited"] for r in reduced_runs["runs"])
    too_deep_evolved = sum(r["too_deep"] for r in reduced_runs["runs"])
    ok = non_finite == 0 and too_deep_random == 0 and too_deep_evolved == 0
    check(
        6, "totality (10k trees x 1k contexts) and depth cap over a full evolution",
        ok,
        f"non_finite={non_finite} evolved_audited={audited} too_deep={too_deep_evolved}",
    )


def test_criterion_07_parser_round_trip():
    rng = np.random.default_rng(707)
    mismatches = 0
    for i in range(10_000):
        tree = random_tree(rng, mode=("full" if i % 2 else "grow"), depth_range=(1, 6))
        if parse(format_expr(tree)) != tree:
            mismatches += 1
    check(7, "parse(format(e)) round trip on 10k expressions", mismatches == 0, f"mismatches={mismatches}")


# ----------------------------------------------------------- criteria 8-10

def brute_force_rank_sum_p(a, b) -> float:
    pooled = list(a) + list(b)
    n1, n = len(a), len(a) + len(b)
    doubled = [int(round(2 * r)) for r in _midranks(pooled)]
    total = sum(doubled)
    dev_obs = abs(sum(doubled[:n1]) * n - n1 * total)
    extreme = sum(
        1
        for combo in itertools.combinations(range(n), n1)
        if abs(sum(doubled[i] for i in combo) * n - n1 * total) >= dev_obs
    )
    return extreme / math.comb(n, n1)


def test_criterion_08_wilcoxon_correctness():
    rng = random.Random(8)
    worst_exact = 0.0
    checked = 0
    for n1 in range(1, 12):
        for n2 in range(1, 13 - n1):
            for tie_rich in (True, False):
                if tie_rich:
                    a = [float(rng.randint(0, 3)) for _ in range(n1)]
                    b = [float(rng.randint(0, 3)) for _ in range(n2)]
                else:
                    a = [rng.gauss(0.0, 1.0) for _ in range(n1)]
                    b = [rng.gauss(0.5, 1.0) for _ in range(n2)]
                worst_exact = max(worst_exact, abs(exact_rank_sum_p(a, b) - brute_force_rank_sum_p(a, b)))
                checked += 1

    worst_approx = 0.0
    for _ in range(200):
        a = [rng.gauss(0.0, 1.0) for _ in range(8)]
        b = [rng.gauss(0.3, 1.0) for _ in range(8)]
        worst_approx = max(worst_approx, abs(exact_rank_sum_p(a, b) - normal_approx_rank_sum_p(a, b)))

    known_p = exact_rank_sum_p([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    ok = worst_exact <= 1e-12 and worst_approx <= 0.02 and abs(known_p - 0.1) <= 1e-12
    check(
        8, "rank-sum exact vs brute force (n1+n2 <= 12) and approx at n=8",
        ok,
        f"cells={checked} worst_exact={worst_exact:.2e} worst_approx={worst_approx:.4f}",
    )


def test_criterion_09_friedman_correctness():
    ordered = {f"m{i}": [float(i + 10 * j) for j in range(4)] for i in range(1, 7)}
    ranks = friedman_ranks(ordered)
    order_ok = ranks == {f"m{i}": float(i) for i in range(1, 7)}

    tied = friedman_ranks({"a": [1.0, 1.0], "b": [1.0, 2.0], "c": [3.0, 3.0]})
    tie_ok = (
        abs(tied["a"] - 1.25) < 1e-12
        and abs(tied["b"] - 1.75) < 1e-12
        and abs(tied["c"] - 3.0) < 1e-12
    )
    check(9, "Friedman ranks: 6x4 total order and midrank ties", order_ok and tie_ok)


def test_criterion_10_diversity_metric():
    def pop(fitnesses):
        return [Individual(genome=RulePair.reference(), fitness=f) for f in fitnesses]

    distinct = phenotypic_diversity(pop([1.0, 2.0, 3.0, 4.0]))
    identical = phenotypic_diversity(pop([7.0] * 5))
    mixed = phenotypic_diversity(pop([1.0, 1.0, 2.0]))
    ok = distinct == 1.0 and identical == 1 / 5 and mixed == 2 / 3
    check(10, "phenotypic diversity exact values", ok, f"{distinct} {identical} {mixed}")


# ---------------------------------------------------------- criteria 11-12

PIPELINE_YAML = """\
sim:
  num_machines: 2
  total_jobs: 20
  warmup_jobs: 4
gp:
  population_size: 6
  generations: 1
scenarios:
  tiny: {objectives: [Fmean], lambdas: [1.0], utilization: 0.85, training_seeds: [1], test_seeds: [2]}
default_scenario: tiny
llm:
  n_requested: 3
"""

PIPELINE_REPLY = """Candidates:

```
routing: (WIQ + PT) + TRANT
sequencing: PT
```

```
routing: WIQ
sequencing: (PT + PT) + WKR
```

```
routing: exp(PT)
sequencing: PT
```

INSIGHTS: Favor near, lightly loaded machines.
"""

PIPELINE_PAIRS = [("(WIQ + PT) + TRANT", "PT"), ("WIQ", "(PT + PT) + WKR")]


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    (root / "config.yaml").write_text(PIPELINE_YAML)
    mock = root / "mock"
    mock.mkdir()
    cfg = load_config(str(root / "config.yaml"))
    scenario = cfg.scenario(None)
    prompt = build_init_prompt(scenario, [], n_requested=3)
    (mock / f"{prompt.digest}.txt").write_text(PIPELINE_REPLY)
    return root


def _forbid_network(monkeypatch):
    calls = []

    def bomb(*args, **kwargs):
        calls.append(args)
        raise AssertionError("network transport invoked with the mock provider")

    monkeypatch.setattr(provider_mod, "_http_post", bomb)
    return calls


def test_criterion_11_offline_llm_pipeline(pipeline_ws, monkeypatch):
    calls = _forbid_network(monkeypatch)
    ws = pipeline_ws
    mock_arg = f"mock:{ws / 'mock'}"
    config_arg = str(ws / "config.yaml")

    seeds_path = ws / "seeds.txt"
    ok_init = main(["init-llm", "--config", config_arg, "--provider", mock_arg, "--out", str(seeds_path)]) == 0
    canned = [rules_from_text(f"routing: {r}\nsequencing: {s}") for r, s in PIPELINE_PAIRS]
    seeds_ok = [rules_to_text(p) for p in load_rule_pairs(str(seeds_path))] == [rules_to_text(p) for p in canned]

    out = ws / "runs"
    ok_evolve = main([
        "evolve", "--config", config_arg, "--init", "llm", "--provider", mock_arg,
        "--seed", "11", "--out", str(out),
    ]) == 0
    record = read_run_record(str(out / "run-0.jsonl"))
    meta_ok = record.meta["seed_genomes"] == [rules_to_text(p) for p in canned]

    # The canned genomes are generation 0, verbatim, ahead of random fill.
    population, rejections = init_seeded(list(canned), GPParams(population_size=6, generations=1), np.random.default_rng(0))
    gen0_texts = [rules_to_text(ind.genome) for ind in population]
    gen0_ok = gen0_texts[:2] == [rules_to_text(p) for p in canned] and not rejections
    origins_ok = [ind.origin for ind in population[:2]] == ["llm-seeded", "llm-seeded"]

    best_pair = load_rule_pairs(str(out / "run-0.best.txt"))[0]
    cfg = load_config(config_arg)
    explain_prompt = build_explain_prompt(best_pair, cfg.scenario(None))
    (ws / "mock" / f"{explain_prompt.digest}.txt").write_text("## Decision logic\n\nCanned narrative.\n")
    report_path = ws / "report.md"
    ok_explain = main([
        "explain", "--config", config_arg, "--best", str(out / "run-0.best.txt"),
        "--provider", mock_arg, "--out", str(report_path),
    ]) == 0

    report = report_path.read_text()
    reported = {
        line[2:].split(":")[0]: int(line.rsplit(":", 1)[1])
        for line in report.splitlines()
        if line.startswith("- ") and ":" in line
    }
    expected = Counter()
    for name, count in terminal_histogram(best_pair.routing).items():
        expected[name.name] += count
    for name, count in terminal_histogram(best_pair.sequencing).items():
        expected[name.name] += count
    histogram_ok = reported == {k: v for k, v in expected.items() if v}

    ok = (
        ok_init and seeds_ok and ok_evolve and meta_ok and gen0_ok and origins_ok
        and ok_explain and "Canned narrative." in report and histogram_ok and not calls
    )
    check(
        11, "offline init-llm -> evolve -> explain with zero network calls",
        ok,
        f"network_calls={len(calls)} histogram_ok={histogram_ok}",
    )


def test_criterion_12_run_record_determinism(pipeline_ws, monkeypatch):
    _forbid_network(monkeypatch)
    ws = pipeline_ws
    argv_base = [
        "evolve", "--config", str(ws / "config.yaml"), "--init", "llm",
        "--provider", f"mock:{ws / 'mock'}", "--runs", "2", "--seed", "99",
    ]
    out_a, out_b = ws / "det-a", ws / "det-b"
    ok_a = main(argv_base + ["--out", str(out_a)]) == 0
    ok_b = main(argv_base + ["--out", str(out_b)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("run-0.jsonl", "run-1.jsonl", "run-0.best.txt", "run-1.best.txt")
    )
    check(
        12, "repeated cmd_evolve invocations are byte-identical",
        ok_a and ok_b and identical,
        "4 files compared",
    )
