"""Command-line interface: reproducible experiment runs from config files.

Subcommands: gen-instance, simulate, evolve, init-llm, explain, compare.
Every command is deterministic given its flags plus the master seed (mock
provider assumed for LLM modes), and every output file is written
atomically.  Exit codes: 0 success, 2 config error, 3 provider error,
4 data error.
"""
from __future__ import annotations

import argparse
import functools
import glob
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import initial_fitness_distribution, summarize, terminal_frequency_report
from .errors import ConfigError, DataError
from .expr import TERMINAL_ORDER, format_expr
from .gp import FitnessEvaluator, GPParams, evolve
from .llm.extract import ExtractionResult, extract_heuristics
from .llm.prompts import build_init_prompt
from .llm.provider import ProviderConfig, ProviderError, query
from .llm.report import generate_report
from .records import (
    AppConfig,
    build_run_meta,
    dump_rule_pairs,
    load_config,
    load_references,
    load_rule_pairs,
    read_run_record,
    write_run_record,
    write_text_atomic,
)
from .rules import RulePair, rules_to_text
from .sim.config import OBJECTIVE_KEYS, Scenario, SimConfig
from .sim.engine import run_simulation
from .sim.instance import dump_instance, generate_instance, load_instance

__all__ = ["main"]


def _provider_from_args(cfg: AppConfig, args) -> ProviderConfig:
    provider = cfg.provider
    if getattr(args, "provider", None):
        provider = replace(provider, endpoint=args.provider)
    return provider


def _derive_run_seeds(master_seed: int, offset: int, runs: int) -> list[int]:
    """Counter-based per-run seeds; run i is re-creatable from (master, i)."""
    state = np.random.SeedSequence(master_seed).generate_state(offset + runs, dtype=np.uint64)
    return [int(s) for s in state[offset:]]


# ---------------------------------------------------------------- commands

def cmd_gen_instance(args) -> int:
    cfg = load_config(args.config)
    sim = cfg.sim
    overrides = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        overrides["seed"] = args.seed
    if args.jobs is not None:
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        # Scale the warm-up window with the job count override.
        overrides["total_jobs"] = args.jobs
        overrides["warmup_jobs"] = min(sim.warmup_jobs * args.jobs // sim.total_jobs, args.jobs - 1)
    if args.utilization is not None:
        overrides["utilization"] = args.utilization
    if overrides:
        sim = sim.with_overrides(**overrides)
    instance = generate_instance(sim)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    dump_instance(instance, args.out)
    print(f"wrote {args.out}: {len(instance.release)} jobs on {sim.num_machines} machines (seed {sim.seed})")
    return 0


def cmd_simulate(args) -> int:
    pairs = load_rule_pairs(args.rules)
    if len(pairs) != 1:
        raise DataError(f"{args.rules}: expected exactly one rule pair, found {len(pairs)}")
    instance = load_instance(args.instance)
    outcome = run_simulation(pairs[0], instance)
    for key in OBJECTIVE_KEYS:
        print(f"{key}: {outcome.objectives.get(key)!r}")
    print(f"makespan: {outcome.makespan!r}")
    print(f"busy_fraction: {outcome.busy_fraction!r}")
    return 0


def _request_seeds(cfg: AppConfig, scenario: Scenario, args, path: str) -> ExtractionResult:
    """Prompt the model for seed pairs, then write what it sent to ``path``.

    The file lists the accepted pairs, with the rejected candidates' causes
    as comments and any insights in ``path + ".insights.txt"``; the model
    call's audit goes to ``path + ".audit.jsonl"`` as it runs.
    """
    provider = _provider_from_args(cfg, args)
    references = load_references(args.references) if args.references else []
    n = args.n if args.n is not None else cfg.provider.n_requested
    prompt = build_init_prompt(scenario, references, n_requested=n)
    extraction = extract_heuristics(query(provider, prompt, path + ".audit.jsonl"))
    comments = [f"accepted: {len(extraction.accepted)}", f"rejected: {len(extraction.rejected)}"]
    comments += [f"  candidate {i}: {r.cause}" for i, r in enumerate(extraction.rejected, start=1)]
    dump_rule_pairs(path, extraction.accepted, comments)
    if extraction.insights:
        write_text_atomic(path + ".insights.txt", extraction.insights + "\n")
    return extraction


def _evolve_one_run(run_index: int, run_seed: int, *, scenario: Scenario, sim: SimConfig, gp: GPParams,
                    seed_pairs: list[RulePair] | None, master_seed: int, init_mode: str, outdir: str) -> dict:
    """Execute one GP run and persist its two output files.

    Top-level so ProcessPoolExecutor can ship a partial of it to workers;
    every argument is picklable (dataclasses, rule pairs, strings, ints).
    """
    rng = np.random.default_rng(run_seed)
    evaluator = FitnessEvaluator(sim, scenario)
    best, log = evolve(gp, evaluator, rng, seed_rules=seed_pairs)
    test_fitness = evaluator.test_performance(best.genome)

    meta = build_run_meta(
        method=f"gp-{init_mode}",
        scenario=scenario,
        sim=evaluator.config,
        gp=gp,
        run_index=run_index,
        run_seed=run_seed,
        master_seed=master_seed,
        init_mode=init_mode,
        seed_pairs=seed_pairs or (),
        seed_rejections=log.seed_rejections,
    )
    result = {
        "best_routing": format_expr(best.genome.routing),
        "best_sequencing": format_expr(best.genome.sequencing),
        "train_fitness": best.fitness,
        "test_fitness": test_fitness,
        "test_aborted": evaluator.test_aborted(best.genome),
        "evaluations": gp.population_size * max(gp.generations, 1),
    }
    record_path = os.path.join(outdir, f"run-{run_index}.jsonl")
    write_run_record(record_path, meta, log, result)
    write_text_atomic(os.path.join(outdir, f"run-{run_index}.best.txt"), rules_to_text(best.genome))
    return {
        "run_index": run_index,
        "run_seed": run_seed,
        "train_fitness": best.fitness,
        "test_fitness": test_fitness,
        "record_path": record_path,
    }


def cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    scenario = cfg.scenario(args.scenario)
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    if args.run_offset < 0:
        raise ConfigError("--run-offset must be >= 0")
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    os.makedirs(args.out, exist_ok=True)

    if args.init == "random":
        seed_pairs = None
    elif args.init == "file":
        if not args.seeds_file:
            raise ConfigError("--init file requires --seeds-file")
        seed_pairs = load_rule_pairs(args.seeds_file)
    else:  # llm
        # One provider call in the parent; all runs share the accepted seeds.
        extraction = _request_seeds(cfg, scenario, args, os.path.join(args.out, "llm-seeds.txt"))
        if not extraction.accepted:
            print("warning: no usable pairs in the reply; population will be fully random", file=sys.stderr)
        seed_pairs = extraction.accepted

    run_seeds = _derive_run_seeds(args.seed, args.run_offset, args.runs)
    run_one = functools.partial(
        _evolve_one_run, scenario=scenario, sim=cfg.sim, gp=cfg.gp, seed_pairs=seed_pairs,
        master_seed=args.seed, init_mode=args.init, outdir=args.out,
    )
    indices = range(args.run_offset, args.run_offset + args.runs)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: only --jobs > 1 needs it

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(run_one, indices, run_seeds))
    else:
        summaries = list(map(run_one, indices, run_seeds))
    for s in summaries:
        print(
            f"run {s['run_index']} (seed {s['run_seed']}): "
            f"train {s['train_fitness']!r} test {s['test_fitness']!r} -> {s['record_path']}"
        )
    return 0


def cmd_init_llm(args) -> int:
    cfg = load_config(args.config)
    scenario = cfg.scenario(args.scenario)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    extraction = _request_seeds(cfg, scenario, args, args.out)
    print(
        f"accepted {len(extraction.accepted)} of {extraction.candidates} candidates -> {args.out}"
        + (f" (+{len(extraction.rejected)} rejected)" if extraction.rejected else "")
    )
    return 0


def cmd_explain(args) -> int:
    cfg = load_config(args.config)
    scenario = cfg.scenario(args.scenario)
    provider = _provider_from_args(cfg, args)
    pairs = load_rule_pairs(args.best)
    if len(pairs) != 1:
        raise DataError(f"{args.best}: expected exactly one rule pair, found {len(pairs)}")
    test_score = None
    if args.evaluate:
        test_score = FitnessEvaluator(cfg.sim, scenario).test_performance(pairs[0])
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    audit_path = args.out + ".audit.jsonl"
    report = generate_report(pairs[0], scenario, provider, test_score=test_score, audit_path=audit_path)
    write_text_atomic(args.out, report.text)
    if not report.narrative_ok:
        print(f"narrative unavailable ({report.error}); wrote appendix-only report to {args.out}", file=sys.stderr)
        return 3
    print(f"wrote {args.out}")
    return 0


def _series_csv(methods: list[str], series: dict[str, list[float]]) -> str:
    depth = max((len(s) for s in series.values()), default=0)
    lines = ["generation," + ",".join(methods)]
    for g in range(depth):
        cells = [repr(series[m][g]) if g < len(series[m]) else "" for m in methods]
        lines.append(f"{g}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    if not 0 < args.alpha < 1:  # written so that NaN fails
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    paths = sorted({p for pattern in args.records for p in glob.glob(pattern)})
    if not paths:
        raise DataError(f"no record files match {args.records}")
    records = [read_run_record(p) for p in paths]
    runs = [r.run for r in records]
    table = summarize(runs, baseline=args.baseline, alpha=args.alpha)
    os.makedirs(args.out, exist_ok=True)
    write_text_atomic(os.path.join(args.out, "comparison.csv"), table.to_csv())

    logs_by_method: dict[str, list] = {m: [] for m in table.methods}
    for rec in records:
        logs_by_method[rec.run.method].append(rec.log)

    gen0_lines = ["method,fitness"]
    diversity: dict[str, list[float]] = {}
    convergence: dict[str, list[float]] = {}
    for method in table.methods:
        logs = logs_by_method[method]
        gen0_lines += [f"{method},{v!r}" for v in initial_fitness_distribution(logs)]
        depth = min(len(log.entries) for log in logs)
        diversity[method] = [
            sum(log.entries[g].diversity for log in logs) / len(logs) for g in range(depth)
        ]
        convergence[method] = [
            sum(log.entries[g].best_fitness for log in logs) / len(logs) for g in range(depth)
        ]
    write_text_atomic(os.path.join(args.out, "gen0_fitness.csv"), "\n".join(gen0_lines) + "\n")
    write_text_atomic(os.path.join(args.out, "diversity.csv"), _series_csv(table.methods, diversity))
    write_text_atomic(os.path.join(args.out, "convergence.csv"), _series_csv(table.methods, convergence))

    freq = terminal_frequency_report([r.best for r in records])
    freq_lines = ["terminal,routing,sequencing"]
    freq_lines += [
        f"{t.name},{freq['routing'][t.name]!r},{freq['sequencing'][t.name]!r}" for t in TERMINAL_ORDER
    ]
    write_text_atomic(os.path.join(args.out, "terminal_frequency.csv"), "\n".join(freq_lines) + "\n")

    print(f"compared {len(runs)} runs ({len(table.methods)} methods x {len(table.scenarios)} scenarios) -> {args.out}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpshop",
        description="Evolve and analyze interpretable scheduling rule pairs for dynamic flexible job shops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="YAML config file; merged over packaged defaults")

    p = sub.add_parser("gen-instance", help="generate a shop instance file")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="instance seed (default: config)")
    p.add_argument("--jobs", type=int, default=None, help="override total job count (warm-up scales along)")
    p.add_argument("--utilization", type=float, default=None, help="override target utilization")
    p.add_argument("--out", required=True, help="output instance file (JSONL)")
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("simulate", help="run one rule pair on a stored instance")
    p.add_argument("--rules", required=True, help="rule-pair file (routing:/sequencing: lines)")
    p.add_argument("--instance", required=True, help="instance file from gen-instance")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evolve", help="run seeded GP experiments and write run records")
    add_common(p)
    p.add_argument("--scenario", default=None, help="scenario name from the config")
    p.add_argument("--seed", type=int, default=0, help="master seed; per-run seeds derive from it")
    p.add_argument("--runs", type=int, default=1, help="number of independent runs")
    p.add_argument("--run-offset", type=int, default=0, help="index of the first run (for resuming)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker cap for runs")
    p.add_argument("--init", choices=("random", "llm", "file"), default="random", help="gen-0 source")
    p.add_argument("--seeds-file", default=None, help="rule-pair file for --init file")
    p.add_argument("--references", default=None, help="reference heuristics file for --init llm")
    p.add_argument("--n", type=int, default=None, help="pairs to request from the model (--init llm)")
    p.add_argument("--provider", default=None, help="override provider endpoint (e.g. mock:/dir)")
    p.add_argument("--out", required=True, help="output directory for run records")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("init-llm", help="ask the model for seed rule pairs")
    add_common(p)
    p.add_argument("--scenario", default=None)
    p.add_argument("--references", default=None, help="reference heuristics file (optional, zero-shot otherwise)")
    p.add_argument("--n", type=int, default=None, help="pairs to request (default: config)")
    p.add_argument("--provider", default=None, help="override provider endpoint (e.g. mock:/dir)")
    p.add_argument("--out", required=True, help="output seeds file")
    p.set_defaults(func=cmd_init_llm)

    p = sub.add_parser("explain", help="render a narrative report for a rule pair")
    add_common(p)
    p.add_argument("--scenario", default=None)
    p.add_argument("--best", required=True, help="rule-pair file to explain")
    p.add_argument("--evaluate", action="store_true", help="append held-out test fitness to the appendix")
    p.add_argument("--provider", default=None, help="override provider endpoint (e.g. mock:/dir)")
    p.add_argument("--out", required=True, help="output report file")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("compare", help="statistical comparison tables from run records")
    p.add_argument("--records", required=True, nargs="+", help="record file globs")
    p.add_argument("--baseline", required=True, help="method name the markers compare against")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.add_argument("--out", required=True, help="output directory for CSV tables")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help or argparse usage error
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
