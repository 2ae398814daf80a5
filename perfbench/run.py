"""gpshop benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload evolve-fixed --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads, the metrics and the checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Timings marked .norm are at the reference host speed (hostspeed.py).
END_TO_END = {
    "setup_s": "s",
    "run_s.norm": "s",
    "evals_per_s.norm": "1/s",
    "eval_ms.p50.norm": "ms",
    "peak_rss_mb": "MB",
    "test_fitness": "ratio",
}

SETUP_PROBES = 9
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "eval", "error", "attrs")

# What a fresh process pays before its first timed call: interpreter,
# imports and the experiment config.  It prints CLOCK_MONOTONIC when ready.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
from gpshop import cli
from gpshop.records import load_config
load_config({config!r})
print(time.monotonic())
"""


@dataclass
class Rep:
    """One timed repetition."""

    traced: bool
    result: object  # workloads.RepResult
    clock: object  # spans.EvalClock, holding the host-speed probes
    tracer: object  # spans.Tracer, or None

    @property
    def seconds(self) -> float:
        return self.clock.host.work_s()

    @property
    def norm_s(self) -> float:
        return self.clock.host.norm_s()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement budget for the repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed next to run_s."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    return time.perf_counter() - t0


def measure_setup(config_path: str | None) -> list[float]:
    """Set-up seconds of fresh processes, one at a time; the first only warms caches."""
    code = SETUP_PROBE.format(src=SRC, config=config_path)
    samples = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return samples[1:]


def environment(seed: int, calib: list[float]) -> dict:
    import numpy as np

    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, env=env).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "workload_seed": seed,
        "host.calib_s": statistics.median(calib),
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gpshop", "__init__.py")):
        print(f"perfbench: no gpshop sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from checks import harvest, run_checks
    from hostspeed import HostSpeed
    from layers import layer_metrics, replay_ns
    from spans import EvalClock, Tracer, patched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload.prepare(args.seed, args.scale, workdir)
    calib = [calibrate()]

    # Repetitions: identical work, repeated while the budget lasts (at
    # least once).  A traced run alternates untraced and traced ones.  The
    # clock wraps the tracer, so no probe falls inside a simulation or an
    # instance generation; probes inside an evaluation's span are left out
    # of its time.
    reps: list[Rep] = []
    failure = None
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        host = HostSpeed()
        clock = EvalClock(host, workload.times_tests)
        tracer = Tracer() if traced else None
        try:
            with patched(tracer.patches() if tracer else []), patched(clock.patches()):
                host.probe()
                result = workload.repetition(len(reps))
                host.probe()
        except Exception as exc:  # a failed repetition ends the run as incorrect
            failure = f"repetition {len(reps)}: {type(exc).__name__}: {exc}"
            break
        reps.append(Rep(traced, result, clock, tracer))
        elapsed = time.perf_counter() - begin
        typical = statistics.median(r.seconds for r in reps)
        if len(reps) >= 1 + args.trace and elapsed + typical > args.seconds:
            break
    calib.append(calibrate())

    setup = measure_setup(getattr(workload, "config_path", None))
    env = environment(args.seed, calib)

    attempted = 0
    failed = 0
    check_lines = []
    if failure is not None:
        attempted, failed = 1, 1
        check_lines.append(("repetitions", False, failure))
    else:
        for rep in reps:
            attempted += rep.clock.evaluations
            failed += rep.clock.failed
        results = [r.result for r in reps]
        if len(results) == 1:
            results.append(workload.rerun())
        sample = harvest(workload, reps[0].result)
        for name, ok, detail in run_checks(workload, results, sample):
            attempted += 1
            failed += not ok
            check_lines.append((name, ok, detail))

    plain = [r for r in reps if not r.traced]
    traced_reps = [r for r in reps if r.traced]
    lines = [f"workload {args.workload} seed {args.seed} scale {args.scale}: "
             f"{len(plain)} untraced + {len(traced_reps)} traced repetitions"]
    metrics = {}
    wall = {}
    if failure is None:
        run_s = statistics.median(r.seconds for r in plain)
        run_norm = statistics.median(r.norm_s for r in plain)
        evals = plain[0].clock.evaluations
        eval_ms = [s * 1e3 for r in plain for s in r.clock.eval_s()[0]]
        eval_norm = [s * 1e3 for r in plain for s in r.clock.eval_s()[1]]
        values = {
            "setup_s": statistics.median(setup),
            "run_s.norm": run_norm,
            "evals_per_s.norm": evals / run_norm,
            "eval_ms.p50.norm": statistics.median(eval_norm),
            "eval_ms.p90.norm": percentile(eval_norm, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_fitness": plain[0].result.test_fitness,
        }
        wall = {  # diagnostics: the same timings on this host's wall clock
            "run_s": run_s,
            "evals_per_s": evals / run_s,
            "eval_ms.p50": statistics.median(eval_ms),
            "eval_ms.p90": percentile(eval_ms, 90),
            "host.probe_ms": statistics.median(r.clock.host.probe_ms() for r in plain),
            "host.probes": statistics.median(len(r.clock.host.probes) for r in plain),
        }
        lines.append(f"  evaluations per repetition: {evals}; eval_ms samples: {len(eval_ms)}")
        for name, unit in END_TO_END.items():
            lines.append(f"  {name:<16} {values[name]:>14.6g} {unit}")
        lines.append(f"  {'eval_ms.p90.norm':<16} {values['eval_ms.p90.norm']:>14.6g} ms")
        for name, value in wall.items():
            lines.append(f"  {name:<16} {value:>14.6g} (diagnostic, not normalised)")
        lines.append(f"  {'failed_frac':<16} {failed / max(attempted, 1):>14.6g} fraction"
                     f" ({failed} of {attempted} evaluations and checks)")
        if args.trace:
            layers = layer_metrics(traced_reps, run_norm, replay_ns(traced_reps[0].tracer, sample.contexts))
            # Untraced, but unbounded: on identical work its spread between runs was 24%.
            layers["eval_ms.p90.norm"] = (values["eval_ms.p90.norm"], "ms")
            for name, (value, unit) in layers.items():
                lines.append(f"  {name:<34} {value:>14.6g} {unit}")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        else:
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for name, ok, detail in check_lines:
        lines.append(f"  check {name}: {'ok' if ok else 'FAILED'} {detail}")
    lines.append("  env " + json.dumps(env, sort_keys=True))

    correct = failure is None and failed == 0
    record = {
        "workload": args.workload, "trace": args.trace, "scale": args.scale, "env": env,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in check_lines],
        "repetitions": [
            {"traced": r.traced, "seconds": r.seconds, "norm_s": r.norm_s, "test_fitness": r.result.test_fitness,
             "probe_ms": r.clock.host.probe_ms(),
             "sha256": {k: hashlib.sha256(v).hexdigest() for k, v in sorted(r.result.outputs.items())}}
            for r in reps
        ],
        "setup_samples_s": setup, "metrics": metrics,
        "wall": wall, "eval_ms": eval_ms if failure is None else [],
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if traced_reps:
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for i, rep in enumerate(traced_reps):
                for span in rep.tracer.spans:
                    fh.write(json.dumps({"rep": i, **dict(zip(SPAN_FIELDS, span))}) + "\n")

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
