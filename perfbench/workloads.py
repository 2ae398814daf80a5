"""The benchmark's workloads: inputs derived from a seed, and one repetition each.

``evolve-fixed`` and ``evolve-rotating-095`` drive ``gpshop evolve`` through
``gpshop.cli.main`` in-process; ``test-eval-5k`` scores three fixed rule
pairs with ``FitnessEvaluator.test_performance`` on held-out instances of
the full-size shop.  A repetition is deterministic given the seed, so
repeating it must reproduce its outputs exactly.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
from dataclasses import dataclass, replace

import numpy as np
import yaml

from gpshop import cli
from gpshop.gp import FitnessEvaluator
from gpshop.records import load_config
from gpshop.rules import RulePair

# Sizes: at full scale, what the benchmark measures, per workload; "tiny"
# only exercises every code path, for the smoke tests.  A GP run's cost
# depends on its trajectory, which the workload seed steers through the
# instances, so each repetition averages several runs.  At full size, over
# six seeds, the coefficient of variation of a repetition's normalised
# time was 6.6% for 5 runs of population 12 and 2.0% for 10 runs of
# population 6, on evolve-fixed.  evolve-rotating-095 keeps 5 runs: it
# averages over 3 instances per run already, and 10 runs would double its
# instance generations and reference simulations.
EVOLVE_SIZES = {
    "evolve-fixed": {"jobs": 1000, "warmup": 200, "runs": 10, "population": 6, "generations": 3},
    "evolve-rotating-095": {"jobs": 1000, "warmup": 200, "runs": 5, "population": 12, "generations": 3},
    "tiny": {"jobs": 60, "warmup": 10, "runs": 2, "population": 4, "generations": 2},
}
TEST_SIZES = {
    "full": {"jobs": None, "warmup": None, "seeds": 6},  # None: the packaged 5,000/1,000 config
    "tiny": {"jobs": 200, "warmup": 40, "seeds": 2},
}
EVOLVE_TEST_SEEDS = 3
# The GP master seed is fixed; the workload seed picks the instances.  The
# random initial population sets the cost of every evaluation: with the
# master seed derived from the workload seed, run_s varied by 15-38% and
# eval_ms.p90 by 35-60% (quartile spread over five seeds; README.md, "Seeds").
GP_MASTER_SEED = 1

# test-eval-5k scores the reference pair and the two criterion-5 pairs.
TEST_PAIRS = (
    ("WIQ", "PT"),
    ("((WIQ + PT) + TRANT)", "PT"),
    ("((WIQ + PT) + TRANT)", "((PT + PT) + WKR)"),
)


def derive_seeds(seed: int, count: int) -> list[int]:
    """Positive instance seeds derived from the workload seed."""
    state = np.random.SeedSequence([seed, 20251002]).generate_state(count, dtype=np.uint32)
    return [int(s) + 1 for s in state]


@dataclass
class RepResult:
    """What one repetition produced, beyond its wall time."""

    outputs: dict[str, bytes]  # compared byte for byte across repetitions
    test_fitness: float | None  # None for a partial re-run


class Workload:
    """Base of the three workloads; ``prepare`` derives every input from the seed."""

    times_tests = False  # True: each test_performance call is one timed evaluation

    def __init__(self, name: str):
        self.name = name

    def prepare(self, seed: int, scale: str, workdir: str) -> None:
        raise NotImplementedError

    def repetition(self, index: int) -> RepResult:
        raise NotImplementedError

    def rerun(self) -> RepResult:
        """A cheap part of a repetition, run again untimed when only one repetition fit."""
        raise NotImplementedError

    def checked_pairs(self, result: RepResult) -> list[RulePair]:
        """Rule pairs whose compiled form is checked against the interpreter."""
        raise NotImplementedError

    def trace_target(self, result: RepResult) -> tuple[RulePair, object]:
        """(pair, instance) whose recorded schedule must validate."""
        raise NotImplementedError


class EvolveWorkload(Workload):
    """R ``gpshop evolve --jobs 1`` runs, each with its own training instances.

    Run i is ``--run-offset i`` of one fixed master seed, so its initial
    population does not depend on the workload seed.  Every run has its
    own config file: the workload seed draws a training seed per run (one
    per generation when rotating), and three held-out seeds shared by all.
    """

    def __init__(self, name: str, scenario: dict, rotating: bool):
        super().__init__(name)
        self.scenario = scenario
        self.rotating = rotating

    def prepare(self, seed, scale, workdir):
        size = EVOLVE_SIZES[self.name if scale == "full" else scale]
        gens = size["generations"]
        per_run = gens if self.rotating else 1
        self.runs = size["runs"]
        seeds = derive_seeds(seed, EVOLVE_TEST_SEEDS + self.runs * per_run)
        test_seeds = seeds[:EVOLVE_TEST_SEEDS]
        self.workdir = workdir
        self.config_paths = []
        self.scenarios = []
        for i in range(self.runs):
            start = EVOLVE_TEST_SEEDS + i * per_run
            scenario = dict(self.scenario, training_seeds=seeds[start:start + per_run], test_seeds=test_seeds)
            config = {
                "sim": {"total_jobs": size["jobs"], "warmup_jobs": size["warmup"]},
                "gp": {"population_size": size["population"], "generations": gens},
                "scenarios": {"bench": scenario},
                "default_scenario": "bench",
            }
            path = os.path.join(workdir, f"config-{i}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(config, fh, sort_keys=True)
            cfg = load_config(path)
            self.config_paths.append(path)
            self.scenarios.append(cfg.scenario("bench"))
        self.config_path = self.config_paths[0]
        self.sim = cfg.sim
        # Held-out fitness is reported relative to the reference pair's on
        # the same seeds, so instance difficulty cancels out.
        self.reference_test = FitnessEvaluator(self.sim, self.scenarios[0]).test_performance(RulePair.reference())

    def _evolve(self, outdir: str, runs: range) -> dict[str, bytes]:
        outputs = {}
        for i in runs:
            argv = ["evolve", "--config", self.config_paths[i], "--seed", str(GP_MASTER_SEED),
                    "--run-offset", str(i), "--runs", "1", "--jobs", "1", "--out", outdir]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"gpshop evolve exited with {code}")
            with open(os.path.join(outdir, f"run-{i}.jsonl"), "rb") as fh:
                outputs[f"run-{i}.jsonl"] = fh.read()
        shutil.rmtree(outdir)
        return outputs

    def repetition(self, index):
        outputs = self._evolve(os.path.join(self.workdir, f"rep-{index}"), range(self.runs))
        tests = [self._result(data)["test_fitness"] / self.reference_test for data in outputs.values()]
        return RepResult(outputs=outputs, test_fitness=statistics.median(tests))

    def rerun(self):
        return RepResult(outputs=self._evolve(os.path.join(self.workdir, "rerun"), range(1)), test_fitness=None)

    @staticmethod
    def _result(record: bytes) -> dict:
        return json.loads(record.splitlines()[-1])["result"]

    @staticmethod
    def _generation_bests(record: bytes) -> list[tuple[str, str]]:
        rows = [json.loads(line) for line in record.splitlines()]
        return [(r["best_routing"], r["best_sequencing"]) for r in rows if "best_routing" in r]

    def checked_pairs(self, result):
        texts = []
        for data in result.outputs.values():
            res = self._result(data)
            texts += self._generation_bests(data) + [(res["best_routing"], res["best_sequencing"])]
        return [RulePair.from_text(r, s) for r, s in dict.fromkeys(texts)]

    def trace_target(self, result):
        # The best pair of the run with the lowest held-out fitness, on that run's first instance.
        i = min(range(self.runs), key=lambda i: self._result(result.outputs[f"run-{i}.jsonl"])["test_fitness"])
        res = self._result(result.outputs[f"run-{i}.jsonl"])
        pair = RulePair.from_text(res["best_routing"], res["best_sequencing"])
        scenario = self.scenarios[i]
        return pair, FitnessEvaluator(self.sim, scenario).instance(scenario.training_seeds[0])


def _held_out_mean(per_seed: list[float]) -> float:
    """Summed left to right in seed order and divided once, as test_performance does."""
    total = 0.0
    for value in per_seed:
        total += value
    return total / len(per_seed)


class TestEvalWorkload(Workload):
    """Held-out evaluation of fixed pairs on fresh evaluators, seed by seed.

    Each held-out seed gets its own evaluator whose scenario holds only
    that seed, so one ``test_performance`` call is one (pair, seed)
    evaluation and the first pair on each seed pays for the instance and
    the reference simulation, as a cold ``test_performance`` does.  The
    mean over seeds, summed in seed order, is bit-identical to one
    ``test_performance`` call over all of them.
    """

    times_tests = True

    def prepare(self, seed, scale, workdir):
        size = TEST_SIZES[scale]
        cfg = load_config()
        sim = cfg.sim
        if size["jobs"] is not None:
            sim = sim.with_overrides(total_jobs=size["jobs"], warmup_jobs=size["warmup"])
        self.sim = sim
        self.scenario = cfg.scenario("fmean-wtmean-085")
        self.test_seeds = derive_seeds(seed, size["seeds"])
        self.pairs = [RulePair.from_text(r, s) for r, s in TEST_PAIRS]

    def _held_out(self, seeds: list[int]) -> dict[str, bytes]:
        outputs = {}
        for seed in seeds:
            evaluator = FitnessEvaluator(self.sim, replace(self.scenario, test_seeds=(seed,)))
            scores = [evaluator.test_performance(pair) for pair in self.pairs]
            outputs[f"seed-{seed}"] = json.dumps(scores).encode()
        return outputs

    def repetition(self, index):
        outputs = self._held_out(self.test_seeds)
        held_out = [_held_out_mean(scores) for scores in zip(*self._per_seed(outputs))]
        return RepResult(outputs=outputs, test_fitness=statistics.mean(held_out))

    def rerun(self):
        return RepResult(outputs=self._held_out(self.test_seeds[:1]), test_fitness=None)

    def _per_seed(self, outputs) -> list[list[float]]:
        """Scores of every pair, one list per held-out seed in seed order."""
        return [json.loads(outputs[f"seed-{seed}"]) for seed in self.test_seeds]

    def reference_scores(self, result: RepResult) -> tuple[float, list[float]]:
        """The reference pair's held-out score, and its per-seed scores."""
        per_seed = [scores[0] for scores in self._per_seed(result.outputs)]
        return _held_out_mean(per_seed), per_seed

    def checked_pairs(self, result):
        return list(self.pairs)

    def trace_target(self, result):
        held_out = [_held_out_mean(scores) for scores in zip(*self._per_seed(result.outputs))]
        best = min(range(len(self.pairs)), key=held_out.__getitem__)
        evaluator = FitnessEvaluator(self.sim, self.scenario)
        return self.pairs[best], evaluator.instance(self.test_seeds[0])


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        EvolveWorkload("evolve-fixed", {"objectives": ["Fmean"], "lambdas": [1.0], "utilization": 0.85},
                       rotating=False),
        EvolveWorkload("evolve-rotating-095",
                       {"objectives": ["Fmean", "WTmean"], "lambdas": [0.2, 0.8], "utilization": 0.95},
                       rotating=True),
        TestEvalWorkload("test-eval-5k"),
    )
}
