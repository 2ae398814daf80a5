"""CLI behavior: exit codes, file outputs, determinism, mock LLM flow.

All commands run in-process through main(), with the provider transport
monkeypatched to explode -- every test here doubles as proof that the
mock path never touches the network.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import gpshop
from conftest import make_golden_instance
from gpshop.cli import main
from gpshop.gp import EvolutionLog, GenerationStats, GPParams
from gpshop.llm import provider as provider_mod
from gpshop.llm.prompts import build_explain_prompt, build_init_prompt
from gpshop.llm.report import NARRATIVE_UNAVAILABLE
from gpshop.records import (
    build_run_meta,
    load_config,
    load_rule_pairs,
    read_run_record,
    write_run_record,
)
from gpshop.rules import rules_from_text, rules_to_text
from gpshop.sim.config import Scenario, SimConfig
from gpshop.sim.instance import dump_instance, load_instance

TINY_YAML = """\
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

# Same shop, but gen-0 only and population == accepted seed count, so the
# whole generation 0 is exactly the canned genomes.
TINY0_YAML = TINY_YAML.replace("population_size: 6", "population_size: 2").replace(
    "generations: 1", "generations: 0"
)

CANNED_PAIRS = [
    ("(WIQ + PT) + TRANT", "PT"),
    ("WIQ", "(PT + PT) + WKR"),
]

CANNED_REPLY = """Candidates below.

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

INSIGHTS: Keep queues short and prefer near machines.
"""


# One level over the depth cap of 8.
DEEP_RULE = "(" * 8 + "PT" + " + PT)" * 8


def canonical(routing: str, sequencing: str) -> str:
    return rules_to_text(rules_from_text(f"routing: {routing}\nsequencing: {sequencing}"))


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("network transport invoked during a CLI test")

    monkeypatch.setattr(provider_mod, "_http_post", boom)
    monkeypatch.delenv("LLM_API_KEY", raising=False)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: tiny configs, mock dir with canned init reply."""
    root = tmp_path_factory.mktemp("cli")
    (root / "tiny.yaml").write_text(TINY_YAML)
    (root / "tiny0.yaml").write_text(TINY0_YAML)
    mock = root / "mock"
    mock.mkdir()
    cfg = load_config(str(root / "tiny.yaml"))
    scenario = cfg.scenario(None)
    prompt = build_init_prompt(scenario, [], n_requested=3)
    (mock / f"{prompt.digest}.txt").write_text(CANNED_REPLY)
    return root


@pytest.fixture(scope="module")
def runs_random(ws):
    out = ws / "runs-random"
    assert main(["evolve", "--config", str(ws / "tiny.yaml"), "--runs", "2", "--seed", "5", "--out", str(out)]) == 0
    return out


class TestGenInstance:
    def test_jobs_override_and_determinism(self, ws, capsys):
        out = ws / "inst.jsonl"
        assert main(["gen-instance", "--jobs", "80", "--seed", "3", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        first = out.read_bytes()
        inst = load_instance(str(out))
        assert len(inst.release) == 80
        assert inst.config.warmup_jobs == 1000 * 80 // 5000
        assert main(["gen-instance", "--jobs", "80", "--seed", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_out_in_a_missing_directory(self, ws, tmp_path, capsys):
        out = tmp_path / "missing" / "inst.jsonl"
        assert main(["gen-instance", "--jobs", "20", "--seed", "3", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert len(load_instance(str(out)).release) == 20

    def test_bad_values_exit_2(self, ws, capsys):
        assert main(["gen-instance", "--jobs", "0", "--out", str(ws / "x.jsonl")]) == 2
        assert main(["gen-instance", "--utilization", "1.2", "--out", str(ws / "x.jsonl")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_of_range_values_exit_2(self, ws, capsys):
        """Machine rates of 1e-300 put releases and processing times past the instance value bound."""
        config = ws / "slow-machines.yaml"
        config.write_text(TINY_YAML.replace("sim:\n", "sim:\n  rate_range: [1.0e-300, 1.0e-300]\n"))
        out = ws / "slow-machines.jsonl"
        assert main(["gen-instance", "--config", str(config), "--out", str(out)]) == 2
        assert "out-of-range instance" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weighted_objectives_exit_2(self, ws, capsys):
        """Weights of 1e279 times tardiness near 1e277 would make WTmean and WFmean infinite."""
        config = ws / "heavy-jobs.yaml"
        sim = (
            "sim:\n  warmup_jobs: 2\n  rate_range: [1.0e-275, 1.0e-275]\n"
            f"  weight_mix: [[{10**279}, 1.0]]\n  due_date_factor: 1.0\n"
        )
        config.write_text(TINY_YAML.replace("sim:\n", sim).replace("  warmup_jobs: 4\n", ""))
        out = ws / "heavy-jobs.jsonl"
        assert main(["gen-instance", "--config", str(config), "--out", str(out)]) == 2
        assert "weighted objectives could overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_due_dates_exit_2(self, ws, capsys):
        """A due date factor of 1e308 times the total median is past the double range."""
        config = ws / "late-due.yaml"
        config.write_text(TINY_YAML.replace("sim:\n", "sim:\n  due_date_factor: 1.0e+308\n"))
        out = ws / "late-due.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gen-instance", "--config", str(config), "--out", str(out)]) == 2
        assert "due date inf is outside" in capsys.readouterr().err
        assert not out.exists()

    def test_weight_beyond_doubles_exit_2(self, ws, capsys):
        """An integer weight of 10**400 passes the config checks but has no double."""
        config = ws / "huge-weight.yaml"
        config.write_text(TINY_YAML.replace("sim:\n", f"sim:\n  weight_mix: [[{10**400}, 1.0]]\n"))
        out = ws / "huge-weight.jsonl"
        assert main(["gen-instance", "--config", str(config), "--out", str(out)]) == 2
        assert "a weight is too large for a double" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def golden_files(ws):
    inst_path = ws / "golden.jsonl"
    dump_instance(make_golden_instance(), str(inst_path))
    rules_path = ws / "fifo.txt"
    rules_path.write_text("routing: WIQ\nsequencing: (W - W) - OWT\n")
    return inst_path, rules_path


class TestSimulate:
    def test_golden_objectives(self, golden_files, capsys):
        inst_path, rules_path = golden_files
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(inst_path)]) == 0
        out = capsys.readouterr().out
        assert f"Tmax: {42.5!r}" in out
        assert f"Tmean: {27.5!r}" in out
        assert f"Fmean: {205 / 3!r}" in out
        assert f"WTmean: {70.0!r}" in out
        assert f"WFmean: {485 / 3!r}" in out
        assert f"makespan: {85.0!r}" in out

    def test_repeat_identical(self, golden_files, capsys):
        inst_path, rules_path = golden_files
        argv = ["simulate", "--rules", str(rules_path), "--instance", str(inst_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unparseable_rules_exit_4(self, ws, golden_files, capsys):
        inst_path, _ = golden_files
        bad = ws / "bad-rules.txt"
        bad.write_text("routing: WIQ +\nsequencing: PT\n")
        assert main(["simulate", "--rules", str(bad), "--instance", str(inst_path)]) == 4
        err = capsys.readouterr().err
        assert "bad-rules.txt:1" in err and "offset" in err

    @pytest.mark.parametrize(
        "rule",
        ["(" * 2000 + "PT" + ")" * 2000, "min(" * 400 + "PT" + ", PT)" * 400, " + ".join(["PT"] * 3000)],
        ids=["parens", "min-calls", "flat-chain"],
    )
    def test_too_deeply_nested_rules_exit_4(self, ws, golden_files, capsys, rule):
        inst_path, _ = golden_files
        deep = ws / "deep-rules.txt"
        deep.write_text(f"routing: {rule}\nsequencing: PT\n")
        assert main(["simulate", "--rules", str(deep), "--instance", str(inst_path)]) == 4
        assert "deep-rules.txt:1: routing rule: " in capsys.readouterr().err

    def test_multiple_pairs_rejected(self, ws, golden_files):
        inst_path, _ = golden_files
        two = ws / "two.txt"
        two.write_text("routing: WIQ\nsequencing: PT\n\nrouting: PT\nsequencing: WIQ\n")
        assert main(["simulate", "--rules", str(two), "--instance", str(inst_path)]) == 4

    def test_out_of_range_machine_exit_4(self, ws, golden_files, capsys):
        inst_path, rules_path = golden_files
        header, first, *rest = inst_path.read_text().splitlines(keepends=True)
        job = json.loads(first)
        job["ops"][0].update(machines=[0, 7], proc_times=[30.0, 30.0])
        bad = ws / "bad-machine.jsonl"
        bad.write_text(header + json.dumps(job) + "\n" + "".join(rest))
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "bad-machine.jsonl" in err and "range(2)" in err

    def test_truncated_instance_exit_4(self, ws, golden_files, capsys):
        _, rules_path = golden_files
        full = ws / "full-40.jsonl"
        assert main(["gen-instance", "--jobs", "40", "--seed", "3", "--out", str(full)]) == 0
        capsys.readouterr()
        cut = ws / "cut-40.jsonl"
        cut.write_text("".join(full.read_text().splitlines(keepends=True)[:4]))
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(cut)]) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "cut-40.jsonl" in err and "expected 40 jobs, found 3" in err

    def test_missing_instance_exit_4(self, ws, golden_files):
        _, rules_path = golden_files
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(ws / "ghost.jsonl")]) == 4

    def test_infinite_release_exit_4(self, ws, golden_files, capsys):
        inst_path, rules_path = golden_files
        *rest, last = inst_path.read_text().splitlines(keepends=True)
        job = json.loads(last)
        job["release"] = float("inf")
        bad = ws / "inf-release.jsonl"
        bad.write_text("".join(rest) + json.dumps(job) + "\n")
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "inf-release.jsonl" in err and "release inf is outside" in err

    def test_weight_beyond_doubles_exit_4(self, ws, golden_files, capsys):
        inst_path, rules_path = golden_files
        header, first, *rest = inst_path.read_text().splitlines(keepends=True)
        job = json.loads(first)
        job["weight"] = 10**400
        bad = ws / "huge-weight.jsonl"
        bad.write_text(header + json.dumps(job) + "\n" + "".join(rest))
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "huge-weight.jsonl" in err and "a weight is too large for a double" in err

    def test_negative_workload_exit_4(self, ws, golden_files, capsys):
        """Times, median and due date all match the negative workload; only its sign is wrong."""
        inst_path, rules_path = golden_files
        header, first, *rest = inst_path.read_text().splitlines(keepends=True)
        job = json.loads(first)
        job["ops"][0].update(workload=-300.0, proc_times=[-30.0], median=-30.0)
        job["due"] = -45.0
        bad = ws / "negative-workload.jsonl"
        bad.write_text(header + json.dumps(job) + "\n" + "".join(rest))
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(bad)]) == 4
        captured = capsys.readouterr()
        assert "makespan" not in captured.out
        assert "data error" in captured.err and "workload -300.0 is not positive and finite" in captured.err

    def test_invalid_header_config_exit_4(self, ws, golden_files, capsys):
        inst_path, rules_path = golden_files
        header, *jobs = inst_path.read_text().splitlines(keepends=True)
        data = json.loads(header)
        data["config"]["utilization"] = 2.0
        bad = ws / "bad-config.jsonl"
        bad.write_text(json.dumps(data) + "\n" + "".join(jobs))
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "bad-config.jsonl" in err and "utilization must lie in (0, 1)" in err

    def test_overflowing_due_date_factor_exit_4(self, ws, golden_files, capsys):
        _, rules_path = golden_files
        dumped = ws / "dump-20.jsonl"
        assert main(["gen-instance", "--jobs", "20", "--seed", "3", "--out", str(dumped)]) == 0
        capsys.readouterr()
        header, *jobs = dumped.read_text().splitlines(keepends=True)
        data = json.loads(header)
        data["config"]["due_date_factor"] = 1e308
        bad = ws / "huge-factor.jsonl"
        bad.write_text(json.dumps(data) + "\n" + "".join(jobs))
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "huge-factor.jsonl" in err and "due_date_factor 1e+308" in err

    @pytest.mark.parametrize("header", ["[1, 2]", '"x"'])
    def test_header_not_an_object_exit_4(self, ws, golden_files, capsys, header):
        inst_path, rules_path = golden_files
        _, *jobs = inst_path.read_text().splitlines(keepends=True)
        bad = ws / "list-header.jsonl"
        bad.write_text(header + "\n" + "".join(jobs))
        assert main(["simulate", "--rules", str(rules_path), "--instance", str(bad)]) == 4
        assert "is not an instance file" in capsys.readouterr().err

    def test_too_deep_rule_exit_4(self, ws, golden_files, capsys):
        inst_path, _ = golden_files
        deep = ws / "deep-rules.txt"
        deep.write_text(f"routing: {DEEP_RULE}\nsequencing: PT\n")
        assert main(["simulate", "--rules", str(deep), "--instance", str(inst_path)]) == 4
        assert "max depth exceeded (9 > 8)" in capsys.readouterr().err


class TestEvolve:
    def test_outputs_and_seed_derivation(self, ws, runs_random):
        rec0 = read_run_record(str(runs_random / "run-0.jsonl"))
        rec1 = read_run_record(str(runs_random / "run-1.jsonl"))
        assert rec0.meta["run_seed"] != rec1.meta["run_seed"]
        assert rec0.meta["master_seed"] == rec1.meta["master_seed"] == 5
        assert rec0.meta["method"] == "gp-random"
        assert len(rec0.log.gen0_fitness) == 6
        assert len(rec0.log.entries) == 1
        assert rec0.result["evaluations"] > 0
        assert rec0.result["test_aborted"] == 0
        assert "max_depth" not in rec0.meta["gp"]
        assert sorted(p.name for p in runs_random.iterdir()) == [
            "run-0.best.txt", "run-0.jsonl", "run-1.best.txt", "run-1.jsonl",
        ]
        # best.txt reloads as exactly one pair
        assert len(load_rule_pairs(str(runs_random / "run-0.best.txt"))) == 1

    def test_repeat_invocation_byte_identical(self, ws, runs_random):
        out2 = ws / "runs-repeat"
        assert main(["evolve", "--config", str(ws / "tiny.yaml"), "--runs", "2", "--seed", "5", "--out", str(out2)]) == 0
        for name in ("run-0.jsonl", "run-1.jsonl"):
            assert (out2 / name).read_bytes() == (runs_random / name).read_bytes()

    def test_parallel_matches_sequential(self, ws, runs_random):
        out = ws / "runs-par"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--runs", "2", "--seed", "5",
            "--jobs", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        for name in ("run-0.jsonl", "run-1.jsonl"):
            assert (out / name).read_bytes() == (runs_random / name).read_bytes()

    def test_run_offset_recreates_single_run(self, ws, runs_random):
        out = ws / "runs-offset"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--runs", "1", "--seed", "5",
            "--run-offset", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        assert not (out / "run-0.jsonl").exists()
        assert (out / "run-1.jsonl").read_bytes() == (runs_random / "run-1.jsonl").read_bytes()

    def test_meta_sim_is_the_simulated_shop(self, ws, tmp_path):
        """A 0.95-load scenario records the shop it simulated, not the configured 0.85."""
        assert load_config(str(ws / "tiny.yaml")).sim.utilization == 0.85
        out = tmp_path / "runs-095"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--scenario", "tmean-095",
            "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        meta = read_run_record(str(out / "run-0.jsonl")).meta
        assert meta["sim"]["utilization"] == meta["scenario_config"]["utilization"] == 0.95

    def test_no_temp_files_left(self, runs_random):
        assert not [f for f in os.listdir(runs_random) if ".tmp" in f]

    def test_init_file(self, ws):
        seeds = ws / "seeds-manual.txt"
        seeds.write_text("routing: WIQ\nsequencing: PT\n\nrouting: PT\nsequencing: WIQ\n")
        out = ws / "runs-file"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--init", "file",
            "--seeds-file", str(seeds), "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = read_run_record(str(out / "run-0.jsonl"))
        assert rec.meta["method"] == "gp-file"
        assert rec.meta["init_mode"] == "file"
        assert rec.meta["seed_genomes"] == [canonical("WIQ", "PT"), canonical("PT", "WIQ")]

    def test_too_deep_seed_rejected_and_run_continues(self, ws):
        seeds = ws / "seeds-deep.txt"
        seeds.write_text(f"routing: WIQ\nsequencing: PT\n\nrouting: {DEEP_RULE}\nsequencing: PT\n")
        out = ws / "runs-deep"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--init", "file",
            "--seeds-file", str(seeds), "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = read_run_record(str(out / "run-0.jsonl"))
        assert rec.meta["seed_rejections"] == [{"index": 1, "cause": "max depth exceeded (9 > 8)"}]
        assert (out / "run-0.best.txt").exists()

    def test_too_deeply_nested_seed_exit_4(self, ws, capsys):
        """Text past the parser's nesting bound is a malformed file, not a rejected seed."""
        seeds = ws / "seeds-nested.txt"
        seeds.write_text("routing: WIQ\nsequencing: PT\n\nrouting: PT\nsequencing: " + "(" * 2000 + "PT" + ")" * 2000 + "\n")
        out = ws / "runs-nested"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--init", "file",
            "--seeds-file", str(seeds), "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 4
        assert "seeds-nested.txt:4: sequencing rule: " in capsys.readouterr().err
        assert not (out / "run-0.jsonl").exists()

    def test_init_llm_mock(self, ws):
        out = ws / "runs-llm"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--init", "llm",
            "--provider", f"mock:{ws / 'mock'}", "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        rec = read_run_record(str(out / "run-0.jsonl"))
        assert rec.meta["method"] == "gp-llm"
        assert rec.meta["seed_genomes"] == [canonical(*p) for p in CANNED_PAIRS]
        assert rec.meta["seed_rejections"] == []  # rejects never reach the GP
        assert (out / "llm-seeds.txt").exists()
        assert "Keep queues short" in (out / "llm-seeds.txt.insights.txt").read_text()
        audit = (out / "llm-seeds.txt.audit.jsonl").read_text().splitlines()
        assert json.loads(audit[0])["status"] == "ok"

    def test_init_llm_without_usable_pairs_runs_random(self, ws, tmp_path, capsys):
        cfg = load_config(str(ws / "tiny.yaml"))
        scenario = cfg.scenario(None)
        prompt = build_init_prompt(scenario, [], n_requested=3)
        mock = tmp_path / "mock"
        mock.mkdir()
        (mock / f"{prompt.digest}.txt").write_text("```\nrouting: exp(PT)\nsequencing: PT\n```\n")
        out = tmp_path / "runs"
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--init", "llm",
            "--provider", f"mock:{mock}", "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "warning: no usable pairs in the reply" in capsys.readouterr().err
        assert read_run_record(str(out / "run-0.jsonl")).meta["seed_genomes"] == []

    def test_gen0_is_exactly_the_canned_genomes(self, ws):
        out = ws / "runs-llm0"
        argv = [
            "evolve", "--config", str(ws / "tiny0.yaml"), "--init", "llm",
            "--provider", f"mock:{ws / 'mock'}", "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        best = (out / "run-0.best.txt").read_text()
        assert best in {canonical(*p) for p in CANNED_PAIRS}
        rec = read_run_record(str(out / "run-0.jsonl"))
        assert len(rec.log.gen0_fitness) == 2

    def test_missing_canned_reply_exit_3(self, ws, tmp_path, capsys):
        empty_mock = tmp_path / "empty-mock"
        empty_mock.mkdir()
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--init", "llm",
            "--provider", f"mock:{empty_mock}", "--out", str(tmp_path / "runs"),
        ]
        assert main(argv) == 3
        assert "provider error" in capsys.readouterr().err

    def test_live_provider_without_credential_exit_3(self, ws, tmp_path, capsys):
        # The autouse transport bomb proves no network attempt is made.
        argv = [
            "evolve", "--config", str(ws / "tiny.yaml"), "--init", "llm",
            "--out", str(tmp_path / "runs"),
        ]
        assert main(argv) == 3
        assert "LLM_API_KEY" in capsys.readouterr().err

    def test_usage_errors(self, ws, tmp_path, capsys):
        base = ["evolve", "--config", str(ws / "tiny.yaml"), "--out", str(tmp_path / "r")]
        assert main(base + ["--runs", "0"]) == 2
        assert main(base + ["--jobs", "0"]) == 2
        assert main(base + ["--init", "file"]) == 2
        assert main(base + ["--scenario", "ghost"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("training, test, role", [(1, 3, "training"), (3, 1, "held-out")])
    def test_zero_reference_objective_names_its_seed_exit_2(self, tmp_path, capsys, training, test, role):
        """With loose due dates at 0.3 load, WIQ/PT's Tmean is 0.0 on seed 1 (6.4 on seed 3)."""
        config = tmp_path / "zero.yaml"
        config.write_text(
            TINY_YAML.replace("warmup_jobs: 4", "warmup_jobs: 4\n  due_date_factor: 3").replace(
                "tiny: {objectives: [Fmean], lambdas: [1.0], utilization: 0.85, training_seeds: [1], test_seeds: [2]}",
                "tiny: {objectives: [Tmean, Fmean], lambdas: [0.5, 0.5], utilization: 0.3, "
                f"training_seeds: [{training}], test_seeds: [{test}]}}",
            )
        )
        assert main(["evolve", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "r")]) == 2
        assert (
            "config error: scenario tiny, " + role + " seed 1: reference value for Tmean is zero; cannot normalize"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, fragment",
        [("sim: 3\n", "sim: expected a mapping"), ("scenarios: [1]\n", "scenarios: expected a mapping")],
    )
    def test_config_section_not_a_mapping_exit_2(self, tmp_path, capsys, text, fragment):
        config = tmp_path / "bad.yaml"
        config.write_text(text)
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
        assert f"config error: {fragment}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param("gp", "population_size", "true", id="gp-population_size"),
            pytest.param("llm", "n_requested", "true", id="llm-n_requested"),
            pytest.param("gp", "population_size", "6.5", id="gp-population_size-float"),
            pytest.param("gp", "tournament_size", "2.5", id="gp-tournament_size-float"),
            pytest.param("sim", "total_jobs", "60.5", id="sim-total_jobs-float"),
            pytest.param("sim", "num_machines", "3.5", id="sim-num_machines-float"),
        ],
    )
    def test_boolean_for_an_integer_exit_2(self, tmp_path, capsys, section, key, value):
        """Only an ``int`` fills an integer setting: YAML's ``true`` and a float exit 2 alike."""
        config = tmp_path / "bad.yaml"
        config.write_text(f"{section}: {{{key}: {value}}}\n")
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
        shown = "True" if value == "true" else value
        assert f"config error: {section}: {key} must be an integer, got {shown}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_dropped_max_depth_key_exit_2(self, tmp_path, capsys):
        """``gp.max_depth`` is no setting: ``expr.MAX_DEPTH`` (8) is the only depth cap."""
        config = tmp_path / "old.yaml"
        config.write_text("gp: {max_depth: 8}\n")
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
        assert "config error: gp: unknown key 'max_depth'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_mutation_depth_beyond_the_cap_exit_2(self, tmp_path, capsys):
        """The range is checked when the config loads, before any simulation."""
        config = tmp_path / "deep.yaml"
        config.write_text(TINY_YAML.replace("generations: 1", "generations: 3\n  mutation_grow_depth: [3, 12]"))
        assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
        assert "config error: gp: mutation_grow_depth must be a pair of integers" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command, edit, fragment",
        [
            (["evolve", "--seed", "-1"], None, "--seed must be >= 0"),
            (["gen-instance", "--seed", "-3"], None, "--seed must be >= 0"),
            (["evolve"], ("warmup_jobs: 4", "warmup_jobs: 4\n  seed: -3"), "sim: seed must be >= 0"),
            (["evolve"], ("training_seeds: [1]", "training_seeds: [1.5]"),
             "scenarios.tiny: training_seeds must hold non-negative integers, got 1.5"),
            (["evolve"], ("training_seeds: [1]", "training_seeds: [-1]"),
             "scenarios.tiny: training_seeds must hold non-negative integers, got -1"),
            (["evolve"], ("training_seeds: [1]", "training_seeds: ['a']"),
             "scenarios.tiny: training_seeds must hold non-negative integers, got 'a'"),
            (["evolve"], ("test_seeds: [2]", "test_seeds: [true]"),
             "scenarios.tiny: test_seeds must hold non-negative integers, got True"),
        ],
        ids=["evolve-seed", "gen-instance-seed", "sim-seed", "training-float", "training-negative",
             "training-string", "test-boolean"],
    )
    def test_seed_not_a_non_negative_integer_exit_2(self, tmp_path, capsys, command, edit, fragment):
        """Seeds enter through the command line, ``sim.seed`` and the scenarios; each is checked on entry."""
        config = tmp_path / "seeds.yaml"
        config.write_text(TINY_YAML.replace(*edit) if edit else TINY_YAML)
        out = tmp_path / "out"
        assert main(command + ["--config", str(config), "--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("generations, evaluations", [(0, 6), (2, 12)])
    def test_evaluations_are_the_budget(self, tmp_path, capsys, generations, evaluations):
        """The record's ``evaluations`` is population_size x max(generations, 1), here with population 6."""
        config = tmp_path / "budget.yaml"
        config.write_text(TINY_YAML.replace("generations: 1", f"generations: {generations}"))
        out = tmp_path / "runs"
        assert main(["evolve", "--config", str(config), "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        record = read_run_record(str(out / "run-0.jsonl"))
        assert len(record.log.entries) == generations
        assert record.result["evaluations"] == evaluations

    def test_negative_run_offset_exit_2(self, ws, tmp_path, capsys):
        out = tmp_path / "r"
        argv = ["evolve", "--config", str(ws / "tiny.yaml"), "--run-offset", "-2", "--runs", "3", "--out", str(out)]
        assert main(argv) == 2
        assert "--run-offset must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, digests",
        [
            ("fmean-085", {
                "run-0.best.txt": "561b59b294f644842dc6518061340e18143192c69816c046d97e5a5100560049",
                "run-0.jsonl": "377254793ed5d3a5c802e74dd70e9b9a570f7b21c3cf0ac70aa173a33ea56347",
                "run-1.best.txt": "8d5d78db1b96089c88421a5e4ed6fee23ff7a1d8b6a0b5bbebcb2245269ddda7",
                "run-1.jsonl": "70224b097f3fedaabaf6d0c59e7a52afe7f9c03eeb529c59913b5bf65eed76d8",
            }),
            ("fmean-wtmean-085", {
                "run-0.best.txt": "561b59b294f644842dc6518061340e18143192c69816c046d97e5a5100560049",
                "run-0.jsonl": "abd49f5cd9c9c892f86946ca46213c62690a01859fa5966c4ae5b7c6e04f1863",
                "run-1.best.txt": "addfafb541fd2fac4c1f0a522df7c2f580a39f387815d8ec8b40a1d31d3f94fa",
                "run-1.jsonl": "f2c3bdb48cd01339f5f22a0d67da1eb8f30755a89fb5e11a2c2b236f5ecb8b06",
            }),
        ],
    )
    def test_output_digests_are_pinned(self, tmp_path, capsys, scenario, digests):
        """Two runs on the packaged shop at 300 jobs, population 10 x 4 generations.

        Every output file is pinned by sha256, so a change to instance
        generation, simulation, fitness, breeding or record writing that
        alters one byte fails here.
        """
        config = tmp_path / "digest.yaml"
        config.write_text("sim:\n  total_jobs: 300\n  warmup_jobs: 60\ngp:\n  population_size: 10\n  generations: 4\n")
        out = tmp_path / "runs"
        argv = [
            "evolve", "--config", str(config), "--scenario", scenario,
            "--runs", "2", "--seed", "7", "--out", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert found == digests


class TestInitLlm:
    def test_writes_seeds_insights_audit(self, ws, tmp_path, capsys):
        out = tmp_path / "seeds.txt"
        argv = [
            "init-llm", "--config", str(ws / "tiny.yaml"),
            "--provider", f"mock:{ws / 'mock'}", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "accepted 2 of 3" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("# accepted: 2\n# rejected: 1\n")
        assert "unknown symbol 'exp'" in text
        assert [rules_to_text(p) for p in load_rule_pairs(str(out))] == [canonical(*p) for p in CANNED_PAIRS]
        assert (tmp_path / "seeds.txt.insights.txt").read_text() == "Keep queues short and prefer near machines.\n"
        assert (tmp_path / "seeds.txt.audit.jsonl").exists()

    def test_out_in_a_missing_directory(self, ws, tmp_path, capsys):
        out = tmp_path / "missing" / "seeds.txt"
        argv = [
            "init-llm", "--config", str(ws / "tiny.yaml"),
            "--provider", f"mock:{ws / 'mock'}", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "accepted 2 of 3" in capsys.readouterr().out
        assert [rules_to_text(p) for p in load_rule_pairs(str(out))] == [canonical(*p) for p in CANNED_PAIRS]
        assert (out.parent / "seeds.txt.insights.txt").exists()
        audit = (out.parent / "seeds.txt.audit.jsonl").read_text().splitlines()
        assert json.loads(audit[0])["status"] == "ok"

    def test_audit_path_key_exit_2(self, tmp_path, capsys):
        """Each command writes its audit beside its own output, so ``llm.audit_path`` is no setting."""
        config = tmp_path / "audit.yaml"
        config.write_text("llm: {audit_path: x.jsonl}\n")
        out = tmp_path / "seeds.txt"
        assert main(["init-llm", "--config", str(config), "--provider", f"mock:{tmp_path}", "--out", str(out)]) == 2
        assert "config error: llm: unknown key 'audit_path'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_n_changes_the_prompt(self, ws, tmp_path):
        # No canned reply exists for n=7, so the mock lookup must miss.
        argv = [
            "init-llm", "--config", str(ws / "tiny.yaml"), "--n", "7",
            "--provider", f"mock:{ws / 'mock'}", "--out", str(tmp_path / "s.txt"),
        ]
        assert main(argv) == 3

    def test_auth_error_without_credential(self, ws, tmp_path, capsys):
        argv = ["init-llm", "--config", str(ws / "tiny.yaml"), "--out", str(tmp_path / "s.txt")]
        assert main(argv) == 3
        assert "provider error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def best_file(ws):
    path = ws / "best-pair.txt"
    path.write_text("routing: (WIQ + PT) + TRANT\nsequencing: PT\n")
    cfg = load_config(str(ws / "tiny.yaml"))
    pair = load_rule_pairs(str(path))[0]
    prompt = build_explain_prompt(pair, cfg.scenario(None))
    (ws / "mock" / f"{prompt.digest}.txt").write_text("## Decision logic\n\nShort queues win.\n")
    return path


class TestExplain:
    def test_report_with_narrative(self, ws, best_file, tmp_path, capsys):
        out = tmp_path / "report.md"
        argv = [
            "explain", "--config", str(ws / "tiny.yaml"), "--best", str(best_file),
            "--provider", f"mock:{ws / 'mock'}", "--out", str(out),
        ]
        assert main(argv) == 0
        text = out.read_text()
        assert "Short queues win." in text
        assert "## Appendix (machine generated)" in text
        assert "- TRANT: 1" in text
        assert "Held-out test fitness" not in text
        assert "wrote" in capsys.readouterr().out

    def test_audit_beside_the_report(self, ws, best_file, tmp_path):
        out = tmp_path / "report.md"
        argv = [
            "explain", "--config", str(ws / "tiny.yaml"), "--best", str(best_file),
            "--provider", f"mock:{ws / 'mock'}", "--out", str(out),
        ]
        assert main(argv) == 0
        records = [json.loads(line) for line in (tmp_path / "report.md.audit.jsonl").read_text().splitlines()]
        assert [(r["status"], r["kind"]) for r in records] == [("ok", "explain")]

    def test_out_in_a_missing_directory(self, ws, best_file, tmp_path, capsys):
        out = tmp_path / "missing" / "report.md"
        argv = [
            "explain", "--config", str(ws / "tiny.yaml"), "--best", str(best_file),
            "--provider", f"mock:{ws / 'mock'}", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "Short queues win." in out.read_text()
        assert (out.parent / "report.md.audit.jsonl").exists()
        assert "wrote" in capsys.readouterr().out

    def test_evaluate_flag_appends_test_score(self, ws, best_file, tmp_path):
        out = tmp_path / "report.md"
        argv = [
            "explain", "--config", str(ws / "tiny.yaml"), "--best", str(best_file),
            "--provider", f"mock:{ws / 'mock'}", "--evaluate", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "Held-out test fitness: " in out.read_text()

    def test_evaluate_too_deep_rule_exit_4(self, ws, tmp_path, capsys):
        deep = tmp_path / "deep-best.txt"
        deep.write_text(f"routing: PT\nsequencing: {DEEP_RULE}\n")
        out = tmp_path / "report.md"
        argv = [
            "explain", "--config", str(ws / "tiny.yaml"), "--best", str(deep),
            "--provider", f"mock:{ws / 'mock'}", "--evaluate", "--out", str(out),
        ]
        assert main(argv) == 4
        assert "max depth exceeded (9 > 8)" in capsys.readouterr().err
        assert not out.exists()

    def test_two_pairs_exit_4(self, ws, best_file, tmp_path, capsys):
        two = tmp_path / "two-best.txt"
        two.write_text(best_file.read_text() + "\nrouting: WIQ\nsequencing: PT\n")
        out = tmp_path / "report.md"
        argv = [
            "explain", "--config", str(ws / "tiny.yaml"), "--best", str(two),
            "--provider", f"mock:{ws / 'mock'}", "--out", str(out),
        ]
        assert main(argv) == 4
        assert "two-best.txt: expected exactly one rule pair, found 2" in capsys.readouterr().err
        assert not out.exists()

    def test_degraded_report_exit_3(self, ws, best_file, tmp_path, capsys):
        empty_mock = tmp_path / "empty-mock"
        empty_mock.mkdir()
        out = tmp_path / "report.md"
        argv = [
            "explain", "--config", str(ws / "tiny.yaml"), "--best", str(best_file),
            "--provider", f"mock:{empty_mock}", "--out", str(out),
        ]
        assert main(argv) == 3
        assert "narrative unavailable" in capsys.readouterr().err
        text = out.read_text()
        assert NARRATIVE_UNAVAILABLE in text
        assert "## Appendix (machine generated)" in text


SMALL_SIM = SimConfig(num_machines=2, total_jobs=20, warmup_jobs=4)
SMALL_GP = GPParams(population_size=4, generations=2)


_MISSING = object()  # marks a key to delete in TestCompare::test_malformed_value_exit_4


def fake_record(path: str, method: str, scenario_name: str, seed: int, fitness: float):
    scenario = Scenario(
        objectives=("Fmean",), lambdas=(1.0,), training_seeds=(1,), test_seeds=(2,), name=scenario_name
    )
    log = EvolutionLog(
        entries=[
            GenerationStats(0, fitness + 1, fitness + 2, 1.0, "WIQ", "PT", {"init": 4}),
            GenerationStats(1, fitness, fitness + 1, 0.5, "WIQ", "PT", {"crossover": 4}),
        ],
        gen0_fitness=[fitness + 1, fitness + 2],
    )
    meta = build_run_meta(
        method=method, scenario=scenario, sim=SMALL_SIM, gp=SMALL_GP,
        run_index=seed, run_seed=seed, master_seed=0, init_mode="random",
    )
    result = {
        "best_routing": "WIQ", "best_sequencing": "PT",
        "train_fitness": fitness, "test_fitness": fitness, "test_aborted": 0, "evaluations": 8,
    }
    write_run_record(path, meta, log, result)


class TestCompare:
    @pytest.fixture()
    def record_dir(self, tmp_path):
        # 4 seeds per cell: fully separated 4-vs-4 is significant at 0.05.
        for scenario in ("s1", "s2"):
            for seed in range(1, 5):
                fake_record(str(tmp_path / f"base-{scenario}-{seed}.jsonl"), "base", scenario, seed, 100.0 + seed)
                fake_record(str(tmp_path / f"new-{scenario}-{seed}.jsonl"), "new", scenario, seed, 1.0 + seed)
        return tmp_path

    def test_comparison_outputs(self, record_dir, capsys):
        out = record_dir / "cmp"
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "compared 16 runs" in capsys.readouterr().out
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "scenario,base,new"
        assert [l.split(",")[0] for l in lines[1:3]] == ["s1", "s2"]  # one row per scenario
        for row in lines[1:3]:
            assert "↑" in row  # new beats base everywhere
        tally = next(l for l in lines if l.startswith("win|draw|lose"))
        assert tally == "win|draw|lose,0|2|0,2|0|0"
        assert (out / "gen0_fitness.csv").read_text().startswith("method,fitness\n")
        div = (out / "diversity.csv").read_text().splitlines()
        assert div[0] == "generation,base,new"
        assert div[1] == "0,1.0,1.0"
        conv = (out / "convergence.csv").read_text().splitlines()
        assert conv[2].startswith("1,")
        freq = (out / "terminal_frequency.csv").read_text().splitlines()
        assert freq[0] == "terminal,routing,sequencing"
        assert len(freq) == 14
        assert "WIQ,1.0,0.0" in freq

    def test_self_comparison_all_equal(self, record_dir, tmp_path, capsys):
        out = tmp_path / "cmp-self"
        argv = [
            "compare", "--records", str(record_dir / "base-*.jsonl"),
            "--baseline", "base", "--out", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        table = (out / "comparison.csv").read_text()
        assert "↑" not in table and "↓" not in table

    def test_missing_cell_named(self, record_dir, capsys):
        os.remove(record_dir / "new-s2-4.jsonl")
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4
        assert "new/s2=3" in capsys.readouterr().err

    def test_no_matches_exit_4(self, tmp_path):
        argv = ["compare", "--records", str(tmp_path / "nothing-*.jsonl"), "--baseline", "x", "--out", str(tmp_path)]
        assert main(argv) == 4

    def test_malformed_generation_row_exit_4(self, record_dir, capsys):
        path = record_dir / "new-s1-1.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            row.pop("best_fitness", None)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "new-s1-1.jsonl" in err and "best_fitness" in err

    @pytest.mark.parametrize("line, value", [(0, [1]), (2, 7)])
    def test_line_not_an_object_exit_4(self, record_dir, capsys, line, value):
        path = record_dir / "new-s1-1.jsonl"
        rows = path.read_text().splitlines()
        rows[line] = json.dumps(value)
        path.write_text("\n".join(rows) + "\n")
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"new-s1-1.jsonl:{line + 1}: line is not a JSON object" in err

    def test_unrecognized_line_exit_4(self, record_dir, capsys):
        path = record_dir / "new-s1-1.jsonl"
        path.write_text(path.read_text() + '{"x": 1}\n')
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4
        assert "new-s1-1.jsonl: unrecognized record line {'x': 1}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key, value, fragment",
        [
            (0, "meta", [1], "meta is not a JSON object"),
            (-1, "result", 7, "result is not a JSON object"),
            (1, "gen0_fitness", 7, "gen0_fitness is not a list of numbers"),
            (1, "gen0_fitness", [1.0, "2"], "gen0_fitness is not a list of numbers"),
        ],
    )
    def test_field_of_the_wrong_type_exit_4(self, record_dir, capsys, line, key, value, fragment):
        path = record_dir / "new-s1-1.jsonl"
        rows = [json.loads(row) for row in path.read_text().splitlines()]
        rows[line][key] = value
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "data error" in err and f"new-s1-1.jsonl:{line % len(rows) + 1}: {fragment}" in err

    @pytest.mark.parametrize(
        "line, keys, value",
        [
            (-1, ("result", "test_fitness"), "x"),
            (-1, ("result", "test_fitness"), None),
            (1, ("gen0_fitness",), [10**400]),
            (2, ("best_fitness",), 10**400),
            (0, ("meta", "run_seed"), "abc"),
            (-1, ("result", "best_routing"), "exp(PT)"),
            (-1, ("result", "best_routing"), _MISSING),
            (0, ("meta", "method"), 7),
            (-1, ("result", "best_routing"), "(" * 2000 + "PT" + ")" * 2000),
            (2, ("op_counts",), _MISSING),
            (2, ("aborted",), _MISSING),
            (-1, ("result", "test_aborted"), _MISSING),
            (-1, ("result", "test_aborted"), "0"),
            (0, ("meta", "seed_rejections"), _MISSING),
        ],
        ids=[
            "test_fitness-text", "test_fitness-null", "gen0-overflow", "best_fitness-overflow",
            "run_seed-text", "best_routing-unparsable", "best_routing-missing", "method-int",
            "best_routing-too-deep", "op_counts-missing", "aborted-missing", "test_aborted-missing",
            "test_aborted-text", "seed_rejections-missing",
        ],
    )
    def test_malformed_value_exit_4(self, record_dir, capsys, line, keys, value):
        path = record_dir / "new-s1-1.jsonl"
        rows = [json.loads(row) for row in path.read_text().splitlines()]
        *parents, key = keys
        target = rows[line]
        for parent in parents:
            target = target[parent]
        if value is _MISSING:
            del target[key]
        else:
            target[key] = value
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "new-s1-1.jsonl" in err

    @pytest.mark.parametrize(
        "line, key, values, field",
        [
            (-1, "result", {"test_fitness": True}, "result.test_fitness"),
            (-1, "result", {"test_fitness": "7"}, "result.test_fitness"),
            (2, None, {"best_fitness": True, "diversity": "0.5"}, "line 3 best_fitness"),
            (-1, "result", {"test_fitness": float("nan")}, "result.test_fitness"),
            (-1, "result", {"test_fitness": float("inf")}, "result.test_fitness"),
        ],
        ids=["test_fitness-bool", "test_fitness-text", "generation-bool-and-text", "test_fitness-nan", "test_fitness-inf"],
    )
    def test_number_is_typed_and_finite_exit_4(self, record_dir, capsys, line, key, values, field):
        """A number field holds a finite int or float: no bool, string, NaN or infinity is read as one."""
        path = record_dir / "new-s1-1.jsonl"
        rows = [json.loads(row) for row in path.read_text().splitlines()]
        (rows[line][key] if key else rows[line]).update(values)
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "data error" in err and "new-s1-1.jsonl" in err and field in err
        assert not (record_dir / "cmp").exists()

    @pytest.mark.parametrize("alpha", ["2", "-1", "nan", "0", "1"])
    def test_alpha_outside_the_unit_interval_exit_2(self, record_dir, capsys, alpha):
        argv = [
            "compare", "--records", str(record_dir / "*.jsonl"),
            "--baseline", "base", "--alpha", alpha, "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 2
        assert "--alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not (record_dir / "cmp").exists()

    def test_unknown_baseline_exit_4(self, record_dir):
        argv = [
            "compare", "--records", str(record_dir / "base-*.jsonl"),
            "--baseline", "ghost", "--out", str(record_dir / "cmp"),
        ]
        assert main(argv) == 4


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-instance" in capsys.readouterr().out

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["simulate", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


def test_cli_import_leaves_requests_unloaded():
    """A fresh CLI process imports neither requests, urllib.request nor the process pool.

    Only real LLM endpoints use HTTP, and only ``evolve --jobs`` above 1 uses a pool.
    """
    src = os.path.dirname(os.path.dirname(gpshop.__file__))
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); from gpshop import cli; "
        "from gpshop.records import load_config; load_config(); "
        "print('requests' in sys.modules, 'urllib.request' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False False False"
