"""Config loading, run-record files, and rule-pair file formats."""
from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from gpshop.errors import ConfigError, DataError
from gpshop.gp import EvolutionLog, GenerationStats, GPParams, SeedRejection
from gpshop.llm.provider import ProviderConfig
from gpshop.records import (
    build_run_meta,
    dump_rule_pairs,
    load_config,
    load_references,
    load_rule_pairs,
    read_run_record,
    run_record_lines,
    write_run_record,
    write_text_atomic,
)
from gpshop.rules import RulePair, rules_to_text
from gpshop.sim.config import Scenario, SimConfig


class TestLoadConfig:
    def test_packaged_defaults(self):
        cfg = load_config()
        assert cfg.sim == SimConfig()
        assert cfg.gp == GPParams()
        assert len(cfg.scenarios) == 8
        assert cfg.default_scenario == "fmean-085"
        assert cfg.scenarios["fmean-wtmean-085"].lambdas == (0.2, 0.8)
        assert cfg.scenarios["tmax-095"].utilization == 0.95
        assert cfg.provider.credential_env == "LLM_API_KEY"
        assert cfg.provider.n_requested == 100
        assert cfg.provider == ProviderConfig()

    def test_scenario_lookup(self):
        cfg = load_config()
        assert cfg.scenario(None).name == "fmean-085"
        assert cfg.scenario("wtmean-085").objectives == ("WTmean",)
        with pytest.raises(ConfigError, match="unknown scenario"):
            cfg.scenario("nope")

    def test_default_seed_plans(self):
        cfg = load_config()
        sc = cfg.scenario(None)
        assert sc.training_seeds == tuple(range(1, 51))
        assert sc.test_seeds == tuple(range(1001, 1051))

    def test_partial_override_merges(self, tmp_path):
        path = tmp_path / "user.yaml"
        path.write_text(
            "sim:\n  total_jobs: 500\n  warmup_jobs: 100\n"
            "scenarios:\n  mine: {objectives: [Tmax], lambdas: [1.0], utilization: 0.9,"
            " training_seeds: [1], test_seeds: [2]}\n"
            "default_scenario: mine\n"
        )
        cfg = load_config(str(path))
        assert cfg.sim.total_jobs == 500
        assert cfg.sim.warmup_jobs == 100
        assert cfg.sim.num_machines == 10  # untouched default
        assert cfg.gp == GPParams()
        assert cfg.default_scenario == "mine"
        assert cfg.scenario(None).training_seeds == (1,)
        assert "fmean-085" in cfg.scenarios  # defaults kept alongside

    def test_rejects_unknown_keys(self, tmp_path):
        cases = [
            ("nonsense: 1\n", "unknown key 'nonsense'"),
            ("sim:\n  machine_count: 3\n", "sim: unknown key"),
            ("gp:\n  elitism: 2\n", "gp: unknown key"),
            ("llm:\n  api_key: secret\n", "llm: unknown key"),
            ("scenarios:\n  x: {objectives: [Tmax], lambdas: [1.0], extra: 1}\n", "scenarios.x"),
        ]
        for text, needle in cases:
            path = tmp_path / "bad.yaml"
            path.write_text(text)
            with pytest.raises(ConfigError, match=needle):
                load_config(str(path))

    def test_rejects_invalid_values(self, tmp_path):
        cases = [
            "sim:\n  utilization: 1.5\n",
            "gp:\n  population_size: 0\n",
            "scenarios:\n  x: {objectives: [Tmax], lambdas: [0.5]}\n",
            "default_scenario: ghost\n",
            "llm:\n  n_requested: 0\n",
        ]
        for text in cases:
            path = tmp_path / "bad.yaml"
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_config(str(path))

    def test_bad_file_and_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.yaml"))
        path = tmp_path / "broken.yaml"
        path.write_text("sim: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))
        scalar = tmp_path / "scalar.yaml"
        scalar.write_text("just a string\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(str(scalar))

    def test_yaml_lists_become_tuples(self, tmp_path):
        path = tmp_path / "user.yaml"
        path.write_text("sim:\n  rate_range: [5.0, 6.0]\n  weight_mix: [[1, 1.0]]\n")
        cfg = load_config(str(path))
        assert cfg.sim.rate_range == (5.0, 6.0)
        assert cfg.sim.weight_mix == ((1, 1.0),)


def sample_log() -> EvolutionLog:
    entries = [
        GenerationStats(0, 10.0, 20.0, 1.0, "WIQ", "PT", {"init": 4}),
        GenerationStats(1, 8.0, 15.0, 0.75, "WIQ", "(PT + WKR)", {"crossover": 3, "mutation": 1}),
    ]
    return EvolutionLog(
        entries=entries,
        gen0_fitness=[10.0, 20.0, 25.0, 25.0],
        seed_rejections=[SeedRejection(index=2, cause="max depth exceeded (9 > 8)")],
    )


def sample_meta(scenario: Scenario) -> dict:
    return build_run_meta(
        method="gp-llm",
        scenario=scenario,
        sim=SimConfig(num_machines=2, total_jobs=10, warmup_jobs=2),
        gp=GPParams(population_size=4, generations=2),
        run_index=3,
        run_seed=12345,
        master_seed=42,
        init_mode="llm",
        seed_pairs=[RulePair.from_text("WIQ", "PT")],
        seed_rejections=sample_log().seed_rejections,
    )


RESULT = {
    "best_routing": "WIQ",
    "best_sequencing": "PT",
    "train_fitness": 8.0,
    "test_fitness": 9.5,
    "test_aborted": 0,
    "evaluations": 12,
}

SCENARIO = Scenario(objectives=("Fmean",), lambdas=(1.0,), training_seeds=(1,), test_seeds=(2,), name="t")


class TestRunRecords:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run-3.jsonl")
        log = sample_log()
        write_run_record(path, sample_meta(SCENARIO), log, RESULT)
        rec = read_run_record(path)
        assert rec.meta["method"] == "gp-llm"
        assert rec.meta["scenario"] == "t"
        assert rec.meta["run_seed"] == 12345
        assert rec.meta["seed_genomes"] == ["routing: WIQ\nsequencing: PT\n"]
        assert rec.meta["seed_rejections"] == [{"index": 2, "cause": "max depth exceeded (9 > 8)"}]
        assert rec.log.gen0_fitness == [10.0, 20.0, 25.0, 25.0]
        assert len(rec.log.entries) == 2
        assert rec.result == RESULT
        assert rec.path == path

    def test_no_wall_clock_or_paths_inside(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        write_run_record(path, sample_meta(SCENARIO), sample_log(), RESULT)
        text = Path(path).read_text()
        assert "wall_time" not in text
        assert str(tmp_path) not in text

    def test_lines_are_sorted_json(self):
        lines = run_record_lines(sample_meta(SCENARIO), sample_log(), RESULT)
        for line in lines:
            parsed = json.loads(line)
            assert json.dumps(parsed, sort_keys=True) == line

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_run_record(a, sample_meta(SCENARIO), sample_log(), RESULT)
        write_run_record(b, sample_meta(SCENARIO), sample_log(), RESULT)
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert not [f for f in os.listdir(tmp_path) if ".tmp" in f]

    def test_record_to_run(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        write_run_record(path, sample_meta(SCENARIO), sample_log(), RESULT)
        run = read_run_record(path).run
        assert (run.method, run.scenario, run.seed, run.fitness) == ("gp-llm", "t", 12345, 9.5)

    def test_log_from_record(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        log = sample_log()
        log.entries[1].aborted = 2
        write_run_record(path, sample_meta(SCENARIO), log, RESULT)
        rebuilt = read_run_record(path).log
        assert rebuilt == log
        assert [e.aborted for e in rebuilt.entries] == [0, 2]
        assert rebuilt.gen0_fitness == log.gen0_fitness
        assert [e.generation for e in rebuilt.entries] == [0, 1]
        assert rebuilt.entries[1].best_fitness == 8.0
        assert rebuilt.entries[1].op_counts == {"crossover": 3, "mutation": 1}
        assert rebuilt.seed_rejections == log.seed_rejections

    def test_read_rejects_defects(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_run_record(str(empty))
        with pytest.raises(DataError, match="cannot read"):
            read_run_record(str(tmp_path / "missing.jsonl"))
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('{"kind": "other"}\n')
        with pytest.raises(DataError, match="not a gpshop-run"):
            read_run_record(str(wrong))
        vers = tmp_path / "vers.jsonl"
        for version in (99, 1):
            vers.write_text(f'{{"kind": "gpshop-run", "version": {version}, "meta": {{}}}}\n{{"result": {{}}}}\n')
            with pytest.raises(DataError, match=f"unsupported record version {version}"):
                read_run_record(str(vers))
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text('{"kind": "gpshop-run", "version": 2, "meta": {}}\nnot json\n')
        with pytest.raises(DataError, match="invalid JSON"):
            read_run_record(str(garbled))
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"kind": "gpshop-run", "version": 2, "meta": {}}\n{"gen0_fitness": []}\n')
        with pytest.raises(DataError, match="no result"):
            read_run_record(str(headless))


class TestRulePairFiles:
    def test_dump_and_load_round_trip(self, tmp_path):
        pairs = [
            RulePair.from_text("(WIQ + PT) + TRANT", "PT"),
            RulePair.from_text("WIQ", "(PT + PT) + WKR"),
        ]
        path = str(tmp_path / "seeds.txt")
        dump_rule_pairs(path, pairs, comments=["accepted: 2", "rejected: 0"])
        text = Path(path).read_text()
        assert text.startswith("# accepted: 2\n# rejected: 0\n")
        loaded = load_rule_pairs(path)
        assert [rules_to_text(p) for p in loaded] == [rules_to_text(p) for p in pairs]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# header\n\nrouting: WIQ\n# inline note\nsequencing: PT\n\n\nrouting: PT\nsequencing: WIQ\n")
        assert len(load_rule_pairs(str(path))) == 2

    def test_load_errors_carry_location(self, tmp_path):
        missing = tmp_path / "m.txt"
        missing.write_text("routing: WIQ\n")
        with pytest.raises(DataError, match=r"m.txt:1.*sequencing"):
            load_rule_pairs(str(missing))
        unknown = tmp_path / "u.txt"
        unknown.write_text("routing: WIQ\nsequencing: PT\ndispatch: SPT\n")
        with pytest.raises(DataError, match=r"u.txt:3"):
            load_rule_pairs(str(unknown))
        dup = tmp_path / "d.txt"
        dup.write_text("routing: WIQ\nrouting: PT\nsequencing: PT\n")
        with pytest.raises(DataError, match="duplicate"):
            load_rule_pairs(str(dup))
        bad = tmp_path / "b.txt"
        bad.write_text("routing: WIQ +\nsequencing: PT\n")
        with pytest.raises(DataError, match=r"b.txt:1"):
            load_rule_pairs(str(bad))
        empty = tmp_path / "e.txt"
        empty.write_text("# nothing here\n")
        with pytest.raises(DataError, match="no rule pairs"):
            load_rule_pairs(str(empty))
        with pytest.raises(DataError, match="cannot read"):
            load_rule_pairs(str(tmp_path / "ghost.txt"))

    def test_load_references(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text(
            "label: transport aware\nnote: strong on Fmean\nrouting: (WIQ + TRANT)\nsequencing: PT\n\n"
            "routing: WIQ\nsequencing: PT\n"
        )
        refs = load_references(str(path))
        assert refs[0].label == "transport aware"
        assert refs[0].fitness_note == "strong on Fmean"
        assert refs[0].routing == "(WIQ + TRANT)"
        assert refs[1].label == ""
        bad = tmp_path / "bad.txt"
        bad.write_text("label: x\nrouting: exp(PT)\nsequencing: PT\n")
        with pytest.raises(DataError, match="bad.txt:1"):
            load_references(str(bad))

    def test_write_text_atomic(self, tmp_path):
        target = str(tmp_path / "out.txt")
        write_text_atomic(target, "hello\n")
        write_text_atomic(target, "world\n")
        assert Path(target).read_text() == "world\n"
        assert os.listdir(tmp_path) == ["out.txt"]
