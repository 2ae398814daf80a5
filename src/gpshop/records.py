"""Config files, run records, and rule-pair file formats.

Everything the CLI persists or reloads lives here: the YAML experiment
config (a user file over the packaged scenarios), JSONL run records
written one per GP run, and the plain-text rule-pair files used for
seeds and reference heuristics.  All writes are atomic (temp file +
rename) and all record content is deterministic: sorted keys, no
timestamps, no filesystem paths.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Any, Mapping, Sequence

import yaml

from .analysis import RunRecord
from .errors import ConfigError, DataError
from .fileio import write_text_atomic
from .gp import EvolutionLog, GenerationStats, GPParams, SeedRejection
from .llm.prompts import ReferenceHeuristic
from .llm.provider import ProviderConfig
from .rules import REFERENCE_KEYS, RULE_KEYS, RulePair, read_rules, rules_to_text
from .sim.config import Scenario, SimConfig, config_from_mapping

__all__ = [
    "AppConfig",
    "load_config",
    "RunRecordFile",
    "write_run_record",
    "read_run_record",
    "load_rule_pairs",
    "dump_rule_pairs",
    "load_references",
    "write_text_atomic",
    "RECORD_KIND",
    "RECORD_VERSION",
]

RECORD_KIND = "gpshop-run"
RECORD_VERSION = 2

_CONFIG_SECTIONS = ("sim", "gp", "scenarios", "default_scenario", "llm")


@dataclass(frozen=True)
class AppConfig:
    """Fully resolved experiment configuration."""

    sim: SimConfig
    gp: GPParams
    scenarios: dict[str, Scenario]
    default_scenario: str
    provider: ProviderConfig

    def scenario(self, name: str | None) -> Scenario:
        key = name or self.default_scenario
        if key not in self.scenarios:
            known = ", ".join(sorted(self.scenarios))
            raise ConfigError(f"unknown scenario {key!r}; configured: {known}")
        return self.scenarios[key]


def _default_config_text() -> str:
    return resources.files("gpshop").joinpath("data/default_config.yaml").read_text(encoding="utf-8")


def load_config(path: str | None = None) -> AppConfig:
    """Load the experiment config: the packaged scenarios plus a user file.

    ``path`` None yields the defaults.  The ``sim``, ``gp`` and ``llm``
    sections set fields of ``SimConfig``, ``GPParams`` and
    ``ProviderConfig``; keys a user file leaves out keep those classes'
    defaults.  The packaged file supplies the scenarios and the default
    scenario; user ``scenarios`` entries replace or join them by name.
    """
    packaged = yaml.safe_load(_default_config_text())
    user = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, Mapping):
            raise ConfigError(f"config {path} must be a mapping at top level")
        for section in user:
            if section not in _CONFIG_SECTIONS:
                raise ConfigError(f"config: unknown key {section!r}")

    provider = config_from_mapping(ProviderConfig, "llm", user.get("llm", {}))
    user_scenarios = user.get("scenarios", {})
    if not isinstance(user_scenarios, Mapping):
        raise ConfigError("scenarios: expected a mapping")
    scenarios = {
        name: config_from_mapping(Scenario, f"scenarios.{name}", spec, name=name)
        for name, spec in {**packaged["scenarios"], **user_scenarios}.items()
    }
    default_name = user.get("default_scenario", packaged["default_scenario"])
    if default_name not in scenarios:
        raise ConfigError(f"default_scenario {default_name!r} is not a configured scenario")

    return AppConfig(
        sim=config_from_mapping(SimConfig, "sim", user.get("sim", {})),
        gp=config_from_mapping(GPParams, "gp", user.get("gp", {})),
        scenarios=scenarios,
        default_scenario=default_name,
        provider=provider,
    )


# ---------------------------------------------------------------------------
# run records

@dataclass
class RunRecordFile:
    """One GP run, as persisted (``meta``, ``result``) and as ``compare`` reads it."""

    meta: dict[str, Any]
    result: dict[str, Any]
    run: RunRecord
    log: EvolutionLog
    best: RulePair
    path: str


def build_run_meta(
    *,
    method: str,
    scenario: Scenario,
    sim: SimConfig,
    gp: GPParams,
    run_index: int,
    run_seed: int,
    master_seed: int,
    init_mode: str,
    seed_pairs: Sequence[RulePair] = (),
    seed_rejections: Sequence[SeedRejection] = (),
) -> dict[str, Any]:
    """Everything needed to re-create the run, minus wall-clock noise.

    ``sim`` is the shop the run simulated: the configured ``SimConfig`` at
    the scenario's utilization, as ``FitnessEvaluator.config`` holds it.
    """
    return {
        "method": method,
        "scenario": scenario.label,
        "scenario_config": asdict(scenario),
        "sim": asdict(sim),
        "gp": asdict(gp),
        "run_index": run_index,
        "run_seed": run_seed,
        "master_seed": master_seed,
        "init_mode": init_mode,
        "seed_genomes": [rules_to_text(p) for p in seed_pairs],
        "seed_rejections": [{"index": r.index, "cause": r.cause} for r in seed_rejections],
    }


def run_record_lines(meta: Mapping[str, Any], log: EvolutionLog, result: Mapping[str, Any]) -> list[str]:
    dump = lambda obj: json.dumps(obj, sort_keys=True)
    lines = [dump({"kind": RECORD_KIND, "version": RECORD_VERSION, "meta": meta})]
    lines.append(dump({"gen0_fitness": list(log.gen0_fitness)}))
    lines.extend(dump(asdict(entry)) for entry in log.entries)
    lines.append(dump({"result": dict(result)}))
    return lines


def write_run_record(path: str, meta: Mapping[str, Any], log: EvolutionLog, result: Mapping[str, Any]) -> None:
    write_text_atomic(path, "\n".join(run_record_lines(meta, log, result)) + "\n")


_FLOAT_MAX = sys.float_info.max


def _is_number(value: Any) -> bool:
    """An int or a float, not a bool, within the double range: no NaN and no infinity."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _number(value: Any, field: str) -> float:
    if not _is_number(value):
        raise TypeError(f"{field} must be a finite number, not {value!r}")
    return float(value)


def _typed(value: Any, kind: type, field: str) -> Any:
    if type(value) is not kind:
        raise TypeError(f"{field} must be of type {kind.__name__}, not {value!r}")
    return value


def read_run_record(path: str) -> RunRecordFile:
    """Read and check a record written by ``write_run_record``; DataError naming ``path`` on any defect.

    Every field the reader uses must be present with its JSON type; no value
    is converted to fit.  ``run_seed``, ``test_aborted``, ``generation``,
    ``aborted`` and each seed rejection's ``index`` are ints; the fitness
    values (``test_fitness``, ``gen0_fitness``, and each generation row's
    ``best_fitness``, ``mean_fitness`` and ``diversity``) are finite ints or
    floats, never booleans, and are read as floats; ``method``,
    ``scenario``, the best rules and each rejection's ``cause`` are
    strings; ``op_counts`` maps operator names to ints.  The DataError
    names the field that breaks a rule.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read run record {path}: {exc}") from exc
    if not raw_lines:
        raise DataError(f"run record {path} is empty")
    rows = []
    for i, raw in enumerate(raw_lines, start=1):
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{i}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise DataError(f"{path}:{i}: line is not a JSON object")
        rows.append(row)
    header = rows[0]
    if header.get("kind") != RECORD_KIND:
        raise DataError(f"{path}: not a {RECORD_KIND} file")
    if header.get("version") != RECORD_VERSION:
        raise DataError(f"{path}: unsupported record version {header.get('version')!r}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"{path}:1: meta is not a JSON object")
    gen0_fitness: list = []
    generations: list[tuple[int, dict[str, Any]]] = []
    result: dict[str, Any] = {}
    for i, row in enumerate(rows[1:], start=2):
        if "gen0_fitness" in row:
            gen0_fitness = row["gen0_fitness"]
            if not (isinstance(gen0_fitness, list) and all(map(_is_number, gen0_fitness))):
                raise DataError(f"{path}:{i}: gen0_fitness is not a list of numbers")
        elif "result" in row:
            result = row["result"]
            if not isinstance(result, dict):
                raise DataError(f"{path}:{i}: result is not a JSON object")
        elif "generation" in row:
            generations.append((i, row))
        else:
            raise DataError(f"{path}: unrecognized record line {row!r}")
    if not result:
        raise DataError(f"{path}: record has no result line (incomplete run?)")

    try:
        run = RunRecord(
            method=_typed(meta["method"], str, "meta.method"),
            scenario=_typed(meta["scenario"], str, "meta.scenario"),
            seed=_typed(meta["run_seed"], int, "meta.run_seed"),
            fitness=_number(result["test_fitness"], "result.test_fitness"),
        )
        _typed(result["test_aborted"], int, "result.test_aborted")
        entries = []
        for i, row in generations:
            op_counts = row["op_counts"]
            if not (isinstance(op_counts, dict) and all(type(n) is int for n in op_counts.values())):
                raise TypeError(f"line {i} op_counts must map operator names to ints, not {op_counts!r}")
            entries.append(GenerationStats(
                generation=_typed(row["generation"], int, f"line {i} generation"),
                best_fitness=_number(row["best_fitness"], f"line {i} best_fitness"),
                mean_fitness=_number(row["mean_fitness"], f"line {i} mean_fitness"),
                diversity=_number(row["diversity"], f"line {i} diversity"),
                best_routing=_typed(row["best_routing"], str, f"line {i} best_routing"),
                best_sequencing=_typed(row["best_sequencing"], str, f"line {i} best_sequencing"),
                op_counts=dict(op_counts),
                aborted=_typed(row["aborted"], int, f"line {i} aborted"),
            ))
        rejections = [
            SeedRejection(
                index=_typed(r["index"], int, "meta.seed_rejections index"),
                cause=_typed(r["cause"], str, "meta.seed_rejections cause"),
            )
            for r in meta["seed_rejections"]
        ]
        log = EvolutionLog(entries=entries, gen0_fitness=[float(x) for x in gen0_fitness], seed_rejections=rejections)
        best = RulePair.from_text(
            _typed(result["best_routing"], str, "result.best_routing"),
            _typed(result["best_sequencing"], str, "result.best_sequencing"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # ExprError is a ValueError
        raise DataError(f"{path}: malformed run record: {exc!r}") from exc
    return RunRecordFile(meta=meta, result=result, run=run, log=log, best=best, path=path)


# ---------------------------------------------------------------------------
# rule-pair files (seeds, references)

def _read_blocks(path: str, keys: tuple[str, ...]) -> list[tuple[RulePair, dict[str, str]]]:
    """``read_rules`` on each blank-line-separated block of non-``#`` lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    blocks = []
    block: list[tuple[int, str]] = []
    for no, line in enumerate(lines + [""], start=1):
        if not line.strip():
            if block:
                blocks.append(read_rules(block, keys, path))
                block = []
        elif not line.strip().startswith("#"):
            block.append((no, line))
    return blocks


def load_rule_pairs(path: str) -> list[RulePair]:
    """Read a seeds file: two-line routing/sequencing blocks."""
    pairs = [pair for pair, _ in _read_blocks(path, RULE_KEYS)]
    if not pairs:
        raise DataError(f"{path}: no rule pairs found")
    return pairs


def load_references(path: str) -> list[ReferenceHeuristic]:
    """Read a references file; blocks may also carry label: and note: lines."""
    refs = [
        ReferenceHeuristic(
            routing=fields["routing"],
            sequencing=fields["sequencing"],
            label=fields.get("label", ""),
            fitness_note=fields.get("note", ""),
        )
        for _, fields in _read_blocks(path, REFERENCE_KEYS)
    ]
    if not refs:
        raise DataError(f"{path}: no reference heuristics found")
    return refs


def dump_rule_pairs(path: str, pairs: Sequence[RulePair], comments: Sequence[str] = ()) -> None:
    """Write a seeds file; ``comments`` become leading # lines."""
    parts = [f"# {c}" for c in comments]
    if parts:
        parts.append("")
    parts.extend(rules_to_text(p) for p in pairs)
    write_text_atomic(path, "\n".join(parts))
