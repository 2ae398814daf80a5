"""Config files, run records, and rule-pair file formats.

Everything the CLI persists or reloads lives here: the YAML experiment
config (merged over packaged defaults), JSONL run records written one
per GP run, and the plain-text rule-pair files used for seeds and
reference heuristics.  All writes are atomic (temp file + rename) and
all record content is deterministic: sorted keys, no timestamps, no
filesystem paths.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from typing import Any, Iterable, Mapping, Sequence

import yaml

from .analysis import RunRecord
from .errors import ConfigError, DataError
from .fileio import write_text_atomic
from .gp import EvolutionLog, GenerationStats, GPParams, SeedRejection
from .llm.prompts import ReferenceHeuristic
from .llm.provider import ProviderConfig
from .rules import RulePair, rules_from_text, rules_to_text
from .sim.config import Scenario, SimConfig

__all__ = [
    "AppConfig",
    "load_config",
    "RunRecordFile",
    "write_run_record",
    "read_run_record",
    "record_to_run",
    "log_from_record",
    "load_rule_pairs",
    "dump_rule_pairs",
    "load_references",
    "write_text_atomic",
    "RECORD_KIND",
    "RECORD_VERSION",
]

RECORD_KIND = "gpshop-run"
RECORD_VERSION = 1

_CONFIG_SECTIONS = ("sim", "gp", "scenarios", "default_scenario", "llm")


@dataclass(frozen=True)
class AppConfig:
    """Fully resolved experiment configuration."""

    sim: SimConfig
    gp: GPParams
    scenarios: dict[str, Scenario]
    default_scenario: str
    provider: ProviderConfig
    n_requested: int = 100

    def scenario(self, name: str | None) -> Scenario:
        key = name or self.default_scenario
        if key not in self.scenarios:
            known = ", ".join(sorted(self.scenarios))
            raise ConfigError(f"unknown scenario {key!r}; configured: {known}")
        return self.scenarios[key]


def _as_tuples(value):
    """YAML lists become tuples so frozen dataclasses accept them."""
    if isinstance(value, list):
        return tuple(_as_tuples(v) for v in value)
    return value


def _check_keys(section: str, mapping: Mapping[str, Any], allowed: Iterable[str]) -> None:
    allowed = set(allowed)
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{section}: unknown key {key!r}")


def _build_dataclass(cls, section: str, mapping: Mapping[str, Any]):
    _check_keys(section, mapping, (f.name for f in fields(cls)))
    kwargs = {k: _as_tuples(v) for k, v in mapping.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _build_scenario(name: str, mapping: Mapping[str, Any]) -> Scenario:
    section = f"scenarios.{name}"
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{section}: expected a mapping")
    _check_keys(section, mapping, ("objectives", "lambdas", "utilization", "training_seeds", "test_seeds"))
    kwargs = {k: _as_tuples(v) for k, v in mapping.items()}
    try:
        return Scenario(name=name, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _default_config_text() -> str:
    return resources.files("gpshop").joinpath("data/default_config.yaml").read_text(encoding="utf-8")


def load_config(path: str | None = None) -> AppConfig:
    """Load the experiment config, merging a user file over the defaults.

    ``path`` None yields the packaged defaults.  A user file only needs
    the keys it overrides; section contents merge key-by-key except
    ``scenarios``, whose entries replace whole scenarios by name.
    """
    data = yaml.safe_load(_default_config_text())
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
        _check_keys("config", user, _CONFIG_SECTIONS)
        for section, value in user.items():
            if section == "default_scenario":
                data[section] = value
            else:
                if not isinstance(value, Mapping):
                    raise ConfigError(f"{section}: expected a mapping")
                data[section].update(value)

    llm = dict(data["llm"])
    _check_keys("llm", llm, [f.name for f in fields(ProviderConfig)] + ["n_requested"])
    n_requested = llm.pop("n_requested", 100)
    if not isinstance(n_requested, int) or n_requested < 1:
        raise ConfigError(f"llm: n_requested must be a positive integer, got {n_requested!r}")

    scenarios_raw = data["scenarios"]
    if not scenarios_raw:
        raise ConfigError("scenarios: at least one scenario is required")
    scenarios = {name: _build_scenario(name, spec) for name, spec in scenarios_raw.items()}
    default_name = data["default_scenario"]
    if default_name not in scenarios:
        raise ConfigError(f"default_scenario {default_name!r} is not a configured scenario")

    return AppConfig(
        sim=_build_dataclass(SimConfig, "sim", data["sim"]),
        gp=_build_dataclass(GPParams, "gp", data["gp"]),
        scenarios=scenarios,
        default_scenario=default_name,
        provider=_build_dataclass(ProviderConfig, "llm", llm),
        n_requested=n_requested,
    )


# ---------------------------------------------------------------------------
# run records

@dataclass
class RunRecordFile:
    """One GP run, as persisted: header meta, logs, and the final result."""

    meta: dict[str, Any]
    gen0_fitness: list[float] = field(default_factory=list)
    generations: list[dict[str, Any]] = field(default_factory=list)
    result: dict[str, Any] = field(default_factory=dict)
    path: str = ""


def _scenario_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "objectives": list(scenario.objectives),
        "lambdas": list(scenario.lambdas),
        "utilization": scenario.utilization,
        "training_seeds": list(scenario.training_seeds),
        "test_seeds": list(scenario.test_seeds),
        "name": scenario.name,
    }


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
    """Everything needed to re-create the run, minus wall-clock noise."""
    return {
        "method": method,
        "scenario": scenario.label,
        "scenario_config": _scenario_dict(scenario),
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
    for entry in log.entries:
        row = asdict(entry)
        row.pop("wall_time")  # keeps records byte-identical across runs
        lines.append(dump(row))
    lines.append(dump({"result": dict(result)}))
    return lines


def write_run_record(path: str, meta: Mapping[str, Any], log: EvolutionLog, result: Mapping[str, Any]) -> None:
    write_text_atomic(path, "\n".join(run_record_lines(meta, log, result)) + "\n")


def read_run_record(path: str) -> RunRecordFile:
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
    record = RunRecordFile(meta=header.get("meta", {}), path=path)
    for row in rows[1:]:
        if "gen0_fitness" in row:
            record.gen0_fitness = [float(x) for x in row["gen0_fitness"]]
        elif "result" in row:
            record.result = row["result"]
        elif "generation" in row:
            record.generations.append(row)
        else:
            raise DataError(f"{path}: unrecognized record line {row!r}")
    if not record.result:
        raise DataError(f"{path}: record has no result line (incomplete run?)")
    return record


def record_to_run(record: RunRecordFile, metric: str = "test_fitness") -> RunRecord:
    """Project a record file onto the tuple the comparison harness wants."""
    try:
        fitness = float(record.result[metric])
    except KeyError as exc:
        raise DataError(f"{record.path}: result has no {metric!r} entry") from exc
    meta = record.meta
    try:
        return RunRecord(
            method=meta["method"],
            scenario=meta["scenario"],
            seed=int(meta["run_seed"]),
            fitness=fitness,
            log_path=record.path,
        )
    except KeyError as exc:
        raise DataError(f"{record.path}: meta is missing {exc}") from exc


def log_from_record(record: RunRecordFile) -> EvolutionLog:
    """Rebuild an EvolutionLog (wall times zeroed) for the figure helpers; DataError if a row is malformed."""
    try:
        entries = [
            GenerationStats(
                generation=int(row["generation"]),
                best_fitness=float(row["best_fitness"]),
                mean_fitness=float(row["mean_fitness"]),
                diversity=float(row["diversity"]),
                best_routing=row["best_routing"],
                best_sequencing=row["best_sequencing"],
                wall_time=0.0,
                op_counts=dict(row.get("op_counts", {})),
                aborted=int(row.get("aborted", 0)),
            )
            for row in record.generations
        ]
        rejections = [
            SeedRejection(index=int(r["index"]), cause=r["cause"])
            for r in record.meta.get("seed_rejections", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{record.path}: malformed generation or seed-rejection row: {exc!r}") from exc
    return EvolutionLog(entries=entries, gen0_fitness=list(record.gen0_fitness), seed_rejections=rejections)


# ---------------------------------------------------------------------------
# rule-pair files (seeds, references)

_PAIR_KEYS = ("routing", "sequencing")
_REF_KEYS = _PAIR_KEYS + ("label", "note")


def _iter_blocks(path: str) -> list[list[tuple[int, str]]]:
    """Blank-line-separated blocks of non-comment lines, with line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    blocks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            if current:
                blocks.append(current)
                current = []
            continue
        if stripped.startswith("#"):
            continue
        current.append((no, stripped))
    if current:
        blocks.append(current)
    return blocks


def _block_fields(path: str, block: list[tuple[int, str]], allowed: tuple[str, ...]) -> dict[str, str]:
    out: dict[str, str] = {}
    for no, line in block:
        key, sep, value = line.partition(":")
        key = key.strip().lower()
        if not sep or key not in allowed:
            raise DataError(f"{path}:{no}: expected one of {allowed}, got {line!r}")
        if key in out:
            raise DataError(f"{path}:{no}: duplicate {key!r} line in block")
        out[key] = value.strip()
    for required in _PAIR_KEYS:
        if required not in out:
            raise DataError(f"{path}:{block[0][0]}: block is missing a {required!r} line")
    return out


def load_rule_pairs(path: str) -> list[RulePair]:
    """Read a seeds file: two-line routing/sequencing blocks."""
    pairs = []
    blocks = _iter_blocks(path)
    if not blocks:
        raise DataError(f"{path}: no rule pairs found")
    for block in blocks:
        spec = _block_fields(path, block, _PAIR_KEYS)
        try:
            pairs.append(rules_from_text(f"routing: {spec['routing']}\nsequencing: {spec['sequencing']}"))
        except DataError as exc:
            raise DataError(f"{path}:{block[0][0]}: {exc}") from exc
    return pairs


def load_references(path: str) -> list[ReferenceHeuristic]:
    """Read a references file; blocks may also carry label: and note: lines."""
    refs = []
    blocks = _iter_blocks(path)
    if not blocks:
        raise DataError(f"{path}: no reference heuristics found")
    for block in blocks:
        spec = _block_fields(path, block, _REF_KEYS)
        try:
            refs.append(
                ReferenceHeuristic(
                    routing=spec["routing"],
                    sequencing=spec["sequencing"],
                    label=spec.get("label", ""),
                    fitness_note=spec.get("note", ""),
                )
            )
        except Exception as exc:  # parse errors from the grammar
            raise DataError(f"{path}:{block[0][0]}: {exc}") from exc
    return refs


def dump_rule_pairs(path: str, pairs: Sequence[RulePair], comments: Sequence[str] = ()) -> None:
    """Write a seeds file; ``comments`` become leading # lines."""
    parts = [f"# {c}" for c in comments]
    if parts:
        parts.append("")
    parts.extend(rules_to_text(p) for p in pairs)
    write_text_atomic(path, "\n".join(parts))
