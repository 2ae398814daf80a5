"""Shop configuration and experiment scenarios."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from ..errors import ConfigError

OBJECTIVE_KEYS = ("Tmax", "Tmean", "Fmean", "WTmean", "WFmean")


def _as_tuples(value):
    """YAML and JSON lists become tuples so frozen dataclasses accept them."""
    if isinstance(value, list):
        return tuple(_as_tuples(v) for v in value)
    return value


def config_from_mapping(cls, section: str, mapping: Any, **fixed):
    """Build the frozen config dataclass ``cls`` from a YAML or JSON mapping.

    ``fixed`` fields are set by the caller and may not appear in the
    mapping.  Raises ConfigError, prefixed with ``section``, if the value is
    not a mapping, has a key that is not a field, gives a boolean to a
    field annotated ``int`` (``bool`` is an ``int`` subclass, so ``cls``
    would take YAML's ``true`` as 1), or is rejected by ``cls``.
    """
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{section}: expected a mapping")
    known = {f.name for f in fields(cls)} - fixed.keys()
    ints = {f.name for f in fields(cls) if f.type in ("int", int)}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"{section}: unknown key {key!r}")
        if key in ints and isinstance(value, bool):
            raise ConfigError(f"{section}: {key} must be an integer, got {value!r}")
    try:
        return cls(**{k: _as_tuples(v) for k, v in mapping.items()}, **fixed)
    except (ConfigError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the simulated shop.

    Defaults reproduce the standard experimental setup: 10 machines,
    5,000 Poisson arrivals with a 1,000-job warm-up, 2-10 operations per
    job, workloads U{100..1000} split across machines with rates U[10,15],
    transport distances U{35..500} at speed 5, weights 1/2/4 with
    probabilities 0.2/0.6/0.2, due dates at 1.5x total median work.
    """

    num_machines: int = 10
    total_jobs: int = 5000
    warmup_jobs: int = 1000
    utilization: float = 0.85
    rate_range: tuple[float, float] = (10.0, 15.0)
    workload_range: tuple[int, int] = (100, 1000)
    ops_per_job_range: tuple[int, int] = (2, 10)
    distance_range: tuple[int, int] = (35, 500)
    transport_speed: float = 5.0
    weight_mix: tuple[tuple[int, float], ...] = ((1, 0.2), (2, 0.6), (4, 0.2))
    due_date_factor: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.num_machines < 1:
            raise ConfigError("num_machines must be >= 1")
        if self.total_jobs < 1:
            raise ConfigError("total_jobs must be >= 1")
        if not (0 <= self.warmup_jobs < self.total_jobs):
            raise ConfigError("warmup_jobs must satisfy 0 <= warmup < total_jobs")
        if not (0.0 < self.utilization < 1.0):
            raise ConfigError(f"utilization must lie in (0, 1), got {self.utilization}")
        # Written as "lo < x < inf" so that NaN fails every test.
        for name in ("rate_range", "workload_range", "ops_per_job_range", "distance_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi < math.inf):
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi < inf, got {(lo, hi)}")
        # Instance generation draws these as integers, and the weight
        # becomes an int; a fractional value would be silently truncated.
        for name in ("workload_range", "ops_per_job_range", "distance_range"):
            if any(x != int(x) for x in getattr(self, name)):
                raise ConfigError(f"{name} bounds must be integers, got {getattr(self, name)}")
        if not (0 < self.transport_speed < math.inf):
            raise ConfigError("transport_speed must be positive and finite")
        if not (0 < self.due_date_factor < math.inf):
            raise ConfigError("due_date_factor must be positive and finite")
        if not all(0 < w < math.inf and 0 <= p < math.inf for w, p in self.weight_mix):
            raise ConfigError("weights must be positive and probabilities non-negative, all finite")
        if any(w != int(w) for w, _ in self.weight_mix):
            raise ConfigError(f"weights must be integers, got {[w for w, _ in self.weight_mix]}")
        total = sum(p for _, p in self.weight_mix)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"weight probabilities must sum to 1, got {total}")

    def with_overrides(self, **kwargs) -> "SimConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Scenario:
    """An optimization scenario: objective mix, shop load and seed plan.

    ``objectives`` holds one or two keys from OBJECTIVE_KEYS; ``lambdas``
    are the matching weights and must sum to 1.  Training seeds are
    rotated one per generation; test seeds give the held-out estimate.
    """

    objectives: tuple[str, ...]
    lambdas: tuple[float, ...]
    utilization: float = 0.85
    training_seeds: tuple[int, ...] = tuple(range(1, 51))
    test_seeds: tuple[int, ...] = tuple(range(1001, 1051))
    name: str = ""

    def __post_init__(self):
        if not (1 <= len(self.objectives) <= 2):
            raise ConfigError("a scenario needs one or two objectives")
        if len(set(self.objectives)) != len(self.objectives):
            raise ConfigError("objective keys must be distinct")
        for key in self.objectives:
            if key not in OBJECTIVE_KEYS:
                raise ConfigError(f"unknown objective {key!r}; expected one of {OBJECTIVE_KEYS}")
        if len(self.lambdas) != len(self.objectives):
            raise ConfigError("lambdas must match objectives one-to-one")
        if any(not (0.0 <= lam <= 1.0) for lam in self.lambdas):
            raise ConfigError("lambda weights must lie in [0, 1]")
        if abs(sum(self.lambdas) - 1.0) > 1e-9:
            raise ConfigError(f"lambda weights must sum to 1, got {sum(self.lambdas)}")
        if not (0.0 < self.utilization < 1.0):
            raise ConfigError("scenario utilization must lie in (0, 1)")
        if not self.training_seeds or not self.test_seeds:
            raise ConfigError("training and test seed lists must be non-empty")

    @property
    def is_multi_objective(self) -> bool:
        return len(self.objectives) > 1

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        mix = "-".join(self.objectives)
        return f"<{mix}, {self.utilization:g}>"
