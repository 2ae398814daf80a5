"""Schedule quality measures over completed jobs."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .config import OBJECTIVE_KEYS, Scenario


@dataclass(frozen=True, slots=True)
class ObjectiveVector:
    """The five standard objectives, all to be minimized."""

    Tmax: float
    Tmean: float
    Fmean: float
    WTmean: float
    WFmean: float

    def get(self, key: str) -> float:
        if key not in OBJECTIVE_KEYS:
            raise KeyError(key)
        return getattr(self, key)


def compute_objectives(release, due, weight, completion, first: int = 0) -> ObjectiveVector:
    """Aggregate tardiness and flowtime statistics over jobs ``first`` onward.

    The four arguments are per-job columns indexed by job position, as
    ``Instance`` and ``SimOutcome.completion`` hold them; ``first`` is the
    first counted job (the warm-up length).  Tardiness of a job is
    max(0, completion - due); flowtime is completion - release.  Means
    are arithmetic over the counted jobs, summed in job order, which
    makes float summation reproducible.
    """
    n = len(completion) - first
    if n < 1:
        raise ValueError("compute_objectives needs at least one completed job")
    tmax = 0.0
    t_sum = 0.0
    f_sum = 0.0
    wt_sum = 0.0
    wf_sum = 0.0
    for r, d, w, c in zip(release[first:], due[first:], weight[first:], completion[first:]):
        tardiness = c - d
        if tardiness < 0.0:
            tardiness = 0.0
        flowtime = c - r
        if tardiness > tmax:
            tmax = tardiness
        t_sum += tardiness
        f_sum += flowtime
        wt_sum += w * tardiness
        wf_sum += w * flowtime
    return ObjectiveVector(
        Tmax=tmax,
        Tmean=t_sum / n,
        Fmean=f_sum / n,
        WTmean=wt_sum / n,
        WFmean=wf_sum / n,
    )


def weighted_fitness(
    objectives: ObjectiveVector,
    scenario: Scenario,
    reference: ObjectiveVector | None = None,
) -> float:
    """Scenario fitness of an objective vector (lower is better).

    Single-objective scenarios use the raw value.  Multi-objective
    scenarios form sum(lambda_j * (f_j / f_j(reference))), normalizing each
    term by the reference heuristic's value on the same instance, so a
    reference vector is mandatory there.  The ratio is taken first, so a
    vector normalized by itself scores exactly sum(lambdas).
    """
    if not scenario.is_multi_objective:
        return objectives.get(scenario.objectives[0])
    if reference is None:
        raise ConfigError("multi-objective fitness needs reference objectives for normalization")
    total = 0.0
    for key, lam in zip(scenario.objectives, scenario.lambdas):
        ref = reference.get(key)
        if ref == 0.0:
            raise ConfigError(f"reference value for {key} is zero; cannot normalize")
        total += lam * (objectives.get(key) / ref)
    return total

