"""Statistical comparison of multi-run experiments.

Everything here is pure over in-memory records.  Fitness is minimized
throughout: a significantly LOWER sample earns the better marker.
"""
from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DataError
from .expr import TERMINAL_ORDER, terminal_histogram
from .gp import EvolutionLog
from .rules import RulePair

__all__ = [
    "BETTER",
    "WORSE",
    "EQUAL",
    "RunRecord",
    "ComparisonCell",
    "ComparisonTable",
    "wilcoxon_rank_sum",
    "exact_rank_sum_p",
    "normal_approx_rank_sum_p",
    "friedman_ranks",
    "summarize",
    "initial_fitness_distribution",
    "terminal_frequency_report",
]

BETTER = "↑"
WORSE = "↓"
EQUAL = "="


# ------------------------------------------------------------------ ranks

def _midranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with ties sharing their average rank."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def _scaled_midranks(values: Sequence[float]) -> list[int]:
    """Midranks doubled, which makes them integers even under ties."""
    return [int(round(2 * r)) for r in _midranks(values)]


def exact_rank_sum_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided exact rank-sum p-value by subset enumeration.

    Counts, over all C(n1+n2, n1) assignments of the pooled midranks to
    the first sample, how often the rank sum deviates from its mean by at
    least the observed amount.  Integer arithmetic throughout (doubled
    ranks, deviations scaled by N), so the result is exact.
    """
    n1, n2 = len(a), len(b)
    pooled = list(a) + list(b)
    r2 = _scaled_midranks(pooled)
    n = n1 + n2
    total_sum = sum(r2)  # equals n*(n+1)
    w_obs = sum(r2[:n1])
    dev_obs = abs(w_obs * n - n1 * total_sum)

    # dp[k][s]: number of k-subsets of the doubled ranks with sum s.
    dp = [[0] * (total_sum + 1) for _ in range(n1 + 1)]
    dp[0][0] = 1
    for r in r2:
        for k in range(n1, 0, -1):
            row, prev = dp[k], dp[k - 1]
            for s in range(total_sum, r - 1, -1):
                if prev[s - r]:
                    row[s] += prev[s - r]
    extreme = sum(
        count
        for s, count in enumerate(dp[n1])
        if count and abs(s * n - n1 * total_sum) >= dev_obs
    )
    return extreme / math.comb(n, n1)


def normal_approx_rank_sum_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided normal approximation with continuity and tie correction."""
    n1, n2 = len(a), len(b)
    n = n1 + n2
    pooled = list(a) + list(b)
    ranks = _midranks(pooled)
    w = sum(ranks[:n1])
    mean = n1 * (n + 1) / 2.0
    ties = Counter(pooled)
    tie_term = sum(t ** 3 - t for t in ties.values())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return 1.0
    z = (abs(w - mean) - 0.5) / math.sqrt(var)
    if z <= 0.0:
        return 1.0
    return math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> tuple[float, str]:
    """Two-sided rank-sum test; returns (p, marker) with a minimized metric.

    Exact enumeration when both samples hold at most 8 values, normal
    approximation beyond that.  Marker: BETTER when ``a`` is significantly
    lower, WORSE when significantly higher, EQUAL otherwise (including the
    all-identical case, where p is 1 by convention).
    """
    if not a or not b:
        raise DataError("wilcoxon_rank_sum needs two nonempty samples")
    pooled = list(a) + list(b)
    if all(v == pooled[0] for v in pooled):
        return 1.0, EQUAL
    if max(len(a), len(b)) <= 8:
        p = exact_rank_sum_p(a, b)
    else:
        p = normal_approx_rank_sum_p(a, b)
    if p >= alpha:
        return p, EQUAL
    n1, n = len(a), len(pooled)
    r2 = _scaled_midranks(pooled)
    # a has lower ranks than expected <=> a's values are lower (better).
    direction = BETTER if sum(r2[:n1]) * n < n1 * sum(r2) else WORSE
    return p, direction


def friedman_ranks(table: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Average rank per method across scenarios (rank 1 = lowest fitness).

    ``table`` maps method -> per-scenario mean fitness, all rows the same
    length; ties within a scenario share midranks.
    """
    methods = list(table)
    if len(methods) < 2:
        raise DataError("friedman_ranks needs at least 2 methods")
    lengths = {m: len(table[m]) for m in methods}
    n_scenarios = lengths[methods[0]]
    if any(length != n_scenarios for length in lengths.values()):
        raise DataError(f"methods cover different scenario counts: {lengths}")
    if n_scenarios < 2:
        raise DataError("friedman_ranks needs at least 2 scenarios")
    for m in methods:
        for j, v in enumerate(table[m]):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                raise DataError(f"missing cell: method {m!r}, scenario index {j}")
    totals = {m: 0.0 for m in methods}
    for j in range(n_scenarios):
        column = [table[m][j] for m in methods]
        for m, rank in zip(methods, _midranks(column)):
            totals[m] += rank
    return {m: totals[m] / n_scenarios for m in methods}


# -------------------------------------------------------------- summaries

@dataclass(frozen=True)
class RunRecord:
    """One run's held-out result; unique per (method, scenario, seed)."""

    method: str
    scenario: str
    seed: int
    fitness: float


@dataclass(frozen=True)
class ComparisonCell:
    """Mean and sample std of one method on one scenario, plus its marker.

    The marker compares against the designated baseline and is empty when
    either sample has fewer than 2 runs.
    """

    mean: float
    std: float
    marker: str


@dataclass
class ComparisonTable:
    baseline: str
    methods: list[str]
    scenarios: list[str]
    cells: dict[tuple[str, str], ComparisonCell]
    tallies: dict[str, tuple[int, int, int]]  # win, draw, lose vs baseline
    avg_ranks: dict[str, float]

    def to_csv(self) -> str:
        lines = ["scenario," + ",".join(self.methods)]
        for sc in self.scenarios:
            row = [sc]
            for m in self.methods:
                cell = self.cells[(m, sc)]
                text = f"{cell.mean:.4f} ({cell.std:.4f})"
                if cell.marker:
                    text += f" {cell.marker}"
                row.append(text)
            lines.append(",".join(row))
        lines.append(
            "win|draw|lose,"
            + ",".join("|".join(str(x) for x in self.tallies[m]) for m in self.methods)
        )
        if self.avg_ranks:
            lines.append(
                "avg_rank," + ",".join(f"{self.avg_ranks[m]:.4f}" for m in self.methods)
            )
        return "\n".join(lines) + "\n"


def summarize(
    records: Sequence[RunRecord], baseline: str, alpha: float = 0.05
) -> ComparisonTable:
    """Comparison table of every method against ``baseline``.

    Requires balanced run counts in every (method, scenario) cell and one
    record per (method, scenario, seed).  Output is independent of record
    order: methods (baseline first) and scenarios are sorted, and samples
    are ordered by seed.
    """
    if not records:
        raise DataError("summarize needs at least one record")
    grouped: dict[tuple[str, str], dict[int, float]] = {}  # (method, scenario) -> {seed: fitness}
    for r in records:
        cell = grouped.setdefault((r.method, r.scenario), {})
        if r.seed in cell:
            raise DataError(f"duplicate record for {(r.method, r.scenario, r.seed)}")
        cell[r.seed] = r.fitness
    methods = sorted({m for m, _ in grouped})
    if baseline not in methods:
        raise DataError(f"baseline {baseline!r} has no records")
    methods.remove(baseline)
    methods.insert(0, baseline)
    scenarios = sorted({sc for _, sc in grouped})

    samples: dict[tuple[str, str], list[float]] = {}
    for m in methods:
        for sc in scenarios:
            runs = grouped.get((m, sc), {})
            samples[(m, sc)] = [runs[seed] for seed in sorted(runs)]
    counts = {key: len(vals) for key, vals in samples.items()}
    expected = counts[(methods[0], scenarios[0])]
    offending = sorted(key for key, cnt in counts.items() if cnt != expected)
    if offending:
        raise DataError(
            f"unbalanced run counts (expected {expected} per cell): "
            + ", ".join(f"{m}/{sc}={counts[(m, sc)]}" for m, sc in offending)
        )

    cells: dict[tuple[str, str], ComparisonCell] = {}
    tallies: dict[str, list[int]] = {m: [0, 0, 0] for m in methods}
    for m in methods:
        for sc in scenarios:
            sample = samples[(m, sc)]
            base_sample = samples[(baseline, sc)]
            mean = statistics.fmean(sample)
            std = statistics.stdev(sample) if len(sample) >= 2 else 0.0
            if len(sample) >= 2 and len(base_sample) >= 2:
                _, marker = wilcoxon_rank_sum(sample, base_sample, alpha)
            else:
                marker = ""
            cells[(m, sc)] = ComparisonCell(mean=mean, std=std, marker=marker)
            slot = 0 if marker == BETTER else (2 if marker == WORSE else 1)
            tallies[m][slot] += 1

    avg_ranks: dict[str, float] = {}
    if len(methods) >= 2 and len(scenarios) >= 2:
        mean_table = {
            m: [cells[(m, sc)].mean for sc in scenarios] for m in methods
        }
        avg_ranks = friedman_ranks(mean_table)
    return ComparisonTable(
        baseline=baseline,
        methods=methods,
        scenarios=scenarios,
        cells=cells,
        tallies={m: tuple(t) for m, t in tallies.items()},
        avg_ranks=avg_ranks,
    )


# ------------------------------------------------------------- figure data

def initial_fitness_distribution(logs: Sequence[EvolutionLog]) -> list[float]:
    """Concatenated generation-0 fitness values across runs (raw sample)."""
    if not logs:
        raise DataError("initial_fitness_distribution needs at least one log")
    out: list[float] = []
    for log in logs:
        out.extend(log.gen0_fitness)
    return out


def terminal_frequency_report(
    pairs: Sequence[RulePair],
) -> dict[str, dict[str, float]]:
    """Mean terminal counts of best rule pairs, split by slot.

    Every terminal appears in the result, with 0.0 when unused.
    """
    if not pairs:
        raise DataError("terminal_frequency_report needs at least one rule pair")
    out: dict[str, dict[str, float]] = {}
    for slot in ("routing", "sequencing"):
        totals = {t: 0 for t in TERMINAL_ORDER}
        for pair in pairs:
            for t, count in terminal_histogram(getattr(pair, slot)).items():
                totals[t] += count
        out[slot] = {t.name: totals[t] / len(pairs) for t in TERMINAL_ORDER}
    return out
