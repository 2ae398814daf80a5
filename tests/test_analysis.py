"""Analysis tests: rank-sum test, Friedman ranks, comparison tables."""
from __future__ import annotations

import itertools
import math
import random

import pytest

from gpshop.analysis import (
    BETTER,
    EQUAL,
    WORSE,
    ComparisonCell,
    RunRecord,
    _midranks,
    exact_rank_sum_p,
    friedman_ranks,
    initial_fitness_distribution,
    normal_approx_rank_sum_p,
    summarize,
    terminal_frequency_report,
    wilcoxon_rank_sum,
)
from gpshop.errors import DataError
from gpshop.gp import EvolutionLog
from gpshop.rules import RulePair


def brute_force_p(a, b) -> float:
    """Oracle: enumerate every assignment of pooled ranks to sample a."""
    pooled = list(a) + list(b)
    n1, n = len(a), len(a) + len(b)
    r2 = [int(round(2 * r)) for r in _midranks(pooled)]
    total_sum = sum(r2)
    w_obs = sum(r2[:n1])
    dev_obs = abs(w_obs * n - n1 * total_sum)
    extreme = 0
    count = 0
    for combo in itertools.combinations(range(n), n1):
        count += 1
        w = sum(r2[i] for i in combo)
        if abs(w * n - n1 * total_sum) >= dev_obs:
            extreme += 1
    return extreme / count


class TestMidranks:
    def test_plain_and_tied(self):
        assert _midranks([3.0, 1.0, 4.0, 1.0, 5.0]) == [3.0, 1.5, 4.0, 1.5, 5.0]
        assert _midranks([7.0]) == [1.0]
        assert _midranks([2.0, 2.0, 2.0]) == [2.0, 2.0, 2.0]


class TestWilcoxon:
    def test_known_exact_example(self):
        p, marker = wilcoxon_rank_sum([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert p == pytest.approx(0.1, abs=1e-12)
        assert marker == EQUAL  # 0.1 is not significant at 0.05

    def test_identical_samples(self):
        p, marker = wilcoxon_rank_sum([4.0, 5.0, 6.0], [4.0, 5.0, 6.0])
        assert p == 1.0 or p == pytest.approx(1.0)
        assert marker == EQUAL

    def test_all_identical_pooled(self):
        p, marker = wilcoxon_rank_sum([2.0] * 5, [2.0] * 7)
        assert p == 1.0
        assert marker == EQUAL

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            wilcoxon_rank_sum([], [1.0])
        with pytest.raises(DataError):
            wilcoxon_rank_sum([1.0], [])

    def test_exact_matches_brute_force_up_to_12(self):
        rng = random.Random(0)
        for n1 in range(1, 12):
            for n2 in range(1, 13 - n1):
                for _ in range(3):
                    # Small integer domain forces plenty of ties.
                    a = [float(rng.randint(0, 3)) for _ in range(n1)]
                    b = [float(rng.randint(0, 3)) for _ in range(n2)]
                    assert exact_rank_sum_p(a, b) == pytest.approx(
                        brute_force_p(a, b), abs=1e-12
                    ), (a, b)

    def test_approx_close_to_exact_at_boundary(self):
        rng = random.Random(1)
        worst = 0.0
        for _ in range(200):
            a = [rng.gauss(0.0, 1.0) for _ in range(8)]
            b = [rng.gauss(0.3, 1.0) for _ in range(8)]
            worst = max(worst, abs(exact_rank_sum_p(a, b) - normal_approx_rank_sum_p(a, b)))
        assert worst <= 0.02

    def test_dispatch_boundary(self):
        rng = random.Random(2)
        a8 = [rng.random() for _ in range(8)]
        b8 = [rng.random() for _ in range(8)]
        assert wilcoxon_rank_sum(a8, b8)[0] == exact_rank_sum_p(a8, b8)
        a9 = [rng.random() for _ in range(9)]
        assert wilcoxon_rank_sum(a9, b8)[0] == normal_approx_rank_sum_p(a9, b8)

    def test_markers_and_antisymmetry(self):
        low = [float(i) for i in range(10)]
        high = [float(i) + 100.0 for i in range(10)]
        p1, m1 = wilcoxon_rank_sum(low, high)
        p2, m2 = wilcoxon_rank_sum(high, low)
        assert m1 == BETTER and m2 == WORSE
        assert p1 == p2
        assert p1 < 0.05
        same = [1.0, 2.0, 3.0, 2.5, 1.5]
        assert wilcoxon_rank_sum(same, same)[1] == EQUAL

    def test_scale_invariance(self):
        rng = random.Random(3)
        a = [rng.random() for _ in range(6)]
        b = [rng.random() for _ in range(7)]
        assert wilcoxon_rank_sum(a, b)[0] == wilcoxon_rank_sum(
            [2.5 * x for x in a], [2.5 * x for x in b]
        )[0]

    def test_significant_exact_branch_direction(self):
        # 4 vs 4 fully separated: p = 2/C(8,4) = 1/35 < 0.05.
        p, marker = wilcoxon_rank_sum([1.0, 2.0, 3.0, 4.0], [10.0, 11.0, 12.0, 13.0])
        assert p == pytest.approx(2 / 70, abs=1e-12)
        assert marker == BETTER


class TestFriedman:
    def test_total_order_gives_analytic_ranks(self):
        # Method i has the i-th lowest fitness in every scenario.
        table = {
            f"m{i}": [float(i + 10 * j) for j in range(4)] for i in range(1, 7)
        }
        ranks = friedman_ranks(table)
        assert ranks == {f"m{i}": float(i) for i in range(1, 7)}

    def test_midrank_ties(self):
        table = {
            "a": [1.0, 1.0],
            "b": [1.0, 2.0],
            "c": [3.0, 3.0],
        }
        ranks = friedman_ranks(table)
        # Scenario 1: a and b tie at 1.5, c gets 3; scenario 2: 1, 2, 3.
        assert ranks["a"] == pytest.approx((1.5 + 1.0) / 2)
        assert ranks["b"] == pytest.approx((1.5 + 2.0) / 2)
        assert ranks["c"] == pytest.approx(3.0)

    def test_rank_sum_invariant(self):
        rng = random.Random(4)
        table = {f"m{i}": [rng.random() for _ in range(5)] for i in range(4)}
        ranks = friedman_ranks(table)
        assert sum(ranks.values()) == pytest.approx(4 * 5 / 2)
        assert all(1.0 <= r <= 4.0 for r in ranks.values())

    def test_errors(self):
        with pytest.raises(DataError):
            friedman_ranks({"only": [1.0, 2.0]})
        with pytest.raises(DataError):
            friedman_ranks({"a": [1.0], "b": [2.0]})
        with pytest.raises(DataError):
            friedman_ranks({"a": [1.0, 2.0], "b": [2.0]})
        with pytest.raises(DataError, match="missing cell"):
            friedman_ranks({"a": [1.0, None], "b": [2.0, 3.0]})


def make_records(data: dict[str, dict[str, list[float]]]) -> list[RunRecord]:
    records = []
    for method, by_scenario in data.items():
        for scenario, values in by_scenario.items():
            for seed, fit in enumerate(values, start=1):
                records.append(
                    RunRecord(method=method, scenario=scenario, seed=seed, fitness=fit)
                )
    return records


class TestSummarize:
    def test_single_method_vs_itself(self):
        records = make_records({"gp": {"s1": [1.0, 2.0, 3.0], "s2": [4.0, 5.0, 6.0]}})
        table = summarize(records, baseline="gp")
        assert table.methods == ["gp"]
        assert all(cell.marker == EQUAL for cell in table.cells.values())
        assert table.tallies["gp"] == (0, 2, 0)
        assert table.avg_ranks == {}

    def test_mean_and_sample_std(self):
        records = make_records({"gp": {"s1": [1.0, 3.0]}})
        table = summarize(records, baseline="gp")
        cell = table.cells[("gp", "s1")]
        assert cell.mean == 2.0
        assert cell.std == pytest.approx(math.sqrt(2.0))

    def test_dominant_method_all_better(self):
        strong = {"s1": [1.0, 2.0, 3.0, 4.0], "s2": [2.0, 3.0, 4.0, 5.0]}
        weak = {"s1": [101.0, 102.0, 103.0, 104.0], "s2": [102.0, 103.0, 104.0, 105.0]}
        table = summarize(
            make_records({"new": strong, "base": weak}), baseline="base"
        )
        assert table.methods == ["base", "new"]
        for sc in table.scenarios:
            assert table.cells[("new", sc)].marker == BETTER
            assert table.cells[("base", sc)].marker == EQUAL
        assert table.tallies["new"] == (2, 0, 0)
        assert table.tallies["base"] == (0, 2, 0)
        assert table.avg_ranks["new"] == 1.0
        assert table.avg_ranks["base"] == 2.0

    def test_unbalanced_counts_listed(self):
        records = make_records({"a": {"s1": [1.0, 2.0], "s2": [1.0]}, "b": {"s1": [1.0, 2.0], "s2": [1.0, 2.0]}})
        with pytest.raises(DataError, match=r"a/s2=1"):
            summarize(records, baseline="a")

    def test_duplicate_record_rejected(self):
        records = [
            RunRecord("a", "s1", 1, 1.0),
            RunRecord("a", "s1", 1, 2.0),
        ]
        with pytest.raises(DataError, match="duplicate"):
            summarize(records, baseline="a")

    def test_missing_baseline(self):
        with pytest.raises(DataError, match="baseline"):
            summarize([RunRecord("a", "s1", 1, 1.0)], baseline="nope")

    def test_permutation_invariance(self):
        records = make_records(
            {"a": {"s1": [3.0, 1.0, 2.0], "s2": [5.0, 6.0, 4.0]},
             "b": {"s1": [9.0, 7.0, 8.0], "s2": [12.0, 10.0, 11.0]}}
        )
        csv_a = summarize(records, baseline="a").to_csv()
        rng = random.Random(5)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert summarize(shuffled, baseline="a").to_csv() == csv_a

    def test_single_run_cells_have_no_marker(self):
        records = make_records({"a": {"s1": [1.0]}, "b": {"s1": [2.0]}})
        table = summarize(records, baseline="a")
        assert table.cells[("b", "s1")].marker == ""
        assert table.tallies["b"] == (0, 1, 0)

    def test_csv_layout(self):
        records = make_records(
            {"base": {"s1": [5.0, 6.0, 7.0], "s2": [5.0, 6.0, 7.0]},
             "new": {"s1": [1.0, 2.0, 3.0], "s2": [50.0, 60.0, 70.0]}}
        )
        csv = summarize(records, baseline="base").to_csv()
        lines = csv.splitlines()
        assert lines[0] == "scenario,base,new"
        assert len(lines) == 5  # header, 2 scenarios, tallies, avg ranks
        assert lines[1].startswith("s1,")
        assert lines[3].startswith("win|draw|lose,")
        assert lines[4].startswith("avg_rank,")
        assert "2.0000 (1.0000)" in lines[1]


class TestFigureData:
    def test_initial_fitness_distribution(self):
        logs = [
            EvolutionLog(gen0_fitness=[1.0, 2.0, 3.0]),
            EvolutionLog(gen0_fitness=[4.0, 5.0]),
        ]
        assert initial_fitness_distribution(logs) == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(DataError):
            initial_fitness_distribution([])

    def test_terminal_frequency_report(self):
        pairs = [
            RulePair.from_text("(WIQ + PT)", "PT"),
            RulePair.from_text("WIQ", "(PT + PT)"),
        ]
        report = terminal_frequency_report(pairs)
        assert report["routing"]["WIQ"] == 1.0
        assert report["routing"]["PT"] == 0.5
        assert report["routing"]["SLACK"] == 0.0
        assert report["sequencing"]["PT"] == 1.5
        # Mean leaf count equals the sum over terminals.
        assert sum(report["routing"].values()) == pytest.approx((2 + 1) / 2)
        assert sum(report["sequencing"].values()) == pytest.approx((1 + 2) / 2)
        with pytest.raises(DataError):
            terminal_frequency_report([])

    def test_comparison_cell_is_plain_data(self):
        cell = ComparisonCell(mean=1.0, std=0.5, marker=BETTER)
        assert cell.marker == WORSE or cell.marker == BETTER
