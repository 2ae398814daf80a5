"""Shared fixtures: the hand-derived golden instance and small configs."""
from __future__ import annotations

import numpy as np
import pytest

from gpshop.rules import RulePair
from gpshop.sim.config import SimConfig
from gpshop.sim.instance import Instance


def build_instance(config: SimConfig, rates: tuple[float, ...], jobs: tuple) -> Instance:
    """A 2-machine instance from (release, weight, due, ((workload, machines), ...)) per job.

    Processing times are workload / rate and medians ``np.median``; the
    entry distances are (50, 100) and the machines lie 75 apart.
    """
    times = [[tuple(workload / rates[m] for m in machines) for workload, machines in ops] for *_, ops in jobs]
    return Instance(
        config=config,
        seed=0,
        machine_rates=rates,
        entry_distances=(50.0, 100.0),
        machine_distances=((0.0, 75.0), (75.0, 0.0)),
        release=tuple(release for release, *_ in jobs),
        weight=tuple(weight for _, weight, *_ in jobs),
        due=tuple(due for _, _, due, _ in jobs),
        workload=tuple(tuple(workload for workload, _ in ops) for *_, ops in jobs),
        machines=tuple(tuple(machines for _, machines in ops) for *_, ops in jobs),
        proc_times=tuple(tuple(job_times) for job_times in times),
        median=tuple(tuple(float(np.median(pts)) for pts in job_times) for job_times in times),
    )


def make_golden_instance() -> Instance:
    """The 3-job, 2-machine oracle instance.

    See tests/data/golden_schedule.md for the full by-hand schedule this
    instance was built around.  All routing decisions are forced (single
    eligible machine) so the schedule depends only on the sequencing rule.
    """
    config = SimConfig(
        num_machines=2,
        total_jobs=3,
        warmup_jobs=0,
        utilization=0.5,
        rate_range=(10.0, 10.0),
        workload_range=(100, 300),
        ops_per_job_range=(1, 2),
        distance_range=(50, 100),
    )
    jobs = (
        (0.0, 2, 45.0, ((300.0, (0,)),)),
        (0.0, 1, 45.0, ((200.0, (0,)), (100.0, (1,)))),
        (5.0, 4, 42.5, ((100.0, (0,)), (150.0, (0,)))),
    )
    return build_instance(config, (10.0, 10.0), jobs)


@pytest.fixture
def golden_instance() -> Instance:
    return make_golden_instance()


FIFO_RULES = RulePair.from_text("WIQ", "(W - W) - OWT")
SPT_RULES = RulePair.from_text("WIQ", "PT")
