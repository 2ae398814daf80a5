"""Shared fixtures: the hand-derived golden instance and small configs."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from gpshop.rules import RulePair
from gpshop.sim.config import SimConfig
from gpshop.sim.instance import Instance


def pytest_collection_modifyitems(items):
    """Tests under this directory fail on a leaked file handle.

    Set per item rather than in pyproject.toml, so that other files run
    with pytest from the repository root keep the default filters.
    """
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


def instance_from_jobs(config: SimConfig, seed: int, rates, entry, distances, jobs) -> Instance:
    """An instance from nested jobs: (release, weight, due, ((workload, machines, times, median), ...)).

    The nested form is cut into ``Instance``'s flat job, operation and
    candidate columns, joined by their offsets.
    """
    op_start, cand_start = [0], [0]
    workload, median, machines, proc_times = [], [], [], []
    for *_, ops in jobs:
        for load, members, times, med in ops:
            workload.append(load)
            median.append(med)
            machines += members
            proc_times += times
            cand_start.append(len(machines))
        op_start.append(len(workload))
    return Instance(
        config=config,
        seed=seed,
        machine_rates=tuple(rates),
        entry_distances=tuple(entry),
        machine_distances=tuple(tuple(row) for row in distances),
        release=tuple(release for release, *_ in jobs),
        weight=tuple(weight for _, weight, *_ in jobs),
        due=tuple(due for _, _, due, _ in jobs),
        op_start=tuple(op_start),
        workload=tuple(workload),
        median=tuple(median),
        cand_start=tuple(cand_start),
        machines=tuple(machines),
        proc_times=tuple(proc_times),
    )


def jobs_of(instance: Instance) -> list[tuple]:
    """The nested form of ``instance_from_jobs``, read back from the flat columns."""
    jobs = []
    for j, (release, weight, due) in enumerate(zip(instance.release, instance.weight, instance.due)):
        ops = []
        for o in range(instance.op_start[j], instance.op_start[j + 1]):
            a, b = instance.cand_start[o], instance.cand_start[o + 1]
            ops.append((instance.workload[o], instance.machines[a:b], instance.proc_times[a:b], instance.median[o]))
        jobs.append((release, weight, due, tuple(ops)))
    return jobs


def build_instance(config: SimConfig, rates: tuple[float, ...], jobs: tuple) -> Instance:
    """A 2-machine instance from (release, weight, due, ((workload, machines), ...)) per job.

    Processing times are workload / rate and medians ``np.median``; the
    entry distances are (50, 100) and the machines lie 75 apart.
    """
    nested = []
    for release, weight, due, ops in jobs:
        chain = []
        for workload, machines in ops:
            times = tuple(workload / rates[m] for m in machines)
            chain.append((workload, machines, times, float(np.median(times))))
        nested.append((release, weight, due, chain))
    return instance_from_jobs(config, 0, rates, (50.0, 100.0), ((0.0, 75.0), (75.0, 0.0)), nested)


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
