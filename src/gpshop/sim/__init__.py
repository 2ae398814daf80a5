"""Dynamic flexible job shop: instance generation and discrete-event simulation."""
from __future__ import annotations

from .config import OBJECTIVE_KEYS, Scenario, SimConfig  # noqa: F401
from .engine import (  # noqa: F401
    QueueOverflow,
    SimOutcome,
    SimulationStalled,
    run_simulation,
    validate_trace,
)
from .instance import (  # noqa: F401
    Instance,
    arrival_rate_for_utilization,
    dump_instance,
    generate_instance,
    load_instance,
)
from .objectives import ObjectiveVector, compute_objectives, weighted_fitness  # noqa: F401
