"""The unified execution plane.

One description of *what* to run (:class:`CellPlan`), one protocol for
*how* (:class:`ExecutionBackend`: serial, pool, fabric client, hosted
fleet), and one consumer that exercises the whole surface — the
budgeted Pareto explorer (:func:`explore_frontier`).  Every backend
emits the identical clean-prefix, fsync'd, resume-keyed record stream,
so ``--no-timing`` campaign files are byte-identical whichever backend
computed them.
"""

from .backends import (
    ExecutionBackend,
    ExecutionOutcome,
    FabricBackend,
    FleetServeBackend,
    PoolBackend,
    SerialBackend,
    fill_cells,
    resolve_jobs,
    run_cells,
)
from .explore import (
    DEFAULT_OBJECTIVES,
    OBJECTIVES,
    ExplorePoint,
    ExploreResult,
    Objective,
    dominates,
    explore_frontier,
    pareto_frontier,
    parse_objectives,
)
from .plan import CellPlan, PlanError, comparison_of, enumerate_cells

__all__ = [
    "CellPlan",
    "DEFAULT_OBJECTIVES",
    "ExecutionBackend",
    "ExecutionOutcome",
    "ExplorePoint",
    "ExploreResult",
    "FabricBackend",
    "FleetServeBackend",
    "OBJECTIVES",
    "Objective",
    "PlanError",
    "PoolBackend",
    "SerialBackend",
    "comparison_of",
    "dominates",
    "enumerate_cells",
    "explore_frontier",
    "fill_cells",
    "pareto_frontier",
    "parse_objectives",
    "resolve_jobs",
    "run_cells",
]
