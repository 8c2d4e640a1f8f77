"""Parameter-sweep helper for the sensitivity studies (Figs. 12-13)."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.core.config import ExperimentConfig
from repro.core.metrics import ExperimentResult
from repro.core.parallel import CellSpec, ParallelExecutor
from repro.core.runner import PolicyFactory, WorkloadFactory

T = TypeVar("T")


def sweep(
    workload_factory: WorkloadFactory,
    policy_factory_for: Callable[[T], PolicyFactory],
    values: Iterable[T],
    config: ExperimentConfig,
    executor: ParallelExecutor | None = None,
) -> dict[T, ExperimentResult]:
    """Run one experiment per parameter value.

    ``policy_factory_for(v)`` returns the policy factory configured
    with parameter value ``v`` (e.g. a CBF size or a sample batch
    size); workload and machine are identical across cells.

    All points are submitted at once to ``executor`` -- fanned across
    its process pool and served from its result cache -- or, without
    one, to an inline ``ParallelExecutor(jobs=1)``.  For ``jobs>1`` the
    factories must be picklable (e.g.
    ``lambda v: PolicySpec("freqtier", cbf_num_counters=v)`` -- the
    *returned* spec is what crosses the process boundary).
    """
    values = list(values)
    specs = [
        CellSpec(
            workload_factory,
            policy_factory_for(value),
            config,
            label=str(value),
        )
        for value in values
    ]
    if executor is None:
        executor = ParallelExecutor(jobs=1)
    return dict(zip(values, executor.run(specs)))
