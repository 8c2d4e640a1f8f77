"""Parameter-sweep helper for the sensitivity studies (Figs. 12-13)."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TypeVar

from repro.core.config import ExperimentConfig
from repro.core.metrics import ExperimentResult
from repro.core.parallel import CellSpec, ParallelExecutor, executor_from_env
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
    one, to :func:`~repro.core.parallel.executor_from_env`'s (inline
    and uncached when ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` are unset).
    Only :class:`~repro.core.parallel.WorkloadSpec` /
    :class:`~repro.core.parallel.PolicySpec` cells are cached and
    cross processes, so closure factories need ``jobs=1``; e.g.
    ``lambda v: PolicySpec("freqtier", cbf_num_counters=v)`` works on
    any executor (the *returned* spec is what crosses the process
    boundary).
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
    return dict(zip(values, (executor or executor_from_env()).run(specs)))
