"""Replication statistics (the paper's relative-standard-error reporting).

The paper reports steady-state averages with their maximum relative
standard error (e.g. "the maximum relative standard error is 0.29%"
for Table II).  This module provides the same discipline for the
simulator: run an experiment across several seeds and reduce any
metric to mean / std / RSE.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial

from repro.core.config import ExperimentConfig
from repro.core.metrics import ExperimentResult
from repro.core.parallel import CellSpec, ParallelExecutor
from repro.workloads.spec import Workload


@dataclass(frozen=True)
class ReplicatedMetric:
    """Mean / spread of one metric over N replicated runs."""

    name: str
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0 for a single run."""
        if self.n < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((v - m) ** 2 for v in self.values) / (self.n - 1))

    @property
    def standard_error(self) -> float:
        return self.std / math.sqrt(self.n) if self.n else 0.0

    @property
    def relative_standard_error(self) -> float:
        """The paper's RSE: standard error / mean (0 if mean is 0)."""
        m = self.mean
        return self.standard_error / abs(m) if m else 0.0

    def summary(self) -> str:
        return (
            f"{self.name}: {self.mean:.4g} "
            f"(RSE {self.relative_standard_error:.2%}, n={self.n})"
        )


def run_replicated(
    workload_factory_for_seed: Callable[[int], Workload],
    policy_factory_for_seed: Callable[[int], object],
    config: ExperimentConfig,
    seeds: Sequence[int],
) -> list[ExperimentResult]:
    """Run one cell across several seeds (workload AND policy reseeded).

    The per-seed factories are closures, so the cells run inline on a
    ``ParallelExecutor(jobs=1)``.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    cells = [
        CellSpec(
            partial(workload_factory_for_seed, seed),
            partial(policy_factory_for_seed, seed),
            replace(config, seed=seed),
            label=str(seed),
        )
        for seed in seeds
    ]
    return ParallelExecutor(jobs=1).run(cells)


def replicated_metric(
    results: Sequence[ExperimentResult],
    extractor: Callable[[ExperimentResult], float | None],
    name: str = "metric",
) -> ReplicatedMetric:
    """Reduce one metric over replicated results; None values rejected."""
    values = []
    for res in results:
        value = extractor(res)
        if value is None:
            raise ValueError(f"metric {name!r} missing in a replication")
        values.append(float(value))
    return ReplicatedMetric(name=name, values=tuple(values))


def hit_ratio_rse(results: Sequence[ExperimentResult]) -> ReplicatedMetric:
    return replicated_metric(
        results, lambda r: r.steady_hit_ratio, name="hit_ratio"
    )


def throughput_rse(results: Sequence[ExperimentResult]) -> ReplicatedMetric:
    return replicated_metric(
        results, lambda r: r.steady_throughput_ops_per_s, name="throughput"
    )
