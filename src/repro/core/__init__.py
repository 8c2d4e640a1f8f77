"""Experiment engine: drives workload traces through machine + policy.

- :class:`~repro.core.engine.SimulationEngine` -- the event loop.
- :class:`~repro.core.metrics.ExperimentResult` -- everything the
  paper's tables report (P50 latency, throughput, hit ratio, traffic
  breakdown, per-trial runtimes, %all-local).
- :mod:`~repro.core.runner` -- one-call experiment facade used by the
  examples and every benchmark.
- :mod:`~repro.core.parallel` -- process-pool executor fanning out
  picklable cell specs with bit-identical-to-serial results.
- :mod:`~repro.core.cache` -- content-addressed on-disk result cache
  keyed by a stable hash of the cell spec.
"""

from repro.core.cache import ResultCache, SCHEMA_VERSION, cell_fingerprint
from repro.core.config import ExperimentConfig, ratio_to_cxl_multiple
from repro.core.engine import SimulationEngine
from repro.core.metrics import ExperimentResult, MetricsCollector
from repro.core.parallel import (
    CellSpec,
    FailedCell,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
    executor_from_env,
    register_policy,
    register_workload,
)
from repro.core.runner import (
    build_machine,
    compare_policies,
    run_all_local,
    run_experiment,
)

__all__ = [
    "CellSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "FailedCell",
    "MetricsCollector",
    "ParallelExecutor",
    "PolicySpec",
    "ResultCache",
    "SCHEMA_VERSION",
    "SimulationEngine",
    "WorkloadSpec",
    "build_machine",
    "cell_fingerprint",
    "compare_policies",
    "executor_from_env",
    "ratio_to_cxl_multiple",
    "register_policy",
    "register_workload",
    "run_all_local",
    "run_experiment",
]
