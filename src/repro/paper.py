"""The paper's evaluation cells at simulator scale.

The paper evaluates each workload family at three local:CXL capacity
ratios (1:32, 1:16 and 1:8), each with the family's own %local column,
over one line-up of tiering systems.  This module is the one place
those cells are written (DESIGN.md "Scaling convention"):

- :func:`workloads` -- the bench-scale preset of each CLI workload;
  variants derive from it with ``WorkloadSpec.with_params(...)``;
- :data:`LOCAL_FRACTIONS`, :func:`ratios` and :func:`config` -- the
  %local per family and ratio, and one cell's ``ExperimentConfig``;
- :data:`LINEUP` and :func:`policies` -- the paper's line-up;
- :func:`grid` and :func:`run_grid` -- a table's ratio x (AllLocal +
  line-up) cells and their results.

``import repro`` does not import this module; its callers do.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import ExperimentConfig
from repro.core.metrics import ExperimentResult
from repro.core.parallel import (
    CellSpec,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
    executor_from_env,
)
from repro.memsim.tier import CXL1_CONFIG, TieredMemoryConfig

#: The paper's %local column per workload family, keyed by capacity
#: ratio (smallest local DRAM first).
LOCAL_FRACTIONS: dict[str, dict[str, float]] = {
    "cachelib": {"1:32": 0.06, "1:16": 0.12, "1:8": 0.24},
    "gap": {"1:32": 0.05, "1:16": 0.10, "1:8": 0.19},
    "xgboost": {"1:32": 0.065, "1:16": 0.13, "1:8": 0.26},
}

#: The paper's line-up in table order: display name -> registry name.
LINEUP: dict[str, str] = {
    "FreqTier": "freqtier",
    "AutoNUMA": "autonuma",
    "TPP": "tpp",
    "HeMem": "hemem",
}


def workloads(seed: int) -> dict[str, WorkloadSpec]:
    """The bench-scale preset of each workload, keyed by CLI name.

    CacheLib: a 16,384-page slab (64 sim-GB of items, the paper's
    256 GB at a further 4x reduction) with 10,000 ops per batch.  GAP:
    a scale-18 Kronecker graph, 6 kernel trials (4 for PageRank).
    XGBoost: 80 boosting rounds.  Zipf: 16,384 pages at alpha 1.2.
    """
    specs = {
        name: WorkloadSpec(
            name, slab_pages=16_384, ops_per_batch=10_000, seed=seed
        )
        for name in ("cdn", "social")
    }
    for kernel in ("bfs", "cc", "bc", "pr"):
        specs[f"gap-{kernel}"] = WorkloadSpec(
            "gap",
            kernel=kernel,
            scale=18,
            num_trials=4 if kernel == "pr" else 6,
            seed=seed,
        )
    specs["xgboost"] = WorkloadSpec("xgboost", num_rounds=80, seed=seed)
    specs["zipf"] = WorkloadSpec("zipf", num_pages=16_384, alpha=1.2, seed=seed)
    return specs


def ratios(family: str) -> list[tuple[str, float]]:
    """``[(ratio_label, local_fraction), ...]`` of one workload family."""
    return list(LOCAL_FRACTIONS[family].items())


def config(family: str, ratio: str = "1:32", **fields: Any) -> ExperimentConfig:
    """The ``ExperimentConfig`` of one (family, ratio) cell.

    ``fields`` sets the remaining config fields (``max_batches``,
    ``seed``, ``memory`` ...).
    """
    return ExperimentConfig(
        local_fraction=LOCAL_FRACTIONS[family][ratio],
        ratio_label=ratio,
        **fields,
    )


def policies(seed: int) -> dict[str, PolicySpec]:
    """The paper's line-up as picklable, cache-addressable specs."""
    return {name: PolicySpec(reg, seed=seed) for name, reg in LINEUP.items()}


def grid(
    workload: WorkloadSpec,
    ratio_fractions: list[tuple[str, float]],
    memory: TieredMemoryConfig = CXL1_CONFIG,
    max_batches: int | None = 400,
    seed: int = 1,
) -> list[CellSpec]:
    """Per ratio: the AllLocal cell, then one cell per line-up policy.

    Each cell's label is its system's display name, and its config's
    ``ratio_label`` is the ratio.
    """
    cells: list[CellSpec] = []
    for label, frac in ratio_fractions:
        cell_config = ExperimentConfig(
            local_fraction=frac,
            ratio_label=label,
            memory=memory,
            max_batches=max_batches,
            seed=seed,
        )
        cells.append(CellSpec(workload, None, cell_config, label="AllLocal"))
        cells.extend(
            CellSpec(workload, policy, cell_config, label=name)
            for name, policy in policies(seed).items()
        )
    return cells


def run_grid(
    workload: WorkloadSpec,
    ratio_fractions: list[tuple[str, float]],
    memory: TieredMemoryConfig = CXL1_CONFIG,
    max_batches: int | None = 400,
    seed: int = 1,
    executor: ParallelExecutor | None = None,
) -> dict[str, dict[str, ExperimentResult]]:
    """Run :func:`grid`'s cells as one batch on ``executor``.

    Returns ``{ratio_label: {system: result}}`` (incl. ``AllLocal``).
    The default executor honours ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``
    (serial and uncached when unset), so the whole grid parallelises
    and caches without touching its callers.
    """
    cells = grid(workload, ratio_fractions, memory, max_batches, seed)
    results = (executor or executor_from_env()).run(cells)
    table: dict[str, dict[str, ExperimentResult]] = {}
    for cell, result in zip(cells, results):
        table.setdefault(cell.config.ratio_label, {})[cell.label] = result
    return table
