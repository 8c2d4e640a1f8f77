"""Gradient-boosted-tree training access pattern (paper Table V).

The paper trains XGBoost on part of the Criteo click-logs dataset
(248 GB footprint, 400 boosting rounds).  The memory behaviour of
histogram-method GBT training decomposes into:

- a small, intrinsically **hot working set**: gradient/hessian arrays,
  per-node histogram buffers and the row->node partition index, touched
  once or more per row per level;
- **feature-column scans** over the quantized design matrix, whose
  popularity is skewed: Criteo's categorical features follow power
  laws, so frequently-split (informative, frequent) features are
  re-scanned far more often than rare ones, and deeper tree levels
  re-visit row blocks unevenly.

:class:`XGBoostWorkload` reproduces that structure synthetically (see
DESIGN.md substitution table): Zipf-popular column selection per split
x Zipf-popular row-block selection per level, plus the hot state
region.  Each boosting round is a fixed number of batches, so
"average runtime per boosting round" falls out of the engine timeline.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.workloads.spec import Workload
from repro.workloads.zipfian import ZipfianSampler

#: Modeled compute per emitted access, ns (bin accumulate + compare).
CPU_NS_PER_ACCESS = 3.0


class XGBoostWorkload(Workload):
    """Histogram-method GBT training trace generator.

    Parameters
    ----------
    num_features:
        Feature columns of the quantized matrix.
    column_pages:
        Pages per feature column (rows x 1 byte / page size, pre-baked).
    hot_state_pages:
        Pages of gradients + histograms + partition index.
    num_rounds:
        Boosting rounds to emit.
    tree_depth:
        Levels per tree; each level scans columns for every split.
    column_alpha / rowblock_alpha:
        Zipf skew of column re-scan popularity and row-block revisits.
    """

    name = "xgboost"
    #: The RNGs plus the stream position: boosting round and tree level.
    _state_fields = (
        "_rng", "_column_sampler", "_rowblock_sampler", "_round", "_level",
    )

    def __init__(
        self,
        num_features: int = 256,
        column_pages: int = 64,
        hot_state_pages: int = 768,
        num_rounds: int = 20,
        tree_depth: int = 6,
        columns_per_level: int = 24,
        column_alpha: float = 1.8,
        rowblock_alpha: float = 1.0,
        hot_accesses_fraction: float = 0.40,
        lines_per_page: int = 16,
        bytes_per_access: float = 256.0,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if num_features < 1 or column_pages < 1:
            raise ValueError("num_features and column_pages must be >= 1")
        if not 0.0 <= hot_accesses_fraction < 1.0:
            raise ValueError(
                f"hot_accesses_fraction must be in [0, 1), got "
                f"{hot_accesses_fraction}"
            )
        self.num_features = int(num_features)
        self.column_pages = int(column_pages)
        self.hot_state_pages = int(hot_state_pages)
        self.num_rounds = int(num_rounds)
        self.tree_depth = int(tree_depth)
        self.columns_per_level = int(columns_per_level)
        self.hot_accesses_fraction = float(hot_accesses_fraction)
        self.lines_per_page = max(1, int(lines_per_page))
        self.bytes_per_access = float(bytes_per_access)
        self._rng = np.random.default_rng(seed)
        self._column_sampler = ZipfianSampler(
            num_features, column_alpha, seed=seed + 1
        )
        self._rowblock_sampler = ZipfianSampler(
            column_pages, rowblock_alpha, seed=seed + 2, permute=False
        )
        self._matrix_start = 0
        self._hot_start = 0
        self._round = 0
        self._level = 0

    @property
    def matrix_pages(self) -> int:
        return self.num_features * self.column_pages

    @property
    def footprint_pages(self) -> int:
        return self.matrix_pages + self.hot_state_pages

    def setup(self, machine: Machine) -> None:
        hot = machine.allocate(self.hot_state_pages, name="xgb-hot-state")
        matrix = machine.allocate(self.matrix_pages, name="xgb-matrix")
        self._hot_start = hot.start_page
        self._matrix_start = matrix.start_page
        self._machine = machine

    # -- trace ------------------------------------------------------------

    @property
    def position(self) -> int:
        return self._round * self.tree_depth + self._level

    def batches(self) -> Iterator[AccessBatch]:
        """One batch per tree level; ``tree_depth`` batches per round.

        Continues from the current round and level; once the last round
        is done the position rewinds, so the next call starts over."""
        ops_per_batch = 1.0 / self.tree_depth  # a round is one "op"
        while self._round < self.num_rounds:
            batch = self._level_batch(ops_per_batch, self._round)
            self._level += 1
            if self._level == self.tree_depth:
                self._round += 1
                self._level = 0
            yield batch
        self._round = 0

    def _level_batch(self, num_ops: float, round_idx: int) -> AccessBatch:
        # Column scans: Zipf-popular columns, Zipf-popular row blocks
        # within each, read as sequential runs of quantized bins --
        # ``lines_per_page`` line-granular accesses per page scanned.
        cols = self._column_sampler.sample(self.columns_per_level)
        run_pages = max(1, self.column_pages // 8)
        scans = []
        for col in cols:
            col_start = self._matrix_start + int(col) * self.column_pages
            block = int(self._rowblock_sampler.sample(1)[0])
            start = col_start + min(block, self.column_pages - 1)
            end = min(start + run_pages, col_start + self.column_pages)
            scans.append(
                np.repeat(
                    np.arange(start, end, dtype=np.int64), self.lines_per_page
                )
            )
        matrix_accesses = np.concatenate(scans)

        # Hot-state traffic proportional to the scan volume.
        n_hot = int(
            matrix_accesses.size
            * self.hot_accesses_fraction
            / (1.0 - self.hot_accesses_fraction)
        )
        hot_accesses = self._hot_start + self._rng.integers(
            0, self.hot_state_pages, size=n_hot
        )
        pages = np.concatenate([matrix_accesses, hot_accesses])
        self._rng.shuffle(pages)
        return AccessBatch(
            page_ids=pages,
            num_ops=num_ops,
            cpu_ns=pages.size * CPU_NS_PER_ACCESS,
            label=f"round{round_idx}",
            bytes_per_access=self.bytes_per_access,
        )

    def describe(self) -> dict[str, object]:
        base = super().describe()
        base.update(
            {
                "num_features": self.num_features,
                "column_pages": self.column_pages,
                "num_rounds": self.num_rounds,
                "tree_depth": self.tree_depth,
            }
        )
        return base
