"""Dynamic hot-threshold controller (paper Section V-C(a)).

The hot threshold is the minimum CBF frequency a page needs to be
promoted.  FreqTier keeps it calibrated so that *the set of hot pages
is roughly the size of local DRAM*: a threshold too low floods local
DRAM (promote-demote churn); too high leaves local DRAM underused.

The CBF cannot enumerate its keys, so the controller estimates the hot
page count from the counter-value histogram: a page at frequency >= t
raises ~``k`` counters to >= t, so ``#counters >= t / k`` upper-bounds
the hot-page count (collisions only inflate it, making the controller
conservative about lowering the threshold).
"""

from __future__ import annotations

from repro.cbf.cbf import CountingBloomFilter
from repro.state.codec import Stateful


class HotThresholdController(Stateful):
    """Adjusts the hot threshold toward local-DRAM-sized hot sets."""

    _state_fields = ("threshold", "adjustments")

    def __init__(
        self,
        cbf: CountingBloomFilter,
        local_capacity_pages: int,
        initial_threshold: int = 5,
        min_threshold: int = 1,
        max_threshold: int | None = None,
        high_fill: float = 1.25,
        low_fill: float = 0.5,
    ):
        if local_capacity_pages < 1:
            raise ValueError(
                f"local_capacity_pages must be >= 1, got {local_capacity_pages}"
            )
        if not 0.0 < low_fill < high_fill:
            raise ValueError(
                f"need 0 < low_fill < high_fill, got {low_fill}, {high_fill}"
            )
        self.cbf = cbf
        self.local_capacity_pages = int(local_capacity_pages)
        self.min_threshold = int(min_threshold)
        self.max_threshold = int(
            max_threshold if max_threshold is not None else cbf.max_count
        )
        if not self.min_threshold <= initial_threshold <= self.max_threshold:
            raise ValueError(
                f"initial_threshold {initial_threshold} outside "
                f"[{self.min_threshold}, {self.max_threshold}]"
            )
        self.threshold = int(initial_threshold)
        self.high_fill = float(high_fill)
        self.low_fill = float(low_fill)
        self.adjustments = 0

    def estimated_hot_pages(self, threshold: int | None = None) -> float:
        """Estimated pages with frequency >= threshold (histogram / k)."""
        t = self.threshold if threshold is None else threshold
        hist = self.cbf.counter_histogram()
        return float(hist[t:].sum()) / self.cbf.num_hashes

    def update(self) -> int:
        """One control step; returns the (possibly changed) threshold.

        Raises the threshold when the estimated hot set overflows
        local DRAM by ``high_fill``; lowers it when the hot set cannot
        fill ``low_fill`` of local DRAM (paper Section V-C(a)).
        """
        hist = self.cbf.counter_histogram()
        k = self.cbf.num_hashes
        est_hot = float(hist[self.threshold :].sum()) / k
        if (
            est_hot > self.high_fill * self.local_capacity_pages
            and self.threshold < self.max_threshold
        ):
            self.threshold += 1
            self.adjustments += 1
        elif (
            est_hot < self.low_fill * self.local_capacity_pages
            and self.threshold > self.min_threshold
        ):
            self.threshold -= 1
            self.adjustments += 1
        return self.threshold
