"""Oracle placement analysis.

The paper motivates FreqTier by showing AutoNUMA/TPP leave ~20 points
of hit ratio on the table: "we demonstrate that it is possible for a
tiering system to achieve 90% hit ratio" (Section II-C1).  This module
computes that bound: given a recorded access stream and a local-DRAM
capacity, the *static oracle* places the top-K most-accessed pages
locally; its hit ratio is the best any static placement can achieve,
and an upper reference for adaptive policies on stationary workloads.

Also provides ``placement_efficiency``: how close a policy's measured
hit ratio comes to the oracle's.
"""

from __future__ import annotations

import numpy as np

from repro import accel
from repro.sampling.events import AccessBatch


def page_access_counts(
    batches: list[AccessBatch], footprint_pages: int
) -> np.ndarray:
    """True per-page access counts over a recorded stream.

    Batches are histogrammed directly from their compressed form
    (``weighted_page_counts``: a head bincount plus a difference-domain
    run sweep) -- O(head + runs + pages) per batch, and the expanded
    stream is never materialized.
    """
    counts = np.zeros(footprint_pages, dtype=np.int64)
    for batch in batches:
        accel.weighted_page_counts(
            batch.head_page_ids, batch.run_starts, batch.run_counts, counts
        )
    return counts


def oracle_hit_ratio(
    batches: list[AccessBatch],
    footprint_pages: int,
    local_capacity_pages: int,
) -> float:
    """Best static hit ratio: top-K pages by true frequency kept local."""
    if local_capacity_pages <= 0:
        return 0.0
    counts = page_access_counts(batches, footprint_pages)
    total = counts.sum()
    if total == 0:
        return 0.0
    k = min(local_capacity_pages, footprint_pages)
    top = np.partition(counts, len(counts) - k)[-k:]
    return float(top.sum() / total)


def placement_efficiency(measured_hit_ratio: float, oracle: float) -> float:
    """Measured hit ratio as a fraction of the oracle's (capped at 1)."""
    if oracle <= 0:
        return 1.0 if measured_hit_ratio <= 0 else float("inf")
    return min(measured_hit_ratio / oracle, 1.0)
