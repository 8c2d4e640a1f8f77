"""Page -> tier placement table (the ``/proc/PID/pagemap`` analogue).

FreqTier's demotion scan checks whether each candidate page currently
resides in local DRAM by reading ``/proc/PID/pagemap`` in batches of
contiguous pages (paper Section V-B1).  :class:`PageTable` provides
that interface over a numpy-backed placement array, and tracks a
batched-read counter so the policy layer can account for the
pseudo-filesystem overhead the paper's optimization amortizes.
"""

from __future__ import annotations

import numpy as np

from repro.state.codec import Stateful

#: Placement codes.
UNMAPPED: int = -1
LOCAL_TIER: int = 0
CXL_TIER: int = 1


class PageTable(Stateful):
    """Placement of every page id onto a tier (or unmapped)."""

    _state_fields = (
        "_placement",
        "_tier_counts",
        "pagemap_reads",
        "pagemap_pages_read",
    )

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError(f"capacity_pages must be > 0, got {capacity_pages}")
        self.capacity_pages = int(capacity_pages)
        self._placement = np.full(capacity_pages, UNMAPPED, dtype=np.int8)
        #: Mapped pages per tier, indexed by the tier code.
        self._tier_counts = [0, 0]
        #: Batched pagemap reads issued (overhead accounting).
        self.pagemap_reads = 0
        self.pagemap_pages_read = 0
        #: Monotonic placement-mutation counter.  Bumped by every
        #: operation that can change a placement code (place, unmap,
        #: load_state) so callers that derive data from the placement
        #: array -- e.g. the engine's cached tier prefix sum -- can
        #: invalidate on change instead of recomputing per batch.  Not
        #: checkpointed: it identifies array states within one process
        #: only.
        self.version = 0

    # -- placement mutation ---------------------------------------------

    def place(self, pages: np.ndarray, tier: int) -> None:
        """Map ``pages`` onto ``tier`` (overwriting any prior placement)."""
        self._validate_tier(tier)
        idx = self._as_index(pages)
        if idx.size == 0:
            return
        self._discount_previous(idx)
        self._placement[idx] = tier
        self._tier_counts[tier] += idx.size
        self.version += 1

    def unmap(self, pages: np.ndarray) -> None:
        """Remove ``pages`` from all tiers."""
        idx = self._as_index(pages)
        if idx.size == 0:
            return
        self._discount_previous(idx)
        self._placement[idx] = UNMAPPED
        self.version += 1

    def _discount_previous(self, idx: np.ndarray) -> None:
        """Subtract the prior placements at ``idx`` from the tier counts.

        Gathers the previous codes once, then counts each tier with a
        vectorized comparison.  (``np.bincount`` over the shifted codes
        would be one conceptual pass but measures ~20x slower here: it
        casts the int8 codes to intp and counts scalar-wise, while the
        equality scans are SIMD.)
        """
        previous = self._placement[idx]
        self._tier_counts[LOCAL_TIER] -= int(
            np.count_nonzero(previous == LOCAL_TIER)
        )
        self._tier_counts[CXL_TIER] -= int(
            np.count_nonzero(previous == CXL_TIER)
        )

    # -- queries ------------------------------------------------------------

    def tier_of(self, pages: np.ndarray | int) -> np.ndarray | int:
        """Placement code for each page (vectorized).

        Returns the placement array's native int8 codes -- no widening
        copy on this hot path; comparisons against the tier constants
        work unchanged and callers that need a wider dtype convert the
        (small) result themselves.
        """
        if np.isscalar(pages):
            return int(self._placement[int(pages)])
        return self._placement[self._as_index(pages)]

    def placement_view(self) -> np.ndarray:
        """The raw int8 placement-code array (zero-copy, read-only use).

        The engine's fused per-batch kernel gathers directly from this
        array.  Callers must not mutate it; note that
        :meth:`load_state` *replaces* the backing array, so the view
        must be re-fetched rather than cached across restores.
        """
        return self._placement

    def pages_in_tier(self, tier: int) -> np.ndarray:
        """All page ids currently placed on ``tier``."""
        self._validate_tier(tier)
        return np.nonzero(self._placement == tier)[0].astype(
            np.int64, copy=False
        )

    def count_in_tier(self, tier: int) -> int:
        self._validate_tier(tier)
        return self._tier_counts[tier]

    @property
    def mapped_pages(self) -> int:
        return self._tier_counts[LOCAL_TIER] + self._tier_counts[CXL_TIER]

    # -- the pagemap batch-read interface ---------------------------------------

    def pagemap_read_batch(
        self, pages: np.ndarray, *, check: bool = True
    ) -> np.ndarray:
        """Batched placement lookup, counted as one pseudo-fs read.

        This is the interface the demotion scan uses; querying a batch
        of contiguous pages with one call is the paper's optimization
        over per-page ``/proc`` reads.  Scans that produce their own
        chunk ranges (``AddressSpace.scan_from``) pass ``check=False``
        to skip re-validating indices they just generated.
        """
        idx = self._as_index(pages, check=check)
        self.pagemap_reads += 1
        self.pagemap_pages_read += int(idx.size)
        return self._placement[idx]

    # -- checkpointing ------------------------------------------------------------

    def load_state(self, state: dict) -> None:
        """Restore the declared fields.  The placement array is
        replaced, so :attr:`version` moves on: data derived from the
        old array (the engine's cached tier prefix) is stale."""
        super().load_state(state)
        self.version += 1

    # -- internal -------------------------------------------------------------------

    def _as_index(
        self, pages: np.ndarray | int, *, check: bool = True
    ) -> np.ndarray:
        """Pages as a validated int64 index array.

        Validation is one unsigned single-pass comparison (negative
        int64 ids are huge as uint64, so one test covers both ends)
        rather than separate ``min()``/``max()`` scans per batch;
        ``check=False`` skips it entirely for indices the caller just
        produced in-range.
        """
        idx = np.atleast_1d(np.asarray(pages, dtype=np.int64))
        if check and idx.size:
            if np.any(idx.view(np.uint64) >= np.uint64(self.capacity_pages)):
                lo, hi = int(idx.min()), int(idx.max())
                raise IndexError(
                    f"page id out of range [0, {self.capacity_pages}): "
                    f"min={lo} max={hi}"
                )
        return idx

    @staticmethod
    def _validate_tier(tier: int) -> None:
        if tier not in (LOCAL_TIER, CXL_TIER):
            raise ValueError(f"tier must be LOCAL_TIER or CXL_TIER, got {tier}")
