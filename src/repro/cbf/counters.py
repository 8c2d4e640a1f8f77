"""Packed n-bit saturating counter array.

The paper allocates 4 bits per CBF counter by default (Section V-A), so
two counters share each byte.  This module implements a genuinely
bit-packed counter array with vectorized gather/scatter so that the
CBF's modeled memory footprint equals its actual backing-store size.

Supported widths are 1, 2, 4, 8 and 16 bits.  Counters saturate at
``2**bits - 1``; the paper treats all pages at the cap as equally hot.
"""

from __future__ import annotations

import numpy as np

from repro import accel
from repro.state.codec import Stateful

_SUPPORTED_BITS = (1, 2, 4, 8, 16)

#: Per-width cache of the (max_value+1, 256) matrix counting, for each
#: possible byte value, how many packed lanes hold each counter value.
#: ``matrix @ byte_histogram`` is then the full counter-value histogram
#: without unpacking the store (see :meth:`PackedCounterArray.value_histogram`).
_LANE_COUNT_MATRICES: dict[int, np.ndarray] = {}


def _lane_count_matrix(bits: int, per_byte: int, max_value: int) -> np.ndarray:
    matrix = _LANE_COUNT_MATRICES.get(bits)
    if matrix is None:
        byte_values = np.arange(256, dtype=np.uint16)
        matrix = np.zeros((max_value + 1, 256), dtype=np.int64)
        cols = np.arange(256)
        for pos in range(per_byte):
            lane = (byte_values >> np.uint16(pos * bits)) & np.uint16(max_value)
            np.add.at(matrix, (lane.astype(np.int64), cols), 1)
        _LANE_COUNT_MATRICES[bits] = matrix
    return matrix


class PackedCounterArray(Stateful):
    """Fixed-size array of ``bits``-wide saturating unsigned counters."""

    #: The packed backing store (bit-exact, see repro.state.codec).
    _state_fields = ("_store",)

    def __init__(self, size: int, bits: int = 4):
        if bits not in _SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {_SUPPORTED_BITS}, got {bits}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = int(size)
        self.bits = int(bits)
        self.max_value = (1 << bits) - 1
        if bits == 8:
            self._store = np.zeros(size, dtype=np.uint8)
            self._per_byte = 1
        elif bits == 16:
            self._store = np.zeros(size, dtype=np.uint16)
            self._per_byte = 1
        else:
            self._per_byte = 8 // bits
            n_bytes = -(-size // self._per_byte)
            self._store = np.zeros(n_bytes, dtype=np.uint8)

    # -- introspection ------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Actual backing-store size in bytes."""
        return int(self._store.nbytes)

    def __len__(self) -> int:
        return self.size

    # -- element access -----------------------------------------------

    def get(self, indices: np.ndarray, *, check: bool = True) -> np.ndarray:
        """Gather counter values at ``indices`` (any shape).

        ``check=False`` skips bounds validation -- for callers that
        just produced the indices in-range (e.g. hash outputs already
        reduced modulo the array size), saving a scan per call.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if check:
            self._check_bounds(idx)
        if self.bits in (8, 16):
            return self._store[idx].astype(np.int64)
        byte_idx = idx // self._per_byte
        shift = ((idx % self._per_byte) * self.bits).astype(np.uint8)
        mask = np.uint8(self.max_value)
        return ((self._store[byte_idx] >> shift) & mask).astype(np.int64)

    def set(
        self, indices: np.ndarray, values: np.ndarray, *, check: bool = True
    ) -> None:
        """Scatter ``values`` (clamped to the counter range) at ``indices``.

        If an index repeats, the last write wins (numpy scatter order).
        ``check=False`` skips bounds validation (see :meth:`get`).
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if check:
            self._check_bounds(idx)
        vals = np.clip(np.asarray(values, dtype=np.int64).ravel(), 0, self.max_value)
        if self.bits == 8:
            self._store[idx] = vals.astype(np.uint8)
            return
        if self.bits == 16:
            self._store[idx] = vals.astype(np.uint16)
            return
        # Sub-byte widths: counters sharing a byte must not clobber
        # each other, so scatter one in-byte position per pass (two
        # different indices can only collide on a byte if their in-byte
        # positions differ).
        positions = idx % self._per_byte
        mask = np.uint8(self.max_value)
        for pos in range(self._per_byte):
            sel = positions == pos
            if not sel.any():
                continue
            byte_idx = idx[sel] // self._per_byte
            shift = np.uint8(pos * self.bits)
            cleared = self._store[byte_idx] & np.uint8(~(int(mask) << shift) & 0xFF)
            self._store[byte_idx] = cleared | (
                vals[sel].astype(np.uint8) << shift
            )

    def fused_update(self, indices: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """Fused conservative bulk update + frequency readback.

        For each row of ``indices`` (shape ``(u, k)``: the ``k`` slots
        of one key): raise the row's counters to
        ``min(row_min + totals[row], max_value)`` via scatter-max, then
        return the row's new minimum.  This is the CBF ``increase``
        inner loop as one dispatchable kernel (see :mod:`repro.accel`);
        indices must already be in-bounds (hash outputs).
        """
        return accel.cbf_fused_update(
            self._store, self.bits, self._per_byte, self.max_value,
            indices, totals,
        )

    def add_saturating(self, indices: np.ndarray, amounts: np.ndarray) -> None:
        """Add ``amounts`` to counters at ``indices``, saturating at the cap.

        Duplicate indices within one call are accumulated (unlike
        :meth:`set`), matching the semantics of repeated increments.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        self._check_bounds(idx)
        amt = np.asarray(amounts, dtype=np.int64).ravel()
        if amt.shape != idx.shape:
            amt = np.broadcast_to(amt, idx.shape)
        # Accumulate duplicates first so saturation applies to the total.
        # ``uniq`` is a subset of the just-validated ``idx``, so the
        # get/set below can skip re-scanning the bounds.
        uniq, inverse = np.unique(idx, return_inverse=True)
        totals = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(totals, inverse, amt)
        current = self.get(uniq, check=False)
        self.set(uniq, np.minimum(current + totals, self.max_value), check=False)

    def halve_all(self) -> None:
        """Divide every counter by two (the paper's aging step)."""
        if self.bits in (8, 16):
            self._store >>= 1
            return
        if self.bits == 4:
            # Halve both nibbles of each byte at once.  Shifting the
            # byte right moves bit 0 of the high nibble into bit 3 of
            # the low one; the 0x77 mask clears that bit (and bit 7).
            self._store = (self._store >> np.uint8(1)) & np.uint8(0x77)
            return
        if self.bits == 2:
            self._store = (self._store >> np.uint8(1)) & np.uint8(0x55)
            return
        # bits == 1: halving a 1-bit counter zeroes it.
        self._store[:] = 0

    def to_array(self) -> np.ndarray:
        """Unpacked copy of all counters as int64 (for tests/analysis)."""
        return self.get(np.arange(self.size, dtype=np.int64), check=False)

    def value_histogram(self) -> np.ndarray:
        """Counts of each counter value, length ``max_value + 1``.

        Equivalent to ``np.bincount(self.to_array(), minlength=...)``
        but O(bytes) instead of O(counters x unpack): one byte-level
        ``bincount`` plus a tiny matrix product mapping byte patterns to
        lane values.  This keeps the threshold controller's per-round
        histogram off the unpack path (the engine's hottest fixed cost
        before this existed).
        """
        if self.bits in (8, 16):
            hist = np.bincount(self._store, minlength=self.max_value + 1)
            return hist.astype(np.int64)
        byte_hist = np.bincount(self._store, minlength=256)
        matrix = _lane_count_matrix(self.bits, self._per_byte, self.max_value)
        hist = matrix @ byte_hist
        # Lanes past ``size`` in the trailing byte are never written and
        # would otherwise count as zeros.
        padding = self._store.size * self._per_byte - self.size
        if padding:
            hist[0] -= padding
        return hist

    # -- internal -------------------------------------------------------

    def _check_bounds(self, idx: np.ndarray) -> None:
        if idx.size == 0:
            return
        # Single-pass check: negative int64 indices become huge when
        # viewed as uint64, so one unsigned comparison catches both
        # ends (vs. separate min() and max() scans).
        if np.any(idx.view(np.uint64) >= np.uint64(self.size)):
            lo, hi = int(idx.min()), int(idx.max())
            raise IndexError(
                f"counter index out of range [0, {self.size}): min={lo} max={hi}"
            )
