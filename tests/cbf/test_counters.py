"""Tests for the packed n-bit counter array."""

import numpy as np
import pytest

from repro import accel
from repro.cbf.counters import PackedCounterArray


class TestConstruction:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 16])
    def test_supported_widths(self, bits):
        arr = PackedCounterArray(100, bits=bits)
        assert arr.max_value == (1 << bits) - 1
        assert np.all(arr.to_array() == 0)

    @pytest.mark.parametrize("bits", [0, 3, 5, 7, 12, 32])
    def test_unsupported_widths_rejected(self, bits):
        with pytest.raises(ValueError):
            PackedCounterArray(100, bits=bits)

    def test_len(self):
        assert len(PackedCounterArray(17)) == 17

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            PackedCounterArray(0)

    def test_packing_density_4bit(self):
        arr = PackedCounterArray(1000, bits=4)
        assert arr.nbytes == 500  # two counters per byte

    def test_packing_density_2bit(self):
        arr = PackedCounterArray(1000, bits=2)
        assert arr.nbytes == 250

    def test_packing_density_1bit(self):
        arr = PackedCounterArray(1024, bits=1)
        assert arr.nbytes == 128


class TestGetSet:
    def test_roundtrip(self):
        arr = PackedCounterArray(64, bits=4)
        idx = np.arange(64)
        vals = np.arange(64) % 16
        arr.set(idx, vals)
        assert np.array_equal(arr.get(idx), vals)

    def test_set_clamps_to_max(self):
        arr = PackedCounterArray(8, bits=4)
        arr.set(np.array([0]), np.array([100]))
        assert arr.get(np.array([0]))[0] == 15

    def test_set_clamps_negative_to_zero(self):
        arr = PackedCounterArray(8, bits=4)
        arr.set(np.array([0]), np.array([-5]))
        assert arr.get(np.array([0]))[0] == 0

    def test_adjacent_nibbles_independent(self):
        arr = PackedCounterArray(4, bits=4)
        arr.set(np.array([0]), np.array([15]))
        assert arr.get(np.array([1]))[0] == 0
        arr.set(np.array([1]), np.array([7]))
        assert arr.get(np.array([0]))[0] == 15

    def test_out_of_bounds_raises(self):
        arr = PackedCounterArray(8)
        with pytest.raises(IndexError):
            arr.get(np.array([8]))
        with pytest.raises(IndexError):
            arr.set(np.array([-1]), np.array([1]))

    def test_16bit_values(self):
        arr = PackedCounterArray(10, bits=16)
        arr.set(np.array([3]), np.array([40_000]))
        assert arr.get(np.array([3]))[0] == 40_000


class TestAddSaturating:
    def test_simple_add(self):
        arr = PackedCounterArray(8, bits=4)
        arr.add_saturating(np.array([2, 3]), np.array([5, 1]))
        assert arr.get(np.array([2]))[0] == 5
        assert arr.get(np.array([3]))[0] == 1

    def test_duplicates_accumulate(self):
        arr = PackedCounterArray(8, bits=4)
        arr.add_saturating(np.array([1, 1, 1]), np.array([2, 3, 4]))
        assert arr.get(np.array([1]))[0] == 9

    def test_saturation(self):
        arr = PackedCounterArray(8, bits=4)
        arr.add_saturating(np.array([0] * 20), np.ones(20, dtype=np.int64))
        assert arr.get(np.array([0]))[0] == 15

    def test_scalar_broadcast(self):
        arr = PackedCounterArray(8, bits=4)
        arr.add_saturating(np.array([0, 1, 2]), 3)
        assert np.array_equal(arr.get(np.array([0, 1, 2])), [3, 3, 3])


def _scatter_max(arr: PackedCounterArray, idx, vals) -> None:
    """The scatter-max inside ``accel.cbf_fused_update``, on ``arr``'s
    store (in-bounds indices, values already capped)."""
    accel._scatter_max(
        arr._store,
        arr.bits,
        arr._per_byte,
        arr.max_value,
        np.asarray(idx, dtype=np.int64),
        np.asarray(vals, dtype=np.int64),
    )


class TestMaximum:
    """Scatter-max: raise each counter to at least the target value."""

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 16])
    def test_matches_dense_reference(self, bits):
        rng = np.random.default_rng(bits)
        size = 97  # odd size exercises the partial last byte
        for __ in range(20):
            arr = PackedCounterArray(size, bits=bits)
            start = rng.integers(0, arr.max_value + 1, size=size)
            arr.set(np.arange(size), start)
            idx = rng.integers(0, size, size=60)
            vals = rng.integers(0, arr.max_value + 1, size=60)
            _scatter_max(arr, idx, vals)
            dense = start.copy()
            np.maximum.at(dense, idx, vals)
            np.testing.assert_array_equal(arr.to_array(), dense)

    def test_duplicates_keep_largest(self):
        arr = PackedCounterArray(8, bits=4)
        _scatter_max(arr, [3, 3, 3], [5, 9, 2])
        assert arr.get(np.array([3]))[0] == 9

    def test_never_decreases(self):
        arr = PackedCounterArray(8, bits=4)
        arr.set(np.array([2]), np.array([12]))
        _scatter_max(arr, [2], [4])
        assert arr.get(np.array([2]))[0] == 12

    def test_adjacent_subbyte_counters_untouched(self):
        arr = PackedCounterArray(4, bits=4)
        arr.set(np.arange(4), np.array([1, 2, 3, 4]))
        _scatter_max(arr, [1], [15])
        assert np.array_equal(arr.to_array(), [1, 15, 3, 4])

    def test_empty(self):
        arr = PackedCounterArray(8, bits=4)
        _scatter_max(arr, [], [])
        assert np.all(arr.to_array() == 0)


class TestHalveAll:
    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_halves_every_counter(self, bits):
        size = 64
        arr = PackedCounterArray(size, bits=bits)
        vals = np.arange(size) % (arr.max_value + 1)
        arr.set(np.arange(size), vals)
        arr.halve_all()
        assert np.array_equal(arr.to_array(), vals // 2)

    def test_no_cross_counter_leak_4bit(self):
        # High nibble 15 next to low nibble 0 must not leak a bit.
        arr = PackedCounterArray(2, bits=4)
        arr.set(np.array([1]), np.array([15]))  # high nibble of byte 0
        arr.halve_all()
        assert arr.get(np.array([0]))[0] == 0
        assert arr.get(np.array([1]))[0] == 7

    def test_no_cross_counter_leak_2bit(self):
        arr = PackedCounterArray(4, bits=2)
        arr.set(np.array([1, 3]), np.array([3, 3]))
        arr.halve_all()
        assert np.array_equal(arr.to_array(), [0, 1, 0, 1])

    def test_1bit_halving_zeroes(self):
        arr = PackedCounterArray(8, bits=1)
        arr.set(np.arange(8), np.ones(8, dtype=np.int64))
        arr.halve_all()
        assert np.all(arr.to_array() == 0)

    def test_repeated_halving_reaches_zero(self):
        arr = PackedCounterArray(8, bits=4)
        arr.set(np.arange(8), np.full(8, 15))
        for __ in range(4):
            arr.halve_all()
        assert np.all(arr.to_array() == 0)
