"""Tests for the Kronecker/R-MAT graph generator."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import ExperimentConfig, FreqTier, GapWorkload, run_experiment
from repro.workloads.kronecker import (
    CSRGraph,
    _rmat_edges,
    generate_kronecker,
)


def reference_csr(scale: int, avg_degree: int, seed: int) -> CSRGraph:
    """The straightforward stable-argsort CSR build (test oracle)."""
    num_nodes = 1 << scale
    src, dst = _rmat_edges(
        scale, num_nodes * avg_degree, np.random.default_rng(seed)
    )
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.argsort(all_src, kind="stable")
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(all_src, minlength=num_nodes))
    return CSRGraph(
        indptr=indptr,
        indices=all_dst[order].astype(np.int32),
        num_nodes=num_nodes,
    )


class TestGeneration:
    def test_node_and_edge_counts(self):
        g = generate_kronecker(scale=10, avg_degree=4, seed=0)
        assert g.num_nodes == 1024
        # Symmetrized: 2 * n * degree directed entries.
        assert g.num_directed_edges == 2 * 1024 * 4

    def test_csr_well_formed(self):
        g = generate_kronecker(scale=8, avg_degree=4, seed=1)
        assert len(g.indptr) == g.num_nodes + 1
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_directed_edges
        assert np.all(np.diff(g.indptr) >= 0)
        assert g.indices.min() >= 0
        assert g.indices.max() < g.num_nodes

    def test_deterministic(self):
        a = generate_kronecker(scale=8, seed=3)
        b = generate_kronecker(scale=8, seed=3)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_seed_changes_graph(self):
        a = generate_kronecker(scale=8, seed=3)
        b = generate_kronecker(scale=8, seed=4)
        assert not np.array_equal(a.indices, b.indices)

    def test_symmetry(self):
        """Every edge appears in both directions (same multiplicity)."""
        g = generate_kronecker(scale=6, avg_degree=3, seed=5)
        src = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
        fwd = sorted(zip(src.tolist(), g.indices.tolist()))
        rev = sorted(zip(g.indices.tolist(), src.tolist()))
        assert fwd == rev

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_kronecker(scale=0)
        with pytest.raises(ValueError):
            generate_kronecker(scale=31)
        with pytest.raises(ValueError):
            generate_kronecker(scale=5, avg_degree=0)

    def test_too_many_edges_for_sort_keys_rejected_before_allocating(self):
        # 2**30 nodes x 8 -> 2**34 directed edges: source bits plus
        # position bits need 64 > 63 bits.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="63-bit"):
                generate_kronecker(scale=30, avg_degree=8)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize(
    "scale,avg_degree,seed",
    [(1, 1, 0), (1, 4, 3), (2, 1, 1), (6, 3, 5), (10, 4, 0), (12, 8, 9),
     (18, 4, 1)],
)
def test_csr_matches_stable_argsort_reference(scale, avg_degree, seed):
    got = generate_kronecker(scale, avg_degree, seed)
    want = reference_csr(scale, avg_degree, seed)
    assert got.num_nodes == want.num_nodes
    assert got.indptr.dtype == want.indptr.dtype
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


class TestMemo:
    def test_equal_key_returns_identical_graph(self):
        a = generate_kronecker(scale=7, avg_degree=2, seed=11)
        b = generate_kronecker(scale=7, avg_degree=2, seed=11)
        assert a is b
        assert GapWorkload("cc", scale=7, avg_degree=2, seed=11).graph is a

    def test_arrays_read_only(self):
        g = generate_kronecker(scale=7, seed=11)
        with pytest.raises(ValueError):
            g.indptr[0] = 1
        with pytest.raises(ValueError):
            g.indices[0] = 1
        with pytest.raises(ValueError):
            g.neighbors(0)[:] = 0

    def test_fields_frozen(self):
        g = generate_kronecker(scale=7, seed=11)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.num_nodes = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.indices = np.zeros(0, dtype=np.int32)

    def test_new_key_evicts_old_graph(self):
        a = generate_kronecker(scale=7, seed=11)
        other = generate_kronecker(scale=7, seed=12)
        assert other is not a
        again = generate_kronecker(scale=7, seed=11)
        assert again is not a
        assert np.array_equal(again.indices, a.indices)

    def test_cold_and_warm_gap_cells_identical(self):
        config = ExperimentConfig(local_fraction=0.1, max_batches=None, seed=4)
        graphs = []

        def factory():
            workload = GapWorkload("cc", scale=10, num_trials=2, seed=4)
            graphs.append(workload.graph)
            return workload

        generate_kronecker(scale=3, seed=99)  # force a cold build
        cold = run_experiment(factory, FreqTier, config).to_dict()
        warm = run_experiment(factory, FreqTier, config).to_dict()
        assert graphs[0] is graphs[1]
        generate_kronecker(scale=3, seed=99)
        rebuilt = run_experiment(factory, FreqTier, config).to_dict()
        assert graphs[2] is not graphs[0]
        assert cold == warm == rebuilt


class TestPowerLaw:
    def test_degree_skew(self):
        """R-MAT with GAP parameters produces hubs (paper Section II-B)."""
        g = generate_kronecker(scale=14, avg_degree=4, seed=0)
        degrees = np.sort(g.degrees())[::-1]
        total = degrees.sum()
        top_1pct = degrees[: g.num_nodes // 100].sum()
        assert top_1pct / total > 0.2  # hubs dominate

    def test_isolated_nodes_exist(self):
        # Kronecker graphs famously leave many nodes isolated.
        g = generate_kronecker(scale=14, avg_degree=4, seed=0)
        assert np.sum(g.degrees() == 0) > 0


class TestCSRGraphHelpers:
    def test_neighbors(self):
        indptr = np.array([0, 2, 3, 3])
        indices = np.array([1, 2, 0], dtype=np.int32)
        g = CSRGraph(indptr=indptr, indices=indices, num_nodes=3)
        assert np.array_equal(g.neighbors(0), [1, 2])
        assert g.degree(1) == 1
        assert g.degree(2) == 0

    def test_nbytes(self):
        g = generate_kronecker(scale=8, seed=0)
        assert g.nbytes == g.indptr.nbytes + g.indices.nbytes
