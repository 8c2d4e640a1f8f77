"""Kronecker (R-MAT) graph generation in CSR form.

The paper's GAP experiments run on a Kronecker power-law graph with
2 billion nodes and 8 billion edges (average degree 4).  We generate
the same family at reduced scale using the standard R-MAT recursive
quadrant procedure with the GAP-default parameters
``(A, B, C) = (0.57, 0.19, 0.19)``, which yields the skewed degree
distribution (a few super-hubs, many leaves) that makes graph
analytics tiering-friendly (paper Section II-B).

Generation is fully vectorized: all edges choose their ``scale``
quadrant bits at once.

The graph is a pure function of ``(scale, avg_degree, seed)``, so
:func:`generate_kronecker` memoises the most recent one and hands the
same read-only :class:`CSRGraph` to every caller with that key (every
policy cell, kernel, probe resume and restart of one GAP row).  At most
one graph is memoised per process.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

#: GAP benchmark R-MAT parameters.
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19


@dataclass(frozen=True)
class CSRGraph:
    """Compressed-sparse-row graph (undirected edges stored both ways).

    Graphs from :func:`generate_kronecker` are shared between callers:
    the fields are frozen and both arrays are read-only.
    """

    indptr: np.ndarray  # int64, len num_nodes + 1
    indices: np.ndarray  # int32, len num_edges_directed
    num_nodes: int

    @property
    def num_directed_edges(self) -> int:
        return int(self.indices.size)

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    @property
    def nbytes(self) -> int:
        """Bytes of the CSR arrays (drives the page-layout footprint)."""
        return int(self.indptr.nbytes + self.indices.nbytes)


def _rmat_edges(
    scale: int, num_edges: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``num_edges`` R-MAT edge endpoints for a 2**scale node graph."""
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(num_edges)
        # Quadrants: A = (0,0), B = (0,1), C = (1,0), D = (1,1).
        go_down = r >= RMAT_A + RMAT_B  # C or D: src bit set
        go_right = ((r >= RMAT_A) & (r < RMAT_A + RMAT_B)) | (
            r >= RMAT_A + RMAT_B + RMAT_C
        )  # B or D: dst bit set
        src |= go_down.astype(np.int64) << bit
        dst |= go_right.astype(np.int64) << bit
    return src, dst


#: The one memoised graph: ``{(scale, avg_degree, seed): graph}``.
_MEMO: dict[tuple[int, int, int], CSRGraph] = {}


def generate_kronecker(
    scale: int, avg_degree: int = 4, seed: int = 0
) -> CSRGraph:
    """Generate an undirected Kronecker graph as CSR.

    ``scale`` gives ``2**scale`` nodes; ``avg_degree`` undirected edges
    per node are drawn (so the CSR stores ``2 * avg_degree * n``
    directed entries before dedup; duplicates and self-loops are kept,
    as in the GAP generator's default behaviour for Kronecker inputs).

    The result is memoised: a call with the same key returns the same
    read-only graph, and a call with a new key drops the old graph
    before building, so the process never holds two.
    """
    key = (operator.index(scale), operator.index(avg_degree),
           operator.index(seed))
    scale, avg_degree, seed = key
    if scale < 1 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    if avg_degree < 1:
        raise ValueError(f"avg_degree must be >= 1, got {avg_degree}")
    num_edges = (1 << scale) * avg_degree
    # The CSR build sorts (source << shift | position) keys in int64.
    shift = (2 * num_edges - 1).bit_length()
    if scale + shift > 63:
        raise ValueError(
            f"scale={scale}, avg_degree={avg_degree} has too many edges "
            "for the 63-bit CSR sort keys"
        )
    graph = _MEMO.get(key)
    if graph is None:
        _MEMO.clear()
        graph = _build_csr(scale, num_edges, shift, seed)
        _MEMO[key] = graph
    return graph


def _build_csr(scale: int, num_edges: int, shift: int, seed: int) -> CSRGraph:
    """Draw the R-MAT edges and lay them out as read-only CSR.

    Rows list neighbours in edge-draw order (forward copies, then the
    mirrored ones), i.e. the stable order by source.  The ``(source,
    position)`` sort keys are distinct, so one plain in-place sort of
    them gives that order without an argsort.
    """
    num_nodes = 1 << scale
    src, dst = _rmat_edges(scale, num_edges, np.random.default_rng(seed))
    # Symmetrize: store each edge in both directions.
    keys = np.concatenate([src, dst])
    neighbors = np.concatenate([dst, src], dtype=np.int32)
    del src, dst

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_nodes), out=indptr[1:])
    keys <<= shift
    keys |= np.arange(keys.size, dtype=np.int64)
    keys.sort()
    keys &= (1 << shift) - 1
    indices = neighbors[keys]
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return CSRGraph(indptr=indptr, indices=indices, num_nodes=num_nodes)
