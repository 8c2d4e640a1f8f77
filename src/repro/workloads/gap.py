"""GAP benchmark kernels (BC, BFS, CC, + PageRank) as page-granular traces.

The paper evaluates three GAP kernels on a Kronecker graph (Table I);
PageRank is included as an extension.  The kernels are *actually
executed* over the CSR graph from
:mod:`~repro.workloads.kronecker`, and every array touched during
execution is mapped onto machine pages so the tiering policies see the
genuine access pattern: hub-heavy neighbor-list gathers, streaming CSR
scans, and random property-array accesses.

Memory layout (one region per array, mirroring the GAP C++ layout):

- ``indptr``  -- int64 CSR row pointers,
- ``indices`` -- int32 CSR column indices,
- per-kernel property arrays (parent / component / sigma / delta ...).

Accesses are emitted at cache-line granularity (one access per 64-byte
line touched), matching how the hardware counters in the paper's setup
observe traffic.

A completed trial's pre-shuffle page arrays are a pure function of the
graph key ``(scale, avg_degree, seed)``, the kernel, the source (BFS and
BC only; CC and PR ignore it) and the start pages of the five arrays.
:meth:`GapWorkload.batches` memoises the most recent completed trial
under that key, like :func:`~repro.workloads.kronecker.generate_kronecker`
memoises its graph, so every policy cell, kernel trial and resume that
repeats it skips the kernel.  The same entry holds the shuffled batches
emitted from the trial, keyed by the step and the RNG state just before
its shuffle: a cell that replays the same seeded stream (every policy
cell of a row, every probe and resume) gets the stored batch back and
the RNG set to the state the shuffle left, so it skips the shuffle too.
The key is the RNG state, not the position, because a second pass over
the trials (the position rewinds, the RNG is not reseeded) shuffles
the same steps differently.  The stream position (trial, step, source
and the batches of the earlier trials) is declared state: a resume
continues mid-trial from the memo, or on a cold memo reruns that
trial's kernel and skips its emitted steps without shuffling them.
The memo holds one entry.  It is cleared before a new trial's kernel
runs and before a workload on another graph builds its graph; a trial
cut short commits nothing, neither its steps nor its new batches.
Steps are stored read-only, as int32 when the page ids fit, and
identical consecutive steps (every CC and PR step) share one array;
emitted batches are read-only int64 arrays, the memo's own.  A trial
whose steps, kernel state and emitted batches together exceed
:func:`repro.workloads.recording._memory_budget` commits nothing.  The
stream is the same on a hit and on a miss, RNG state included.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro._units import PAGE_SIZE
from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.workloads import recording
from repro.workloads.kronecker import CSRGraph, generate_kronecker
from repro.workloads.spec import Workload

#: Bytes per cache line (one emitted access covers one line).
LINE = 64

#: Modeled compute per emitted access (address arithmetic etc.), ns.
CPU_NS_PER_ACCESS = 4.0

KERNELS = ("bfs", "cc", "bc", "pr")

#: PageRank parameters (GAP defaults).
PR_DAMPING = 0.85
PR_ITERATIONS = 10


def _lines_of_ranges(
    byte_starts: np.ndarray, byte_lens: np.ndarray
) -> np.ndarray:
    """Cache-line ids touched by the byte ranges (one id per line).

    Expands each ``[start, start+len)`` range into the 64-byte line
    indices it covers.  Vectorized via the repeat/cumsum expansion.
    """
    byte_starts = np.asarray(byte_starts, dtype=np.int64)
    byte_lens = np.asarray(byte_lens, dtype=np.int64)
    keep = byte_lens > 0
    byte_starts, byte_lens = byte_starts[keep], byte_lens[keep]
    if byte_starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    first = byte_starts // LINE
    last = (byte_starts + byte_lens - 1) // LINE
    counts = last - first + 1
    total = int(counts.sum())
    offsets = np.arange(total) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    return np.repeat(first, counts) + offsets


class _Trial:
    """One trial: its read-only pre-shuffle steps and kernel state, the
    shuffled batches emitted from it, ``{(step, RNG state before the
    shuffle): (batch, RNG state after)}``, and the bytes all of them hold."""

    __slots__ = ("steps", "state", "emitted", "nbytes")

    def __init__(self, steps=(), state=None, emitted=None, nbytes=0):
        self.steps: list[np.ndarray] = list(steps)
        self.state: dict[str, np.ndarray] = dict(state or {})
        self.emitted: dict[tuple, tuple[np.ndarray, dict]] = dict(emitted or {})
        self.nbytes = nbytes

    def hold(self, array: np.ndarray) -> None:
        """Make ``array`` read-only and count its bytes."""
        array.flags.writeable = False
        self.nbytes += array.nbytes


#: The one memoised trial: ``{(graph key, kernel, source, start pages): trial}``.
_TRIALS: dict[tuple, _Trial] = {}


def _frozen(state: dict) -> tuple:
    """A hashable copy of a bit generator's state dict."""
    return tuple(
        (name, _frozen(value) if isinstance(value, dict) else value)
        for name, value in state.items()
    )


class _Array:
    """A simulated array living in one machine region."""

    def __init__(self, elem_bytes: int, num_elems: int):
        self.elem_bytes = elem_bytes
        self.num_elems = num_elems
        self.start_page = 0  # set at setup()

    @property
    def num_pages(self) -> int:
        return -(-self.num_elems * self.elem_bytes // PAGE_SIZE)

    def pages_of_elements(self, elems: np.ndarray) -> np.ndarray:
        """Page ids for random accesses to ``elems`` (one line each)."""
        elems = np.asarray(elems, dtype=np.int64)
        lines = (elems * self.elem_bytes) // LINE
        return self.start_page + (lines * LINE) // PAGE_SIZE

    def pages_of_ranges(
        self, starts: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """Page ids (one per line) for element ranges [start, start+len)."""
        lines = _lines_of_ranges(
            np.asarray(starts, dtype=np.int64) * self.elem_bytes,
            np.asarray(lens, dtype=np.int64) * self.elem_bytes,
        )
        return self.start_page + (lines * LINE) // PAGE_SIZE


class GapWorkload(Workload):
    """One GAP kernel run repeatedly as trials (paper Table IV).

    Parameters
    ----------
    kernel:
        ``"bfs"``, ``"cc"``, ``"bc"`` or ``"pr"`` (PageRank, an
        extension beyond the paper's three kernels).
    scale:
        Kronecker scale (``2**scale`` nodes).
    avg_degree:
        Undirected edges per node (the paper uses 4).
    num_trials:
        Kernel repetitions (different BFS/BC sources per trial).
    """

    #: The RNG plus the stream position: the trial, the steps of it
    #: already emitted, its source (-1 until picked) and the batches of
    #: the trials before it; the graph and layout are seed-deterministic.
    _state_fields = ("_rng", "_trial", "_step", "_source", "_done")

    def __init__(
        self,
        kernel: str,
        scale: int = 16,
        avg_degree: int = 4,
        num_trials: int = 4,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        if num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {num_trials}")
        self.kernel = kernel
        self.name = f"gap-{kernel}"
        self.num_trials = int(num_trials)
        self._graph_key = (int(scale), int(avg_degree), int(seed))
        if any(key[0] != self._graph_key for key in _TRIALS):
            _TRIALS.clear()  # free the old graph's trial before building this one
        self.graph: CSRGraph = generate_kronecker(scale, avg_degree, seed=seed)
        n = self.graph.num_nodes
        self._indptr_arr = _Array(8, n + 1)
        self._indices_arr = _Array(4, self.graph.num_directed_edges)
        # Property arrays: BFS parent / CC component / BC sigma+delta+level.
        self._prop32 = _Array(4, n)
        self._prop64_a = _Array(8, n)
        self._prop64_b = _Array(8, n)
        self._arrays = (
            self._indptr_arr,
            self._indices_arr,
            self._prop32,
            self._prop64_a,
            self._prop64_b,
        )
        self._rng = np.random.default_rng(seed + 7)
        self._trial = 0
        self._step = 0
        self._source = -1
        self._done = 0
        self._degrees = np.diff(self.graph.indptr).astype(np.int64)
        #: Read-only kernel outputs of the most recent trial
        #: (verification hook): bfs -> {"parent"}; cc -> {"comp"};
        #: bc -> {"sigma", "level", "delta"}; pr -> {"rank"}.
        self.last_kernel_state: dict[str, np.ndarray] = {}

    @property
    def footprint_pages(self) -> int:
        return sum(arr.num_pages for arr in self._arrays)

    def setup(self, machine: Machine) -> None:
        labels = ("indptr", "indices", "prop32", "prop64a", "prop64b")
        for arr, label in zip(self._arrays, labels):
            region = machine.allocate(arr.num_pages, name=f"gap-{label}")
            arr.start_page = region.start_page
        self._machine = machine

    # -- trace emission ------------------------------------------------------

    def _pick_source(self) -> int:
        """A random non-isolated source node (GAP requires degree > 0)."""
        for __ in range(64):
            node = int(self._rng.integers(0, self.graph.num_nodes))
            if self._degrees[node] > 0:
                return node
        # Fall back to the highest-degree node (always connected).
        return int(np.argmax(self._degrees))

    @property
    def position(self) -> int:
        return self._done + self._step

    def batches(self) -> Iterator[AccessBatch]:
        """Continue the trials from the current position.

        Mid-trial, the trial's first ``step`` steps come from the memo
        or a rerun of its kernel and are skipped unshuffled: the RNG
        already holds their shuffles.  Once the last trial is done the
        position rewinds without reseeding, so the next call starts
        over with new shuffles.
        """
        while self._trial < self.num_trials:
            if self._source < 0:
                self._source = self._pick_source()
            key = (
                self._graph_key,
                self.kernel,
                self._source if self.kernel in ("bfs", "bc") else None,
                tuple(arr.start_page for arr in self._arrays),
            )
            memo = _TRIALS.get(key)
            if memo is None:
                _TRIALS.clear()  # free the old entry before the kernel runs
                steps, draft = self._run_kernel(self._source), _Trial()
            else:
                steps = iter(memo.steps)
                draft = _Trial(memo.steps, memo.state, memo.emitted, memo.nbytes)
            # ``draft`` is what this trial commits once it completes within
            # the budget: the memo plus its new batches, or a cold trial.
            budget = recording._memory_budget()
            count = 0
            for pages in steps:
                count += 1
                if memo is None and draft is not None:
                    if not draft.steps or pages is not draft.steps[-1]:
                        draft.hold(pages)
                    draft.steps.append(pages)
                if count > self._step:
                    batch = self._emit(pages, memo, draft)
                    if draft is not None and draft.nbytes > budget:
                        draft = None
                    self._step += 1
                    yield batch
            if count < self._step:
                raise ValueError(
                    f"{self.name}: trial {self._trial} has fewer than "
                    f"{self._step} steps, so its position cannot be resumed"
                )
            if memo is not None:
                self.last_kernel_state = dict(memo.state)
            elif draft is not None:
                draft.state = dict(self.last_kernel_state)
                for array in draft.state.values():
                    draft.hold(array)
            else:
                for array in self.last_kernel_state.values():
                    array.flags.writeable = False
            if (
                draft is not None
                and draft.nbytes <= budget
                and (memo is None or len(draft.emitted) > len(memo.emitted))
            ):
                # Another workload may have committed while this trial ran.
                _TRIALS.clear()
                _TRIALS[key] = draft
            self._trial += 1
            self._done += self._step
            self._step = 0
            self._source = -1
        self._trial = self._done = 0

    def _run_kernel(self, source: int) -> Iterator[np.ndarray]:
        """Run the kernel, yielding each step's pre-shuffle pages; a step
        equal to the one before it is that same array."""
        page_limit = max(arr.start_page + arr.num_pages for arr in self._arrays)
        dtype = np.int32 if page_limit <= np.iinfo(np.int32).max else np.int64
        last = None
        for pages in getattr(self, f"_{self.kernel}_steps")(source):
            step = np.concatenate(pages, dtype=dtype)
            if last is not None and np.array_equal(step, last):
                step = last  # every CC and PR step scans the same lines
            last = step
            yield step

    def _emit(
        self, pages: np.ndarray, memo: _Trial | None, draft: _Trial | None
    ) -> AccessBatch:
        """The current step's batch: ``pages`` shuffled by the RNG, read
        from ``memo`` when it holds this step at this RNG state (the RNG
        then skips to the state the shuffle left), else shuffled afresh
        and added to ``draft``."""
        where = (self._step, _frozen(self._rng.bit_generator.state))
        known = None if memo is None else memo.emitted.get(where)
        if known is None:
            all_pages = pages.astype(np.int64)
            self._rng.shuffle(all_pages)
            if draft is None:
                all_pages.flags.writeable = False
            else:
                draft.hold(all_pages)
                draft.emitted[where] = (all_pages, self._rng.bit_generator.state)
        else:
            all_pages, after = known
            self._rng.bit_generator.state = after
        return AccessBatch(
            page_ids=all_pages,
            num_ops=0.0,
            cpu_ns=all_pages.size * CPU_NS_PER_ACCESS,
            label=f"trial{self._trial}",
        )

    def _gather_neighbors(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """All neighbors of ``frontier`` plus the pages touched to read them."""
        starts = self.graph.indptr[frontier]
        ends = self.graph.indptr[frontier + 1]
        counts = (ends - starts).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64), [
                self._indptr_arr.pages_of_elements(frontier)
            ]
        offsets = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        edge_idx = np.repeat(starts, counts) + offsets
        neighbors = self.graph.indices[edge_idx].astype(np.int64)
        pages = [
            self._indptr_arr.pages_of_elements(frontier),
            self._indices_arr.pages_of_ranges(starts, counts),
        ]
        return neighbors, pages

    def _edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge source and destination ids in CSR scan order."""
        edge_src = np.repeat(
            np.arange(self.graph.num_nodes, dtype=np.int32), self._degrees
        )
        return edge_src, self.graph.indices

    # -- BFS (direction-optimizing omitted; top-down level-synchronous) ----------

    def _bfs_steps(self, source: int) -> Iterator[list[np.ndarray]]:
        n = self.graph.num_nodes
        parent = np.full(n, -1, dtype=np.int64)
        parent[source] = source
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            neighbors, pages = self._gather_neighbors(frontier)
            if neighbors.size:
                # Reading parent[] of every neighbor to test visited.
                pages.append(self._prop32.pages_of_elements(neighbors))
                fresh = np.unique(neighbors[parent[neighbors] < 0])
                if fresh.size:
                    parent[fresh] = frontier[0]  # representative parent
                    pages.append(self._prop32.pages_of_elements(fresh))
                frontier = fresh
            else:
                frontier = np.zeros(0, dtype=np.int64)
            yield pages
        self.last_kernel_state = {
            "parent": parent,
            "source": np.array([source]),
        }

    # -- Connected components (Shiloach-Vishkin style label propagation) ----------

    def _cc_steps(self, source: int) -> Iterator[list[np.ndarray]]:
        """Label propagation; CC visits every node, so ``source`` is unused."""
        n = self.graph.num_nodes
        comp = np.arange(n, dtype=np.int64)
        graph = self.graph
        edge_src, edge_dst = self._edge_endpoints()
        for _ in range(64):  # safety bound; converges much sooner
            old = comp.copy()
            # comp[dst] = min(comp[dst], comp[src]) over the full edge scan.
            np.minimum.at(comp, edge_dst, comp[edge_src])
            comp = comp[comp]  # pointer jumping
            pages = [
                # Streaming scan of the full CSR.
                self._indptr_arr.pages_of_ranges(
                    np.array([0]), np.array([n + 1])
                ),
                self._indices_arr.pages_of_ranges(
                    np.array([0]), np.array([graph.num_directed_edges])
                ),
                # Random gathers/scatters on the component array: sample
                # one line access per 16 edge endpoints (line reuse).
                self._prop32.pages_of_elements(edge_dst[:: 16]),
                self._prop32.pages_of_elements(edge_src[:: 16]),
            ]
            yield pages
            if np.array_equal(old, comp):
                break
        self.last_kernel_state = {"comp": comp}

    # -- PageRank (power iteration, GAP defaults) -----------------------------------

    def _pr_steps(self, source: int) -> Iterator[list[np.ndarray]]:
        """Power-iteration PageRank: full CSR scans + rank gathers
        (``source`` is unused)."""
        n = self.graph.num_nodes
        graph = self.graph
        degrees = np.maximum(graph.degrees().astype(np.float64), 1.0)
        rank = np.full(n, 1.0 / n, dtype=np.float64)
        edge_src, edge_dst = self._edge_endpoints()
        base = (1.0 - PR_DAMPING) / n
        for _ in range(PR_ITERATIONS):
            contrib = rank[edge_src] / degrees[edge_src]
            incoming = np.zeros(n, dtype=np.float64)
            np.add.at(incoming, edge_dst, contrib)
            rank = base + PR_DAMPING * incoming
            pages = [
                self._indptr_arr.pages_of_ranges(np.array([0]), np.array([n + 1])),
                self._indices_arr.pages_of_ranges(
                    np.array([0]), np.array([graph.num_directed_edges])
                ),
                # Rank gathers (reads of src ranks) and scatters (dst
                # accumulation), line-sampled like the CC kernel.
                self._prop64_a.pages_of_elements(edge_src[:: 8]),
                self._prop64_b.pages_of_elements(edge_dst[:: 8]),
            ]
            yield pages
        self.last_kernel_state = {"rank": rank}

    # -- Betweenness centrality (Brandes, level-synchronous) ------------------------

    def _bc_steps(self, source: int) -> Iterator[list[np.ndarray]]:
        n = self.graph.num_nodes
        level = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        level[source] = 0
        sigma[source] = 1.0
        frontier = np.array([source], dtype=np.int64)
        levels: list[np.ndarray] = [frontier]
        depth = 0
        # Forward phase: BFS counting shortest paths.
        while frontier.size:
            neighbors, pages = self._gather_neighbors(frontier)
            if neighbors.size:
                pages.append(self._prop64_a.pages_of_elements(neighbors))
                src_sigma = np.repeat(
                    sigma[frontier],
                    self._degrees[frontier],
                )
                undiscovered = level[neighbors] < 0
                on_next = level[neighbors] == depth + 1
                contribute = undiscovered | on_next
                np.add.at(sigma, neighbors[contribute], src_sigma[contribute])
                fresh = np.unique(neighbors[undiscovered])
                if fresh.size:
                    level[fresh] = depth + 1
                    pages.append(self._prop32.pages_of_elements(fresh))
                frontier = fresh
            else:
                frontier = np.zeros(0, dtype=np.int64)
            if frontier.size:
                levels.append(frontier)
            depth += 1
            yield pages
        # Backward phase: dependency accumulation, deepest level first.
        delta = np.zeros(n, dtype=np.float64)
        for front in reversed(levels[1:]):
            neighbors, pages = self._gather_neighbors(front)
            if neighbors.size:
                counts = self._degrees[front]
                owner = np.repeat(front, counts)
                predecessor = level[neighbors] == level[owner] - 1
                if predecessor.any():
                    contrib = (
                        sigma[neighbors[predecessor]]
                        / np.maximum(sigma[owner[predecessor]], 1e-12)
                        * (1.0 + delta[owner[predecessor]])
                    )
                    np.add.at(delta, neighbors[predecessor], contrib)
                pages.append(self._prop64_a.pages_of_elements(neighbors))
                pages.append(self._prop64_b.pages_of_elements(owner[:: 4]))
            yield pages
        self.last_kernel_state = {
            "sigma": sigma,
            "level": level,
            "delta": delta,
            "source": np.array([source]),
        }

    def describe(self) -> dict[str, object]:
        base = super().describe()
        base.update(
            {
                "kernel": self.kernel,
                "num_nodes": self.graph.num_nodes,
                "num_directed_edges": self.graph.num_directed_edges,
                "num_trials": self.num_trials,
            }
        )
        return base
