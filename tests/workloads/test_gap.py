"""Tests for the GAP kernel trace generators."""

import itertools

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import run_all_local, run_experiment
from repro.memsim.machine import Machine, MachineConfig
from repro.workloads import gap
from repro.workloads.gap import KERNELS, GapWorkload, _lines_of_ranges


def run_workload(kernel: str, scale: int = 10, trials: int = 1, seed: int = 0):
    w = GapWorkload(kernel, scale=scale, num_trials=trials, seed=seed)
    m = Machine(
        MachineConfig(
            local_capacity_pages=max(32, w.footprint_pages // 8),
            cxl_capacity_pages=w.footprint_pages * 2,
        )
    )
    w.setup(m)
    return w, list(w.batches())


class TestLinesOfRanges:
    def test_single_range(self):
        lines = _lines_of_ranges(np.array([0]), np.array([128]))
        assert np.array_equal(lines, [0, 1])

    def test_unaligned_range(self):
        lines = _lines_of_ranges(np.array([60]), np.array([10]))
        # Bytes 60..69 touch lines 0 and 1.
        assert np.array_equal(lines, [0, 1])

    def test_multiple_ranges(self):
        lines = _lines_of_ranges(np.array([0, 640]), np.array([64, 64]))
        assert np.array_equal(lines, [0, 10])

    def test_zero_length_skipped(self):
        lines = _lines_of_ranges(np.array([0, 100]), np.array([0, 1]))
        assert np.array_equal(lines, [1])

    def test_empty(self):
        assert _lines_of_ranges(np.array([]), np.array([])).size == 0


class TestWorkloadSetup:
    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            GapWorkload("pagerank")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_num_trials_validated_before_graph_build(self, trials, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("graph built before num_trials was checked")

        monkeypatch.setattr("repro.workloads.gap.generate_kronecker", no_build)
        with pytest.raises(ValueError, match="num_trials"):
            GapWorkload("cc", num_trials=trials)

    def test_footprint_covers_all_arrays(self):
        w = GapWorkload("bfs", scale=10, seed=0)
        assert w.footprint_pages == (
            w._indptr_arr.num_pages
            + w._indices_arr.num_pages
            + w._prop32.num_pages
            + w._prop64_a.num_pages
            + w._prop64_b.num_pages
        )

    def test_regions_disjoint(self):
        w, __ = run_workload("bfs")
        regions = w.machine.address_space.regions
        for a, b in zip(regions, regions[1:]):
            assert a.end_page == b.start_page


@pytest.mark.parametrize("kernel", ["bfs", "cc", "bc"])
class TestTraces:
    def test_accesses_within_footprint(self, kernel):
        w, batches = run_workload(kernel)
        assert len(batches) > 0
        for batch in batches:
            if batch.num_accesses:
                assert batch.page_ids.min() >= 0
                assert batch.page_ids.max() < w.footprint_pages

    def test_trace_is_substantial(self, kernel):
        __, batches = run_workload(kernel)
        total = sum(b.num_accesses for b in batches)
        assert total > 1_000  # kernels really traverse the graph

    def test_labels_carry_trials(self, kernel):
        __, batches = run_workload(kernel, trials=2, seed=1)
        labels = {b.label for b in batches}
        assert labels == {"trial0", "trial1"}

    def test_deterministic(self, kernel):
        __, a = run_workload(kernel, seed=3)
        __, b = run_workload(kernel, seed=3)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.page_ids, y.page_ids)


class TestKernelSemantics:
    def test_bfs_reaches_large_component(self):
        w = GapWorkload("bfs", scale=10, num_trials=1, seed=0)
        m = Machine(
            MachineConfig(
                local_capacity_pages=w.footprint_pages,
                cxl_capacity_pages=64,
            )
        )
        w.setup(m)
        levels = list(w.batches())
        # A power-law graph's giant component spans several BFS levels.
        assert len(levels) >= 3

    def test_cc_converges(self):
        __, batches = run_workload("cc", scale=9, seed=1)
        # Label propagation converges well under the 64-iteration bound.
        assert len(batches) < 64

    def test_bc_has_forward_and_backward_phases(self):
        __, batches = run_workload("bc", scale=9, seed=2)
        # Backward pass adds batches beyond the BFS depth.
        bfs_only = run_workload("bfs", scale=9, seed=2)[1]
        assert len(batches) > len(bfs_only)

    def test_source_never_isolated(self):
        w = GapWorkload("bfs", scale=10, seed=0)
        degrees = w.graph.degrees()
        for __ in range(10):
            assert degrees[w._pick_source()] > 0

    def test_indices_and_property_traffic_both_present(self):
        """Sequential CSR reads (line-granular) plus random property
        accesses (element-granular) both appear; the random property
        checks dominate counts, like the visited-checks of real BFS."""
        w, batches = run_workload("bfs", scale=12, seed=0)
        lo = w._indices_arr.start_page
        hi = lo + w._indices_arr.num_pages
        total, in_indices = 0, 0
        for b in batches:
            total += b.num_accesses
            in_indices += int(
                np.count_nonzero((b.page_ids >= lo) & (b.page_ids < hi))
            )
        share = in_indices / max(total, 1)
        assert 0.02 < share < 0.9


def _stream(batches):
    return [(b.label, b.cpu_ns, b.page_ids.tolist()) for b in batches]


def _run_with_states(kernel: str, trials: int, seed: int, passes: int = 1):
    """Run ``passes`` passes of one workload: ``[(batch, state_dict after it)]``."""
    w = GapWorkload(kernel, scale=10, num_trials=trials, seed=seed)
    w.setup(Machine(MachineConfig(local_capacity_pages=w.footprint_pages,
                                  cxl_capacity_pages=64)))
    out = []
    for __ in range(passes):
        out.extend((batch, w.state_dict()) for batch in w.batches())
    return w, out


def _counting(monkeypatch, method: str) -> list[int]:
    """Count calls of one kernel's step generator (one call per cold trial)."""
    calls: list[int] = []
    original = getattr(GapWorkload, method)

    def counted(self, source):
        calls.append(source)
        return original(self, source)

    monkeypatch.setattr(GapWorkload, method, counted)
    return calls


class TestTrialMemo:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        gap._TRIALS.clear()
        yield
        gap._TRIALS.clear()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_warm_memo_replays_the_cold_stream(self, kernel, monkeypatch):
        cold_w, cold = _run_with_states(kernel, trials=1, seed=3)
        assert len(gap._TRIALS) == 1
        calls = _counting(monkeypatch, f"_{kernel}_steps")
        warm_w, warm = _run_with_states(kernel, trials=1, seed=3)
        assert calls == []
        assert _stream(b for b, __ in warm) == _stream(b for b, __ in cold)
        # The RNG and the position match after every batch, not only at the end.
        assert [s for __, s in warm] == [s for __, s in cold]
        assert cold_w.last_kernel_state.keys() == warm_w.last_kernel_state.keys()
        for name, array in cold_w.last_kernel_state.items():
            assert np.array_equal(warm_w.last_kernel_state[name], array)
        # Every batch is read-only int64, like a replayed recording's, and
        # the warm run hands out the memo's own arrays, not copies.
        (trial,) = gap._TRIALS.values()
        held = {id(batch) for batch, __ in trial.emitted.values()}
        assert len(held) == len(warm)
        for batch, __ in warm:
            assert batch.page_ids.dtype == np.int64
            assert not batch.page_ids.flags.writeable
            assert id(batch.page_ids) in held

    @pytest.mark.parametrize("kernel", ["cc", "pr"])
    def test_source_free_kernels_run_once_per_graph(self, kernel, monkeypatch):
        calls = _counting(monkeypatch, f"_{kernel}_steps")
        __, batches = run_workload(kernel, trials=3, seed=2)
        assert len(calls) == 1
        steps = next(iter(gap._TRIALS.values())).steps
        # Every step scans the same lines, so the trial holds one array.
        assert all(step is steps[0] for step in steps)
        assert steps[0].dtype == np.int32
        assert {b.label for b in batches} == {"trial0", "trial1", "trial2"}

    @pytest.mark.parametrize("kernel", ["bfs", "bc"])
    def test_hit_requires_the_same_source(self, kernel, monkeypatch):
        w, __ = run_workload(kernel, trials=1, seed=3)
        source = int(w.last_kernel_state["source"][0])
        calls = _counting(monkeypatch, f"_{kernel}_steps")
        same, __ = run_workload(kernel, trials=1, seed=3)
        assert calls == []

        other = int(np.flatnonzero(w._degrees)[-1])
        assert other != source
        monkeypatch.setattr(GapWorkload, "_pick_source", lambda self: other)
        moved, __ = run_workload(kernel, trials=1, seed=3)
        assert calls == [other]
        assert int(moved.last_kernel_state["source"][0]) == other
        (key,) = gap._TRIALS
        assert key[2] == other

    def test_trial_cut_short_commits_nothing(self):
        run_workload("cc", trials=1, seed=1)
        assert len(gap._TRIALS) == 1
        w = GapWorkload("bfs", scale=10, num_trials=1, seed=1)
        w.setup(Machine(MachineConfig(local_capacity_pages=w.footprint_pages,
                                      cxl_capacity_pages=64)))
        stream = w.batches()
        list(itertools.islice(stream, 2))
        # The old entry went before the new trial was built ...
        assert gap._TRIALS == {}
        stream.close()
        # ... and the unfinished trial left none behind.
        assert gap._TRIALS == {}

    def test_trial_cut_by_max_batches_commits_nothing(self):
        workload = WorkloadSpec("gap", kernel="bc", scale=10, num_trials=1, seed=1)
        config = ExperimentConfig(local_fraction=0.1, max_batches=2, seed=1)
        run_experiment(workload, PolicySpec("freqtier", seed=1), config)
        assert gap._TRIALS == {}

    def test_memo_never_holds_two_entries(self):
        for kernel, seed in [("bfs", 0), ("cc", 0), ("cc", 1), ("pr", 1), ("bc", 2)]:
            run_workload(kernel, trials=2, seed=seed)
            assert len(gap._TRIALS) == 1
        # Two interleaved workloads: the later commit replaces the earlier.
        a, __ = run_workload("cc", trials=1, seed=5)
        b, __ = run_workload("pr", trials=1, seed=5)
        gap._TRIALS.clear()
        for __ in itertools.zip_longest(a.batches(), b.batches()):
            assert len(gap._TRIALS) <= 1
        assert len(gap._TRIALS) == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_over_budget_trial_is_not_memoised(self, kernel, monkeypatch):
        __, memoised = _run_with_states(kernel, trials=2, seed=4)
        gap._TRIALS.clear()
        monkeypatch.setattr("repro.workloads.recording._memory_budget", lambda: 4096)
        __, unmemoised = _run_with_states(kernel, trials=2, seed=4)
        # Neither the steps nor a single emitted batch is held.
        assert gap._TRIALS == {}
        assert _stream(b for b, __ in unmemoised) == _stream(b for b, __ in memoised)
        assert [s for __, s in unmemoised] == [s for __, s in memoised]

    def test_new_batches_over_budget_leave_the_entry_as_it_was(self, monkeypatch):
        __, reference = _run_with_states("cc", trials=2, seed=4)
        gap._TRIALS.clear()
        _run_with_states("cc", trials=1, seed=4)
        (trial,) = gap._TRIALS.values()
        emitted = dict(trial.emitted)
        # The memo is full: trial 1 hits its steps, but its new shuffles
        # would take the entry over the budget.
        monkeypatch.setattr(
            "repro.workloads.recording._memory_budget", lambda: trial.nbytes
        )
        __, over = _run_with_states("cc", trials=2, seed=4)
        assert list(gap._TRIALS.values()) == [trial]
        assert trial.emitted.keys() == emitted.keys()
        assert _stream(b for b, __ in over) == _stream(b for b, __ in reference)

    @pytest.mark.parametrize("kernel", ["cc", "pr"])
    def test_a_rewind_shuffles_anew_on_a_warm_memo(self, kernel, monkeypatch):
        """A second pass reaches the same steps at other RNG states, so a
        memo keyed on the position would replay the first pass's order."""
        with monkeypatch.context() as patch:
            patch.setattr("repro.workloads.recording._memory_budget", lambda: 0)
            __, cold = _run_with_states(kernel, trials=1, seed=2, passes=2)
        assert gap._TRIALS == {}
        _run_with_states(kernel, trials=1, seed=2, passes=2)
        (trial,) = gap._TRIALS.values()
        __, warm = _run_with_states(kernel, trials=1, seed=2, passes=2)
        assert len(trial.emitted) == len(warm)  # both passes are memoised
        assert _stream(b for b, __ in warm) == _stream(b for b, __ in cold)
        assert [s for __, s in warm] == [s for __, s in cold]
        half = len(cold) // 2
        assert _stream(b for b, __ in cold[:half]) != _stream(
            b for b, __ in cold[half:]
        )

    def test_another_graph_drops_the_memo_before_building(self, monkeypatch):
        run_workload("cc", trials=1, seed=1)
        assert len(gap._TRIALS) == 1
        built = []
        original = gap.generate_kronecker

        def build(*args, **kwargs):
            built.append(dict(gap._TRIALS))
            return original(*args, **kwargs)

        monkeypatch.setattr(gap, "generate_kronecker", build)
        GapWorkload("cc", scale=10, num_trials=1, seed=2)
        assert built == [{}]
        assert gap._TRIALS == {}
        # The same graph keeps its entry, whatever the kernel.
        run_workload("cc", trials=1, seed=2)
        GapWorkload("bfs", scale=10, num_trials=1, seed=2)
        assert len(gap._TRIALS) == 1

    @pytest.mark.parametrize("kernel", ["cc", "bfs"])
    def test_row_cells_match_with_the_memo_warm_or_cleared(self, kernel):
        """A row's cells share one warm memo in one process; each cell on
        a cleared memo computes the same results."""
        workload = WorkloadSpec("gap", kernel=kernel, scale=13, num_trials=2, seed=1)
        config = ExperimentConfig(local_fraction=0.05, seed=1)
        policies = [None] + [
            PolicySpec(name, seed=1) for name in ("freqtier", "autonuma", "tpp", "hemem")
        ]

        def cell(policy):
            if policy is None:
                return run_all_local(workload, config).to_dict()
            return run_experiment(workload, policy, config).to_dict()

        warm = [cell(policy) for policy in policies]
        assert gap._TRIALS
        cold = []
        for policy in policies:
            gap._TRIALS.clear()
            cold.append(cell(policy))
        assert warm == cold

    def test_memoised_arrays_are_read_only(self):
        w, __ = run_workload("bc", trials=1, seed=6)
        (trial,) = gap._TRIALS.values()
        assert trial.emitted
        for array in (*trial.steps, *trial.state.values(),
                      *(batch for batch, __ in trial.emitted.values()),
                      *w.last_kernel_state.values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
