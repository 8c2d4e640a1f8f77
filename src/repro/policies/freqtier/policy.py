"""The FreqTier tiering policy (paper Sections IV-V).

Workflow per the paper's Figure 4: PEBS samples of local and CXL
accesses flow into the counting Bloom filter through the increment
coalescer; every ``sample_batch_size`` samples one batched promotion
pass runs (Algorithm 1); demotion is a resumable linear scan of the
virtual address space gated by the free-memory watermarks
(Algorithm 2, Figs. 6-7); the intensity controller adapts the sampling
level and drops into monitoring mode when tiering stops paying off.
"""

from __future__ import annotations

import numpy as np

from repro.cbf.blocked import BlockedCountingBloomFilter
from repro.cbf.cbf import CountingBloomFilter
from repro.cbf.coalescing import SampleCoalescer
from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.obs import Tracer
from repro.policies.base import MigrationRetryQueue, PEBSPolicy
from repro.policies.freqtier.config import FreqTierConfig
from repro.policies.freqtier.intensity import (
    IntensityController,
    TieringState,
    WindowReport,
)
from repro.policies.freqtier.threshold import HotThresholdController
from repro.sampling.events import AccessBatch
from repro.sampling.pebs import SAMPLE_RECORD_BYTES


class FreqTier(PEBSPolicy):
    """Frequency-based tiering with probabilistic tracking.

    Published at ASPLOS'25 under the name **HybridTier**; the
    :data:`repro.policies.HybridTier` alias points here.
    """

    name = "FreqTier"
    _state_fields = PEBSPolicy._state_fields + (
        "cbf",
        "coalescer",
        "pebs",
        "intensity",
        "threshold_ctl",
        "_promo_retry",
        "_demo_retry",
        "_batch_index",
        "_scan_cursor",
        "_window_accesses",
        "_promoted_in_window",
        "_empty_scan_in_window",
        "_rounds_in_window",
        "_samples_since_aging",
    )

    def __init__(self, config: FreqTierConfig | None = None, seed: int = 0):
        super().__init__()
        self.config = config or FreqTierConfig()
        self.seed = int(seed)
        # Bound at attach():
        self.cbf: CountingBloomFilter | None = None
        self.coalescer: SampleCoalescer | None = None
        self.intensity: IntensityController | None = None
        self.threshold_ctl: HotThresholdController | None = None
        self._promo_retry: MigrationRetryQueue | None = None
        self._demo_retry: MigrationRetryQueue | None = None
        self._batch_index = 0
        self._scan_cursor = 0
        # Per-page CBF slot indices for the whole address space, built
        # lazily on the first demotion scan.  Page ids and the CBF's
        # geometry/seed are both fixed after attach(), so slot indices
        # of scanned pages never change; one up-front hashing pass
        # replaces the per-chunk hashing that otherwise dominates every
        # scan (chunk boundaries drift between laps, so per-chunk
        # memoization would rarely hit).  Derived data: never
        # checkpointed, cleared on attach() (new CBF geometry/seed).
        self._scan_index_table: np.ndarray | None = None
        self._window_accesses = 0
        self._promoted_in_window = 0
        self._empty_scan_in_window = False
        self._rounds_in_window = 0
        self._samples_since_aging = 0

    # -- lifecycle --------------------------------------------------------

    def set_tracer(self, tracer: Tracer) -> None:
        super().set_tracer(tracer)
        if self.intensity is not None:
            self.intensity.tracer = tracer

    # -- tracking-unit translation (granularity_pages) -----------------

    def _units_of(self, pages: np.ndarray) -> np.ndarray:
        """Tracking-unit id of each page (identity at 4 KB granularity)."""
        if self.config.granularity_pages == 1:
            return pages
        return np.asarray(pages, dtype=np.int64) // self.config.granularity_pages

    def _pages_of_units(self, units: np.ndarray) -> np.ndarray:
        """All page ids covered by the given tracking units."""
        g = self.config.granularity_pages
        if g == 1:
            return np.asarray(units, dtype=np.int64)
        units = np.asarray(units, dtype=np.int64)
        offsets = np.tile(np.arange(g, dtype=np.int64), len(units))
        return np.repeat(units * g, g) + offsets

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        cfg = self.config
        tracked_capacity = max(
            1, machine.config.local_capacity_pages // cfg.granularity_pages
        )
        num_counters = cfg.resolve_cbf_size(tracked_capacity)
        cbf_cls = BlockedCountingBloomFilter if cfg.blocked_cbf else CountingBloomFilter
        self._scan_index_table = None
        self.cbf = cbf_cls(
            num_counters,
            num_hashes=cfg.cbf_num_hashes,
            bits=cfg.cbf_bits,
            seed=self.seed,
        )
        self.coalescer = SampleCoalescer(self.cbf)
        # Ring sized a few batches deep (the paper's 512 KB/counter/core
        # rule scaled to the simulated sampling volume) unless the
        # config pins an explicit capacity.
        ring_capacity = cfg.pebs_ring_capacity
        if ring_capacity is None:
            ring_capacity = max(4 * cfg.sample_batch_size, 32_768)
        self._attach_pebs(
            cfg.pebs_base_period, self.seed + 1, cfg.sample_cost_ns, ring_capacity
        )
        self._promo_retry = MigrationRetryQueue(
            capacity=cfg.retry_queue_capacity,
            base_backoff_batches=cfg.retry_base_backoff_batches,
            max_backoff_batches=cfg.retry_max_backoff_batches,
            max_attempts=cfg.retry_max_attempts,
        )
        self._demo_retry = MigrationRetryQueue(
            capacity=cfg.retry_queue_capacity,
            base_backoff_batches=cfg.retry_base_backoff_batches,
            max_backoff_batches=cfg.retry_max_backoff_batches,
            max_attempts=cfg.retry_max_attempts,
        )
        self._batch_index = 0
        self.intensity = IntensityController(
            stability_epsilon=cfg.stability_epsilon, tracer=self.tracer
        )
        if self.tracer.enabled:
            # Traces are self-describing: record the initial state so
            # timeline reconstruction needs no out-of-band knowledge.
            self.tracer.emit(
                "state_transition",
                t_ns=0.0,
                **{
                    "from": "init",
                    "to": self.intensity.state.value,
                    "reason": "attach",
                    "level": self.intensity.level.name,
                },
            )
        self.threshold_ctl = HotThresholdController(
            self.cbf,
            tracked_capacity,
            initial_threshold=cfg.initial_hot_threshold,
            min_threshold=cfg.min_hot_threshold,
            max_threshold=cfg.max_hot_threshold,
        )
        self.stats.metadata_bytes = (
            self.cbf.nbytes + self.pebs.ring_capacity * SAMPLE_RECORD_BYTES
        )

    # -- main hook ----------------------------------------------------------

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.pebs is not None and self.intensity is not None
        self._batch_index += 1
        n_local, n_cxl = counts
        self.intensity.count_accesses(n_local, n_cxl)

        overhead = self._drain_retries(now_ns)
        if self.intensity.sampling_active:
            self.pebs.set_level(self.intensity.level)
            overhead += self.pebs.observe(batch)
            # Drain at the configured batch size -- or when the ring is
            # full, whichever comes first (a ring smaller than the
            # batch must not stall sampling forever).
            drain_at = min(
                self.config.sample_batch_size, self.pebs.ring_capacity
            )
            if self.pebs.pending_samples >= drain_at:
                overhead += self._process_samples(now_ns)

        self._window_accesses += batch.num_accesses
        if self._window_accesses >= self.config.window_accesses:
            overhead += self._close_window(now_ns)

        self.stats.overhead_ns += overhead
        return overhead

    # -- migration retry (fault resilience) ---------------------------------

    def _record_retry_failures(
        self,
        queue: MigrationRetryQueue,
        direction: str,
        failed: np.ndarray,
        now_ns: float | None,
    ) -> None:
        """Queue failed pages for backed-off retry; trace blacklisting."""
        newly = queue.record_failures(failed, self._batch_index)
        if newly.size:
            self._count_extra(f"{direction}s_blacklisted", int(newly.size))
            if self.tracer.enabled:
                self.tracer.count("pages_blacklisted", int(newly.size))
                self.tracer.emit(
                    "page_blacklisted",
                    t_ns=now_ns,
                    direction=direction,
                    count=int(newly.size),
                )

    def _drain_retries(self, now_ns: float) -> float:
        """Re-attempt previously failed migrations whose backoff expired.

        Demotions drain first so retried demotions can free the room
        that retried promotions then claim (the watermark protocol's
        ordering).  Pages whose placement already matches the wanted
        side -- moved by some other path meanwhile -- are dropped from
        the queue without a migration call.
        """
        assert self._promo_retry is not None and self._demo_retry is not None
        overhead = 0.0
        plan = (
            ("demote", self._demo_retry, LOCAL_TIER, self._demote_pages),
            ("promote", self._promo_retry, CXL_TIER, self._promote_pages),
        )
        for direction, queue, wanted_tier, mover in plan:
            due = queue.due(self._batch_index)
            if due.size == 0:
                continue
            placement = self.machine.placement_of(due)
            moot = due[placement != wanted_tier]
            if moot.size:
                queue.mark_succeeded(moot)
            still = due[placement == wanted_tier]
            moved = 0
            if still.size:
                if direction == "promote":
                    overhead += self._make_room(int(still.size))
                outcome = mover(still)
                moved = outcome.num_moved
                overhead += self.config.effective_move_pages_ns
                if direction == "promote":
                    self._promoted_in_window += moved
                # Moved pages leave the queue; capacity-rejected pages
                # also leave (not a fault -- they re-qualify through the
                # normal candidate path); fault-failed pages re-enter
                # with their attempt count intact.
                queue.mark_succeeded(outcome.moved)
                queue.mark_succeeded(outcome.rejected_capacity)
                if outcome.num_failed:
                    self._record_retry_failures(
                        queue, direction, outcome.failed, now_ns
                    )
            if self.tracer.enabled:
                self.tracer.count(f"{direction}_retries", int(due.size))
                self.tracer.emit(
                    "migration_retry",
                    t_ns=now_ns,
                    direction=direction,
                    count=int(due.size),
                    moved=int(moved),
                )
        return overhead

    # -- windows (dynamic intensity) --------------------------------------------

    def _close_window(self, now_ns: float) -> float:
        assert self.intensity is not None and self.pebs is not None
        overhead = 0.0
        # Flush a partially filled sample buffer so every sampling
        # window ends with at least one promotion pass (otherwise a
        # slow level could starve the plateau detector).
        if (
            self.intensity.sampling_active
            and self.pebs.pending_samples >= self.config.sample_batch_size // 4
        ):
            overhead += self._process_samples(now_ns)
        report = WindowReport(
            pages_promoted=self._promoted_in_window,
            empty_demotion_scan=self._empty_scan_in_window,
            processing_rounds=self._rounds_in_window,
        )
        was_sampling = self.intensity.sampling_active
        self.intensity.end_window(report, now_ns)
        if was_sampling and not self.intensity.sampling_active:
            # Entering monitoring mode: samples still buffered in the
            # ring were taken against the current placement, which can
            # be arbitrarily stale by the time sampling resumes --
            # discard them (counted as lost) instead of replaying them
            # later.
            flushed = self.pebs.discard_pending()
            if flushed and self.tracer.enabled:
                self.tracer.count("samples_lost", flushed)
                self.tracer.emit(
                    "ring_overflow",
                    t_ns=now_ns,
                    lost=flushed,
                    reason="monitoring-flush",
                )
        if self.tracer.enabled:
            self.tracer.emit(
                "window_close",
                t_ns=now_ns,
                hit_ratio=self.intensity.perf.last_window_hit_ratio,
                pages_promoted=self._promoted_in_window,
                processing_rounds=self._rounds_in_window,
                state=self.intensity.state.value,
                level=self.intensity.level.name,
            )
        self._window_accesses = 0
        self._promoted_in_window = 0
        self._empty_scan_in_window = False
        self._rounds_in_window = 0
        return overhead

    # -- promotion (Algorithm 1) ---------------------------------------------------

    def _process_samples(self, now_ns: float) -> float:
        assert (
            self.cbf is not None
            and self.coalescer is not None
            and self.pebs is not None
            and self.threshold_ctl is not None
        )
        cfg = self.config
        # Corrupted sample ids are dropped *before* they touch the CBF:
        # an out-of-range id would otherwise pollute counters shared
        # (via hashing) with real pages.
        page_ids, drained = self._drain_samples(now_ns)
        if page_ids.size == 0:
            return 0.0
        self._rounds_in_window += 1
        unit_ids = self._units_of(page_ids)
        unique_units, freqs = self.coalescer.ingest(unit_ids)
        overhead = unique_units.size * cfg.cbf_op_ns
        if self.tracer.enabled:
            self.tracer.count("cbf_ops", int(unique_units.size))
            self.tracer.observe("sample_batch_size", int(page_ids.size))

        # Periodic aging keeps frequencies fresh (Section V-A).  The
        # interval is *subtracted*, not reset to zero: a sample batch
        # larger than the interval leaves its remainder behind, so the
        # long-run aging cadence stays one aging per
        # ``aging_interval_samples`` regardless of batch size.
        self._samples_since_aging += drained
        if self._samples_since_aging >= cfg.aging_interval_samples:
            self.cbf.age()
            self._samples_since_aging -= cfg.aging_interval_samples
            if self.tracer.enabled:
                self.tracer.count("agings")
                self.tracer.emit("aging", t_ns=now_ns, samples=drained)

        threshold = self.threshold_ctl.threshold
        hot_mask = freqs >= threshold
        hot_units = unique_units[hot_mask].astype(np.int64)
        if hot_units.size:
            # Hottest first: if local DRAM cannot absorb the whole
            # batch, the most frequent units win the free slots.  The
            # stable sort on negated frequencies keeps tied units in
            # coalescer order, making the promotion set deterministic.
            order = np.argsort(
                -freqs[hot_mask].astype(np.int64), kind="stable"
            )
            hot = self._pages_of_units(hot_units[order])
            # Guard against units extending past the mapped space.
            hot = hot[hot < self.machine.config.total_capacity_pages]
            placement = self.machine.placement_of(hot)
            candidates = hot[placement == CXL_TIER]
            # Blacklisted pages (repeated migration failures: the
            # pinned-page model) are excluded up front -- re-attempting
            # them is pure wasted syscall time.
            assert self._promo_retry is not None
            candidates = self._promo_retry.filter_allowed(candidates)
            if candidates.size:
                overhead += self._make_room(int(candidates.size))
                outcome = self._promote_pages(candidates)
                promoted = outcome.num_moved
                if promoted:
                    overhead += cfg.effective_move_pages_ns
                    self._promoted_in_window += promoted
                if outcome.num_failed:
                    self._record_retry_failures(
                        self._promo_retry, "promote", outcome.failed, now_ns
                    )
                if self.tracer.enabled:
                    self.tracer.emit(
                        "promotion",
                        t_ns=now_ns,
                        candidates=int(candidates.size),
                        promoted=int(promoted),
                        threshold=int(threshold),
                    )

        # One control step per processing round (Section V-C(a)).
        self.threshold_ctl.update()
        return overhead

    # -- demotion (Algorithm 2) --------------------------------------------------------

    def _make_room(self, incoming_pages: int) -> float:
        """Watermark-gated demotion ahead of a promotion batch.

        Demotes cold pages (frequency < hot threshold) found by the
        resumable linear scan until free local memory exceeds
        DEMOTE_WMARK and fits the incoming promotion batch.
        """
        machine = self.machine
        # Room for the whole promotion batch (capped at half the local
        # tier so one batch can never flush local DRAM wholesale), but
        # at least up to DEMOTE_WMARK per the watermark protocol.
        incoming = min(
            incoming_pages, machine.config.local_capacity_pages // 2
        )
        want_free = max(machine.demote_wmark_pages, incoming)
        if machine.local_free_pages >= want_free:
            return 0.0
        return self._demote_until(want_free)

    def _demote_until(self, target_free_pages: int) -> float:
        assert self.cbf is not None and self.threshold_ctl is not None
        assert self._demo_retry is not None
        cfg = self.config
        machine = self.machine
        space = machine.address_space
        table = machine.page_table
        threshold = self.threshold_ctl.threshold

        # Checkpoint: if the batched demotion at the end fails outright
        # (injected ENOMEM / transient faults), rewind the scan cursor
        # so the cold pages found this pass are rediscovered by the
        # next scan instead of being silently skipped for a full lap of
        # the address space.
        cursor_checkpoint = self._scan_cursor
        overhead = 0.0
        to_demote: list[np.ndarray] = []
        collected = 0
        scanned = 0
        chunks = 0
        scan_limit = space.total_pages  # one full pass at most per call
        while (
            machine.local_free_pages + collected < target_free_pages
            and scanned < scan_limit
        ):
            chunk, self._scan_cursor = space.scan_from(
                self._scan_cursor, cfg.demotion_scan_chunk_pages
            )
            if chunk.size == 0:
                break
            scanned += int(chunk.size)
            chunks += 1
            # scan_from only yields pages of mapped regions, which are
            # in-bounds by construction -- skip the per-chunk re-check.
            placement = table.pagemap_read_batch(chunk, check=False)
            overhead += cfg.effective_pagemap_read_ns
            local_pages = chunk[placement == LOCAL_TIER]
            if local_pages.size == 0:
                continue
            # Slot indices come from the precomputed per-page table (a
            # row gather), not per-chunk hashing.  Accounting
            # (cbf_op_ns) is unchanged: the real system pays the CBF
            # lookup either way.
            if (
                self._scan_index_table is None
                or self._scan_index_table.shape[0] != space.total_pages
            ):
                all_pages = np.arange(space.total_pages, dtype=np.int64)
                self._scan_index_table = self.cbf.slot_indices(
                    self._units_of(all_pages)
                )
            freqs = self.cbf.get_by_indices(
                self._scan_index_table[local_pages]
            )
            overhead += local_pages.size * cfg.cbf_op_ns
            cold = local_pages[freqs < threshold]
            cold = self._demo_retry.filter_allowed(cold)
            if scanned > scan_limit and to_demote:
                # The lap's last chunk runs past where this pass began:
                # drop the pages already collected, which the move
                # would otherwise count twice.
                cold = cold[~np.isin(cold, np.concatenate(to_demote))]
            if cold.size:
                need = target_free_pages - machine.local_free_pages - collected
                cold = cold[: max(need, 0)]
                if cold.size:
                    to_demote.append(cold)
                    collected += int(cold.size)

        demoted = 0
        if to_demote:
            outcome = self._demote_pages(np.concatenate(to_demote))
            demoted = outcome.num_moved
            if demoted:
                overhead += cfg.effective_move_pages_ns
            if outcome.num_failed:
                self._record_retry_failures(
                    self._demo_retry, "demote", outcome.failed, None
                )
                if demoted == 0:
                    # Total fault failure: nothing moved, so keep the
                    # checkpoint where this pass started.
                    self._scan_cursor = cursor_checkpoint
        elif scanned >= scan_limit:
            # A full pass found nothing cold: local DRAM is all hot.
            self._empty_scan_in_window = True
        if self.tracer.enabled:
            self.tracer.count("scan_chunks", chunks)
            self.tracer.count("scan_pages", scanned)
            self.tracer.emit(
                "demotion_scan",
                chunks=chunks,
                scanned=scanned,
                demoted=int(demoted),
                empty=bool(scanned >= scan_limit and not to_demote),
            )
        return overhead

    # -- introspection ----------------------------------------------------------------------

    @property
    def hot_threshold(self) -> int:
        assert self.threshold_ctl is not None
        return self.threshold_ctl.threshold

    @property
    def state(self) -> TieringState:
        assert self.intensity is not None
        return self.intensity.state

    def describe(self) -> dict[str, object]:
        base = super().describe()
        if self.cbf is not None:
            base.update(
                {
                    "cbf_counters": self.cbf.num_counters,
                    "cbf_bytes": self.cbf.nbytes,
                    "blocked_cbf": self.config.blocked_cbf,
                    "hot_threshold": self.hot_threshold,
                }
            )
        return base
