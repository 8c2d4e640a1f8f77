"""Deterministic virtual-time harness around a :class:`TieringDaemon`.

The driver replaces wall-clock producers with a fixed arrival
schedule: each *round* it offers ``arrivals`` batches per tenant
(pulled from that tenant's own workload stream), then runs exactly one
guarded daemon tick.  Nothing reads the wall clock, so two runs with
the same factories, schedule and serve config produce bit-identical
traces, SLO quantiles and engine state -- the property the chaos soak
test leans on.

Crash recovery
--------------

When a tick crashes, the daemon rolls back to its newest checkpoint
and drops its (now inconsistent) queue entries.  The driver then
*resyncs*: each tenant's rebuilt workload takes back the stream cursor
its queue checkpointed -- the workload's state right after the newest
batch disposed from the queue front -- so its stream continues after
the disposed prefix (``served + shed``) without regenerating it.  Both
dispositions take strictly from the FIFO front, so under ``block`` and
``shed-oldest`` backpressure the disposed set is exactly the oldest
offered batches, and the checkpointed backlog is the next ``depth``
batches of the stream: the driver regenerates and re-admits just those
(with their original stream indices and enqueue times, and without
counting them as offered again), then continues the schedule.
Recovery therefore costs at most the queue capacity in regenerated
batches per tenant, however late the crash.  The engine then services
the identical batch sequence, so its post-drain state converges
bit-identically with an uncrashed run.  ``reject`` backpressure
refuses the *newest* offers and therefore breaks the prefix property
-- recovery under it is best-effort, not exact.

The driver captures a tenant's cursor with each pull only when the
daemon checkpoints; without checkpoints recovery always restarts the
streams from their first batch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.core.metrics import ExperimentResult
from repro.sampling.events import AccessBatch

from repro.serve.daemon import TickReport, TieringDaemon
from repro.serve.queues import aggregate_depth

#: ``arrivals(round, tenant) -> offers this round`` schedule signature.
ArrivalSchedule = Callable[[int, str], int]


class VirtualTimeDriver:
    """Feeds tenant streams into a daemon on a deterministic schedule."""

    def __init__(
        self,
        daemon: TieringDaemon,
        arrivals: int | ArrivalSchedule = 1,
        max_offers: int | None = None,
    ):
        """``max_offers`` bounds how many batches each tenant's stream
        supplies in total -- the way to run an unbounded generator
        (e.g. Zipf serving) to a finite, drainable conclusion."""
        self.daemon = daemon
        if callable(arrivals):
            self._arrivals: ArrivalSchedule = arrivals
        else:
            rate = int(arrivals)
            if rate < 0:
                raise ValueError(f"arrivals must be >= 0, got {arrivals}")
            self._arrivals = lambda _round, _tenant: rate
        if max_offers is not None and max_offers < 0:
            raise ValueError(f"max_offers must be >= 0, got {max_offers}")
        self.max_offers = max_offers
        self.round = 0
        self.reports: list[TickReport] = []
        self.restarts_seen = 0
        self._streams: dict[str, Iterator[AccessBatch]] = {}
        self._pending: dict[str, tuple[AccessBatch, dict | None] | None] = {}
        self._pulled: dict[str, int] = {}
        self._exhausted: set[str] = set()
        self._reset_streams()

    def _reset_streams(self) -> None:
        self._streams = {
            tenant: workload.batches()
            for tenant, workload in self.daemon.tenants.items()
        }
        self._pending = {tenant: None for tenant in self._streams}
        self._exhausted = set()
        self._pulled = {}
        for tenant in self._streams:
            self._set_pulled(tenant, 0)

    def _set_pulled(self, tenant: str, count: int) -> None:
        """Record ``count`` batches pulled from the tenant's stream; the
        stream is done as soon as the count reaches ``max_offers``, so the
        round after its last batch is not an idle tick."""
        self._pulled[tenant] = count
        if self.max_offers is not None and count >= self.max_offers:
            self._exhausted.add(tenant)

    # -- intake schedule ---------------------------------------------------

    def _next_batch(self, tenant: str) -> tuple[AccessBatch, dict | None] | None:
        """The tenant's next batch and its cursor (the workload's state
        right after the pull, captured only when the daemon checkpoints),
        or ``None`` once the stream is done."""
        held = self._pending[tenant]
        if held is not None:
            self._pending[tenant] = None
            return held
        if tenant in self._exhausted:
            return None
        batch = next(self._streams[tenant], None)
        if batch is None:
            self._exhausted.add(tenant)
            return None
        self._set_pulled(tenant, self._pulled[tenant] + 1)
        cursor = None
        if self.daemon.checkpoint_manager is not None:
            cursor = self.daemon.tenants[tenant].state_dict()
        return batch, cursor

    def offer_round(self) -> int:
        """Offer this round's arrivals; returns batches admitted.

        In ``block`` backpressure a refused offer is *held* -- the
        driver re-offers it next round before pulling fresh batches,
        modelling a producer that retries instead of dropping.
        """
        admitted = 0
        for tenant in sorted(self._streams):
            for _ in range(self._arrivals(self.round, tenant)):
                pulled = self._next_batch(tenant)
                if pulled is None:
                    break
                outcome = self.daemon.submit(tenant, *pulled)
                if outcome == "blocked":
                    self._pending[tenant] = pulled
                    break
                if outcome == "enqueued":
                    admitted += 1
        return admitted

    # -- crash resync ------------------------------------------------------

    def _resync(self) -> None:
        """Resume streams at the checkpointed cursors after a watchdog
        restart and regenerate the backlog."""
        self.restarts_seen += 1
        for tenant, workload in self.daemon.tenants.items():
            queue = self.daemon.queues[tenant]
            counters = queue.counters
            disposed = counters.served + counters.shed
            if queue.cursor is not None:
                workload.load_state(queue.cursor)
            elif disposed:
                raise RuntimeError(
                    f"tenant {tenant!r}: the checkpoint disposed {disposed} "
                    "batches but holds no stream cursor to resume after them"
                )
        self._reset_streams()
        for tenant in sorted(self._streams):
            queue = self.daemon.queues[tenant]
            counters = queue.counters
            self._set_pulled(tenant, counters.served + counters.shed)
            # The backlog that was in-queue at checkpoint time: the
            # next `depth` stream items.  Re-admit them directly (the
            # queue is empty post-recovery, so they always fit); they
            # were offered before the checkpoint, so they are not
            # offered again.
            for _ in range(queue.restored_depth):
                pulled = self._next_batch(tenant)
                if pulled is None:
                    break
                queue.readmit(*pulled)
            queue.backlog_ns.clear()

    # -- stepping ----------------------------------------------------------

    def step(self) -> TickReport | None:
        """One round: offer arrivals, then run one guarded tick.

        Returns the tick's report, or ``None`` when the tick crashed
        and the daemon was restored (the driver has already resynced;
        the next :meth:`step` continues the schedule)."""
        self.offer_round()
        report = self.daemon.tick_guarded()
        if report is None:
            self._resync()
        else:
            self.reports.append(report)
        self.round += 1
        return report

    def run(self, rounds: int) -> list[TickReport]:
        """Run a fixed number of rounds; returns their reports."""
        start = len(self.reports)
        for _ in range(rounds):
            self.step()
        return self.reports[start:]

    @property
    def streams_exhausted(self) -> bool:
        return (
            len(self._exhausted) == len(self._streams)
            and all(held is None for held in self._pending.values())
        )

    def run_until_drained(self, max_rounds: int = 1_000_000) -> int:
        """Step until every stream is exhausted and every queue empty.

        Returns the number of rounds executed.  Raises ``RuntimeError``
        past ``max_rounds`` -- a daemon stuck in monitor-only mode
        with zero throughput would otherwise spin forever.
        """
        executed = 0
        while not (
            self.streams_exhausted
            and aggregate_depth(self.daemon.queues).depth == 0
        ):
            if executed >= max_rounds:
                raise RuntimeError(
                    f"not drained after {max_rounds} rounds "
                    f"(depth={aggregate_depth(self.daemon.queues).depth})"
                )
            self.step()
            executed += 1
        return executed

    def finish(self, warmup_fraction: float = 0.0) -> ExperimentResult | None:
        """Drain, emit ``drain_complete`` + final checkpoint, reduce.

        Convenience tail for CLI/tests: drains whatever is left (with
        crash resync), then delegates to the daemon's drain/finalize.
        """
        self.run_until_drained()
        self.daemon.drain()
        return self.daemon.finalize(warmup_fraction=warmup_fraction)
