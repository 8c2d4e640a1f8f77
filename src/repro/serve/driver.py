"""Deterministic virtual-time harness around a :class:`TieringDaemon`.

The driver replaces wall-clock producers with a fixed arrival
schedule: each *round* it offers ``arrivals`` batches per tenant
(pulled from that tenant's own workload stream), then runs exactly one
guarded daemon tick.  Nothing reads the wall clock, so two runs with
the same factories, schedule and serve config produce bit-identical
traces, SLO quantiles and engine state -- the property the chaos soak
test leans on.

Crash recovery replay
---------------------

When a tick crashes, the daemon rolls back to its newest checkpoint
and drops its (now inconsistent) queue entries.  The driver then
*resyncs*: it rebuilds each tenant's stream from the daemon's rebuilt
workloads, skips the disposed prefix (``served + shed`` -- both
dispose strictly from the FIFO front, so under ``block`` and
``shed-oldest`` backpressure the disposed set is exactly the oldest
offered batches), re-admits the checkpointed backlog (with its
original stream indices and enqueue times, and without counting it as
offered again), and continues the schedule.  The engine then replays
the identical batch sequence, so its post-drain state converges
bit-identically with an uncrashed run.  ``reject`` backpressure
refuses the *newest* offers and therefore breaks the prefix property
-- replay under it is best-effort, not exact.
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
        self._pending: dict[str, AccessBatch | None] = {}
        self._pulled: dict[str, int] = {}
        self._exhausted: set[str] = set()
        self._reset_streams()

    def _reset_streams(self) -> None:
        self._streams = {
            tenant: workload.batches()
            for tenant, workload in self.daemon.tenants.items()
        }
        self._pending = {tenant: None for tenant in self._streams}
        self._pulled = {tenant: 0 for tenant in self._streams}
        self._exhausted = set()

    # -- intake schedule ---------------------------------------------------

    def _next_batch(self, tenant: str) -> AccessBatch | None:
        held = self._pending[tenant]
        if held is not None:
            self._pending[tenant] = None
            return held
        if tenant in self._exhausted:
            return None
        if (
            self.max_offers is not None
            and self._pulled[tenant] >= self.max_offers
        ):
            self._exhausted.add(tenant)
            return None
        batch = next(self._streams[tenant], None)
        if batch is None:
            self._exhausted.add(tenant)
            return None
        self._pulled[tenant] += 1
        return batch

    def offer_round(self) -> int:
        """Offer this round's arrivals; returns batches admitted.

        In ``block`` backpressure a refused offer is *held* -- the
        driver re-offers it next round before pulling fresh batches,
        modelling a producer that retries instead of dropping.
        """
        admitted = 0
        for tenant in sorted(self._streams):
            for _ in range(self._arrivals(self.round, tenant)):
                batch = self._next_batch(tenant)
                if batch is None:
                    break
                outcome = self.daemon.submit(tenant, batch)
                if outcome == "blocked":
                    self._pending[tenant] = batch
                    break
                if outcome == "enqueued":
                    admitted += 1
        return admitted

    # -- crash resync ------------------------------------------------------

    def _resync(self) -> None:
        """Re-derive streams and backlog after a watchdog restart."""
        self.restarts_seen += 1
        self._reset_streams()
        for tenant in sorted(self._streams):
            queue = self.daemon.queues[tenant]
            counters = queue.counters
            disposed = counters.served + counters.shed
            stream = self._streams[tenant]
            for _ in range(disposed):
                if next(stream, None) is None:
                    self._exhausted.add(tenant)
                    break
            self._pulled[tenant] = disposed
            # The backlog that was in-queue at checkpoint time: the
            # next `depth` stream items.  Re-admit them directly (the
            # queue is empty post-recovery, so they always fit); they
            # were offered before the checkpoint, so they are not
            # offered again.
            for _ in range(queue.restored_depth):
                batch = self._next_batch(tenant)
                if batch is None:
                    break
                queue.readmit(batch)
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
            and all(batch is None for batch in self._pending.values())
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
