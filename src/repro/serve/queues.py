"""Bounded per-tenant request queues with configurable backpressure.

Each tenant (client stream) owns one :class:`TenantQueue` of pending
:class:`QueuedBatch` entries.  The queue is the overload boundary: a
producer that outruns the daemon hits the configured backpressure mode
(``block`` / ``shed-oldest`` / ``reject``, see
:data:`~repro.serve.config.BACKPRESSURE_MODES`) instead of growing an
unbounded backlog.

Determinism: entries carry the *virtual* enqueue timestamp (the
engine's ``now_ns`` at admission), so enqueue-to-service latency is a
pure function of the simulated schedule -- the SLO quantiles the
daemon reports are bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.sampling.events import AccessBatch

from repro.serve.config import BACKPRESSURE_MODES


@dataclass
class QueuedBatch:
    """One admitted request: an access batch plus queueing metadata."""

    batch: AccessBatch
    tenant: str
    #: Per-tenant admission index (0-based over every batch this tenant
    #: ever *offered*, shed or not).
    index: int
    #: Virtual time at admission (engine ``now_ns``).
    enqueued_ns: float = 0.0
    #: The tenant workload's state right after this batch was pulled
    #: (its stream position), or ``None`` when the producer did not
    #: capture it -- the cursor crash recovery resumes the stream from.
    cursor: dict[str, Any] | None = None


@dataclass
class QueueCounters:
    """Monotonic per-tenant accounting (checkpointed)."""

    offered: int = 0
    enqueued: int = 0
    served: int = 0
    shed: int = 0
    rejected: int = 0
    blocked: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "offered": self.offered,
            "enqueued": self.enqueued,
            "served": self.served,
            "shed": self.shed,
            "rejected": self.rejected,
            "blocked": self.blocked,
        }


class TenantQueue:
    """One tenant's bounded FIFO with backpressure accounting.

    :meth:`offer` returns the admission outcome:

    - ``"enqueued"`` -- admitted (possibly after shedding the oldest
      entry in ``shed-oldest`` mode; the shed count moves separately);
    - ``"blocked"``  -- queue full in ``block`` mode; the caller still
      owns the batch and must re-offer it later;
    - ``"rejected"`` -- queue full in ``reject`` mode; the batch is
      dropped and the client is expected to observe the refusal.
    """

    def __init__(self, tenant: str, capacity: int, backpressure: str):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {backpressure!r}"
            )
        self.tenant = tenant
        self.capacity = int(capacity)
        self.backpressure = backpressure
        self.counters = QueueCounters()
        #: Enqueue times of the backlog recorded in the checkpoint this
        #: queue was last restored from, oldest first.  Crash recovery
        #: re-admits one regenerated batch per entry (:meth:`readmit`).
        self.backlog_ns: deque[float] = deque()
        #: Cursor of the newest entry disposed from the queue front
        #: (served or shed-oldest); ``None`` before the first.
        self.cursor: dict[str, Any] | None = None
        self._entries: deque[QueuedBatch] = deque()

    # -- intake ------------------------------------------------------------

    def offer(
        self,
        batch: AccessBatch,
        now_ns: float,
        cursor: dict[str, Any] | None = None,
    ) -> tuple[str, int]:
        """Offer one batch; returns ``(outcome, shed_count)``.

        ``shed_count`` is how many older entries were evicted to admit
        this one (only ever nonzero in ``shed-oldest`` mode).
        ``cursor`` is the producer's stream position right after it
        pulled ``batch`` (see :attr:`QueuedBatch.cursor`).
        """
        shed = 0
        if len(self._entries) >= self.capacity:
            if self.backpressure == "block":
                self.counters.blocked += 1
                return "blocked", 0
            if self.backpressure == "reject":
                self.counters.offered += 1
                self.counters.rejected += 1
                return "rejected", 0
            # shed-oldest: evict from the front until there is room.
            while len(self._entries) >= self.capacity:
                self.cursor = self._entries.popleft().cursor
                self.counters.shed += 1
                shed += 1
        index = self.counters.offered
        self.counters.offered += 1
        self.counters.enqueued += 1
        self._entries.append(
            QueuedBatch(
                batch=batch, tenant=self.tenant, index=index,
                enqueued_ns=now_ns, cursor=cursor,
            )
        )
        return "enqueued", shed

    def readmit(
        self, batch: AccessBatch, cursor: dict[str, Any] | None = None
    ) -> QueuedBatch:
        """Re-admit the next entry of the restored backlog.

        Not a new offer: the counters already count it, so they stay
        as restored, and the entry gets back its original stream index
        and enqueue time.  Under ``block`` and ``shed-oldest`` the
        backlog is the newest ``depth`` offers, so the k-th of ``d``
        entries had index ``offered - d + k``.
        """
        if not self.backlog_ns:
            raise RuntimeError(
                f"tenant {self.tenant!r}: no restored backlog to re-admit"
            )
        enqueued_ns = self.backlog_ns.popleft()
        entry = QueuedBatch(
            batch=batch,
            tenant=self.tenant,
            index=self.counters.offered - len(self.backlog_ns) - 1,
            enqueued_ns=enqueued_ns,
            cursor=cursor,
        )
        self._entries.append(entry)
        return entry

    # -- service -----------------------------------------------------------

    def pop(self) -> QueuedBatch | None:
        """Dequeue the oldest pending entry (None when empty).

        The caller must account the service via :meth:`served` only
        after the batch was actually processed -- the daemon does this
        post-:meth:`~repro.core.engine.SimulationEngine.step` so a
        crash mid-step replays the batch instead of losing it.
        """
        if not self._entries:
            return None
        return self._entries.popleft()

    def served(self, entry: QueuedBatch) -> None:
        """Account a popped entry as served; its cursor becomes the
        queue's (service disposes from the front, like shedding)."""
        self.counters.served += 1
        self.cursor = entry.cursor

    def clear(self) -> int:
        """Drop every pending entry (watchdog recovery); returns count."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def fill_fraction(self) -> float:
        return len(self._entries) / self.capacity

    @property
    def restored_depth(self) -> int:
        """Restored backlog entries not yet re-admitted."""
        return len(self.backlog_ns)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Counters, depth, the entries' enqueue times and the stream
        cursor of the newest disposal -- the batches themselves are
        *not* captured.

        Pending batches reference live workload-generator output; the
        crash-recovery driver regenerates them from the tenant's stream
        resumed at :attr:`cursor`: under ``block`` and ``shed-oldest``
        backpressure the disposed entries (served + shed, both taken
        strictly from the FIFO front) are a prefix of the offered
        stream, so the ``depth`` pending entries are the next batches
        after the cursor.  Recovery thus regenerates at most
        ``capacity`` batches, however long the run.  The state is
        bounded by the queue capacity and one cursor.
        """
        return {
            "counters": self.counters.as_dict(),
            "depth": len(self._entries),
            "enqueued_ns": [entry.enqueued_ns for entry in self._entries],
            "cursor": self.cursor,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        counters = state["counters"]
        self.counters = QueueCounters(**{
            key: int(counters.get(key, 0))
            for key in QueueCounters().as_dict()
        })
        self.backlog_ns = deque(float(t) for t in state["enqueued_ns"])
        self.cursor = state["cursor"]
        self._entries.clear()


@dataclass
class QueueSetSnapshot:
    """Aggregate view over every tenant queue at one instant."""

    depth: int
    capacity: int
    fill_fraction: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.fill_fraction = (
            self.depth / self.capacity if self.capacity else 0.0
        )


def aggregate_depth(queues: dict[str, TenantQueue]) -> QueueSetSnapshot:
    """Total backlog across tenants (the ladder's overload signal)."""
    depth = sum(len(q) for q in queues.values())
    capacity = sum(q.capacity for q in queues.values())
    return QueueSetSnapshot(depth=depth, capacity=capacity)
