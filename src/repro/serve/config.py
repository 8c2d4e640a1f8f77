"""Serving-daemon configuration: queues, budgets, ladder, restarts.

One :class:`ServeConfig` carries every tunable of the online tiering
loop.  It is JSON round-trippable (``to_dict``/``from_dict``) because
the daemon's checkpoint stores it next to the serving state, so a
resumed daemon runs under the config it was saved with.

The **degradation ladder** is the graceful-overload story: under
sustained pressure the daemon steps down

    full -> defer_migrations -> sample_only -> monitor_only

shedding progressively more policy work per rung (migrations gated,
then policy invoked only every Nth batch, then never) while accesses
keep being serviced, and climbs back up rung by rung once calm --
with hysteresis so a noisy load cannot make it oscillate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

#: Backpressure modes for the bounded per-tenant request queues.
#: - ``block``: a full queue refuses the offer and the producer must
#:   retry (the driver holds the batch and offers it again next round);
#: - ``shed-oldest``: a full queue evicts its oldest entry to admit
#:   the new one (freshness wins; the evicted request is counted shed);
#: - ``reject``: a full queue refuses and *drops* the offer (the
#:   client sees the rejection; counted rejected).
BACKPRESSURE_MODES = ("block", "shed-oldest", "reject")

#: Degradation-ladder rungs, least to most degraded.  ``full`` runs
#: the policy on every batch with migrations enabled;
#: ``defer_migrations`` still runs the policy but gates all page
#: moves; ``sample_only`` additionally invokes the policy only every
#: ``sample_only_stride``-th batch; ``monitor_only`` never invokes it
#: (pure access accounting).
DEGRADATION_MODES = (
    "full",
    "defer_migrations",
    "sample_only",
    "monitor_only",
)


@dataclass
class ServeConfig:
    """Tunables of one :class:`~repro.serve.daemon.TieringDaemon`."""

    # --- queues / backpressure ---
    #: Bounded depth of each tenant's request queue.
    queue_capacity: int = 64
    #: One of :data:`BACKPRESSURE_MODES`.
    backpressure: str = "shed-oldest"

    # --- per-tick deadline budget ---
    #: Policy-overhead budget per tick (simulated ns).  Once a tick's
    #: cumulative policy overhead crosses it, remaining batches of the
    #: tick are serviced without policy work and a ``deadline_exceeded``
    #: event fires.  0 disables the deadline.
    tick_budget_ns: float = 0.0
    #: Hard cap on batches serviced per tick (bounds tick latency even
    #: in monitor-only mode).
    max_batches_per_tick: int = 8

    # --- degradation ladder (hysteresis both ways) ---
    #: A tick counts as overloaded when the aggregate queue fill
    #: fraction at tick end is >= this (or its budget was exceeded).
    degrade_queue_high: float = 0.75
    #: A tick counts as calm when the fill fraction stays <= this and
    #: the budget held.
    promote_queue_low: float = 0.25
    #: Consecutive overloaded ticks before stepping one rung down.
    degrade_after_ticks: int = 3
    #: Consecutive calm ticks before re-promoting one rung up.
    promote_after_ticks: int = 8
    #: In ``sample_only`` mode the policy runs every Nth batch.
    sample_only_stride: int = 4

    # --- watchdog / recovery ---
    #: Restarts the watchdog allows before giving up (raising
    #: :class:`~repro.serve.watchdog.WatchdogGaveUp`).
    max_restarts: int = 3

    # --- checkpointing ---
    #: Save a daemon checkpoint every N ticks (0 = only the final
    #: drain checkpoint; needs a checkpoint directory either way).
    checkpoint_every_ticks: int = 0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.backpressure!r}"
            )
        if self.tick_budget_ns < 0:
            raise ValueError(
                f"tick_budget_ns must be >= 0, got {self.tick_budget_ns}"
            )
        if self.max_batches_per_tick < 1:
            raise ValueError(
                "max_batches_per_tick must be >= 1, got "
                f"{self.max_batches_per_tick}"
            )
        if not 0.0 <= self.promote_queue_low <= self.degrade_queue_high <= 1.0:
            raise ValueError(
                "need 0 <= promote_queue_low <= degrade_queue_high <= 1, got "
                f"low={self.promote_queue_low} high={self.degrade_queue_high}"
            )
        if self.degrade_after_ticks < 1:
            raise ValueError(
                f"degrade_after_ticks must be >= 1, got {self.degrade_after_ticks}"
            )
        if self.promote_after_ticks < 1:
            raise ValueError(
                f"promote_after_ticks must be >= 1, got {self.promote_after_ticks}"
            )
        if self.sample_only_stride < 1:
            raise ValueError(
                f"sample_only_stride must be >= 1, got {self.sample_only_stride}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.checkpoint_every_ticks < 0:
            raise ValueError(
                "checkpoint_every_ticks must be >= 0, got "
                f"{self.checkpoint_every_ticks}"
            )

    # -- round-trip --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServeConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ServeConfig fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)
