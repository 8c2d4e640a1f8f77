"""Crash/stall detection and restart accounting for the daemon loop.

The :class:`Watchdog` does not itself run the recovery -- the daemon's
``recover()`` rebuilds the engine from the newest checkpoint -- it is
the *accountant*: it decides whether another restart is allowed
(bounded by ``max_restarts``, raising :class:`WatchdogGaveUp` past the
budget) and, for the asyncio loop, watches a wall-clock heartbeat to
flag a stalled tick that never raised.

Crash detection in the virtual-time driver is purely exceptional: a
tick that raises (e.g. :class:`~repro.faults.InjectedCrash`) is caught
by ``tick_guarded()`` and routed here.  Wall-clock stall detection is
only armed in the asyncio serving mode (``watchdog_stall_s > 0``) --
the deterministic driver has no wall-clock contract.
"""

from __future__ import annotations

import time
from typing import Any

from repro.state.codec import Stateful


class WatchdogGaveUp(RuntimeError):
    """The loop crashed more times than ``max_restarts`` allows."""

    def __init__(self, restarts: int, last_reason: str):
        super().__init__(
            f"watchdog gave up after {restarts} restart(s); "
            f"last failure: {last_reason}"
        )
        self.restarts = restarts
        self.last_reason = last_reason


class Watchdog(Stateful):
    """Restart budget plus optional wall-clock heartbeat."""

    #: Restart accounting only (the heartbeat is wall-clock ephemera).
    _state_fields = ("restarts", "last_reason")

    def __init__(self, max_restarts: int, stall_timeout_s: float = 0.0):
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if stall_timeout_s < 0:
            raise ValueError(
                f"stall_timeout_s must be >= 0, got {stall_timeout_s}"
            )
        self.max_restarts = int(max_restarts)
        self.stall_timeout_s = float(stall_timeout_s)
        self.restarts = 0
        self.last_reason: str | None = None
        self._last_beat = time.monotonic()

    # -- crash path --------------------------------------------------------

    def on_failure(self, reason: str) -> int:
        """Record one loop failure; returns the restart ordinal.

        Raises :class:`WatchdogGaveUp` when the budget is exhausted --
        the caller must let that propagate (a supervisor above the
        daemon owns the terminal decision).
        """
        self.last_reason = reason
        if self.restarts >= self.max_restarts:
            raise WatchdogGaveUp(self.restarts, reason)
        self.restarts += 1
        return self.restarts

    # -- stall path (asyncio serving only) ---------------------------------

    def beat(self) -> None:
        """Mark loop liveness (called at every tick boundary)."""
        self._last_beat = time.monotonic()

    @property
    def stalled(self) -> bool:
        """True when the heartbeat is older than the stall timeout."""
        if self.stall_timeout_s <= 0:
            return False
        return time.monotonic() - self._last_beat > self.stall_timeout_s

    # -- checkpointing -----------------------------------------------------

    def load_state(self, state: dict[str, Any]) -> None:
        super().load_state(state)
        self._last_beat = time.monotonic()
