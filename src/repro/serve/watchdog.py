"""Restart accounting for the daemon's crash recovery.

The :class:`Watchdog` does not itself run the recovery -- the daemon's
``recover()`` rebuilds the engine from the newest checkpoint -- it is
the *accountant*: it decides whether another restart is allowed
(bounded by ``max_restarts``, raising :class:`WatchdogGaveUp` past the
budget).

Crash detection is purely exceptional: a tick that raises (e.g.
:class:`~repro.faults.InjectedCrash`) is caught by ``tick_guarded()``
and routed here.
"""

from __future__ import annotations

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
    """The restart budget and the count of restarts spent."""

    _state_fields = ("restarts", "last_reason")

    def __init__(self, max_restarts: int):
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.max_restarts = int(max_restarts)
        self.restarts = 0
        self.last_reason: str | None = None

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
