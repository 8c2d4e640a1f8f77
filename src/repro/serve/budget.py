"""Per-tick deadline budgets and the graceful-degradation ladder.

Two small state machines the daemon consults every tick:

- :class:`TickBudget` charges each serviced batch's *policy overhead*
  (simulated ns, from :class:`~repro.core.engine.StepOutcome`) against
  a per-tick allowance.  Once exhausted, the tick's remaining batches
  are serviced with the policy switched off -- the tail of a tick can
  never blow the latency deadline because of an expensive policy pass.

- :class:`DegradationLadder` converts a per-tick overload verdict
  (queue fill above the high watermark, or a blown budget) into a mode
  walk down :data:`~repro.serve.config.DEGRADATION_MODES`, and a calm
  verdict into a walk back up -- both gated by consecutive-tick
  hysteresis so one noisy tick cannot flap the mode.
"""

from __future__ import annotations

from typing import Any

from repro.serve.config import DEGRADATION_MODES, ServeConfig
from repro.state.codec import Stateful


class TickBudget:
    """Policy-overhead allowance for one tick (virtual ns)."""

    def __init__(self, budget_ns: float):
        if budget_ns < 0:
            raise ValueError(f"budget_ns must be >= 0, got {budget_ns}")
        self.budget_ns = float(budget_ns)
        self.spent_ns = 0.0

    @property
    def enabled(self) -> bool:
        return self.budget_ns > 0

    @property
    def exceeded(self) -> bool:
        return self.enabled and self.spent_ns > self.budget_ns

    def charge(self, overhead_ns: float) -> None:
        self.spent_ns += float(overhead_ns)

    def reset(self, budget_ns: float | None = None) -> None:
        if budget_ns is not None:
            self.budget_ns = float(budget_ns)
        self.spent_ns = 0.0


class DegradationLadder(Stateful):
    """Hysteresis-gated walk over the degradation modes.

    :meth:`observe_tick` is called once per tick with that tick's
    overload evidence; it returns the ``(old, new)`` mode pair when the
    mode changed (so the daemon can emit a ``degraded`` event) or
    ``None``.  Overload streaks step one rung *down* per
    ``degrade_after_ticks`` consecutive overloaded ticks; calm streaks
    step one rung *up* per ``promote_after_ticks`` consecutive calm
    ticks.  Ticks that are neither (fill between the watermarks) reset
    both streaks -- ambiguous pressure holds the current rung.
    """

    _state_fields = ("mode", "overloaded_streak", "calm_streak")

    def __init__(self, config: ServeConfig):
        self.config = config
        self.mode = DEGRADATION_MODES[0]
        self.overloaded_streak = 0
        self.calm_streak = 0

    @property
    def rung(self) -> int:
        return DEGRADATION_MODES.index(self.mode)

    def observe_tick(
        self, fill_fraction: float, budget_exceeded: bool
    ) -> tuple[str, str] | None:
        cfg = self.config
        overloaded = budget_exceeded or fill_fraction >= cfg.degrade_queue_high
        calm = not budget_exceeded and fill_fraction <= cfg.promote_queue_low
        if overloaded:
            self.overloaded_streak += 1
            self.calm_streak = 0
            if (
                self.overloaded_streak >= cfg.degrade_after_ticks
                and self.rung < len(DEGRADATION_MODES) - 1
            ):
                old = self.mode
                self.mode = DEGRADATION_MODES[self.rung + 1]
                self.overloaded_streak = 0
                return old, self.mode
        elif calm:
            self.calm_streak += 1
            self.overloaded_streak = 0
            if self.calm_streak >= cfg.promote_after_ticks and self.rung > 0:
                old = self.mode
                self.mode = DEGRADATION_MODES[self.rung - 1]
                self.calm_streak = 0
                return old, self.mode
        else:
            self.overloaded_streak = 0
            self.calm_streak = 0
        return None

    # -- per-rung behaviour ------------------------------------------------

    @property
    def migrations_enabled(self) -> bool:
        """Migrations run only on the top rung."""
        return self.mode == "full"

    def invoke_policy(self, batch_index: int) -> bool:
        """Whether the policy runs for the ``batch_index``-th batch of
        the current tick (0-based)."""
        if self.mode in ("full", "defer_migrations"):
            return True
        if self.mode == "sample_only":
            return batch_index % self.config.sample_only_stride == 0
        return False  # monitor_only

    # -- checkpointing -----------------------------------------------------

    def load_state(self, state: dict[str, Any]) -> None:
        mode = state["mode"]
        if mode not in DEGRADATION_MODES:
            raise ValueError(
                f"unknown degradation mode {mode!r}; "
                f"known: {DEGRADATION_MODES}"
            )
        super().load_state(state)
