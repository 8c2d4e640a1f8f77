"""perf-stat style counting-only monitoring (paper Section V-B2).

In FreqTier's monitoring mode the PEBS samplers are switched off and
only two counting events remain: local-DRAM accesses and CXL accesses.
Counting (as opposed to sampling) has negligible overhead; the policy
uses the windowed hit ratio to detect access-distribution changes and
re-arm sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.state.codec import Stateful


@dataclass
class _Window(Stateful):
    _state_fields = ("local", "cxl")

    local: int = 0
    cxl: int = 0

    @property
    def total(self) -> int:
        return self.local + self.cxl

    @property
    def hit_ratio(self) -> float | None:
        if self.total == 0:
            return None
        return self.local / self.total


class PerfStatCounter(Stateful):
    """Windowed local/CXL access counters with stability detection.

    The paper declares the hit ratio *stable* when consecutive
    one-minute windows vary within 0.5% (Section V-B2); the same rule
    is exposed here via :meth:`is_stable`, parameterized by
    ``stability_epsilon``.
    """

    _state_fields = ("_current", "_closed", "total_local", "total_cxl")

    def __init__(self, stability_epsilon: float = 0.005, history: int = 16):
        if stability_epsilon <= 0:
            raise ValueError(
                f"stability_epsilon must be > 0, got {stability_epsilon}"
            )
        if history < 2:
            raise ValueError(f"history must be >= 2, got {history}")
        self.stability_epsilon = float(stability_epsilon)
        self.history_limit = int(history)
        self._current = _Window()
        self._closed: list[float] = []
        self.total_local = 0
        self.total_cxl = 0

    # -- counting ---------------------------------------------------------

    def count(self, local: int, cxl: int) -> None:
        """Accumulate accesses into the open window."""
        if local < 0 or cxl < 0:
            raise ValueError("counts must be >= 0")
        self._current.local += local
        self._current.cxl += cxl
        self.total_local += local
        self.total_cxl += cxl

    def close_window(self) -> float | None:
        """Finish the current window; returns its hit ratio (None if empty)."""
        ratio = self._current.hit_ratio
        if ratio is not None:
            self._closed.append(ratio)
            if len(self._closed) > self.history_limit:
                self._closed.pop(0)
        self._current = _Window()
        return ratio

    # -- queries -------------------------------------------------------------

    @property
    def current_window_hit_ratio(self) -> float | None:
        return self._current.hit_ratio

    @property
    def last_window_hit_ratio(self) -> float | None:
        return self._closed[-1] if self._closed else None

    @property
    def overall_hit_ratio(self) -> float | None:
        total = self.total_local + self.total_cxl
        if total == 0:
            return None
        return self.total_local / total

    def is_stable(self, windows: int = 2) -> bool:
        """True when the last ``windows`` closed windows vary within epsilon."""
        if windows < 2:
            raise ValueError(f"windows must be >= 2, got {windows}")
        if len(self._closed) < windows:
            return False
        recent = self._closed[-windows:]
        return max(recent) - min(recent) <= self.stability_epsilon

    def changed_since_stable(self, reference: float) -> bool:
        """True when the last closed window deviates from ``reference``.

        FreqTier's monitoring-mode rule (``IntensityController``): a
        deviation beyond epsilon means the access distribution shifted
        and sampling must restart.
        """
        last = self.last_window_hit_ratio
        if last is None:
            return False
        return abs(last - reference) > self.stability_epsilon
