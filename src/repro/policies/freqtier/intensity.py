"""Dynamic tiering intensity (paper Sections IV-C and V-B2, Fig. 6).

FreqTier modulates how hard it works based on whether tiering is still
paying off:

- Sampling runs at one of three levels (100/10/1 kHz).  Each window,
  if the local-DRAM hit ratio was *stable* (within 0.5% across
  windows) the level drops one step; if unstable it rises one step.
- At the lowest level, a stable window sends the system into
  **monitoring mode**: PEBS off, perf-stat counting only.
- Two more triggers enter monitoring mode directly: a **promotion
  plateau** (no pages promoted in the last window -- relevant for
  GAP-like workloads whose hit ratio is naturally noisy) and an
  **empty demotion scan** (a full pass over the address space found no
  cold pages in local DRAM).
- In monitoring mode, a hit-ratio deviation beyond the stability
  epsilon from the reference ratio means the access distribution
  changed: sampling restarts at the highest level (Fig. 11 shows this
  detection within one window).

State and level changes are emitted as ``state_transition`` /
``level_change`` trace events through the controller's tracer (see
:mod:`repro.obs`); pass a recording tracer to observe them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.obs import NULL_TRACER, Tracer
from repro.sampling.pebs import SamplingLevel
from repro.sampling.perf_stat import PerfStatCounter
from repro.state.codec import Stateful


class TieringState(enum.Enum):
    """Top-level runtime state (paper Fig. 6)."""

    SAMPLING = "sampling"
    MONITORING = "monitoring"


@dataclass
class WindowReport:
    """What happened during one observation window."""

    pages_promoted: int
    empty_demotion_scan: bool
    #: Promotion passes (sample-batch processings) run this window.
    #: A promotion plateau is only meaningful if tiering actually ran:
    #: a window with zero passes (e.g. the very first, before the
    #: sample buffer fills) must not trigger monitoring mode.
    processing_rounds: int = 0


class IntensityController(Stateful):
    """The sampling-level / monitoring-mode state machine."""

    _state_fields = ("state", "level", "_reference_ratio", "perf")

    def __init__(
        self,
        stability_epsilon: float = 0.005,
        initial_level: SamplingLevel = SamplingLevel.HIGH,
        tracer: Tracer = NULL_TRACER,
    ):
        self.perf = PerfStatCounter(stability_epsilon=stability_epsilon)
        self.state = TieringState.SAMPLING
        self.level = SamplingLevel(initial_level)
        self._reference_ratio: float | None = None
        self.tracer = tracer

    # -- events -----------------------------------------------------------

    def count_accesses(self, local: int, cxl: int) -> None:
        """Feed the always-on counting monitor."""
        self.perf.count(local, cxl)

    def end_window(self, report: WindowReport, now_ns: float) -> None:
        """Close a window and run the state machine once."""
        ratio = self.perf.close_window()
        if self.state == TieringState.MONITORING:
            self._monitoring_step(ratio, now_ns)
        else:
            self._sampling_step(report, now_ns)

    # -- state steps -----------------------------------------------------------

    def _sampling_step(self, report: WindowReport, now_ns: float) -> None:
        if report.empty_demotion_scan:
            self._enter_monitoring(now_ns, reason="empty-demotion-scan")
            return
        if report.processing_rounds > 0 and report.pages_promoted == 0:
            self._enter_monitoring(now_ns, reason="promotion-plateau")
            return
        if self.perf.is_stable():
            if self.level > SamplingLevel.LOW:
                self._set_level(
                    SamplingLevel(self.level - 1), now_ns, reason="stable"
                )
            else:
                self._enter_monitoring(now_ns, reason="stable-at-lowest")
        else:
            if self.level < SamplingLevel.HIGH:
                self._set_level(
                    SamplingLevel(self.level + 1), now_ns, reason="unstable"
                )

    def _monitoring_step(self, ratio: float | None, now_ns: float) -> None:
        if ratio is None:
            return
        if self._reference_ratio is None:
            # The window closed at monitoring entry can be empty (e.g.
            # an empty-demotion-scan trigger before any traffic), so
            # adopt the first ratio observed *while* monitoring as the
            # reference -- otherwise the check below can never fire and
            # the policy is stuck in monitoring mode for good.
            self._reference_ratio = ratio
            return
        if self.perf.changed_since_stable(self._reference_ratio):
            # Distribution changed: back to full-rate sampling.
            self.state = TieringState.SAMPLING
            self.level = SamplingLevel.HIGH
            self._reference_ratio = None
            if self.tracer.enabled:
                self.tracer.emit(
                    "state_transition",
                    t_ns=now_ns,
                    **{
                        "from": TieringState.MONITORING.value,
                        "to": TieringState.SAMPLING.value,
                        "reason": "distribution-change",
                        "level": self.level.name,
                    },
                )

    def _enter_monitoring(self, now_ns: float, reason: str) -> None:
        self.state = TieringState.MONITORING
        self.level = SamplingLevel.OFF
        self._reference_ratio = self.perf.last_window_hit_ratio
        if self.tracer.enabled:
            self.tracer.emit(
                "state_transition",
                t_ns=now_ns,
                **{
                    "from": TieringState.SAMPLING.value,
                    "to": TieringState.MONITORING.value,
                    "reason": reason,
                    "level": self.level.name,
                },
            )

    def _set_level(
        self, level: SamplingLevel, now_ns: float, reason: str
    ) -> None:
        old = self.level
        self.level = level
        if self.tracer.enabled:
            self.tracer.emit(
                "level_change",
                t_ns=now_ns,
                **{"from": old.name, "to": level.name, "reason": reason},
            )

    # -- queries ---------------------------------------------------------------

    @property
    def sampling_active(self) -> bool:
        return self.state == TieringState.SAMPLING
