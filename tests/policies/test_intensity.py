"""Tests for the dynamic tiering-intensity state machine (Fig. 6)."""

import pytest

from repro.obs import ListSink, Tracer
from repro.policies.freqtier.intensity import (
    IntensityController,
    TieringState,
    WindowReport,
)
from repro.sampling.pebs import SamplingLevel


def window(promoted=10, empty_scan=False, rounds=1) -> WindowReport:
    return WindowReport(
        pages_promoted=promoted,
        empty_demotion_scan=empty_scan,
        processing_rounds=rounds,
    )


def feed_stable(ctl: IntensityController, local=900, cxl=100):
    ctl.count_accesses(local, cxl)


def traced_controller(**kwargs) -> tuple[IntensityController, ListSink]:
    """Controller wired to a recording tracer (the transitions log)."""
    sink = ListSink()
    ctl = IntensityController(tracer=Tracer(sinks=[sink]), **kwargs)
    return ctl, sink


class TestLevelLadder:
    def test_starts_sampling_high(self):
        ctl = IntensityController()
        assert ctl.state == TieringState.SAMPLING
        assert ctl.level == SamplingLevel.HIGH

    def test_stable_windows_step_down(self):
        # Stability needs two closed windows, so the ladder moves from
        # the second stable window onward.
        ctl = IntensityController()
        feed_stable(ctl)
        ctl.end_window(window(), now_ns=0.0)
        assert ctl.level == SamplingLevel.HIGH
        for expected in (SamplingLevel.MEDIUM, SamplingLevel.LOW):
            feed_stable(ctl)
            ctl.end_window(window(), now_ns=0.0)
            assert ctl.level == expected
        # One more stable window at LOW -> monitoring.
        feed_stable(ctl)
        ctl.end_window(window(), now_ns=0.0)
        assert ctl.state == TieringState.MONITORING
        assert ctl.level == SamplingLevel.OFF

    def test_unstable_window_steps_up(self):
        ctl = IntensityController()
        # Three stable windows: HIGH (no info) -> MEDIUM -> LOW.
        for __ in range(3):
            feed_stable(ctl)
            ctl.end_window(window(), 0.0)
        assert ctl.level == SamplingLevel.LOW
        # Unstable ratio: jump from 0.9 to 0.5.
        ctl.count_accesses(500, 500)
        ctl.end_window(window(), 0.0)
        assert ctl.level == SamplingLevel.MEDIUM

    def test_level_capped_at_high(self):
        ctl = IntensityController()
        ctl.count_accesses(900, 100)
        ctl.end_window(window(), 0.0)
        ctl.count_accesses(100, 900)
        ctl.end_window(window(), 0.0)
        assert ctl.level <= SamplingLevel.HIGH

    def test_first_window_never_steps(self):
        # A single window has no stability information.
        ctl = IntensityController()
        feed_stable(ctl)
        ctl.end_window(window(), 0.0)
        assert ctl.level == SamplingLevel.HIGH


class TestMonitoringTriggers:
    def test_promotion_plateau_enters_monitoring(self):
        ctl, sink = traced_controller()
        feed_stable(ctl)
        ctl.end_window(window(promoted=0, rounds=3), 0.0)
        assert ctl.state == TieringState.MONITORING
        assert any(
            e["reason"] == "promotion-plateau"
            for e in sink.of_type("state_transition")
        )

    def test_plateau_requires_processing_rounds(self):
        """No promotion pass ran -> not a plateau (e.g. first window)."""
        ctl = IntensityController()
        feed_stable(ctl)
        ctl.end_window(window(promoted=0, rounds=0), 0.0)
        assert ctl.state == TieringState.SAMPLING

    def test_empty_demotion_scan_enters_monitoring(self):
        ctl, sink = traced_controller()
        feed_stable(ctl)
        ctl.end_window(window(empty_scan=True), 0.0)
        assert ctl.state == TieringState.MONITORING
        assert any(
            e["reason"] == "empty-demotion-scan"
            for e in sink.of_type("state_transition")
        )


class TestMonitoringMode:
    def make_monitoring(self) -> IntensityController:
        ctl = IntensityController()
        feed_stable(ctl)
        ctl.end_window(window(promoted=0, rounds=1), 0.0)
        assert ctl.state == TieringState.MONITORING
        return ctl

    def make_traced_monitoring(self) -> tuple[IntensityController, "ListSink"]:
        ctl, sink = traced_controller()
        feed_stable(ctl)
        ctl.end_window(window(promoted=0, rounds=1), 0.0)
        assert ctl.state == TieringState.MONITORING
        return ctl, sink

    def test_stays_monitoring_while_stable(self):
        ctl = self.make_monitoring()
        for __ in range(5):
            feed_stable(ctl)
            ctl.end_window(window(), 0.0)
        assert ctl.state == TieringState.MONITORING

    def test_distribution_change_resumes_sampling_at_high(self):
        """Paper Fig. 11: monitoring detects the shift and re-arms."""
        ctl, sink = self.make_traced_monitoring()
        ctl.count_accesses(300, 700)  # hit ratio collapsed
        ctl.end_window(window(), now_ns=42.0)
        assert ctl.state == TieringState.SAMPLING
        assert ctl.level == SamplingLevel.HIGH
        resumes = [
            e
            for e in sink.of_type("state_transition")
            if e["to"] == "sampling"
        ]
        assert len(resumes) == 1
        assert resumes[0]["reason"] == "distribution-change"
        assert resumes[0]["t_ns"] == 42.0

    def test_empty_monitoring_window_is_ignored(self):
        ctl = self.make_monitoring()
        ctl.end_window(window(), 0.0)  # no accesses counted
        assert ctl.state == TieringState.MONITORING

    def test_sampling_active_flag(self):
        ctl = IntensityController()
        assert ctl.sampling_active
        ctl2 = self.make_monitoring()
        assert not ctl2.sampling_active


class TestTraceEvents:
    def test_level_changes_emitted(self):
        ctl, sink = traced_controller()
        for __ in range(3):
            feed_stable(ctl)
            ctl.end_window(window(), 0.0)
        downs = sink.of_type("level_change")
        assert [(e["from"], e["to"]) for e in downs] == [
            ("HIGH", "MEDIUM"),
            ("MEDIUM", "LOW"),
        ]
        assert all(e["reason"] == "stable" for e in downs)

    def test_level_up_emitted_on_instability(self):
        ctl, sink = traced_controller()
        for __ in range(3):
            feed_stable(ctl)
            ctl.end_window(window(), 0.0)
        ctl.count_accesses(500, 500)
        ctl.end_window(window(), 0.0)
        last = sink.of_type("level_change")[-1]
        assert (last["from"], last["to"], last["reason"]) == (
            "LOW",
            "MEDIUM",
            "unstable",
        )

    def test_default_tracer_is_noop(self):
        ctl = IntensityController()
        feed_stable(ctl)
        ctl.end_window(window(empty_scan=True), 0.0)
        assert ctl.state == TieringState.MONITORING  # no tracer needed


class TestMonitoringDeadlockRegression:
    """The None-reference monitoring deadlock (pre-fix: stuck forever).

    Entering monitoring mode off a window that closed empty (e.g. an
    empty-demotion-scan trigger before any window saw traffic) used to
    store ``None`` as the reference hit ratio; ``_monitoring_step``
    then early-returned on every later window and sampling never
    resumed.  The fix adopts the first non-None ratio observed while
    monitoring as the reference.
    """

    def enter_with_none_reference(self):
        ctl, sink = traced_controller()
        # No traffic before entry: the closed window has no hit ratio.
        ctl.end_window(window(empty_scan=True), 0.0)
        assert ctl.state == TieringState.MONITORING
        assert ctl._reference_ratio is None
        return ctl, sink

    def test_first_ratio_becomes_reference_not_a_resume(self):
        ctl, __ = self.enter_with_none_reference()
        ctl.count_accesses(900, 100)
        ctl.end_window(window(), 1.0)
        assert ctl.state == TieringState.MONITORING
        assert ctl._reference_ratio == pytest.approx(0.9)

    def test_policy_resumes_sampling_after_distribution_change(self):
        ctl, sink = self.enter_with_none_reference()
        ctl.count_accesses(900, 100)
        ctl.end_window(window(), 1.0)  # adopted as reference
        ctl.count_accesses(100, 900)
        ctl.end_window(window(), 2.0)  # deviates: must resume
        assert ctl.state == TieringState.SAMPLING
        assert ctl.level == SamplingLevel.HIGH
        assert any(
            e["to"] == "sampling" for e in sink.of_type("state_transition")
        )

    def test_stable_ratio_after_adoption_keeps_monitoring(self):
        ctl, __ = self.enter_with_none_reference()
        for now in range(1, 6):
            ctl.count_accesses(900, 100)
            ctl.end_window(window(), float(now))
        assert ctl.state == TieringState.MONITORING

    def test_empty_windows_while_monitoring_still_ignored(self):
        ctl, __ = self.enter_with_none_reference()
        for now in range(1, 4):
            ctl.end_window(window(), float(now))  # no traffic at all
        assert ctl.state == TieringState.MONITORING
        assert ctl._reference_ratio is None
