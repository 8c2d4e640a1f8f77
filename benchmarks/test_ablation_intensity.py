"""Ablation: dynamic tiering intensity vs fixed sampling rates.

Paper Section V-B2: FreqTier starts at 100 kHz and steps down as the
hit ratio stabilizes, entering a counting-only monitoring mode at the
end.  This ablation disables the ladder (fixed HIGH forever) and shows
the adaptive version keeps the same hit ratio with a fraction of the
sampling work -- the overhead the paper's dynamic mechanism exists to
avoid.
"""

import pytest

from repro import FreqTier, PolicySpec, compare_policies, run_experiment, paper
from repro.analysis.tables import format_rows
from repro.policies.freqtier.intensity import IntensityController, TieringState
from repro.sampling.pebs import SamplingLevel

CONFIG = paper.config("cachelib", max_batches=500, seed=1)


class _FixedHighController(IntensityController):
    """Intensity controller with the ladder disabled (always HIGH)."""

    def end_window(self, report, now_ns):
        self.perf.close_window()
        self.state = TieringState.SAMPLING
        self.level = SamplingLevel.HIGH


class FixedRateFreqTier(FreqTier):
    name = "FreqTier-fixed-100kHz"

    def attach(self, machine):
        super().attach(machine)
        fixed = _FixedHighController(
            stability_epsilon=self.config.stability_epsilon
        )
        self.intensity = fixed


@pytest.fixture(scope="module")
def results():
    wf = paper.workloads(1)["cdn"]
    results = compare_policies(
        wf, {"adaptive": PolicySpec("freqtier", seed=1)}, CONFIG
    )
    # A test-local subclass: no registry builds it, so it runs inline.
    fixed = run_experiment(wf, lambda: FixedRateFreqTier(seed=1), CONFIG)
    return results["AllLocal"], results["adaptive"], fixed


def test_ablation_dynamic_intensity(benchmark, results):
    base, adaptive, fixed = results
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = [
        [
            name,
            f"{res.relative_to(base)['throughput']:.1%}",
            f"{res.steady_hit_ratio:.1%}",
            f"{res.policy_stats['samples_processed']:.0f}",
            f"{res.policy_stats['overhead_ns'] / 1e6:.1f} ms",
        ]
        for name, res in (("adaptive", adaptive), ("fixed-100kHz", fixed))
    ]
    print("\n=== Ablation: dynamic intensity vs fixed 100 kHz ===")
    print(
        format_rows(
            ["variant", "throughput", "hit ratio", "samples", "overhead"], rows
        )
    )

    # Same tiering quality...
    assert adaptive.steady_hit_ratio > fixed.steady_hit_ratio - 0.03
    # ...with much less sampling work once stabilized.
    assert (
        adaptive.policy_stats["samples_processed"]
        < fixed.policy_stats["samples_processed"] * 0.7
    )
    # And no throughput penalty.
    assert (
        adaptive.relative_to(base)["throughput"]
        >= fixed.relative_to(base)["throughput"] - 0.02
    )
