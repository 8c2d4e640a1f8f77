"""Small-scale checks of the paper's headline claims.

Full-size reproductions live in benchmarks/; these are fast versions
asserting the claims' *direction* so the unit suite guards them.
"""

import pytest

from repro import (
    AutoNUMA,
    CacheLibWorkload,
    CDN_PROFILE,
    FreqTier,
    HeMem,
    SOCIAL_PROFILE,
    TPP,
    compare_policies,
    paper,
)
from repro.memsim.tier import CXL2_CONFIG


def cdn_factory():
    return CacheLibWorkload(
        CDN_PROFILE, slab_pages=8192, ops_per_batch=6000, seed=21
    )


def freqtier():
    return FreqTier(seed=21)


POLICIES = {
    "FreqTier": freqtier,
    "AutoNUMA": AutoNUMA,
    "TPP": TPP,
    "HeMem": HeMem,
}


@pytest.fixture(scope="module")
def cdn_results_132():
    config = paper.config("cachelib", "1:32", max_batches=250, seed=21)
    return compare_policies(cdn_factory, POLICIES, config)


class TestHeadlineClaims:
    def test_freqtier_wins_at_1_32(self, cdn_results_132):
        """Table II: FreqTier outperforms every baseline at 1:32."""
        base = cdn_results_132["AllLocal"]
        rel = {
            name: res.relative_to(base)["throughput"]
            for name, res in cdn_results_132.items()
            if name != "AllLocal"
        }
        for name in ("AutoNUMA", "TPP", "HeMem"):
            assert rel["FreqTier"] > rel[name], (name, rel)

    def test_freqtier_highest_hit_ratio(self, cdn_results_132):
        """Fig. 9: FreqTier's local-DRAM hit ratio tops the baselines."""
        hits = {
            name: res.steady_hit_ratio for name, res in cdn_results_132.items()
        }
        for name in ("AutoNUMA", "TPP"):
            assert hits["FreqTier"] > hits[name]
        # The paper reports ~90% at full scale; this down-scaled cache
        # (coarser item granularity) lands slightly lower.
        assert hits["FreqTier"] >= 0.80

    def test_freqtier_migrates_far_less(self, cdn_results_132):
        """Section III: ~4.2x less migration traffic than prior works."""
        ft = cdn_results_132["FreqTier"].migration_bytes
        prior_avg = (
            cdn_results_132["AutoNUMA"].migration_bytes
            + cdn_results_132["TPP"].migration_bytes
        ) / 2
        assert prior_avg > 3 * ft

    def test_recency_systems_lose_accuracy_not_hemem(self, cdn_results_132):
        """Section II-C: frequency-based HeMem classifies better than
        the recency systems (its losses are overhead, not accuracy)."""
        assert (
            cdn_results_132["HeMem"].steady_hit_ratio
            > cdn_results_132["TPP"].steady_hit_ratio
        )


class TestCapacityScaling:
    def test_freqtier_at_1_32_matches_autonuma_at_1_16(self):
        """Table II's 2x-less-DRAM claim, small scale."""
        cfg_132 = paper.config("cachelib", "1:32", max_batches=200, seed=22)
        cfg_116 = paper.config("cachelib", "1:16", max_batches=200, seed=22)
        results_ft = compare_policies(cdn_factory, {"FreqTier": freqtier}, cfg_132)
        results_an = compare_policies(cdn_factory, {"AutoNUMA": AutoNUMA}, cfg_116)
        ft = results_ft["FreqTier"].relative_to(results_ft["AllLocal"])["throughput"]
        an = results_an["AutoNUMA"].relative_to(results_an["AllLocal"])["throughput"]
        assert ft >= an - 0.02  # FreqTier with half the DRAM keeps up

    def test_gap_narrows_with_more_dram(self):
        """Section VII-A observation 2: FreqTier's edge shrinks at 1:8."""
        gaps = {}
        for label in ("1:32", "1:8"):
            cfg = paper.config("cachelib", label, max_batches=200, seed=23)
            res = compare_policies(
                cdn_factory, {"FreqTier": freqtier, "AutoNUMA": AutoNUMA}, cfg
            )
            base = res["AllLocal"]
            gaps[label] = (
                res["FreqTier"].relative_to(base)["throughput"]
                - res["AutoNUMA"].relative_to(base)["throughput"]
            )
        assert gaps["1:32"] > gaps["1:8"] - 0.01


class TestLowBandwidthCXL:
    def test_freqtier_beats_autonuma_on_cxl2(self):
        """Fig. 10: the advantage generalizes to low-bandwidth CXL."""
        config = paper.config(
            "cachelib", "1:32", memory=CXL2_CONFIG, max_batches=200, seed=24
        )
        res = compare_policies(
            lambda: CacheLibWorkload(
                SOCIAL_PROFILE, slab_pages=8192, ops_per_batch=6000, seed=24
            ),
            {"FreqTier": freqtier, "AutoNUMA": AutoNUMA},
            config,
        )
        base = res["AllLocal"]
        ft = res["FreqTier"].relative_to(base)["throughput"]
        an = res["AutoNUMA"].relative_to(base)["throughput"]
        assert ft > an
