"""Ablation: blocked CBF vs classic CBF (paper Section V-C(b)).

Paper: confining each page's counters to one 64-byte block bounds
every CBF access to a single cache line, with negligible counting
accuracy loss.  The bench measures both properties on a sampled
CacheLib stream: worst-case lines touched per access, and the accuracy
of hot-page classification against an exact oracle.
"""

import numpy as np
import pytest

from repro import paper
from repro.cbf.blocked import BlockedCountingBloomFilter
from repro.cbf.cbf import CountingBloomFilter
from repro.cbf.exact import ExactFrequencyTracker
from repro.core.runner import build_machine
from repro.sampling.pebs import PEBSSampler


@pytest.fixture(scope="module")
def samples() -> np.ndarray:
    workload = paper.workloads(6)["cdn"]()
    config = paper.config("cachelib", seed=6)
    machine = build_machine(workload.footprint_pages, config)
    workload.setup(machine)
    sampler = PEBSSampler(base_period=16, seed=6)
    gen = iter(workload.batches())
    for __ in range(40):
        batch = next(gen)
        sampler.observe(batch)
    return sampler.drain().page_ids.astype(np.uint64)


def classification(tracker, samples: np.ndarray, threshold: int = 5) -> np.ndarray:
    uniq = np.unique(samples)
    return np.asarray(tracker.get(uniq)) >= threshold


def test_ablation_blocked_cbf(benchmark, samples):
    def run_blocked():
        cbf = BlockedCountingBloomFilter(
            num_counters=65_536, num_hashes=3, bits=4, seed=7
        )
        uniq, counts = np.unique(samples, return_counts=True)
        cbf.increase(uniq, counts)
        return cbf

    blocked = benchmark.pedantic(run_blocked, rounds=1, iterations=1)

    classic = CountingBloomFilter(num_counters=65_536, num_hashes=3, bits=4, seed=7)
    oracle = ExactFrequencyTracker(max_count=15)
    uniq, counts = np.unique(samples, return_counts=True)
    classic.increase(uniq, counts)
    oracle.increase(uniq, counts)

    truth = classification(oracle, samples)
    agree_blocked = np.mean(classification(blocked, samples) == truth)
    agree_classic = np.mean(classification(classic, samples) == truth)

    print("\n=== Ablation: blocked vs classic CBF ===")
    print(f"  cache lines per access: blocked=1, classic<=3")
    print(f"  hot/cold agreement with oracle: classic={agree_classic:.2%}, "
          f"blocked={agree_blocked:.2%}")

    # Single-cache-line bound is structural.
    assert blocked.cache_lines_per_access == 1
    # Negligible accuracy loss (paper's claim).
    assert agree_blocked > 0.97
    assert agree_blocked > agree_classic - 0.02
