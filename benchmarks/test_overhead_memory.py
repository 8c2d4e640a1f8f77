"""Section VII-C: memory overhead of FreqTier vs HeMem.

Paper: for a 267 GB CacheLib footprint, FreqTier consumes < 100 MB
(CBF + 16 MB of perf ring buffers, < 0.04% of footprint) while HeMem's
168 B/page metadata exceeds 11 GB (~4%), a ~110x difference.

This bench computes both at the paper's *full* scale (the sizing rules
are closed-form, no simulation needed) and also reports the simulated
policies' modeled metadata from a real run.
"""


from repro import compare_policies, paper
from repro._units import GiB, MiB, PAGE_SIZE
from repro.analysis.tables import format_rows
from repro.cbf.exact import HEMEM_BYTES_PER_PAGE
from repro.cbf.sizing import cbf_bytes_for_fpr

PAPER_FOOTPRINT_GB = 267
PAPER_LOCAL_GB = 16
PERF_RING_BYTES = 16 * MiB  # 512 KB x 16 cores x 2 counters


def paper_scale_overheads():
    footprint_pages = PAPER_FOOTPRINT_GB * GiB // PAGE_SIZE
    local_pages = PAPER_LOCAL_GB * GiB // PAGE_SIZE
    freqtier = cbf_bytes_for_fpr(local_pages, 1e-3, 3) + PERF_RING_BYTES
    hemem = footprint_pages * HEMEM_BYTES_PER_PAGE
    return freqtier, hemem, footprint_pages * PAGE_SIZE


def test_overhead_memory(benchmark):
    freqtier_bytes, hemem_bytes, footprint_bytes = benchmark.pedantic(
        paper_scale_overheads, rounds=1, iterations=1
    )

    print("\n=== Section VII-C: memory overhead at paper scale (267 GB) ===")
    print(
        format_rows(
            ["system", "metadata", "% of footprint"],
            [
                [
                    "FreqTier",
                    f"{freqtier_bytes / MiB:.1f} MB",
                    f"{freqtier_bytes / footprint_bytes:.3%}",
                ],
                [
                    "HeMem",
                    f"{hemem_bytes / GiB:.1f} GB",
                    f"{hemem_bytes / footprint_bytes:.2%}",
                ],
            ],
        )
    )
    ratio = hemem_bytes / freqtier_bytes
    print(f"  HeMem / FreqTier = {ratio:.0f}x (paper: ~110x)")

    # FreqTier < 100 MB and < 0.04% of footprint (paper's numbers).
    assert freqtier_bytes < 100 * MiB
    assert freqtier_bytes / footprint_bytes < 0.0005
    # HeMem ~11 GB, ~4% of footprint.
    assert 9 * GiB < hemem_bytes < 13 * GiB
    assert 0.03 < hemem_bytes / footprint_bytes < 0.05
    # The headline ratio is in the paper's ballpark.
    assert 50 < ratio < 300

    # Simulated policies report consistent modeled metadata.
    policies = paper.policies(1)
    runs = compare_policies(
        paper.workloads(1)["cdn"],
        {name: policies[name] for name in ("FreqTier", "HeMem")},
        paper.config("cachelib", max_batches=60, seed=1),
        include_all_local=False,
    )
    ft, hm = runs["FreqTier"], runs["HeMem"]
    print(
        f"  simulated run metadata: FreqTier "
        f"{ft.policy_stats['metadata_bytes'] / 1024:.0f} KB, HeMem "
        f"{hm.policy_stats['metadata_bytes'] / 1024:.0f} KB"
    )
    assert hm.policy_stats["metadata_bytes"] > 10 * ft.policy_stats["metadata_bytes"]
