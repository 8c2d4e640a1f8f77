"""Figure 8: latency and bandwidth of the emulated CXL configurations.

Paper (Intel MLC measurements of the NUMA-emulated devices):

- local DRAM: ~110 ns idle latency, ~85 GB/s;
- CXL-1 (8 remote channels): +~100 ns, ~45% of local bandwidth;
- CXL-2 (1 remote channel):  +~300 ns, <10% of local bandwidth.

This bench plays the role of the Memory Latency Checker: it probes the
cost model directly and prints the Fig. 8 table, then validates the
paper's characterization ranges (50-100+ ns adder; 20-70% bandwidth for
the fast device).
"""

import pytest

from repro.analysis.tables import format_rows
from repro.memsim.costmodel import CostModel
from repro.memsim.tier import CXL1_CONFIG, CXL2_CONFIG, LOCAL_DRAM


def measure(model: CostModel, cxl: bool, accesses: int = 100_000):
    """MLC-style probe: idle latency and sustained bandwidth."""
    tier = model.memory.cxl if cxl else model.memory.local
    idle_latency = tier.latency_ns
    # Saturating sequential read: 4 KB per access.
    cost = model.batch_cost(
        0.0,
        0 if cxl else accesses,
        accesses if cxl else 0,
        bytes_per_access=4096,
    )
    time_ns = cost.local_mem_ns if not cxl else cost.cxl_mem_ns
    bandwidth_gbps = accesses * 4096 / time_ns  # bytes/ns == GB/s
    return idle_latency, bandwidth_gbps


def test_fig08_emulated_devices(benchmark):
    model1 = CostModel(CXL1_CONFIG)
    model2 = CostModel(CXL2_CONFIG)
    benchmark.pedantic(
        lambda: measure(model1, cxl=True), rounds=1, iterations=1
    )

    local_lat, local_bw = measure(model1, cxl=False)
    cxl1_lat, cxl1_bw = measure(model1, cxl=True)
    cxl2_lat, cxl2_bw = measure(model2, cxl=True)

    print("\n=== Fig. 8: emulated device characteristics ===")
    print(
        format_rows(
            ["device", "idle latency (ns)", "bandwidth (GB/s)"],
            [
                ["local DRAM", f"{local_lat:.0f}", f"{local_bw:.1f}"],
                ["CXL-1", f"{cxl1_lat:.0f}", f"{cxl1_bw:.1f}"],
                ["CXL-2", f"{cxl2_lat:.0f}", f"{cxl2_bw:.1f}"],
            ],
        )
    )

    # Latency adders in the paper's 50-100+ ns range.
    assert 50 <= cxl1_lat - local_lat <= 150
    assert cxl2_lat - local_lat > cxl1_lat - local_lat

    # Bandwidth fractions: CXL-1 in the 20-70% band, CXL-2 far below.
    assert 0.2 <= cxl1_bw / local_bw <= 0.7
    assert cxl2_bw / local_bw < 0.1

    # The probe recovers the configured peak bandwidths.
    assert local_bw == pytest.approx(LOCAL_DRAM.bandwidth_gbps, rel=0.01)
    assert cxl1_bw == pytest.approx(CXL1_CONFIG.cxl.bandwidth_gbps, rel=0.01)
