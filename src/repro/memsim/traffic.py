"""Memory traffic accounting (paper Figure 2).

The paper breaks total memory traffic into three components:

- **local DRAM accesses** -- L3 misses serviced from local DRAM,
- **CXL memory accesses** -- L3 misses serviced from CXL memory,
- **page migration** -- bytes moved by promotions and demotions.

:class:`TrafficMeter` tracks all three (in bytes) plus page-granular
migration counts, and produces the Figure 2 percentage breakdown and
the local-DRAM hit ratio used throughout the evaluation.

Accounting conventions: every sampled application access is one
64-byte cache-line transfer from its tier; a migrated page is one
``PAGE_SIZE`` read from the source tier plus one ``PAGE_SIZE`` write to
the destination tier (2x page size total), matching how the emulated
machine's memory controllers observe a page copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import PAGE_SIZE
from repro.state.codec import Stateful

#: Bytes per application memory access (one cache line).
CACHE_LINE_BYTES = 64


@dataclass
class TrafficMeter(Stateful):
    """Running byte/page counters for one simulation."""

    _state_fields = (
        "local_access_bytes",
        "cxl_access_bytes",
        "migration_bytes",
        "pages_promoted",
        "pages_demoted",
        "local_accesses",
        "cxl_accesses",
    )

    local_access_bytes: int = 0
    cxl_access_bytes: int = 0
    migration_bytes: int = 0
    pages_promoted: int = 0
    pages_demoted: int = 0
    local_accesses: int = 0
    cxl_accesses: int = 0

    # -- recording -------------------------------------------------------

    def record_accesses(self, local: int, cxl: int) -> None:
        """Record application accesses serviced per tier."""
        if local < 0 or cxl < 0:
            raise ValueError("access counts must be >= 0")
        self.local_accesses += local
        self.cxl_accesses += cxl
        self.local_access_bytes += local * CACHE_LINE_BYTES
        self.cxl_access_bytes += cxl * CACHE_LINE_BYTES

    def record_migration(self, pages: int, promotion: bool) -> None:
        """Record ``pages`` migrated (promotion if True, else demotion)."""
        if pages < 0:
            raise ValueError(f"pages must be >= 0, got {pages}")
        if promotion:
            self.pages_promoted += pages
        else:
            self.pages_demoted += pages
        self.migration_bytes += pages * PAGE_SIZE * 2

    # -- derived metrics -----------------------------------------------------

    @property
    def total_accesses(self) -> int:
        return self.local_accesses + self.cxl_accesses

    @property
    def total_bytes(self) -> int:
        return self.local_access_bytes + self.cxl_access_bytes + self.migration_bytes

    @property
    def local_hit_ratio(self) -> float:
        """Fraction of application accesses serviced from local DRAM."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        return self.local_accesses / total

    @property
    def pages_migrated(self) -> int:
        return self.pages_promoted + self.pages_demoted

    def breakdown(self) -> dict[str, float]:
        """Figure-2-style traffic shares (fractions of total bytes)."""
        total = self.total_bytes
        if total == 0:
            return {"local": 0.0, "cxl": 0.0, "migration": 0.0}
        return {
            "local": self.local_access_bytes / total,
            "cxl": self.cxl_access_bytes / total,
            "migration": self.migration_bytes / total,
        }
