"""Per-run counter and histogram aggregation.

These are the tracer's scalar side: while trace *events* capture the
temporal story, the registries reduce a run's activity to per-run
aggregates (samples lost, scan chunks touched, CBF ops, migration
batch sizes) that merge into ``ExperimentResult.policy_stats`` so
reports and benchmark tables can pick them up without parsing a trace
file.
"""

from __future__ import annotations

import math
from typing import Any


class CounterRegistry:
    """Named monotonically increasing counters."""

    def __init__(self) -> None:
        self._counts: dict[str, float] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> float:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


#: Log-bucket growth factor: each bucket spans an ~8% value range, so
#: a quantile estimate is off by at most ~4% of the true value -- tight
#: enough for SLO reporting (p50/p99/p999) at O(log range) memory.
_BUCKET_GROWTH = 1.08
_LOG_GROWTH = math.log(_BUCKET_GROWTH)
#: Virtual bucket index for values <= 0 (ordered before all log
#: buckets; the representative value is the histogram's observed min).
_NONPOS_BUCKET = -(10**9)

#: The quantiles :meth:`HistogramRegistry.summary` reports.
SUMMARY_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p99", 0.99),
    ("p999", 0.999),
)


class HistogramRegistry:
    """Named streaming histograms (moments + log-bucket quantiles).

    Values are reduced on the fly -- no sample list is kept.  Each
    observation updates four running moments (count/sum/min/max) and
    one fixed log-scale bucket counter, so memory stays O(log value
    range) per histogram and the registries are cheap enough to leave
    enabled for whole grids.  :meth:`quantile` walks the buckets --
    estimates carry the bucket's ~4% relative error and are clamped to
    the exact observed [min, max].
    """

    def __init__(self) -> None:
        self._stats: dict[str, list[float]] = {}  # [count, sum, min, max]
        self._buckets: dict[str, dict[int, int]] = {}

    @staticmethod
    def _bucket_of(value: float) -> int:
        if value <= 0.0:
            return _NONPOS_BUCKET
        return math.floor(math.log(value) / _LOG_GROWTH)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"cannot observe NaN in histogram {name!r}")
        stats = self._stats.get(name)
        if stats is None:
            self._stats[name] = [1.0, value, value, value]
            self._buckets[name] = {self._bucket_of(value): 1}
            return
        stats[0] += 1.0
        stats[1] += value
        stats[2] = min(stats[2], value)
        stats[3] = max(stats[3], value)
        buckets = self._buckets[name]
        idx = self._bucket_of(value)
        buckets[idx] = buckets.get(idx, 0) + 1

    def quantile(self, name: str, q: float) -> float | None:
        """Streaming quantile estimate for ``q`` in [0, 1].

        Walks the log buckets in value order until the cumulative count
        covers ``q`` of the observations and returns that bucket's
        geometric midpoint, clamped to the exact observed min/max (so
        q=0 and q=1 are exact, and single-value histograms are exact at
        every q).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        stats = self._stats.get(name)
        if stats is None:
            return None
        count, _, lo, hi = stats
        target = q * count
        cumulative = 0.0
        for idx in sorted(self._buckets[name]):
            cumulative += self._buckets[name][idx]
            if cumulative >= target:
                if idx == _NONPOS_BUCKET:
                    return lo
                mid = _BUCKET_GROWTH ** (idx + 0.5)
                return min(max(mid, lo), hi)
        return hi

    def summary(self, name: str) -> dict[str, float] | None:
        stats = self._stats.get(name)
        if stats is None:
            return None
        count, total, lo, hi = stats
        out = {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count,
        }
        for label, q in SUMMARY_QUANTILES:
            out[label] = self.quantile(name, q)
        return out

    def as_dict(self) -> dict[str, float]:
        """Flattened ``{name_stat: value}`` view of every histogram."""
        out: dict[str, float] = {}
        for name in self._stats:
            for stat, value in self.summary(name).items():
                out[f"{name}_{stat}"] = value
        return out

    def __len__(self) -> int:
        return len(self._stats)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Moments plus buckets per histogram: O(buckets), not O(samples).

        Buckets are ``[idx, count]`` pairs because snapshot dict keys
        must be strings.
        """
        return {
            name: {
                "stats": list(stats),
                "buckets": [
                    [idx, count]
                    for idx, count in sorted(self._buckets[name].items())
                ],
            }
            for name, stats in self._stats.items()
        }

    def load_state(self, state: dict[str, Any]) -> None:
        self._stats = {
            name: [float(v) for v in hist["stats"]]
            for name, hist in state.items()
        }
        self._buckets = {
            name: {int(idx): int(count) for idx, count in hist["buckets"]}
            for name, hist in state.items()
        }
