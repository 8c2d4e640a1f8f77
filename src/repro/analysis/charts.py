"""Minimal text charts for benchmark and example output.

No plotting dependency is available offline, so figures render as
unicode-free ASCII sparklines for timelines.  Used by the run
report (:mod:`repro.analysis.report`).
"""

from __future__ import annotations

from collections.abc import Sequence

_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], lo: float | None = None,
              hi: float | None = None) -> str:
    """One-line intensity strip of ``values`` scaled to [lo, hi]."""
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _LEVELS[-1] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_LEVELS) - 1))
        out.append(_LEVELS[max(0, min(idx, len(_LEVELS) - 1))])
    return "".join(out)
