"""Metric arithmetic shared by the benchmark and its tests.

Everything here is a pure function of numbers the benchmark measured,
so the tests in ``perfbench/tests`` can pin the arithmetic without
running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence

#: A reported percentile must have at least this many samples above it,
#: otherwise it only restates the maximum.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples`` (``0 < q < 1``).

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie strictly above the reported rank, so a tail figure is
    never read off a handful of points.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need >= {MIN_SAMPLES_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def served_frac(attempted: int, failed: int) -> float:
    """Share of ``attempted`` units that completed (``1 - failed_frac``).

    Grids attempt cells and fail the ones that come back as
    ``FailedCell``; the serve daemon attempts every distinct batch a
    tenant offers and fails the ones it sheds or rejects.
    """
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return (attempted - failed) / attempted


def digest(obj: object) -> str:
    """sha256 of ``obj`` as canonical JSON (sorted keys, exact floats).

    ``repr`` of a float round-trips exactly, so two results digest equal
    only when every simulated number is bit-identical.
    """
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()
