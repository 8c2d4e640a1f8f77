"""Fast Zipfian sampling.

Large-memory workloads exhibit Zipfian access popularity (paper
Section II-B, after the Twitter and Meta cache studies): the access
probability of the item with popularity rank ``r`` is proportional to
``r^-alpha``.  :class:`ZipfianSampler` draws item *ids* (not ranks)
from that law over a fixed universe:

- ranks are drawn by Walker/Vose **alias sampling**: the rank
  distribution is preprocessed once into an alias table, after which
  every draw is O(1) (one uniform lane pick plus one accept/alias
  coin) instead of the O(log n) binary search of inverse-CDF sampling;
- a seeded permutation maps ranks to item ids, scattering hot items
  across the id space the way hot pages scatter across a real heap
  (without this, hot data would be contiguous and linear scans would
  see an unrealistically easy layout).

The alias method consumes a different RNG sequence than inverse-CDF
``searchsorted`` sampling did, so fixed-seed draws are statistically
equivalent, not bit-identical, to older releases (see docs/API.md
"Performance").
"""

from __future__ import annotations

import numpy as np

from repro.state.codec import Stateful


def build_alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table for the distribution proportional to ``weights``.

    Returns ``(accept, alias)``: to sample, draw lane ``i`` uniformly
    and uniform ``u``; the sample is ``i`` if ``u < accept[i]`` else
    ``alias[i]``.  Construction is O(n) and deterministic (no RNG), so
    the table is a pure function of the weights.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0) or not np.isfinite(weights).all():
        raise ValueError("weights must be finite and non-negative")
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("weights must not sum to zero")
    n = weights.size
    scaled = weights * (n / total)
    accept = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = list(np.nonzero(scaled < 1.0)[0])
    large = list(np.nonzero(scaled >= 1.0)[0])
    while small and large:
        s = small.pop()
        big = large.pop()
        accept[s] = scaled[s]
        alias[s] = big
        scaled[big] -= 1.0 - scaled[s]
        (small if scaled[big] < 1.0 else large).append(big)
    # Leftovers are probability ~1 up to float round-off.
    for i in small:
        accept[i] = 1.0
    for i in large:
        accept[i] = 1.0
    return accept, alias


class ZipfianSampler(Stateful):
    """Samples item ids with Zipf(alpha) popularity over ``num_items``.

    Checkpoints its RNG and, once :meth:`reassign_ranks` has churned it,
    its rank permutation.  Until then the permutation is a pure function
    of the seed, like the CDF and alias tables are of ``(num_items,
    alpha)``, so an unchurned sampler's state is just its RNG.
    """

    _state_fields = ("_rng", "_churned_ranks")

    def __init__(
        self,
        num_items: int,
        alpha: float,
        seed: int = 0,
        permute: bool = True,
    ):
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.num_items = int(num_items)
        self.alpha = float(alpha)
        self._seed = seed
        self._permute = bool(permute)
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, self.num_items + 1, dtype=np.float64)
        self._weights = ranks**-alpha
        self._cdf = np.cumsum(self._weights)
        self._cdf /= self._cdf[-1]
        # Built on the first draw: a workload built only for its layout
        # (the inner workload of a shared-stream replay) never pays for
        # the O(n) Python loop.
        self._accept: np.ndarray | None = None
        self._alias: np.ndarray | None = None
        self._rank_to_item = self._seeded_ranks(self._rng)
        #: Whether churn has moved the rank map off its seeded form.
        self._churned = False

    def _seeded_ranks(self, rng: np.random.Generator) -> np.ndarray:
        """The rank->item map before any churn (draws from ``rng``)."""
        if self._permute:
            return rng.permutation(self.num_items)
        return np.arange(self.num_items)

    @property
    def _churned_ranks(self) -> np.ndarray | None:
        """The rank->item map once churned; ``None`` while it is seeded."""
        return self._rank_to_item if self._churned else None

    @_churned_ranks.setter
    def _churned_ranks(self, ranks: np.ndarray | None) -> None:
        if ranks is not None:
            self._rank_to_item = ranks
        elif self._churned:
            self._rank_to_item = self._seeded_ranks(
                np.random.default_rng(self._seed)
            )
        self._churned = ranks is not None

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` item ids (int64) from the Zipf law."""
        return self._rank_to_item[self.sample_ranks(size)]

    def sample_ranks(self, size: int) -> np.ndarray:
        """Draw popularity *ranks* (0-based, 0 = hottest) in O(1) each."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if size == 0:
            return np.zeros(0, dtype=np.int64)
        if self._accept is None:
            self._accept, self._alias = build_alias_table(self._weights)
        # Single-uniform alias draw: u * n splits into an integer lane
        # (the floor) and an independent Uniform[0,1) coin (the
        # fraction).  One generator call replaces the separate
        # bounded-integer (rejection-sampled) and coin draws, and the
        # alias table is only gathered for the rejected lanes.
        scaled = self._rng.random(size)
        scaled *= self.num_items
        lanes = scaled.astype(np.int64)
        # u < 1 guarantees u*n < n exactly; the clip only guards the
        # pathological round-to-n at the very top of the mantissa.
        np.minimum(lanes, self.num_items - 1, out=lanes)
        np.subtract(scaled, lanes, out=scaled)
        rejected = np.flatnonzero(scaled >= self._accept[lanes])
        if rejected.size:
            lanes[rejected] = self._alias[lanes[rejected]]
        return lanes

    def item_of_rank(self, rank: int) -> int:
        """The item id occupying popularity rank ``rank``."""
        return int(self._rank_to_item[rank])

    def top_items(self, count: int) -> np.ndarray:
        """Item ids of the ``count`` hottest ranks."""
        return self._rank_to_item[:count].astype(np.int64)

    def reassign_ranks(self, num_swaps: int) -> int:
        """Churn: swap ``num_swaps`` random pairs in the rank->item map.

        Models key-popularity churn (paper Section VII-D: CacheLib
        workloads "experience a high degree of churn"): items trade
        popularity ranks, so previously hot items cool down and cold
        ones heat up, without changing the overall distribution shape.
        Returns the number of swaps performed.

        The swaps apply in vectorized rounds that are exactly
        equivalent to performing them one at a time: a swap is applied
        once no earlier pending swap shares an index with it, and the
        swaps applied together in one round are then pairwise disjoint,
        so a single fancy-indexed exchange is safe.  Duplicate indices
        across swaps therefore chase values the same way the sequential
        loop did, and the map remains a permutation.
        """
        if num_swaps <= 0:
            return 0
        self._churned = True
        a = self._rng.integers(0, self.num_items, size=num_swaps)
        b = self._rng.integers(0, self.num_items, size=num_swaps)
        items = self._rank_to_item
        # First-occurrence scratch: left uninitialized on purpose; only
        # slots just written are ever read back.
        first_occ = np.empty(self.num_items, dtype=np.int64)
        while a.size:
            # Interleave [a0, b0, a1, b1, ...]; swap i is applicable
            # iff neither index occurs before flat slot 2i.
            flat = np.empty(2 * a.size, dtype=np.int64)
            flat[0::2] = a
            flat[1::2] = b
            slots = np.arange(2 * a.size, dtype=np.int64)
            # Fancy assignment keeps the *last* write per index, so
            # scattering slot numbers in reverse order leaves each
            # touched index holding its first occurrence -- no sort.
            first_occ[flat[::-1]] = slots[::-1]
            first_of = first_occ[flat]
            slot = slots[0::2]
            safe = (first_of[0::2] >= slot) & (first_of[1::2] >= slot)
            sa, sb = a[safe], b[safe]
            tmp = items[sa].copy()
            items[sa] = items[sb]
            items[sb] = tmp
            a, b = a[~safe], b[~safe]
        return int(num_swaps)

    def mass_of_top_fraction(self, fraction: float) -> float:
        """Access probability mass of the hottest ``fraction`` of items.

        E.g. the paper's reference point: Zipf(0.9) puts ~80% of
        accesses on the top 10% of items.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        k = int(round(fraction * self.num_items))
        if k == 0:
            return 0.0
        return float(self._cdf[k - 1])
