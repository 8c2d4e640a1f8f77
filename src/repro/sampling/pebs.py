"""PEBS-style hardware access sampling (paper Sections IV-A, V-B2).

FreqTier programs two PEBS counters per core -- one for local-DRAM
loads, one for CXL loads -- and drains their ring buffers from the
tiering thread.  The essential statistical property is that PEBS is a
(nearly) uniform sampler of the L3-miss stream, so the simulator's
analogue subsamples the simulated access stream with the same
three-level rate scheme:

- ``SamplingLevel.HIGH``   -- the paper's 100 kHz,
- ``SamplingLevel.MEDIUM`` -- 10 kHz,
- ``SamplingLevel.LOW``    -- 1 kHz,

each level sampling 10x fewer accesses than the previous one.  The
ring buffer is bounded (the paper sizes 512 KB per counter per core);
samples beyond its capacity within one drain interval are lost, which
matters at high access rates and is reported via
:attr:`SampleBatch.lost`.

Sampling uses geometric-gap *skip sampling*: instead of drawing one
uniform per offered access (Bernoulli thinning), the sampler draws the
gaps between consecutive samples from Geometric(1/period) and jumps
straight to the next sampled access.  The two schemes induce exactly
the same law -- sample counts are Binomial(n, 1/period) and sampled
positions are uniform -- but skip sampling costs O(samples) RNG work
instead of O(accesses), which is the point of the paper's "lightweight"
claim: at LOW level only ~1 in 6400 accesses pays any work at all.
The gap state carries across batches, so the sampled stream is
identical to thinning one infinite concatenated stream.

Skip sampling draws a *different* RNG sequence than the seed
implementation's per-access thinning: for a fixed seed the sampled
stream is statistically equivalent, not bit-identical, to older
releases (see docs/API.md "Performance").
"""

from __future__ import annotations

import enum

import numpy as np

from repro import accel
from repro.sampling.events import AccessBatch, SampleBatch
from repro.state.codec import Stateful

#: Shared zero-length result for batches the sampler skips entirely
#: (callers only read it, so one instance serves every sampler).
_EMPTY_POSITIONS = np.zeros(0, dtype=np.int64)

#: Bytes per PEBS record (paper Section VII-E2: 16 bytes per sample).
SAMPLE_RECORD_BYTES = 16

#: Default ring capacity: 512 KB x 16 cores x 2 counters / 16 B/record.
DEFAULT_RING_CAPACITY = (512 * 1024 * 16 * 2) // SAMPLE_RECORD_BYTES


class SamplingLevel(enum.IntEnum):
    """The three sampling intensities of Section V-B2 (plus OFF)."""

    OFF = 0
    LOW = 1  # 1 kHz
    MEDIUM = 2  # 10 kHz
    HIGH = 3  # 100 kHz

    @property
    def nominal_hz(self) -> int:
        return {0: 0, 1: 1_000, 2: 10_000, 3: 100_000}[int(self)]


class PEBSSampler(Stateful):
    """Uniform subsampler of the access stream with a bounded ring buffer.

    Parameters
    ----------
    base_period:
        Number of accesses per sample at ``HIGH`` level.  Each level
        below HIGH multiplies the period by 10 (matching the paper's
        100/10/1 kHz ladder).
    ring_capacity:
        Maximum samples held between :meth:`drain` calls.
    sample_cost_ns:
        Modeled CPU cost per collected sample (PEBS assist + record
        parse); :meth:`observe` returns it summed over the samples kept.
    seed:
        Seed for the geometric skip-sampling stream.
    """

    #: Everything mutable: RNG, ring contents, gap carry, counters.
    _state_fields = (
        "level",
        "_rng",
        "_pending_pages",
        "_pending_count",
        "_lost",
        "total_samples",
        "total_lost",
        "total_offered",
        "rng_values_drawn",
        "_next_pos",
        "_gap_prob",
    )

    def __init__(
        self,
        base_period: int = 64,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        sample_cost_ns: float = 120.0,
        seed: int = 0,
    ):
        if base_period < 1:
            raise ValueError(f"base_period must be >= 1, got {base_period}")
        if ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {ring_capacity}")
        self.base_period = int(base_period)
        self.ring_capacity = int(ring_capacity)
        self.sample_cost_ns = float(sample_cost_ns)
        self.level = SamplingLevel.HIGH
        #: Optional :class:`~repro.faults.FaultInjector`: when set,
        #: :meth:`observe` is subject to sample-loss bursts (counted as
        #: lost, like ring overruns) and sample-id corruption.
        self.fault_injector = None
        self._rng = np.random.default_rng(seed)
        self._pending_pages: list[np.ndarray] = []
        self._pending_count = 0
        self._lost = 0
        self.total_samples = 0
        self.total_lost = 0
        #: Accesses offered to :meth:`observe` while sampling was on.
        self.total_offered = 0
        #: RNG values consumed by the skip sampler (the quantity skip
        #: sampling reduces from O(offered) to O(sampled)).
        self.rng_values_drawn = 0
        # Skip-sampling gap state: position of the next sample relative
        # to the start of the next observed batch, and the probability
        # it was drawn at (a level change invalidates the carry).
        self._next_pos: int | None = None
        self._gap_prob = 0.0
        # Grow-only scratch for sample positions (not checkpointed:
        # contents are consumed within each observe() call).
        self._pos_buf = np.empty(0, dtype=np.int64)

    # -- level control -----------------------------------------------------

    def set_level(self, level: SamplingLevel) -> None:
        self.level = SamplingLevel(level)

    @property
    def period(self) -> int | None:
        """Accesses per sample at the current level (None when OFF)."""
        if self.level == SamplingLevel.OFF:
            return None
        steps_below_high = SamplingLevel.HIGH - self.level
        return self.base_period * (10**steps_below_high)

    @property
    def sampling_probability(self) -> float:
        period = self.period
        return 0.0 if period is None else 1.0 / period

    # -- observation ----------------------------------------------------------

    def observe(self, batch: AccessBatch) -> float:
        """Show an access batch to the sampler; returns the modeled ns.

        A Binomial(n, 1/period) subsample of the accesses -- positioned
        uniformly, via geometric gap skipping -- lands in the ring
        buffer; overflow beyond ``ring_capacity`` is dropped and
        counted as lost.  Cost is O(samples), not O(accesses): sampled
        pages are resolved positionally via :meth:`AccessBatch.pages_at`
        without expanding the stream.  The return value is the CPU tax
        of the samples kept, ``sample_cost_ns`` each; lost samples cost
        nothing.
        """
        prob = self.sampling_probability
        if prob <= 0.0 or batch.num_accesses == 0:
            if prob <= 0.0:
                # OFF: the pending gap no longer describes anything.
                self._next_pos = None
            return 0.0
        self.total_offered += batch.num_accesses
        positions = self._sample_positions(batch.num_accesses, prob)
        n_hit = int(positions.size)
        if n_hit == 0:
            return 0.0
        if self.fault_injector is not None:
            injected_loss = self.fault_injector.sample_loss(n_hit)
            if injected_loss:
                # Loss bursts drop the whole observed batch, exactly
                # like a ring overrun -- reported through the same
                # lost-sample accounting.
                self._lost += injected_loss
                self.total_lost += injected_loss
                return 0.0
        space = self.ring_capacity - self._pending_count
        if space <= 0:
            self._lost += n_hit
            self.total_lost += n_hit
            return 0.0
        if n_hit > space:
            self._lost += n_hit - space
            self.total_lost += n_hit - space
            positions = positions[:space]
            n_hit = space
        # Gap sampling emits strictly ascending positions.
        sampled_pages = batch.pages_at(positions, assume_sorted=True)
        if self.fault_injector is not None:
            sampled_pages = self.fault_injector.corrupt_samples(sampled_pages)
        self._pending_pages.append(sampled_pages)
        self._pending_count += n_hit
        self.total_samples += n_hit
        return n_hit * self.sample_cost_ns

    def _sample_positions(self, n: int, prob: float) -> np.ndarray:
        """Positions of this batch's samples, in program order.

        Gaps between consecutive samples are iid Geometric(prob) --
        exactly the law of success positions in a Bernoulli(prob)
        stream -- and the final gap carries over to the next batch so
        batching boundaries are invisible to the statistics.  A level
        change redraws the carried gap at the new probability.
        """
        if self._next_pos is None or self._gap_prob != prob:
            self._next_pos = int(self._rng.geometric(prob)) - 1
            self._gap_prob = prob
            self.rng_values_drawn += 1
        pos = self._next_pos
        if pos >= n:
            self._next_pos = pos - n
            return _EMPTY_POSITIONS
        total = 0
        buf = self._pos_buf
        while True:
            # Draw enough gaps to cross the batch end with ~6-sigma
            # headroom; the rare shortfall just loops once more.
            expected = (n - pos) * prob
            draw = int(expected + 6.0 * np.sqrt(expected)) + 16
            need = total + draw + 1
            if buf.size < need:
                grown = np.empty(max(need, 2 * buf.size), dtype=np.int64)
                grown[:total] = buf[:total]
                buf = self._pos_buf = grown
            gaps = self._rng.geometric(prob, size=draw)
            self.rng_values_drawn += draw
            # Fused expansion: cumulate the gaps, keep positions < n,
            # and report the carry past the batch end in one kernel.
            count, carry, last = accel.gap_positions(
                gaps, pos, n, buf[total:]
            )
            total += count
            if carry >= 0:
                # First position past the batch is the carried gap.
                self._next_pos = carry
                break
            pos = last + int(self._rng.geometric(prob))
            self.rng_values_drawn += 1
            if pos >= n:
                self._next_pos = pos - n
                break
        return buf[:total]

    # -- draining -----------------------------------------------------------------

    @property
    def pending_samples(self) -> int:
        return self._pending_count

    def drain(self) -> SampleBatch:
        """Hand all buffered samples to the policy and empty the ring."""
        if self._pending_count == 0:
            out = SampleBatch.empty()
            out.lost = self._lost
            self._lost = 0
            return out
        pages = np.concatenate(self._pending_pages)
        out = SampleBatch(page_ids=pages, lost=self._lost)
        self._pending_pages.clear()
        self._pending_count = 0
        self._lost = 0
        return out

    def discard_pending(self) -> int:
        """Drop all buffered samples, counting them as lost.

        Used on the SAMPLING -> MONITORING transition: samples left in
        the ring were taken against placements that may have changed by
        the time sampling resumes, so replaying them later would feed
        the CBF stale hotness.  Returns the number discarded.
        """
        discarded = self._pending_count
        self._pending_pages.clear()
        self._pending_count = 0
        # Goes straight to total_lost, not the per-drain carry: the
        # caller reports the discard itself, and routing it through the
        # next drain() would double-count it as a capacity overflow.
        self.total_lost += discarded
        return discarded
