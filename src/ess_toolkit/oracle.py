"""Query-model access to a distribution: sampling and probability lookups.

A :class:`DualOracle` answers batches of queries -- draw samples, or draw
samples together with their own probabilities -- and probability lookups
of single labels, while counting every query.  Draws go through an alias
table whose slots are the canonical positions of the positive-probability
elements, so a draw is a canonical rank; ``dist.order`` maps it to its
element.  Draws are plain numpy pipelines.

Each draw consumes exactly one uniform double from the generator; the
sample stream is therefore a function of (seed, number of draws) alone,
and chunked batching cannot change what is drawn.

On top of the draws the oracle offers the two statistics the estimator
needs, each charged as the full batch of probability-revealing queries it
stands for:

* :meth:`DualOracle.order_statistic` (stage one) draws r canonical ranks
  from the stream and selects the k-th smallest in O(r) time and r*4
  bytes.  It returns exactly the element that sorting the same draws by
  (probability, label) would select, for every seed.
* :meth:`DualOracle.inverse_prob_sum` (stage two) returns sum(1/p) over t
  draws that rank at or above a pivot without making the draws: it groups
  the elements at or above the pivot into runs of equal probability and
  draws one multinomial count vector over those runs plus one cell for the
  rest (Devroye, *Non-Uniform Random Variate Generation*, 1986).  That is
  the law of t draws exactly.  The runs come from the distribution's
  ``run_bounds``, built once with its canonical order, so the cost is a
  bisect for the pivot's position plus O(runs above the pivot), one
  binomial per run, independent of t and of n.
"""

from __future__ import annotations

import bisect
import operator

import numpy as np

from .distribution import DiscreteDistribution
from .errors import OutOfRangeError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stage-one draws are made in fixed-size chunks; 64Ki keeps each chunk's
# working set inside the CPU caches.  The chunk size never changes what is
# drawn (one uniform per draw).
_CHUNK = 1 << 16

_INT32_MAX = np.iinfo(np.int32).max


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed and a stream index into an independent 64-bit seed.

    Pure integer arithmetic (splitmix64 finalizer applied twice), so the
    derived values are identical on every platform and independent of the
    order in which streams are created.
    """
    if operator.index(index) < 0:
        raise OutOfRangeError("stream index must be nonnegative")
    z = (operator.index(master_seed) + (index + 1) * _GOLDEN) & _MASK64
    for _ in range(2):
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums ``0, x[0], x[0]+x[1], ...`` as two float64 arrays.

    ``hi`` is the float64 running sum; ``lo`` is the running sum of the
    rounding error of each of its additions, found exactly by TwoSum (Knuth,
    TAOCP vol. 2, 4.2.2), so ``hi + lo`` carries about twice the precision
    on every platform.  The TwoSum terms are formed in ``lo`` and in ``x``,
    which is overwritten: the two outputs are the only arrays allocated.
    """
    hi = np.zeros(x.size + 1)
    np.cumsum(x, out=hi[1:])
    before, after = hi[:-1], hi[1:]
    lo = np.zeros(x.size + 1)
    # err = (before - (after - added)) + (x - added), added = after - before
    term = lo[1:]
    np.subtract(after, before, out=term)  # added
    x -= term
    np.subtract(after, term, out=term)
    np.subtract(before, term, out=term)
    x += term
    np.cumsum(x, out=lo[1:])
    return hi, lo


class AliasTable:
    """Alias structure over the canonical positions of the positive elements.

    Slot j stands for canonical position ``first + j``, where ``first =
    dist.size - dist.support_size`` skips the zero-probability elements,
    which sort first.  :meth:`draw` returns canonical positions, each with
    probability ``p / dist.total`` of the element at that position;
    ``dist.order`` maps a position to its element.

    The build is Vose's sweep (Vose, IEEE TSE 1991) written as prefix sums.
    Slot weights are scaled to mean 1 and, in canonical order, ascend: the
    slots below 1 (*small*) are a prefix and the rest (*large*) a suffix.
    Small slot j keeps its weight and aliases the first large whose
    cumulative excess reaches the cumulative deficit of the smalls before j.
    A large that the deficits push below 1 keeps ``1 - overshoot`` and
    aliases the next large; the last large keeps 1.  Those depleted larges
    are a prefix of the larges, since both cumulative sums ascend.
    """

    __slots__ = ("first", "size", "accept", "alias")

    def __init__(self, dist: DiscreteDistribution) -> None:
        size = dist.support_size
        if size == 0:
            raise OutOfRangeError("cannot sample: no positive-probability element")
        first = dist.size - size
        # normalize by the exact mass so the table encodes a true
        # distribution even when the stored mass is off by the validator
        # tolerance; scaling by a positive factor keeps the weights sorted
        accept = dist.probs[dist.order[first:]]
        accept *= size / dist.total
        alias = np.arange(size, dtype=np.int32 if size <= _INT32_MAX else np.int64)
        smalls = int(np.searchsorted(accept, 1.0, side="left"))
        larges = size - smalls
        # with no large slot every weight is 1 up to float noise: all accept
        if smalls and larges:
            deficit, deficit_lo = _prefix_sums(1.0 - accept[:smalls])
            excess, excess_lo = _prefix_sums(accept[smalls:] - 1.0)
            # both searches compare the same float64 sums, so whatever the
            # rounding, a large's accept plus the deficits it takes
            # telescope to its weight; deficits past the last large's
            # excess are float noise and go to the last large
            target = np.searchsorted(excess[1:], deficit[:-1], side="left")
            np.minimum(target, larges - 1, out=target)
            target += smalls
            alias[:smalls] = target
            del target
            # a large before the last is depleted by the first small whose
            # cumulative deficit passes its cumulative excess.  The large
            # weights are spent, so their slots of ``accept`` take the
            # overshoot and ``excess``, once read, its low part; the indices
            # are in range, and mode="clip" takes into ``out`` unbuffered
            depleted = int(np.searchsorted(excess[1:-1], deficit[-1], side="left"))
            through = np.searchsorted(
                deficit[1:], excess[1 : depleted + 1], side="right"
            )
            through += 1
            overshoot = accept[smalls : smalls + depleted]
            np.take(deficit, through, out=overshoot, mode="clip")
            overshoot -= excess[1 : depleted + 1]
            overshoot_lo = excess[:depleted]
            np.take(deficit_lo, through, out=overshoot_lo, mode="clip")
            overshoot_lo -= excess_lo[1 : depleted + 1]
            overshoot += overshoot_lo
            np.subtract(1.0, overshoot, out=overshoot)
            np.clip(overshoot, 0.0, 1.0, out=overshoot)
            accept[smalls + depleted :] = 1.0
            alias[smalls : smalls + depleted] += 1
        else:
            accept.fill(1.0)

        self.first = first
        self.size = size
        self.accept = accept
        self.alias = alias

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` canonical positions, one uniform double each."""
        u = rng.random(count)
        v = u * self.size
        bucket = v.astype(np.int64)
        np.minimum(bucket, self.size - 1, out=bucket)  # u*size may round up to size
        np.subtract(v, bucket, out=v)  # fractional part decides accept vs alias
        slot = np.where(v < self.accept[bucket], bucket, self.alias[bucket])
        slot += self.first
        return slot


def sampler_table(dist: DiscreteDistribution) -> AliasTable:
    """Alias table for ``dist``, built once and cached on the distribution."""
    return dist._cached("alias_table", lambda: AliasTable(dist))


class DualOracle:
    """Sampling/evaluation handle over a validated distribution.

    Mutable state (random stream position, query counters) confines one
    instance to a single thread of execution at a time; any number of
    oracles may share one distribution.
    """

    def __init__(self, dist: DiscreteDistribution, seed: int) -> None:
        if not isinstance(dist, DiscreteDistribution):
            raise TypeError("DualOracle requires a validated DiscreteDistribution")
        seed = operator.index(seed)
        if not 0 <= seed <= _MASK64:
            raise OutOfRangeError(f"seed must fit in 64 bits, got {seed}")
        self.dist = dist
        self.seed = seed
        self.samp_count = 0
        self.eval_count = 0
        self._table = sampler_table(dist)
        self._rng = np.random.Generator(np.random.SFC64(seed))

    def eval(self, label) -> float:
        """Exact probability of ``label``; raises UnknownLabelError if absent."""
        p = self.dist.prob_of(label)
        self.eval_count += 1
        return p

    def query_counts(self) -> tuple[int, int]:
        """Current (samp_count, eval_count) without modifying them."""
        return self.samp_count, self.eval_count

    # -- batch queries ----------------------------------------------------

    def _draw_indices(self, count: int) -> np.ndarray:
        count = operator.index(count)
        if count < 0:
            raise OutOfRangeError("sample count must be nonnegative")
        return self.dist.order[self._table.draw(self._rng, count)]

    def samp_many(self, count: int) -> np.ndarray:
        """Draw ``count`` labels as a uint64 array; counts ``count`` SAMP queries."""
        idx = self._draw_indices(count)
        self.samp_count += int(count)
        return self.dist.labels[idx]

    def sample_with_prob_many(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` (label, probability) pairs as parallel arrays.

        Counts ``count`` SAMP queries and ``count`` EVAL queries; the
        probabilities are the exact stored values for the drawn labels.
        """
        idx = self._draw_indices(count)
        self.samp_count += int(count)
        self.eval_count += int(count)
        return self.dist.labels[idx], self.dist.probs[idx]

    # -- the estimator's two statistics -----------------------------------

    def order_statistic(self, count: int, k: int) -> tuple[int, float]:
        """Draw ``count`` probability-revealing samples and return the (label,
        prob) of the one at 0-based position ``k`` in canonical order.

        Counts ``count`` SAMP and ``count`` EVAL queries.  The draws are the
        ones :meth:`sample_with_prob_many` would make from the same stream
        position, and the selected element is the one sorting them by
        (probability, label) would put at position ``k``; the drawn
        canonical ranks are partitioned instead of sorted.
        """
        count = operator.index(count)
        k = operator.index(k)
        if not 0 <= k < count:
            raise OutOfRangeError(f"order statistic {k} of {count} draws")
        dist = self.dist
        table = self._table
        # canonical positions are below dist.size: 4 bytes a draw when it fits
        ranks = np.empty(count, dtype=np.int32 if dist.size <= _INT32_MAX else np.int64)
        for start in range(0, count, _CHUNK):
            stop = min(start + _CHUNK, count)
            ranks[start:stop] = table.draw(self._rng, stop - start)
        self.samp_count += count
        self.eval_count += count
        ranks.partition(k)
        index = int(dist.order[ranks[k]])
        return int(dist.labels[index]), float(dist.probs[index])

    def _canonical_position(self, pivot: tuple[int, float]) -> int:
        """Number of elements that precede ``pivot`` in canonical order."""
        dist = self.dist

        def key(position: int) -> tuple[float, int]:
            index = dist.order[position]
            return float(dist.probs[index]), int(dist.labels[index])

        target = (float(pivot[1]), operator.index(pivot[0]))
        return bisect.bisect_left(range(dist.size), target, key=key)

    def inverse_prob_sum(self, count: int, pivot: tuple[int, float]) -> float:
        """Sum of 1/prob over ``count`` probability-revealing draws that rank
        at or above ``pivot`` in canonical order (draws below add 0).

        Counts ``count`` SAMP and ``count`` EVAL queries.  The result has the
        law of summing :func:`~ess_toolkit.estimator.inverse_prob_terms` over
        ``count`` draws: the number of draws landing in each run of equal
        probability at or above the pivot, and in the rest, is one
        multinomial vector.  The runs are read from ``dist.run_bounds``;
        no per-call array grows with the number of elements above the
        pivot, only with the number of runs.
        """
        count = operator.index(count)
        if count < 0:
            raise OutOfRangeError("sample count must be nonnegative")
        dist = self.dist
        # zero-probability elements sort first and are never drawn
        start = max(self._canonical_position(pivot), dist.size - dist.support_size)
        # the run holding position ``start`` is counted from there, each
        # later run in full; a pivot above every element leaves no run
        bounds = dist.run_bounds
        first = int(np.searchsorted(bounds, start, side="right")) - 1
        values = dist.probs[dist.order[bounds[first:-1]]]
        run_sizes = np.diff(np.maximum(bounds[first:], start))
        cells = run_sizes * values / dist.total
        # numpy draws every cell but the last as a binomial of the mass still
        # unassigned and gives the last one the remaining draws; putting the
        # rest (possibly 0) first leaves a run of positive mass last, so float
        # drift cannot push a binomial probability above 1
        rest = max(0.0, 1.0 - float(cells.sum()))
        hits = self._rng.multinomial(count, np.concatenate(([rest], cells)))[1:]
        self.samp_count += count
        self.eval_count += count
        return float((hits / values).sum())
