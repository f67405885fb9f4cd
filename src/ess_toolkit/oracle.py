"""Query-model access to a distribution: sampling and probability lookups.

A :class:`DualOracle` answers batches of queries -- draw samples, or draw
samples together with their own probabilities -- and probability lookups
of single labels, while counting every query.  Draws go through an alias
table over the positive-probability elements and are plain numpy
pipelines.

Each draw consumes exactly one uniform double from the generator; the
sample stream is therefore a function of (seed, number of draws) alone,
and chunked batching cannot change what is drawn.

On top of the draws the oracle offers the two statistics the estimator
needs, each charged as the full batch of probability-revealing queries it
stands for:

* :meth:`DualOracle.order_statistic` (stage one) draws r samples from the
  stream, maps each to its canonical rank and selects the k-th smallest in
  O(r) time and r*4 bytes.  It returns exactly the element that sorting
  the same draws by (probability, label) would select, for every seed.
* :meth:`DualOracle.inverse_prob_sum` (stage two) returns sum(1/p) over t
  draws that rank at or above a pivot without making the draws: it groups
  the elements at or above the pivot into runs of equal probability and
  draws one multinomial count vector over those runs plus one cell for the
  rest (Devroye, *Non-Uniform Random Variate Generation*, 1986).  That is
  the law of t draws exactly; the cost is O(n - rank) for the suffix plus
  one binomial per run, independent of t.
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
    on every platform.
    """
    hi = np.zeros(x.size + 1)
    np.cumsum(x, out=hi[1:])
    before, after = hi[:-1], hi[1:]
    added = after - before
    err = (before - (after - added)) + (x - added)
    lo = np.zeros(x.size + 1)
    np.cumsum(err, out=lo[1:])
    return hi, lo


class AliasTable:
    """Alias structure over the positive-probability elements of a distribution.

    The table keeps the inverse of ``dist.order``, ``rank`` (the canonical
    rank of each element), so drawn elements map to ranks with one gather.
    An element is drawn with probability ``dist.probs[i] / dist.total``.

    The build is Vose's sweep (Vose, IEEE TSE 1991) written as prefix sums.
    Slot weights are scaled to mean 1; slots below 1 are *small*, the rest
    *large*, each in index order.  Small slot j keeps its weight and aliases
    the first large whose cumulative excess reaches the cumulative deficit
    of the smalls before j.  A large that the deficits push below 1 keeps
    ``1 - overshoot`` and aliases the next large; the last large keeps 1.
    """

    __slots__ = ("size", "accept", "alias", "element_indices", "rank")

    def __init__(self, dist: DiscreteDistribution) -> None:
        probs = dist.probs
        positive = np.flatnonzero(probs > 0.0)
        if positive.size == 0:
            raise OutOfRangeError("cannot sample: no positive-probability element")
        size = int(positive.size)
        # normalize by the exact mass so the table encodes a true
        # distribution even when the stored mass is off by the validator
        # tolerance
        scaled = probs[positive] * (size / dist.total)

        accept = np.ones(size)
        alias = np.arange(size, dtype=np.int64)
        small = np.flatnonzero(scaled < 1.0)
        large = np.flatnonzero(scaled >= 1.0)
        # with no large slot every weight is 1 up to float noise: all accept
        if small.size and large.size:
            deficit, deficit_lo = _prefix_sums(1.0 - scaled[small])
            excess, excess_lo = _prefix_sums(scaled[large] - 1.0)
            # both searches compare the same float64 sums, so whatever the
            # rounding, a large's accept plus the deficits it takes
            # telescope to its weight; deficits past the last large's
            # excess are float noise and go to the last large
            target = np.searchsorted(excess[1:], deficit[:-1], side="left")
            np.minimum(target, large.size - 1, out=target)
            accept[small] = scaled[small]
            alias[small] = large[target]
            # a large before the last is depleted by the first small whose
            # cumulative deficit passes its cumulative excess
            cause = np.searchsorted(deficit[1:], excess[1:-1], side="right")
            depleted = np.flatnonzero(cause < small.size)
            through = cause[depleted] + 1
            overshoot = (deficit[through] - excess[depleted + 1]) + (
                deficit_lo[through] - excess_lo[depleted + 1]
            )
            accept[large[depleted]] = np.clip(1.0 - overshoot, 0.0, 1.0)
            alias[large[depleted]] = large[depleted + 1]

        self.size = size
        self.accept = accept
        self.alias = alias
        # identity mapping is skipped when every element is positive
        self.element_indices = None if size == probs.size else positive.astype(np.int64)
        rank_dtype = np.int32 if probs.size <= np.iinfo(np.int32).max else np.int64
        self.rank = np.empty(probs.size, dtype=rank_dtype)
        self.rank[dist.order] = np.arange(probs.size, dtype=rank_dtype)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` element-table indices, one uniform double each."""
        u = rng.random(count)
        v = u * self.size
        bucket = v.astype(np.int64)
        np.minimum(bucket, self.size - 1, out=bucket)  # u*size may round up to size
        np.subtract(v, bucket, out=v)  # fractional part decides accept vs alias
        idx = np.where(v < self.accept[bucket], bucket, self.alias[bucket])
        if self.element_indices is not None:
            idx = self.element_indices[idx]
        return idx


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
        return self._table.draw(self._rng, count)

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
        (probability, label) would put at position ``k``; ranks are
        selected with a partition instead of a sort.
        """
        count = operator.index(count)
        k = operator.index(k)
        if not 0 <= k < count:
            raise OutOfRangeError(f"order statistic {k} of {count} draws")
        table = self._table
        ranks = np.empty(count, dtype=table.rank.dtype)
        for start in range(0, count, _CHUNK):
            stop = min(start + _CHUNK, count)
            idx = table.draw(self._rng, stop - start)
            np.take(table.rank, idx, out=ranks[start:stop])
        self.samp_count += count
        self.eval_count += count
        ranks.partition(k)
        index = int(self.dist.order[ranks[k]])
        return int(self.dist.labels[index]), float(self.dist.probs[index])

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
        multinomial vector.
        """
        count = operator.index(count)
        if count < 0:
            raise OutOfRangeError("sample count must be nonnegative")
        dist = self.dist
        # zero-probability elements sort first and are never drawn
        start = max(self._canonical_position(pivot), dist.size - dist.support_size)
        probs = dist.probs[dist.order[start:]]
        run_start = np.empty(probs.size, dtype=bool)
        run_start[:1] = True
        np.not_equal(probs[1:], probs[:-1], out=run_start[1:])
        run_starts = np.flatnonzero(run_start)
        values = probs[run_starts]
        run_sizes = np.diff(np.append(run_starts, probs.size))
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
