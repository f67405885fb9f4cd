"""Query-model access to a distribution: sampling and probability lookups.

A :class:`DualOracle` answers batches of queries -- draw samples, or draw
samples together with their own probabilities -- and probability lookups
of single labels, while counting every query.  Every draw goes through
one call, :meth:`AliasTable.draw`: the table's slots are the canonical
positions of the positive-probability elements, so a draw is a canonical
position; only the calls that return labels map positions to elements,
through :func:`~ess_toolkit.distribution.canonical_order`.

Each draw consumes exactly one uniform double from the generator; the
sample stream is therefore a function of (seed, number of draws) alone,
and chunked batching cannot change what is drawn.  The two statistics
below consume the same stream, so a report depends only on its config
and master seed; stage two's values, and stage one's on the Beta route,
have the law of explicit draws but differ from what explicit draws would
give for that seed.

On top of the draws the oracle offers the two statistics the estimator
needs, each charged as the full batch of probability-revealing queries it
stands for:

* :meth:`DualOracle.order_statistic` (stage one) returns the k-th
  smallest canonical position among r draws by one of two exact routes,
  which :func:`stage_one_draws`, a function of r and the number of
  positive runs alone, picks.  The *draw* route makes the r draws with
  :meth:`AliasTable.draw`, the call the label-returning draws make, and
  selects the k-th smallest in O(r) time and r*4 bytes: the position of
  exactly the element that sorting the same draws by (probability, label)
  would select, for every seed.  The *Beta* route makes no draw and needs
  no table.  Drawn by inverse CDF along the canonical order, the k-th
  smallest of r draws is F^-1(U) for U the (k+1)-th smallest of r
  uniforms, so U ~ Beta(k+1, r-k) (Devroye 1986): one variate, mapped
  through the run index, exact in law in O(log runs) time.
* :meth:`DualOracle.inverse_prob_sum` (stage two) returns sum(1/p) over t
  draws that rank at or above a pivot without making the draws: it groups
  the elements at or above the pivot into runs of equal probability and
  draws one multinomial count vector over those runs plus one cell for the
  rest (Devroye, *Non-Uniform Random Variate Generation*, 1986).  That is
  the law of t draws exactly.  The runs come from the distribution's run
  index, built once with it, and the pivot is a canonical position, so the
  cost is O(runs above the pivot), one binomial per run, independent of t
  and of n.
"""

from __future__ import annotations

import operator

import numpy as np

from .distribution import DiscreteDistribution, canonical_order
from .errors import UINT64_MAX, integer

_GOLDEN = 0x9E3779B97F4A7C15

_INT32_MAX = np.iinfo(np.int32).max

# Stage one takes the draw route while r is at most this many draws a
# positive run, and the Beta route above.  The Beta route is exact and
# faster on every input; the threshold only keeps each input on the route
# it took before.  A faster stage one fits more calls into a benchmark run,
# and bench/run.py keeps every call's report and parsed rows (about 53 KiB
# a call on bi-pivot-sweep), so the Beta route on every input raised
# peak_rss_mb there by 137-159 % (52-53 to 124-138 MiB, 1415-1687 calls
# in 30 s against 104-129) and on uni-zipf-draws by 11-13 % (52-53 to
# 58-60 MiB), against a 10 % bound.  ROADMAP item 2 deletes the threshold
# and the draw route once the benchmark stops keeping them.
STAGE_ONE_DRAWS_PER_RUN = 8


def derive_seed(master_seed: int, index: int) -> int:
    """Mix a master seed and a stream index into an independent 64-bit seed.

    Pure integer arithmetic (splitmix64 finalizer applied twice), so the
    derived values are identical on every platform and independent of the
    order in which streams are created.
    """
    master_seed = integer("master_seed", master_seed, 0, UINT64_MAX)
    index = integer("index", index, 0)
    z = (master_seed + (index + 1) * _GOLDEN) & UINT64_MAX
    for _ in range(2):
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & UINT64_MAX
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & UINT64_MAX
        z ^= z >> 31
    return z


def _prefix_sums(
    x: np.ndarray, hi0: float = 0.0, lo0: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums ``hi0, hi0+x[0], hi0+x[0]+x[1], ...`` as two float64 arrays.

    ``hi`` is the float64 running sum; ``lo`` is ``lo0`` plus the running
    sum of the rounding error of each of its additions, found exactly by
    TwoSum (Knuth, TAOCP vol. 2, 4.2.2), so ``hi + lo`` carries about twice
    the precision on every platform.  Both sums run element by element, so
    pieces summed one after another, each from the last (hi, lo) of the
    piece before, give the bits of one pass over the whole.  The TwoSum
    terms are formed in ``lo`` and in ``x``, which is overwritten: the two
    outputs are the only arrays allocated.
    """
    hi = np.empty(x.size + 1)
    hi[0] = hi0
    hi[1:] = x
    np.cumsum(hi, out=hi)
    before, after = hi[:-1], hi[1:]
    lo = np.empty(x.size + 1)
    lo[0] = lo0
    # err = (before - (after - added)) + (x - added), added = after - before
    term = lo[1:]
    np.subtract(after, before, out=term)  # added
    x -= term
    np.subtract(after, term, out=term)
    np.subtract(before, term, out=term)
    term += x
    np.cumsum(lo, out=lo)
    return hi, lo


class AliasTable:
    """Alias structure over the canonical positions of the positive elements.

    Slot j stands for canonical position ``first + j``, where ``first =
    dist.size - dist.support_size`` skips the zero-probability elements,
    which sort first.  :meth:`draw` returns canonical positions, each with
    probability ``p / dist.total`` of the element at that position.

    The build is Vose's sweep (Vose, IEEE TSE 1991) written as prefix sums.
    Slot weights are scaled to mean 1 and, in canonical order, ascend: the
    slots below 1 (*small*) are a prefix and the rest (*large*) a suffix.
    Small slot j keeps its weight and aliases the first large whose
    cumulative excess reaches the cumulative deficit of the smalls before j.
    A large that the deficits push below 1 keeps ``1 - overshoot`` and
    aliases the next large; the last large keeps 1.  Those depleted larges
    are a prefix of the larges, since both cumulative sums ascend.  The
    table keeps 12 bytes a slot (8 of ``accept``, 4 of int32 ``alias``);
    the build holds the larges' excess sums, 16 bytes a large (24 while
    they are formed), and sweeps the smalls a chunk at a time: on two_tier
    n = 1e6, where almost every slot is small, the build peaks at about 13
    bytes a slot, table included.  The prefix sums carry their TwoSum
    rounding errors, so each element's table mass matches ``p / total`` to
    within about 1e-10 relative.  ``longdouble`` sums would not do: their
    width, and so the draws, differ between platforms.
    """

    __slots__ = ("first", "size", "accept", "alias")

    # The build's sweep and the draws work in fixed-size chunks whose work
    # arrays (25 bytes a slot for a draw) are allocated once per call.
    # 32Ki keeps them inside the CPU caches, and small enough that trials
    # reuse freed heap memory instead of faulting in fresh pages (CHANGES.md
    # has the counts).  The chunk size changes neither the table nor what
    # is drawn (one uniform per draw).
    _CHUNK = 1 << 15

    def __init__(self, dist: DiscreteDistribution) -> None:
        size = dist.support_size
        first = dist.size - size
        # the positive runs, each value repeated over its run, are the
        # sorted positive probabilities.  Normalize by the exact mass so the
        # table encodes a true distribution even when the stored mass is off
        # by the validator tolerance; scaling by a positive factor keeps the
        # weights sorted
        run = dist.first_positive_run
        accept = np.repeat(dist.run_values[run:], np.diff(dist.run_bounds[run:]))
        accept *= size / dist.total
        # positions are below dist.size: 4 bytes a slot when they fit
        alias = np.arange(size, dtype=np.int32 if dist.size <= _INT32_MAX else np.int64)
        smalls = int(np.searchsorted(accept, 1.0, side="left"))
        larges = size - smalls
        # with no large slot every weight is 1 up to float noise: all accept
        if smalls and larges:
            excess, excess_lo = _prefix_sums(accept[smalls:] - 1.0)
            deficit_hi = deficit_lo = 0.0  # the smalls' sums so far
            depleted = 0
            for start in range(0, smalls, self._CHUNK):
                stop = min(start + self._CHUNK, smalls)
                deficit, lows = _prefix_sums(
                    1.0 - accept[start:stop], deficit_hi, deficit_lo
                )
                deficit_hi, deficit_lo = deficit[-1], lows[-1]
                # both searches compare the same float64 sums, so whatever
                # the rounding, a large's accept plus the deficits it takes
                # telescope to its weight; deficits past the last large's
                # excess are float noise and go to the last large
                part = alias[start:stop]
                part[:] = np.searchsorted(excess[1:], deficit[:-1], side="left")
                np.minimum(part, larges - 1, out=part)
                part += smalls
                # a large before the last is depleted by the first small
                # whose cumulative deficit passes its cumulative excess: here
                # the larges whose excess this chunk's deficits pass.  Their
                # weights are spent, so their slots of ``accept`` take the
                # overshoot; the indices are in range, and mode="clip" takes
                # into ``out`` unbuffered
                done = int(np.searchsorted(excess[1:-1], deficit_hi, side="left"))
                for low in range(depleted, done, self._CHUNK):
                    high = min(low + self._CHUNK, done)
                    passed = excess[low + 1 : high + 1]
                    passed_lo = excess_lo[low + 1 : high + 1]
                    through = np.searchsorted(deficit[1:], passed, side="right")
                    through += 1
                    overshoot = accept[smalls + low : smalls + high]
                    np.take(deficit, through, out=overshoot, mode="clip")
                    overshoot -= passed
                    overshoot_lo = lows[through]
                    overshoot_lo -= passed_lo
                    overshoot += overshoot_lo
                    np.subtract(1.0, overshoot, out=overshoot)
                    np.clip(overshoot, 0.0, 1.0, out=overshoot)
                depleted = done
            accept[smalls + depleted :] = 1.0
            alias[smalls : smalls + depleted] += 1
        else:
            accept.fill(1.0)

        self.first = first
        self.size = size
        self.accept = accept
        self.alias = alias

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` canonical positions (of ``alias.dtype``), one
        uniform double each, in chunks of ``_CHUNK`` draws that share one
        set of work arrays."""
        count = integer("count", count, 0)
        out = np.empty(count, dtype=self.alias.dtype)
        chunk = min(count, self._CHUNK)
        work = [np.empty(chunk, dtype) for dtype in (float, float, np.intp, bool)]
        for start in range(0, count, self._CHUNK):
            part = out[start : start + self._CHUNK]
            u, accept, bucket, keep = (a[: part.size] for a in work)
            rng.random(out=u)
            u *= self.size
            np.copyto(bucket, u, casting="unsafe")  # truncates, as u >= 0
            np.minimum(bucket, self.size - 1, out=bucket)  # u*size may round up
            u -= bucket  # the fractional part decides accept vs alias
            # buckets are in range, and mode="clip" takes into ``out`` unbuffered
            np.take(self.accept, bucket, out=accept, mode="clip")
            np.less(u, accept, out=keep)
            np.take(self.alias, bucket, out=part, mode="clip")
            np.copyto(part, bucket, where=keep)
            part += self.first
        return out


def stage_one_draws(dist: DiscreteDistribution, count: int) -> bool:
    """True when stage one's ``count`` draws from ``dist`` take the draw
    route, which draws from the alias table; False for the Beta route.

    The draw route is taken while ``count`` is at most
    ``STAGE_ONE_DRAWS_PER_RUN`` draws a positive run.  A CSV of a few tied
    probabilities, like the benchmark's 1e6-row input (2 runs, r = 22 500),
    takes the Beta route; zipf and geometric tables of 1e5 distinct
    probabilities at r = 90 000 or 360 000 take the draw route.
    """
    runs = dist.run_values.size - dist.first_positive_run
    return count <= STAGE_ONE_DRAWS_PER_RUN * runs


def sampler_table(dist: DiscreteDistribution) -> AliasTable:
    """Alias table for ``dist``, built once and kept on the distribution."""
    if dist._alias_table is None:
        dist._alias_table = AliasTable(dist)
    return dist._alias_table


class DualOracle:
    """Sampling/evaluation handle over a validated distribution.

    Mutable state (random stream position, query counters) confines one
    instance to a single thread of execution at a time; any number of
    oracles may share one distribution.
    """

    def __init__(self, dist: DiscreteDistribution, seed: int) -> None:
        if not isinstance(dist, DiscreteDistribution):
            raise TypeError("DualOracle requires a validated DiscreteDistribution")
        seed = integer("seed", seed, 0, UINT64_MAX)
        self.dist = dist
        self.samp_count = 0
        self.eval_count = 0
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
        positions = sampler_table(self.dist).draw(self._rng, count)
        return canonical_order(self.dist)[positions]

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
        """Draw ``count`` probability-revealing samples and return the
        (canonical position, prob) of the one at 0-based position ``k`` in
        canonical order.

        Counts ``count`` SAMP and ``count`` EVAL queries on either route
        (module docstring).  On the draw route the positions are the draws
        :meth:`sample_with_prob_many` makes from the same stream position,
        partitioned instead of sorted by (probability, label), and the
        probability is read from the run index.  The Beta route has the same
        law and draws one variate U ~ Beta(k+1, count-k), which it maps to a
        position through ``run_cumulative``.
        """
        count = integer("count", count, 1)
        k = integer("k", k, 0, count - 1)
        dist = self.dist
        if stage_one_draws(dist, count):
            positions = sampler_table(dist).draw(self._rng, count)
            positions.partition(k)
            position = int(positions[k])
            run = dist.run_of(position)
        else:
            # x lands in the first run whose cumulative mass passes it, never
            # a zero run; U = 1 is clipped to the last position.  The map
            # works in Python floats, which round as numpy's do
            cumulative = dist.run_cumulative
            x = self._rng.beta(k + 1, count - k) * cumulative.item(-1)
            run = min(int(cumulative.searchsorted(x, side="right")), cumulative.size - 1)
            lo, hi = dist.run_bounds.item(run), dist.run_bounds.item(run + 1)
            if run:
                x -= cumulative.item(run - 1)
            position = lo + min(int(x / dist.run_values.item(run)), hi - lo - 1)
        self.samp_count += count
        self.eval_count += count
        return position, dist.run_values.item(run)

    def inverse_prob_sum(self, count: int, pivot: tuple[int, float]) -> float:
        """Sum of 1/prob over ``count`` probability-revealing draws at or
        above canonical position ``pivot[0]`` (draws below add 0); ``pivot``
        is a (position, prob) pair as :meth:`order_statistic` returns.

        Counts ``count`` SAMP and ``count`` EVAL queries.  The result has the
        law of summing :func:`~ess_toolkit.estimator.inverse_prob_terms` over
        ``count`` draws: the number of draws landing in each run of equal
        probability at or above the pivot, and in the rest, is one
        multinomial vector, and the result is the sum of hits / value over
        the runs.  The runs are read from ``dist.run_bounds``, so a run of
        ties costs one cell however many elements it holds.  A call
        allocates three arrays of 8 bytes a run at or above the pivot: the
        run sizes, the cell vector, whose slots then take the hits / value
        terms, and the multinomial's hits (24 bytes a run at the peak,
        ``tracemalloc``, zipf n = 1e5).  Where those runs outnumber ``count``
        (a large table with no ties and a small t) this is more work than
        the draws.
        """
        count = integer("count", count, 0)
        dist = self.dist
        bounds = dist.run_bounds
        # zero-probability elements are never drawn, and a pivot past every
        # element (the last bound) leaves no run
        start = max(operator.index(pivot[0]), bounds.item(dist.first_positive_run))
        start = min(start, bounds.item(-1))
        first = int(bounds.searchsorted(start, side="right")) - 1
        values = dist.run_values[first:]
        # each run's size, the pivot's own run (if any) counted from the pivot
        sizes = bounds[first + 1 :] - bounds[first:-1]
        if sizes.size:
            sizes[0] = bounds.item(first + 1) - start
        # numpy draws every cell but the last as a binomial of the mass still
        # unassigned and gives the last one the remaining draws; putting the
        # rest (possibly 0) first leaves a run of positive mass last, so float
        # drift cannot push a binomial probability above 1
        cells = np.empty(values.size + 1)
        masses = cells[1:]
        np.multiply(sizes, values, out=masses)
        masses /= dist.total
        cells[0] = max(0.0, 1.0 - float(masses.sum()))
        hits = self._rng.multinomial(count, cells)
        self.samp_count += count
        self.eval_count += count
        return float(np.divide(hits[1:], values, out=masses).sum())
