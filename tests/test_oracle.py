import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ess_toolkit import (
    DiscreteDistribution,
    DualOracle,
    OutOfRangeError,
    UnknownLabelError,
    derive_seed,
)
from ess_toolkit.generators import (
    GeneratorSpec,
    make_distribution,
    parse_spec,
    spec_string,
)
from ess_toolkit.oracle import AliasTable, sampler_table

from conftest import random_simplex_distribution, validate

A, B = 0, 1


def point_mass() -> DiscreteDistribution:
    return validate({A: 1.0})


class TestSamp:
    def test_point_mass_always_same(self):
        oracle = DualOracle(point_mass(), seed=3)
        assert oracle.samp_many(100).tolist() == [A] * 100

    def test_fair_coin_frequency(self):
        # 10^6 draws: |freq - 0.5| > 0.01 is a 20-sigma event for Bin(10^6, 1/2)
        oracle = DualOracle(validate({A: 0.5, B: 0.5}), seed=123)
        draws = oracle.samp_many(1_000_000)
        freq = float(np.mean(draws == A))
        assert abs(freq - 0.5) < 0.01

    def test_zero_prob_label_never_drawn(self):
        oracle = DualOracle(validate({A: 1.0, B: 0.0}), seed=9)
        draws = oracle.samp_many(50_000)
        assert not np.any(draws == B)

    def test_negative_count_rejected(self):
        oracle = DualOracle(point_mass(), seed=1)
        with pytest.raises(OutOfRangeError):
            oracle.samp_many(-1)


class TestEval:
    def test_direct_lookup(self):
        oracle = DualOracle(validate({A: 0.3, B: 0.7}), seed=0)
        assert oracle.eval(A) == 0.3

    def test_zero_element(self):
        oracle = DualOracle(validate({A: 1.0, B: 0.0}), seed=0)
        assert oracle.eval(B) == 0.0

    def test_point_mass(self):
        oracle = DualOracle(point_mass(), seed=0)
        assert oracle.eval(A) == 1.0

    def test_unknown_label(self):
        oracle = DualOracle(point_mass(), seed=0)
        with pytest.raises(UnknownLabelError):
            oracle.eval(42)

    def test_counts_one_eval_query(self):
        oracle = DualOracle(validate({2**64 - 1: 0.5, 17: 0.25, 2**40: 0.25}), seed=0)
        assert oracle.eval(2**64 - 1) == 0.5
        assert oracle.query_counts() == (0, 1)


class TestSampleWithProb:
    def test_point_mass(self):
        oracle = DualOracle(point_mass(), seed=4)
        labels, probs = oracle.sample_with_prob_many(1)
        assert (labels.tolist(), probs.tolist()) == ([A], [1.0])

    def test_prob_matches_eval(self):
        dist = make_distribution(GeneratorSpec("zipf", n=30, s=1.2))
        oracle = DualOracle(dist, seed=21)
        labels, probs = oracle.sample_with_prob_many(200)
        for label, prob in zip(labels.tolist(), probs.tolist()):
            assert prob == dist.prob_of(label)

    def test_same_stream_as_composed_calls(self):
        dist = validate({A: 0.5, B: 0.5})
        composed = DualOracle(dist, seed=77)
        fused = DualOracle(dist, seed=77)
        labels = composed.samp_many(50)
        evals = [composed.eval(label) for label in labels.tolist()]
        fused_labels, fused_probs = fused.sample_with_prob_many(50)
        assert fused_labels.tolist() == labels.tolist()
        assert fused_probs.tolist() == evals
        assert fused.query_counts() == composed.query_counts()


class TestQueryCounts:
    def test_fresh_oracle(self):
        assert DualOracle(point_mass(), seed=0).query_counts() == (0, 0)

    def test_mixed_calls(self):
        oracle = DualOracle(validate({A: 0.4, B: 0.6}), seed=1)
        for _ in range(3):
            oracle.samp_many(1)
        for _ in range(2):
            oracle.eval(A)
        assert oracle.query_counts() == (3, 2)

    def test_sample_with_prob_counts_both(self):
        oracle = DualOracle(validate({A: 0.4, B: 0.6}), seed=1)
        for _ in range(7):
            oracle.sample_with_prob_many(1)
        assert oracle.query_counts() == (7, 7)

    def test_batch_counts(self):
        oracle = DualOracle(validate({A: 0.4, B: 0.6}), seed=1)
        oracle.samp_many(10)
        oracle.sample_with_prob_many(5)
        assert oracle.query_counts() == (15, 5)

    def test_counts_never_reset(self):
        oracle = DualOracle(validate({A: 0.4, B: 0.6}), seed=1)
        oracle.samp_many(4)
        before = oracle.query_counts()
        oracle.query_counts()
        assert oracle.query_counts() == before


class TestDeterminism:
    def test_same_seed_same_stream(self):
        dist = make_distribution(GeneratorSpec("geometric", n=50, rho=0.9))
        first = DualOracle(dist, seed=2**63 + 5)
        second = DualOracle(dist, seed=2**63 + 5)
        assert np.array_equal(first.samp_many(10_000), second.samp_many(10_000))

    def test_chunking_does_not_change_stream(self):
        # one uniform double per draw: the stream depends only on the seed
        # and the total number of draws, not on batch boundaries
        dist = make_distribution(GeneratorSpec("zipf", n=100, s=1.0))
        whole = DualOracle(dist, seed=5).samp_many(1000)
        chunked_oracle = DualOracle(dist, seed=5)
        chunked = np.concatenate(
            [chunked_oracle.samp_many(c) for c in (1, 7, 250, 742)]
        )
        assert np.array_equal(whole, chunked)

    def test_scalar_equals_batch(self):
        dist = validate({A: 0.25, B: 0.75})
        batch = DualOracle(dist, seed=8).samp_many(64)
        loop = DualOracle(dist, seed=8)
        assert batch.tolist() == [int(loop.samp_many(1)[0]) for _ in range(64)]

    def test_different_seeds_differ(self):
        dist = make_distribution(GeneratorSpec("uniform", n=1000))
        a = DualOracle(dist, seed=1).samp_many(100)
        b = DualOracle(dist, seed=2).samp_many(100)
        assert not np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(OutOfRangeError):
            DualOracle(point_mass(), seed=-1)
        with pytest.raises(OutOfRangeError):
            DualOracle(point_mass(), seed=2**64)

    def test_requires_validated_distribution(self):
        with pytest.raises(TypeError):
            DualOracle({A: 1.0}, seed=0)


class TestDistributionalCorrectness:
    def test_chi_squared_goodness_of_fit(self):
        # statistical smoke test; threshold 1e-6 keeps it essentially
        # deterministic under the pinned seed
        dist = make_distribution(GeneratorSpec("zipf", n=50, s=1.0))
        oracle = DualOracle(dist, seed=20240817)
        draws = oracle.samp_many(200_000).astype(np.int64)
        counts = np.bincount(draws, minlength=dist.size)
        expected = dist.probs * counts.sum()
        expected *= counts.sum() / expected.sum()
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-6

    def test_two_tier_frequencies(self):
        dist = make_distribution(
            GeneratorSpec("two_tier", n=100, h=2, heavy_mass=0.9)
        )
        oracle = DualOracle(dist, seed=55)
        draws = oracle.samp_many(400_000).astype(np.int64)
        heavy_freq = float(np.mean(draws < 2))
        assert abs(heavy_freq - 0.9) < 0.01


class TestSamplerTable:
    def test_cached_per_distribution(self):
        dist = make_distribution(GeneratorSpec("uniform", n=10))
        assert sampler_table(dist) is sampler_table(dist)
        first = DualOracle(dist, 1)
        second = DualOracle(dist, 2)
        assert first._table is second._table

    def test_zero_probs_excluded_from_table(self):
        dist = make_distribution(GeneratorSpec("uniform", n=8, zero_pad=100))
        table = sampler_table(dist)
        assert table.size == 8
        assert table.element_indices.tolist() == list(range(8))


def table_mass(table) -> np.ndarray:
    """Mass the alias table gives each slot, times the slot count."""
    given_away = np.bincount(table.alias, weights=1.0 - table.accept, minlength=table.size)
    return table.accept + given_away


def assert_table_encodes(dist) -> None:
    """The alias table of ``dist`` draws each element with its probability."""
    table = AliasTable(dist)
    assert np.all((table.accept >= 0.0) & (table.accept <= 1.0))
    want = dist.probs[dist.probs > 0.0] / dist.total
    assert np.allclose(table_mass(table) / table.size, want, rtol=1e-9, atol=0.0)


class TestAliasTable:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("zipf", n=10**6, s=1.0),
            GeneratorSpec("zipf", n=10**6, s=2.0),
            GeneratorSpec("geometric", n=10**5, rho=0.999),
            GeneratorSpec("two_tier", n=10**6, h=1, heavy_mass=0.5),
            GeneratorSpec("two_tier", n=10**6, h=1000, heavy_mass=0.5),
            GeneratorSpec("uniform", n=1000),  # no small slot
            GeneratorSpec("point_mass", n=1),
            GeneratorSpec("uniform", n=8, zero_pad=100),
        ],
        ids=lambda spec: spec_string(spec),
    )
    def test_slot_masses_match_probabilities(self, spec):
        assert_table_encodes(make_distribution(spec))

    def test_random_simplex_masses(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert_table_encodes(random_simplex_distribution(rng, max_n=2000))

    def test_deficit_meeting_excess_exactly(self):
        # scaled weights 1.5, 0.5, 1.5, 0.5: the second small's deficit
        # starts exactly where the first large's excess ends, so it still
        # belongs to that large, which is then depleted into the second one
        dist = DiscreteDistribution.from_probs([0.375, 0.125, 0.375, 0.125])
        table = AliasTable(dist)
        assert table_mass(table).tolist() == [1.5, 0.5, 1.5, 0.5]

    def test_builds_are_bit_equal(self):
        dist = make_distribution(GeneratorSpec("zipf", n=10**5, s=1.0))
        first = AliasTable(dist)
        second = AliasTable(dist)
        for name in ("accept", "alias", "rank"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_streams(self):
        seeds = {derive_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_master_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_64_bit_range(self):
        for i in range(100):
            assert 0 <= derive_seed(2**64 - 1, i) < 2**64

    def test_negative_index_rejected(self):
        with pytest.raises(OutOfRangeError):
            derive_seed(1, -1)


class TestOrderStatistic:
    def test_counts_both_queries(self):
        oracle = DualOracle(validate({A: 0.4, B: 0.6}), seed=1)
        oracle.order_statistic(1000, 10)
        assert oracle.query_counts() == (1000, 1000)

    def test_spans_several_chunks(self):
        # more draws than one chunk: still the k-th of the whole stream
        dist = make_distribution(GeneratorSpec("zipf", n=1000, s=1.0))
        count = 200_001
        labels = DualOracle(dist, seed=3).samp_many(count)
        probs = dist.probs[labels.astype(np.int64)]
        order = np.lexsort((labels, probs))
        for k in (0, 70_000, count - 1):
            expected = (int(labels[order[k]]), float(probs[order[k]]))
            assert DualOracle(dist, seed=3).order_statistic(count, k) == expected

    def test_scattered_labels(self):
        dist = validate({2**63 + 9: 0.5, 17: 0.25, 2**40: 0.25})
        labels, probs = DualOracle(dist, seed=4).sample_with_prob_many(99)
        order = np.lexsort((labels, probs))
        expected = (int(labels[order[60]]), float(probs[order[60]]))
        assert DualOracle(dist, seed=4).order_statistic(99, 60) == expected

    def test_position_range_checked(self):
        oracle = DualOracle(point_mass(), seed=1)
        for count, k in [(0, 0), (5, 5), (5, -1)]:
            with pytest.raises(OutOfRangeError):
                oracle.order_statistic(count, k)
        assert oracle.query_counts() == (0, 0)


class TestInverseProbSum:
    def test_point_mass_is_exact(self):
        oracle = DualOracle(point_mass(), seed=2)
        assert oracle.inverse_prob_sum(12345, (A, 1.0)) == 12345.0
        assert oracle.query_counts() == (12345, 12345)

    def test_pivot_tie_counts_from_its_label(self):
        # every element ties; the pivot label and the larger ones count
        dist = make_distribution(GeneratorSpec("uniform", n=8))
        oracle = DualOracle(dist, seed=3)
        total = oracle.inverse_prob_sum(100_000, (5, 0.125))
        hits = total * 0.125
        # hits ~ Bin(1e5, 3/8): 3/8 +- 0.01 is more than 6 sigma wide
        assert hits == int(hits)
        assert abs(hits / 100_000 - 3 / 8) < 0.01

    def test_zero_probability_pivot_counts_all_draws(self):
        dist = make_distribution(GeneratorSpec("uniform", n=8, zero_pad=100))
        oracle = DualOracle(dist, seed=4)
        assert oracle.inverse_prob_sum(1000, (8, 0.0)) == 8000.0

    def test_pivot_above_every_element_counts_nothing(self):
        dist = make_distribution(GeneratorSpec("zipf", n=50, s=1.0))
        oracle = DualOracle(dist, seed=5)
        assert oracle.inverse_prob_sum(1000, (10**6, 1.0)) == 0.0
        assert oracle.query_counts() == (1000, 1000)

    def test_zero_and_negative_counts(self):
        oracle = DualOracle(point_mass(), seed=6)
        assert oracle.inverse_prob_sum(0, (A, 1.0)) == 0.0
        with pytest.raises(OutOfRangeError):
            oracle.inverse_prob_sum(-1, (A, 1.0))
        assert oracle.query_counts() == (0, 0)

    def test_deterministic_given_seed(self):
        dist = make_distribution(GeneratorSpec("geometric", n=500, rho=0.99))
        pivot = (250, dist.prob_of(250))
        first = DualOracle(dist, seed=7).inverse_prob_sum(10**7, pivot)
        second = DualOracle(dist, seed=7).inverse_prob_sum(10**7, pivot)
        assert first == second


def suffix_scan_inverse_prob_sum(oracle, count, pivot) -> float:
    """Stage two with its runs found by scanning every element at or above
    the pivot.

    :meth:`DualOracle.inverse_prob_sum` reads the same runs from
    ``dist.run_bounds`` and must match this bit for bit: the same
    multinomial cells, drawn from the same stream.  Query counts are not
    charged.
    """
    dist = oracle.dist
    start = max(oracle._canonical_position(pivot), dist.size - dist.support_size)
    probs = dist.probs[dist.order[start:]]
    run_start = np.empty(probs.size, dtype=bool)
    run_start[:1] = True
    np.not_equal(probs[1:], probs[:-1], out=run_start[1:])
    run_starts = np.flatnonzero(run_start)
    values = probs[run_starts]
    run_sizes = np.diff(np.append(run_starts, probs.size))
    cells = run_sizes * values / dist.total
    rest = max(0.0, 1.0 - float(cells.sum()))
    hits = oracle._rng.multinomial(count, np.concatenate(([rest], cells)))[1:]
    return float((hits / values).sum())


def reference_pivots(dist) -> list[tuple[int, float]]:
    """Pivots at the start, middle and end of every run of equal
    probability (zero-probability ones included), at the first positive
    element, and one above every element."""
    sorted_probs = dist.probs[dist.order]
    starts = np.flatnonzero(np.r_[True, sorted_probs[1:] != sorted_probs[:-1]])
    ends = np.r_[starts[1:], dist.size] - 1
    positions = {dist.size - dist.support_size}
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        positions |= {lo, (lo + hi) // 2, hi}
    pivots = [
        (int(dist.labels[dist.order[p]]), float(sorted_probs[p]))
        for p in sorted(positions)
    ]
    return pivots + [(2**64 - 1, 1.0)]


class TestRunIndexMatchesSuffixScan:
    @pytest.mark.parametrize(
        "spec",
        [
            "two_tier:n=1000,h=10,H=0.5",
            "uniform:n=64",
            "zipf:n=300,s=1.1",
            "uniform:n=8,pad=100",
        ],
    )
    def test_bit_identical_at_pinned_seeds(self, spec):
        dist = make_distribution(parse_spec(spec))
        for seed in (11, 2**63 + 5):
            for pivot in reference_pivots(dist):
                for count in (1, 1000, 10**7):
                    oracle = DualOracle(dist, seed)
                    reference = DualOracle(dist, seed)
                    got = oracle.inverse_prob_sum(count, pivot)
                    assert got == suffix_scan_inverse_prob_sum(reference, count, pivot)
                    # same cells, so the stream is left at the same place
                    after = oracle._rng.random(4)
                    assert after.tolist() == reference._rng.random(4).tolist()


class TestInverseProbSumAllocation:
    # an allocation bound, not a timing: stage two must not gather or scan
    # the elements above the pivot, which here number 1.6 million
    @pytest.mark.parametrize(
        "spec", ["uniform:n=2000000", "two_tier:n=2000000,h=1000,H=0.5"]
    )
    def test_traced_peak_is_independent_of_n(self, spec):
        dist = make_distribution(parse_spec(spec))
        index = int(dist.order[dist.size // 5])
        pivot = (int(dist.labels[index]), float(dist.probs[index]))
        oracle = DualOracle(dist, seed=12)
        tracemalloc.start()
        try:
            total = oracle.inverse_prob_sum(10**6, pivot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total > 0.0
        assert peak < 1 << 20
