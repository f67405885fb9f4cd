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
from ess_toolkit.generators import GeneratorSpec, make_distribution, parse_spec
from ess_toolkit.oracle import AliasTable, sampler_table, stage_one_draws

from conftest import (
    chi_square_pvalue,
    indexed,
    inverse_prob_term_moments,
    label_pivot,
    order_statistic_cdf,
    position_law_pvalue,
    random_simplex_distribution,
    traced_peak,
    validate,
)

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
        first = DualOracle(dist, 1)
        second = DualOracle(dist, 2)
        assert dist._alias_table is None  # an oracle builds no table
        first.samp_many(3)
        table = sampler_table(dist)
        second.samp_many(3)
        assert sampler_table(dist) is table
        assert DualOracle(dist, 3).order_statistic(5, 2)[1] == 0.1  # draw route
        assert sampler_table(dist) is table

    def test_zero_probs_excluded_from_table(self):
        dist = make_distribution(GeneratorSpec("uniform", n=8, zero_pad=100))
        table = sampler_table(dist)
        assert table.size == 8
        assert table.first == 100


def table_mass(table) -> np.ndarray:
    """Mass the alias table gives each slot, times the slot count."""
    given_away = np.bincount(table.alias, weights=1.0 - table.accept, minlength=table.size)
    return table.accept + given_away


def assert_table_encodes(dist) -> None:
    """The alias table of ``dist`` draws each canonical position with its
    element's probability."""
    table = AliasTable(dist)
    assert np.all((table.accept >= 0.0) & (table.accept <= 1.0))
    want = np.sort(dist.probs)[table.first :] / dist.total
    assert np.allclose(table_mass(table) / table.size, want, rtol=1e-9, atol=0.0)


class TestAliasTable:
    @pytest.mark.parametrize(
        "spec",
        [
            "zipf:n=1000000,s=1",
            "zipf:n=1000000,s=2",
            "geometric:n=100000,rho=0.999",
            "two_tier:n=1000000,h=1,H=0.5",
            "two_tier:n=1000000,h=1000,H=0.5",
            "uniform:n=1000",  # no small slot
            "point_mass:n=1",
            "uniform:n=8,pad=100",
        ],
    )
    def test_slot_masses_match_probabilities(self, spec):
        assert_table_encodes(make_distribution(parse_spec(spec)))

    def test_random_simplex_masses(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert_table_encodes(random_simplex_distribution(rng, max_n=2000))

    def test_deficit_meeting_excess_exactly(self):
        # scaled weights 0.5, 0.5, 1.5, 1.5 in canonical order: the second
        # small's deficit starts exactly where the first large's excess
        # ends, so it still belongs to that large, which is then depleted
        # into the second one
        dist = indexed([0.375, 0.125, 0.375, 0.125])
        table = AliasTable(dist)
        assert table_mass(table).tolist() == [0.5, 0.5, 1.5, 1.5]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_table_does_not_depend_on_chunk_size(self, monkeypatch, chunk):
        rng = np.random.default_rng(9)
        dists = [
            # three larges, each depleted across many chunks of smalls
            make_distribution(parse_spec("two_tier:n=100000,h=3,H=0.9,pad=50")),
            indexed([0.375, 0.125, 0.375, 0.125]),
            make_distribution(parse_spec("uniform:n=8,pad=100")),
        ] + [random_simplex_distribution(rng, max_n=2000) for _ in range(50)]
        tables = [AliasTable(dist) for dist in dists]
        monkeypatch.setattr(AliasTable, "_CHUNK", chunk)
        for dist, want in zip(dists, tables):
            table = AliasTable(dist)
            assert table.accept.tobytes() == want.accept.tobytes()
            assert table.alias.tobytes() == want.alias.tobytes()

    def test_builds_are_bit_equal(self):
        dist = make_distribution(GeneratorSpec("zipf", n=10**5, s=1.0))
        first = AliasTable(dist)
        second = AliasTable(dist)
        for name in ("accept", "alias"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()


class TestAliasTableDraws:
    def test_positions_follow_sorted_probabilities(self):
        # 200k draws on 50 slots behind 20 zero-probability elements; the
        # 1e-6 threshold keeps the pinned seed essentially deterministic
        dist = make_distribution(GeneratorSpec("zipf", n=50, s=1.0, zero_pad=20))
        table = AliasTable(dist)
        positions = table.draw(np.random.Generator(np.random.SFC64(77)), 200_000)
        assert table.first == 20
        assert positions.min() >= table.first and positions.max() < dist.size
        counts = np.bincount(positions - table.first, minlength=table.size)
        expected = np.sort(dist.probs)[table.first :] / dist.total * counts.sum()
        expected *= counts.sum() / expected.sum()
        assert stats.chisquare(counts, expected).pvalue > 1e-6


class TestAliasTableMemory:
    # a guard on the build's footprint: the sweep works in canonical order
    # with no index arrays, a chunk of smalls at a time, and the table keeps
    # 8 bytes of ``accept`` and 4 of int32 ``alias`` per slot.  Here 999k
    # of the 1M slots are small, so the sums over the larges are tiny
    def test_traced_bytes_per_element(self):
        dist = make_distribution(parse_spec("two_tier:n=1000000,h=1000,H=0.5"))
        n = dist.support_size
        table, kept, peak = traced_peak(lambda: AliasTable(dist))
        assert table.accept.nbytes + table.alias.nbytes == 12 * n
        # plus the object, the array headers and interpreter bookkeeping
        assert kept <= 12 * n + (1 << 16)
        assert peak <= 14 * n


class TestDrawMemory:
    # the label-returning draws share stage one's chunked draw: the work
    # arrays take 25 bytes a slot of one 32 Ki chunk, not 25 bytes a draw.
    # What remains is the 4-byte positions, the 8-byte element indices and
    # the 8-byte labels, of which at most two are alive at once.
    def test_samp_many_traced_peak(self):
        dist = make_distribution(parse_spec("zipf:n=100000,s=1.0"))
        oracle = DualOracle(dist, seed=5)
        labels, _, peak = traced_peak(lambda: oracle.samp_many(1_000_000))
        assert labels.size == 1_000_000
        assert peak <= 20 << 20


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

    @pytest.mark.parametrize("master_seed", [-5, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, master_seed):
        # not reduced modulo 2**64, where -5 would alias 2**64 - 5
        with pytest.raises(OutOfRangeError, match="master_seed must lie in"):
            derive_seed(master_seed, 0)


class TestOrderStatistic:
    def test_counts_both_queries(self):
        oracle = DualOracle(validate({A: 0.4, B: 0.6}), seed=1)
        oracle.order_statistic(1000, 10)
        assert oracle.query_counts() == (1000, 1000)

    def test_spans_several_chunks(self):
        # more draws than one chunk: still the k-th of the whole stream
        dist = make_distribution(GeneratorSpec("zipf", n=30_000, s=1.0))
        count = 200_001
        assert stage_one_draws(dist, count)
        labels = DualOracle(dist, seed=3).samp_many(count)
        probs = dist.probs[labels.astype(np.int64)]
        order = np.lexsort((labels, probs))
        for k in (0, 70_000, count - 1):
            expected = (int(labels[order[k]]), float(probs[order[k]]))
            pivot = DualOracle(dist, seed=3).order_statistic(count, k)
            assert label_pivot(dist, pivot) == expected

    @pytest.mark.parametrize("count", [1, 1000, 3 * 2**15 + 5])
    def test_same_draw_as_the_references(self, count):
        dist = make_distribution(parse_spec("two_tier:n=500,h=5,H=0.5,pad=3"))
        k = count // 2
        if not stage_one_draws(dist, count):
            # no draws to compare: the position follows the law of rank k
            oracles = [DualOracle(dist, derive_seed(21, i)) for i in range(2000)]
            positions = np.array([o.order_statistic(count, k)[0] for o in oracles])
            pvalue = position_law_pvalue(positions, order_statistic_cdf(dist, count, k))
            assert pvalue > 1e-4, pvalue
            assert all(o.query_counts() == (count, count) for o in oracles)
            return
        # on the draw route stage one and the label-returning draws share one
        # draw call, so from one seed each leaves the stream at the same place
        stage_one = DualOracle(dist, seed=21)
        pivot = stage_one.order_statistic(count, k)
        reference = DualOracle(dist, seed=21)
        labels, probs = reference.sample_with_prob_many(count)
        order = np.lexsort((labels, probs))[k]
        assert label_pivot(dist, pivot) == (int(labels[order]), float(probs[order]))
        assert stage_one._rng.random(4).tolist() == reference._rng.random(4).tolist()

    def test_scattered_labels(self):
        dist = validate({2**63 + 9: 0.5, 17: 0.25, 2**40: 0.25})
        assert stage_one_draws(dist, 16)
        labels, probs = DualOracle(dist, seed=4).sample_with_prob_many(16)
        order = np.lexsort((labels, probs))
        expected = (int(labels[order[10]]), float(probs[order[10]]))
        pivot = DualOracle(dist, seed=4).order_statistic(16, 10)
        assert label_pivot(dist, pivot) == expected

    def test_beta_route_holds_no_array_of_the_draws(self):
        # 10**15 draws would not fit in memory: the Beta route makes none
        dist = make_distribution(parse_spec("two_tier:n=1000,h=10,H=0.5,pad=5"))
        oracle = DualOracle(dist, seed=22)
        position, prob = oracle.order_statistic(10**15, 10**15 // 4)
        # rank n/4 of n lies deep in the light run, which holds half the mass
        assert 5 <= position < 995 and prob == dist.run_values[1]
        assert oracle.query_counts() == (10**15, 10**15)

    def test_position_range_checked(self):
        oracle = DualOracle(point_mass(), seed=1)
        for count, k in [(0, 0), (5, 5), (5, -1)]:
            with pytest.raises(OutOfRangeError):
                oracle.order_statistic(count, k)
        assert oracle.query_counts() == (0, 0)


class TestStageOneRoute:
    @pytest.mark.parametrize(
        "spec, count, draws",
        [
            # the benchmark's stage ones: its inputs (the CSV's 2 runs as
            # two_tier) and r
            pytest.param("two_tier:n=10000,h=10,H=0.5", 22_500, False, id="cli-file-1e6"),
            pytest.param("zipf:n=100000,s=1.0", 90_000, True, id="uni-zipf-draws"),
            pytest.param("geometric:n=100000,rho=0.999", 360_000, True, id="bi-pivot-sweep"),
        ],
    )
    def test_benchmark_configs(self, spec, count, draws):
        assert stage_one_draws(make_distribution(parse_spec(spec)), count) is draws

    def test_positive_runs_are_counted(self):
        # 2 positive runs and a zero run: 16 draws stay on the draw route,
        # 17 take the Beta route
        dist = make_distribution(parse_spec("two_tier:n=100,h=10,H=0.5,pad=5"))
        assert stage_one_draws(dist, 16)
        assert not stage_one_draws(dist, 17)


class TestOrderStatisticLaw:
    # stage one's pivot against its exact law, computed from the whole
    # distribution; nothing here depends on how the draws are made
    @pytest.mark.parametrize("count", [20, 200])
    @pytest.mark.parametrize(
        "spec",
        [
            "two_tier:n=60,h=20,H=0.5",  # two runs of tied probabilities
            "zipf:n=60,s=0.5,pad=20",  # zero-probability elements sort first
        ],
    )
    def test_positions_follow_the_binomial_law(self, spec, count):
        dist = make_distribution(parse_spec(spec))
        for k in (count // 10, count // 2, count * 9 // 10):
            # seeds of their own for each (count, k): runs that shared their
            # draws would share their chance deviations
            seeds = [derive_seed(1000 * count + k, i) for i in range(2000)]
            positions = np.array(
                [DualOracle(dist, seed).order_statistic(count, k)[0] for seed in seeds]
            )
            pvalue = chi_square_pvalue(positions, order_statistic_cdf(dist, count, k))
            assert pvalue > 1e-4, (k, pvalue)


class TestInverseProbSum:
    def test_point_mass_is_exact(self):
        oracle = DualOracle(point_mass(), seed=2)
        assert oracle.inverse_prob_sum(12345, (A, 1.0)) == 12345.0
        assert oracle.query_counts() == (12345, 12345)

    def test_pivot_tie_counts_from_its_label(self):
        # every element ties, so label i sits at canonical position i; the
        # pivot's position and the later ones count
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
        # so does a position beyond int64, and it is charged all the same
        assert oracle.inverse_prob_sum(100, (10**30, 0.0)) == 0.0
        assert oracle.query_counts() == (1100, 1100)

    def test_zero_and_negative_counts(self):
        oracle = DualOracle(point_mass(), seed=6)
        assert oracle.inverse_prob_sum(0, (A, 1.0)) == 0.0
        with pytest.raises(OutOfRangeError):
            oracle.inverse_prob_sum(-1, (A, 1.0))
        assert oracle.query_counts() == (0, 0)

    def test_deterministic_given_seed(self):
        dist = make_distribution(GeneratorSpec("geometric", n=500, rho=0.99))
        pivot = (250, float(np.sort(dist.probs)[250]))
        first = DualOracle(dist, seed=7).inverse_prob_sum(10**7, pivot)
        second = DualOracle(dist, seed=7).inverse_prob_sum(10**7, pivot)
        assert first == second


class TestInverseProbSumMoments:
    # stage two against its exact law, computed from the whole distribution
    @pytest.mark.parametrize(
        "spec, position, count",
        [
            ("zipf:n=2000,s=1.0", 1000, 10**5),
            ("two_tier:n=2000,h=20,H=0.5", 1000, 10**5),
            ("two_tier:n=2000,h=20,H=0.5", 1990, 10**5),  # inside the heavy run
            ("geometric:n=2000,rho=0.999,pad=50", 615, 10**6),
        ],
    )
    def test_standardised_sums_have_mean_0_and_variance_1(self, spec, position, count):
        dist = make_distribution(parse_spec(spec))
        mean, variance = inverse_prob_term_moments(dist, position)
        pivot = (position, float(dist.run_values[dist.run_of(position)]))
        trials = 3000
        means = np.array(
            [
                DualOracle(dist, derive_seed(47, i)).inverse_prob_sum(count, pivot) / count
                for i in range(trials)
            ]
        )
        z = (means - mean) / np.sqrt(variance / count)
        assert abs(z.mean()) <= 4.0 / np.sqrt(trials), z.mean()
        assert abs(z.var(ddof=1) - 1.0) <= 4.0 * np.sqrt(2.0 / (trials - 1)), z.var(ddof=1)


def suffix_scan_inverse_prob_sum(oracle, count, pivot) -> float:
    """Stage two with its runs found by scanning every element at or above
    the pivot's canonical position.

    :meth:`DualOracle.inverse_prob_sum` reads the same runs from
    ``dist.run_bounds`` and must match this bit for bit: the same
    multinomial cells, drawn from the same stream.  Query counts are not
    charged.
    """
    dist = oracle.dist
    start = max(pivot[0], dist.size - dist.support_size)
    probs = np.sort(dist.probs)[start:]
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
    element, and one past every element."""
    sorted_probs = np.sort(dist.probs)
    starts = np.flatnonzero(np.r_[True, sorted_probs[1:] != sorted_probs[:-1]])
    ends = np.r_[starts[1:], dist.size] - 1
    positions = {dist.size - dist.support_size}
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        positions |= {lo, (lo + hi) // 2, hi}
    pivots = [(p, float(sorted_probs[p])) for p in sorted(positions)]
    return pivots + [(dist.size, 1.0)]


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
        position = dist.size // 5
        pivot = (position, float(dist.run_values[dist.run_of(position)]))
        oracle = DualOracle(dist, seed=12)
        total, _, peak = traced_peak(lambda: oracle.inverse_prob_sum(10**6, pivot))
        assert total > 0.0
        assert peak < 1 << 20
