import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ess_toolkit import (
    MAX_EPS,
    DiscreteDistribution,
    DuplicateLabelError,
    MassNotOneError,
    NegativeProbabilityError,
    OutOfRangeError,
    UnknownLabelError,
    band_endpoints,
    canonical_order,
    exact_ess,
    exact_ess_bruteforce,
    exact_quantile,
    read_distribution,
    write_distribution,
)
from ess_toolkit import distribution
from ess_toolkit.generators import GeneratorSpec, make_distribution, parse_spec

from conftest import indexed, precedes, random_simplex_distribution, traced_peak, validate

A, B = 0, 1  # two-element label shorthand
NOT_FINITE = "probabilities must be finite"
DUPLICATE = "labels within one distribution must be unique"


def uniform(n: int) -> DiscreteDistribution:
    return indexed([1.0 / n] * n)


class TestValidate:
    def test_symmetric_two_point(self):
        dist = validate({A: 0.5, B: 0.5})
        # equal probabilities: canonical order falls back to label order
        assert dist.labels[canonical_order(dist)].tolist() == [A, B]

    def test_mass_not_one(self):
        with pytest.raises(MassNotOneError):
            validate({A: 0.5, B: 0.6})

    def test_zero_prob_element_sorts_first(self):
        dist = validate({A: 1.0, B: 0.0})
        assert dist.labels[canonical_order(dist)].tolist() == [B, A]
        assert dist.support_size == 1
        assert dist.size == 2

    def test_negative_probability(self):
        with pytest.raises(NegativeProbabilityError):
            validate({A: 1.2, B: -0.2})

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            DiscreteDistribution([3, 3], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(OutOfRangeError):
            DiscreteDistribution([], [])

    def test_mass_tolerance_boundary(self):
        validate({A: 0.5, B: 0.5 + 5e-10})  # inside 1e-9
        with pytest.raises(MassNotOneError):
            validate({A: 0.5, B: 0.5 + 5e-9})

    def test_nonfinite_rejected(self):
        with pytest.raises(OutOfRangeError):
            validate({A: float("nan"), B: 0.5})

    @pytest.mark.parametrize(
        "labels, probs, error, message",
        [
            # the checks run in a fixed order: label, numbers, length, empty,
            # finite, negative, duplicate, mass; each input fails two.  Ids
            # are explicit, so a row added anywhere renames no other case;
            # the first ten keep the ids they had by position, which earlier
            # test reports name
            pytest.param(
                [0, 1, 2], [math.nan, -0.5, 1.5], OutOfRangeError, NOT_FINITE,
                id="labels0-probs0-OutOfRangeError-probabilities must be finite",
            ),
            pytest.param(
                [0, 1], [-math.inf, 1.0], OutOfRangeError, NOT_FINITE,
                id="labels1-probs1-OutOfRangeError-probabilities must be finite",
            ),
            pytest.param(
                [0, 1], [math.inf, 0.5], OutOfRangeError, NOT_FINITE,
                id="labels2-probs2-OutOfRangeError-probabilities must be finite",
            ),
            pytest.param(
                [3, 3, 4], [1.2, -0.2, 0.0], NegativeProbabilityError,
                "negative probability -0.2",
                id="labels3-probs3-NegativeProbabilityError-negative probability -0.2",
            ),
            pytest.param(
                [3, 3], [0.5, 0.6], DuplicateLabelError, DUPLICATE,
                id=f"labels4-probs4-DuplicateLabelError-{DUPLICATE}",
            ),
            pytest.param(
                [1.5, 2], [math.nan, 0.5], OutOfRangeError,
                "label must be an integer, got 1.5",
                id="labels5-probs5-OutOfRangeError-label must be an integer, got 1.5",
            ),
            # a bool is not a label, as a bool array is not
            pytest.param(
                [True, False], ["0.5", "0.5"], OutOfRangeError,
                "label must be an integer, got True",
                id="labels6-probs6-OutOfRangeError-label must be an integer, got True",
            ),
            pytest.param(
                [0, 1, 2], ["0.5", "0.5"], OutOfRangeError, "probabilities must be numbers",
                id="labels7-probs7-OutOfRangeError-probabilities must be numbers",
            ),
            # finite rows whose mass is beyond the float range: the duplicate
            # still comes first, and the mass fails with no numpy warning
            pytest.param(
                [3, 3], [1e308, 1e308], DuplicateLabelError, DUPLICATE,
                id=f"labels8-probs8-DuplicateLabelError-{DUPLICATE}",
            ),
            pytest.param(
                [3, 4], [1e308, 1e308], MassNotOneError,
                "probabilities sum to inf, expected 1 within 1e-09",
                id="labels9-probs9-MassNotOneError-probabilities sum to inf, expected 1 within 1e-09",
            ),
            # labels that start in increasing order take the sort as well
            pytest.param(
                [1, 2, 2, 5], [0.25, 0.25, 0.25, 0.5], DuplicateLabelError, DUPLICATE,
                id="duplicate-among-increasing-labels",
            ),
        ],
    )
    def test_first_failed_check_is_reported(self, labels, probs, error, message):
        with pytest.raises(error) as info:
            DiscreteDistribution(labels, probs)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "labels",
        [
            pytest.param([5, 1, 9, 2], id="scattered"),
            pytest.param([1, 2, 5, 3], id="one-drop-at-the-end"),
            pytest.param(np.array([2**64 - 1, 2**63, 0, 7], dtype=np.uint64), id="above-2**63"),
        ],
    )
    def test_unique_labels_out_of_order_accepted(self, labels):
        # only strictly increasing labels skip the sort; others are sorted
        # to find duplicates, and none is there
        dist = DiscreteDistribution(labels, [0.1, 0.2, 0.3, 0.4])
        assert dist.labels.tolist() == list(map(int, labels))

    @pytest.mark.parametrize(
        "probs",
        [["0.5", "0.5"], [b"0.5", b"0.5"], [True, False], np.array([True, False])],
    )
    def test_non_numeric_probabilities_rejected(self, probs):
        # numpy would parse the strings and take True as 1
        with pytest.raises(OutOfRangeError, match="probabilities must be numbers"):
            DiscreteDistribution([0, 1], probs)

    def test_validate_passes_instance_through(self):
        dist = uniform(3)
        assert validate(dist) is dist

    def test_labels_must_be_unsigned_64bit(self):
        with pytest.raises(OutOfRangeError):
            DiscreteDistribution([-1, 0], [0.5, 0.5])
        with pytest.raises(OutOfRangeError):
            DiscreteDistribution([2**64, 0], [0.5, 0.5])
        dist = DiscreteDistribution([2**64 - 1, 0], [0.25, 0.75])
        assert dist.prob_of(2**64 - 1) == 0.25

    def test_total_is_the_exact_sum(self):
        dist = make_distribution(GeneratorSpec("zipf", n=1000, s=1.0, zero_pad=50))
        assert dist.total == math.fsum(dist.probs.tolist())
        assert dist.total == math.fsum(dist.probs[dist.probs > 0.0].tolist())


class TestProbOf:
    SCATTERED = {2**63 + 9: 0.5, 17: 0.25, 2**40: 0.25}

    def test_labels_outside_64_bits_or_absent(self):
        dist = validate(self.SCATTERED)
        for label in (-1, 2**64, 0, 18, 2**63 + 8):
            with pytest.raises(UnknownLabelError):
                dist.prob_of(label)

    def test_scattered_labels(self):
        dist = validate(self.SCATTERED)
        assert [dist.prob_of(label) for label in self.SCATTERED] == [0.5, 0.25, 0.25]


class TestPrecedes:
    def test_smaller_probability_precedes(self):
        dist = validate({A: 0.3, B: 0.7})
        assert precedes(dist, A, B) is True

    def test_tie_broken_by_label(self):
        dist = validate({A: 0.5, B: 0.5})
        assert precedes(dist, A, B) is True

    def test_antisymmetry(self):
        dist = validate({A: 0.3, B: 0.7})
        assert precedes(dist, B, A) is False

    def test_irreflexive(self):
        dist = validate({A: 0.3, B: 0.7})
        assert precedes(dist, A, A) is False

    def test_unknown_label(self):
        dist = validate({A: 0.3, B: 0.7})
        with pytest.raises(UnknownLabelError):
            precedes(dist, A, 99)


class TestExactQuantile:
    def test_uniform_interior(self):
        assert exact_quantile(uniform(10), 0.25) == 2  # cumulative 0.3 > 0.25

    def test_strictness_at_boundary(self):
        dist = validate({A: 0.1, B: 0.9})
        # cumulative at A is exactly 0.1, not > 0.1
        assert exact_quantile(dist, 0.1) == B

    def test_below_boundary(self):
        dist = validate({A: 0.1, B: 0.9})
        assert exact_quantile(dist, 0.05) == A

    def test_eps_zero_returns_lightest_positive(self):
        dist = validate({A: 1.0, B: 0.0})
        assert exact_quantile(dist, 0.0) == A

    def test_eps_domain(self):
        dist = uniform(4)
        with pytest.raises(OutOfRangeError):
            exact_quantile(dist, 1.0)
        with pytest.raises(OutOfRangeError):
            exact_quantile(dist, 1.0 - 1e-10)
        with pytest.raises(OutOfRangeError):
            exact_quantile(dist, -0.1)

    def test_strictness_invariant_on_random_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            dist = random_simplex_distribution(rng)
            eps = float(rng.uniform(0.0, 0.9))
            label = exact_quantile(dist, eps)
            cumulative = np.cumsum(np.sort(dist.probs))
            pos = int(np.flatnonzero(dist.labels[canonical_order(dist)] == label)[0])
            mass_before = float(cumulative[pos - 1]) if pos else 0.0
            assert mass_before <= eps < float(cumulative[pos])
            assert dist.prob_of(label) > 0.0


class TestExactEss:
    def test_uniform(self):
        assert exact_ess(uniform(10), 0.25) == 8

    def test_strict_threshold(self):
        dist = validate({A: 0.1, B: 0.9})
        assert exact_ess(dist, 0.05) == 2
        assert exact_ess(dist, 0.1) == 1

    def test_zipf_matches_bruteforce(self):
        dist = make_distribution(GeneratorSpec("zipf", n=100, s=1.0))
        assert exact_ess(dist, 0.1) == exact_ess_bruteforce(dist, 0.1)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(7)
        grid = [0.0, 0.01, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        for _ in range(100):
            dist = random_simplex_distribution(rng)
            values = [exact_ess(dist, e) for e in grid]
            assert values == sorted(values, reverse=True)

    def test_quantile_probability_lower_bounds_wider_ess(self):
        # For any levels eps and alpha in (0, 1):
        # ess at (1-alpha)*eps is at least eps*alpha / p(quantile at eps).
        # Holds for every distribution as a matter of arithmetic (the mass
        # between the two quantiles exceeds eps*alpha and sits on elements
        # no heavier than p(quantile at eps)), so assert with no slack.
        rng = np.random.default_rng(99)
        grid = [0.1, 0.3, 0.5]
        for _ in range(200):
            dist = random_simplex_distribution(rng)
            for eps in grid:
                p_eps = dist.prob_of(exact_quantile(dist, eps))
                for alpha in grid:
                    assert exact_ess(dist, (1 - alpha) * eps) >= eps * alpha / p_eps


class TestExactEssBruteforce:
    def test_uniform(self):
        assert exact_ess_bruteforce(uniform(10), 0.25) == 8

    def test_point_mass(self):
        dist = validate({A: 1.0})
        for eps in [0.0, 0.3, 0.9]:
            assert exact_ess_bruteforce(dist, eps) == 1

    def test_equivalence_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            dist = random_simplex_distribution(rng)
            for eps in [0.01, 0.05, 0.1, 0.2, 0.3, 0.5]:
                assert exact_ess(dist, eps) == exact_ess_bruteforce(dist, eps)

    def test_equivalence_at_uniform_boundaries(self):
        # eps landing exactly on a cumulative-mass boundary is the
        # adversarial case for float prefix sums; the two routes must
        # still agree on what the stored probabilities imply
        for n in (10, 1000, 10_000):
            dist = uniform(n)
            for eps in [0.1, 0.11, 0.2, 0.24, 0.25, 0.5]:
                assert exact_ess(dist, eps) == exact_ess_bruteforce(dist, eps)


class TestRunBounds:
    def test_runs_of_equal_probability_in_canonical_order(self):
        dist = validate({5: 0.25, 1: 0.0, 9: 0.25, 2: 0.0, 3: 0.5, 7: 0.0})
        assert dist.run_bounds.tolist() == [0, 3, 5, 6]
        assert validate({A: 1.0}).run_bounds.tolist() == [0, 1]

    def test_every_run_is_one_probability_and_neighbours_differ(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            base = random_simplex_distribution(rng)
            # repeat each probability a few times to make ties
            probs = np.repeat(base.probs, 3) / 3.0
            dist = indexed(probs)
            bounds = dist.run_bounds
            assert bounds[0] == 0 and bounds[-1] == dist.size
            assert np.all(np.diff(bounds) > 0)
            sorted_probs = np.sort(dist.probs)
            assert np.array_equal(dist.run_values, sorted_probs[bounds[:-1]])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                assert np.all(sorted_probs[lo:hi] == sorted_probs[lo])
            assert np.all(sorted_probs[bounds[1:-1]] != sorted_probs[bounds[1:-1] - 1])


def element_cumulative(dist: DiscreteDistribution) -> np.ndarray:
    """Prefix sums of the sorted probabilities, one per element."""
    return np.cumsum(np.sort(dist.probs))


def rounded_simplex(rng: np.random.Generator) -> DiscreteDistribution:
    """Probabilities on a grid of 1/10**d: ties, and zeros where a cell
    got no mass, with labels in shuffled order."""
    n = int(rng.integers(1, 60))
    scale = 10 ** int(rng.integers(1, 4))
    counts = rng.multinomial(scale, rng.dirichlet(np.ones(n)))
    labels = rng.permutation(n).astype(np.uint64)
    return DiscreteDistribution(labels, counts / scale)


class TestCanonicalOrder:
    def test_is_lexsort_by_probability_then_label(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            base = rounded_simplex(rng)  # ties and zeros
            # an odd multiplier permutes the 64-bit integers: unique, scattered
            labels = base.labels * np.uint64(0x9E3779B97F4A7C15)
            dist = DiscreteDistribution(labels, base.probs)
            want = np.lexsort((dist.labels, dist.probs))
            assert np.array_equal(canonical_order(dist), want)


BIT_IDENTITY_SOURCES = [
    "uniform:n=10000",
    "zipf:n=100000,s=1.0",
    "geometric:n=1000,rho=0.99",
    "two_tier:n=10000,h=10,H=0.9",
    "two_tier:n=1000000,h=1000,H=0.5",
]


class TestRunIndexBitIdentity:
    """The run index answers exactly as prefix sums over every element do."""

    @staticmethod
    def assert_matches_element_search(dist, levels, quantile_levels=()) -> None:
        cumulative = element_cumulative(dist)
        order = canonical_order(dist)
        for eps in levels:
            position = min(int(np.searchsorted(cumulative, eps, side="right")), dist.size - 1)
            assert exact_ess(dist, eps) == dist.size - position, eps
        for eps in quantile_levels:
            position = min(int(np.searchsorted(cumulative, eps, side="right")), dist.size - 1)
            assert exact_quantile(dist, eps) == int(dist.labels[order[position]]), eps

    @staticmethod
    def levels(dist, rng, count: int) -> list[float]:
        # element prefix sums, where strictness decides, inside runs and at
        # their ends; their neighbours; and a grid
        sums = element_cumulative(dist)
        ends = np.unique(np.concatenate([sums, dist.run_cumulative]))
        ends = ends[ends < MAX_EPS]
        picked = rng.choice(ends, size=min(count, ends.size), replace=False)
        near = np.concatenate([picked, np.nextafter(picked, 0.0), np.nextafter(picked, 1.0)])
        grid = np.linspace(0.0, 0.99, count)
        return [float(x) for x in np.concatenate([near, grid]) if 0.0 <= x < MAX_EPS]

    def test_run_cumulative_is_element_cumsum_at_run_ends(self):
        rng = np.random.default_rng(31)
        dists = [make_distribution(parse_spec(s)) for s in BIT_IDENTITY_SOURCES]
        dists += [rounded_simplex(rng) for _ in range(90)]
        for dist in dists:
            want = element_cumulative(dist)[dist.run_bounds[1:] - 1]
            assert dist.run_cumulative.tobytes() == want.tobytes()

    @pytest.mark.parametrize("source", BIT_IDENTITY_SOURCES)
    def test_generated_sources(self, source):
        dist = make_distribution(parse_spec(source))
        rng = np.random.default_rng(32)
        levels = self.levels(dist, rng, 100)
        self.assert_matches_element_search(dist, levels, levels[:: len(levels) // 5])

    def test_rounded_simplices_with_zeros(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            dist = rounded_simplex(rng)
            levels = self.levels(dist, rng, 20)
            self.assert_matches_element_search(dist, levels, levels)


class TestSetUpMemory:
    # guards on the footprint: the distribution keeps its two input columns
    # plus its run index, and neither set-up nor the brute-force reference
    # holds a Python object per element.  Beside the caller's arrays the
    # constructor holds its label copy and one scratch array of n at a
    # time, plus a one-byte comparison mask: 17 bytes a row
    @staticmethod
    def two_tier_columns():
        base = make_distribution(parse_spec("two_tier:n=1000000,h=1000,H=0.5"))
        # an odd multiplier permutes the 64-bit integers: unique, scattered
        labels = np.arange(base.size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return labels, np.array(base.probs)

    def test_constructor_traced_bytes_per_element(self):
        labels, probs = self.two_tier_columns()
        n = labels.size
        _, kept, peak = traced_peak(lambda: DiscreteDistribution(labels, probs))
        assert kept <= 16 * n + (1 << 16)
        assert peak <= 18 * n

    def test_constructor_from_reader_rows(self):
        # the CSV reader passes the two fields of its structured rows,
        # strided views that the constructor must copy
        labels, probs = self.two_tier_columns()
        n = labels.size
        rows = np.empty(n, dtype=[("label", np.uint64), ("prob", np.float64)])
        rows["label"], rows["prob"] = labels, probs
        del labels, probs
        dist, kept, peak = traced_peak(
            lambda: DiscreteDistribution(rows["label"], rows["prob"])
        )
        assert dist.probs.tobytes() == rows["prob"].tobytes()
        assert kept <= 16 * n + (1 << 16)
        assert peak <= 18 * n

    def test_bruteforce_traced_transient(self):
        dist = make_distribution(parse_spec("two_tier:n=1000000,h=1000,H=0.5"))
        # the walk takes about 100k elements, several slices
        ess, _, peak = traced_peak(lambda: exact_ess_bruteforce(dist, 0.05))
        assert ess == exact_ess(dist, 0.05)
        assert peak <= 16 * dist.size


    def test_band_endpoints_traced_peak_is_one_slice(self):
        # both levels fall in the light run of 999 000 ties, whose masses in
        # one pass would take 8 MB; a slice of them takes 512 KiB
        dist = make_distribution(parse_spec("two_tier:n=1000000,h=1000,H=0.5"))
        band, _, peak = traced_peak(
            lambda: band_endpoints(dist, 0.2, 0.2, 0.2, "bicriteria")
        )
        assert band[2:] == (exact_ess_bruteforce(dist, 0.2), exact_ess_bruteforce(dist, 0.24))
        assert peak <= 8 * distribution._SLICE + (1 << 16)


def fsum_outcome(sum_of, values) -> str:
    """A sum's bits in hex, or the OverflowError it raised."""
    try:
        return sum_of(values).hex()
    except OverflowError as exc:
        return f"OverflowError: {exc}"


def assert_sums_like_fsum(values) -> None:
    array = np.asarray(values, dtype=np.float64)
    expected = fsum_outcome(math.fsum, array.tolist())
    assert fsum_outcome(distribution.exact_sum, array) == expected


class TestExactSum:
    # exact_sum returns what math.fsum returns, bit for bit, and raises
    # where it raises: the chunk edges, ties at half an ulp, signed
    # remainders, and sums near the float maximum.  The property is static:
    # test_power.py calls it directly, and hypothesis rejects one method
    # run on two instances
    @staticmethod
    @given(
        st.one_of(
            st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
            # the head extracts exactly: where the repeats round up, every
            # remainder of the first level is 0 or negative, and a loop that
            # stops on the largest remainder alone drops the next level
            st.builds(lambda v, k: [0.5] + [v] * k, st.floats(0.0, 1.0), st.integers(2, 49)),
        )
    )
    @example([0.5, 0.1, 0.1])
    @settings(deadline=None, max_examples=300)
    def test_equals_fsum(values):
        assert_sums_like_fsum(values)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0**-1000, allow_subnormal=True),
            min_size=1,
        )
    )
    @settings(deadline=None, max_examples=100)
    def test_equals_fsum_on_subnormals(self, values):
        assert_sums_like_fsum(values)

    @pytest.mark.parametrize(
        "size",
        [
            pytest.param(2**15 - 1, id="one-short-of-a-chunk"),
            pytest.param(2**15, id="one-chunk"),
            pytest.param(2**15 + 1, id="one-past-a-chunk"),
        ],
    )
    def test_chunk_edges(self, size):
        rng = np.random.default_rng(size)
        # full mantissas near the top fill the 53 bits a level's sum may
        # use; exponents spread over 120 binades take several levels
        assert_sums_like_fsum(rng.random(size))
        assert_sums_like_fsum(np.ldexp(rng.random(size), rng.integers(-120, 0, size)))
        assert_sums_like_fsum(np.full(size, 0.1))

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([1.0, 2.0**-53], id="half-ulp-tie-to-even"),
            pytest.param([1.0, 2.0**-53, 5e-324], id="half-ulp-and-the-least-subnormal"),
        ],
    )
    def test_half_ulp_ties(self, values):
        assert_sums_like_fsum(values)
        # the tie again at the total of 2**16 values, two chunks
        assert_sums_like_fsum(values * 2**15)

    def test_all_negative_remainders(self):
        # a chunk of light rows holds one value, so its remainders share a
        # sign, and here the first level rounds them up: stopping on the
        # largest remainder alone reads 1.0000001083685357
        probs = make_distribution(parse_spec("two_tier:n=1000000,h=1,H=0.5")).probs
        assert_sums_like_fsum(probs)
        assert distribution.exact_sum(probs) == 1.0

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([1e308, 1e308], id="twice-1e308"),
            pytest.param([np.finfo(float).max, 2.0**970], id="max-plus-half-an-ulp"),
            pytest.param([2.0**1006] * 2**18, id="many-below-the-split-limit"),
        ],
    )
    def test_overflow_raises_as_fsum_does(self, values):
        with pytest.raises(OverflowError):
            math.fsum(values)
        assert_sums_like_fsum(values)

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([np.finfo(float).max, 2.0**969], id="max-plus-a-quarter-ulp"),
            pytest.param([2.0**1010] * 3, id="above-the-split-limit"),
        ],
    )
    def test_near_the_maximum(self, values):
        # finite sums the vector path leaves to fsum, with no numpy warning
        assert_sums_like_fsum(values)

    def test_all_zeros(self):
        assert distribution.exact_sum(np.zeros(2**15 + 1)).hex() == "0x0.0p+0"
        assert distribution.exact_sum(np.zeros(0)).hex() == "0x0.0p+0"


class TestQuantileSlices:
    # exact_ess scans the run holding eps a slice at a time, each slice's
    # cumsum started from the last mass of the one before: eps in every
    # slice of a tie run longer than two slices, and at each element's
    # mass and its neighbours, gives the brute-force answer
    @staticmethod
    def levels(dist, positions):
        masses = np.cumsum(np.sort(dist.probs))
        return [
            np.nextafter(masses[j], direction)
            for j in positions
            for direction in (0.0, masses[j], 1.0)
        ]

    def assert_matches_bruteforce(self, dist, positions):
        for eps in self.levels(dist, positions):
            assert exact_ess(dist, eps) == exact_ess_bruteforce(dist, eps), eps

    def test_every_element_of_a_run_of_small_slices(self, monkeypatch):
        monkeypatch.setattr(distribution, "_SLICE", 4)
        # runs of 3, 11 and 2: slices of the tie run start at 3, 7 and 11
        probs = np.repeat([1.0, 3.0, 50.0], [3, 11, 2])
        dist = indexed(probs / probs.sum())
        self.assert_matches_bruteforce(dist, range(dist.size - 1))

    def test_slice_edges_of_a_long_tie_run(self):
        size = distribution._SLICE
        # a tie run of 2.5 slices from position 10
        probs = np.repeat([1.0, 2.0, 1000.0], [10, 5 * size // 2, 3])
        dist = indexed(probs / probs.sum())
        edges = [10 + size, 10 + 2 * size]
        positions = [9, 10, 11, size // 2] + [e + d for e in edges for d in (-1, 0, 1)]
        self.assert_matches_bruteforce(dist, positions + [10 + 5 * size // 2 - 1])


class TestZeroPadding:
    def test_padding_changes_nothing(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            base = random_simplex_distribution(rng)
            pad_labels = np.arange(base.size, base.size + 40, dtype=np.uint64)
            padded = DiscreteDistribution(
                np.concatenate([base.labels, pad_labels]),
                np.concatenate([base.probs, np.zeros(40)]),
            )
            for eps in [0.0, 0.05, 0.2, 0.5]:
                assert exact_quantile(padded, eps) == exact_quantile(base, eps)
                assert exact_ess(padded, eps) == exact_ess(base, eps)


@st.composite
def simplex_dists(draw):
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=25,
        )
    )
    total = math.fsum(weights)
    return indexed([w / total for w in weights])


@given(simplex_dists(), st.floats(min_value=0.0, max_value=0.9))
@settings(deadline=None, max_examples=150)
def test_ess_oracle_equivalence_property(dist, eps):
    assert exact_ess(dist, eps) == exact_ess_bruteforce(dist, eps)


@given(
    simplex_dists(),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(deadline=None, max_examples=150)
def test_ess_monotonicity_property(dist, eps1, eps2):
    lo, hi = sorted([eps1, eps2])
    assert exact_ess(dist, lo) >= exact_ess(dist, hi)


class TestFileFormats:
    @pytest.fixture
    def awkward_dist(self):
        # values with no short decimal representation, plus a zero
        rng = np.random.default_rng(17)
        probs = rng.dirichlet(np.ones(9)) * (1.0 - 0.1 - 1e-17)
        labels = [5, 17, 2, 900, 31, 64, 128, 7, 2**40, 11, 12]
        return DiscreteDistribution(labels, list(probs) + [0.1 + 1e-17, 0.0])

    def test_csv_round_trip_bit_exact(self, tmp_path, awkward_dist):
        path = tmp_path / "dist.csv"
        write_distribution(awkward_dist, path)
        back = read_distribution(path)
        assert np.array_equal(back.labels, awkward_dist.labels)
        assert np.array_equal(back.probs, awkward_dist.probs)

    def test_json_round_trip_bit_exact(self, tmp_path, awkward_dist):
        path = tmp_path / "dist.json"
        write_distribution(awkward_dist, path)
        back = read_distribution(path)
        assert np.array_equal(back.labels, awkward_dist.labels)
        assert np.array_equal(back.probs, awkward_dist.probs)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,weight\n0,1.0\n")
        with pytest.raises(OutOfRangeError):
            read_distribution(path)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("short_row.csv", "label,prob\n0,1.0\n7\n"),
            ("long_row.csv", "label,prob\n0,1.0,extra\n"),
            ("bad_label.csv", "label,prob\nzero,1.0\n"),
            ("no_prob.json", '[{"label": 0}]'),
            ("scalar_row.json", "[0.5]"),
        ],
    )
    def test_malformed_rows_raise_out_of_range(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(OutOfRangeError):
            read_distribution(path)

    @pytest.mark.parametrize(
        "row",
        [
            # numpy 2.4's integer parser may crash, or read label 785062, on
            # this code point if it is ever handed it
            "\U000bfad6,1.0",
            # an Arabic-Indic three, which Python's int accepts
            "\u0663,1.0",
            "0,1.\u00b70",
        ],
        ids=["code_point", "arabic_indic_label", "in_prob"],
    )
    def test_non_ascii_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "wide.csv"
        path.write_text(f"label,prob\n{row}\n", encoding="utf-8")
        with pytest.raises(OutOfRangeError, match="CSV line 2"):
            read_distribution(path)

    def test_invalid_utf8_after_first_block_names_a_line(self, tmp_path):
        path = tmp_path / "late.csv"
        rows = b"".join(b"%d,0.0\n" % i for i in range(5000))
        path.write_bytes(b"label,prob\n" + rows + b"9,\xff\n5000,1.0\n")
        with pytest.raises(OutOfRangeError, match="CSV line 5002:"):
            read_distribution(path)

    def test_multi_line_record_names_its_first_line(self, tmp_path):
        path = tmp_path / "quoted.csv"
        rows = b"".join(b"%d,0.0\n" % i for i in range(5000))
        path.write_bytes(b"label,prob\n" + rows + b'"1\n2",0.5\n5000,0.5\n')
        with pytest.raises(OutOfRangeError, match="CSV line 5002:"):
            read_distribution(path)

    def test_invalid_utf8_in_first_block_names_its_line(self, tmp_path):
        path = tmp_path / "early.csv"
        path.write_bytes(b"label,prob\n0,0.5\n1,\xff\n")
        with pytest.raises(OutOfRangeError, match="CSV line 3:"):
            read_distribution(path)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(OutOfRangeError):
            write_distribution(uniform(2), tmp_path / "dist.txt")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_distribution(tmp_path / "absent.csv")


class TestImmutability:
    def test_arrays_not_writeable(self):
        dist = uniform(4)
        for arr in (
            dist.labels,
            dist.probs,
            dist.run_bounds,
            dist.run_values,
            dist.run_cumulative,
        ):
            with pytest.raises(ValueError):
                arr[0] = 0
