import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ess_toolkit import (
    DiscreteDistribution,
    DualOracle,
    EmptySampleError,
    MAX_EPS,
    EstimatorParams,
    ExperimentConfig,
    OutOfRangeError,
    SLACK_CAP,
    derive_seed,
    empirical_quantile,
    estimate_ess,
    estimate_ess_unicriterion,
    exact_ess,
    exact_quantile,
    inverse_prob_terms,
    sample_sizes,
    select_pivot,
)
from ess_toolkit.estimator import _strict_rank_index
from ess_toolkit.generators import GeneratorSpec, make_distribution, parse_spec
from ess_toolkit.oracle import stage_one_draws

from conftest import (
    chi_square_pvalue,
    indexed,
    inverse_prob_term_moments,
    label_pivot,
    order_statistic_cdf,
    position_law_pvalue,
    precedes,
    validate,
)

A, B = 0, 1


class TestParams:
    def test_ranges(self):
        EstimatorParams(0.5, 0.1, 0.1)
        for eps, beta, gamma in [
            (0.0, 0.1, 0.1),
            (1.0, 0.1, 0.1),
            (0.5, 0.0, 0.1),
            (0.5, 0.1, 0.0),
            (0.5, -1.0, 0.1),
            (float("nan"), 0.1, 0.1),
            (0.5, 0.1, float("inf")),
            (0.5, float("inf"), 0.1),
            (0.5, float("inf"), None),
        ]:
            with pytest.raises(OutOfRangeError):
                EstimatorParams(eps, beta, gamma)

    def test_parameters_are_stored_as_floats(self):
        # numpy scalars are in tests/test_inputs.py
        params = EstimatorParams(0.25, Fraction(1, 5), 1)
        assert (params.eps, params.beta, params.gamma) == (0.25, 0.2, 1.0)
        assert all(type(v) is float for v in (params.eps, params.beta, params.gamma))
        assert type(params.band_levels[0]) is float
        assert EstimatorParams(0.25, 1).gamma is None

    def test_eps_below_max_eps(self):
        # the exact references take no level from MAX_EPS on, so neither
        # does a plan
        EstimatorParams(np.nextafter(MAX_EPS, 0.0), 0.1, 0.1)
        for eps in (MAX_EPS, 0.9999999995):
            with pytest.raises(OutOfRangeError, match="eps must lie in"):
                EstimatorParams(eps, 0.001, 0.1)

    def test_non_real_parameters_rejected(self):
        # bools and strings are in tests/test_inputs.py
        for eps, beta, gamma in [
            (Decimal("0.25"), 0.1, 0.1),
            (None, 0.1, 0.1),
            (0.25, 0.1, 1j),
        ]:
            with pytest.raises(OutOfRangeError, match="must be a real number"):
                EstimatorParams(eps, beta, gamma)
        with pytest.raises(OutOfRangeError, match="does not fit a float"):
            EstimatorParams(0.25, 10**400)

    def test_clamping(self):
        params = EstimatorParams(0.5, 0.7, 1.3)
        assert params.beta_eff == 0.2
        assert params.gamma_eff == 0.2

    def test_degenerate_boundary(self):
        assert EstimatorParams(0.9, 0.2, 0.2).is_degenerate  # 1.2 * 0.9 >= 1
        assert not EstimatorParams(0.8, 0.2, 0.2).is_degenerate  # 0.96 < 1

    def test_unicriterion_plan(self):
        # gamma=None: the stages run at beta_eff/2 with gamma = eps*beta_eff/2,
        # while the degenerate rule keeps the capped requested beta
        params = EstimatorParams(0.5, 0.7)
        assert (params.beta_eff, params.stage_beta, params.gamma_eff) == (
            0.2,
            0.1,
            0.05,
        )
        assert sample_sizes(params) == sample_sizes(EstimatorParams(0.5, 0.1, 0.05))
        assert EstimatorParams(0.9, 0.2).is_degenerate  # 1.1 * 0.9 < 1 would not be

    def test_band_levels(self):
        # bicriteria bands use the requested slack, unicriterion the capped beta
        assert EstimatorParams(0.3, 0.7, 1.3).band_levels == (1.7 * 0.3, 1.0 + 1.3)
        assert EstimatorParams(0.3, 0.7).band_levels == (1.2 * 0.3, 1.0)


class TestSampleSizes:
    def test_reference_values(self):
        assert sample_sizes(EstimatorParams(0.2, 0.2, 0.2)) == (22500, 312500)
        assert sample_sizes(EstimatorParams(0.1, 0.1, 0.1)) == (180000, 5000000)

    def test_clamped_beta_same_as_cap(self):
        assert sample_sizes(EstimatorParams(0.2, 0.5, 0.2)) == (22500, 312500)

    def test_independent_of_distribution(self):
        # sizes are pure functions of the parameters by construction; check
        # a few parameter points stay stable
        for eps in [0.05, 0.3, 0.77]:
            r1, t1 = sample_sizes(EstimatorParams(eps, 0.15, 0.11))
            r2, t2 = sample_sizes(EstimatorParams(eps, 0.15, 0.11))
            assert (r1, t1) == (r2, t2) and r1 >= 1 and t1 >= 1

    @pytest.mark.parametrize(
        "params, name",
        [
            (EstimatorParams(0.2, 1e-200, 0.2), "r"),  # beta**2 underflows to 0
            (EstimatorParams(0.2, 1e-200), "r"),
            (EstimatorParams(0.2, 0.2, 1e-200), "t"),  # gamma**2 underflows to 0
            (EstimatorParams(0.2, 0.2, 1e-10), "t"),  # t = 1.25e24
            (EstimatorParams(0.2, 1e-8), "r"),  # r = 3.6e19
            (EstimatorParams(0.2, 1e-150, 0.2), "r"),  # r = 9e302
        ],
    )
    def test_size_beyond_a_64_bit_count_rejected(self, params, name):
        with pytest.raises(OutOfRangeError, match=f"^{name} = "):
            sample_sizes(params)

    def test_largest_sizes_still_fit(self):
        # stage one holds r positions of up to 8 bytes: r = 1.148e18 is
        # just below 2**63 / 8
        r_size, _ = sample_sizes(EstimatorParams(0.2, 2.8e-8, 0.2))
        assert 1147 * 10**15 < r_size <= np.iinfo(np.intp).max // 8

    @pytest.mark.parametrize(
        "params",
        [
            EstimatorParams(0.2, 1e-8, 0.2),  # r = 9.0e18, below 2**63
            EstimatorParams(0.2, 2.7e-8, 0.2),  # r = 1.23e18, 8 r above 2**63
        ],
    )
    def test_positions_beyond_the_address_space_rejected(self, params):
        with pytest.raises(OutOfRangeError, match="^r = .* bytes of positions"):
            sample_sizes(params)


class TestEmpiricalQuantile:
    def test_count_strictly_above_threshold(self):
        labels = [A] * 3 + [B] * 7
        probs = [0.1] * 3 + [0.9] * 7
        # rank of A in the sorted sample is 3 > 0.25 * 10
        assert empirical_quantile(labels, probs, 0.25) == (A, 0.1)

    def test_integer_threshold_is_strict(self):
        labels = [A] * 3 + [B] * 9
        probs = [0.1] * 3 + [0.9] * 9
        # 3 == 0.25 * 12 exactly: not strictly greater, so B is selected
        assert empirical_quantile(labels, probs, 0.25) == (B, 0.9)

    def test_ties_resolved_by_label_order(self):
        labels = list(range(10))
        probs = [0.1] * 10
        assert empirical_quantile(labels, probs, 0.5) == (5, 0.1)  # 6th by label

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            empirical_quantile([], [], 0.5)

    def test_theta_domain(self):
        with pytest.raises(OutOfRangeError):
            empirical_quantile([A], [1.0], 0.0)
        with pytest.raises(OutOfRangeError):
            empirical_quantile([A], [1.0], 1.0)

    def test_float_drift_at_integer_boundary(self):
        # 0.22 * 22500 == 4950 in exact arithmetic; the float product lands
        # a few ulp away and must still resolve to rank 4951
        labels = np.arange(22500, dtype=np.uint64)
        probs = np.full(22500, 1.0 / 22500)
        theta = (1.0 + 0.2 / 2.0) * 0.2
        assert empirical_quantile(labels, probs, theta) == (4950, 1.0 / 22500)


class TestInverseProbTerms:
    def test_three_regions(self):
        labels = np.array([3, 4, 5, 6], dtype=np.uint64)
        probs = np.array([0.1, 0.2, 0.2, 0.5])
        terms = inverse_prob_terms(labels, probs, pivot=(5, 0.2))
        # below pivot prob; tie with smaller label; the pivot; above
        assert terms.tolist() == [0.0, 0.0, 5.0, 2.0]

    def test_term_bounds_on_sampled_batch(self):
        dist = make_distribution(GeneratorSpec("zipf", n=500, s=1.0))
        oracle = DualOracle(dist, seed=31)
        params = EstimatorParams(0.2, 0.2, 0.2)
        pivot = label_pivot(dist, select_pivot(oracle, params))
        labels, probs = oracle.sample_with_prob_many(100_000)
        terms = inverse_prob_terms(labels, probs, pivot)
        assert np.all(terms >= 0.0)
        nonzero = terms[terms > 0]
        assert nonzero.size > 0
        assert np.all(nonzero <= 1.0 / pivot[1] * (1 + 1e-12))
        assert float(terms.mean()) <= 1.0 / float(probs.min())


class TestSelectPivot:
    def test_degenerate_params_rejected(self):
        oracle = DualOracle(validate({A: 1.0}), seed=1)
        with pytest.raises(OutOfRangeError):
            select_pivot(oracle, EstimatorParams(0.9, 0.2, 0.2))

    def test_pivot_concentrates_between_exact_quantiles(self):
        dist = make_distribution(GeneratorSpec("uniform", n=100))
        eps, beta = 0.2, 0.2
        low = exact_quantile(dist, (1 + beta / 4) * eps)
        high = exact_quantile(dist, (1 + 3 * beta / 4) * eps)
        params = EstimatorParams(eps, beta, 0.2)
        hits = 0
        for i in range(300):
            oracle = DualOracle(dist, derive_seed(424242, i))
            label, _ = label_pivot(dist, select_pivot(oracle, params))
            if not precedes(dist, label, low) and not precedes(dist, high, label):
                hits += 1
        assert hits >= 255  # 85% of 300

    @pytest.mark.parametrize("spec", ["uniform:n=5000", "zipf:n=5000,s=1.0,pad=100"])
    def test_positions_follow_the_law_of_the_planned_rank(self, spec):
        # the plan's k of the plan's r: stage one at level (1 + stage_beta/2) eps
        dist = make_distribution(parse_spec(spec))
        params = EstimatorParams(0.5, 0.2, 0.2)
        r_size, _ = sample_sizes(params)
        theta = (1.0 + params.stage_beta / 2.0) * params.eps
        k = _strict_rank_index(theta * r_size, r_size)
        positions = np.array(
            [
                select_pivot(DualOracle(dist, derive_seed(31, i)), params)[0]
                for i in range(2000)
            ]
        )
        pvalue = chi_square_pvalue(positions, order_statistic_cdf(dist, r_size, k))
        assert pvalue > 1e-4, pvalue


# (eps, beta) points of a bicriteria plan with gamma = 0.2: theta * r is
# 4950, 18 900, 18 900 and 4950 (integers, where the strict rank matters),
# then 8600.3225
RANK_GRID = [
    ("0.2", "0.2"),
    ("0.1", "0.1"),
    ("0.3", "0.1"),
    ("0.25", "0.2"),
    ("0.35", "0.15"),
]


def planned_rank(eps: str, beta, r_size: int) -> int:
    """The smallest 0-based k with k + 1 > theta * r, theta = (1 + beta/2)
    eps, in exact arithmetic on the decimal parameters; ``beta`` is the
    stages' slack, a decimal string or a Fraction."""
    theta = (1 + Fraction(beta) / 2) * Fraction(eps)
    return min(math.floor(theta * r_size), r_size - 1)


def three_run_distribution() -> DiscreteDistribution:
    """7 zeros, then runs of 100, 50 and 10 elements holding 0.2, 0.2 and
    0.6 of the mass: every r of ``RANK_GRID`` takes the Beta route."""
    return indexed(
        np.repeat([0.0, 0.002, 0.004, 0.06], [7, 100, 50, 10])
    )


class StubStream:
    """The oracle's generator on stage one's Beta route, stubbed: a fixed
    Beta variate, with the Beta arguments kept.  Any other draw fails."""

    def __init__(self, variate: float) -> None:
        self.variate = variate
        self.beta_args = []

    def beta(self, a, b):
        self.beta_args.append((a, b))
        return self.variate


class SpyStream:
    """The oracle's generator, with the variates of its Beta draws kept."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.variates = []

    def beta(self, a, b):
        self.variates.append(self.rng.beta(a, b))
        return self.variates[-1]


class TestPlannedRank:
    # the k select_pivot passes, seen through the Beta route: the Beta
    # arguments follow from k alone, and a fixed variate from the mass
    @pytest.mark.parametrize("eps, beta", RANK_GRID)
    def test_beta_route_takes_the_planned_rank(self, eps, beta):
        dist = three_run_distribution()
        params = EstimatorParams(float(eps), float(beta), 0.2)
        r_size, _ = sample_sizes(params)
        assert not stage_one_draws(dist, r_size)
        k = planned_rank(eps, beta, r_size)
        stream = StubStream(variate=0.302)
        oracle = DualOracle(dist, seed=1)
        oracle._rng = stream
        position, prob = select_pivot(oracle, params)
        assert stream.beta_args == [(k + 1, r_size - k)]
        # 0.302 of the mass is 0.102 into the middle run: floor(0.102 / 0.004)
        assert (position, prob) == (7 + 100 + 25, 0.004)
        assert oracle.query_counts() == (r_size, r_size)

    @pytest.mark.parametrize("variate, position", [(0.0, 7), (0.5, 158), (1.0, 166)])
    def test_variate_maps_through_the_run_index(self, variate, position):
        # a variate of 0 skips the zero run, 0.5 of the mass is 0.1 into the
        # heavy run (floor(0.1 / 0.06) = 1), and 1 is the last position
        oracle = DualOracle(three_run_distribution(), seed=1)
        oracle._rng = StubStream(variate)
        assert oracle.order_statistic(200, 50)[0] == position

    @pytest.mark.parametrize("count, k", [(22_500, 4950), (200, 20), (200, 100), (200, 180)])
    def test_variate_follows_the_beta_law_of_rank_k(self, count, k):
        # stage one's one variate is the (k+1)-th smallest of r uniforms
        variates = []
        for i in range(2000):
            oracle = DualOracle(three_run_distribution(), derive_seed(57 + k, i))
            oracle._rng = spy = SpyStream(oracle._rng)
            oracle.order_statistic(count, k)
            variates += spy.variates
        assert len(variates) == 2000
        law = stats.beta(k + 1, count - k)
        assert stats.kstest(variates, law.cdf).pvalue > 0.01


class TestPlan:
    # the plan's stage sizes and rank against the paper's formulas, in exact
    # arithmetic on the decimal parameters: unicriterion runs both stages at
    # half the slack, with gamma = eps * beta / 2
    @pytest.mark.parametrize("mode", ["bicriteria", "unicriterion"])
    @pytest.mark.parametrize("eps, beta", RANK_GRID)
    def test_sizes_and_rank_follow_the_paper(self, eps, beta, mode):
        if mode == "bicriteria":
            params = EstimatorParams(float(eps), float(beta), 0.2)
            stage_beta, gamma = Fraction(beta), Fraction("0.2")
        else:
            params = EstimatorParams(float(eps), float(beta))
            stage_beta = Fraction(beta) / 2
            gamma = Fraction(eps) * stage_beta
        r_size = math.ceil(180 / (stage_beta**2 * Fraction(eps)))
        t_size = math.ceil(500 / (Fraction(eps) * stage_beta * gamma**2))
        assert params.sizes == sample_sizes(params) == (r_size, t_size)
        assert params.pivot_rank == planned_rank(eps, stage_beta, r_size)

    def test_degenerate_plan_never_reads_its_sizes(self):
        # (1 + 1e-8) * 0.999999995 >= 1, and r = 1.8e18 draws would need
        # 1.44e19 bytes of positions: the plan, the estimate and the config
        # stand, and only reading the sizes fails
        params = EstimatorParams(0.999999995, 1e-8, 0.2)
        assert params.is_degenerate
        oracle = DualOracle(validate({A: 0.5, B: 0.5}), seed=6)
        assert estimate_ess(oracle, params).estimate == 1.0
        config = ExperimentConfig("uniform:n=10", 0.999999995, 1e-8, 0.2, "bicriteria", 1, 0)
        assert config.params == params
        for plan in (params, config.params):
            with pytest.raises(OutOfRangeError, match="^r = .* bytes of positions"):
                plan.sizes


class TestEstimateEss:
    def test_degenerate_rule(self):
        # with gamma = 1e-200 the size t underflows, but a degenerate plan
        # forms no sizes
        for gamma in (0.2, 1e-200):
            oracle = DualOracle(validate({A: 0.5, B: 0.5}), seed=6)
            result = estimate_ess(oracle, EstimatorParams(0.9, 0.2, gamma))
            assert result.estimate == 1.0
            assert result.pivot is None
            assert result.samp_queries == 0 and result.eval_queries == 0
            assert oracle.query_counts() == (0, 0)

    def test_point_mass(self):
        oracle = DualOracle(validate({A: 1.0}), seed=12)
        result = estimate_ess(oracle, EstimatorParams(0.2, 0.2, 0.2))
        # every stage-two term is exactly 1, so the mean is exactly 1
        assert result.raw_mean == 1.0
        assert result.estimate == pytest.approx(1.1, rel=1e-15)
        assert 1.0 <= result.estimate <= 1.2

    def test_query_accounting(self):
        dist = make_distribution(GeneratorSpec("zipf", n=100, s=1.0))
        oracle = DualOracle(dist, seed=3)
        params = EstimatorParams(0.3, 0.2, 0.2)
        r_size, t_size = sample_sizes(params)
        result = estimate_ess(oracle, params)
        assert result.samp_queries == r_size + t_size
        assert result.eval_queries == result.samp_queries
        assert oracle.query_counts() == (r_size + t_size, r_size + t_size)

    def test_estimate_is_calibrated_raw_mean(self):
        dist = make_distribution(GeneratorSpec("geometric", n=50, rho=0.8))
        oracle = DualOracle(dist, seed=8)
        params = EstimatorParams(0.25, 0.15, 0.18)
        result = estimate_ess(oracle, params)
        assert result.estimate == (1 + params.gamma_eff / 2) * result.raw_mean
        assert result.raw_mean >= 0.0

    def test_deterministic_given_seed(self):
        dist = make_distribution(GeneratorSpec("zipf", n=1000, s=1.0))
        params = EstimatorParams(0.2, 0.2, 0.2)
        first = estimate_ess(DualOracle(dist, seed=99), params)
        second = estimate_ess(DualOracle(dist, seed=99), params)
        assert first == second  # bit-identical, including the float fields

    def test_clamped_slack_gives_identical_run(self):
        dist = make_distribution(GeneratorSpec("zipf", n=1000, s=1.0))
        clamped = estimate_ess(DualOracle(dist, seed=5), EstimatorParams(0.2, 0.9, 0.7))
        capped = estimate_ess(DualOracle(dist, seed=5), EstimatorParams(0.2, 0.2, 0.2))
        assert clamped == capped

    def test_universe_size_does_not_change_queries(self):
        params = EstimatorParams(0.2, 0.2, 0.2)
        results = [
            estimate_ess(DualOracle(make_distribution(spec), seed=77), params)
            for spec in (
                GeneratorSpec("uniform", n=100),
                GeneratorSpec("uniform", n=10_000),
                GeneratorSpec("uniform", n=100, zero_pad=9_900),
            )
        ]
        counts = {(r.samp_queries, r.eval_queries) for r in results}
        assert counts == {(22500 + 312500, 22500 + 312500)}

    def test_band_success_rate_small_uniform(self):
        dist = make_distribution(GeneratorSpec("uniform", n=1000))
        eps = beta = gamma = 0.2
        band_low = exact_ess(dist, (1 + beta) * eps)
        band_high = (1 + gamma) * exact_ess(dist, eps)
        # each stored probability is float(0.001), a hair above 1/1000, so
        # the boundary-aligned levels 0.24 and 0.2 cut one element deeper
        # than exact rational arithmetic would (761/801 instead of 760/800)
        assert (band_low, band_high) == (761, pytest.approx(1.2 * 801, rel=1e-12))
        params = EstimatorParams(eps, beta, gamma)
        hits = 0
        for i in range(100):
            result = estimate_ess(DualOracle(dist, derive_seed(7, i)), params)
            if band_low <= result.estimate <= band_high:
                hits += 1
        assert hits >= 60

    def test_stage_two_mean_is_unbiased_at_fixed_pivot(self):
        dist = make_distribution(GeneratorSpec("zipf", n=200, s=1.0))
        eps = 0.2
        label = exact_quantile(dist, eps)
        pivot = (label, dist.prob_of(label))
        oracle = DualOracle(dist, seed=60)
        labels, probs = oracle.sample_with_prob_many(200_000)
        terms = inverse_prob_terms(labels, probs, pivot)
        mean = float(terms.mean())
        stderr = float(terms.std(ddof=1)) / math.sqrt(terms.size)
        assert abs(mean - exact_ess(dist, eps)) <= 3 * stderr


# (source, plan, trials) of TestStandardisedEstimates
STANDARDISED_FIXTURES = [
    ("zipf:n=2000,s=1.0", EstimatorParams(0.5, 0.2, 0.2), 2000),
    ("two_tier:n=2000,h=20,H=0.5", EstimatorParams(0.3, 0.2, 0.2), 2000),
    ("geometric:n=2000,rho=0.999,pad=50", EstimatorParams(0.5, 0.2), 1000),
]


def standardised_estimates(spec: str, params: EstimatorParams, trials: int) -> np.ndarray:
    """The estimates of ``trials`` pinned-seed runs, standardised by stage
    two's exact law given the pivot each returned: undone by the paper's
    calibration factor c, an estimate is the mean of t terms with mean m_j
    and variance sigma_j^2 / t."""
    dist = make_distribution(parse_spec(spec))
    _, t_size = sample_sizes(params)
    # c written out from the paper: (1 + gamma/2), and for unicriterion
    # divided by (1 + gamma) with gamma = eps * beta_eff / 2
    if params.gamma is None:
        gamma = params.eps * min(params.beta, SLACK_CAP) / 2
        c = (1 + gamma / 2) / (1 + gamma)
    else:
        c = 1 + min(params.gamma, SLACK_CAP) / 2
    moments = {}
    z = np.empty(trials)
    for i in range(trials):
        result = estimate_ess(DualOracle(dist, derive_seed(53, i)), params)
        position = result.pivot[0]
        if position not in moments:
            moments[position] = inverse_prob_term_moments(dist, position)
        mean, variance = moments[position]
        z[i] = (result.estimate / c - mean) / math.sqrt(variance / t_size)
    return z


def standardised_moments_hold(z: np.ndarray) -> tuple[bool, bool]:
    """Whether the mean of ``z`` lies within 4 standard errors of 0, and its
    variance within 4 standard errors of 1."""
    trials = z.size
    return (
        abs(z.mean()) <= 4.0 / math.sqrt(trials),
        abs(z.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (trials - 1)),
    )


class TestStandardisedEstimates:
    # the whole estimator against stage two's exact law given its pivot
    @pytest.mark.parametrize("spec, params, trials", STANDARDISED_FIXTURES)
    def test_mean_0_and_variance_1(self, spec, params, trials):
        z = standardised_estimates(spec, params, trials)
        assert standardised_moments_hold(z) == (True, True), (z.mean(), z.var(ddof=1))


class RecordingOracle(DualOracle):
    """Spy that records every query method the estimator touches, with the
    requested count and what the call added to the (SAMP, EVAL) counters."""

    def __init__(self, dist, seed):
        super().__init__(dist, seed)
        self.calls = []
        self.ranks = []  # the k of each order_statistic call

    def _record(self, name, count, method, *args):
        before = self.query_counts()
        result = method(*args)
        after = self.query_counts()
        self.calls.append((name, count, (after[0] - before[0], after[1] - before[1])))
        return result

    def samp_many(self, count):
        return self._record("samp_many", count, super().samp_many, count)

    def eval(self, label):
        return self._record("eval", 1, super().eval, label)

    def sample_with_prob_many(self, count):
        return self._record(
            "sample_with_prob_many", count, super().sample_with_prob_many, count
        )

    def order_statistic(self, count, k):
        self.ranks.append(k)
        return self._record("order_statistic", count, super().order_statistic, count, k)

    def inverse_prob_sum(self, count, pivot):
        return self._record(
            "inverse_prob_sum", count, super().inverse_prob_sum, count, pivot
        )


class TestProbabilityRevealingDiscipline:
    # The estimator never evaluates labels it did not draw, so it runs
    # unchanged when probability lookups are restricted to sampled items.
    # Structurally it goes through the oracle's two statistics alone, each
    # charged as its full batch of paired SAMP+EVAL queries.

    def test_estimator_only_uses_probability_revealing_draws(self):
        dist = make_distribution(GeneratorSpec("zipf", n=300, s=1.0))
        oracle = RecordingOracle(dist, seed=44)
        params = EstimatorParams(0.3, 0.2, 0.2)
        r_size, t_size = sample_sizes(params)
        estimate_ess(oracle, params)
        assert oracle.calls == [
            ("order_statistic", r_size, (r_size, r_size)),
            ("inverse_prob_sum", t_size, (t_size, t_size)),
        ]

    def test_unicriterion_same_discipline(self):
        dist = make_distribution(GeneratorSpec("uniform", n=50))
        oracle = RecordingOracle(dist, seed=45)
        estimate_ess_unicriterion(oracle, eps=0.5, beta=0.2)
        r_size, t_size = sample_sizes(EstimatorParams(0.5, 0.2))
        assert oracle.calls == [
            ("order_statistic", r_size, (r_size, r_size)),
            ("inverse_prob_sum", t_size, (t_size, t_size)),
        ]


def rank_mismatches(dist) -> list:
    """The RANK_GRID points where stage one is asked for another k than
    the planned rank, with the k it was asked for."""
    wrong = []
    for eps, beta in RANK_GRID:
        params = EstimatorParams(float(eps), float(beta), 0.2)
        r_size, _ = sample_sizes(params)
        oracle = RecordingOracle(dist, seed=46)
        select_pivot(oracle, params)
        if oracle.ranks != [planned_rank(eps, beta, r_size)]:
            wrong.append((eps, beta, oracle.ranks))
    return wrong


def recorded_rank_distribution(route: str) -> DiscreteDistribution:
    """The input of TestRecordedRank on stage one's ``route``: zipf n=30 000
    keeps every r of RANK_GRID (at most 180 000) on the draw route, and the
    three runs keep them all on the Beta route."""
    if route == "beta-route":
        return three_run_distribution()
    return make_distribution(parse_spec("zipf:n=30000,s=1.0"))


class TestRecordedRank:
    # the k select_pivot passes to order_statistic, recorded by the spy and
    # held against the exact rank on both routes: no stage-one internals
    @pytest.fixture(scope="class", params=["beta-route", "draw-route"])
    def dist_and_route(self, request):
        return recorded_rank_distribution(request.param), request.param == "draw-route"

    def test_stage_one_is_asked_for_the_planned_rank(self, dist_and_route):
        dist, draws = dist_and_route
        for eps, beta in RANK_GRID:
            r_size, _ = sample_sizes(EstimatorParams(float(eps), float(beta), 0.2))
            assert stage_one_draws(dist, r_size) is draws
        assert rank_mismatches(dist) == []

    def test_a_rank_one_too_high_is_rejected(self, dist_and_route, monkeypatch):
        planned = _strict_rank_index
        monkeypatch.setattr(
            "ess_toolkit.estimator._strict_rank_index",
            lambda threshold, size: planned(threshold, size) + 1,
        )
        assert len(rank_mismatches(dist_and_route[0])) == len(RANK_GRID)


LAW_FIXTURES = [
    "zipf:n=1000,s=1.0",
    "geometric:n=1000,rho=0.99",
    # at eps=0.2 the pivot lies inside the run of ten tied heavy elements
    "two_tier:n=10000,h=10,H=0.9",
    "uniform:n=100,pad=9900",
    # 5000 runs keep the planned r = 22 500 draws on stage one's draw route
    "zipf:n=5000,s=1.0",
]


class TestStatisticsMatchDrawReference:
    """The oracle's two statistics against the draw-level definitions."""

    @pytest.mark.parametrize("source", LAW_FIXTURES)
    def test_pivot_identical_to_sorted_draws(self, source):
        dist = make_distribution(parse_spec(source))
        params = EstimatorParams(0.2, 0.2, 0.2)
        r_size, _ = sample_sizes(params)
        theta = (1.0 + params.beta_eff / 2.0) * params.eps
        seeds = [derive_seed(9_100_000, i) for i in range(200)]
        if not stage_one_draws(dist, r_size):
            # no draws to sort: the pivot follows the law of the planned rank
            oracles = [DualOracle(dist, seed) for seed in seeds]
            positions = np.array([select_pivot(oracle, params)[0] for oracle in oracles])
            k = _strict_rank_index(theta * r_size, r_size)
            pvalue = position_law_pvalue(positions, order_statistic_cdf(dist, r_size, k))
            assert pvalue > 1e-4, pvalue
            assert all(o.query_counts() == (r_size, r_size) for o in oracles)
            return
        for seed in seeds:
            reference = DualOracle(dist, seed)
            labels, probs = reference.sample_with_prob_many(r_size)
            oracle = DualOracle(dist, seed)
            pivot = select_pivot(oracle, params)
            assert label_pivot(dist, pivot) == empirical_quantile(labels, probs, theta)
            assert oracle.query_counts() == reference.query_counts()
            # the draws left the stream where the reference left it
            assert np.array_equal(oracle.samp_many(8), reference.samp_many(8))

    @pytest.mark.parametrize("source", LAW_FIXTURES)
    def test_every_order_statistic_matches_lexsort(self, source):
        dist = make_distribution(parse_spec(source))
        ranks = (0, 1, 137, 250, 498, 499)
        if not stage_one_draws(dist, 500):
            # no draws to sort: each rank's position follows its law, over
            # enough seeds of the same family for a chi-square
            seeds = [derive_seed(9_200_000, i) for i in range(2000)]
            for k in ranks:
                positions = np.array(
                    [DualOracle(dist, seed).order_statistic(500, k)[0] for seed in seeds]
                )
                pvalue = position_law_pvalue(positions, order_statistic_cdf(dist, 500, k))
                assert pvalue > 1e-4, (k, pvalue)
            return
        for i in range(20):
            seed = derive_seed(9_200_000, i)
            labels, probs = DualOracle(dist, seed).sample_with_prob_many(500)
            order = np.lexsort((labels, probs))
            for k in ranks:
                expected = (int(labels[order[k]]), float(probs[order[k]]))
                pivot = DualOracle(dist, seed).order_statistic(500, k)
                assert label_pivot(dist, pivot) == expected

    @pytest.mark.parametrize(
        "source", ["zipf:n=1000,s=1.0", "two_tier:n=10000,h=10,H=0.9"]
    )
    def test_stage_two_law_matches_stream_draws(self, source):
        dist = make_distribution(parse_spec(source))
        label = exact_quantile(dist, 0.2)
        pivot = (dist.size - exact_ess(dist, 0.2), dist.prob_of(label))
        t_size = 2000
        counts_means = []
        stream_means = []
        for i in range(300):
            oracle = DualOracle(dist, derive_seed(9_300_000, i))
            counts_means.append(oracle.inverse_prob_sum(t_size, pivot) / t_size)
            reference = DualOracle(dist, derive_seed(9_400_000, i))
            labels, probs = reference.sample_with_prob_many(t_size)
            terms = inverse_prob_terms(labels, probs, label_pivot(dist, pivot))
            stream_means.append(float(terms.mean()))
        assert stats.ks_2samp(counts_means, stream_means).pvalue > 0.01

    def test_stage_two_mean_within_exact_standard_error(self):
        # E[1/p] over elements at or above the pivot is their count; the
        # variance is sum(1/p) over them minus the count squared
        dist = make_distribution(GeneratorSpec("zipf", n=100_000, s=1.0))
        eps = 0.2
        ess = exact_ess(dist, eps)
        pivot = (dist.size - ess, dist.prob_of(exact_quantile(dist, eps)))
        above = np.sort(dist.probs)[dist.size - ess:]
        t_size = 10**9
        stderr = math.sqrt((float(np.sum(1.0 / above)) - ess**2) / t_size)
        oracle = DualOracle(dist, seed=9_500_000)
        mean = oracle.inverse_prob_sum(t_size, pivot) / t_size
        assert abs(mean - ess) <= 4 * stderr
        assert oracle.query_counts() == (t_size, t_size)


class TestUnicriterion:
    def test_point_mass_rescaled_output(self):
        oracle = DualOracle(validate({A: 1.0}), seed=2)
        result = estimate_ess_unicriterion(oracle, eps=0.2, beta=0.2)
        # inner run: beta 0.1, gamma 0.02, raw mean exactly 1
        assert result.raw_mean == 1.0
        assert result.estimate == pytest.approx(1.01 / 1.02, rel=1e-15)

    def test_degenerate_uses_requested_beta(self):
        # the degenerate test is against the caller's beta (capped), not the
        # halved inner value: 1.2 * 0.9 >= 1 even though 1.1 * 0.9 < 1
        oracle = DualOracle(validate({A: 1.0}), seed=2)
        result = estimate_ess_unicriterion(oracle, eps=0.9, beta=0.2)
        assert result.estimate == 1.0
        assert oracle.query_counts() == (0, 0)

    def test_query_complexity_formula(self):
        dist = make_distribution(GeneratorSpec("zipf", n=100, s=1.0))
        oracle = DualOracle(dist, seed=4)
        result = estimate_ess_unicriterion(oracle, eps=0.5, beta=0.2)
        # inner beta 0.1, gamma 0.05
        r_expected = math.ceil(180 / (0.1**2 * 0.5))
        t_expected = 4_000_000  # 500 / (0.5 * 0.1 * 0.05**2)
        assert sample_sizes(EstimatorParams(0.5, 0.2)) == (r_expected, t_expected)
        assert result.samp_queries == r_expected + t_expected

    def test_estimate_is_rescaled_calibrated_mean(self):
        dist = make_distribution(GeneratorSpec("geometric", n=100, rho=0.9))
        oracle = DualOracle(dist, seed=14)
        result = estimate_ess_unicriterion(oracle, eps=0.4, beta=0.2)
        gamma = 0.4 * 0.1
        expected = (1 + gamma / 2) / (1 + gamma) * result.raw_mean
        assert result.estimate == pytest.approx(expected, rel=1e-15)

    def test_parameter_validation(self):
        oracle = DualOracle(validate({A: 1.0}), seed=0)
        with pytest.raises(OutOfRangeError):
            estimate_ess_unicriterion(oracle, eps=0.0, beta=0.2)
        with pytest.raises(OutOfRangeError):
            estimate_ess_unicriterion(oracle, eps=0.5, beta=0.0)
