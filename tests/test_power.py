"""Power of the Tier-1 checks against planted faults.

Each case patches one rule of :class:`EstimatorParams`, one of the
oracle's statistics or the exact mass sum, and shows that an existing
check, at its own seeds and thresholds, rejects the result.  Each estimator
case also says whether the acceptance suite's rate gate (a success rate of
at least 0.60 on each of its 12 configurations) would catch the fault
alone.
"""

import inspect
import math
import textwrap

import pytest

from ess_toolkit import DualOracle, EstimatorParams, distribution, oracle
from ess_toolkit.estimator import BAND_RELATIVE_TOLERANCE, _strict_rank_index

import test_distribution
from conftest import validate
from test_estimator import (
    RANK_GRID,
    STANDARDISED_FIXTURES,
    rank_mismatches,
    recorded_rank_distribution,
    standardised_estimates,
    standardised_moments_hold,
)
from test_harness import HALF_UP_VERDICTS, check_band


@pytest.mark.parametrize("route", ["beta-route", "draw-route"])
def test_pivot_level_at_a_quarter_of_the_slack_is_rejected(monkeypatch, route):
    # theta at (1 + beta/4) eps, not (1 + beta/2) eps.  The rate gate misses
    # it: every trial of the 12 configurations still lands in its band.
    # Acceptance's pivot concentration test catches it.
    def pivot_rank(params):
        r_size = params.sizes[0]
        theta = (1.0 + params.stage_beta / 4.0) * params.eps
        return _strict_rank_index(theta * r_size, r_size)

    monkeypatch.setattr(EstimatorParams, "pivot_rank", property(pivot_rank))
    assert len(rank_mismatches(recorded_rank_distribution(route))) == len(RANK_GRID)


def test_unicriterion_output_not_divided_is_rejected(monkeypatch):
    # estimates 1 + gamma_eff too large.  The rate gate misses it: its four
    # unicriterion configurations still succeed in 93 to 100 trials of 100,
    # and no other acceptance test fails.
    (spec, params, trials), = [f for f in STANDARDISED_FIXTURES if f[1].gamma is None]
    monkeypatch.setattr(EstimatorParams, "output_divisor", property(lambda params: 1.0))
    z = standardised_estimates(spec, params, trials)
    mean_holds, _ = standardised_moments_hold(z)
    assert not mean_holds, z.mean()


def test_stage_two_sum_scaled_is_rejected(monkeypatch):
    # every stage-two sum 5 % too large.  The rate gate catches it too: the
    # two_tier_1e4 eps = 0.2 and uniform_1e4 unicriterion configurations
    # succeed in no trial
    inverse_prob_sum = DualOracle.inverse_prob_sum
    monkeypatch.setattr(
        DualOracle,
        "inverse_prob_sum",
        lambda self, count, pivot: 1.05 * inverse_prob_sum(self, count, pivot),
    )
    for spec, params, trials in STANDARDISED_FIXTURES:
        z = standardised_estimates(spec, params, trials)
        mean_holds, _ = standardised_moments_hold(z)
        assert not mean_holds, (spec, z.mean())


def test_stage_two_skipping_the_pivot_run_is_rejected(monkeypatch):
    # stage two counts from the run after the pivot's own run of ties.  The
    # rate gate catches it too: every two_tier_1e4 and uniform_1e4
    # configuration succeeds in no trial
    inverse_prob_sum = DualOracle.inverse_prob_sum

    def skips_pivot_run(self, count, pivot):
        after = int(self.dist.run_bounds[self.dist.run_of(pivot[0]) + 1])
        return inverse_prob_sum(self, count, (after, pivot[1]))

    monkeypatch.setattr(DualOracle, "inverse_prob_sum", skips_pivot_run)
    (spec, params, trials), = [f for f in STANDARDISED_FIXTURES if f[0].startswith("two_tier")]
    z = standardised_estimates(spec, params, trials)
    mean_holds, _ = standardised_moments_hold(z)
    assert not mean_holds, z.mean()


def test_stage_two_counting_the_pivot_run_in_full_is_rejected(monkeypatch):
    # a copy of inverse_prob_sum whose cell vector counts the pivot's own run
    # from its first position, not from the pivot.  The rate gate catches it
    # too: the two_tier_1e4 eps = 0.2 and unicriterion configurations, and
    # all three uniform_1e4 ones, succeed in no trial
    source = textwrap.dedent(inspect.getsource(DualOracle.inverse_prob_sum))
    faulty = source.replace("sizes[0] = bounds.item(first + 1) - start", "pass")
    assert faulty != source
    namespace = dict(vars(oracle))
    exec(faulty, namespace)
    monkeypatch.setattr(DualOracle, "inverse_prob_sum", namespace["inverse_prob_sum"])
    (spec, params, trials), = [f for f in STANDARDISED_FIXTURES if f[0].startswith("two_tier")]
    z = standardised_estimates(spec, params, trials)
    mean_holds, _ = standardised_moments_hold(z)
    assert not mean_holds, z.mean()


@pytest.mark.parametrize(
    "rounding",
    [
        pytest.param(round, id="half-to-even"),
        pytest.param(lambda x: math.floor(x + 0.5), id="floor-of-x-plus-half"),
    ],
)
def test_unicriterion_rounding_other_than_half_up_is_rejected(monkeypatch, rounding):
    # the rate gate misses both: every one of its 12 configurations still
    # succeeds in every trial, as no estimate there lies at a rounding edge
    def in_band(params, estimate, low, high):
        tol = BAND_RELATIVE_TOLERANCE * high
        if params.gamma is None:
            estimate = rounding(estimate)
        return (low - tol) <= estimate <= (high + tol)

    monkeypatch.setattr(EstimatorParams, "in_band", in_band)
    dist = validate({0: 1.0})
    wrong = [
        estimate
        for verdict, estimates in HALF_UP_VERDICTS.items()
        for estimate in estimates
        if check_band(estimate, dist, 0.2, 0.2, None, "unicriterion") is not verdict
    ]
    assert wrong != []


def test_exact_sum_stopping_on_the_largest_remainder_is_rejected(monkeypatch):
    # a copy of exact_sum whose loop ends when the largest remainder is 0,
    # though others are negative.  TestExactSum's property rejects it
    source = inspect.getsource(distribution.exact_sum)
    faulty = source.replace("top = max(chunk.max(), -chunk.min())", "top = chunk.max()")
    assert faulty != source
    namespace = dict(vars(distribution))
    exec(faulty, namespace)
    monkeypatch.setattr(distribution, "exact_sum", namespace["exact_sum"])
    with pytest.raises(AssertionError):
        test_distribution.TestExactSum.test_equals_fsum()
