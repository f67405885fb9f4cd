"""Power of the Tier-1 checks against planted faults in the plan.

Each case patches one rule of :class:`EstimatorParams` and shows that an
existing check, at its own seeds and thresholds, rejects the result.  Each
also says whether the acceptance suite's rate gate (a success rate of at
least 0.60 on each of its 12 configurations) would catch the fault alone:
neither fault moves any of those rates below 0.93.
"""

import pytest

from ess_toolkit import EstimatorParams
from ess_toolkit.estimator import _strict_rank_index

from test_estimator import (
    RANK_GRID,
    STANDARDISED_FIXTURES,
    rank_mismatches,
    recorded_rank_distribution,
    standardised_estimates,
    standardised_moments_hold,
)


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
