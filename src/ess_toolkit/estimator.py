"""Two-stage sampling estimator for effective support size.

Stage one draws a batch of probability-revealing samples and takes an
empirical quantile of it under the canonical (probability, label) order;
the selected element is the pivot.  Stage two draws a second batch and
averages the inverse probabilities of the samples that rank at or above
the pivot.  That average is an unbiased estimate of the number of elements
at or above the pivot, and the returned value is the average times a small
calibration factor.

Each stage is one oracle call: :meth:`DualOracle.order_statistic` returns
the canonical position of the quantile of r stage-one draws, by selecting
it from the draws in O(r) or from one Beta variate of the same law;
:meth:`DualOracle.inverse_prob_sum` starts from that position and returns
the stage-two sum with the exact law of t draws in O(runs above the pivot)
time, independent of t and n.  Both charge the full r (resp. t) SAMP and
EVAL queries.  :func:`empirical_quantile` and :func:`inverse_prob_terms` are
the draw-level definitions of the two statistics, over labels, and serve as
references.

Everything the estimator learns about the distribution comes through the
oracle handle, and probabilities are only ever taken for elements that
were actually sampled, so the procedure runs unchanged whether probability
lookups are restricted to sampled items or not.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptySampleError, OutOfRangeError
from .oracle import DualOracle

# The variance analysis behind the guarantees assumes both slack
# parameters are at most 0.2.  Larger requests only widen the acceptance
# band, so they are served at the cap.
SLACK_CAP = 0.2

# relative tolerance applied at band endpoints to absorb float error
BAND_RELATIVE_TOLERANCE = 1e-12

PIVOT_SAMPLE_CONSTANT = 180.0
MEAN_SAMPLE_CONSTANT = 500.0


@dataclass(frozen=True)
class EstimatorParams:
    """The plan of an estimator run, and the one home of every parameter rule.

    ``eps`` is the target level, ``beta`` widens it to (1+beta)*eps and
    ``gamma`` is the multiplicative slack.  ``gamma=None`` asks for the
    unicriterion answer in [ess((1+beta)*eps), ess(eps)]: both stages run
    with slack ``beta_eff/2`` and ``gamma_eff = eps*beta_eff/2``, the
    output is divided by ``1 + gamma_eff`` (``output_divisor``), and the
    band verdict rounds the estimate (``in_band``).  The parameters are
    stored as floats.  Range checks, the ``SLACK_CAP`` clamp, the
    degenerate rule, the band levels and the band verdict all live here.

    So do the two stages' numbers: the stage sizes ``sizes`` (the pivot
    batch r and the averaging batch t) and stage one's rank ``pivot_rank``
    (k).  Each is computed on first read and kept on the plan, so an
    experiment works them out once, not once a trial; a plan whose sizes
    do not fit fails when they are read, not when it is made.
    """

    eps: float
    beta: float
    gamma: float | None = None

    def __post_init__(self) -> None:
        for name in ("eps", "beta", "gamma"):
            value = getattr(self, name)
            if value is None and name == "gamma":
                continue  # the unicriterion plan
            # a bool is a number to Python, but not a level or a slack
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise OutOfRangeError(f"{name} must be a real number, got {value!r}")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise OutOfRangeError(f"{name} does not fit a float, got {value!r}") from None
        if not 0.0 < self.eps < 1.0:
            raise OutOfRangeError(f"eps must lie in (0, 1), got {self.eps!r}")
        if not 0.0 < self.beta < math.inf:
            raise OutOfRangeError(f"beta must lie in (0, inf), got {self.beta!r}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise OutOfRangeError(f"gamma must lie in (0, inf), got {self.gamma!r}")

    @property
    def beta_eff(self) -> float:
        return min(self.beta, SLACK_CAP)

    @property
    def stage_beta(self) -> float:
        """Distance slack both stages run with."""
        return self.beta_eff if self.gamma is not None else self.beta_eff / 2.0

    @property
    def gamma_eff(self) -> float:
        """Multiplicative slack stage two runs with."""
        if self.gamma is None:
            return self.eps * self.stage_beta
        return min(self.gamma, SLACK_CAP)

    @property
    def is_degenerate(self) -> bool:
        """True when even a single point mass is within the tolerated distance."""
        return (1.0 + self.beta_eff) * self.eps >= 1.0

    @property
    def band_levels(self) -> tuple[float, float]:
        """(relaxed level, factor on ess(eps)) of the band of valid answers.

        Bicriteria uses the uncapped ``beta`` and ``gamma``; unicriterion
        uses ``beta_eff`` and the factor 1.
        """
        if self.gamma is None:
            return (1.0 + self.beta_eff) * self.eps, 1.0
        return (1.0 + self.beta) * self.eps, 1.0 + self.gamma

    @property
    def output_divisor(self) -> float:
        """What the calibrated stage-two mean is divided by: ``1 + gamma_eff``
        for unicriterion, which moves the bicriteria band's upper end down
        to ess(eps), and 1 for bicriteria."""
        return 1.0 + self.gamma_eff if self.gamma is None else 1.0

    @cached_property
    def sizes(self) -> tuple[int, int]:
        """Stage sizes (pivot batch r, averaging batch t).

        Both depend only on (eps, stage_beta, gamma_eff) -- never on the
        distribution being queried.  Raises OutOfRangeError naming r or t
        when a size is not finite or does not fit a signed 64-bit count, and
        naming r when stage one's positions, at most 8 bytes a draw, would
        not fit the address space.
        """
        eps = self.eps
        beta = self.stage_beta
        gamma = self.gamma_eff
        r_size = _ceil_sample_size("r", PIVOT_SAMPLE_CONSTANT, beta * beta * eps)
        if 8 * r_size > np.iinfo(np.intp).max:
            raise OutOfRangeError(
                f"r = {r_size:.3g} draws need {8 * r_size:.3g} bytes of positions, "
                "more than an array can address"
            )
        t_size = _ceil_sample_size("t", MEAN_SAMPLE_CONSTANT, eps * beta * gamma * gamma)
        return r_size, t_size

    @cached_property
    def pivot_rank(self) -> int:
        """0-based rank k of the pivot among stage one's r draws: the
        smallest whose 1-based rank strictly exceeds theta * r, at the level
        theta = (1 + stage_beta/2) * eps."""
        r_size = self.sizes[0]
        theta = (1.0 + self.stage_beta / 2.0) * self.eps
        return _strict_rank_index(theta * r_size, r_size)

    def in_band(self, estimate: float, low: float, high: float) -> bool:
        """Whether ``estimate`` lies in the band [low, high] of valid answers,
        within ``BAND_RELATIVE_TOLERANCE * high`` at both ends.

        Unicriterion judges the estimate rounded half up: support sizes are
        integers, and its band has integer endpoints.
        """
        tol = BAND_RELATIVE_TOLERANCE * high
        if self.gamma is None:
            # an estimate is never negative, so fmod is its exact fraction;
            # floor(estimate + 0.5) is not exact, and sends the float just
            # below 0.5 to 1
            estimate = math.floor(estimate) + (math.fmod(estimate, 1.0) >= 0.5)
        return (low - tol) <= estimate <= (high + tol)


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one estimator run.

    ``estimate`` is the calibrated output; ``raw_mean`` the plain stage-two
    average it was derived from.  ``pivot`` is the stage-one (canonical
    position, prob) pair, or None on the degenerate path.  Query counters
    cover this run only; :attr:`EstimatorParams.sizes` gives the stage sizes.
    """

    estimate: float
    raw_mean: float
    pivot: tuple[int, float] | None
    samp_queries: int
    eval_queries: int


def _ceil_sample_size(name: str, constant: float, denominator: float) -> int:
    # a denominator that underflows to 0 asks for infinitely many draws
    value = constant / denominator if denominator else math.inf
    # ceiling with a relative guard: decimal parameters often put the exact
    # result a few ulp past an integer, which must not bump the size by one
    value *= 1.0 - 1e-12
    if not value <= np.iinfo(np.int64).max:
        raise OutOfRangeError(f"{name} = {value:.3g} does not fit a signed 64-bit count")
    return max(1, int(math.ceil(value)))


def sample_sizes(params: EstimatorParams) -> tuple[int, int]:
    """Stage sizes (pivot batch r, averaging batch t) of the plan:
    :attr:`EstimatorParams.sizes`."""
    return params.sizes


def _strict_rank_index(threshold: float, size: int) -> int:
    # 0-based position of the smallest order statistic whose 1-based rank
    # strictly exceeds ``threshold``.  Snap to an adjacent integer first:
    # the strictness boundary matters exactly when threshold is integral,
    # and float products drift off integers by a few ulp.
    nearest = round(threshold)
    if abs(threshold - nearest) <= 1e-9 * max(1.0, abs(threshold)):
        rank = int(nearest)
    else:
        rank = int(math.floor(threshold))
    return min(rank, size - 1)


def empirical_quantile(labels, probs, theta: float) -> tuple[int, float]:
    """Quantile of a probability-revealing sample under the canonical order.

    Returns the (label, prob) of the smallest sampled element whose
    multiplicity-counted rank strictly exceeds ``theta`` times the sample
    size.  Ties between equal probabilities are broken by label, matching
    the distribution-level order exactly.
    """
    labels = np.asarray(labels, dtype=np.uint64)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size == 0:
        raise EmptySampleError("empirical quantile of an empty sample")
    if not 0.0 < theta < 1.0:
        raise OutOfRangeError(f"theta must lie in (0, 1), got {theta!r}")
    order = np.lexsort((labels, probs))
    j = order[_strict_rank_index(theta * probs.size, probs.size)]
    return int(labels[j]), float(probs[j])


def select_pivot(oracle: DualOracle, params: EstimatorParams) -> tuple[int, float]:
    """Run stage one: draw the plan's pivot batch of r and return the
    (canonical position, prob) of its element of rank ``pivot_rank``."""
    if params.is_degenerate:
        raise OutOfRangeError(
            "degenerate parameters: any single element is already a valid answer"
        )
    return oracle.order_statistic(params.sizes[0], params.pivot_rank)


def inverse_prob_terms(labels, probs, pivot: tuple[int, float]) -> np.ndarray:
    """Per-sample contributions: 1/prob where the sample ranks at or above
    the pivot in canonical order, 0 otherwise.

    The mean of these terms over independent draws is an unbiased estimate
    of the number of elements at or above the pivot.  ``probs`` must be the
    samples' own probabilities (hence positive).
    """
    pivot_label, pivot_prob = pivot
    labels = np.asarray(labels, dtype=np.uint64)
    probs = np.asarray(probs, dtype=np.float64)
    at_or_above = probs > pivot_prob
    ties = probs == pivot_prob
    if ties.any():
        at_or_above |= ties & (labels >= np.uint64(pivot_label))
    return at_or_above / probs


def estimate_ess(oracle: DualOracle, params: EstimatorParams) -> EstimateResult:
    """Estimate the effective support size at level ``params.eps``.

    When (1+beta)*eps >= 1 the answer 1 is always valid and is returned
    without touching the oracle.  Otherwise, with probability at least 2/3
    per call, the estimate lies between the effective support size at level
    (1+beta)*eps and (1+gamma) times the one at level eps -- or, when
    ``params.gamma`` is None, the one at level eps itself.
    """
    if params.is_degenerate:
        return EstimateResult(1.0, 1.0, None, 0, 0)  # no pivot, no queries
    samp_before, eval_before = oracle.query_counts()
    t_size = params.sizes[1]
    pivot = select_pivot(oracle, params)
    raw_mean = oracle.inverse_prob_sum(t_size, pivot) / t_size
    estimate = (1.0 + params.gamma_eff / 2.0) * raw_mean / params.output_divisor

    samp_after, eval_after = oracle.query_counts()
    return EstimateResult(
        estimate=estimate,
        raw_mean=raw_mean,
        pivot=pivot,
        samp_queries=samp_after - samp_before,
        eval_queries=eval_after - eval_before,
    )


def estimate_ess_unicriterion(
    oracle: DualOracle, eps: float, beta: float
) -> EstimateResult:
    """Estimate with no multiplicative slack: ``EstimatorParams(eps, beta)``.

    With probability at least 2/3 per call the result lies between the
    effective support sizes at levels (1+beta)*eps and eps.  Rounding the
    returned real to the nearest integer is the caller's job.
    """
    return estimate_ess(oracle, EstimatorParams(eps, beta))
