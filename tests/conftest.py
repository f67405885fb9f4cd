import operator
import tracemalloc

import numpy as np
import pytest

from ess_toolkit import DiscreteDistribution, canonical_order


def validate(elements) -> DiscreteDistribution:
    """Distribution from a label -> prob mapping; an instance passes through."""
    if isinstance(elements, DiscreteDistribution):
        return elements
    return DiscreteDistribution.from_pairs(elements.items())


def precedes(dist: DiscreteDistribution, a, b) -> bool:
    """True iff label ``a`` comes strictly before ``b`` in canonical order,
    which compares (probability, label)."""
    return (dist.prob_of(a), operator.index(a)) < (dist.prob_of(b), operator.index(b))


def random_simplex_distribution(rng: np.random.Generator, max_n: int = 50) -> DiscreteDistribution:
    """Random distribution with n <= max_n and probabilities drawn uniformly
    from the simplex (Dirichlet with all-ones concentration)."""
    n = int(rng.integers(1, max_n + 1))
    return DiscreteDistribution.from_probs(rng.dirichlet(np.ones(n)))


def label_pivot(dist: DiscreteDistribution, pivot: tuple[int, float]) -> tuple[int, float]:
    """The (label, prob) of a (canonical position, prob) pivot, as the
    label-based references :func:`empirical_quantile` and
    :func:`inverse_prob_terms` take it."""
    position, prob = pivot
    return int(dist.labels[canonical_order(dist)[position]]), prob


def traced_peak(build):
    """Call ``build()`` under ``tracemalloc`` and return (its result, bytes
    still traced afterwards, traced peak), both counted from the call."""
    tracemalloc.start()
    try:
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def order_statistic_cdf(dist, count: int, k: int) -> np.ndarray:
    """P(the k-th smallest (0-based) of ``count`` draws sits at canonical
    position <= j), for every j: at least k+1 draws land at or below j, each
    with probability F_j, the mass through position j.  F_j is clipped to
    [0, 1]: at the end it can be an ulp above 1, where ``binom.sf`` is NaN."""
    from scipy import stats  # a test extra: imported where it is used

    mass = np.clip(np.cumsum(np.sort(dist.probs)) / dist.total, 0.0, 1.0)
    return stats.binom.sf(k, count, mass)


def inverse_prob_term_moments(dist, position: int) -> tuple[float, float]:
    """Exact mean and variance of one stage-two term with the pivot at
    canonical ``position``: a draw lands on the element at sorted position
    i with probability p'_i = p_i / total and adds 1/p_i if i is at or
    above the pivot.  The mean, m_j / total, counts the positive elements
    at or above the pivot; the mean of t terms has 1/t the variance."""
    above = np.sort(dist.probs)[position:]
    above = above[above > 0.0]
    drawn = above / dist.total
    mean = float(np.sum(drawn / above))
    return mean, float(np.sum(drawn / above**2)) - mean**2


def _pooled_cells(positions: np.ndarray, cdf: np.ndarray) -> tuple[list, np.ndarray]:
    """Observed and expected counts of positions against an exact position
    law, neighbouring positions pooled until each cell expects at least 5;
    the expected counts are scaled to the observed total."""
    observed = np.bincount(positions, minlength=cdf.size)
    expected = np.diff(cdf, prepend=0.0) * positions.size
    cells_observed, cells_expected = [], []
    seen = want = 0.0
    for got, mean in zip(observed.tolist(), expected.tolist()):
        seen += got
        want += mean
        if want >= 5.0:
            cells_observed.append(seen)
            cells_expected.append(want)
            seen = want = 0.0
    cells_observed[-1] += seen
    cells_expected[-1] += want
    cells_expected = np.asarray(cells_expected)
    cells_expected *= positions.size / cells_expected.sum()
    return cells_observed, cells_expected


def chi_square_pvalue(positions: np.ndarray, cdf: np.ndarray) -> float:
    """Chi-square of observed positions against an exact position law, with
    neighbouring positions pooled until each cell expects at least 5."""
    from scipy import stats

    cells_observed, cells_expected = _pooled_cells(positions, cdf)
    assert len(cells_expected) > 2, "the law is too concentrated to test"
    return float(stats.chisquare(cells_observed, cells_expected).pvalue)


def position_law_pvalue(positions: np.ndarray, cdf: np.ndarray) -> float:
    """p-value of observed positions against an exact position law: the
    chi-square of :func:`chi_square_pvalue` where its pooled cells number
    more than two.  A law more concentrated than that gets the exact
    two-sided binomial test of how many positions hit its most likely one,
    so a law of one position rejects any other outright."""
    from scipy import stats

    if len(_pooled_cells(positions, cdf)[1]) > 2:
        return chi_square_pvalue(positions, cdf)
    pmf = np.diff(cdf, prepend=0.0)
    mode = int(pmf.argmax())
    hits = int(np.count_nonzero(positions == mode))
    return float(stats.binomtest(hits, positions.size, float(pmf[mode])).pvalue)
