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
