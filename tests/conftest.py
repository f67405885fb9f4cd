import operator

import numpy as np
import pytest

from ess_toolkit import DiscreteDistribution


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
