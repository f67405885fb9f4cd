import concurrent.futures
import operator
import signal

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


@pytest.fixture
def pool_spy(monkeypatch):
    """Record each pool's worker count; refuse to start more than two."""
    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(workers, *args, **kwargs):
        sizes.append(workers)
        assert workers <= 2, f"pool of {workers} workers requested"
        return real(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return sizes


@pytest.fixture
def alarm():
    """Fail, rather than hang, if the test body takes over 60 s."""

    def expire(signum, frame):
        # not an exception the CLI maps to an exit code (TimeoutError is an OSError)
        pytest.fail("no result after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
