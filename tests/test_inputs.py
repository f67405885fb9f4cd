"""One rule for each kind of scalar input, at every public entry point.

Each row is an entry point, one of its scalar parameters, the kind that
parameter is due, a valid value, and a call that passes the value and
returns what the entry point keeps or computes from it.  A bool, a str,
an array, and a float where an integer is due, are each an
``OutOfRangeError`` that names the parameter; a numpy scalar is taken as
the plain Python int or float it stands for.  The rules themselves are ``errors.integer`` and
``errors.real``.
"""

import numpy as np
import pytest

from ess_toolkit import (
    DiscreteDistribution,
    DualOracle,
    EstimatorParams,
    ExperimentConfig,
    GeneratorSpec,
    OutOfRangeError,
    band_endpoints,
    derive_seed,
    empirical_quantile,
    estimate_ess_unicriterion,
    exact_ess,
    exact_ess_bruteforce,
    exact_quantile,
    make_distribution,
    run_experiment,
)
from ess_toolkit.oracle import sampler_table

DIST = make_distribution(GeneratorSpec("zipf", n=50, s=1.0))
PIVOT = DualOracle(DIST, 0).order_statistic(100, 50)


def config(**overrides) -> ExperimentConfig:
    fields = dict(
        dist_source="uniform:n=10",
        eps=0.25,
        beta=0.125,
        gamma=0.125,
        mode="bicriteria",
        trials=2,
        master_seed=7,
    )
    return ExperimentConfig(**{**fields, **overrides})


# (entry point, parameter, kind, valid value, call with the value)
ROWS = [
    ("DiscreteDistribution", "label", int, 3,
     lambda v: DiscreteDistribution([v, 7], [0.5, 0.5]).labels.tolist()),
    ("exact_ess", "eps", float, 0.25, lambda v: exact_ess(DIST, v)),
    ("exact_quantile", "eps", float, 0.25, lambda v: exact_quantile(DIST, v)),
    ("exact_ess_bruteforce", "eps", float, 0.25, lambda v: exact_ess_bruteforce(DIST, v)),
    ("GeneratorSpec", "n", int, 5, lambda v: GeneratorSpec("uniform", n=v).n),
    ("GeneratorSpec", "zero_pad", int, 2,
     lambda v: GeneratorSpec("uniform", n=3, zero_pad=v).zero_pad),
    ("GeneratorSpec", "h", int, 2,
     lambda v: GeneratorSpec("two_tier", n=5, h=v, heavy_mass=0.5).h),
    ("GeneratorSpec", "s", float, 1.5, lambda v: GeneratorSpec("zipf", n=5, s=v).s),
    ("GeneratorSpec", "rho", float, 0.5,
     lambda v: GeneratorSpec("geometric", n=5, rho=v).rho),
    ("GeneratorSpec", "heavy_mass", float, 0.5,
     lambda v: GeneratorSpec("two_tier", n=5, h=2, heavy_mass=v).heavy_mass),
    ("derive_seed", "master_seed", int, 5, lambda v: derive_seed(v, 0)),
    ("derive_seed", "index", int, 5, lambda v: derive_seed(1, v)),
    ("DualOracle", "seed", int, 5, lambda v: DualOracle(DIST, v).samp_many(5).tolist()),
    ("DualOracle.samp_many", "count", int, 5,
     lambda v: DualOracle(DIST, 1).samp_many(v).tolist()),
    ("DualOracle.sample_with_prob_many", "count", int, 5,
     lambda v: [a.tolist() for a in DualOracle(DIST, 1).sample_with_prob_many(v)]),
    ("DualOracle.order_statistic", "count", int, 10,
     lambda v: DualOracle(DIST, 1).order_statistic(v, 3)),
    ("DualOracle.order_statistic", "k", int, 3,
     lambda v: DualOracle(DIST, 1).order_statistic(10, v)),
    ("DualOracle.inverse_prob_sum", "count", int, 100,
     lambda v: DualOracle(DIST, 1).inverse_prob_sum(v, PIVOT)),
    ("AliasTable.draw", "count", int, 5,
     lambda v: sampler_table(DIST).draw(np.random.default_rng(1), v).tolist()),
    ("empirical_quantile", "theta", float, 0.25,
     lambda v: empirical_quantile([1, 2, 3], [0.2, 0.3, 0.5], v)),
    ("EstimatorParams", "eps", float, 0.25, lambda v: EstimatorParams(v, 0.125, 0.125).eps),
    ("EstimatorParams", "beta", float, 0.125, lambda v: EstimatorParams(0.25, v, 0.125).beta),
    ("EstimatorParams", "gamma", float, 0.125, lambda v: EstimatorParams(0.25, 0.125, v).gamma),
    ("estimate_ess_unicriterion", "eps", float, 0.25,
     lambda v: estimate_ess_unicriterion(DualOracle(DIST, 1), v, 0.125).estimate),
    ("estimate_ess_unicriterion", "beta", float, 0.125,
     lambda v: estimate_ess_unicriterion(DualOracle(DIST, 1), 0.25, v).estimate),
    ("band_endpoints", "eps", float, 0.25,
     lambda v: band_endpoints(DIST, v, 0.125, 0.125, "bicriteria")),
    ("band_endpoints", "beta", float, 0.125,
     lambda v: band_endpoints(DIST, 0.25, v, 0.125, "bicriteria")),
    ("band_endpoints", "gamma", float, 0.125,
     lambda v: band_endpoints(DIST, 0.25, 0.125, v, "bicriteria")),
    ("ExperimentConfig", "trials", int, 2, lambda v: config(trials=v).trials),
    ("ExperimentConfig", "master_seed", int, 7, lambda v: config(master_seed=v).master_seed),
    ("ExperimentConfig", "eps", float, 0.25, lambda v: config(eps=v).eps),
    ("ExperimentConfig", "beta", float, 0.125, lambda v: config(beta=v).beta),
    ("ExperimentConfig", "gamma", float, 0.125, lambda v: config(gamma=v).gamma),
    ("run_experiment", "jobs", int, 1,
     lambda v: run_experiment(config(), jobs=v).estimate_mean),
]

WRONG_KINDS = {int: (True, "3", 3.0, np.array([3])), float: (True, "0.25", np.array([0.25]))}
MESSAGES = {int: "must be an integer, got ", float: "must be a real number, got "}
NUMPY_TYPES = {int: (np.int64, np.uint8), float: (np.float64, np.float32)}


@pytest.mark.parametrize(
    "call, name, kind, value",
    [
        pytest.param(call, name, kind, value, id=f"{entry}-{name}-{type(value).__name__}")
        for entry, name, kind, _, call in ROWS
        for value in WRONG_KINDS[kind]
    ],
)
def test_wrong_kind_is_rejected(call, name, kind, value):
    with pytest.raises(OutOfRangeError, match=f"^{name} {MESSAGES[kind]}"):
        call(value)


@pytest.mark.parametrize(
    "call, value, numpy_type",
    [
        pytest.param(call, value, numpy_type, id=f"{entry}-{name}-{numpy_type.__name__}")
        for entry, name, kind, value, call in ROWS
        for numpy_type in NUMPY_TYPES[kind]
    ],
)
def test_numpy_scalar_is_taken_as_plain(call, value, numpy_type):
    # every valid value is exact in float32 and fits a uint8
    plain = call(value)
    taken = call(numpy_type(value))
    assert type(taken) is type(plain) and taken == plain
