"""Effective support size estimation in the dual-access sampling model.

The package pairs a sublinear two-stage estimator (which only sees a
distribution through sampling and probability-lookup queries) with exact
full-knowledge references and a seeded Monte Carlo harness that verifies
the estimator's acceptance band, success rate, and universe-size-independent
query cost.
"""

from .distribution import (
    MASS_TOLERANCE,
    MAX_EPS,
    DiscreteDistribution,
    canonical_order,
    exact_ess,
    exact_ess_bruteforce,
    exact_quantile,
    read_distribution,
    write_distribution,
)
from .errors import (
    DuplicateLabelError,
    EmptySampleError,
    EssToolkitError,
    MassNotOneError,
    NegativeProbabilityError,
    OutOfRangeError,
    UnknownLabelError,
)
from .estimator import (
    SLACK_CAP,
    EstimateResult,
    EstimatorParams,
    empirical_quantile,
    estimate_ess,
    estimate_ess_unicriterion,
    inverse_prob_terms,
    sample_sizes,
    select_pivot,
)
from .generators import FAMILIES, GeneratorSpec, make_distribution, parse_spec
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    band_endpoints,
    emit_report,
    load_distribution,
    report_dict,
    run_experiment,
)
from .oracle import DualOracle, derive_seed

__version__ = "0.1.0"

__all__ = [
    "MASS_TOLERANCE",
    "MAX_EPS",
    "SLACK_CAP",
    "FAMILIES",
    "DiscreteDistribution",
    "DualOracle",
    "EstimatorParams",
    "EstimateResult",
    "GeneratorSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "TrialRecord",
    "EssToolkitError",
    "NegativeProbabilityError",
    "MassNotOneError",
    "DuplicateLabelError",
    "UnknownLabelError",
    "OutOfRangeError",
    "EmptySampleError",
    "canonical_order",
    "exact_quantile",
    "exact_ess",
    "exact_ess_bruteforce",
    "read_distribution",
    "write_distribution",
    "derive_seed",
    "sample_sizes",
    "empirical_quantile",
    "select_pivot",
    "inverse_prob_terms",
    "estimate_ess",
    "estimate_ess_unicriterion",
    "make_distribution",
    "parse_spec",
    "band_endpoints",
    "load_distribution",
    "run_experiment",
    "emit_report",
    "report_dict",
]
