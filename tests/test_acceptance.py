"""Acceptance suite.

Every test here implements one binding criterion at its stated tolerance
and prints a ``[acceptance] <name>: PASS`` / ``FAIL`` line (run pytest with
``-s`` to see the lines as they happen).  Monte Carlo thresholds leave
slack below the per-call guarantees to absorb finite-sample noise; master
seeds are pinned so every run is reproducible.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ess_toolkit import (
    DualOracle,
    EstimatorParams,
    ExperimentConfig,
    derive_seed,
    emit_report,
    estimate_ess,
    estimate_ess_unicriterion,
    exact_ess,
    exact_ess_bruteforce,
    exact_quantile,
    inverse_prob_terms,
    make_distribution,
    parse_spec,
    report_dict,
    run_experiment,
    select_pivot,
)

from conftest import label_pivot, precedes, random_simplex_distribution

FIXTURES = {
    "uniform_1e4": "uniform:n=10000",
    "zipf_1e5": "zipf:n=100000,s=1.0",
    "geometric_1e3": "geometric:n=1000,rho=0.99",
    "two_tier_1e4": "two_tier:n=10000,h=10,H=0.9",
}

# stable ints for seed derivation (str hashes are per-process randomized)
FIXTURE_INDEX = {name: i for i, name in enumerate(sorted(FIXTURES))}


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_exact_oracles_agree_on_random_sweep():
    with criterion("exact-oracle-equivalence (1000 dists x 6 levels, <10s)"):
        rng = np.random.default_rng(1_000_003)
        eps_grid = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
        start = time.perf_counter()
        mismatches = 0
        for _ in range(1000):
            dist = random_simplex_distribution(rng, max_n=50)
            for eps in eps_grid:
                if exact_ess(dist, eps) != exact_ess_bruteforce(dist, eps):
                    mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


def test_quantile_probability_bound_holds_exactly():
    with criterion("quantile-mass lower bound (exact, zero violations)"):
        rng = np.random.default_rng(2_000_003)
        grid = [0.1, 0.3, 0.5]
        violations = 0
        for _ in range(1000):
            dist = random_simplex_distribution(rng, max_n=50)
            for eps in grid:
                p_eps = dist.prob_of(exact_quantile(dist, eps))
                for alpha in grid:
                    if exact_ess(dist, (1 - alpha) * eps) < eps * alpha / p_eps:
                        violations += 1
        assert violations == 0


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_estimator_band_success_rate(fixture, eps):
    name = f"estimator band {fixture} eps={eps} (200 trials, rate>=0.60, <60s)"
    with criterion(name):
        config = ExperimentConfig(
            dist_source=FIXTURES[fixture],
            eps=eps,
            beta=0.1,
            gamma=0.1,
            mode="bicriteria",
            trials=200,
            master_seed=derive_seed(
                555_000_111, 2 * FIXTURE_INDEX[fixture] + (0 if eps == 0.1 else 1)
            ),
        )
        start = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - start
        assert report.success_rate >= 0.60, f"rate {report.success_rate}"
        assert elapsed < 60.0, f"configuration took {elapsed:.1f}s"


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_unicriterion_band_success_rate(fixture):
    name = f"unicriterion band {fixture} (100 trials, rate>=0.60, <120s)"
    with criterion(name):
        config = ExperimentConfig(
            dist_source=FIXTURES[fixture],
            eps=0.2,
            beta=0.2,
            gamma=None,
            mode="unicriterion",
            trials=100,
            master_seed=derive_seed(777_000_111, FIXTURE_INDEX[fixture]),
        )
        start = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - start
        assert report.success_rate >= 0.60, f"rate {report.success_rate}"
        assert elapsed < 120.0, f"fixture took {elapsed:.1f}s"


def test_small_slack_unicriterion_trial_is_fast_and_in_band():
    name = "unicriterion zipf_1e5 eps=beta=0.05 (t=2.56e11 queries, in band, <5s)"
    with criterion(name):
        config = ExperimentConfig(
            dist_source=FIXTURES["zipf_1e5"],
            eps=0.05,
            beta=0.05,
            gamma=None,
            mode="unicriterion",
            trials=1,
            master_seed=derive_seed(777_000_222, 0),
        )
        start = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - start
        assert report.total_samp_queries == 5_760_000 + 256_000_000_000
        assert report.success_rate == 1.0, f"estimate {report.estimate_mean}"
        assert elapsed < 5.0, f"trial took {elapsed:.2f}s"


@pytest.mark.parametrize("fixture", ["uniform_1e4", "zipf_1e5"])
def test_pivot_concentrates_between_exact_quantiles(fixture):
    name = f"pivot concentration {fixture} (1000 trials, >=85%)"
    with criterion(name):
        dist = make_distribution(parse_spec(FIXTURES[fixture]))
        eps, beta = 0.2, 0.2
        low = exact_quantile(dist, (1 + beta / 4) * eps)
        high = exact_quantile(dist, (1 + 3 * beta / 4) * eps)
        params = EstimatorParams(eps, beta, 0.2)
        hits = 0
        for i in range(1000):
            oracle = DualOracle(dist, derive_seed(888_000_111, i))
            label, _ = label_pivot(dist, select_pivot(oracle, params))
            if not precedes(dist, label, low) and not precedes(dist, high, label):
                hits += 1
        assert hits >= 850, f"pivot inside the exact quantile range {hits}/1000"


def test_query_counts_are_independent_of_universe_size():
    with criterion("universe-size independent query counts (exact equality)"):
        params = EstimatorParams(0.2, 0.2, 0.2)
        sources = [
            "uniform:n=100",
            "uniform:n=1000000",
            "uniform:n=100,pad=999900",
        ]
        results = []
        for source in sources:
            dist = make_distribution(parse_spec(source))
            results.append(estimate_ess(DualOracle(dist, seed=123456), params))
        expected = math.ceil(180 / (0.2**2 * 0.2)) + math.ceil(500 / (0.2 * 0.2 * 0.2**2))
        assert expected == 22500 + 312500
        for result in results:
            assert result.samp_queries == expected
            assert result.eval_queries == expected


def test_degenerate_parameters_return_one_without_queries():
    with criterion("degenerate rule (estimate 1, zero queries, all fixtures)"):
        sources = list(FIXTURES.values()) + ["point_mass:n=1"]
        for source in sources:
            dist = make_distribution(parse_spec(source))
            oracle = DualOracle(dist, seed=5)
            result = estimate_ess(oracle, EstimatorParams(0.9, 0.2, 0.2))
            assert result.estimate == 1.0
            assert result.pivot is None
            assert oracle.query_counts() == (0, 0)
            uni = estimate_ess_unicriterion(oracle, eps=0.9, beta=0.2)
            assert uni.estimate == 1.0
            assert oracle.query_counts() == (0, 0)


def test_reports_are_deterministic_and_execution_order_free():
    with criterion("determinism (same-seed reruns identical)"):
        config = ExperimentConfig(
            dist_source="zipf:n=1000,s=1.0",
            eps=0.2,
            beta=0.2,
            gamma=0.2,
            mode="bicriteria",
            trials=24,
            master_seed=42424242,
            format="csv",
        )
        first = run_experiment(config)
        second = run_experiment(config)

        def records(report):
            return [dataclasses.replace(t, wall_time_ns=0) for t in report.trials]

        assert records(first) == records(second)
        assert emit_report(first) == emit_report(second)

        def timeless(report):
            data = report_dict(report)
            for trial in data["trials"]:
                trial.pop("wall_time_ns")
            return data

        assert timeless(first) == timeless(second)


def test_stage_two_mean_is_unbiased_at_exact_pivot():
    with criterion("unbiased inverse-probability mean (1e6 draws, 3 SE)"):
        dist = make_distribution(parse_spec("zipf:n=1000,s=1.0"))
        eps = 0.2
        label = exact_quantile(dist, eps)
        pivot = (label, dist.prob_of(label))
        oracle = DualOracle(dist, seed=99_000_111)
        labels, probs = oracle.sample_with_prob_many(1_000_000)
        terms = inverse_prob_terms(labels, probs, pivot)
        mean = float(terms.mean())
        stderr = float(terms.std(ddof=1)) / math.sqrt(terms.size)
        target = exact_ess(dist, eps)
        assert abs(mean - target) <= 3 * stderr, (
            f"mean {mean:.3f} vs exact {target} (stderr {stderr:.4f})"
        )
