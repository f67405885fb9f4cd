import math

import numpy as np
import pytest

from ess_toolkit import (
    GeneratorSpec,
    OutOfRangeError,
    exact_ess,
    exact_ess_bruteforce,
    exact_quantile,
    make_distribution,
    parse_spec,
)


class TestMakeDistribution:
    def test_uniform(self):
        dist = make_distribution(GeneratorSpec("uniform", n=4))
        assert dist.probs.tolist() == [0.25, 0.25, 0.25, 0.25]
        assert dist.labels.tolist() == [0, 1, 2, 3]

    def test_two_tier(self):
        dist = make_distribution(GeneratorSpec("two_tier", n=10, h=2, heavy_mass=0.9))
        assert dist.probs[:2].tolist() == [0.45, 0.45]
        np.testing.assert_allclose(dist.probs[2:], 0.0125, rtol=1e-12)

    def test_zipf_three_elements(self):
        dist = make_distribution(GeneratorSpec("zipf", n=3, s=1.0))
        np.testing.assert_allclose(
            dist.probs, [6 / 11, 3 / 11, 2 / 11], rtol=1e-14
        )

    def test_geometric_ratio(self):
        dist = make_distribution(GeneratorSpec("geometric", n=5, rho=0.5))
        ratios = dist.probs[1:] / dist.probs[:-1]
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-14)

    def test_point_mass(self):
        # n is optional for point_mass alone, and can only be 1
        for spec in (GeneratorSpec("point_mass"), parse_spec("point_mass:n=1")):
            assert make_distribution(spec).probs.tolist() == [1.0]

    def test_zero_pad_appends_after(self):
        dist = make_distribution(GeneratorSpec("uniform", n=3, zero_pad=4))
        assert dist.size == 7
        assert dist.support_size == 3
        assert dist.probs[3:].tolist() == [0.0] * 4

    @pytest.mark.parametrize(
        "spec",
        [
            dict(family="uniform", n=0),
            dict(family="zipf", n=10, s=-1.0),
            dict(family="zipf", n=10),  # missing exponent
            dict(family="geometric", n=10, rho=1.0),
            dict(family="two_tier", n=10, h=10, heavy_mass=0.5),
            dict(family="two_tier", n=10, h=2, heavy_mass=1.5),
            dict(family="point_mass", n=3),
            dict(family="uniform", n=5, s=1.0),  # parameter from another family
            dict(family="mystery", n=5),
            dict(family="uniform", n=5, zero_pad=-1),
            dict(family="zipf", s=1.0),  # missing n
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        # a spec checks itself when it is made
        with pytest.raises(OutOfRangeError):
            GeneratorSpec(**spec)

    @pytest.mark.parametrize(
        "spec, name",
        [
            (dict(family="uniform", n=2.5), "n"),
            (dict(family="uniform", n=3, zero_pad=1.5), "zero_pad"),
            (dict(family="two_tier", n=10, h=2.5, heavy_mass=0.5), "h"),
            (dict(family="point_mass", n=True), "n"),
        ],
    )
    def test_integer_fields_must_be_integers(self, spec, name):
        with pytest.raises(OutOfRangeError, match=f"{name} must be an integer"):
            GeneratorSpec(**spec)


class TestMassPrecision:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("uniform", n=3),
            GeneratorSpec("uniform", n=1_000_000),
            GeneratorSpec("zipf", n=100_000, s=1.0),
            GeneratorSpec("zipf", n=1000, s=2.5),
            GeneratorSpec("geometric", n=1000, rho=0.99),
            GeneratorSpec("two_tier", n=10_000, h=10, heavy_mass=0.9),
        ],
    )
    def test_mass_within_1e12(self, spec):
        dist = make_distribution(spec)
        assert abs(math.fsum(dist.probs.tolist()) - 1.0) <= 1e-12


# n below and above one 2**15-element chunk of the exact sum; 0.5**n
# underflows, which gives subnormal and zero weights
IDENTITY_SPECS = [
    text.format(n=n)
    for n in (1000, 40_000)
    for text in (
        "uniform:n={n}",
        "zipf:n={n},s=1.0",
        "zipf:n={n},s=0.5",
        "geometric:n={n},rho=0.999",
        "geometric:n={n},rho=0.5",
        "two_tier:n={n},h=10,H=0.9",
    )
] + ["point_mass"]


class TestNormaliserIdentity:
    # the exact sum gives the bits math.fsum gave, so every probability,
    # total and report byte stays as it was
    @pytest.mark.parametrize("text", IDENTITY_SPECS)
    def test_probs_and_total_as_with_fsum(self, text):
        spec = parse_spec(text)
        dist = make_distribution(spec)
        if spec.family == "zipf":
            weights = np.arange(1, spec.n + 1, dtype=np.float64) ** (-spec.s)
        elif spec.family == "geometric":
            weights = spec.rho ** np.arange(spec.n, dtype=np.float64)
        else:
            weights = None
        if weights is not None:
            expected = weights / math.fsum(weights.tolist())
            assert dist.probs.tobytes() == expected.tobytes()
        assert dist.total.hex() == math.fsum(dist.probs.tolist()).hex()


class TestZeroPadCrossModule:
    def test_padding_leaves_exact_values_unchanged(self):
        base = make_distribution(GeneratorSpec("zipf", n=200, s=1.0))
        padded = make_distribution(GeneratorSpec("zipf", n=200, s=1.0, zero_pad=5000))
        for eps in [0.0, 0.01, 0.1, 0.3, 0.6]:
            assert exact_ess(padded, eps) == exact_ess(base, eps)
            assert exact_quantile(padded, eps) == exact_quantile(base, eps)


class TestHardRegimeCoverage:
    def test_two_tier_puts_small_count_behind_tiny_pivot_probability(self):
        # Near the light/heavy mass boundary the quantile element is one of
        # the tiny light elements while only a handful of elements sit at or
        # above it.  This is the regime where the count above the pivot is
        # far below level*slack/(100*pivot_prob), which a flat or smoothly
        # decaying family never reaches.
        dist = make_distribution(GeneratorSpec("two_tier", n=10_000, h=10, heavy_mass=0.9))
        level, slack = 0.09995, 0.2
        pivot = exact_quantile(dist, level)
        pivot_prob = dist.prob_of(pivot)
        count_above = exact_ess(dist, level)
        assert count_above == exact_ess_bruteforce(dist, level) == 15
        assert pivot_prob == pytest.approx(0.1 / 9990, rel=1e-9)
        assert count_above < level * slack / (100.0 * pivot_prob)

    def test_uniform_is_in_the_easy_regime_everywhere(self):
        dist = make_distribution(GeneratorSpec("uniform", n=10_000))
        for level in [0.05, 0.1, 0.2, 0.5]:
            pivot_prob = dist.prob_of(exact_quantile(dist, level))
            assert exact_ess(dist, level) >= level * 0.2 / (100.0 * pivot_prob)


class TestParseSpec:
    def test_example_from_grammar(self):
        spec = parse_spec("zipf:n=100000,s=1.0,pad=0")
        assert spec == GeneratorSpec("zipf", n=100_000, s=1.0, zero_pad=0)

    def test_bare_family(self):
        assert parse_spec("point_mass") == GeneratorSpec("point_mass")

    @pytest.mark.parametrize(
        "text",
        [
            "gauss:n=10",
            "uniform:n",
            "uniform:n=abc",
            "uniform:n=10,weird=1",
            "zipf:n=10",
            "two_tier:n=10,h=2",
            "uniform:n=10,seed=3",
            "uniform:n=10,n=20",
            "zipf:n=10,s=1.0,s=2.0",
            "uniform",  # every family but point_mass requires n
            "zipf:s=1.0",
            "geometric:rho=0.5",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(OutOfRangeError):
            parse_spec(text)
