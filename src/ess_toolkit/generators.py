"""Synthetic distribution families used as fixtures and CLI inputs.

Families cover both easy and hard shapes for the estimator: flat (uniform),
heavy-tailed (zipf), fast-decaying (geometric), a mass gap (two_tier), and
the trivial point_mass.  ``zero_pad`` appends zero-probability elements to
model arbitrarily large universes without changing any exact quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import DiscreteDistribution
from .errors import OutOfRangeError

FAMILIES = ("uniform", "zipf", "geometric", "two_tier", "point_mass")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic family.

    Grammar for the CLI form is ``family:key=value[,key=value...]`` with
    keys ``n``, ``s`` (zipf exponent), ``rho`` (geometric ratio), ``h`` and
    ``H`` (two_tier heavy count / heavy mass) and ``pad`` (zero_pad).
    """

    family: str
    n: int = 1
    s: float | None = None
    rho: float | None = None
    h: int | None = None
    heavy_mass: float | None = None
    zero_pad: int = 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutOfRangeError(message)


def _check_spec(spec: GeneratorSpec) -> None:
    _require(spec.family in FAMILIES, f"unknown family {spec.family!r}")
    _require(spec.n >= 1, f"n must be >= 1, got {spec.n}")
    _require(spec.zero_pad >= 0, f"pad must be >= 0, got {spec.zero_pad}")
    needs = {
        "uniform": (),
        "zipf": ("s",),
        "geometric": ("rho",),
        "two_tier": ("h", "heavy_mass"),
        "point_mass": (),
    }[spec.family]
    given = {
        name
        for name in ("s", "rho", "h", "heavy_mass")
        if getattr(spec, name) is not None
    }
    for name in needs:
        _require(name in given, f"{spec.family} requires parameter {name!r}")
    for name in given - set(needs):
        _require(False, f"parameter {name!r} does not apply to {spec.family}")
    if spec.family == "zipf":
        _require(spec.s > 0, f"zipf exponent must be positive, got {spec.s}")
    if spec.family == "geometric":
        _require(0.0 < spec.rho < 1.0, f"geometric ratio must lie in (0, 1), got {spec.rho}")
    if spec.family == "two_tier":
        _require(1 <= spec.h < spec.n, f"two_tier needs 1 <= h < n, got h={spec.h}")
        _require(
            0.0 < spec.heavy_mass < 1.0,
            f"two_tier heavy mass must lie in (0, 1), got {spec.heavy_mass}",
        )
    if spec.family == "point_mass":
        _require(spec.n == 1, "point_mass has exactly one element")


def make_distribution(spec: GeneratorSpec) -> DiscreteDistribution:
    """Materialize and validate the distribution described by ``spec``.

    Labels are 0..n-1 in generation order, zero-pad labels appended after,
    which keeps tie-breaking in the canonical order deterministic.
    """
    _check_spec(spec)
    n = spec.n
    if spec.family == "uniform":
        probs = np.full(n, 1.0 / n)
    elif spec.family == "zipf":
        weights = np.arange(1, n + 1, dtype=np.float64) ** (-spec.s)
        probs = weights / math.fsum(memoryview(weights))
    elif spec.family == "geometric":
        weights = spec.rho ** np.arange(n, dtype=np.float64)
        probs = weights / math.fsum(memoryview(weights))
    elif spec.family == "two_tier":
        probs = np.empty(n)
        probs[: spec.h] = spec.heavy_mass / spec.h
        probs[spec.h :] = (1.0 - spec.heavy_mass) / (n - spec.h)
    else:  # point_mass
        probs = np.ones(1)
    if spec.zero_pad:
        probs = np.concatenate([probs, np.zeros(spec.zero_pad)])
    return DiscreteDistribution.from_probs(probs)


_INT_KEYS = {"n": "n", "h": "h", "pad": "zero_pad"}
_FLOAT_KEYS = {"s": "s", "rho": "rho", "H": "heavy_mass"}


def parse_spec(text: str) -> GeneratorSpec:
    """Parse the CLI form ``family:key=value[,key=value...]``."""
    family, _, rest = text.partition(":")
    family = family.strip()
    kwargs: dict[str, object] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            _require(bool(sep), f"malformed generator parameter {item!r}")
            try:
                if key in _INT_KEYS:
                    kwargs[_INT_KEYS[key]] = int(value, 10)
                elif key in _FLOAT_KEYS:
                    kwargs[_FLOAT_KEYS[key]] = float(value)
                else:
                    _require(False, f"unknown generator parameter {key!r}")
            except ValueError:
                raise OutOfRangeError(
                    f"bad value {value!r} for generator parameter {key!r}"
                ) from None
    spec = GeneratorSpec(family=family, **kwargs)
    _check_spec(spec)
    return spec


def spec_string(spec: GeneratorSpec) -> str:
    """Inverse of :func:`parse_spec` (omits defaults)."""
    parts = [f"n={spec.n}"]
    if spec.s is not None:
        parts.append(f"s={spec.s:.17g}")
    if spec.rho is not None:
        parts.append(f"rho={spec.rho:.17g}")
    if spec.h is not None:
        parts.append(f"h={spec.h}")
    if spec.heavy_mass is not None:
        parts.append(f"H={spec.heavy_mass:.17g}")
    if spec.zero_pad:
        parts.append(f"pad={spec.zero_pad}")
    return f"{spec.family}:{','.join(parts)}"
