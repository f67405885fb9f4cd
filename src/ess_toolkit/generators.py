"""Synthetic distribution families used as fixtures and CLI inputs.

Families cover both easy and hard shapes for the estimator: flat (uniform),
heavy-tailed (zipf), fast-decaying (geometric), a mass gap (two_tier), and
the trivial point_mass.  ``zero_pad`` appends zero-probability elements to
model arbitrarily large universes without changing any exact quantity.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .distribution import DiscreteDistribution, exact_sum
from .errors import OutOfRangeError

# the spec fields each family requires; a family may give no other field of
# this table, except ``n``, which point_mass may give as 1
_REQUIRED = {
    "uniform": ("n",),
    "zipf": ("n", "s"),
    "geometric": ("n", "rho"),
    "two_tier": ("n", "h", "heavy_mass"),
    "point_mass": (),
}
FAMILIES = tuple(_REQUIRED)
_PARAMETERS = tuple(dict.fromkeys(sum(_REQUIRED.values(), ())))  # in table order
# the CLI keys of the spec fields; zero_pad applies to every family
_INT_KEYS = {"n": "n", "h": "h", "pad": "zero_pad"}
_FLOAT_KEYS = {"s": "s", "rho": "rho", "H": "heavy_mass"}
_INTEGERS = tuple(_INT_KEYS.values())


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic family.

    Grammar for the CLI form is ``family:key=value[,key=value...]`` with
    keys ``n`` (element count, required except for point_mass), ``s`` (zipf
    exponent), ``rho`` (geometric ratio), ``h`` and ``H`` (two_tier heavy
    count / heavy mass) and ``pad`` (zero_pad).  An invalid spec raises
    ``OutOfRangeError`` when it is made.
    """

    family: str
    n: int | None = None
    s: float | None = None
    rho: float | None = None
    h: int | None = None
    heavy_mass: float | None = None
    zero_pad: int = 0

    def __post_init__(self) -> None:
        _check_spec(self)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutOfRangeError(message)


def _check_spec(spec: GeneratorSpec) -> None:
    _require(spec.family in FAMILIES, f"unknown family {spec.family!r}")
    needs = _REQUIRED[spec.family]
    for name in _PARAMETERS + ("zero_pad",):
        value = getattr(spec, name)
        if name in needs:
            _require(value is not None, f"{spec.family} requires parameter {name!r}")
        elif name not in ("n", "zero_pad"):
            _require(value is None, f"parameter {name!r} does not apply to {spec.family}")
        # a bool is an int to Python, but not a count
        if name in _INTEGERS and value is not None:
            _require(
                isinstance(value, numbers.Integral) and not isinstance(value, bool),
                f"{name} must be an integer, got {value!r}",
            )
    _require(spec.n is None or spec.n >= 1, f"n must be >= 1, got {spec.n}")
    _require(spec.zero_pad >= 0, f"pad must be >= 0, got {spec.zero_pad}")
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
        _require(spec.n in (None, 1), "point_mass has exactly one element")


def make_distribution(spec: GeneratorSpec) -> DiscreteDistribution:
    """Materialize and validate the distribution described by ``spec``.

    Labels are 0..n-1 in generation order, zero-pad labels appended after,
    which keeps tie-breaking in the canonical order deterministic.  zipf
    and geometric weights are normalised by their
    :func:`~ess_toolkit.distribution.exact_sum`, bit for bit ``math.fsum``.
    """
    n = spec.n
    if spec.family == "uniform":
        probs = np.full(n, 1.0 / n)
    elif spec.family == "zipf":
        weights = np.arange(1, n + 1, dtype=np.float64) ** (-spec.s)
        probs = weights / exact_sum(weights)
    elif spec.family == "geometric":
        weights = spec.rho ** np.arange(n, dtype=np.float64)
        probs = weights / exact_sum(weights)
    elif spec.family == "two_tier":
        probs = np.empty(n)
        probs[: spec.h] = spec.heavy_mass / spec.h
        probs[spec.h :] = (1.0 - spec.heavy_mass) / (n - spec.h)
    else:  # point_mass
        probs = np.ones(1)
    if spec.zero_pad:
        probs = np.concatenate([probs, np.zeros(spec.zero_pad)])
    return DiscreteDistribution(np.arange(probs.size, dtype=np.uint64), probs)


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
            name = _INT_KEYS.get(key) or _FLOAT_KEYS.get(key)
            _require(name is not None, f"unknown generator parameter {key!r}")
            _require(name not in kwargs, f"generator parameter {key!r} given twice")
            try:
                kwargs[name] = int(value, 10) if key in _INT_KEYS else float(value)
            except ValueError:
                raise OutOfRangeError(
                    f"bad value {value!r} for generator parameter {key!r}"
                ) from None
    return GeneratorSpec(family=family, **kwargs)

