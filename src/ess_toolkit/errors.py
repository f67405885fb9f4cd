"""Exception types shared across the toolkit, and the one rule for each
kind of scalar input: :func:`integer` and :func:`real`."""

import numbers
import operator

# the largest unsigned 64-bit value: the bound of seeds and labels
UINT64_MAX = 2**64 - 1


class EssToolkitError(Exception):
    """Base class for validation and usage errors raised by this package."""


class NegativeProbabilityError(EssToolkitError):
    """A probability was negative."""


class MassNotOneError(EssToolkitError):
    """Probabilities do not sum to 1 within tolerance."""


class DuplicateLabelError(EssToolkitError):
    """The same label appears more than once in a distribution."""


class UnknownLabelError(EssToolkitError):
    """A label is not part of the distribution it was used with."""


class OutOfRangeError(EssToolkitError):
    """A numeric argument is outside its admissible range."""


class EmptySampleError(EssToolkitError):
    """An operation that needs at least one sample received none."""


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as a plain ``int`` in [low, high] (``high`` None: unbounded),
    else an ``OutOfRangeError`` naming ``name``.  A ``numbers.Integral`` (a
    numpy integer) is one; a bool, never a count, seed or label, is not."""
    if type(value) is not int:  # a plain int, the common case, skips the lookups
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if value < low or (high is not None and value > high):
        where = f">= {low}" if high is None else f"lie in [{low}, {high}]"
        raise OutOfRangeError(f"{name} must {where}, got {value}")
    return value


def real(name: str, value) -> float:
    """``value`` as the plain ``float`` it rounds to, else an
    ``OutOfRangeError`` naming ``name``: a ``numbers.Real`` (a numpy float, a
    ``Fraction``) is one unless it is a bool or overflows a float, and a str
    or ``Decimal`` is not.  The caller checks the range, NaN included."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise OutOfRangeError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise OutOfRangeError(f"{name} does not fit a float, got {value!r}") from None
    return value
