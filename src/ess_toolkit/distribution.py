"""Finite discrete distributions with exact ground-truth computations.

Elements are (label, probability) pairs with unsigned 64-bit labels.  The
canonical order sorts elements by increasing probability, breaking ties by
label, and every quantile or effective-support-size question is answered
against that order.  Functions here see the whole distribution; they serve
as exact references for the sampling-based estimator, which never gets
this kind of access.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import warnings
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateLabelError,
    MassNotOneError,
    NegativeProbabilityError,
    OutOfRangeError,
    UnknownLabelError,
)

MASS_TOLERANCE = 1e-9

# Largest admissible quantile level.  Above this the strict comparison
# against the cumulative mass sits inside the mass-sum tolerance itself,
# where float noise could flip it.
MAX_EPS = 1.0 - 1e-9

_UINT64_MAX = 2**64 - 1


def _as_label_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise OutOfRangeError("labels must form a one-dimensional sequence")
        if np.issubdtype(values.dtype, np.unsignedinteger):
            return values.astype(np.uint64)
        if np.issubdtype(values.dtype, np.signedinteger):
            if values.size and int(values.min()) < 0:
                raise OutOfRangeError("labels must be unsigned integers")
            return values.astype(np.uint64)
        raise OutOfRangeError(f"labels must be integers, got dtype {values.dtype}")
    # plain sequences go element by element: numpy would silently turn
    # ints above 2**63-1 into floats
    seq = list(values)
    out = np.empty(len(seq), dtype=np.uint64)
    for i, value in enumerate(seq):
        try:
            label = operator.index(value)
        except TypeError:
            raise OutOfRangeError(f"label {value!r} is not an integer") from None
        if not 0 <= label <= _UINT64_MAX:
            raise OutOfRangeError(f"label {label} does not fit in 64 bits")
        out[i] = label
    return out


class DiscreteDistribution:
    """A validated finite distribution and its canonical element order.

    Construction checks every invariant (unique uint64 labels, nonnegative
    finite probabilities, total mass 1 within ``MASS_TOLERANCE``) and builds
    the canonical rank: ``order`` is the permutation sorting elements by
    (probability, label), ``cumulative`` holds prefix sums of probability
    along it, and ``run_bounds`` indexes its runs of equal probability:
    run g is ``order[run_bounds[g]:run_bounds[g + 1]]``, and the last bound
    is ``size``.  ``total`` is the exactly rounded sum of the probabilities
    (``math.fsum``), the mass samplers normalize by.  Instances are
    immutable afterwards and safe to share across threads.

    Elements with probability 0 are kept in the table -- they model padding
    of the universe with unreachable items -- but they never influence
    quantiles or effective support sizes.
    """

    __slots__ = (
        "labels",
        "probs",
        "order",
        "cumulative",
        "run_bounds",
        "total",
        "_support_size",
        "_derived",
        "__weakref__",
    )

    def __init__(self, labels, probs) -> None:
        label_arr = _as_label_array(labels)
        try:
            prob_arr = np.asarray(probs, dtype=np.float64).copy()
        except (TypeError, ValueError, OverflowError):
            raise OutOfRangeError("probabilities must be numbers") from None
        if prob_arr.ndim != 1 or prob_arr.size != label_arr.size:
            raise OutOfRangeError("labels and probs must be sequences of equal length")
        if label_arr.size == 0:
            raise OutOfRangeError("distribution must contain at least one element")
        if not np.all(np.isfinite(prob_arr)):
            raise OutOfRangeError("probabilities must be finite")
        if np.any(prob_arr < 0.0):
            worst = float(prob_arr.min())
            raise NegativeProbabilityError(f"negative probability {worst!r}")
        # one label sort serves the duplicate check (equal neighbours) and
        # the canonical order
        by_label = np.argsort(label_arr)
        if np.any(np.diff(label_arr[by_label]) == 0):
            raise DuplicateLabelError("labels within one distribution must be unique")
        # fsum reads the floats straight from the buffer: no list of n floats
        total = math.fsum(memoryview(prob_arr))
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise MassNotOneError(
                f"probabilities sum to {total!r}, expected 1 within {MASS_TOLERANCE}"
            )

        self.labels = label_arr
        self.probs = prob_arr
        # labels are unique, so a stable sort by probability of the
        # label-sorted elements is the (probability, label) order
        self.order = by_label[np.argsort(prob_arr[by_label], kind="stable")]
        sorted_probs = prob_arr[self.order]
        self.cumulative = np.cumsum(sorted_probs)
        changes = np.flatnonzero(sorted_probs[1:] != sorted_probs[:-1])
        self.run_bounds = np.concatenate(([0], changes + 1, [prob_arr.size]))
        self.total = total
        self._support_size = int(np.count_nonzero(prob_arr))
        self._derived: dict[str, object] = {}

        for arr in (
            self.labels,
            self.probs,
            self.order,
            self.cumulative,
            self.run_bounds,
        ):
            arr.flags.writeable = False

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "DiscreteDistribution":
        """Build from an iterable of (label, prob) pairs."""
        items = list(pairs)
        if not items:
            raise OutOfRangeError("distribution must contain at least one element")
        labels, probs = zip(*items)
        return cls(labels, probs)

    @classmethod
    def from_probs(cls, probs) -> "DiscreteDistribution":
        """Build with labels 0..n-1 in the given order."""
        prob_arr = np.asarray(probs, dtype=np.float64)
        return cls(np.arange(prob_arr.size, dtype=np.uint64), prob_arr)

    # -- accessors ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of table entries, including zero-probability padding."""
        return int(self.labels.size)

    @property
    def support_size(self) -> int:
        """Number of elements with positive probability."""
        return self._support_size

    def prob_of(self, label) -> float:
        """Exact stored probability of ``label``, found by a scan of the labels.

        Raises UnknownLabelError if ``label`` is not in the distribution.
        """
        value = operator.index(label)
        if 0 <= value <= _UINT64_MAX:
            found = np.flatnonzero(self.labels == np.uint64(value))
            if found.size:
                return float(self.probs[found[0]])
        raise UnknownLabelError(f"label {value} not in distribution")

    def to_pairs(self) -> Iterator[tuple[int, float]]:
        """Element table as an iterator of (label, prob) pairs of Python scalars."""
        return zip(self.labels.tolist(), self.probs.tolist())

    def _cached(self, key: str, build):
        value = self._derived.get(key)
        if value is None:
            value = build()
            self._derived[key] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiscreteDistribution(size={self.size}, "
            f"support_size={self.support_size})"
        )


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps < MAX_EPS:
        raise OutOfRangeError(f"eps must lie in [0, {MAX_EPS}), got {eps!r}")
    return eps


def _quantile_position(dist: DiscreteDistribution, eps: float) -> int:
    eps = _check_eps(eps)
    # first position in canonical order whose cumulative mass strictly
    # exceeds eps; the mass-sum invariant guarantees one exists
    pos = int(np.searchsorted(dist.cumulative, eps, side="right"))
    return min(pos, dist.size - 1)


def exact_quantile(dist: DiscreteDistribution, eps: float) -> int:
    """Smallest element (canonical order) with cumulative mass > eps.

    The returned label always has positive probability: zero-probability
    elements sort first and contribute nothing to the cumulative mass.
    """
    return int(dist.labels[dist.order[_quantile_position(dist, eps)]])


def exact_ess(dist: DiscreteDistribution, eps: float) -> int:
    """Effective support size at level eps, via the canonical quantile.

    Counts the elements at or above the eps-quantile in canonical order;
    all of them have positive probability.
    """
    return dist.size - _quantile_position(dist, eps)


def exact_ess_bruteforce(dist: DiscreteDistribution, eps: float) -> int:
    """Smallest n such that all but the n heaviest elements carry mass <= eps.

    Independent reference for :func:`exact_ess`: walks the sorted
    probabilities from the lightest end, greedily dropping elements while
    the dropped mass stays within eps.
    """
    eps = _check_eps(eps)
    ascending = np.sort(dist.probs[dist.probs > 0.0])
    kept = int(ascending.size)
    dropped_mass = 0.0
    for p in ascending.tolist():
        if dropped_mass + p <= eps:
            dropped_mass += p
            kept -= 1
        else:
            break
    return kept


# -- file formats ----------------------------------------------------------

_CSV_HEADER = ["label", "prob"]
_CSV_ROW = [("label", np.uint64), ("prob", np.float64)]


def write_distribution(dist: DiscreteDistribution, path, fmt: str | None = None) -> None:
    """Write a distribution file (CSV with a label,prob header, or JSON).

    The format is inferred from the path suffix unless ``fmt`` is given.
    Probabilities are written in Python's shortest round-trip form
    (``repr``), so a read-back reproduces them bit-exactly.
    """
    fmt = fmt or _infer_format(path)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_HEADER)
            writer.writerows(dist.to_pairs())  # the csv module writes floats by repr
    elif fmt == "json":
        # one f-string per row: json.dump to a file streams through the
        # pure-Python encoder, about 2.5 times slower at 1e6 rows
        rows = ",\n".join(
            f'  {{"label": {label}, "prob": {prob!r}}}'
            for label, prob in dist.to_pairs()
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[\n" + rows + "\n]\n")
    else:
        raise OutOfRangeError(f"unknown distribution file format {fmt!r}")


def read_distribution(path, fmt: str | None = None) -> DiscreteDistribution:
    """Read and validate a distribution file written by :func:`write_distribution`."""
    fmt = fmt or _infer_format(path)
    if fmt == "csv":
        # a bad byte past the header is left to the row check below
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            try:
                header = next(csv.reader(fh), None)
            except csv.Error:  # an open quote ran past the csv field size limit
                header = None
        if header != _CSV_HEADER:
            raise OutOfRangeError(
                f"expected CSV header {','.join(_CSV_HEADER)!r}, got {header!r}"
            )
        try:
            # numpy's integer parser reads past its tables on some non-ASCII
            # characters (a crash or a wrong label, numpy 2.4), and no valid
            # row holds one, so such files go straight to the error path
            if not _is_ascii(path):
                raise ValueError("non-ASCII character")
            with warnings.catch_warnings():
                # a header-only file is rejected as empty by the constructor
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                # given a path rather than an open file, numpy reads the file
                # in blocks instead of line by line (about 25% faster)
                rows = np.loadtxt(
                    path,
                    delimiter=",",
                    dtype=_CSV_ROW,
                    comments=None,
                    quotechar='"',
                    skiprows=1,
                    encoding="utf-8",
                    ndmin=1,
                )
        except ValueError as exc:
            where = _first_bad_csv_row(path)
            raise OutOfRangeError(
                where or f"CSV: expected label,prob rows ({exc})"
            ) from None
        return DiscreteDistribution(rows["label"], rows["prob"])
    if fmt == "json":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                rows = json.load(fh)
            except RecursionError:
                raise OutOfRangeError("distribution JSON is nested too deeply") from None
        if not isinstance(rows, list):
            raise OutOfRangeError("distribution JSON must be an array of objects")
        return DiscreteDistribution.from_pairs(
            _json_pair(row, i) for i, row in enumerate(rows)
        )
    raise OutOfRangeError(f"unknown distribution file format {fmt!r}")


def _is_ascii(path) -> bool:
    with open(path, "rb") as fh:
        return all(block.isascii() for block in iter(lambda: fh.read(1 << 20), b""))


def _first_bad_csv_row(path) -> str | None:
    """Name the first CSV row, by 1-based file line, that is not label,prob.

    Runs only after the array parse failed: numpy's row numbers skip blank
    lines, so the file is read again row by row to find the line.  Invalid
    UTF-8 bytes are read as lone surrogates, which fail the ASCII check of
    the row that holds them.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        # a quoted field may span lines: a record is named by its first one
        first = reader.line_num + 1
        try:
            for row in reader:
                if row:
                    label, prob = row  # rejects rows of other than two fields
                    # numpy rejects non-ASCII digits, underscores and a signed
                    # label such as -0, which Python's int and float accept
                    if not (label + prob).isascii() or "_" in label + prob:
                        raise ValueError("non-ASCII character or underscore")
                    if "-" in label or not 0 <= int(label) <= _UINT64_MAX:
                        raise ValueError(
                            f"label {label} is not an unsigned 64-bit integer"
                        )
                    float(prob)
                first = reader.line_num + 1
        except (ValueError, csv.Error) as exc:  # csv.Error: field size limit
            return f"CSV line {first}: expected label,prob ({exc})"
    return None


def _json_pair(row, index: int) -> tuple:
    if not isinstance(row, dict) or "label" not in row or "prob" not in row:
        raise OutOfRangeError(
            f"JSON row {index}: expected an object with label and prob, got {row!r:.60}"
        )
    label, prob = row["label"], row["prob"]
    # JSON true and false are Python bools, which int and float accept as 1 and 0
    if isinstance(label, bool) or isinstance(prob, bool):
        raise OutOfRangeError(
            f"JSON row {index}: label and prob must be numbers, not true or false"
        )
    return label, prob


def _infer_format(path) -> str:
    name = str(path).lower()
    if name.endswith(".csv"):
        return "csv"
    if name.endswith(".json"):
        return "json"
    raise OutOfRangeError(
        f"cannot infer distribution format from {path!r}; use .csv or .json"
    )
