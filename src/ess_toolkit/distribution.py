"""Finite discrete distributions with exact ground-truth computations.

Elements are (label, probability) pairs with unsigned 64-bit labels.  The
canonical order sorts elements by increasing probability, breaking ties by
label, and every quantile or effective-support-size question is answered
against that order.  A distribution keeps only its runs of equal
probability in that order; :func:`canonical_order` builds the order itself
for the draw-level references, which work on labels.  Functions here see
the whole distribution; they serve as exact references for the
sampling-based estimator, which never gets this kind of access.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import warnings
from typing import Iterator

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
MAX_EPS = 1.0 - MASS_TOLERANCE

_UINT64_MAX = 2**64 - 1

_SLICE = 1 << 16

# exact_sum's two work arrays of one chunk (512 KiB) stay in L2.  A level's
# sigma is 2**_GUARD_BITS times the least power of two above the chunk's
# largest magnitude; 2**_GUARD_BITS > _SUM_CHUNK + 2 keeps the level's sum
# exact
_SUM_CHUNK = 1 << 15
_GUARD_BITS = 16
# a chunk whose sigma would pass 2**1023 leaves the vector path unsplit
_SUM_SPLIT_LIMIT = 2.0 ** (1023 - _GUARD_BITS)


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a finite, nonnegative float64 array, bit for bit.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008): per chunk, q =
    (r + sigma) - sigma keeps each value's bits above 2**-53 * sigma, the
    sum of q is exact, and r - q is exact and signed.  Each level's sum
    joins a short list of parts until the chunk's remainders are all zero,
    and ``math.fsum`` of the parts rounds their exact total once, as
    ``math.fsum`` of the values does.  A sum that could come near the float
    maximum is left to ``math.fsum`` of the values, which raises
    ``OverflowError`` where it would.
    """
    parts = []
    high = np.empty(min(values.size, _SUM_CHUNK))
    rest = np.empty_like(high)
    for start in range(0, values.size, _SUM_CHUNK):
        chunk = values[start : start + _SUM_CHUNK]
        top = chunk.max()
        while top:
            if top >= _SUM_SPLIT_LIMIT:
                return math.fsum(memoryview(values))
            sigma = math.ldexp(1.0, math.frexp(top)[1] + _GUARD_BITS)
            q = high[: chunk.size]
            np.add(chunk, sigma, out=q)
            q -= sigma
            parts.append(float(q.sum()))
            chunk = np.subtract(chunk, q, out=rest[: chunk.size])
            # remainders are signed: stopping on the largest alone would
            # drop a level whose remainders are all negative
            top = max(chunk.max(), -chunk.min())
    try:
        total = math.fsum(parts)
    except OverflowError:
        total = math.inf
    return total if total < 2.0**1023 else math.fsum(memoryview(values))


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
        # a bool is an int to Python, but not a label
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise OutOfRangeError(f"label {value!r} is not an integer")
        label = operator.index(value)
        if not 0 <= label <= _UINT64_MAX:
            raise OutOfRangeError(f"label {label} does not fit in 64 bits")
        out[i] = label
    return out


class DiscreteDistribution:
    """A validated finite distribution and its runs in canonical order.

    Construction checks every invariant (unique uint64 labels, nonnegative
    finite probabilities, total mass 1 within ``MASS_TOLERANCE``) and indexes
    the canonical order by its runs of equal probability, without building
    the order itself: run g holds canonical positions ``run_bounds[g]`` up to
    ``run_bounds[g + 1]`` (the last bound is ``size``), all of probability
    ``run_values[g]``, and ``run_cumulative[g]`` is the prefix sum of the
    sorted probabilities (``np.cumsum``, element by element) at the run's
    last position.  Which label sits where inside a run changes no count;
    :func:`canonical_order` builds the full permutation on demand.
    ``total`` is the exactly rounded sum of the probabilities, the mass
    samplers normalize by: :func:`exact_sum`, bit for bit ``math.fsum``,
    in extraction passes over 32 Ki-element chunks that hold 512 KiB
    however long the input.

    Labels are unsigned integers and probabilities real numbers: a bool
    label, or probabilities of kind bool, complex, string or bytes
    (``["0.5"]``, ``[True]``), are an ``OutOfRangeError``.  Finite rows
    whose mass passes the float range (two rows of ``1e308``) are a
    ``MassNotOneError`` ("sum to inf"); a duplicate label is reported
    first.  Labels in strictly increasing order, as every generator gives
    them, are unique by one comparison pass; others, such as the scattered
    labels of a CSV file, are sorted to find duplicates.  Instances keep
    16 bytes an element plus the run index, and construction peaks at 17
    bytes an element above the caller's arrays (``tracemalloc``, two_tier
    n = 1e6 with scattered labels).  The arrays are read-only; only
    :func:`~ess_toolkit.oracle.sampler_table` sets an attribute later, the
    alias table, whose builds are bit-equal: a race between threads wastes
    a build.

    Elements with probability 0 are kept in the table -- they model padding
    of the universe with unreachable items -- but they never influence
    quantiles or effective support sizes.
    """

    __slots__ = (
        "labels",
        "probs",
        "run_bounds",
        "run_values",
        "run_cumulative",
        "total",
        "_alias_table",
    )

    def __init__(self, labels, probs) -> None:
        label_arr = _as_label_array(labels)
        try:
            prob_in = np.asarray(probs)
            if prob_in.dtype.kind in "bcSU":  # numpy would cast True, 1j and "0.5"
                raise TypeError
            prob_in = prob_in.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError):
            raise OutOfRangeError("probabilities must be numbers") from None
        if prob_in.ndim != 1 or prob_in.size != label_arr.size:
            raise OutOfRangeError("labels and probs must be sequences of equal length")
        if label_arr.size == 0:
            raise OutOfRangeError("distribution must contain at least one element")
        # Each scratch array is freed before the next one is made, and the
        # kept probability copy comes last, so beside the caller's arrays
        # set-up holds the label copy and one more array of n at a time (17
        # bytes a row with a comparison mask).  Sorted, the probabilities
        # show every bad value at an end: -inf first, +inf and NaN last.
        scratch = prob_in.copy()
        scratch.sort()
        if not (np.isfinite(scratch[0]) and np.isfinite(scratch[-1])):
            raise OutOfRangeError("probabilities must be finite")
        if scratch[0] < 0.0:
            worst = float(scratch[0])
            raise NegativeProbabilityError(f"negative probability {worst!r}")
        # the run index: where the sorted probabilities change, each run's
        # value, and the prefix sums (formed in place) at each run's end
        changes = np.flatnonzero(scratch[1:] != scratch[:-1])
        run_bounds = np.concatenate(([0], changes + 1, [scratch.size]))
        del changes
        self.run_values = scratch[run_bounds[:-1]]
        # finite rows can sum past the float range: the mass check below
        # reports that, after the duplicate-label check
        with np.errstate(over="ignore"):
            np.cumsum(scratch, out=scratch)
        self.run_cumulative = scratch[run_bounds[1:] - 1]
        del scratch
        # strictly increasing labels (every generator's) are unique with no
        # sort; otherwise equal neighbours among the sorted labels are
        # duplicates
        if not np.all(label_arr[1:] > label_arr[:-1]):
            sorted_labels = np.sort(label_arr)
            if np.any(sorted_labels[1:] == sorted_labels[:-1]):
                raise DuplicateLabelError("labels within one distribution must be unique")
            del sorted_labels
        prob_arr = prob_in.copy()
        # the exact sum's work arrays take 512 KiB, not another array of n
        try:
            total = exact_sum(prob_arr)
        except OverflowError:
            total = math.inf
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise MassNotOneError(
                f"probabilities sum to {total!r}, expected 1 within {MASS_TOLERANCE}"
            )

        self.labels = label_arr
        self.probs = prob_arr
        self.run_bounds = run_bounds
        self.total = total
        # the oracle's sampler, built on first use by ``oracle.sampler_table``
        self._alias_table = None

        for arr in (
            self.labels,
            self.probs,
            self.run_bounds,
            self.run_values,
            self.run_cumulative,
        ):
            arr.flags.writeable = False

    # -- accessors ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of table entries, including zero-probability padding."""
        return int(self.labels.size)

    @property
    def support_size(self) -> int:
        """Number of elements with positive probability."""
        # zero-probability elements, if any, form the first run
        zeros = int(self.run_bounds[1]) if self.run_values[0] == 0.0 else 0
        return self.size - zeros

    def prob_of(self, label) -> float:
        """Exact stored probability of ``label``, found by a scan of the labels.

        O(n) a call, with no index built or kept.  Nothing on the
        estimator's path looks labels up.  Raises UnknownLabelError if
        ``label`` is not in the distribution.
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

    def run_of(self, position: int) -> int:
        """Index of the run holding canonical ``position``; ``len(run_values)``
        for a position at or past ``size``."""
        return int(np.searchsorted(self.run_bounds, position, side="right")) - 1

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


def canonical_order(dist: DiscreteDistribution) -> np.ndarray:
    """Element indices in canonical order: by probability, ties by label.

    Built on each call, in O(n log n): only the draw-level references,
    which work on labels, need it, and nothing is kept.  Labels are unique,
    so a stable sort by probability of the label-sorted elements is
    ``np.lexsort((labels, probs))``, found with two faster single-key
    sorts.
    """
    by_label = np.argsort(dist.labels)
    return by_label[np.argsort(dist.probs[by_label], kind="stable")]


def _quantile_position(dist: DiscreteDistribution, eps: float) -> int:
    eps = _check_eps(eps)
    # first canonical position whose cumulative mass strictly exceeds eps;
    # the mass-sum invariant guarantees one exists.  The run holding it is
    # found on the run ends; inside it the element-level prefix sums are
    # formed a slice at a time, each cumsum started from the last mass of
    # the slice before, which gives the bits of one pass over every element
    run = int(np.searchsorted(dist.run_cumulative, eps, side="right"))
    if run == dist.run_values.size:
        return dist.size - 1
    lo, end = int(dist.run_bounds[run]), int(dist.run_bounds[run + 1])
    masses = np.empty(min(_SLICE, end - lo) + 1)
    masses[0] = dist.run_cumulative[run - 1] if run else 0.0
    for start in range(lo, end, _SLICE):
        part = masses[: min(_SLICE, end - start) + 1]
        part[1:] = dist.run_values[run]
        np.cumsum(part, out=part)
        ahead = int(np.searchsorted(part[1:], eps, side="right"))
        # the run's last mass, run_cumulative[run], exceeds eps
        if ahead < part.size - 1 or start + _SLICE >= end:
            return start + ahead
        masses[0] = part[-1]


def exact_quantile(dist: DiscreteDistribution, eps: float) -> int:
    """Smallest element (canonical order) with cumulative mass > eps.

    The returned label always has positive probability: zero-probability
    elements sort first and contribute nothing to the cumulative mass.
    Inside its run of equal probability the canonical order is by label,
    so the answer is the offset-th smallest label of that run, found in
    O(n) without building the order.
    """
    position = _quantile_position(dist, eps)
    run = dist.run_of(position)
    offset = position - int(dist.run_bounds[run])
    ties = dist.labels[dist.probs == dist.run_values[run]]
    return int(np.partition(ties, offset)[offset])


def exact_ess(dist: DiscreteDistribution, eps: float) -> int:
    """Effective support size at level eps, via the canonical quantile.

    Counts the elements at or above the eps-quantile in canonical order;
    all of them have positive probability.  The run holding the quantile is
    found by a search on ``run_cumulative``, and only that run is scanned,
    in slices of 64 Ki elements (512 KiB however wide the run) whose prefix
    sums are bit for bit those of one ``np.cumsum`` over every element.
    """
    return dist.size - _quantile_position(dist, eps)


def exact_ess_bruteforce(dist: DiscreteDistribution, eps: float) -> int:
    """Smallest n such that all but the n heaviest elements carry mass <= eps.

    Independent reference for :func:`exact_ess`: walks the sorted
    probabilities from the lightest end, greedily dropping elements while
    the dropped mass stays within eps.
    """
    eps = _check_eps(eps)
    ascending = dist.probs[dist.probs > 0.0]
    ascending.sort()
    dropped = 0
    dropped_mass = 0.0
    # slices keep the Python floats to a fixed number at a time
    for start in range(0, ascending.size, _SLICE):
        for p in ascending[start : start + _SLICE].tolist():
            if dropped_mass + p > eps:
                return ascending.size - dropped
            dropped_mass += p
            dropped += 1
    return ascending.size - dropped


# -- file formats ----------------------------------------------------------

_CSV_HEADER = ["label", "prob"]
_CSV_ROW = [("label", np.uint64), ("prob", np.float64)]


def write_distribution(dist: DiscreteDistribution, path) -> None:
    """Write a distribution file (CSV with a label,prob header, or JSON).

    The path's suffix, ``.csv`` or ``.json``, decides the format.
    Probabilities are written in Python's shortest round-trip form
    (``repr``), so a read-back reproduces them bit-exactly.
    """
    if _infer_format(path) == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_HEADER)
            writer.writerows(dist.to_pairs())  # the csv module writes floats by repr
        return
    # one f-string per row: json.dump to a file streams through the
    # pure-Python encoder, about 2.5 times slower at 1e6 rows
    rows = ",\n".join(
        f'  {{"label": {label}, "prob": {prob!r}}}' for label, prob in dist.to_pairs()
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + rows + "\n]\n")


def read_distribution(path) -> DiscreteDistribution:
    """Read and validate a distribution file written by :func:`write_distribution`;
    the path's suffix decides the format.

    A CSV body is decoded, checked and parsed by one ``np.loadtxt`` call
    into (uint64 label, float64 prob) rows, 16 bytes a row, which stay
    alive while the constructor runs: a CSV set-up therefore peaks at about
    33 bytes a row (31.5 MiB traced on a 1e6-row file).  Only when that
    parse fails is the file read again row by row, to name the first bad
    line by its 1-based number.  A JSON file must be an array of
    ``{"label": ..., "prob": ...}`` objects whose values are JSON numbers.
    """
    if _infer_format(path) == "csv":
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
            with warnings.catch_warnings():
                # a header-only file is rejected as empty by the constructor
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                # given a path rather than an open file, numpy reads the file
                # in blocks instead of line by line (about 25% faster).  No
                # valid row holds a non-ASCII character, and numpy's integer
                # parser reads past its tables on some (a crash or a wrong
                # label, numpy 2.4): the strict decoder raises at the first
                # such byte, a ValueError, before its block reaches the parser
                rows = np.loadtxt(
                    path,
                    delimiter=",",
                    dtype=_CSV_ROW,
                    comments=None,
                    quotechar='"',
                    skiprows=1,
                    encoding="ascii",
                    ndmin=1,
                )
        except ValueError as exc:
            where = _first_bad_csv_row(path)
            raise OutOfRangeError(
                where or f"CSV: expected label,prob rows ({exc})"
            ) from None
        return DiscreteDistribution(rows["label"], rows["prob"])
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except RecursionError:
            raise OutOfRangeError("distribution JSON is nested too deeply") from None
    if not isinstance(rows, list):
        raise OutOfRangeError("distribution JSON must be an array of objects")
    pairs = [_json_pair(row, i) for i, row in enumerate(rows)]
    return DiscreteDistribution([label for label, _ in pairs], [prob for _, prob in pairs])


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
    # JSON numbers only: int and float would take a JSON true or false as 1
    # or 0, and float a string such as "0.5"
    if type(label) not in (int, float) or type(prob) not in (int, float):
        raise OutOfRangeError(
            f"JSON row {index}: label and prob must be numbers, got {row!r:.60}"
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
