"""Experiment runner: seeded estimator trials checked against exact bands.

The runner owns the only piece of full-distribution knowledge in an
experiment: it computes the exact acceptance band once, then hands each
trial a fresh oracle seeded from (master_seed, trial).  Trials run one
after another in trial order; each depends only on its own seed.
"""

from __future__ import annotations

import errno
import json
import math
import operator
import os
import stat
import time
from dataclasses import dataclass, field, fields
from .distribution import (
    MAX_EPS,
    DiscreteDistribution,
    exact_ess,
    read_distribution,
)
from .errors import OutOfRangeError
from .estimator import EstimatorParams, estimate_ess
from .generators import FAMILIES, make_distribution, parse_spec
from .oracle import DualOracle, derive_seed, sampler_table, stage_one_draws

MODES = ("bicriteria", "unicriterion")
FORMATS = ("csv", "json")

# per-trial wall-clock fields: the only nondeterministic ones, so the CSV
# leaves them out
_TIMING_FIELDS = frozenset({"wall_time_ns"})


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``dist_source`` is a distribution file path or a generator string such
    as ``zipf:n=100000,s=1.0``; anything else, a ``GeneratorSpec`` or a
    distribution included, is an ``OutOfRangeError``.  ``dist_source`` and
    ``out_path`` are stored as ``str``: an ``os.PathLike`` is read with
    ``os.fspath``, and a path that is not a ``str`` (bytes, an int) is an
    ``OutOfRangeError`` before anything is loaded.  ``gamma`` is
    required in bicriteria mode and ignored in unicriterion mode, which
    stores None for it (``null`` in a JSON report).  ``eps``, ``beta`` and
    ``gamma`` are stored as the plan's floats, so ``1`` is written as
    ``1.0``.  ``trials`` and ``master_seed`` must be integers (a bool is
    not) and are stored as plain ints.  ``mode`` is read only by the plan
    builder; the plan is kept as ``params`` (unicriterion ignores
    ``gamma``), and a non-degenerate plan has its stage sizes read when the
    config is made, so an impossible plan fails before the distribution is
    loaded.
    """

    dist_source: str | os.PathLike
    eps: float
    beta: float
    gamma: float | None
    mode: str
    trials: int
    master_seed: int
    out_path: str | os.PathLike | None = None
    format: str = "json"
    params: EstimatorParams = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # a distribution object would reach the report only as its repr, and
        # a bytes path could not be written into a JSON one
        for name in ("dist_source", "out_path"):
            value = getattr(self, name)
            if value is None and name == "out_path":
                continue
            path = os.fspath(value) if isinstance(value, os.PathLike) else value
            if not isinstance(path, str):
                raise OutOfRangeError(
                    f"{name} must be a str or an os.PathLike of one, "
                    f"got {type(path).__name__}"
                )
            object.__setattr__(self, name, path)
        if self.format not in FORMATS:
            raise OutOfRangeError(
                f"format must be one of {FORMATS}, got {self.format!r}"
            )
        for name in ("trials", "master_seed"):
            value = getattr(self, name)
            # a bool is an int to Python, but not a count or a seed
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))  # a plain int
        if self.trials < 1:
            raise OutOfRangeError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise OutOfRangeError(
                f"master_seed must lie in [0, 2**64), got {self.master_seed}"
            )
        params = _params(self.eps, self.beta, self.gamma, self.mode)  # mode and ranges
        # keep the plan's floats, the values the trials run with and the
        # report writes (None for the gamma unicriterion ignores)
        for name in ("eps", "beta", "gamma"):
            object.__setattr__(self, name, getattr(params, name))
        if not params.is_degenerate:
            params.sizes  # stage sizes that overflow fail before loading
        object.__setattr__(self, "params", params)


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One estimator call and its verdict against the exact band.

    The field names and their order are the report's per-trial keys.
    """

    trial: int
    seed: int
    estimate: float
    raw_mean: float
    band_low: float
    band_high: float
    success: bool
    samp_queries: int
    eval_queries: int
    wall_time_ns: int


@dataclass(frozen=True, slots=True)
class ExperimentReport:
    """Aggregated outcome of an experiment plus all per-trial records.

    Every field between ``config`` and ``trials`` is a report summary key.
    """

    config: ExperimentConfig
    success_rate: float
    estimate_mean: float
    estimate_min: float
    estimate_max: float
    exact_ess_eps: int
    exact_ess_relaxed: int
    band_low: float
    band_high: float
    total_samp_queries: int
    total_eval_queries: int
    trials: tuple[TrialRecord, ...]


def _params(eps, beta, gamma, mode: str) -> EstimatorParams:
    # the one reader of ``mode``: unicriterion is the gamma=None plan, and
    # bicriteria must name its gamma
    if mode not in MODES:
        raise OutOfRangeError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "unicriterion":
        return EstimatorParams(eps, beta)
    if gamma is None:
        raise OutOfRangeError("bicriteria mode needs a gamma")
    return EstimatorParams(eps, beta, gamma)


def load_distribution(source) -> DiscreteDistribution:
    """Resolve a config ``dist_source`` into a validated distribution."""
    text = os.fspath(source)
    family = text.partition(":")[0].strip()
    if family in FAMILIES:
        return make_distribution(parse_spec(text))
    return read_distribution(text)


def band_endpoints(
    dist: DiscreteDistribution,
    eps: float,
    beta: float,
    gamma: float | None,
    mode: str,
) -> tuple[float, float, int, int]:
    """Exact acceptance band for one configuration.

    Returns (band_low, band_high, ess at eps, ess at the relaxed level):
    the band is [ess_relaxed, factor * ess_eps] with the levels of
    :attr:`EstimatorParams.band_levels`.
    """
    relaxed_level, factor = _params(eps, beta, gamma, mode).band_levels
    ess_eps = exact_ess(dist, eps)
    # at or beyond level 1 a single point mass is always close enough
    ess_relaxed = 1 if relaxed_level >= MAX_EPS else exact_ess(dist, relaxed_level)
    return float(ess_relaxed), factor * ess_eps, ess_eps, ess_relaxed


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run all trials of ``config`` in order and (optionally) write the report.

    An ``out_path`` that is a directory, or lies in a directory that does
    not exist, fails before the distribution is loaded.  Set-up (loading,
    the exact band and, only when stage one takes the draw route, the alias
    table) is done once, before the first trial is timed.  Every trial
    shares the one plan ``config.params`` and is judged with its
    ``in_band``.  ``jobs`` must be 1: trials always run serially in this
    process.
    """
    if jobs != 1:
        raise OutOfRangeError(f"jobs must be 1, got {jobs}")
    if config.out_path is not None:
        # fail before any trial runs; the writer still names the report if
        # the directory goes away during the run
        path = config.out_path
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
    dist = load_distribution(config.dist_source)
    band_low, band_high, ess_eps, ess_relaxed = band_endpoints(
        dist, config.eps, config.beta, config.gamma, config.mode
    )
    params = config.params
    # the one alias table the trials draw from, built before the first is timed
    if not params.is_degenerate and stage_one_draws(dist, params.sizes[0]):
        sampler_table(dist)
    records = []
    for index in range(config.trials):
        seed = derive_seed(config.master_seed, index)
        oracle = DualOracle(dist, seed)
        start = time.perf_counter_ns()
        result = estimate_ess(oracle, params)
        elapsed = time.perf_counter_ns() - start
        records.append(
            TrialRecord(
                trial=index,
                seed=seed,
                estimate=result.estimate,
                raw_mean=result.raw_mean,
                band_low=band_low,
                band_high=band_high,
                success=params.in_band(result.estimate, band_low, band_high),
                samp_queries=result.samp_queries,
                eval_queries=result.eval_queries,
                wall_time_ns=elapsed,
            )
        )
    estimates = [r.estimate for r in records]
    report = ExperimentReport(
        config=config,
        success_rate=sum(r.success for r in records) / config.trials,
        estimate_mean=math.fsum(estimates) / config.trials,
        estimate_min=min(estimates),
        estimate_max=max(estimates),
        exact_ess_eps=ess_eps,
        exact_ess_relaxed=ess_relaxed,
        band_low=band_low,
        band_high=band_high,
        total_samp_queries=sum(r.samp_queries for r in records),
        total_eval_queries=sum(r.eval_queries for r in records),
        trials=tuple(records),
    )
    if config.out_path is not None:
        _write_report(report, config.out_path)
    return report


def _write_report(report: ExperimentReport, path) -> None:
    """Write ``report`` to ``path``.

    A regular file, or a path that does not exist yet, gets the report in a
    temporary file beside it that is then renamed into place, keeping the
    old file's mode, so a failed write leaves any earlier file as it was and
    no partial report behind; an error in creating the temporary file names
    the report path.  Anything else (a symlink, ``/dev/null``, a
    pipe) is opened and written through: renaming over it would replace the
    link or device itself.
    """
    data = emit_report(report)
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        # name the report, not the temporary file the caller never asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.write(data)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- report serialization ---------------------------------------------------


def _field_dict(record) -> dict:
    # not dataclasses.asdict, which recurses into and deep-copies every
    # field; a field the caller does not give (the config's plan) is left out
    return {f.name: getattr(record, f.name) for f in fields(record) if f.init}


def report_dict(report: ExperimentReport) -> dict:
    """Report as plain nested dicts, keyed and ordered by the record fields."""
    summary = _field_dict(report)
    del summary["config"], summary["trials"]
    return {
        "config": _field_dict(report.config),
        "summary": summary,
        "trials": [_field_dict(r) for r in report.trials],
    }


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def emit_report(report: ExperimentReport) -> bytes:
    """Serialize a report in its config's ``format``.

    CSV holds the per-trial table only: a header of the
    :class:`TrialRecord` field names less the wall-clock timings, and one
    row per trial, booleans as ``true``/``false``.  JSON holds config,
    summary and trials.  Floats are written in Python's shortest round-trip
    form (``repr``), so parsing reproduces them exactly; a non-finite float
    in a JSON report raises ``ValueError``, since JSON has no infinity.
    """
    if report.config.format == "csv":
        names = [f.name for f in fields(TrialRecord) if f.name not in _TIMING_FIELDS]
        cells = operator.attrgetter(*names)
        lines = [",".join(names)]
        lines += [",".join(map(_csv_cell, cells(r))) for r in report.trials]
        return ("\n".join(lines) + "\n").encode("utf-8")
    text = json.dumps(report_dict(report), separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode("utf-8")
