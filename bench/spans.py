"""In-memory span tracing of ess_toolkit from outside the package.

Wrappers are installed around the public functions and methods of each
package module (distribution, generators, oracle, estimator, harness, cli)
without editing the package: every module attribute through which the
package looks a function up is replaced, so ``harness.estimate_ess`` and
``estimator.estimate_ess`` (the unicriterion wrapper's lookup) both land in
the same wrapper.  Methods are replaced on their class.

A span is ``[name, start_ns, end_ns, parent, trial, info]``: ``parent`` is
the index of the enclosing span (-1 at the root), ``trial`` the id of the
estimator call it belongs to (-1 outside trials) and ``info`` a per-call
count (draws, elements, bytes, hits, pivot label).  Work the tracer itself
does after a call returns is recorded as a ``trace.bookkeeping`` child of
the caller's span, so it never lands in any layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

BOOKKEEPING = "trace.bookkeeping"
ROOT = "bench.call"
TRIAL_ROOTS = ("estimator.estimate_ess_unicriterion", "estimator.estimate_ess")


def _count_arg(position, keyword="count"):
    # info extractor: the draw-count argument, positional or by keyword
    def info(args, kwargs, result):
        return int(kwargs[keyword] if keyword in kwargs else args[position])

    return info


def _size_of_self(args, kwargs, result):
    return int(args[0].size)


def _pivot_label(args, kwargs, result):
    return int(result[0])


def _nonzero_terms(args, kwargs, result):
    return int(np.count_nonzero(result))


def _byte_length(args, kwargs, result):
    return len(result)


# (module, attribute path inside it, span name, info extractor)
TARGETS = (
    ("distribution", "read_distribution", "distribution.read_distribution", None),
    ("distribution", "DiscreteDistribution.__init__", "distribution.construct", _size_of_self),
    ("distribution", "exact_ess", "distribution.exact_ess", None),
    ("generators", "parse_spec", "generators.parse_spec", None),
    ("generators", "make_distribution", "generators.make_distribution", None),
    ("oracle", "derive_seed", "oracle.derive_seed", None),
    ("oracle", "sampler_table", "oracle.sampler_table", None),
    ("oracle", "AliasTable.__init__", "oracle.alias_build", None),
    ("oracle", "AliasTable.draw", "oracle.draw", _count_arg(2)),
    ("oracle", "DualOracle.__init__", "oracle.init", None),
    ("oracle", "DualOracle.samp_many", "oracle.samp_many", _count_arg(1)),
    ("oracle", "DualOracle.eval", "oracle.eval", None),
    ("oracle", "DualOracle.sample_with_prob_many", "oracle.sample_with_prob_many", _count_arg(1)),
    ("estimator", "select_pivot", "estimator.select_pivot", _pivot_label),
    ("estimator", "empirical_quantile", "estimator.empirical_quantile", None),
    ("estimator", "inverse_prob_terms", "estimator.inverse_prob_terms", _nonzero_terms),
    ("estimator", "estimate_ess", "estimator.estimate_ess", None),
    ("estimator", "estimate_ess_unicriterion", "estimator.estimate_ess_unicriterion", None),
    ("harness", "load_distribution", "harness.load_distribution", None),
    ("harness", "band_endpoints", "harness.band_endpoints", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "emit_report", "harness.emit_report", _byte_length),
    ("cli", "main", "cli.main", None),
)
# these extractors only read arguments, so they run before the timed call;
# the others inspect the result and run as bookkeeping after it
_ARGUMENT_INFO = {"oracle.draw", "oracle.samp_many", "oracle.sample_with_prob_many"}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial = -1
        self._next_trial = 0
        self._patches: list[tuple[object, str, object]] = []
        self._active = False
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self._trial, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        record = self._open(name)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn, info):
        tracer = self
        trial_root = name in TRIAL_ROOTS
        before = name in _ARGUMENT_INFO

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:  # a reference kept past uninstall
                return fn(*args, **kwargs)
            new_trial = trial_root and tracer._trial == -1
            if new_trial:
                tracer._trial = tracer._next_trial
                tracer._next_trial += 1
            span = tracer._open(name)
            if before:
                span[5] = info(args, kwargs, None)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
                if new_trial:
                    tracer._trial = -1
            if info is not None and not before:
                book = [BOOKKEEPING, time.perf_counter_ns(), 0, span[3], span[4], None]
                span[5] = info(args, kwargs, result)
                book[2] = time.perf_counter_ns()
                tracer.spans.append(book)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace every package-level reference to each target."""
        self.missing = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "ess_toolkit" or key.startswith("ess_toolkit.")
        ]
        for module_name, path, name, info in TARGETS:
            module = sys.modules.get(f"ess_toolkit.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(name, original, info)
            if owner_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapped)
        self._active = True

    def uninstall(self) -> None:
        self._active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        self._next_trial = 0
        return spans


# -- derived numbers ---------------------------------------------------


class SpanTable:
    """Totals, self times and info sums over one call's spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_ns = [s[2] - s[1] - child_ns[i] for i, s in enumerate(spans)]

    def _select(self, name, parent_name=None):
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            if parent_name is not None and (
                s[3] < 0 or self.spans[s[3]][0] != parent_name
            ):
                continue
            yield i, s

    def total_s(self, name, parent_name=None) -> float:
        return sum(s[2] - s[1] for _, s in self._select(name, parent_name)) / 1e9

    def self_s(self, name) -> float:
        return sum(self.self_ns[i] for i, _ in self._select(name)) / 1e9

    def count(self, name) -> int:
        return sum(1 for _ in self._select(name))

    def info_sum(self, name, parent_name=None) -> int:
        return sum(s[5] or 0 for _, s in self._select(name, parent_name))

    def trial_s(self) -> float:
        """Summed duration of the outermost estimator call of each trial."""
        return (
            sum(
                s[2] - s[1]
                for s in self.spans
                if s[0] in TRIAL_ROOTS
                and (s[3] < 0 or self.spans[s[3]][0] not in TRIAL_ROOTS)
            )
            / 1e9
        )

    def children_s(self, parent_name) -> float:
        """Summed duration of the direct children of the named spans."""
        parents = {i for i, _ in self._select(parent_name)}
        return (
            sum(s[2] - s[1] for s in self.spans if s[3] in parents and s[0] != BOOKKEEPING)
            / 1e9
        )

    def trials(self) -> dict[int, dict]:
        """Per-trial pivot label, draws and stage-two hits, keyed by trial id."""
        out: dict[int, dict] = {}
        for name, _, _, _, trial, info in self.spans:
            if trial < 0:
                continue
            rec = out.setdefault(trial, {"pivot": None, "draws": 0, "hits": 0})
            if name == "estimator.select_pivot":
                rec["pivot"] = info
            elif name == "oracle.draw":
                rec["draws"] += info
            elif name == "estimator.inverse_prob_terms":
                rec["hits"] += info
        return out

    def by_name(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            rec = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += (s[2] - s[1]) / 1e9
            rec["self_s"] += self.self_ns[i] / 1e9
        return out


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """Per-layer numbers of one traced call (see BENCHMARK.json ``per_layer``)."""
    t = table
    run_s = t.total_s(ROOT)
    trial_s = t.trial_s()
    draws = t.info_sum("oracle.draw")
    swpm = t.info_sum("oracle.sample_with_prob_many")
    stage2_draws = t.info_sum("oracle.sample_with_prob_many", "estimator.estimate_ess")
    hits = t.info_sum("estimator.inverse_prob_terms")
    oracle_s = t.total_s("oracle.sample_with_prob_many")
    terms_s = t.total_s("estimator.inverse_prob_terms")
    stage1_s = t.total_s("estimator.select_pivot")
    return {
        "distribution.load_s": t.total_s("harness.load_distribution")
        - t.total_s("distribution.construct"),
        "distribution.construct_s": t.total_s("distribution.construct"),
        "distribution.elements": t.info_sum("distribution.construct"),
        "distribution.exact_ess_calls": t.count("distribution.exact_ess"),
        "oracle.sampler_build_s": t.total_s("oracle.alias_build"),
        "oracle.draws": draws,
        "oracle.draw_s": t.total_s("oracle.draw"),
        "oracle.draw_ns_per_draw": t.total_s("oracle.draw") * 1e9 / max(draws, 1),
        "oracle.gather_ns_per_draw": t.self_s("oracle.sample_with_prob_many")
        * 1e9
        / max(swpm, 1),
        "oracle.samp_queries": swpm + t.info_sum("oracle.samp_many"),
        "oracle.eval_queries": swpm + t.count("oracle.eval"),
        "estimator.stage1_s": stage1_s,
        "estimator.quantile_s": t.total_s("estimator.empirical_quantile"),
        "estimator.stage1_draws": t.info_sum(
            "oracle.sample_with_prob_many", "estimator.select_pivot"
        ),
        "estimator.stage2_s": t.total_s("estimator.estimate_ess") - stage1_s,
        "estimator.terms_s": terms_s,
        "estimator.stage2_reduce_s": t.self_s("estimator.estimate_ess"),
        "estimator.stage2_hits": hits,
        "estimator.stage2_hit_ratio": hits / max(stage2_draws, 1),
        "harness.band_s": t.total_s("harness.band_endpoints"),
        "harness.trial_overhead_s": t.self_s("harness.run_experiment"),
        "harness.emit_report_s": t.total_s("harness.emit_report"),
        "harness.report_bytes": t.info_sum("harness.emit_report"),
        "entry.overhead_s": run_s - t.total_s("harness.run_experiment"),
        "share.oracle_terms_of_trial": (oracle_s + terms_s) / trial_s,
        "share.stage1_of_trial": stage1_s / trial_s,
        "trace.coverage": t.children_s("harness.run_experiment") / run_s,
        "trace.spans": len(t.spans),
    }


def write_spans(path, calls: list[list[list]]) -> None:
    """Write every traced call's spans, with per-name totals, as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent", "trial", "info"],
                "calls": [
                    {"by_name": SpanTable(spans).by_name(), "spans": spans}
                    for spans in calls
                ],
            },
            fh,
            separators=(",", ":"),
        )
