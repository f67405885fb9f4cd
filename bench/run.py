"""Benchmark of ess_toolkit: three workloads, each making one layer dominant.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout of it); the package is
imported from ``src/`` next to this directory, never from elsewhere.

Load model: one process, one closed-loop caller, trials serial (jobs=1).
A run repeats the workload's whole call -- distribution, sampler, band,
trials and report -- with the same master seed until ``--seconds`` have
passed (at least three calls) and reports medians over calls.  Because
every call uses the same seed, the calls must agree exactly on estimates
and query counts (and, traced, on draws, stage-two hits and pivots): that
is the exact-repeat check.

Workloads (why each was chosen):

* ``uni-zipf-draws`` -- ``run_experiment``, unicriterion, zipf n=1e5,
  eps=beta=0.2: t = 62.5M stage-two draws per trial, so oracle draws and
  ``inverse_prob_terms`` dominate; set-up is a few per cent.  This is the
  configuration the unicriterion acceptance tests use.
* ``bi-pivot-sweep`` -- ``run_experiment``, bicriteria, geometric
  n=1e5 rho=0.999, eps=0.2 beta=0.05 gamma=0.2, CSV report: r = 360k, so
  stage one (r draws plus a lexsort of r) is about two thirds of each
  short trial, and many trials expose per-trial harness overhead.  Few cells lie
  above the pivot (ess about 1.6k), against about 9k on the zipf workload.
* ``cli-file-1e6`` -- ``cli.main(["run", ...])`` on a 1e6-row CSV of a
  two_tier pmf with scattered 64-bit labels, written from the seed by
  ``make_input.py`` in a separate, untimed process: CSV parse, validation
  and sampler build dominate; the labels exercise the label gathers and
  the ties the tie branch of the estimator.

End-to-end metrics (``--trace 0``): ``run_s`` (median call time),
``setup_s`` (median of call time minus the harness's own per-trial
``wall_time_ns``), ``trial_s_p50``/``trial_s_p90`` (over every trial of
every call; the sample count is printed, and only bi-pivot-sweep has ten
or more trials beyond the p90), ``queries_per_s`` ((samp + eval)
queries per second of trial time) and ``peak_rss_mb``.  ``--trace 1``
alternates traced and untraced calls and reports the per-layer numbers of
``spans.layer_metrics`` (medians over traced calls) plus the tracing
overhead; the spans are written to ``bench/out/``.

A trial fails when its call raises, its estimate is not finite or lies
outside the exact band, its recorded band differs from ``band_endpoints``
(itself checked against ``exact_ess_bruteforce``),
its query counts differ from ``sample_sizes`` of its plan, or the report
does not parse back with one record per trial.  ``--tiny`` shrinks every
workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
MIN_CALLS = 3
UINT64_SPAN = 1 << 64


@dataclass(frozen=True)
class Workload:
    entry: str  # "api" calls run_experiment, "cli" calls cli.main
    dist: str  # generator spec, or "file" for the generated CSV
    mode: str
    eps: float
    beta: float
    gamma: float | None
    trials: int
    format: str
    file_rows: int = 0
    file_heavy: int = 0


WORKLOADS = {
    "uni-zipf-draws": Workload(
        "api", "zipf:n=100000,s=1.0", "unicriterion", 0.2, 0.2, None, 3, "json"
    ),
    "bi-pivot-sweep": Workload(
        "api", "geometric:n=100000,rho=0.999", "bicriteria", 0.2, 0.05, 0.2, 60, "csv"
    ),
    "cli-file-1e6": Workload(
        "cli", "file", "bicriteria", 0.2, 0.2, 0.2, 10, "json", 1_000_000, 1000
    ),
}

# Same code paths at sizes that finish in well under a second.
TINY = {
    "uni-zipf-draws": dict(dist="zipf:n=1000,s=1.0", eps=0.6, trials=2),
    "bi-pivot-sweep": dict(dist="geometric:n=1000,rho=0.99", eps=0.5, beta=0.2, trials=5),
    "cli-file-1e6": dict(eps=0.5, trials=2, file_rows=10_000, file_heavy=10),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "trial_s_p50": "s",
    "trial_s_p90": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "distribution.load_s": "s",
    "distribution.construct_s": "s",
    "distribution.elements": "count",
    "distribution.exact_ess_calls": "count",
    "oracle.sampler_build_s": "s",
    "oracle.sampler_bytes_computed": "B",
    "oracle.draws": "count",
    "oracle.draw_s": "s",
    "oracle.draw_ns_per_draw": "ns",
    "oracle.gather_ns_per_draw": "ns",
    "oracle.samp_queries": "count",
    "oracle.eval_queries": "count",
    "estimator.stage1_s": "s",
    "estimator.quantile_s": "s",
    "estimator.stage1_draws": "count",
    "estimator.stage2_s": "s",
    "estimator.terms_s": "s",
    "estimator.stage2_reduce_s": "s",
    "estimator.stage2_hits": "count",
    "estimator.stage2_hit_ratio": "ratio",
    "harness.band_s": "s",
    "harness.trial_overhead_s": "s",
    "harness.emit_report_s": "s",
    "harness.report_bytes": "B",
    "entry.overhead_s": "s",
    "share.oracle_terms_of_trial": "ratio",
    "share.stage1_of_trial": "ratio",
    "share.setup_of_run": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


class SetupError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def import_package():
    """Import ess_toolkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "ess_toolkit" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'ess_toolkit'}")
    sys.path.insert(0, str(SRC))
    import ess_toolkit
    import ess_toolkit.cli  # the package does not import it; tracing needs it loaded

    if Path(ess_toolkit.__file__).resolve().parent != SRC / "ess_toolkit":
        raise SetupError(f"ess_toolkit imported from {ess_toolkit.__file__}")
    return ess_toolkit


# -- environment -------------------------------------------------------


def _cache_sizes() -> dict[str, int]:
    # per-core data/unified caches of cpu0, read-only from sysfs
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def manifest(sampler_bytes: int) -> dict:
    caches = _cache_sizes()
    l2 = caches.get("L2")
    llc = caches[max(caches)] if caches else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "sampler_bytes_computed": sampler_bytes,
        "sampler_bytes_over_l2": sampler_bytes / l2 if l2 else None,
        "note": (
            f"caches of cpu0 (L2 per core); the last-level cache holds "
            f"{llc / 2**20 if llc else float('nan'):.0f} MiB, more than any "
            "workload's working set, so no workload measures memory bandwidth; "
            "sampler bytes are computed from array sizes"
        ),
    }


# -- one run -----------------------------------------------------------


class Run:
    """Everything one benchmark invocation needs and records."""

    def __init__(self, spec: Workload, seed: int, workdir: Path) -> None:
        import_package()
        from ess_toolkit import harness
        from ess_toolkit.distribution import MAX_EPS, exact_ess_bruteforce
        from ess_toolkit.estimator import SLACK_CAP, EstimatorParams, sample_sizes
        from ess_toolkit.oracle import sampler_table

        self.spec = spec
        self.master_seed = seed % UINT64_SPAN
        self.calls: list[dict] = []
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.report_path = workdir / f"report.{spec.format}"
        if spec.dist == "file":
            self.source = str(workdir / "dist.csv")
            subprocess.run(
                [
                    sys.executable,
                    str(BENCH_DIR / "make_input.py"),
                    self.source,
                    str(self.master_seed),
                    str(spec.file_rows),
                    str(spec.file_heavy),
                ],
                check=True,
                timeout=120,
            )
        else:
            self.source = spec.dist

        # Reference values, loaded separately from the timed calls.
        ref = harness.load_distribution(self.source)
        low, high, ess_eps, ess_relaxed = harness.band_endpoints(
            ref, spec.eps, spec.beta, spec.gamma, spec.mode
        )
        beta = spec.beta if spec.mode == "bicriteria" else min(spec.beta, SLACK_CAP)
        relaxed = (1.0 + beta) * spec.eps
        if ess_eps != exact_ess_bruteforce(ref, spec.eps) or ess_relaxed != (
            1 if relaxed >= MAX_EPS else exact_ess_bruteforce(ref, relaxed)
        ):
            self.problems.append("band_endpoints disagrees with exact_ess_bruteforce")
        self.band = (low, high)
        if spec.mode == "bicriteria":
            params = EstimatorParams(spec.eps, spec.beta, spec.gamma)
        else:
            inner = min(spec.beta, SLACK_CAP) / 2.0
            params = EstimatorParams(spec.eps, inner, spec.eps * inner)
        self.queries_per_trial = sum(sample_sizes(params))
        self.sampler_bytes = _array_bytes(sampler_table(ref)) + ref.probs.nbytes
        if not np.array_equal(ref.labels, np.arange(ref.size, dtype=np.uint64)):
            self.sampler_bytes += ref.labels.nbytes
        del ref

    # -- the timed call ------------------------------------------------

    def call(self, tracer) -> dict:
        from ess_toolkit import cli, harness

        spec = self.spec
        root = tracer.span("bench.call") if tracer else contextlib.nullcontext()
        report = None
        start = time.perf_counter_ns()
        with root:
            if spec.entry == "cli":
                argv = [
                    "run", "--dist", self.source, "--eps", repr(spec.eps),
                    "--beta", repr(spec.beta), "--gamma", repr(spec.gamma),
                    "--mode", spec.mode, "--trials", str(spec.trials),
                    "--seed", str(self.master_seed), "--out", str(self.report_path),
                    "--format", spec.format, "--jobs", "1",
                ]  # fmt: skip
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"cli.main returned {code}")
            else:
                config = harness.ExperimentConfig(
                    dist_source=self.source,
                    eps=spec.eps,
                    beta=spec.beta,
                    gamma=spec.gamma,
                    mode=spec.mode,
                    trials=spec.trials,
                    master_seed=self.master_seed,
                    out_path=str(self.report_path),
                    format=spec.format,
                )
                report = harness.run_experiment(config, jobs=1)
        run_ns = time.perf_counter_ns() - start
        return {"run_ns": run_ns, "report": report}

    # -- checks ----------------------------------------------------------

    def _parse_report(self) -> list[dict]:
        text = self.report_path.read_text(encoding="utf-8")
        if self.spec.format == "json":
            rows = json.loads(text)["trials"]
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
        return [
            {
                "trial": int(row["trial"]),
                "estimate": float(row["estimate"]),
                "raw_mean": float(row["raw_mean"]),
                "band": (float(row["band_low"]), float(row["band_high"])),
                "success": row["success"] in (True, "true"),
                "queries": (int(row["samp_queries"]), int(row["eval_queries"])),
                "wall_ns": int(row["wall_time_ns"]) if "wall_time_ns" in row else None,
            }
            for row in rows
        ]

    def _trial_ok(self, row: dict) -> str | None:
        low, high = self.band
        estimate = row["estimate"]
        if not math.isfinite(estimate):
            return "estimate not finite"
        if row["band"] != self.band:
            return f"recorded band {row['band']} != band_endpoints {self.band}"
        judged = math.floor(estimate + 0.5) if self.spec.mode == "unicriterion" else estimate
        tol = 1e-12 * high
        if not low - tol <= judged <= high + tol:
            return f"estimate {estimate!r} outside [{low}, {high}]"
        if not row["success"]:
            return "report marks the trial as a band miss"
        q = self.queries_per_trial
        if row["queries"] != (q, q):
            return f"queries {row['queries']} != sample_sizes plan {q}"
        return None

    def check(self, outcome: dict) -> list[dict] | None:
        """Count failed trials of one call; return its parsed records."""
        trials = self.spec.trials
        self.attempted += trials
        try:
            rows = self._parse_report()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.failed += trials
            self.problems.append(f"report does not parse back: {exc!r}")
            return None
        if [r["trial"] for r in rows] != list(range(trials)):
            self.failed += trials
            self.problems.append(f"report holds {len(rows)} records for {trials} trials")
            return None
        report = outcome["report"]
        for row in rows:
            problem = None
            if report is not None:
                # API entry: the returned records carry the timings and must
                # match what was written
                rec = report.trials[row["trial"]]
                row["wall_ns"] = rec.wall_time_ns
                if (rec.estimate, rec.samp_queries) != (row["estimate"], row["queries"][0]):
                    problem = "returned report differs from file"
            problem = problem or self._trial_ok(row)
            if problem:
                self.failed += 1
                self.problems.append(f"trial {row['trial']}: {problem}")
        return rows

    # -- the loop --------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        tracer = spans.Tracer() if trace else None
        start = time.perf_counter()
        index = 0
        while index < MIN_CALLS or time.perf_counter() - start < seconds:
            traced = trace and index % 2 == 0
            index += 1
            # a report left by an earlier call must not pass for this one's
            self.report_path.unlink(missing_ok=True)
            if traced:
                tracer.install()
            try:
                outcome = self.call(tracer if traced else None)
            except Exception:  # a failed call is counted, the run goes on
                self.attempted += self.spec.trials
                self.failed += self.spec.trials
                self.problems.append("call raised:\n" + traceback.format_exc())
                continue
            finally:
                if traced:
                    tracer.uninstall()
                    call_spans = tracer.take()
            rows = self.check(outcome)
            if rows is None:
                continue
            outcome["rows"] = rows
            if traced:
                outcome["spans"] = call_spans
            self.calls.append(outcome)
        self.missing_wrappers = tracer.missing if trace else []

    def repeat_check(self) -> None:
        """Calls with one seed must agree exactly (see module docstring)."""
        def signature(call):
            return [(r["estimate"], r["raw_mean"], r["queries"]) for r in call["rows"]]

        if len({repr(signature(c)) for c in self.calls}) > 1:
            self.problems.append("exact-repeat: estimates or query counts differ")
        traced = [spans.SpanTable(c["spans"]) for c in self.traced()]
        if len({repr(t.trials()) for t in traced}) > 1:
            self.problems.append("exact-repeat: draws, hits or pivots differ")

    # -- metrics ---------------------------------------------------------

    def untraced(self) -> list[dict]:
        return [c for c in self.calls if "spans" not in c]

    def traced(self) -> list[dict]:
        return [c for c in self.calls if "spans" in c]

    def end_to_end(self) -> dict[str, float]:
        calls = self.untraced()
        run_s = [c["run_ns"] / 1e9 for c in calls]
        setup_s = [(c["run_ns"] - sum(r["wall_ns"] for r in c["rows"])) / 1e9 for c in calls]
        trial_s = [r["wall_ns"] / 1e9 for c in calls for r in c["rows"]]
        queries = sum(sum(r["queries"]) for c in calls for r in c["rows"])
        return {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_s),
            "trial_s_p50": statistics.median(trial_s),
            "trial_s_p90": statistics.quantiles(trial_s, n=10)[8],
            "queries_per_s": queries / math.fsum(trial_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.traced()
        layers = [spans.layer_metrics(spans.SpanTable(c["spans"])) for c in traced]
        out = {name: _median([m[name] for m in layers]) for name in layers[0]}
        e2e = self.end_to_end()
        out["oracle.sampler_bytes_computed"] = self.sampler_bytes
        out["share.setup_of_run"] = e2e["setup_s"] / e2e["run_s"]
        out["trace.overhead_s"] = (
            statistics.median(c["run_ns"] for c in traced) / 1e9 - e2e["run_s"]
        )
        return {name: out[name] for name in PER_LAYER_UNITS}


def _median(values: list):
    # counts stay integers; they repeat exactly across calls anyway
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _array_bytes(obj) -> int:
    names = getattr(type(obj), "__slots__", None) or list(vars(obj))
    arrays = (getattr(obj, n, None) for n in names)
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


# -- entry point -------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = replace(spec, **TINY[args.workload])
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        run = Run(spec, args.seed, workdir)
        run.measure(args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run.calls:
        run.repeat_check()
    env = manifest(run.sampler_bytes)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    have_data = bool(run.untraced()) and (bool(run.traced()) or not args.trace)
    values = (run.per_layer() if args.trace else run.end_to_end()) if have_data else {}
    trials = sum(len(c["rows"]) for c in run.untraced())

    print("manifest " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(run.calls)} calls, {spec.trials} trials each, "
        f"{trials} untraced trials pooled for the trial percentiles "
        f"({trials // 10} lie beyond trial_s_p90)"
    )
    print("untraced call run_s: " + " ".join(f"{c['run_ns'] / 1e9:.4f}" for c in run.untraced()))
    print(f"ops_failed {run.failed} of ops_attempted {run.attempted}")
    if run.missing_wrappers:
        # a renamed target leaves its layer metrics at zero; outputs are still checked
        print(f"warning: wrappers not installed: {run.missing_wrappers}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{name} {values.get(name, float('nan')):.6g} {unit}")
    if args.trace and have_data:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_spans(spans_path, [c["spans"] for c in run.traced()])
        print(f"spans written to {spans_path.relative_to(BENCH_DIR.parent)}")

    result = {
        "correct": have_data and run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
