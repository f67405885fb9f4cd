"""The package interface that the benchmark under ``bench/`` relies on.

``bench/spans.py`` wraps package functions by name and ``bench/run.py``
imports package names and drives ``run_experiment`` and the ``run`` command
serially.  A rename here would otherwise only show when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from ess_toolkit import harness, sample_sizes
from ess_toolkit.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
WORKLOADS = [
    w["name"]
    for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]
]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, path, _, _ in load_spans().TARGETS:
        owner = importlib.import_module(f"ess_toolkit.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


def bench_run_imports() -> dict[str, object]:
    """Every package name ``bench/run.py`` uses, resolved: the names it
    imports from ``ess_toolkit`` and the attributes it reads off imported
    package modules (``harness.band_endpoints``)."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    resolved = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ess_toolkit"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(owner, alias.name):  # a submodule not yet loaded
                    importlib.import_module(f"{node.module}.{alias.name}")
                resolved[alias.asname or alias.name] = getattr(owner, alias.name)
    modules = {k: v for k, v in resolved.items() if isinstance(v, types.ModuleType)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            resolved[node.attr] = getattr(modules[node.value.id], node.attr)
    return resolved


def test_every_run_import_resolves():
    names = bench_run_imports()
    for name in (
        "sampler_table",
        "EstimatorParams",
        "sample_sizes",
        "SLACK_CAP",
        "MAX_EPS",
        "exact_ess_bruteforce",
        "load_distribution",
        "band_endpoints",
        "run_experiment",
        "ExperimentConfig",
        "main",
    ):
        assert name in names, name


def test_run_experiment_accepts_jobs_one():
    config = harness.ExperimentConfig(
        "uniform:n=4", 0.2, 0.2, 0.2, "bicriteria", trials=1, master_seed=1
    )
    inspect.signature(harness.run_experiment).bind(config, jobs=1)


def test_run_parser_accepts_jobs_one(tmp_path):
    args = build_parser().parse_args(
        [
            "run", "--dist", "uniform:n=4", "--eps", "0.2", "--beta", "0.2",
            "--gamma", "0.2", "--mode", "bicriteria", "--trials", "1",
            "--seed", "1", "--out", str(tmp_path / "r.json"), "--format", "json",
            "--jobs", "1",
        ]
    )  # fmt: skip
    assert args.jobs == 1


@pytest.mark.parametrize(
    "source, draws_per_trial",
    [
        # r = 22 500 draws over 5000 runs stay on the draw route, and over
        # 1000 runs take the Beta route, which makes no draw
        pytest.param("geometric:n=5000,rho=0.999", 1, id="draw-route"),
        pytest.param("geometric:n=1000,rho=0.99", 0, id="beta-route"),
    ],
)
def test_stage_one_draws_are_traced(source, draws_per_trial):
    # on the draw route stage one draws through AliasTable.draw, so the
    # benchmark's ``oracle.draw`` span counts its r draws in every trial;
    # on the Beta route it counts none, and the queries are charged alike
    spans = load_spans()
    config = harness.ExperimentConfig(
        source, 0.2, 0.2, 0.2, "bicriteria", trials=3, master_seed=7
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = harness.run_experiment(config)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    r_size, t_size = sample_sizes(config.params)
    draws = spans.SpanTable(tracer.take()).info_sum("oracle.draw")
    assert draws == 3 * draws_per_trial * r_size
    for trial in report.trials:
        assert (trial.samp_queries, trial.eval_queries) == (r_size + t_size,) * 2


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """``bench/*.py`` beside a copy of the package source, outside the
    checkout: a run makes its workdir and span file under its own
    ``bench/out``.  The package is copied, not linked, because ``run.py``
    checks the resolved path it imports the package from."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, root / "bench")
    shutil.copytree(
        BENCH.parent / "src" / "ess_toolkit",
        root / "src" / "ess_toolkit",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root / "bench"


@pytest.mark.parametrize(
    "workload, trace",
    [
        pytest.param(w, trace, id=f"{w}-traced" if trace else w)
        for trace in (0, 1)
        for w in WORKLOADS
    ],
)
def test_benchmark_tiny_run_is_correct(bench_copy, workload, trace):
    # the benchmark's own output check on each workload at self-test sizes,
    # untraced and traced: a package change that fails it, or that leaves a
    # traced name unwrapped or a span's argument unread, fails here first
    done = subprocess.run(
        [
            sys.executable, str(bench_copy / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    assert "wrappers not installed" not in done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
