"""The package interface that the benchmark under ``bench/`` relies on.

``bench/spans.py`` wraps package functions by name and ``bench/run.py``
drives ``run_experiment`` and the ``run`` command serially.  A rename here
would otherwise only show when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from ess_toolkit import harness
from ess_toolkit.cli import build_parser

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
