"""Self-test of the benchmark at tiny sizes (not part of the test suite).

    python3 bench/selftest.py

Checks BENCHMARK.json against the metric tables in run.py, runs every
workload end to end with ``--tiny`` both untraced and traced and checks the
result line's schema, names and units, and checks that a copy of the
benchmark without the package source fails without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.BENCH_DIR.parent
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class SelfTestFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(spec)}",
    )
    check(spec["paths"] == ["bench"], "paths")
    check(spec["command"] == ["python3", "bench/run.py"], "command")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200, f"workload {w}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == run.END_TO_END_UNITS, f"end_to_end {e2e}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {m}")
        check(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher"), f"{m}")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    check(setup["better"] == "lower", "setup_s is lower-is-better")
    check(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s bound")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(layers == run.PER_LAYER_UNITS, f"per_layer {layers}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer keys {m}")
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        check(len(name) <= 64 and set(name) <= NAME_CHARS and name[0].isalnum(), name)


def run_workload(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def check_result(workload: str, trace: int, proc: subprocess.CompletedProcess) -> None:
    where = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
    check(result["correct"] is True, f"{where}: not correct\n{proc.stdout}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    check(result["failed"] == 0, f"{where}: failed {result['failed']}")
    check("wrappers not installed" not in proc.stdout, f"{where}: missing wrappers")
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    metrics = result["metrics"]
    check(list(metrics) == list(units), f"{where}: metric names {list(metrics)}")
    for name, metric in metrics.items():
        check(set(metric) == {"value", "unit"}, f"{where}: {name} keys")
        check(metric["unit"] == units[name], f"{where}: {name} unit")
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}={value}")
    if not trace:
        check(all(m["value"] > 0 for m in metrics.values()), f"{where}: a zero metric")


def check_fails_without_source() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = run_workload(bare, "bi-pivot-sweep", 0)
        check(proc.returncode != 0, "bare copy exited 0")
        check('"correct"' not in proc.stdout, "bare copy printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    try:
        check_benchmark_json()
        print("BENCHMARK.json: ok")
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                check_result(workload, trace, run_workload(ROOT, workload, trace))
                print(f"{workload} --trace {trace}: ok")
        check_fails_without_source()
        print("bare copy without src/: fails as required")
    except SelfTestFailure as exc:
        print(f"FAIL: {exc}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
