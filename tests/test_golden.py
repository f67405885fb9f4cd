"""Golden reports: the bytes a fixed config and seed produce, by sha256.

A stream change that keeps every law intact (a numpy upgrade, a reordered
draw, another cell order in stage two) passes the statistical tests; it
fails here.  ``tests/golden/digests.json`` holds the digests and the numpy
version they were made with.  A change that alters report bytes on purpose
rewrites the file in the same commit, with ``python tests/golden/make_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from ess_toolkit import cli

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
SEEDS = (4242, 7)
TWO_TIER_CSV = "two_tier_scattered.csv"

# name -> (distribution, eps, beta, gamma or None for unicriterion, trials)
CONFIGS = {
    "uni-zipf": ("zipf:n=1000,s=1.0", 0.6, 0.2, None, 2),
    "bi-geometric": ("geometric:n=1000,rho=0.99", 0.5, 0.2, 0.2, 5),
    # every config above takes stage one's Beta route; this one draws
    "bi-zipf-draws": ("zipf:n=5000,s=1.0", 0.5, 0.2, 0.2, 2),
    "bi-csv-two-tier": (TWO_TIER_CSV, 0.5, 0.2, 0.2, 2),
    "degenerate": ("uniform:n=100", 0.9, 0.2, 0.2, 2),
}


def write_two_tier_csv(path: Path) -> None:
    """10 000 rows: 10 heavy rows of mass 0.09 at random places among 9 990
    light ones, under scattered 64-bit labels, so set-up sorts the labels."""
    rng = np.random.default_rng(20_24)
    n, heavy = 10_000, 10
    labels = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    assert np.unique(labels).size == n
    probs = np.full(n, 0.1 / (n - heavy))
    probs[rng.permutation(n)[:heavy]] = 0.9 / heavy
    pairs = zip(labels.tolist(), probs.tolist())
    rows = "".join(f"{label},{prob!r}\n" for label, prob in pairs)
    path.write_text("label,prob\n" + rows, encoding="ascii")


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def golden_outputs(tmp: Path) -> dict[str, bytes]:
    """Every golden output by name, with ``tmp`` (the scratch directory the
    inputs and reports are written to) replaced by ``<tmp>``."""
    write_two_tier_csv(tmp / TWO_TIER_CSV)

    def normalised(text: str) -> bytes:
        return text.replace(str(tmp), "<tmp>").encode("utf-8")

    outputs = {}
    for name, (dist, eps, beta, gamma, trials) in CONFIGS.items():
        if dist == TWO_TIER_CSV:
            dist = str(tmp / TWO_TIER_CSV)
        outputs[f"{name}.exact"] = normalised(
            cli_stdout(["exact", "--dist", dist, "--eps", repr(eps)])
        )
        mode = ["--mode", "unicriterion"] if gamma is None else [
            "--mode", "bicriteria", "--gamma", repr(gamma),
        ]  # fmt: skip
        for seed in SEEDS:
            for fmt in ("csv", "json"):
                report = tmp / f"{name}-{seed}.{fmt}"
                stdout = cli_stdout([
                    "run", "--dist", dist, "--eps", repr(eps), "--beta", repr(beta),
                    *mode, "--trials", str(trials), "--seed", str(seed),
                    "--out", str(report), "--format", fmt,
                ])  # fmt: skip
                outputs[f"{name}-seed{seed}.{fmt}.stdout"] = normalised(stdout)
                if fmt == "csv":
                    outputs[f"{name}-seed{seed}.csv"] = report.read_bytes()
                    continue
                data = json.loads(report.read_bytes())
                del data["config"]["out_path"]
                for trial in data["trials"]:
                    del trial["wall_time_ns"]
                text = json.dumps(data, separators=(",", ":"), allow_nan=False)
                outputs[f"{name}-seed{seed}.json"] = normalised(text)
    return outputs


def golden_digests(tmp: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(golden_outputs(tmp).items())
    }


def test_outputs_match_golden_digests(tmp_path):
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = golden_digests(tmp_path)
    want = stored["digests"]
    changed = sorted(name for name in want | got if want.get(name) != got.get(name))
    assert not changed, (
        f"{len(changed)} golden outputs differ: {changed}.  The digests were "
        f"made with numpy {stored['numpy']}; this run uses numpy {np.__version__}.  "
        "If the change is intended, rewrite them with "
        "python tests/golden/make_golden.py and say which changed and why."
    )
