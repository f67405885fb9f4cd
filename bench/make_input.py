"""Write the cli-file-1e6 input: a two_tier pmf with scattered 64-bit labels.

    python3 bench/make_input.py <out.csv> <seed> [n] [h]

Row i carries label splitmix64(i + seed), a bijection on 64-bit integers,
so labels are distinct without a uniqueness pass.  The h heavy rows (mass
1/2 shared equally) sit at positions drawn from the seed; the rest share
the other half.  Both tiers are all ties, which exercises
the tie branch of the canonical order.  Uses numpy only, not ess_toolkit,
so the file does not depend on the code under test.
"""

from __future__ import annotations

import sys

import numpy as np

HEAVY_MASS = 0.5


def splitmix64(x: np.ndarray) -> np.ndarray:
    x = x * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def write_input(path: str, seed: int, n: int, h: int) -> None:
    seed %= 1 << 64
    with np.errstate(over="ignore"):
        labels = splitmix64(np.arange(n, dtype=np.uint64) + np.uint64(seed))
    rng = np.random.Generator(np.random.SFC64(seed))
    heavy = np.zeros(n, dtype=bool)
    heavy[rng.choice(n, size=h, replace=False)] = True
    heavy_prob = format(HEAVY_MASS / h, ".17g")
    light_prob = format((1.0 - HEAVY_MASS) / (n - h), ".17g")
    rows = [
        f"{label},{heavy_prob if is_heavy else light_prob}"
        for label, is_heavy in zip(labels.tolist(), heavy.tolist())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,prob\n")
        fh.write("\n".join(rows))
        fh.write("\n")


if __name__ == "__main__":
    out, seed = sys.argv[1], int(sys.argv[2])
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 1_000_000
    h = int(sys.argv[4]) if len(sys.argv) > 4 else 1000
    write_input(out, seed, n, h)
