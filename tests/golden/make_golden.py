"""Rewrite ``digests.json`` from the outputs of the checkout's ``src/``.

Run ``python tests/golden/make_golden.py`` only when a change alters
report bytes on purpose, and say in the change's notes which outputs
changed and why.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

from test_golden import DIGESTS, golden_digests  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    DIGESTS.write_text(
        json.dumps({"numpy": np.__version__, "digests": digests}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
