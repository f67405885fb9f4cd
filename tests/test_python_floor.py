"""Every Python file parses at the oldest Python that pyproject.toml admits.

The suite runs on one interpreter, so nothing else would see a newer
construct slip in.  ``tomllib`` is 3.11+, so the floor is read with a
regular expression.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


def test_floor_grammar_rejects_a_newer_construct():
    # an exception group handler is 3.11 syntax
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_every_file_parses_at_the_floor():
    floor = python_floor()
    files = sorted(p for folder in ("src", "tests", "bench") for p in (ROOT / folder).rglob("*.py"))
    assert ROOT / "src" / "ess_toolkit" / "estimator.py" in files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
