"""The package's public surface: ``__all__`` and the README's list of it."""

import re
from pathlib import Path

import ess_toolkit

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_public_names() -> set[str]:
    """Top-level names in backquotes in the bullet list of the README's
    "Public API" section (dotted names such as ``DualOracle.eval`` are
    attributes, not exports)."""
    section = README.read_text(encoding="utf-8").split("\n## Public API\n", 1)[1]
    bullets = section.split("\n- ", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", bullets))


def test_every_exported_name_resolves():
    for name in ess_toolkit.__all__:
        assert hasattr(ess_toolkit, name), name
    assert len(set(ess_toolkit.__all__)) == len(ess_toolkit.__all__)


def test_readme_lists_exactly_the_exports():
    assert readme_public_names() == set(ess_toolkit.__all__)
