"""The package's public surface: ``__all__``, the README's list of it, and
the README's map from the paper's steps to the code."""

import importlib
import pkgutil
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


def readme_map_names() -> list[str]:
    """Every backquoted span in the table of the README's "How the estimator
    works" section."""
    section = README.read_text(encoding="utf-8").split("\n## How the estimator works\n", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
    return re.findall(r"`([^`]*)`", "\n".join(rows))


def resolve(name: str):
    """``name`` or ``Class.member``, looked up in ``ess_toolkit`` and then in
    each of its submodules; None when nothing holds it."""
    head, _, member = name.partition(".")
    modules = [ess_toolkit] + [
        importlib.import_module(f"ess_toolkit.{info.name}")
        for info in pkgutil.iter_modules(ess_toolkit.__path__)
    ]
    for module in modules:
        if hasattr(module, head):
            owner = getattr(module, head)
            return getattr(owner, member, None) if member else owner
    return None


def test_readme_map_names_resolve():
    names = readme_map_names()
    assert len(names) >= 20, names  # the table was found
    bad = [n for n in names if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?", n)]
    assert bad == [], "the map's table backquotes only code names"
    # a name that no longer resolves was renamed or deleted: mend its row
    assert [n for n in names if resolve(n) is None] == []
