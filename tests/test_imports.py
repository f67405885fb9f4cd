"""The package's runtime imports: the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import ess_toolkit

PACKAGE = Path(ess_toolkit.__file__).resolve().parent
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "ess_toolkit"}


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of the modules a parsed file imports; relative
    imports are the package itself and are left out."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_scan_sees_absolute_imports_only():
    tree = ast.parse(
        "import scipy.stats\nfrom numpy import random\nfrom . import oracle\n"
        "def f():\n    import hypothesis\n"
    )
    assert imported_roots(tree) == {"scipy", "numpy", "hypothesis"}


def test_no_runtime_dependency_beyond_numpy():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "oracle.py" in files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        outside = imported_roots(tree) - ALLOWED
        assert not outside, (path.name, sorted(outside))
