"""The package runs on the standard library alone (dependencies = [])."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "trimdecomp"


def absolute_imports(path):
    """The module named by each absolute import statement of one file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    imported = {(p.name, m) for p in files for m in absolute_imports(p)}
    assert ("ilp.py", "fractions") in imported
    outside = sorted(
        (name, m) for name, m in imported if m.split(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []
