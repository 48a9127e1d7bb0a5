"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weavesym"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_imports_only_the_standard_library():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    outside = [f"{path.name}:{lineno}: {name}"
               for path in paths
               for lineno, name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
