"""The runtime imports nothing outside the standard library, and
nothing it does not use."""

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


def _unused_imports(path):
    """Module-level imported names that the module never reads; names
    listed in `__all__` count as read."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{lineno}: {name}"
            for name, lineno in imported.items() if name not in used]


def test_src_imports_only_what_it_uses():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    assert [line for path in paths for line in _unused_imports(path)] == []
