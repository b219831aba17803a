"""Every module-level import in src/ and tests/ is read somewhere in its module.

No linter ships with the project, so this walks the syntax trees with the
standard library's ast.  Package __init__.py files are skipped: their
imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _module_imports(tree):
    """(name bound, line) for each import in the module body, through if/try."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse
            stack += getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                stack += handler.body
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in read
    ]


def test_no_unused_module_level_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = [
        hit for path in paths if path.name != "__init__.py" for hit in _unused_imports(path)
    ]
    assert unused == []
