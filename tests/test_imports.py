"""Every name a kolsens module imports is used in that module.

No linter ships with the test environment, so this stdlib `ast` check stands
in for an unused-import rule. `__init__` is exempt: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import kolsens

MODULES = sorted(p for p in Path(kolsens.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n")
    assert _unused_imports(tree) == [(2, "pi")]
