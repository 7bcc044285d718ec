"""Every name a kolsens module imports is used in that module, every private
top-level name of the package is read somewhere in it, scalar arguments are
checked only through `errors.count` and `errors.real`, arrays and names
only through `errors.array` and `errors.choice`, and only `sampling` draws
or mixes a sample row.

No linter ships with the test environment, so these stdlib `ast` checks stand
in for unused-import, dead-code and no-hand-written-check rules. `__init__` is
exempt from the first: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import kolsens

PACKAGE = sorted(Path(kolsens.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _unread_private_names(trees: dict) -> list:
    """(module, line, name) of each private top-level def, class or constant
    of `trees` (module name -> ast.Module) that no module reads."""
    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(mod, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_every_private_name_is_read():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    unread = _unread_private_names(trees)
    assert not unread, "private names nothing reads: " + ", ".join(
        f"{mod}.{name} (line {line})" for mod, line, name in unread)


def test_the_check_sees_an_unread_private_name():
    trees = {"a": ast.parse("_A = 1\n_B: int = 2\ndef _f():\n    return _A\n"
                            "class _C:\n    pass\n"),
             "b": ast.parse("import a\nfrom a import _C\nx = _C(), a._B\n_y = 3\n")}
    assert _unread_private_names(trees) == [("a", 3, "_f"), ("b", 4, "_y")]


def _hand_written_scalar_checks(tree: ast.Module) -> list:
    """(line, code) of each `isinstance(..., bool)` call and `int(x) == x` or
    `int(x) != x` comparison: the hand-written checks `count` and `real` replace."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool"
                        for n in ast.walk(node.args[1]))):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq))
                                                   for op in node.ops):
            sides = [node.left, *node.comparators]
            casts = {ast.dump(s.args[0]) for s in sides
                     if isinstance(s, ast.Call) and isinstance(s.func, ast.Name)
                     and s.func.id == "int" and len(s.args) == 1}
            if casts & {ast.dump(s) for s in sides}:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.stem)
def test_scalar_arguments_are_checked_through_errors(path):
    found = _hand_written_scalar_checks(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: use errors.count/real in place of " + ", ".join(
        f"{code} (line {line})" for line, code in found)


def test_the_check_sees_a_hand_written_scalar_check():
    tree = ast.parse("isinstance(v, bool)\nisinstance(v, (bool, int))\nint(n) != n\n"
                     "m == int(m)\nisinstance(v, float)\nint(a) != b\nint(c) < c\n")
    assert _hand_written_scalar_checks(tree) == [
        (1, "isinstance(v, bool)"), (2, "isinstance(v, (bool, int))"),
        (3, "int(n) != n"), (4, "m == int(m)")]


def _raises_validation_error(body: list) -> bool:
    """Whether `body` raises ValidationError, called or bare, at any depth."""
    raised = [getattr(n.exc, "func", n.exc) for stmt in body for n in ast.walk(stmt)
              if isinstance(n, ast.Raise) and n.exc is not None]
    return any(isinstance(e, ast.Name) and e.id == "ValidationError" for e in raised)


def _hand_written_array_and_name_checks(tree: ast.Module) -> list:
    """(line, test) of each `if` whose body raises ValidationError and whose test
    calls `isfinite` or is `v not in (two or more constants)`: the checks
    `array` and `choice` replace."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and _raises_validation_error(node.body)):
            continue
        for part in ast.walk(node.test):
            finite = (isinstance(part, ast.Call) and "isfinite" in
                      (getattr(part.func, "id", None), getattr(part.func, "attr", None)))
            among = (isinstance(part, ast.Compare)
                     and any(isinstance(op, ast.NotIn) for op in part.ops)
                     and any(isinstance(c, (ast.Tuple, ast.List, ast.Set)) and len(c.elts) > 1
                             and all(isinstance(e, ast.Constant) for e in c.elts)
                             for c in part.comparators))
            if finite or among:
                found.append((node.lineno, ast.unparse(node.test)))
                break
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.stem)
def test_array_and_name_arguments_are_checked_through_errors(path):
    found = _hand_written_array_and_name_checks(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: use errors.array/choice in place of " + ", ".join(
        f"{code} (line {line})" for line, code in found)


def test_the_check_sees_a_hand_written_array_or_name_check():
    tree = ast.parse(
        "if not np.isfinite(x).all():\n    raise ValidationError('x')\n"
        "if k not in ('a', 'b'):\n    raise ValidationError('k')\n"
        "if not math.isfinite(v):\n    raise NumericError('v')\n"
        "if k not in ('a',):\n    raise ValidationError('k')\n"
        "if k not in options:\n    raise ValidationError('k')\n"
        "if n > 0 and isfinite(v):\n    if v:\n        raise ValidationError\n"
        "if k in ('a', 'b'):\n    raise ValidationError('k')\n")
    assert _hand_written_array_and_name_checks(tree) == [
        (1, "not np.isfinite(x).all()"), (3, "k not in ('a', 'b')"),
        (11, "n > 0 and isfinite(v)")]


_DRAWS = ("_read", "_mix", "Philox")


def _draw_references(tree: ast.Module) -> list:
    """(line, name) of each name, attribute or import of `_read`, `_mix` or
    `Philox`: the sample grid's draw and mix, which only `sampling` may use."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        found += [(node.lineno, name) for name in names if name in _DRAWS]
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sampling.py"],
                         ids=lambda p: p.stem)
def test_only_the_sample_grid_draws_or_mixes(path):
    found = _draw_references(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: read samples through SampleGrid, not " + ", ".join(
        f"{name} (line {line})" for line, name in found)


def test_the_check_sees_a_draw_outside_the_sample_grid():
    tree = ast.parse("from .sampling import _read, TILE\nimport numpy as np\n"
                     "g = np.random.Philox(3)\nsampling._mix(w, v)\n_read_all = 1\n")
    assert _draw_references(tree) == [(1, "_read"), (3, "Philox"), (4, "_mix")]
