"""No module of the package imports a name it never uses, and no private
module-level name goes unreferenced. The package re-exports through
``__init__.py``, which the import check leaves out."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "eulerian"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import comb, factorial\nprint(factorial(3))\n")
    assert _unused_imports(tree) == ["comb (line 2)", "os (line 1)"]


def _own_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _unreferenced_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_function``, ``_Class`` and ``_CONSTANT`` names that no
    statement of the package references, apart from their own definition."""
    defined, referenced = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = _own_names(stmt)
            private = (name for name in sorted(own) if name.startswith("_") and not name.startswith("__"))
            defined.extend(f"{module}:{name}" for name in private)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    referenced.add(name)
    return [entry for entry in defined if entry.split(":")[1] not in referenced]


def test_no_unreferenced_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_names(trees) == []


def test_an_unreferenced_private_name_is_reported():
    source = (
        "_ONE = 1\n"
        "def _used(x):\n    return _used(x - 1) if x else _ONE\n"
        "def _dead(c):\n    return _dead(c)\n"
        "class _Gone:\n    pass\n"
        "print(_used(2))\n"
    )
    assert _unreferenced_private_names({"m.py": ast.parse(source)}) == ["m.py:_dead", "m.py:_Gone"]


def _single_argument_permutations(tree: ast.Module) -> list[int]:
    """Lines that call ``itertools.permutations`` with one argument, that is,
    that list all of S_n by hand instead of through ``enumerate_class``.
    Calls with a length argument list arrangements and are left alone."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "permutations"
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            named = func.attr == "permutations" and getattr(func.value, "id", "") == "itertools"
        else:
            named = getattr(func, "id", "") in aliases
        if named and len(node.args) + len(node.keywords) == 1:
            lines.append(node.lineno)
    return sorted(lines)


def test_every_class_sweep_goes_through_enumerate_class():
    found = {
        path.name: _single_argument_permutations(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "permutations.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_a_hand_rolled_sweep_is_reported():
    source = (
        "import itertools\n"
        "from itertools import permutations as perm\n"
        "a = itertools.permutations(range(1, 4))\n"
        "b = itertools.permutations(range(1, 4), 2)\n"
        "c = perm([1, 2])\n"
        "d = itertools.permutations(range(1, 4), r=2)\n"
    )
    assert _single_argument_permutations(ast.parse(source)) == [3, 5]
