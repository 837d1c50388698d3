"""No module of the package imports a name it never uses, no private
module-level name goes unreferenced, and every public one is used by the
package or named by the README. ``__init__.py`` imports no submodule, and
a command imports only the modules it runs: a fresh interpreter pins what
the CLI loads at start-up."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eulerian"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
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


def _unreferenced_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level names, dunders aside, that no statement of the package
    references apart from their own definition."""
    defined, referenced = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = _own_names(stmt)
            defined.extend(f"{module}:{name}" for name in sorted(own) if not name.startswith("__"))
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


def _unreferenced_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Unreferenced ``_function``, ``_Class`` and ``_CONSTANT`` names."""
    return [entry for entry in _unreferenced_names(trees) if entry.split(":")[1].startswith("_")]


def _unused_public_names(trees: dict[str, ast.Module], readme: str) -> list[str]:
    """Unreferenced public names that the README does not name in code
    either: API that only the tests call."""
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", readme))))
    return [
        entry for entry in _unreferenced_names(trees)
        if not entry.split(":")[1].startswith("_") and entry.split(":")[1] not in named
    ]


def test_no_unreferenced_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_names(trees) == []


def test_an_unreferenced_private_name_is_reported():
    source = (
        "_ONE = 1\n"
        "def _used(x):\n    return _used(x - 1) if x else _ONE\n"
        "def _dead(c):\n    return _dead(c)\n"
        "class _Gone:\n    pass\n"
        "def documented():\n    return _used(2)\n"
        "def dead():\n    return dead()\n"
        "class Gone:\n    pass\n"
        "print(_used(2))\n"
    )
    trees = {"m.py": ast.parse(source)}
    assert _unreferenced_private_names(trees) == ["m.py:_dead", "m.py:_Gone"]
    # a public name also counts as used when the README names it in code
    readme = "Call `documented()`; a dead word outside code does not count."
    assert _unused_public_names(trees, readme) == ["m.py:dead", "m.py:Gone"]


# perfbench/layers.py:112 builds its maps with trusted_map; ROADMAP item 1
# deletes both together
TEST_ONLY_API = ["endofunctions.py:trusted_map"]


def test_no_public_name_only_the_tests_use():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _unused_public_names(trees, (ROOT / "README.md").read_text()) == TEST_ONLY_API


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


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


def test_the_cli_starts_on_only_what_its_command_runs():
    probe = "import sys; before = set(sys.modules); import eulerian.cli; print(*sorted(set(sys.modules) - before))"
    loaded = set(_fresh("-c", probe).stdout.split())
    assert "eulerian.cli" in loaded
    unwanted = {"dataclasses", "eulerian.series", "eulerian.words", "eulerian.endofunctions", "eulerian.registry"}
    assert loaded & unwanted == set()
    # -X importtime names every module the command imports, one per line on stderr
    run = _fresh("-X", "importtime", "-m", "eulerian.cli", "poly", "eulerian", "-n", "3")
    assert run.stdout == "1 4 1\n"
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}
    assert "eulerian.polynomials" in imported and "eulerian.series" not in imported
