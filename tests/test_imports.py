"""Import hygiene: every name a rootfact module imports from a sibling
module is used in that module, every module-level private function or
class is used somewhere in the package besides its own definition, and
every public one, and every public method or property of a class (read
as an attribute), somewhere in the sources, the benchmark or the
acceptance battery.
The matrix and coordinate modules also rely on the number protocol
alone: they test no entry for its number type.

The package ``__init__`` imports names only to export them, so it is
left out of the first and the last of these checks.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rootfact"


def unused_relative_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_relative_imports_are_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := unused_relative_imports(p))}
    assert unused == {}


def names_used(node) -> collections.Counter:
    """Occurrences of each name read, as a bare name, an attribute or an import."""
    return collections.Counter(
        name
        for sub in ast.walk(node)
        for name in (
            [sub.id] if isinstance(sub, ast.Name)
            else [sub.attr] if isinstance(sub, ast.Attribute)
            else [a.name for a in sub.names] if isinstance(sub, ast.ImportFrom)
            else []
        )
    )


def attributes_read(node) -> collections.Counter:
    """Occurrences of each name read as an attribute, as in ``x.name``."""
    return collections.Counter(
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def test_private_helpers_are_used():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    used = sum((names_used(tree) for tree in trees), collections.Counter())
    helpers = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert helpers
    # a use inside the helper's own body, a recursive call, does not count
    dead = [h.name for h in helpers if used[h.name] <= names_used(h)[h.name]]
    assert dead == []


def callers(count=names_used) -> tuple[dict, collections.Counter]:
    """The trees of the files whose reads count as uses of a public name,
    and the names they read, by ``count``: only the sources, the benchmark
    and the acceptance battery, since a name that only the other tests
    call belongs in the tests, and a re-export from __init__ is no use
    either."""
    files = [p for top in ("src", "perfbench") for p in sorted((ROOT / top).rglob("*.py"))
             if p != SRC / "__init__.py"] + [ROOT / "tests" / "test_acceptance.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    return trees, sum((count(tree) for tree in trees.values()), collections.Counter())


def test_public_names_are_used():
    trees, used = callers()
    public = [
        node
        for p, tree in trees.items() if p.parent == SRC
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert public
    orphans = [node.name for node in public if used[node.name] <= names_used(node)[node.name]]
    assert orphans == []


def test_public_members_are_used():
    # the public methods, classmethods and properties of every public
    # class, counted only where an attribute of that name is read, so a
    # bare name such as a parameter is no use: a use inside the member's
    # own body does not count, and a private class overrides what its base
    # calls
    trees, used = callers(attributes_read)
    members = [
        (cls.name, node)
        for p, tree in trees.items() if p.parent == SRC
        for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert members
    orphans = [f"{owner}.{node.name}" for owner, node in members
               if used[node.name] <= attributes_read(node)[node.name]]
    assert orphans == []


NUMBER_TYPES = {"Number", "Scalar", "Jet", "RadicalScalar"}


def isinstance_number_types(path: pathlib.Path) -> list[str]:
    """The number types named in the isinstance calls of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        for name in names_used(node.args[1])
        if name in NUMBER_TYPES
    )


def test_core_modules_check_no_number_type():
    checked = {name: isinstance_number_types(SRC / name)
               for name in ("linalg.py", "matrices.py", "factorization.py")}
    assert checked == {name: [] for name in checked}
