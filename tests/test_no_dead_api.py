"""Every name the package and the benchmark define is read somewhere.

The package's reachable surface is what `src/conifoldrh` and `bench/` load.
A module-level function, class or constant that no `Name`, `Attribute` or
import alias in those trees loads outside its own definition is dead API,
and this test names it; so is a non-dunder method that no `Attribute` or
import alias loads there (a bare `Name` such as a parameter `x` does not
read a method `x`).  Names are matched as spelled, so an attribute `.x`
anywhere keeps every method `x` alive: the check finds names nothing reads
at all, not every unused binding.  Test modules under `bench/` are read for
loads only (pytest calls their functions by collection).

A test module, under `tests/` or `bench/`, loads every name it imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources() -> list[Path]:
    return sorted([*(ROOT / "src" / "conifoldrh").glob("*.py"),
                   *(ROOT / "bench").glob("*.py")])


def _definitions(tree: ast.Module):
    """(name, first line, last line, is a method) of each module-level
    function, class and assigned constant (each name of a tuple target
    included), and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno, True
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for name in (n for target in targets for n in _target_names(target)):
            if not name.startswith("__"):
                yield name, node.lineno, node.end_lineno, False


def _target_names(target: ast.expr):
    """Each name an assignment target binds, inside tuple, list and starred
    targets too (`a, (b, *c) = ...` binds a, b and c)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _loads(tree: ast.Module):
    """(name, line, is a bare `Name`) of every name the module loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, False
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno, False


def unread_names() -> list[str]:
    defs, loads = [], {}
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(ROOT).as_posix()
        if not path.name.startswith("test_"):
            defs += [(rel, *d) for d in _definitions(tree)]
        for name, line, bare in _loads(tree):
            loads.setdefault(name, []).append((rel, line, bare))
    return [f"{rel}:{first} {name}" for rel, name, first, last, method in defs
            if not any((where != rel or not first <= line <= last)
                       and not (method and bare)
                       for where, line, bare in loads.get(name, ()))]


def unused_test_imports() -> list[str]:
    """`path:line name` of each name a test module imports and never loads
    as a bare `Name`; `from __future__` imports are exempt."""
    unused = []
    for path in sorted([*(ROOT / "tests").glob("*.py"),
                        *(ROOT / "bench").glob("test_*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{rel}:{node.lineno} {bound}" for alias in node.names
                           if (bound := alias.asname or alias.name.split(".")[0])
                           not in loaded]
    return unused


def test_every_test_import_is_read():
    unused = unused_test_imports()
    assert not unused, "imported but never read: " + ", ".join(unused)


def test_every_defined_name_is_read():
    unread = unread_names()
    assert not unread, "defined but never read: " + ", ".join(unread)


def test_tuple_targets_are_definitions():
    """A constant bound inside a tuple, list or starred target is checked
    like a single-name one."""
    tree = ast.parse("A, (B, *C), [D] = x\n__all__ = []\nE: int = 1\n")
    assert [d[0] for d in _definitions(tree)] == ["A", "B", "C", "D", "E"]
