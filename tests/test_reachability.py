"""Every name ``src/repro`` defines is reached from outside ``tests/``.

A function, class, constant or method that only its own tests use backs
none of the paper's results.  This check parses every module of the
package and lists each top-level function, class and constant and each
non-dunder method.  It then collects every name, attribute, imported
name and identifier string (a dotted one counts each part, as in
``"CacheHierarchy.probe_batch"``) that the ``.py`` files under
``src/``, ``benchmarks/``, ``examples/``, ``perfbench/`` and
``scripts/`` mention.  A definition's own body, a package
``__init__``'s re-exports and any ``__all__`` list do not count.

The check is by name, so two definitions that share a name are reached
together, and a name built at run time would read as unreached: such a
name goes in :data:`ALLOWED` with its reason.

A second check, on the same parse, lists every name a module of the
package imports and never mentions again.  A package ``__init__``
re-exports what it imports, and a name in ``__all__`` is exported, so
neither counts as unused.

A third check lists every ``self.<name>`` that a class of the package
stores and that no ``.py`` file under those folders or ``tests/`` loads:
an attribute counts only where it is read, and identifier strings count
as above (``getattr(obj, "name")``).  A counter that a test reads is how
that test observes live behaviour, so loads in tests count.  Dataclass
fields are left out, because tests compare whole records with ``==``
and :func:`dataclasses.astuple`.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USER_DIRS = ("src", "benchmarks", "examples", "perfbench", "scripts")

#: Unreached names that stay, each with its reason.
ALLOWED = {
    "profile_trace": "the Fig. 11 fidelity work in ROADMAP.md either "
                     "reports row-hit rates with it or deletes it",
    "hash_kmer": "tests/test_genomics_seeding.py checks minimizer "
                 "positions against it",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def definitions(tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """(qualified name, name, node) of each top-level definition and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    yield f"{node.name}.{item.name}", item.name, item
        else:
            for name in _assigned_names(node):
                if not _is_dunder(name):
                    yield name, name, node


def _identifier_parts(node: ast.AST) -> List[str]:
    """The parts of a string constant that reads as a dotted identifier
    (``"CacheHierarchy.probe_batch"``), else nothing."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(part.isidentifier() for part in parts):
            return parts
    return []


def mentions(node: ast.AST, reexports: bool = True) -> Counter:
    """Every name ``node`` mentions.  With ``reexports=False`` (a package
    ``__init__``) its relative and ``repro`` imports are left out."""
    found: Counter = Counter()
    stack = [node]
    while stack:
        current = stack.pop()
        if "__all__" in _assigned_names(current):
            continue
        if isinstance(current, ast.Name):
            found[current.id] += 1
        elif isinstance(current, ast.Attribute):
            found[current.attr] += 1
        elif isinstance(current, (ast.Import, ast.ImportFrom)):
            module = getattr(current, "module", None) or ""
            internal = (isinstance(current, ast.ImportFrom)
                        and (current.level or module.startswith("repro")))
            if reexports or not internal:
                for alias in current.names:
                    found.update(alias.name.split("."))
        else:
            found.update(_identifier_parts(current))
        stack.extend(ast.iter_child_nodes(current))
    return found


def loads(node: ast.AST) -> Counter:
    """The load-only counterpart of :func:`mentions` for attributes:
    every attribute ``node`` reads, and every identifier string's parts."""
    found: Counter = Counter()
    for current in ast.walk(node):
        if (isinstance(current, ast.Attribute)
                and isinstance(current.ctx, ast.Load)):
            found[current.attr] += 1
        else:
            found.update(_identifier_parts(current))
    return found


def parsed(folder: Path) -> Iterator[Tuple[Path, ast.Module]]:
    """(path, tree) of every ``.py`` under ``folder``, in path order."""
    for path in sorted(folder.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def unreached() -> Dict[str, str]:
    """Qualified name -> defining file of each unreached definition."""
    used: Counter = Counter()
    for folder in USER_DIRS:
        for path, tree in parsed(ROOT / folder):
            used += mentions(tree, path.name != "__init__.py")
    dead = {}
    for path, tree in parsed(PACKAGE):
        reexports = path.name != "__init__.py"
        for qualified, name, node in definitions(tree):
            if used[name] - mentions(node, reexports)[name] <= 0:
                dead[qualified] = str(path.relative_to(ROOT))
    return dead


def test_every_name_is_reached_outside_tests():
    dead = unreached()
    missing = sorted(f"{name} ({path})" for name, path in dead.items()
                     if name.rsplit(".", 1)[-1] not in ALLOWED)
    assert not missing, (
        "defined in src/repro but reached only from tests (use it outside "
        "tests/, delete it, or allow it with a reason): "
        + ", ".join(missing))
    stale = set(ALLOWED) - {name.rsplit(".", 1)[-1] for name in dead}
    assert not stale, f"allowed but reached, drop from ALLOWED: {stale}"


def _exported(tree: ast.Module) -> List[str]:
    """The strings of the module's ``__all__`` list, if it has one."""
    for node in tree.body:
        if "__all__" in _assigned_names(node):
            return [item.value for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant)]
    return []


def _quoted_annotations(tree: ast.Module) -> Counter:
    """Every name mentioned in string annotations such as
    ``-> "Tuple[A, B]"``."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            for item in ast.walk(annotation) if annotation else ():
                if (isinstance(item, ast.Constant)
                        and isinstance(item.value, str)):
                    found += mentions(ast.parse(item.value, mode="eval"))
    return found


def unused_imports() -> List[str]:
    """``path: name`` of each name a module imports and never mentions
    again, package ``__init__`` modules and ``__all__`` names aside."""
    unused = []
    for path, tree in parsed(PACKAGE):
        if path.name == "__init__.py":
            continue
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        used = mentions(tree) + _quoted_annotations(tree)
        for node in imports:
            used -= mentions(node)
        exported = _exported(tree)
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and not used[name] and name not in exported:
                    unused.append(f"{path.relative_to(ROOT)}: {name}")
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "imported but never used: " + ", ".join(unused)


def _dataclass_fields(cls: ast.ClassDef) -> Set[str]:
    """The field names of ``cls`` if a ``dataclass`` decorator makes it a
    dataclass, else none."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return {name for node in cls.body for name in _assigned_names(node)}
    return set()


def unread_attributes() -> List[str]:
    """``Class.name (path)`` of each ``self.<name>`` a class of the
    package stores and no file loads, dataclass fields aside."""
    read: Counter = Counter()
    for folder in USER_DIRS + ("tests",):
        for _path, tree in parsed(ROOT / folder):
            read += loads(tree)
    unread = set()
    for path, tree in parsed(PACKAGE):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = _dataclass_fields(cls)
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr not in fields
                        and not read[node.attr]):
                    unread.add(f"{cls.name}.{node.attr} "
                               f"({path.relative_to(ROOT)})")
    return sorted(unread)


def test_every_attribute_is_read():
    unread = unread_attributes()
    assert not unread, "stored but never read: " + ", ".join(unread)
