"""Source hygiene: every name a module imports is used in that module,
every module-level definition is used in the package or exported, and
every method is called somewhere in the package.

An ``ast`` scan of ``src/equising/*.py``.  A name counts as used when it
is read anywhere in the module, appears in a quoted annotation, or is
listed in the module's ``__all__`` (re-exports).  ``__future__`` imports
are directives, not names, and are skipped.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "equising"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_scan_sees_every_module():
    assert {p.name for p in MODULES} >= {"algebra.py", "cli.py", "family.py"}


def _references(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names in quoted annotations."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    for annotation in _annotations(node):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out |= _names(ast.parse(sub.value, mode="eval"))
    return out


def test_every_top_level_definition_is_used_or_exported():
    """A module-level def or class is referenced somewhere in the package
    outside its own body, or listed in ``equising.__all__``."""
    import equising

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, referenced = [], set()
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            refs = _references(node)
            if isinstance(node, defs):
                defined.append((path.name, node.name))
                refs.discard(node.name)
            referenced |= refs
    unused = [f"{module}:{name}" for module, name in defined
              if name not in referenced and name not in equising.__all__]
    assert not unused, f"defined but never used nor exported: {unused}"


# methods no module calls, kept as oracles that the tests check the
# library against: name -> reason
ORACLE_METHODS: dict[str, str] = {}


def _reference_counts(node: ast.AST) -> Counter:
    """How often each name is read or taken as an attribute under ``node``."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def unreferenced_methods(paths) -> list[str]:
    """``Class.method`` for every non-dunder method or property of a class
    in ``paths`` whose name is referenced nowhere in them outside its own
    body."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    total = sum((_reference_counts(tree) for tree in trees), Counter())
    out = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__") and fn.name.endswith("__"))
                        and total[fn.name] == _reference_counts(fn)[fn.name]):
                    out.append(f"{cls.name}.{fn.name}")
    return out


def test_every_method_is_used_in_the_package():
    """A method or property is referenced by name somewhere in the package
    outside its own body, or is a listed test oracle."""
    unused = unreferenced_methods(MODULES)
    assert sorted(set(unused) - set(ORACLE_METHODS)) == []
    assert sorted(set(ORACLE_METHODS) - set(unused)) == [], \
        "an oracle gained a caller in the package: drop it from ORACLE_METHODS"
