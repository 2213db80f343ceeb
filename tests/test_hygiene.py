"""Source hygiene: no unused import, no orphaned private name, no public function only tests call.

Read with the standard library's ``ast`` only, so the check runs wherever the
tests do.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "partition_asymptotics"
MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def _imports(tree):
    """(bound name, line) of every import, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _loaded(tree):
    """Every bare name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded(tree) | _exported(tree)
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private_definitions(tree):
    """(name, line) of every private function, class or variable defined at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, ast.Assign):
            targets = [(target.id, node.lineno) for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [(node.target.id, node.lineno)]
        else:
            continue
        for name, line in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, line


def test_every_private_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    orphans = [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    ]
    assert not orphans, f"private names nothing in src/ references: {', '.join(orphans)}"


def _taken(tree, home):
    """The names a package module takes from its sibling ``home``: ``from .home import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == home:
            yield from (alias.name for alias in node.names)


def test_every_public_function_has_a_caller_outside_the_tests():
    # a function in __all__ must be imported by another module of the package
    # (not the one that defines it, not __init__), or be named as
    # ``<module>.<function>`` in the benchmark, whose harness binds some of
    # them inside code strings that it runs in a fresh interpreter, so that
    # is a text search; classes, exceptions and constants are exempt
    trees = {path.stem: _tree(path) for path in MODULES}
    home = {
        alias.name: node.module
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    functions = {
        name
        for name in _exported(trees["__init__"])
        if any(isinstance(node, ast.FunctionDef) and node.name == name for node in trees[home[name]].body)
    }
    benchmark = "\n".join(path.read_text(encoding="utf-8") for path in PERFBENCH)

    def called(name):
        if any(name in set(_taken(tree, home[name])) for stem, tree in trees.items() if stem != "__init__"):
            return True
        return re.search(rf"\b{home[name]}\.{name}\b", benchmark) is not None

    assert functions, "no public function found"
    uncalled = sorted(f"{home[name]}.{name}" for name in functions if not called(name))
    assert not uncalled, f"public functions only the tests call: {', '.join(uncalled)}"
