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


def _assigned(tree, name):
    """The literal value of a module-level ``name = <literal>``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level literal {name}")


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
    used = _loaded(tree)
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _definitions(tree):
    """(name, line) of every function, class or variable defined at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            yield from ((target.id, node.lineno) for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.lineno


def _private_definitions(tree):
    """(name, line) of every private function, class or variable defined at module level."""
    for name, line in _definitions(tree):
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
    # (not the one that defines it, not __init__), be one of the bound
    # families that cli looks up in ``bounds`` by the names in its THEOREMS
    # table, or be named as ``<module>.<function>`` in the benchmark, whose
    # harness binds some of them inside code strings that it runs in a fresh
    # interpreter, so that is a text search; classes, exceptions and
    # constants are exempt.  Each public name's home is the module that
    # __init__'s table _HOMES lists for it.
    trees = {path.stem: _tree(path) for path in MODULES}
    home = _assigned(trees["__init__"], "_HOMES")
    misplaced = sorted(f"{stem}.{name}" for name, stem in home.items() if name not in dict(_definitions(trees[stem])))
    assert not misplaced, f"_HOMES names a module that does not define the name: {', '.join(misplaced)}"
    functions = {
        name
        for name in home
        if any(isinstance(node, ast.FunctionDef) and node.name == name for node in trees[home[name]].body)
    }
    by_name = {("bounds", name) for name in _assigned(trees["cli"], "THEOREMS").values()}
    benchmark = "\n".join(path.read_text(encoding="utf-8") for path in PERFBENCH)

    def called(name):
        if any(name in set(_taken(tree, home[name])) for stem, tree in trees.items() if stem != "__init__"):
            return True
        if (home[name], name) in by_name:
            return True
        return re.search(rf"\b{home[name]}\.{name}\b", benchmark) is not None

    assert functions, "no public function found"
    uncalled = sorted(f"{home[name]}.{name}" for name in functions if not called(name))
    assert not uncalled, f"public functions only the tests call: {', '.join(uncalled)}"


def _outside_functions(node):
    """Every node under ``node`` that runs when the module is imported: all but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_mpmath_at_module_level(path):
    # mpmath loads when a PrecisionContext is built, so that a command whose
    # values are all balls never loads it: an import inside a function is
    # allowed, one that runs on import (under an if, a try or a class too) is not
    found = [
        node.lineno
        for node in _outside_functions(_tree(path))
        if (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "mpmath" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "mpmath")
    ]
    assert not found, f"{path.name} imports mpmath at module level (lines {found})"


def test_ball_decisions_read_no_mpmath_reals():
    # the integer ball layer, the ball forms of the coefficients, sums,
    # bounds, the generating function and the Darboux approximant, the
    # envelope amplitudes, every sweep but the oracle's (which has no reals),
    # the threshold nu and the balls it decides on, and the functions that
    # round the printed envelopes, remainders, sums, bound ends and T3's C
    # from their balls work on balls alone: pi and ln 2 come only from the
    # series kernel _odd_series, roots, exp and log from integers, so no function among them
    # reads mp.pi, mp.exp, mp.sqrt or mp.cbrt (or a bare or other attribute
    # of those names).  nu's double-precision first guess, _nu_guess, reads
    # math.pi and decides nothing: the balls decide every n it proposes
    banned = {"pi", "exp", "sqrt", "cbrt"}
    sweeps = ("_lemma1", "_lemma2", "_lemma3_chain", "_lemma3", "_thm1", "_thm2", "_thm3", "_inside", "_gf", "_asymptotics")
    printed = {
        "expansion": ("remainder_exact", "r_hat", "full_sum", "exp_error_term"),
        "bounds": ("thm1_bounds", "thm2_bounds", "thm3_bounds", "banerjee_bounds", "_report", "nu", "_constant"),
        "coefficients": ("_amplitude", "_ratio_within_cap", "_within_envelope", "_round_envelope", "coeff_bound", "coeff_asymptotic"),
    }

    def checked(stem, name):
        if name.startswith("_ball") or name in ("_icbrt", "_held", "_odd_series"):
            return stem in ("precision", "coefficients", "expansion", "bounds", "series")
        return name in (sweeps if stem == "verify" else printed.get(stem, ()))

    functions = [
        node
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and checked(path.stem, node.name)
    ]
    names = {function.name for function in functions}
    assert {*sweeps, *(name for group in printed.values() for name in group), "_ball_exp", "_ball_pi", "_ball_sqrt", "_ball_decide", "_ball_round"} <= names, names
    assert {"_ball_c", "_ball_amplitude", "_ball_amplitude_root", "_ball_envelope", "_ball_per_n", "_ball_pass", "_ball_sum", "_ball_term", "_ball_thm3", "_ball_comparison", "_ball_remainder", "_ball_theta", "_ball_prefactor"} <= names
    assert {"_ball_gf", "_ball_g", "_ball_darboux", "_ball_asymptotic"} <= names
    assert {"nu", "_constant", "_ball_nu_exists", "_ball_nu_signs", "_ball_ln", "_ball_w_argument", "_ball_nstr", "_ball_log", "_icbrt", "_odd_series"} <= names
    reads = [
        f"{function.name}: {getattr(node, 'attr', getattr(node, 'id', ''))} (line {node.lineno})"
        for function in functions
        for node in ast.walk(function)
        if (isinstance(node, ast.Attribute) and node.attr in banned) or (isinstance(node, ast.Name) and node.id in banned)
    ]
    assert not reads, f"ball decisions read an mpmath real: {', '.join(reads)}"


def _annotations(tree):
    """The ids of every node inside an annotation: of an argument, a return or an annotated assignment."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(inner) for root in roots for inner in ast.walk(root)}


def test_only_precision_makes_a_returned_real():
    # a ball becomes a real in one place, precision._ball_round: no other
    # module reads _rounded_float or calls a context's value; and the sweeps
    # and nu, which return verdicts and integers, build no context, so verify
    # and bounds name PrecisionContext only to annotate an argument
    reads = [
        f"{path.name}: line {node.lineno}"
        for path in MODULES
        if path.stem != "precision"
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Name) and node.id == "_rounded_float")
        or (isinstance(node, ast.alias) and node.name == "_rounded_float")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "value")
    ]
    assert not reads, f"a real is made outside precision: {', '.join(reads)}"
    for stem in ("verify", "bounds"):
        tree = _tree(PACKAGE / f"{stem}.py")
        annotated = _annotations(tree)
        named = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "PrecisionContext" and id(node) not in annotated
        ]
        assert not named, f"{stem} names PrecisionContext outside annotations (lines {named})"


def test_only_the_source_builder_reads_the_coefficient_source():
    # every reader asks coefficients._coefficients for the terms and digits it
    # needs, and nothing else reads the process-wide coefficients._source: so
    # no verdict depends on what an earlier call happened to build
    reads = []
    for path in MODULES:
        tree = _tree(path)
        builder = next((node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_coefficients"), None)
        allowed = {id(node) for node in ast.walk(builder)} if path.stem == "coefficients" and builder else set()
        for node in ast.walk(tree):
            bare = path.stem == "coefficients" and isinstance(node, ast.Name) and node.id == "_source" and not isinstance(node.ctx, ast.Store)
            named = (isinstance(node, ast.Attribute) and node.attr == "_source") or (isinstance(node, ast.alias) and node.name == "_source")
            if (bare or named) and id(node) not in allowed:
                reads.append(f"{path.name}: line {node.lineno}")
    assert not reads, f"the coefficient source is read outside _coefficients: {', '.join(reads)}"
