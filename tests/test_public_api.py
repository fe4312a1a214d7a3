"""The package's public API: what it exports, and that each part is used.

Every public function and method of the package has a use in it.  A public
module-level function (a name without a leading underscore) must be
referenced by name, as a bare name or an attribute, somewhere in the
package besides its own def.  A public method must be referenced as an
attribute: a bare name that a method shares is another binding, such as a
parameter.  API that no command, check or other library code uses is either
wired in or deleted: the seeded samplers of the identity suites live with
the tests (`tests/samplers.py`), and the package keeps only the one a paper
check draws from, `canonical.random_subalgebra_element`.  Two exceptions
remain, in `ALLOWED`.

The package resolves its exported names and its submodules on first use:
each name is its defining module's object, and the records those names
include are read-only.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polylie

PACKAGE = Path(polylie.__file__).resolve().parent

# module.qualname -> reason it stays without a use in the package
ALLOWED = {
    "derivation.Derivation.coeffs": "the inverse of Derivation(n, coeffs), through "
                                    "which the tests read values",
    "span.SpanBasis.contains": "the span's public membership query; the "
                               "benchmark's tracer wraps it",
}


def public_defs(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of the public module-level functions and the
    public methods of module-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def referenced_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names used as a bare name, and those used as an attribute; defs
    and imports do not count."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def unused_public_api(sources: dict[str, str]) -> list[str]:
    """module.qualname of each public def the sources never use: a function
    by a bare name or an attribute, a method by an attribute only."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    names, attrs = set(), set()
    for tree in trees.values():
        tree_names, tree_attrs = referenced_names(tree)
        names |= tree_names
        attrs |= tree_attrs
    return [f"{stem}.{qual}" for stem, tree in sorted(trees.items())
            for qual, name in public_defs(tree)
            if name not in attrs and ("." in qual or name not in names)]


def test_finder_sees_defs_and_uses():
    sources = {
        "a": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
             "def by_attr(): pass\n"
             "class K:\n    def meth(self): pass\n    def called(self): pass\n"
             "    def shadowed(self): pass\n",
        # `shadowed` is only a parameter here, no use of the method
        "b": "from .a import unused\nused()\na.by_attr()\nk.called()\n"
             "def _f(shadowed): return shadowed\n",
    }
    assert unused_public_api(sources) == ["a.unused", "a.K.meth", "a.K.shadowed"]


def test_every_public_def_is_used():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    # an allowed name that gains a use, or goes, leaves the list too
    assert sorted(unused_public_api(sources)) == sorted(ALLOWED)


SUBMODULES = ("canonical", "cli", "derivation", "grammar", "polyring", "reductions",
              "span", "verify")


def test_names_resolve_to_their_modules_objects(module_env):
    """In a fresh interpreter, so every name and submodule resolves on first use."""
    code = f"""
import inspect, sys, polylie
assert not [m for m in sys.modules if m.startswith("polylie.")]
for name in polylie.__all__:
    value = getattr(polylie, name)
    module = sys.modules["polylie." + polylie._MODULE_OF[name]]
    assert value is getattr(module, name), name
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__, name
for name in {SUBMODULES!r}:
    assert getattr(polylie, name) is sys.modules["polylie." + name], name
"""
    proc = subprocess.run([sys.executable, "-c", code], env=module_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_dir_and_star_import_cover_all():
    assert set(polylie.__all__) | set(SUBMODULES) <= set(dir(polylie))
    namespace: dict = {}
    exec("from polylie import *", namespace)
    assert set(polylie.__all__) <= set(namespace)
    for name in polylie.__all__:
        assert namespace[name] is getattr(polylie, name)


def test_unknown_name_is_an_attribute_error():
    # sampling too: the identity suites' samplers are test helpers, not a module
    for name in ("no_such_name", "sampling"):
        message = f"module 'polylie' has no attribute '{name}'"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            getattr(polylie, name)
        assert not hasattr(polylie, name)
        with pytest.raises(ImportError, match=f"cannot import name '{name}'"):
            exec(f"from polylie import {name}", {})


def records() -> list:
    """One instance of each record class of the package."""
    p = polylie
    n = 2
    d = p.parse_derivation("(x1^2) d2", n)
    d1 = p.Derivation.partial(1, 1)
    x1sq = p.parse_derivation("(x1^2) d1", 1)
    closure = p.lie_closure([d1, x1sq])
    witness = p.lnd_check(p.parse_derivation("(x1) d2 + d1", n), 5)
    refuted = p.lnd_check(p.Derivation.euler(n), 5)
    eigen = p.eigenvector_certificate(p.Derivation.euler(n), p.parse_derivation("(x1^2) d2", n))
    out = [p.membership(d), witness, witness.witness, refuted, eigen,
           p.derived_chain_witness(1), p.derived_chain_witness(2, term=4),
           p.sl2_check(d1, -x1sq, p.parse_derivation("(-2 x1) d1", 1), 1),
           p.sl2_check(d, d, d, 1), closure, p.derived_series(closure)]
    report = p.verify_paper(1, 0)
    return out + [report, report.checks[0]]


def test_records_are_read_only():
    made = records()
    assert {type(r).__name__ for r in made} == {
        "MembershipVerdict", "NilpotencyWitness", "LndVerdict", "DerivedChainCertificate",
        "InconclusiveSearch", "EigenvectorCertificate", "Sl2Certificate", "Sl2Mismatch",
        "LieClosureResult", "SeriesReport", "CheckResult", "Report"}
    for record in made:
        fields = getattr(type(record), "_fields", None) or type(record).__slots__
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.not_a_field = None
        assert not hasattr(record, "__dict__")
