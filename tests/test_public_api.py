"""Every public function and method of the package has a use in it.

A public module-level function or public method (a name without a leading
underscore) must be referenced by name, as a call, an attribute or a bare
name, somewhere in the package besides its own def.  API that no command,
check or other library code uses is either wired in or deleted.
"""

import ast
from pathlib import Path

import polylie

PACKAGE = Path(polylie.__file__).resolve().parent

# module.qualname -> reason it stays without a use in the package
ALLOWED = {
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


def referenced_names(tree: ast.AST) -> set[str]:
    """Names used as a bare name or as an attribute; defs and imports do not count."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unused_public_api(sources: dict[str, str]) -> list[str]:
    """module.qualname of each public def whose name the sources never reference."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    return [f"{stem}.{qual}" for stem, tree in sorted(trees.items())
            for qual, name in public_defs(tree) if name not in used]


def test_finder_sees_defs_and_uses():
    sources = {
        "a": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
             "class K:\n    def meth(self): pass\n    def called(self): pass\n",
        "b": "from .a import unused\nused()\nk.called()\n",
    }
    assert unused_public_api(sources) == ["a.unused", "a.K.meth"]


def test_every_public_def_is_used():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    # an allowed name that gains a use, or goes, leaves the list too
    assert sorted(unused_public_api(sources)) == sorted(ALLOWED)
