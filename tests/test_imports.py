"""The package's internal import graph has no cycle.

Every relative import counts, wherever it sits: module level, inside a
function, or under `if TYPE_CHECKING:`.
"""

import ast
from pathlib import Path

import polylie

PACKAGE = Path(polylie.__file__).resolve().parent


def _imported_modules(tree: ast.AST, modules: set[str]) -> set[str]:
    """The package modules that the relative imports in tree name."""
    out = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if node.module:
            out.add(node.module.split(".")[0])
        else:  # from . import x: a submodule, or a name from __init__
            out.update(a.name if a.name in modules else "__init__"
                       for a in node.names)
    return out & modules


def import_graph() -> dict[str, set[str]]:
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    modules = set(files)
    return {name: _imported_modules(ast.parse(path.read_text()), modules)
            for name, path in files.items()}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """Some cycle as a closed path of module names, or None."""
    state: dict[str, str] = {}  # "open" while on the DFS stack, then "done"
    stack: list[str] = []

    def visit(node):
        state[node] = "open"
        stack.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


def test_graph_sees_every_import_form():
    src = """
from typing import TYPE_CHECKING
from . import a, helper_name
from .b import thing
from .c.sub import other
if TYPE_CHECKING:
    from .d import T
def f():
    from .e import g
"""
    found = _imported_modules(ast.parse(src), {"a", "b", "c", "d", "e", "__init__"})
    assert found == {"a", "__init__", "b", "c", "d", "e"}


def test_cycle_finder():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_package_imports_are_acyclic():
    graph = import_graph()
    assert {"canonical", "reductions", "span", "cli"} <= set(graph)
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)
