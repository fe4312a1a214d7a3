"""A one-shot CLI process imports only the modules its command runs.

Each check starts a fresh interpreter, so modules that other tests have
already imported do not hide an import.  A module the interpreter loads
before the check starts (say, from a site hook) is not counted against it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import polylie

PACKAGE = Path(polylie.__file__).resolve().parent

# the modules a parser-only process must not load: the code-generating record
# decorator, and the package modules that only other commands run
NOT_AT_START = {"dataclasses", "polylie.verify", "polylie.canonical",
                "polylie.reductions"}


def modules_loaded_by(code: str, env: dict) -> set[str]:
    """The modules that running code in a fresh interpreter adds."""
    script = ("import json, sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_parser_loads_no_command_module(module_env):
    loaded = modules_loaded_by("import polylie.cli\npolylie.cli.build_parser()", module_env)
    assert "polylie.cli" in loaded
    assert not loaded & NOT_AT_START


def test_bare_package_loads_no_submodule(module_env):
    loaded = modules_loaded_by("import polylie", module_env)
    assert "polylie" in loaded
    assert not {m for m in loaded if m.startswith("polylie.")}


def test_parser_modules_are_what_bracket_closure_and_series_run(module_env):
    """The CLI's module-level imports are exactly what these commands use, so
    importing them up front defers nothing that another command pays for."""
    at_start = modules_loaded_by("import polylie.cli", module_env)
    commands = [["bracket", "(x1^2) d2", "(x2) d1", "--n", "2"],
                ["closure", "d1", "(x1^2) d1", "--n", "1"],
                ["derived-series", "d1", "(x1) d1", "--n", "1", "--lower",
                 "--format", "json"]]
    code = ("import contextlib, io, polylie.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [polylie.cli.main(argv) for argv in {commands!r}]\n"
            "assert codes == [0, 0, 0], codes")
    after_commands = modules_loaded_by(code, module_env)
    package = {m for m in at_start if m.startswith("polylie")}
    assert {m for m in after_commands if m.startswith("polylie")} == package


def test_each_command_module_loads_on_its_command(module_env):
    code = ("import contextlib, io, polylie.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert polylie.cli.main(['member', '(x1) d2', '--n', '2']) == 0\n"
            "    assert polylie.cli.main(['flatten', '(x2^3) d1', '2', '1', '--n', '2']) == 0")
    loaded = modules_loaded_by(code, module_env)
    assert {"polylie.canonical", "polylie.reductions"} <= loaded
    assert not loaded & {"polylie.verify", "dataclasses"}


def test_membership_lnd_and_witness_load_no_reductions(module_env):
    """`lnd` refutes with D's matrix alone, so these commands, and the
    `verify-paper` checks built on them, never load the eigenvector relations
    of `reductions`."""
    code = ("import contextlib, io, polylie.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert polylie.cli.main(['member', '(x1) d2', '--n', '2']) == 0\n"
            "    assert polylie.cli.main(['lnd', '(x1) d1 - (x2) d2', '--n', '2']) == 0\n"
            "    assert polylie.cli.main(['witness', '--n', '2']) == 0\n"
            "    assert polylie.cli.main(['verify-paper', '--n', '1']) == 0")
    loaded = modules_loaded_by(code, module_env)
    assert {"polylie.canonical", "polylie.verify"} <= loaded
    assert "polylie.reductions" not in loaded


def dataclass_imports(source: str) -> list[int]:
    """Line numbers of the imports of `dataclasses` in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]


def test_finder_sees_dataclass_imports():
    source = ("import dataclasses\nfrom dataclasses import field\n"
              "def f():\n    import os, dataclasses as dc\nimport dataclasses_json\n")
    assert dataclass_imports(source) == [1, 2, 4]


def test_package_imports_no_dataclasses():
    found = {p.name: lines for p in sorted(PACKAGE.glob("*.py"))
             if (lines := dataclass_imports(p.read_text()))}
    assert found == {}
