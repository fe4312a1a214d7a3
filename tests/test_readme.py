"""README's examples still run and say what they show.

Every `polylie ...` line in the CLI section still parses and runs: a line
that ends in a usage error (exit code 2, or argparse's SystemExit) names a
flag, command or operand form the CLI no longer accepts.  The Python block
of the library example runs and prints what its comments state.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from polylie.cli import EXIT_USAGE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_lines() -> list[str]:
    """Each command in a sh block of the CLI section."""
    lines = []
    in_section = in_block = False
    for line in README.read_text().splitlines():
        if line.startswith("## "):
            in_section = line == "## CLI"
        elif in_section and line.startswith("```"):
            in_block = line == "```sh"
        elif in_block and line.startswith("polylie "):
            lines.append(line)
    return lines


LINES = cli_lines()


def test_cli_section_has_examples():
    assert len(LINES) >= 15


# each example is named by its command text, without the trailing comment, so
# an edit elsewhere in the README renames no test
@pytest.mark.parametrize("line", LINES, ids=[line.split("#")[0].rstrip() for line in LINES])
def test_readme_line_runs(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code != EXIT_USAGE, f"{line!r} ended in a usage error: {err}"


def python_example() -> tuple[str, list[str]]:
    """The library example's python block, and the output its comments state.

    A print's expected output is its trailing comment, or the comment line
    right after it when the print has none.
    """
    text = README.read_text()
    code = text.split("## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
    expected = []
    pending = False
    for line in code.splitlines():
        if line.startswith("print("):
            pending = "  # " not in line
            if not pending:
                expected.append(line.split("  # ", 1)[1].strip())
        elif pending and line.startswith("# "):
            expected.append(line[2:].strip())
            pending = False
    return code, expected


def test_python_example_prints_its_comments():
    code, expected = python_example()
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
