"""Every `polylie ...` line in README's CLI section still parses and runs.

A line that ends in a usage error (exit code 2, or argparse's SystemExit)
names a flag, command or operand form the CLI no longer accepts.
"""

import shlex
from pathlib import Path

import pytest

from polylie.cli import EXIT_USAGE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_lines() -> list[tuple[int, str]]:
    """(line number, text) of each command in a sh block of the CLI section."""
    lines = []
    in_section = in_block = False
    for lineno, line in enumerate(README.read_text().splitlines(), start=1):
        if line.startswith("## "):
            in_section = line == "## CLI"
        elif in_section and line.startswith("```"):
            in_block = line == "```sh"
        elif in_block and line.startswith("polylie "):
            lines.append((lineno, line))
    return lines


LINES = cli_lines()


def test_cli_section_has_examples():
    assert len(LINES) >= 15


@pytest.mark.parametrize("line", [text for _, text in LINES],
                         ids=[f"README.md:{lineno}" for lineno, _ in LINES])
def test_readme_line_runs(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code != EXIT_USAGE, f"{line!r} ended in a usage error: {err}"
