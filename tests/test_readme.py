"""README's console examples are what the CLI prints, byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from eisenshift.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _console_examples():
    """(command line, expected stdout) for every `$ eisenshift` line of README's console blocks."""
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ eisenshift "):
                command, _, output = chunk.partition("\n")
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _console_examples()


def test_readme_has_the_console_examples():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_console_example(command, expected, capsys):
    main(shlex.split(command)[1:])
    assert capsys.readouterr().out == expected
