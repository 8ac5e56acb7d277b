"""README's console examples are what the CLI prints, byte for byte, its
Command-line usage names each subcommand's options, its Library usage
block runs, and its module tour names each module's public names."""

import argparse
import builtins
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import eisenshift
from eisenshift.cli import build_parser, main

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


def _readme_options():
    """{subcommand: long options} from README's Command-line usage section: the
    usage block, plus the shared options its prose names."""
    section = README.read_text().split("## Command-line usage\n", 1)[1].split("\n#", 1)[0]
    block, prose = re.fullmatch(r"\s*```\n(.*?)```(.*)", section, re.S).groups()
    options = {}
    for line in block.splitlines():
        command = line.split()[1]
        options[command] = set(re.findall(r"--[a-z-]+", line.partition("#")[0]))
    prose = " ".join(prose.split())
    (every,) = re.findall(r"Every subcommand takes `(--[a-z-]+)", prose)
    factoring, *budget = re.search(
        r"subcommands that factor integers \((.*?)\) take `(--[a-z-]+)` and `(--[a-z-]+)`", prose
    ).groups()
    for command in options:
        options[command].add(every)
    for command in re.findall(r"`([a-z]+)`", factoring):
        options[command].update(budget)
    return options


def _parser_options():
    """{subcommand: long options} of build_parser(), --help left out."""
    (subs,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {
            flag
            for action in sub._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for command, sub in subs.choices.items()
    }


def test_readme_usage_names_every_option_of_each_subcommand():
    assert _readme_options() == _parser_options()


def test_readme_library_usage_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})


def _module_tour():
    """{module: identifiers} of README's module tour: each whole backticked
    identifier in the contents cell of the module's row."""
    rows = re.findall(r"^\| `(eisenshift\.\w+)` \| (.*) \|$", README.read_text(), re.M)
    assert len(rows) == len(dict(rows)), "a module has two rows"
    return {
        module: {span for span in re.findall(r"`([^`]*)`", cell) if span.isidentifier()}
        for module, cell in rows
    }


def _names_of(module) -> set[str]:
    """The module's attributes, and the attributes of the classes it exports,
    their fields among them."""
    names = set(dir(module))
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, type):
            names.update(dir(value))
    return names


def test_readme_module_tour_matches_each_modules_all():
    tour = _module_tour()
    modules = {"eisenshift." + info.name for info in pkgutil.iter_modules(eisenshift.__path__)}
    assert set(tour) == modules
    for module_name, identifiers in tour.items():
        module = importlib.import_module(module_name)
        assert set(module.__all__) <= identifiers, (module_name, set(module.__all__) - identifiers)
        known = _names_of(module) | set(dir(builtins)) | {"eisenshift"}
        assert identifiers <= known, (module_name, identifiers - known)
