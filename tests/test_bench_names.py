"""Every package name the benchmark under bench/ looks up still exists.

The benchmark traces calls by looking names up in the package's modules
(`bench/spans.py`, `CALL_SITES`) and imports what it runs from the package,
so removing or renaming one of those names makes it crash.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only
    return module


def test_every_traced_call_site_resolves():
    for module_name, attr, _layer in _load_spans().CALL_SITES:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), (module_name, attr)


def test_every_name_the_benchmark_imports_exists():
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eisenshift"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    checked += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("eisenshift"):
                        module = importlib.import_module(alias.name)
                        if alias.asname:
                            aliases[alias.asname] = module
        # Attributes read through a module alias, e.g. `census.monte_carlo`.
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                module = aliases[node.value.id]
                assert hasattr(module, node.attr), (path.name, module.__name__, node.attr)
                checked += 1
    assert checked > 0
