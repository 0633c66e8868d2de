"""The benchmark's imports of the library, checked without running it.

The suite does not import ``perfbench/``, so a library name the benchmark
imports and a change deletes would first show up in a benchmark run.  Here
each ``perfbench/*.py`` is parsed (not run), and every name it imports from
``hingesketch`` must still exist.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def library_imports():
    """(file, module, name) of each ``from hingesketch... import name`` in the benchmark."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "hingesketch"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


IMPORTS = list(library_imports())


def test_the_benchmark_imports_the_library():
    assert {module for _, module, _ in IMPORTS} >= {"hingesketch", "hingesketch.core"}


@pytest.mark.parametrize("path,module,name", IMPORTS)
def test_imported_name_resolves(path, module, name):
    mod = importlib.import_module(module)
    # a submodule that nothing has imported yet is not an attribute of its package
    assert hasattr(mod, name) or (
        hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None)
