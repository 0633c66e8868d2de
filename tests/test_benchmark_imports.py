"""The benchmark's imports of the library, checked without running it.

The suite does not import ``perfbench/``, so a library name the benchmark
imports and a change deletes would first show up in a benchmark run.  Here
each ``perfbench/*.py`` is parsed (not run), and every name it imports from
``hingesketch`` must still exist.  One test runs the ``optimize`` workload's
input set-up, the one that calls a generator, and checks its file digests.
Another resolves the benchmark's tracer targets, whose per-layer metrics read
0 when a target is gone.
"""

import ast
import importlib.util
import json
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


def test_optimize_inputs_keep_their_recorded_bytes(tmp_path):
    """The ``optimize`` workload's set-up reads ``gen.gen_opt_hard(...).points``
    row by row (``p.x``, ``p.y``) to write ``opthard.csv``.  Its input files,
    written here by the benchmark's own ``make_inputs``, must hash to the
    values ``workloads.json`` records."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rec = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))["optimize"]
    workloads.make_inputs("optimize", rec["seed"], tmp_path)
    assert {name: workloads.sha256(tmp_path / name) for name in rec["sha256"]} == rec["sha256"]


def test_tracer_targets_absent_are_the_known_three(monkeypatch):
    """Every library function the benchmark's tracer wraps resolves, but the
    three it still names on ``optimize`` classes since merged into
    ``HingeEstimator``.  A library change that removes one more would darken
    its per-layer metric."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    tr = tracing.Tracer()
    try:
        tr.install(layers.targets())
    finally:
        tr.uninstall()
    assert sorted(tr.absent) == ["optimize.estimate", "optimize.estimate",
                                 "optimize.estimate_bulk"]
