"""The benchmark's imports of the library, checked without running it.

The suite does not import ``perfbench/``, so a library name the benchmark
imports and a change deletes would first show up in a benchmark run.  Here
each ``perfbench/*.py`` is parsed (not run), and every name it imports from
``hingesketch`` must still exist.  One test runs the ``optimize`` workload's
input set-up, the one that calls a generator, and checks its file digests.
Another resolves the benchmark's tracer targets, whose per-layer metrics read
0 when a target is gone.  The last runs every ``optimize`` command the
benchmark times through its own correctness gate, so that a change which
moves an optimizer answer past criterion 6 fails here, not in a benchmark run.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hingesketch import cli
from hingesketch.core import HyperplaneQuery, exact_optimize, hinge_objective
from hingesketch.stream import make_records

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


def perfbench_module(name):
    """``perfbench/<name>.py``, loaded from its file without changing ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # where a dataclass looks its module up
    spec.loader.exec_module(mod)
    return mod


def test_optimize_inputs_keep_their_recorded_bytes(tmp_path):
    """The ``optimize`` workload's set-up reads ``gen.gen_opt_hard(...).points``
    row by row (``p.x``, ``p.y``) to write ``opthard.csv``.  Its input files,
    written here by the benchmark's own ``make_inputs``, must hash to the
    values ``workloads.json`` records."""
    workloads = perfbench_module("workloads")
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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("commands,workload", [("OPT_HARD", "optimize"), ("OPT_SMALL", "build")])
def test_optimize_commands_pass_the_gate(tmp_path, capsys, monkeypatch, commands, workload, seed):
    """Each ``optimize`` command of an instance set, run by ``cli.main`` on the
    files the workload's set-up writes, exits 0 with no error line and meets
    criterion 6 against the reference optimum the benchmark uses: opthard's
    closed form, or ``exact_optimize`` on the halfplane streams."""
    monkeypatch.delenv("HSK_SEED", raising=False)  # it would override every --seed
    workloads, gate = perfbench_module("workloads"), perfbench_module("gate")
    assert workloads.WORKLOADS[workload]["opt"] is getattr(workloads, commands)
    arrays = workloads.make_inputs(workload, seed, tmp_path)
    for family, (inst, lam, eps) in getattr(workloads, commands).items():
        code = cli.main(workloads.optimize_argv(tmp_path, family, inst, lam, eps, seed))
        out, err = capsys.readouterr()
        assert gate.command_problems(code, err) == [], family
        rec = gate.json_lines(out)[-1]
        points = make_records(arrays[f"{inst}_y"], arrays[f"{inst}_x"])
        if inst == "opthard":
            ref = arrays["opthard_ref"]
        else:
            opt = exact_optimize(points, lam)
            ref = np.array([*opt.theta, opt.b])
        w = np.array([*rec["theta"], rec["b"]])

        def objective(v):
            return hinge_objective(points, HyperplaneQuery(tuple(v[:-1]), v[-1]), lam)

        assert gate.criterion6_problems(objective(w), objective(ref),
                                        float(np.linalg.norm(w - ref)), eps, lam) == [], family
