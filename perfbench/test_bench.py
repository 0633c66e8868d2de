"""Tests of the benchmark itself: the correctness gate, the tracer and the records.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from hingesketch.core import distance_sums_1d  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

XS = np.random.default_rng(0).uniform(-1.0, 1.0, 500)
QS = np.array([-1.1, -0.3, 0.2, 0.9, 1.15])
EXACT = distance_sums_1d(XS, QS)


def answers(values) -> str:
    return "".join(json.dumps({"q": float(q), "estimate": v}) + "\n" for q, v in zip(QS, values))


def test_exact_answers_pass():
    g = gate.Gate()
    g.check_query_1d("offline1d", 0, answers(list(EXACT)), "", QS, XS, 0.1)
    g.check_query_1d("add1d", 0, answers(list(EXACT / XS.size)), "", QS, XS, 0.1)
    g.check_query_1d("mult1d", 0, answers(list(EXACT)), "", QS, XS, 0.1)
    assert (g.attempted, g.failed) == (3, 0)


@pytest.mark.parametrize("family,values", [
    ("offline1d", list(EXACT * 1.5)),  # overestimate breaks T <= exact
    ("add1d", list(EXACT / XS.size + 0.2)),  # beyond the additive epsilon
    ("mult1d", list(EXACT[:-1]) + [math.nan]),
    ("add1d", list(EXACT[:-1] / XS.size) + [math.inf]),
])
def test_perturbed_or_non_finite_answer_fails(family, values):
    g = gate.Gate()
    g.check_query_1d(family, 0, answers(values), "", QS, XS, 0.1)
    assert (g.attempted, g.failed) == (1, 1)


def test_randomized_miss_is_not_a_failure():
    g = gate.Gate()
    g.check_query_1d("dyn1d", 0, answers(list(EXACT * 3.0)), "", QS, XS, 0.1)
    assert g.failed == 0
    assert g.accuracy["dyn1d"].success_rate < 1.0


def test_nonzero_exit_and_error_line_fail():
    g = gate.Gate()
    g.check_query_1d("mult1d", 3, "", "", QS, XS, 0.1)
    g.check_build("add1d", 0, '{"points": 500}\n', '{"error": "data", "message": "x"}\n', 500)
    g.check_build("add1d", 0, '{"points": 499}\n', "", 500)
    g.check_query_2d(2, "", "", (1.0, 0.0), 0.5, np.zeros((3, 2)), 0.1)
    assert (g.attempted, g.failed) == (4, 4)


def test_optimize_gate():
    ref = np.array([1.0, 0.0])
    objective = lambda w: float(w @ w)  # noqa: E731
    g = gate.Gate()
    good = json.dumps({"theta": [1.0], "b": 0.0, "value": 1.0, "grid_size": 9})
    far = json.dumps({"theta": [9.0], "b": 0.0, "value": 1.0, "grid_size": 9})
    nan = json.dumps({"theta": [math.nan], "b": 0.0, "value": 1.0, "grid_size": 9})
    for out, rc in ((good, 0), (far, 0), (nan, 0), (good, 2)):
        g.check_optimize("add1d", rc, out, "", objective, ref, lam=1.0, eps=0.1)
    assert (g.attempted, g.failed) == (4, 3)


class Thing:
    def step(self, xs):
        return len(xs)

    @classmethod
    def make(cls):
        return cls()

    def outer(self, n):
        return sum(self.step([0] * k) for k in range(n))


class SubThing(Thing):
    pass


@pytest.fixture
def fake_lib(monkeypatch):
    """A module ``fake_lib`` holding ``run``, ``Thing`` and ``SubThing``."""
    mod = types.ModuleType("fake_lib")
    mod.run = lambda thing: thing.outer(3)
    mod.Thing, mod.SubThing = Thing, SubThing
    monkeypatch.setitem(sys.modules, "fake_lib", mod)
    return mod


def test_tracer_self_time_absent_names_and_uninstall(fake_lib):
    tr = Tracer()
    tr.install([
        Target("fake_lib", "run", "mod.run", span=True),
        Target("fake_lib.Thing", "outer", "thing.outer", span=True),
        Target("fake_lib.Thing", "step", "thing.step", units=lambda a, k, r: r),
        Target("fake_lib.Thing", "make", "thing.make", span=True),
        Target("fake_lib.Thing", "gone", "thing.gone"),
    ])
    try:
        assert tr.command("cmd", fake_lib.run, Thing.make()) == 3
    finally:
        tr.uninstall()
    assert tr.absent == ["thing.gone"]
    assert "__wrapped__" not in vars(Thing.step)
    tot = tr.totals()
    assert tot["thing.step"]["calls"] == 3 and tot["thing.step"]["units"] == 3
    cmd = [s for s in tr.spans if s["name"] == "cmd"][0]
    covered = sum(t["self"] for label, t in tot.items() if label != "thing.make")
    assert covered == pytest.approx(cmd["end"] - cmd["start"], rel=1e-9)
    outer = [s for s in tr.spans if s["name"] == "thing.outer"][0]
    assert outer["self"] <= outer["end"] - outer["start"]


def test_missing_module_or_class_is_absent(fake_lib):
    tr = Tracer()
    tr.install([
        Target("fake_lib.Renamed", "step", "renamed.step"),
        Target("no_such_module.Thing", "step", "gone.step"),
        Target("fake_lib.Thing", "step", "thing.step"),
    ])
    try:
        Thing().step([1, 2])
    finally:
        tr.uninstall()
    assert tr.absent == ["renamed.step", "gone.step"]
    assert tr.totals()["thing.step"]["calls"] == 1


def test_inherited_method_is_wrapped_and_restored(fake_lib):
    tr = Tracer()
    tr.install([Target("fake_lib.SubThing", "step", "sub.step")])
    try:
        SubThing().step([1])
        Thing().step([1])
    finally:
        tr.uninstall()
    assert tr.totals()["sub.step"]["calls"] == 1
    assert "step" not in vars(SubThing)


def test_every_library_target_is_present():
    import layers

    tr = Tracer()
    tr.install(layers.targets())
    tr.uninstall()
    assert tr.absent == []


def test_ingest_counts_rows_and_row_errors(tmp_path):
    import layers
    from hingesketch import cli

    path = tmp_path / "s.csv"
    path.write_text("1,0.5\n-1,-0.25\nx,0.1\n1,0.75\n")
    tr = Tracer()
    tr.install([t for t in layers.targets() if t.label == "cli.ingest"])
    try:
        points, errors = cli.ingest(str(path), "csv")
    finally:
        tr.uninstall()
    assert (len(points), len(errors)) == (3, 1)
    v = layers.layer_values(tr.totals(), {}, {}, {}, 1.0)
    assert (v["cli.ingest.rows"], v["cli.ingest.row_errors"]) == (3, 1)


def test_benchmark_json_lists_every_metric():
    import layers
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E_UNITS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.METRICS
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


def test_records_match_generated_inputs(tmp_path):
    import records

    generated = json.loads(json.dumps(records.records(tmp_path)))
    assert generated == json.loads(records.RECORDS.read_text())


def test_tracer_passes_exceptions_through(monkeypatch):
    class Boom:
        def fail(self):
            raise KeyError("boom")

    tr = Tracer()
    monkeypatch.setitem(sys.modules, "fake_boom", types.SimpleNamespace(Boom=Boom))
    tr.install([Target("fake_boom.Boom", "fail", "boom.fail", units=lambda a, k, r: len(r))])
    try:
        with pytest.raises(KeyError):
            Boom().fail()
    finally:
        tr.uninstall()
    assert tr.totals()["boom.fail"]["calls"] == 1
    assert tr.totals()["boom.fail"]["units"] == 0
