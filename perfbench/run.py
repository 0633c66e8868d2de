"""Benchmark of the hingesketch CLI: build, query and optimize workloads.

    python3 perfbench/run.py --workload {build,query,optimize} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The set-up process writes every input file
from the seed (see workloads.py); this process then drives the shipped CLI
in-process through ``hingesketch.cli.main(argv)``, one command at a time,
closed loop, single thread, with stdout and stderr captured.  Each command is
checked by the correctness gate (gate.py) outside the timed region.

With ``--trace 0`` the measured time is shared between the build, query and
optimize phases as the workload says; each end-to-end metric is the median of
its command's samples.  Times are scaled by a calibration loop run between
commands, at most every CAL_EVERY_S seconds (workloads.calibrate), so that
they read in seconds of a machine of fixed speed: the shared machines this
runs on drift in speed by 20-40% over a few seconds to a minute, which raw
medians cannot average out.  A sample is scaled by the median of the
CAL_NEIGHBOURS calibrations nearest to its command's midpoint in time; the
unscaled medians go to stderr.
With ``--trace 1`` every command runs once untraced,
once with the library's functions wrapped from outside (layers.py,
tracing.py) and once more untraced; the traced round gives the per-layer
metrics, and its time over the mean of the untraced rounds is
``trace.overhead_ratio``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Sample counts and high percentiles go to stderr; spans are written
to ``.perfbench_work/traces/`` when a traced run ends.
"""

from __future__ import annotations

import os

os.environ.pop("HSK_SEED", None)  # the CLI would let it override every --seed

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CAL_EVERY_S = 0.25
CAL_NEIGHBOURS = 5  # the drift has components of a few seconds: keep the window short

import workloads as wl  # noqa: E402

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ok/attempted"}
E2E_UNITS.update({f"build_s.{f}": "s" for f in wl.FAMILIES})
E2E_UNITS.update({f"query_ms.{f}": "ms" for f in wl.QUERY_FAMILIES})
E2E_UNITS.update({f"optimize_s.{f}": "s" for f in wl.OPT_FAMILIES})


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return q, float(np.percentile(values, q))


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        from gate import Gate
        from hingesketch import cli

        self.cli = cli
        self.name = workload
        self.spec = wl.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.gate = Gate()
        self.samples: dict[str, list[tuple[float, float]]] = {}  # (value, mid time)
        self.cals: list[tuple[float, float]] = []  # (time, seconds of one calibration)
        self.t_cmd = 0.0
        self.tracer = None
        self.opt_last: dict[str, tuple[int, float]] = {}
        self.qrng = np.random.default_rng([seed, 7])
        oracle = np.load(work / "oracle.npz")
        self.oracle = {k: oracle[k] for k in oracle.files}
        self._points: dict[str, list] = {}
        self._refs: dict[tuple[str, float], np.ndarray] = {}

    # -- one CLI command ------------------------------------------------------

    def run_cli(self, label: str, argv: list[str]) -> tuple[int, str, str, float]:
        if not self.cals or perf_counter() - self.cals[-1][0] >= CAL_EVERY_S:
            self.cals.append((perf_counter(), wl.calibrate()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.tracer.command(label, self.cli.main, argv)
            except Exception:  # a crash is a failed operation, not a failed run
                rc = -1
                traceback.print_exc()
            secs = perf_counter() - t0
        self.t_cmd = t0 + secs / 2.0
        return rc, out.getvalue(), err.getvalue(), secs

    def sample(self, metric: str, value: float) -> None:
        """Record ``value`` of the command that just ran."""
        self.samples.setdefault(metric, []).append((value, self.t_cmd))

    def scaled_samples(self) -> tuple[dict, dict]:
        """Raw and speed-scaled samples of every sampled metric.

        A scaled sample is the raw one times wl.CAL_REF_S over the median of
        the CAL_NEIGHBOURS calibrations nearest to its command in time, so that
        a machine in a faster or slower state reads the same.
        """
        self.cals.append((perf_counter(), wl.calibrate()))
        cal_t = np.array([t for t, _ in self.cals])
        cal_s = np.array([c for _, c in self.cals])
        raw, scaled = {}, {}
        for metric, vs in self.samples.items():
            raw[metric] = [v for v, _ in vs]
            scaled[metric] = [
                v * wl.CAL_REF_S
                / float(np.median(cal_s[np.argsort(np.abs(cal_t - t))[:CAL_NEIGHBOURS]]))
                for v, t in vs]
        return raw, scaled

    # -- phases: one step is one timed command, returning its seconds ---------

    def build_step(self, fam: str, check: bool = True) -> float:
        argv = wl.build_argv(self.work, fam, self.seed)
        rc, out, err, secs = self.run_cli(f"build.{fam}", argv)
        self.sample(f"build_s.{fam}", secs)
        self.gate.check_build(fam, rc, out, err, wl.stream_n(self.spec, fam))
        if check:  # one small checked query per written sketch file (untimed)
            self.query(fam, wl.sketch_paths(self.work, fam), "", wl.CHECK_QUERIES, timed=False)
        return secs

    def query_step(self, fam: str) -> float:
        prefix = wl.query_prefix(self.spec)
        paths = wl.sketch_paths(self.work, fam, prefix, self.spec["replicas"])
        return self.query(fam, paths, prefix, wl.QUERIES_PER_CALL, timed=True)

    def query(self, fam: str, paths: list[str], prefix: str, nq: int, timed: bool) -> float:
        """One query command over ``paths``, checked against the stream ``prefix`` names."""
        if fam == "add2d":
            ang = self.qrng.uniform(0.0, 2.0 * math.pi)
            theta = (math.cos(ang), math.sin(ang))
            b_ball = self.qrng.uniform(-wl.Q_RANGE, wl.Q_RANGE)
            b = (b_ball + theta[0] + theta[1]) / 2.0  # the same halfplane on (x+1)/2
            argv = wl.query_argv(paths, theta=theta, b=b)
        else:
            qs = self.qrng.uniform(-wl.Q_RANGE, wl.Q_RANGE, nq)
            argv = wl.query_argv(paths, qs=qs)
        rc, out, err, secs = self.run_cli(f"query.{fam}", argv)
        if timed:
            self.sample(f"query_ms.{fam}", secs * 1e3)
        if fam == "add2d":
            u = (self.oracle[f"{prefix}d2_x"] + 1.0) / 2.0  # add2d builds on (x+1)/2
            self.gate.check_query_2d(rc, out, err, theta, b, u, wl.BUILD_EPS)
        else:
            self.gate.check_query_1d(fam, rc, out, err, qs, self.oracle[f"{prefix}d1_x"],
                                     wl.BUILD_EPS)
        return secs

    def optimize_step(self, fam: str) -> float:
        inst, lam, eps = self.spec["opt"][fam]
        argv = wl.optimize_argv(self.work, fam, inst, lam, eps, self.seed)
        rc, out, err, secs = self.run_cli(f"optimize.{fam}", argv)
        self.sample(f"optimize_s.{fam}", secs)
        rec = self.gate.check_optimize(fam, rc, out, err, self.objective(inst, lam),
                                       self.reference(inst, lam), lam, eps)
        self.opt_last[fam] = (rec["grid_size"] if rec else 0, secs)
        return secs

    # -- oracles (core is never timed) ------------------------------------------

    def points(self, inst: str) -> list:
        from hingesketch.core import LabeledPoint

        if inst not in self._points:
            X, y = self.oracle[f"{inst}_x"], self.oracle[f"{inst}_y"]
            self._points[inst] = [LabeledPoint(tuple(X[i]), int(y[i])) for i in range(len(y))]
        return self._points[inst]

    def objective(self, inst: str, lam: float):
        from hingesketch.core import HyperplaneQuery, hinge_objective

        pts = self.points(inst)
        return lambda w: hinge_objective(pts, HyperplaneQuery(tuple(w[:-1]), w[-1]), lam)

    def reference(self, inst: str, lam: float) -> np.ndarray:
        if inst == "opthard":
            return self.oracle["opthard_ref"]
        if (inst, lam) not in self._refs:
            from hingesketch.core import exact_optimize

            r = exact_optimize(self.points(inst), lam)
            self._refs[(inst, lam)] = np.array(list(r.theta) + [r.b], dtype=float)
        return self._refs[(inst, lam)]

    # -- runs -----------------------------------------------------------------

    def phases(self) -> dict[str, list]:
        return {
            "build": [lambda f=f: self.build_step(f) for f in wl.FAMILIES],
            "query": [lambda f=f: self.query_step(f) for f in wl.QUERY_FAMILIES],
            "optimize": [lambda f=f: self.optimize_step(f) for f in wl.OPT_FAMILIES],
        }

    def measure(self, seconds: float) -> None:
        """Run every command once, then interleave commands until ``seconds`` pass.

        The next command comes from the phase furthest below its share of the
        measured time, so each metric's samples are spread over the whole run
        rather than bunched in one stretch of it.
        """
        t_end = perf_counter() + seconds
        share = self.spec["share"]
        used = dict.fromkeys(share, 0.0)
        steps = self.phases()
        for phase, fns in steps.items():  # the first build writes what queries read
            used[phase] += sum(fn() for fn in fns)
        nxt = dict.fromkeys(share, 0)
        while perf_counter() < t_end:
            phase = min(share, key=lambda p: used[p] / share[p])
            fns = steps[phase]
            used[phase] += fns[nxt[phase] % len(fns)]()
            nxt[phase] += 1

    def one_round(self, check_files: bool) -> float:
        """Every command once; returns their summed seconds."""
        total = sum(self.build_step(f, check_files) for f in wl.FAMILIES)
        total += sum(self.query_step(f) for f in wl.QUERY_FAMILIES)
        return total + sum(self.optimize_step(f) for f in wl.OPT_FAMILIES)

    def space(self) -> dict:
        import layers

        prefix = wl.query_prefix(self.spec)
        return {fam: layers.sketch_stats(wl.sketch_paths(self.work, fam, prefix,
                                                           self.spec["replicas"])[0],
                                         wl.stream_n(self.spec, fam, prefix))
                for fam in wl.FAMILIES}


def run_setup(workload: str, seed: int, work: Path) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_records(bench: Bench, digests: dict) -> None:
    """At the recorded seed, the inputs must hash to the values in workloads.json."""
    rec = json.loads((HERE / "workloads.json").read_text())[bench.name]
    if rec["seed"] == bench.seed:
        bad = [n for n, h in rec["sha256"].items() if digests.get(n) != h]
        bench.gate.record("inputs", [f"sha256 differs for {', '.join(bad)}"] if bad else [])


def report_space(space: dict) -> None:
    for fam, st in space.items():
        wpp = st["space_words"] / st["n"] if st["n"] else 0.0
        flag = "  NOT SUBLINEAR (>= 1 word per point)" if wpp >= 1.0 else ""
        print(f"space {fam}: {st['space_words']} words for {st['n']} points, "
              f"{wpp:.3f} words/point{flag}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hingesketch CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hingesketch" / "cli.py").is_file():
        print(f"error: no hingesketch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup = run_setup(args.workload, args.seed, work)
        bench = Bench(args.workload, args.seed, work)
        check_records(bench, setup["sha256"])
        if args.trace:
            metrics = traced_run(bench)
        else:
            metrics = untraced_run(bench, args.seconds, setup["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in bench.gate.failures:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}", file=sys.stderr)
    result = {
        "correct": bench.gate.failed == 0,
        "attempted": bench.gate.attempted,
        "failed": bench.gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def untraced_run(bench: Bench, seconds: float, setup_times: list[float]) -> dict:
    bench.measure(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report_space(bench.space())
    raw, scaled = bench.scaled_samples()
    values = {k: statistics.median(v) for k, v in scaled.items()}
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = rss_mb
    g = bench.gate
    values["ok_ratio"] = (g.attempted - g.failed) / g.attempted
    print(f"calibration: median {statistics.median(c for _, c in bench.cals) * 1e3:.4f} ms "
          f"(reference {wl.CAL_REF_S * 1e3} ms, n={len(bench.cals)})", file=sys.stderr)
    for name in sorted(scaled):
        hp = high_percentile(scaled[name])
        extra = f"  p{hp[0]} {hp[1]:.6g}" if hp else ""
        print(f"{name}: median {values[name]:.6g}{extra}  n={len(scaled[name])}  "
              f"(unscaled median {statistics.median(raw[name]):.6g})", file=sys.stderr)
    print(f"setup_s: median {values['setup_s']:.6g}  n={len(setup_times)}", file=sys.stderr)
    print(f"ok_ratio: {g.attempted - g.failed}/{g.attempted}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def traced_run(bench: Bench) -> dict:
    import layers
    from tracing import Tracer

    before = bench.one_round(check_files=True)
    tracer = Tracer()
    tracer.install(layers.targets())
    bench.tracer = tracer
    try:
        traced = bench.one_round(check_files=False)
    finally:
        tracer.uninstall()
        bench.tracer = None
    opt = dict(bench.opt_last)
    # untraced rounds on both sides of the traced one, so drift in machine speed
    # during the run biases the overhead ratio less
    untraced = (before + bench.one_round(check_files=False)) / 2.0
    for label in tracer.absent:
        print(f"trace: {label} is absent; its metrics read 0", file=sys.stderr)
    space = bench.space()
    report_space(space)
    tot = tracer.totals()
    top = sorted(tot.items(), key=lambda kv: -kv[1]["self"])[:12]
    for label, t in top:
        print(f"self {t['self']:9.4f} s  busy {t['busy']:9.4f} s  calls {t['calls']:>8}  {label}",
              file=sys.stderr)
    values = layers.layer_values(tot, space, bench.gate.accuracy, opt, traced / untraced)
    out_dir = WORK / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = tracer.dump()
    dump.update(workload=bench.name, seed=bench.seed, untraced_s=untraced, traced_s=traced)
    (out_dir / f"{bench.name}-{bench.seed}.json").write_text(json.dumps(dump))
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in layers.METRICS}


if __name__ == "__main__":
    sys.exit(main())
