"""Command-line surface: stream generation, sketch build/query, optimization,
benchmarking, and self-verification.

Results go to stdout; errors go to stderr as one JSON object per line.
Exit codes: 0 ok, 2 config error, 3 data error, 4 verification failure.
The HSK_SEED environment variable overrides --seed wherever a command takes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import add1d, add2d, dyn1d, families, gen, mult1d, optimize
from .core import (
    SketchParams,
    distance_sums_1d,
    exact_optimize,
    hinge_objective,
    HyperplaneQuery,
)
from .stream import DataError, ingest, write_stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

ALGORITHMS = (*families.FAMILIES, "pegasos")


class ConfigError(ValueError):
    pass


def _err(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    meta = {"kind": args.kind, "seed": args.seed, "n": args.n}
    if args.kind == "uniform":
        records = gen.gen_uniform(args.n, args.d, seed=args.seed, label_mode=args.labels)
    elif args.kind == "clustered":
        records = gen.gen_clustered(args.n, args.d, seed=args.seed, label_mode=args.labels)
    elif args.kind in ("index1d", "index2d"):
        if not args.bits:
            raise ConfigError(f"--bits required for {args.kind}")
        bits = [int(c) for c in args.bits]
        if args.kind == "index1d":
            inst = gen.gen_index1d(bits, args.epsilon, args.n)
        else:
            inst = gen.gen_index2d(bits, args.s, args.r, args.n)
        records = inst.points
        meta.update(bits=args.bits, per_bit=inst.per_bit, positions=list(inst.positions),
                    queries=[dataclasses.asdict(q) for q in inst.queries])
        if args.kind == "index1d":
            meta["decode_threshold"] = (inst.queries[0].signal / 2.0) if inst.queries else None
    elif args.kind == "opthard":
        inst = gen.gen_opt_hard(args.delta, args.n, d=args.d, case=args.case, seed=args.seed)
        records = inst.points
        meta.update(delta=inst.delta, lam=inst.lam, case=inst.case, x_q=list(inst.x_q),
                    theta_star_magnitude=inst.theta_star_magnitude, b_star=inst.b_star,
                    n_total=inst.n_total, max_norm=1.0 + inst.delta)
    else:
        raise ConfigError(f"unknown generator kind {args.kind!r}")
    write_stream(records, args.out, args.format)
    with open(args.out + ".meta.json", "w") as f:
        json.dump(meta, f, indent=2)
    print(json.dumps({"written": args.out, "points": len(records)}))
    return EXIT_OK


def _read_stream(args) -> np.ndarray:
    """The records of ``--input``; one error line per bad row, and a DataError if none pass."""
    records, errors = ingest(args.input, args.format, fail_fast=args.fail_fast,
                             max_norm=args.max_norm)
    for e in errors:
        _err("data", e)
    if not len(records):
        raise DataError("no valid points in stream")
    return records


def cmd_build(args) -> int:
    if args.replicas < 1:
        raise ConfigError(f"--replicas must be >= 1, not {args.replicas}")
    records = _read_stream(args)
    fam = families.FAMILIES[args.algorithm]
    d = records["x"].shape[1]
    if d != fam.dim:
        raise ConfigError(f"{args.algorithm} requires d={fam.dim}, stream has d={d}")
    stream = np.ascontiguousarray(records["x"], dtype=float)
    if d == 1:
        stream = stream.reshape(-1)
    else:  # d=2 families read the unit square: map the unit ball onto it, in place
        stream += 1.0
        stream /= 2.0
    rec = {"written": args.out, "algorithm": args.algorithm, "points": len(records)}
    builds = [(args.out, args.seed)]
    if args.replicas > 1:
        # repeat-and-median boosting: independent replica per derived seed,
        # queried together via repeated --sketch flags
        builds = [(f"{args.out}.{i}", (args.seed + i) % 2**64)
                  for i in range(args.replicas)]
        rec.update(written=[path for path, _ in builds], replicas=args.replicas)
    for path, seed in builds:
        sk = fam.make(args.epsilon, args.n_hint or len(records), seed, args.p, args.W)
        sk.update_many(stream)
        sk.freeze()
        with open(path, "wb") as f:
            f.write(sk.to_bytes())
    space = int(sk.space_words())
    if args.replicas <= 1:
        rec["space_words"] = space
    if space >= len(records):  # no "error" key: the files are written and valid
        print(json.dumps({"warning": "not_sublinear", "space_words": space,
                          "points": len(records)}), file=sys.stderr)
    print(json.dumps(rec))
    return EXIT_OK


def load_sketch(path: str):
    """Decode a sketch file of any family; a malformed file is a DataError."""
    with open(path, "rb") as f:
        data = f.read()
    fam = families.BY_MAGIC.get(data[:4])
    if fam is None:
        raise DataError(f"unrecognized sketch magic {data[:4]!r}")
    try:
        return fam.cls.from_bytes(data)
    except ValueError as e:  # FormatError, or header values that fail the constructor's checks
        raise DataError(f"{path}: {e}") from e


def cmd_query(args) -> int:
    sketches = [load_sketch(path) for path in args.sketch]
    if len({(type(sk), sk.replica_key()) for sk in sketches}) > 1:
        raise ConfigError("--sketch files must be replicas of one sketch: "
                          "same family and parameters, differing only in seed")
    fam = families.BY_MAGIC[sketches[0].MAGIC]
    if fam.dim == 2:
        if args.q:
            raise ConfigError(f"{fam.name} queries take --theta and --b, not --q")
        if args.theta is None or args.b is None:
            raise ConfigError(f"{fam.name} queries need --theta tx,ty and --b")
        theta = [float(v) for v in args.theta.split(",")]
        if len(theta) != 2:
            raise ConfigError("--theta takes two components tx,ty")
        qs = np.array([[*theta, args.b]])
        out = [{"theta": theta, "b": args.b}]
    else:
        if args.theta is not None or args.b is not None:
            raise ConfigError(f"{fam.name} queries take --q, not --theta or --b")
        if not args.q:
            raise ConfigError("scalar queries need at least one --q")
        qs = np.array(args.q)
        out = [{"q": q} for q in args.q]
    if not np.isfinite(qs).all():
        raise ConfigError("--q, --theta and --b must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = optimize.median_estimate(np.stack([sk.query_many(qs) for sk in sketches]))
    bad = np.flatnonzero(~np.isfinite(estimates))
    if bad.size:
        raise ConfigError(f"the estimate at {json.dumps(out[bad[0]])} overflows float64")
    # + 0.0 turns the -0.0 of c * q with c = 0 (a value below every point) into 0.0
    for rec, est in zip(out, (estimates + 0.0).tolist()):
        rec.update(estimate=est, replicas=len(sketches))
        print(json.dumps(rec))
    return EXIT_OK


def cmd_optimize(args) -> int:
    records = _read_stream(args)
    if args.algorithm == "pegasos":
        theta, b = optimize.sgd_baseline(records, args.lam, args.epsilon, seed=args.seed)
        value = hinge_objective(records, HyperplaneQuery(theta, b), args.lam)
        rec = {"algorithm": "pegasos", "theta": list(theta), "b": b, "value": value,
               "space_words": optimize.sgd_space_words(args.lam, args.epsilon,
                                                       records["x"].shape[1])}
    else:
        res = optimize.optimize_via_sketch(records, args.lam, args.epsilon, family=args.algorithm,
                                           k=args.replicas, seed=args.seed)
        rec = {"algorithm": args.algorithm, "theta": list(res.theta), "b": res.b,
               "value": res.value, "grid_size": res.grid_size, "k": res.k}
    print(json.dumps(rec))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_HEADER = (
    "algorithm,epsilon,p,space_words,mean_rel_err,p95_err,max_err,success_rate,"
    "build_ns,query_ns"
)


def _bench_workload(fam: families.Family, n: int, seed: int, p: int):
    """(stream, queries, exact answers, map from query_many's output to them).

    d=1: distance sums at 50 points q of [0, 1] over n uniform values; d=2:
    mean distances to 20 random halfplanes over n points of the unit disk.
    """
    pts = np.ascontiguousarray(gen.gen_uniform(n, fam.dim, seed=seed)["x"])
    qrng = np.random.default_rng(seed + 777)
    if fam.dim == 2:
        rows, exact = [], []
        for _ in range(20):
            ang = qrng.uniform(0, 2 * math.pi)
            b = qrng.uniform(-1.5, 1.5)
            theta = (math.cos(ang), math.sin(ang))
            # the same halfplane in the coordinates of the unit square
            rows.append((*theta, (b + theta[0] + theta[1]) / 2.0))
            exact.append(float(np.mean(np.maximum(0.0, b - pts @ np.array(theta)) ** p)))
        return (pts + 1.0) / 2.0, np.array(rows), np.array(exact), lambda est: 2.0 * est
    xs = pts[:, 0]
    qs = qrng.uniform(0.0, 1.0, 50)
    exact = distance_sums_1d(xs, qs, p=p)
    if fam.normalized:
        return xs, qs, exact, lambda est: est * n
    w = optimize.SKETCH_W - 1  # the universe [1, SKETCH_W] of the non-normalized families
    return 1.0 + xs * w, 1.0 + qs * w, exact, lambda est: est / w


def bench_rows(algorithms, epsilons, n, seeds, p, seed0) -> list[str]:
    rows = []
    for name in algorithms:
        for eps in epsilons:
            errs, succ, space, build_ns, query_ns = [], [], 0, 0, 0
            for s in range(seeds):
                seed = seed0 + s
                if name == "pegasos":
                    lam = 0.1
                    pts = gen.gen_uniform(n, 1, seed=seed, low=-1.0, high=1.0,
                                          label_mode="random")
                    t0 = time.perf_counter_ns()
                    theta, b = optimize.sgd_baseline(pts, lam, eps, seed=seed)
                    build_ns += time.perf_counter_ns() - t0
                    space = optimize.sgd_space_words(lam, eps, 1)
                    opt = exact_optimize(pts, lam, tol=1e-6)
                    val = hinge_objective(pts, HyperplaneQuery(theta, b), lam)
                    errs.append(max(0.0, val - opt.value))
                    succ.append(val - opt.value <= eps)
                    continue
                fam = families.FAMILIES[name]
                stream, qs, exact, answer = _bench_workload(fam, n, seed, p)
                t0 = time.perf_counter_ns()
                sk = fam.make(eps, n, seed, p, optimize.SKETCH_W)
                sk.update_many(stream)
                sk.freeze()
                build_ns += time.perf_counter_ns() - t0
                space = max(space, sk.space_words())
                t0 = time.perf_counter_ns()
                est = answer(sk.query_many(qs))
                query_ns += time.perf_counter_ns() - t0
                if fam.normalized:
                    # additive error of the mean; d=1 answers are sums over n points
                    err = np.abs(est - exact) / (n if fam.dim == 1 else 1)
                else:
                    err = np.abs(est - exact) / np.maximum(exact, 1e-300)
                    err[exact == 0] = 0.0
                errs.extend(err)
                succ.extend(err <= fam.kappa * eps)
            errs_a = np.asarray(errs, dtype=float)
            rows.append(f"{name},{eps},{p},{space},{errs_a.mean():.6g},"
                        f"{np.percentile(errs_a, 95):.6g},{errs_a.max():.6g},"
                        f"{np.mean(np.asarray(succ, dtype=float)):.4f},{build_ns},{query_ns}")
    return rows


def cmd_bench(args) -> int:
    algorithms = args.algorithms.split(",")
    epsilons = [float(e) for e in args.epsilons.split(",")]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    for flag, value in (("--n", args.n), ("--seeds", args.seeds)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, not {value}")
    rows = bench_rows(algorithms, epsilons, args.n, args.seeds, args.p, args.seed)
    out = "\n".join([BENCH_HEADER] + rows)
    if args.out:
        with open(args.out, "w") as f:
            f.write(out + "\n")
        print(json.dumps({"written": args.out, "rows": len(rows)}))
    else:
        print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verification(seed: int = 0, inject_fault: str | None = None) -> list[tuple[str, bool, str]]:
    """Small-n self-checks: every family's ``check_invariants()`` and the accuracy
    of each; returns (check name, ok, detail) triples."""
    results = []
    rng = np.random.default_rng(seed)

    xs = np.sort(rng.integers(1, 2**12, 500).astype(float))
    sk = mult1d.OfflineSketch1D.build(xs, 0.5)
    qs = rng.uniform(1, 2**12, 200)
    t = sk.query_many(qs)
    exact = distance_sums_1d(xs, qs)
    ok = bool(np.all(t <= exact + 1e-9) and np.all(exact <= 1.5 * t + 1e-9))
    results.append(("offline1d sandwich T <= exact <= (1+eps)T", ok, ""))

    sk2 = mult1d.MultStream1D(SketchParams(epsilon=0.25, W=2**12, n_hint=2000, seed=seed))
    stream = rng.integers(1, 2**12, 2000).astype(float)
    sk2.update_many(stream)
    if inject_fault == "capacity":
        # test hook: force one buffer over its declared capacity
        sk2.S.buffers[0] = np.concatenate([sk2.S.buffers[0], np.zeros(sk2.m2 + 1)])
    sk2.freeze()
    exact_all = distance_sums_1d(stream, qs)
    est_all = sk2.query_many(qs)
    ok = bool(np.all(np.abs(est_all - exact_all) <= 1e-6 * np.maximum(exact_all, 1.0)))
    results.append(("mult1d exact regime below retained max", ok, ""))

    dsk = dyn1d.DynSketch1D(SketchParams(epsilon=0.3, n_hint=3000, seed=seed))
    dsk.update_many(rng.uniform(0, 1, 3000))

    tree = add1d.additive_tree_1d(0.1, 2000)
    data = rng.uniform(-1, 1, 2000)
    tree.update_many(data)
    qs1 = rng.uniform(-1, 1, 100)
    est = tree.query_many(qs1)
    orc = distance_sums_1d(data, qs1) / 2000
    results.append(("add1d additive error <= eps", bool(np.max(np.abs(est - orc)) <= 0.1),
                    f"max {np.max(np.abs(est - orc)):.4f}"))

    qt = add2d.additive_quadtree(0.1, 1000, seed=seed)
    pts2 = rng.uniform(0, 1, (1000, 2))
    qt.update_many(pts2)
    est = qt.query((1.0, 0.0), 2.0)
    orc = float(np.mean(2.0 - pts2[:, 0]))
    results.append(("add2d exact when no cell crosses", abs(est - orc) < 1e-9,
                    f"{est:.6f} vs {orc:.6f}"))

    built = {"offline1d": sk, "mult1d": sk2, "dyn1d": dsk, "add1d": tree, "add2d": qt}
    for name in families.FAMILIES:
        viol = built[name].check_invariants()
        results.append((f"{name} invariants", not viol, "; ".join(viol[:3])))

    inst = gen.gen_index1d([1, 0, 1, 1], 0.01, 2000)
    bxs = np.ascontiguousarray(inst.points["x"][:, 0])
    tree1 = add1d.additive_tree_1d(0.003, max(len(bxs), 1), lo=0.0, hi=1.0)
    tree1.update_many(bxs)
    dec = inst.decode(lambda q: tree1.query(q) * len(bxs))
    results.append(("index1d end-to-end decode", dec == list(inst.bits), f"{dec}"))

    th0, _ = gen.closed_form_opt(0.05, 0.0025, 2000, 0)
    th1, _ = gen.closed_form_opt(0.05, 0.0025, 2000, 1)
    sep_ok = (th1 - th0) >= 0.05 / (5 * 0.0025 * 2000)
    results.append(("hard-instance optimum separation >= delta/(5*lam*n)", sep_ok, ""))
    return results


def cmd_verify(args) -> int:
    results = run_verification(seed=args.seed, inject_fault=args.inject_fault)
    for name, ok, detail in results:
        print(f"[PASS] {name}" if ok else f"[FAIL] {name}" + (f" ({detail})" if detail else ""))
    n_fail = sum(not ok for _, ok, _ in results)
    if n_fail:
        _err("verify", f"{n_fail} checks failed")
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it as it
    was, and every call gets a fresh namespace."""
    ap = argparse.ArgumentParser(prog="hingesketch")
    sub = ap.add_subparsers(dest="command", required=True)

    # --format where a stream is written or read, the ingest checks where one is read
    def common(p, writes=False, reads=False):
        p.add_argument("--seed", type=int, default=0)
        if writes or reads:
            p.add_argument("--format", choices=("csv", "bin"), default="csv")
        if reads:
            p.add_argument("--fail-fast", action="store_true")
            p.add_argument("--max-norm", type=float, default=1.0,
                           help="unit-ball relaxation for ingestion (opthard streams use 1+delta)")

    g = sub.add_parser("gen", help="generate a stream plus metadata sidecar")
    common(g, writes=True)
    g.add_argument("--kind", required=True,
                   choices=("uniform", "clustered", "index1d", "index2d", "opthard"))
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--epsilon", type=float, default=0.01)
    g.add_argument("--bits", type=str, default="")
    g.add_argument("--s", type=int, default=6)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--delta", type=float, default=0.1)
    g.add_argument("--case", type=int, default=0, choices=(0, 1))
    g.add_argument("--labels", choices=("positive", "random"), default="positive")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    b = sub.add_parser("build", help="build a sketch from a stream file")
    common(b, reads=True)
    b.add_argument("--algorithm", required=True, choices=list(families.FAMILIES))
    b.add_argument("--input", required=True)
    b.add_argument("--epsilon", type=float, required=True)
    b.add_argument("--W", type=int, default=2**20)
    b.add_argument("--n-hint", type=int, default=0)
    b.add_argument("--p", type=int, default=1, choices=(1, 2))
    b.add_argument("--replicas", type=int, default=1,
                   help="build k independently seeded replicas (files get .0..k-1 suffixes)")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="query a serialized sketch")
    q.add_argument("--sketch", required=True, action="append",
                   help="sketch file; repeat for repeat-and-median boosting")
    q.add_argument("--q", type=float, action="append")
    q.add_argument("--theta", type=str)
    q.add_argument("--b", type=float)
    q.set_defaults(fn=cmd_query)

    o = sub.add_parser("optimize", help="approximately minimize the objective")
    common(o, reads=True)
    o.add_argument("--algorithm", default="add1d", choices=ALGORITHMS)
    o.add_argument("--input", required=True)
    o.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    o.add_argument("--epsilon", type=float, required=True)
    o.add_argument("--replicas", type=int, default=1)
    o.set_defaults(fn=cmd_optimize)

    be = sub.add_parser("bench", help="space/error/runtime table (CSV)")
    common(be)
    be.add_argument("--algorithms", default="offline1d,mult1d,add1d")
    be.add_argument("--epsilons", default="0.2,0.1")
    be.add_argument("--n", type=int, default=5000)
    be.add_argument("--seeds", type=int, default=3)
    be.add_argument("--p", type=int, default=1, choices=(1, 2))
    be.add_argument("--out", default="")
    be.set_defaults(fn=cmd_bench)

    v = sub.add_parser("verify", help="run the invariant self-checks")
    common(v)
    v.add_argument("--inject-fault", default=None, help="test hook: fault name")
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    if "HSK_SEED" in os.environ:
        try:
            args.seed = int(os.environ["HSK_SEED"])
        except ValueError:
            _err("config", "HSK_SEED must be an integer")
            return EXIT_CONFIG
    try:
        return args.fn(args)
    except DataError as e:  # before ValueError, which it subclasses
        _err("data", str(e))
        return EXIT_DATA
    except ValueError as e:  # ConfigError, GridBudgetError and other bad values
        _err("config", str(e))
        return EXIT_CONFIG
    except OSError as e:
        _err("data", str(e))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
