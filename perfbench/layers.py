"""Layers of ``hingesketch`` the traced run wraps, and the per-layer metrics.

Coarse calls (commands, ingest, freeze, to_bytes, from_bytes, grid_points,
build_estimator, estimate_bulk, ...) are spans; calls made once per point,
per query or per candidate are aggregates.  ``core`` and ``gen`` are never
wrapped: they only serve as oracles and input generators.
"""

from __future__ import annotations

import numpy as np

from tracing import Target
from workloads import OPT_FAMILIES

PKG = "hingesketch"


def _size_arg(args, kwargs, result):
    return int(np.size(args[1]))


def _rows(args, kwargs, result):
    return len(result[0])


def _row_errors(args, kwargs, result):
    return len(result[1])


def targets() -> list[Target]:
    """What the traced run wraps.  Owners are dotted paths, so a module or class
    that a refactor renames or moves is reported absent rather than crashing."""
    cli, opt = f"{PKG}.cli", f"{PKG}.optimize"
    mult, offline = f"{PKG}.mult1d.MultStream1D", f"{PKG}.mult1d.OfflineSketch1D"
    dyn, tree, quad = f"{PKG}.dyn1d.DynSketch1D", f"{PKG}.add1d.Tree1D", f"{PKG}.add2d.QuadTree2D"
    t = [
        Target(cli, "ingest", "cli.ingest", True, _rows, _row_errors),
        Target(cli, "load_sketch", "cli.load_sketch", True),
        Target(cli, "cmd_build", "cli.build", True),
        Target(cli, "cmd_query", "cli.query", True),
        Target(cli, "cmd_optimize", "cli.optimize", True),
        Target(f"{PKG}.sampler.LevelSampleBank", "offer_many", "sampler.offer_many", True,
               _size_arg),
        Target(mult, "update_many", "mult1d.update_many", True, _size_arg),
        Target(mult, "query", "mult1d.query"),
        Target(offline, "build", "offline1d.build", True),
        Target(offline, "query_many", "offline1d.query_many"),
        Target(dyn, "update", "dyn1d.update"),
        Target(dyn, "query", "dyn1d.query"),
        Target(tree, "update", "add1d.update"),
        Target(tree, "query_many", "add1d.query_many"),
        Target(quad, "update", "add2d.update"),
        Target(quad, "query", "add2d.query"),
        Target(opt, "optimize_via_sketch", "optimize.optimize_via_sketch", True),
        Target(opt, "grid_points", "optimize.grid_points", True),
        Target(opt, "build_estimator", "optimize.build_estimator", True),
        Target(f"{opt}.HingeEstimator1D", "estimate_bulk", "optimize.estimate_bulk", True),
        Target(opt, "median_estimate", "optimize.median_estimate"),
        Target(f"{opt}.HingeEstimator1D", "estimate", "optimize.estimate"),
        Target(f"{opt}.HingeEstimator2D", "estimate", "optimize.estimate"),
    ]
    for fam, cls in (("mult1d", mult), ("dyn1d", dyn)):
        t.append(Target(cls, "freeze", f"{fam}.freeze", True))
    for fam, cls in (("mult1d", mult), ("offline1d", offline), ("dyn1d", dyn),
                     ("add1d", tree), ("add2d", quad)):
        t.append(Target(cls, "to_bytes", f"{fam}.to_bytes", True))
        t.append(Target(cls, "from_bytes", f"{fam}.from_bytes", True))
    return t


def sketch_stats(path: str, n: int) -> dict:
    """Retained words and structure counts of a sketch file built from ``n`` points."""
    from hingesketch import cli

    sk = cli.load_sketch(path)
    # the offline sketch has no space_words(): it keeps a rank, a point and a prefix sum per entry
    words = sk.space_words() if hasattr(sk, "space_words") else 3 * len(sk)
    out = {"space_words": int(words), "n": n}
    for key, method in (("intervals", "interval_count"), ("nodes", "node_count")):
        if hasattr(sk, method):
            out[key] = int(getattr(sk, method)())
    return out


# (name, unit); the order is the order of BENCHMARK.json's per_layer list.
METRICS = [
    ("cli.ingest.busy_s", "s"), ("cli.ingest.rows", "count"),
    ("cli.ingest.ns_per_row", "ns"), ("cli.ingest.row_errors", "count"),
    ("cli.load_sketch.busy_s", "s"), ("cli.build.self_s", "s"),
    ("cli.query.self_s", "s"), ("cli.optimize.self_s", "s"),
    ("sampler.offer_many.busy_s", "s"), ("sampler.offer_many.calls", "count"),
    ("sampler.offer_many.values", "count"),
    ("mult1d.update_many.self_s", "s"), ("mult1d.update.ns_per_pt", "ns"),
    ("mult1d.freeze.busy_s", "s"), ("mult1d.to_bytes.busy_s", "s"),
    ("mult1d.from_bytes.busy_s", "s"), ("mult1d.query.calls", "count"),
    ("mult1d.query.busy_s", "s"), ("mult1d.query.us_per_call", "us"),
    ("mult1d.space_words", "words"), ("mult1d.words_per_point", "words/pt"),
    ("mult1d.success_rate", "ratio"), ("mult1d.max_rel_err", "ratio"),
    ("offline1d.build.busy_s", "s"), ("offline1d.to_bytes.busy_s", "s"),
    ("offline1d.space_words", "words"),
    ("dyn1d.update.busy_s", "s"), ("dyn1d.update.ns_per_pt", "ns"),
    ("dyn1d.freeze.busy_s", "s"), ("dyn1d.to_bytes.busy_s", "s"),
    ("dyn1d.from_bytes.busy_s", "s"), ("dyn1d.query.calls", "count"),
    ("dyn1d.query.busy_s", "s"), ("dyn1d.query.us_per_call", "us"),
    ("dyn1d.intervals", "count"), ("dyn1d.space_words", "words"),
    ("dyn1d.words_per_point", "words/pt"), ("dyn1d.success_rate", "ratio"),
    ("dyn1d.max_rel_err", "ratio"),
    ("add1d.update.busy_s", "s"), ("add1d.update.ns_per_pt", "ns"),
    ("add1d.to_bytes.busy_s", "s"), ("add1d.from_bytes.busy_s", "s"),
    ("add1d.query_many.calls", "count"), ("add1d.query_many.busy_s", "s"),
    ("add1d.nodes", "count"), ("add1d.space_words", "words"),
    ("add1d.max_abs_err", "abs"),
    ("add2d.update.busy_s", "s"), ("add2d.update.ns_per_pt", "ns"),
    ("add2d.to_bytes.busy_s", "s"), ("add2d.from_bytes.busy_s", "s"),
    ("add2d.query.calls", "count"), ("add2d.query.busy_s", "s"),
    ("add2d.query.us_per_call", "us"), ("add2d.nodes", "count"),
    ("add2d.space_words", "words"), ("add2d.success_rate", "ratio"),
    ("add2d.max_abs_err", "abs"),
    ("optimize.grid_points.busy_s", "s"), ("optimize.grid_size", "count"),
    ("optimize.build_estimator.busy_s", "s"), ("optimize.estimate_bulk.busy_s", "s"),
    ("optimize.median_estimate.calls", "count"), ("optimize.median_estimate.busy_s", "s"),
    *[(f"optimize.candidates_per_s.{fam}", "1/s") for fam in OPT_FAMILIES],
    ("trace.overhead_ratio", "ratio"),
]


def layer_values(tot: dict, space: dict, accuracy: dict, opt: dict,
                 overhead: float) -> dict[str, float]:
    """Per-layer metric values of one traced round.

    ``tot`` is ``Tracer.totals()``, ``space`` maps family to ``sketch_stats``,
    ``accuracy`` family to ``gate.Accuracy``, ``opt`` family to the traced
    optimize command's ``(grid_size, seconds)``.
    """
    def get(label, key):
        return tot.get(label, {}).get(key, 0)

    def per(label, num_key, den, scale):
        return get(label, num_key) / den * scale if den else 0.0

    v: dict[str, float] = {}
    for label in ("cli.ingest", "cli.load_sketch", "sampler.offer_many", "mult1d.freeze",
                  "mult1d.to_bytes", "mult1d.from_bytes", "mult1d.query",
                  "offline1d.build", "offline1d.to_bytes", "dyn1d.update", "dyn1d.freeze",
                  "dyn1d.to_bytes", "dyn1d.from_bytes", "dyn1d.query", "add1d.update",
                  "add1d.to_bytes", "add1d.from_bytes", "add1d.query_many",
                  "add2d.update", "add2d.to_bytes", "add2d.from_bytes", "add2d.query",
                  "optimize.grid_points", "optimize.build_estimator",
                  "optimize.estimate_bulk", "optimize.median_estimate"):
        v[f"{label}.busy_s"] = get(label, "busy")
        v[f"{label}.calls"] = get(label, "calls")
    for label in ("cli.build", "cli.query", "cli.optimize", "mult1d.update_many"):
        v[f"{label}.self_s"] = get(label, "self")
    v["cli.ingest.rows"] = get("cli.ingest", "units")
    v["cli.ingest.row_errors"] = get("cli.ingest", "errors")
    v["cli.ingest.ns_per_row"] = per("cli.ingest", "busy", get("cli.ingest", "units"), 1e9)
    v["sampler.offer_many.values"] = get("sampler.offer_many", "units")
    v["mult1d.update.ns_per_pt"] = per("mult1d.update_many", "busy",
                                       get("mult1d.update_many", "units"), 1e9)
    for fam in ("dyn1d", "add1d", "add2d"):
        v[f"{fam}.update.ns_per_pt"] = per(f"{fam}.update", "busy",
                                           get(f"{fam}.update", "calls"), 1e9)
    for label in ("mult1d.query", "dyn1d.query", "add2d.query"):
        v[f"{label}.us_per_call"] = per(label, "busy", get(label, "calls"), 1e6)
    for fam, st in space.items():
        v[f"{fam}.space_words"] = st["space_words"]
        v[f"{fam}.words_per_point"] = st["space_words"] / st["n"] if st["n"] else 0.0
        for key in ("intervals", "nodes"):
            if key in st:
                v[f"{fam}.{key}"] = st[key]
    for fam, acc in accuracy.items():
        v[f"{fam}.success_rate"] = acc.success_rate
        err = "max_abs_err" if fam.startswith("add") else "max_rel_err"
        v[f"{fam}.{err}"] = acc.max_err
    v["optimize.grid_size"] = sum(g for g, _ in opt.values())
    for fam, (grid, secs) in opt.items():
        v[f"optimize.candidates_per_s.{fam}"] = grid / secs if secs else 0.0
    v["trace.overhead_ratio"] = overhead
    return v
