"""Regenerate workloads.json: for each workload its seed, sizes, exact argv,
the reason it exists and the sha256 of every input file at that seed.

    python3 perfbench/records.py

run.py compares the inputs it generates at the recorded seed with these
digests, so a change to ``gen.gen_opt_hard`` or to the benchmark's writers,
which alters the inputs, is caught.  WORK stands for the run's work directory.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl

SEED = 0
RECORDS = Path(__file__).resolve().parent / "workloads.json"


def records(tmp: Path) -> dict:
    sys.path.insert(0, str(wl.ROOT / "src"))
    work = Path("WORK")
    out = {}
    for name, spec in wl.WORKLOADS.items():
        wl.make_inputs(name, SEED, tmp / name)
        prefix, replicas = wl.query_prefix(spec), spec["replicas"]
        query = {}
        for fam in wl.QUERY_FAMILIES:
            argv = ["query"] + [a for p in wl.sketch_paths(work, fam, prefix, replicas)
                                for a in ("--sketch", p)]
            if fam == "add2d":
                argv += ["--theta=<cos a>,<sin a>", "--b=<offset>"]
            else:
                argv += [f"--q=<{wl.QUERIES_PER_CALL} values on [-{wl.Q_RANGE}, {wl.Q_RANGE}]>"]
            query[fam] = argv
        out[name] = {
            "why": spec["why"],
            "seed": SEED,
            "seed_argument": "--seed (inputs, sketch seeds and query points derive from it)",
            "sizes": {k: spec[k] for k in ("build_n", "query_n", "replicas")}
                     | {"halfplane_n": wl.HP_N, "opthard_n": wl.OPTHARD_N,
                        "queries_per_call": wl.QUERIES_PER_CALL},
            "share": spec["share"],
            "argv": {
                "build": {f: wl.build_argv(work, f, SEED) for f in wl.FAMILIES},
                "set-up": {f: wl.build_argv(work, f, SEED, prefix, replicas)
                           for f in wl.FAMILIES} if prefix else {},
                "query": query,
                "optimize": {f: wl.optimize_argv(work, f, inst, lam, eps, SEED)
                             for f, (inst, lam, eps) in spec["opt"].items()},
            },
            "sha256": {n: wl.sha256(tmp / name / n) for n in wl.input_names(spec)},
        }
    return out


if __name__ == "__main__":
    work = wl.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="records-", dir=work))
    try:
        RECORDS.write_text(json.dumps(records(tmp), indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
