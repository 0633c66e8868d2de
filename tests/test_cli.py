import functools
import io
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hingesketch import add1d, add2d, cli, families, optimize
from hingesketch.add1d import additive_tree_1d
from hingesketch.add2d import QuadTree2D, additive_quadtree
from hingesketch.core import HyperplaneQuery, SketchParams, hinge_objective
from hingesketch.dyn1d import DynSketch1D
from hingesketch.gen import gen_uniform
from hingesketch.mult1d import MultStream1D, OfflineSketch1D
from hingesketch.serialize import FormatError, Writer
from hingesketch.stream import MAGIC, make_records, record_dtype


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def build_1d(capsys, tmp_path, algorithm, name, *flags):
    """Build a sketch of a shared 300-point d=1 stream; returns (path, build record)."""
    stream = tmp_path / "u.csv"
    if not stream.exists():
        run(capsys, "gen", "--kind", "uniform", "--n", "300", "--out", str(stream))
    path = tmp_path / name
    code, out, err = run(capsys, "build", "--algorithm", algorithm, "--input", str(stream),
                         "--out", str(path), *flags)
    assert code == 0, err
    return str(path), json.loads(out)


def last_error(err):
    return json.loads(err.strip().splitlines()[-1])["error"]


class TestIngest:
    def test_csv_basic(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1,0.5\n-1,-0.25\n")
        pts, errs = cli.ingest(str(f), "csv")
        assert not errs
        assert pts["x"][0].tolist() == [0.5] and pts["y"][0] == 1
        assert pts["y"][1] == -1

    def test_bad_label_reported_with_line(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1,0.5\n0,0.5\n")
        pts, errs = cli.ingest(str(f), "csv")
        assert len(pts) == 1
        assert errs == ["line 2: label must be -1 or 1"]

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan"])
    def test_non_finite_label_is_bad_label(self, tmp_path, label):
        f = tmp_path / "s.csv"
        f.write_text(f"1,0.5\n{label},0.5\n")
        pts, errs = cli.ingest(str(f), "csv")
        assert len(pts) == 1
        assert errs == [f"line 2: bad label {label!r}"]

    @pytest.mark.parametrize("label", ["1.5", "-1.9", "0.5", "1.0000000000000002"])
    def test_fractional_label_rejected(self, tmp_path, label):
        f = tmp_path / "s.csv"
        f.write_text(f"{label},0.5\n-1,0.2\n")
        pts, errs = cli.ingest(str(f), "csv")
        assert pts["y"].tolist() == [-1]
        assert errs == ["line 1: label must be -1 or 1"]

    def test_float_spelled_labels_accepted(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1.0,0.5\n1e0,0.25\n-1.0,0.2\n-1e0,0.1\n")
        pts, errs = cli.ingest(str(f), "csv")
        assert not errs
        assert pts["y"].tolist() == [1, 1, -1, -1]

    @pytest.mark.parametrize("label", ["inf", "1.5"])
    def test_bad_label_fail_fast_exits_3(self, tmp_path, capsys, label):
        f = tmp_path / "s.csv"
        f.write_text(f"1,0.5\n{label},0.5\n")
        code, _, err = run(capsys, "build", "--algorithm", "add1d", "--input", str(f),
                           "--epsilon", "0.2", "--fail-fast", "--out", str(tmp_path / "s.hsk"))
        assert code == cli.EXIT_DATA
        assert json.loads(err.strip().splitlines()[-1])["message"].startswith("line 2: ")

    def test_dimension_drift(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1,0.5\n1,0.5,0.5\n")
        pts, errs = cli.ingest(str(f), "csv")
        assert len(pts) == 1 and "drift" in errs[0]

    def test_norm_violation(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1,0.9,0.9\n")
        pts, errs = cli.ingest(str(f), "csv")
        assert len(pts) == 0 and "exceeds" in errs[0]
        pts2, errs2 = cli.ingest(str(f), "csv", max_norm=1.5)
        assert len(pts2) == 1 and not errs2

    def test_max_norm_bounds_the_build(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        f.write_text("1,5\n-1,-7\n1,0.5\n")  # norms 5, 7 and 0.5
        for max_norm, points, bad in (("1", 1, 2), ("inf", 3, 0)):
            code, out, err = run(capsys, "build", "--algorithm", "offline1d", "--input", str(f),
                                 "--epsilon", "0.2", "--max-norm", max_norm,
                                 "--out", str(tmp_path / "s"))
            assert code == 0 and json.loads(out)["points"] == points
            assert sum("exceeds bound" in e for e in err.splitlines()) == bad

    @pytest.mark.parametrize("max_norm", ["nan", "-1", "-inf"])
    @pytest.mark.parametrize("command", ["build", "optimize"])
    def test_bad_max_norm_is_config_error(self, tmp_path, capsys, command, max_norm):
        f = tmp_path / "s.csv"
        f.write_text("1,5\n-1,-7\n1,0.5\n")
        flags = (["--algorithm", "offline1d", "--epsilon", "0.2", "--out", str(tmp_path / "s")]
                 if command == "build" else ["--lam", "0.5", "--epsilon", "0.5"])
        code, out, err = run(capsys, command, "--input", str(f), f"--max-norm={max_norm}", *flags)
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert "max_norm must be >= 0" in err and not (tmp_path / "s").exists()

    def test_fail_fast(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("0,0.5\n")
        with pytest.raises(cli.DataError):
            cli.ingest(str(f), "csv", fail_fast=True)

    def test_csv_bin_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        a, b, y = rng.uniform(-0.5, 0.5, 30), rng.uniform(-0.5, 0.5, 30), rng.choice([-1, 1], 30)
        pts = make_records(y, np.column_stack([a, b]))
        c = tmp_path / "s.csv"
        b = tmp_path / "s.bin"
        cli.write_stream(pts, str(c), "csv")
        cli.write_stream(pts, str(b), "bin")
        for path, fmt in ((c, "csv"), (b, "bin")):
            records, errors = cli.ingest(str(path), fmt)
            assert not errors
            assert records["y"].tolist() == [p.y for p in pts]
            assert records["x"].tolist() == [list(p.x) for p in pts]

    def test_valid_bin_blocks_are_the_payload(self, tmp_path, monkeypatch):
        """The records of a valid two-block HSTR file are its payload bytes, writable."""
        monkeypatch.setattr("hingesketch.stream._BLOCK_ROWS", 64)
        rng = np.random.default_rng(1)
        rec = np.empty(100, record_dtype(2))
        rec["y"] = rng.choice([-1, 1], 100)
        rec["x"] = rng.uniform(-0.7, 0.7, (100, 2))
        f = tmp_path / "s.bin"
        f.write_bytes(MAGIC + struct.pack("<I", 2) + rec.tobytes())
        records, errors = cli.ingest(str(f), "bin")
        assert not errors and records.flags.writeable
        assert records.tobytes() == f.read_bytes()[8:]

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        f.write_bytes(b"1,0.5\n\xff,0.2\n")
        code, out, err = run(capsys, "build", "--algorithm", "add1d", "--input", str(f),
                             "--epsilon", "0.2", "--out", str(tmp_path / "s.hsk"))
        assert code == cli.EXIT_DATA and not out
        assert len(err.strip().splitlines()) == 1
        assert last_error(err) == "data" and str(f) in err

    def test_bin_header_check(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"XXXX" + struct.pack("<I", 1))
        with pytest.raises(cli.DataError, match="header"):
            cli.ingest(str(f), "bin")

    @pytest.mark.parametrize("d", [0, 2**32 - 1])
    def test_bin_header_dimension_out_of_range(self, tmp_path, capsys, d):
        f = tmp_path / "d.bin"
        f.write_bytes(MAGIC + struct.pack("<I", d) + b"\x01" * 5)
        with pytest.raises(cli.DataError, match=rf"bad stream header \(dimension {d}\)"):
            cli.ingest(str(f), "bin")
        code, _, err = run(capsys, "build", "--algorithm", "add2d", "--format", "bin",
                           "--input", str(f), "--epsilon", "0.2", "--out", str(tmp_path / "s"))
        assert code == cli.EXIT_DATA
        assert len(err.strip().splitlines()) == 1

    def test_csv_decodes_as_utf8_in_any_locale(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes("# café — sample\n1,0.5\n-1,0.25\n".encode())
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hingesketch.cli", "build", "--algorithm", "add1d",
             "--input", str(f), "--epsilon", "0.2", "--out", str(tmp_path / "s.hsk")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["points"] == 2

    @pytest.mark.parametrize("command", ["build", "optimize"])
    def test_stdin_reads_as_the_file(self, tmp_path, capsys, monkeypatch, command):
        f = tmp_path / "s.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "300", "--labels", "random",
            "--out", str(f))
        monkeypatch.setattr("sys.stdin", io.StringIO(f.read_text()))
        outputs = []
        for src in (str(f), "-"):
            out = tmp_path / ("stdin.hsk" if src == "-" else "path.hsk")
            if command == "build":
                argv = ["build", "--algorithm", "mult1d", "--epsilon", "0.3", "--out", str(out)]
            else:
                argv = ["optimize", "--algorithm", "add1d", "--lam", "0.5", "--epsilon", "0.3"]
            code, stdout, _ = run(capsys, *argv, "--input", src)
            assert code == cli.EXIT_OK
            outputs.append(out.read_bytes() if command == "build" else stdout)
        assert outputs[0] == outputs[1]

    def test_stdin_is_csv_only(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "build", "--algorithm", "add2d", "--format", "bin",
                           "--input", "-", "--epsilon", "0.2", "--out", "s.hsk")
        assert code == cli.EXIT_DATA and "No such file" in err

    @pytest.mark.parametrize("command", ["build", "optimize"])
    def test_commands_read_through_cli_ingest(self, tmp_path, capsys, monkeypatch, command):
        """Each command reads its stream with one call of ``cli.ingest``, the
        name the benchmark's ingest layer wraps."""
        f = tmp_path / "s.csv"
        f.write_text("1,0.5\n-1,-0.25\n1,0.75\n")
        calls, ingest = [], cli.ingest

        def counted(*args, **kwargs):
            calls.append(args)
            return ingest(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest", counted)
        if command == "build":
            argv = ["build", "--algorithm", "add1d", "--out", str(tmp_path / "s.hsk")]
        else:
            argv = ["optimize", "--lam", "0.5"]
        code, _, _ = run(capsys, *argv, "--input", str(f), "--epsilon", "0.3")
        assert code == cli.EXIT_OK and calls == [(str(f), "csv")]


class TestCommands:
    def test_gen_build_query_roundtrip(self, tmp_path, capsys):
        stream = tmp_path / "u.csv"
        sketch = tmp_path / "u.hsk"
        code, out, _ = run(capsys, "gen", "--kind", "uniform", "--n", "400",
                           "--d", "1", "--out", str(stream))
        assert code == 0
        assert json.loads(out)["points"] == 400
        code, out, _ = run(capsys, "build", "--algorithm", "add1d", "--input",
                           str(stream), "--epsilon", "0.1", "--out", str(sketch))
        assert code == 0
        code, out, _ = run(capsys, "query", "--sketch", str(sketch), "--q", "0.5")
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        pts, _ = cli.ingest(str(stream), "csv")
        xs = pts["x"][:, 0]
        truth = float(np.mean(np.maximum(0.0, 0.5 - xs)))
        assert abs(rec["estimate"] - truth) <= 0.1

    @pytest.mark.parametrize("algorithm", ["offline1d", "mult1d", "dyn1d", "add1d"])
    def test_build_loads_bit_identical(self, tmp_path, capsys, algorithm):
        stream = tmp_path / "u.csv"
        sketch = tmp_path / "u.hsk"
        run(capsys, "gen", "--kind", "uniform", "--n", "500", "--out", str(stream))
        code, _, _ = run(capsys, "build", "--algorithm", algorithm, "--input",
                         str(stream), "--epsilon", "0.2", "--W", "1024",
                         "--out", str(sketch))
        assert code == 0
        sk = cli.load_sketch(str(sketch))
        data = open(sketch, "rb").read()
        if hasattr(sk, "to_bytes"):
            assert sk.to_bytes() == data

    def test_add2d_build_and_query(self, tmp_path, capsys):
        stream = tmp_path / "u2.csv"
        sketch = tmp_path / "u2.hsk"
        run(capsys, "gen", "--kind", "uniform", "--n", "600", "--d", "2",
            "--out", str(stream))
        code, _, _ = run(capsys, "build", "--algorithm", "add2d", "--input",
                         str(stream), "--epsilon", "0.1", "--out", str(sketch))
        assert code == 0
        code, out, _ = run(capsys, "query", "--sketch", str(sketch),
                           "--theta", "1,0", "--b", "2.0")
        assert code == 0
        assert json.loads(out)["estimate"] > 0
        code, _, err = run(capsys, "query", "--sketch", str(sketch),
                           "--theta", "1", "--b", "2.0")
        assert code == cli.EXIT_CONFIG and last_error(err) == "config"

    def test_repeat_and_median_boosting(self, tmp_path, capsys):
        stream = tmp_path / "u2.csv"
        base = tmp_path / "m.hskq"
        run(capsys, "gen", "--kind", "uniform", "--n", "500", "--d", "2",
            "--out", str(stream))
        code, out, _ = run(capsys, "build", "--algorithm", "add2d", "--input",
                           str(stream), "--epsilon", "0.1", "--replicas", "3",
                           "--out", str(base))
        assert code == 0
        paths = json.loads(out)["written"]
        assert len(paths) == 3
        code, out, _ = run(capsys, "query", *sum((["--sketch", p] for p in paths), []),
                           "--theta", "0.6,0.8", "--b", "0.5")
        assert code == 0
        rec = json.loads(out)
        assert rec["replicas"] == 3
        singles = []
        for p in paths:
            code, out, _ = run(capsys, "query", "--sketch", p,
                               "--theta", "0.6,0.8", "--b", "0.5")
            singles.append(json.loads(out)["estimate"])
        assert rec["estimate"] == sorted(singles)[1]

    @pytest.mark.parametrize("replicas", ["0", "-2"])
    def test_build_without_replicas_is_config_error(self, tmp_path, capsys, replicas):
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "100", "--out", str(stream))
        code, out, err = run(capsys, "build", "--algorithm", "add1d", "--input", str(stream),
                             "--epsilon", "0.2", "--replicas", replicas,
                             "--out", str(tmp_path / "s"))
        assert code == cli.EXIT_CONFIG and not out
        assert last_error(err) == "config" and "--replicas must be >= 1" in err
        assert not list(tmp_path.glob("s*"))

    def test_even_sketch_count_rejected(self, tmp_path, capsys):
        stream = tmp_path / "u.csv"
        sketch = tmp_path / "u.hsk"
        run(capsys, "gen", "--kind", "uniform", "--n", "100", "--out", str(stream))
        run(capsys, "build", "--algorithm", "add1d", "--input", str(stream),
            "--epsilon", "0.2", "--out", str(sketch))
        code, _, err = run(capsys, "query", "--sketch", str(sketch), "--sketch",
                           str(sketch), "--q", "0.5")
        assert code == cli.EXIT_CONFIG and "odd" in err

    def test_mixed_sketch_files_rejected(self, tmp_path, capsys):
        a, _ = build_1d(capsys, tmp_path, "add1d", "a.hskb", "--epsilon", "0.1")
        a2, _ = build_1d(capsys, tmp_path, "add1d", "a2.hskb", "--epsilon", "0.2")
        m, _ = build_1d(capsys, tmp_path, "mult1d", "m.hsk1", "--epsilon", "0.1")
        o, _ = build_1d(capsys, tmp_path, "offline1d", "o.hsko", "--epsilon", "0.1")
        for files in ([a, m, o], [a, a2, a]):
            code, out, err = run(capsys, "query", *sum((["--sketch", f] for f in files), []),
                                 "--q", "0.5")
            assert code == cli.EXIT_CONFIG and not out
            assert last_error(err) == "config"

    @pytest.mark.parametrize("algorithm,value", [
        ("mult1d", "inf"), ("dyn1d", "nan"), ("add1d", "nan"), ("offline1d", "-inf"),
    ])
    def test_non_finite_q_is_config_error(self, tmp_path, capsys, algorithm, value):
        path, _ = build_1d(capsys, tmp_path, algorithm, "s.bin", "--epsilon", "0.2")
        code, out, err = run(capsys, "query", "--sketch", path, "--q", "0.5", f"--q={value}")
        assert code == cli.EXIT_CONFIG and not out
        assert last_error(err) == "config"

    @pytest.mark.parametrize("algorithm", ["mult1d", "dyn1d"])
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_query_below_every_point_prints_positive_zero(self, tmp_path, capsys, algorithm,
                                                          replicas):
        stream = tmp_path / "s.csv"
        xs = np.random.default_rng(5).uniform(-1.0, 1.0, 2000).tolist()
        stream.write_text("".join(f"1,{x!r}\n" for x in xs))
        out = str(tmp_path / "s.hsk")
        code, _, err = run(capsys, "build", "--algorithm", algorithm, "--input", str(stream),
                           "--epsilon", "0.3", "--replicas", str(replicas), "--out", out)
        assert code == 0, err
        files = [out] if replicas == 1 else [f"{out}.{i}" for i in range(replicas)]
        code, out, _ = run(capsys, "query", *sum((["--sketch", f] for f in files), []),
                           "--q=-1.2")
        assert code == 0
        assert '"estimate": 0.0,' in out

    # 1.5e308,1.5e308 is finite but its norm overflows
    @pytest.mark.parametrize("theta,b", [("nan,0", "0.5"), ("1,0", "inf"),
                                         ("1.5e308,1.5e308", "0")])
    def test_non_finite_halfplane_is_config_error(self, tmp_path, capsys, theta, b):
        stream = tmp_path / "u2.csv"
        sketch = tmp_path / "u2.hsk"
        run(capsys, "gen", "--kind", "uniform", "--n", "200", "--d", "2", "--out", str(stream))
        run(capsys, "build", "--algorithm", "add2d", "--input", str(stream),
            "--epsilon", "0.2", "--out", str(sketch))
        code, out, err = run(capsys, "query", "--sketch", str(sketch), f"--theta={theta}",
                             f"--b={b}")
        assert code == cli.EXIT_CONFIG and not out
        assert [json.loads(line)["error"] for line in err.splitlines()] == ["config"]

    @pytest.mark.parametrize("algorithm,flags", [
        ("mult1d", ["--q=1e308"]), ("dyn1d", ["--q", "0.5", "--q=1e308"]),
        ("add1d", ["--q=1e308"]), ("offline1d", ["--q=1e308", "--q", "0.5"]),
        ("add2d", ["--theta=1,0", "--b=1e308"]),
    ])
    def test_overflowing_estimate_is_config_error(self, tmp_path, capsys, algorithm, flags):
        """An estimate past float64 prints no record and no numpy warning."""
        stream = tmp_path / "u.csv"
        d = "2" if algorithm == "add2d" else "1"
        run(capsys, "gen", "--kind", "uniform", "--n", "200", "--d", d, "--out", str(stream))
        sketch = str(tmp_path / "s.hsk")
        code, _, err = run(capsys, "build", "--algorithm", algorithm, "--input", str(stream),
                           "--epsilon", "0.3", "--out", sketch)
        assert code == 0, err
        code, out, err = run(capsys, "query", "--sketch", sketch, *flags)
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert "1e+308" in err and "overflows" in err

    def test_parser_is_built_once_and_keeps_no_values(self, tmp_path, capsys):
        """main reuses one parser; each command reads as it does on a fresh one."""
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "200", "--out", str(stream))
        sketch, _ = build_1d(capsys, tmp_path, "add1d", "a.hskb", "--epsilon", "0.2")
        commands = [
            ["query", "--sketch", sketch, "--q", "0.1", "--q", "0.5", "--q", "0.9"],
            ["query", "--sketch", sketch, "--q", "0.4"],
            ["query", "--sketch", sketch, "--sketch", sketch, "--q", "0.4"],  # even count
            ["query", "--q", "0.4"],  # no --sketch: argparse's error
            ["build", "--algorithm", "add1d", "--input", str(stream), "--epsilon", "0.3",
             "--out", str(tmp_path / "b.hskb")],
        ]
        fresh = []
        for argv in commands:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        reused = [run(capsys, *argv) for argv in commands]
        assert cli.build_parser() is cli.build_parser()
        assert reused == fresh
        assert [len(out.splitlines()) for _, out, _ in reused] == [3, 1, 0, 0, 1]
        assert [code for code, _, _ in reused] == [0, 0, cli.EXIT_CONFIG, cli.EXIT_CONFIG, 0]

    @pytest.mark.parametrize("d,flags", [
        (1, ["--q", "0.3", "--theta=1,0", "--b=0.2"]), (1, ["--q", "0.3", "--b=0.2"]),
        (1, ["--theta=1,0", "--b=0.2"]), (2, ["--theta=0.6,0.8", "--b=0.1", "--q", "0.5"]),
    ])
    def test_flags_of_the_other_dimension_are_config_error(self, tmp_path, capsys, d, flags):
        stream = tmp_path / "u.csv"
        sketch = tmp_path / "u.hsk"
        run(capsys, "gen", "--kind", "uniform", "--n", "200", "--d", str(d), "--out", str(stream))
        run(capsys, "build", "--algorithm", "add1d" if d == 1 else "add2d", "--input",
            str(stream), "--epsilon", "0.2", "--out", str(sketch))
        code, out, err = run(capsys, "query", "--sketch", str(sketch), *flags)
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"

    def test_build_warns_when_not_sublinear(self, tmp_path, capsys):
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "100000", "--out", str(stream))
        code, out, err = run(capsys, "build", "--algorithm", "mult1d", "--input", str(stream),
                             "--epsilon", "0.1", "--out", str(tmp_path / "m.hsk1"))
        assert code == 0
        warning = json.loads(err)
        assert warning == {"warning": "not_sublinear", "points": 100000,
                           "space_words": json.loads(out)["space_words"]}
        assert warning["space_words"] >= 100000
        code, out, err = run(capsys, "build", "--algorithm", "add1d", "--input", str(stream),
                             "--epsilon", "0.1", "--out", str(tmp_path / "a.hskb"))
        assert code == 0 and not err

    @pytest.mark.parametrize("algorithm,damage", [
        ("mult1d", "truncated"), ("mult1d", "reserved byte"), ("offline1d", "trailing"),
        ("mult1d", "trailing"), ("dyn1d", "trailing"), ("add1d", "trailing"),
    ])
    def test_malformed_sketch_file_is_data_error(self, tmp_path, capsys, algorithm, damage):
        path, _ = build_1d(capsys, tmp_path, algorithm, "s.bin", "--epsilon", "0.2")
        data = open(path, "rb").read()
        if damage == "truncated":
            data = data[: len(data) // 2]
        elif damage == "trailing":
            data += b"\x07" * 7
        else:  # the HSK1 byte after the seed is reserved and must be 0
            data = data[:63] + b"\x01" + data[64:]
        open(path, "wb").write(data)
        code, out, err = run(capsys, "query", "--sketch", path, "--q", "0.5")
        assert code == cli.EXIT_DATA and not out
        assert last_error(err) == "data"

    @pytest.mark.parametrize("algorithm", ["mult1d", "dyn1d"])
    def test_p2_header_is_data_error(self, tmp_path, capsys, algorithm):
        path, _ = build_1d(capsys, tmp_path, algorithm, "s.bin", "--epsilon", "0.2")
        data = bytearray(open(path, "rb").read())
        assert data[54] == 1  # p follows eps, W, n_hint and C1, C2, C
        data[54] = 2
        open(path, "wb").write(data)
        code, out, err = run(capsys, "query", "--sketch", path, "--q", "0.5")
        assert code == cli.EXIT_DATA and not out
        assert last_error(err) == "data" and f"{algorithm} answers p=1 only" in err

    @pytest.mark.parametrize("algorithm", ["offline1d", "mult1d", "dyn1d"])
    def test_build_p2_of_a_p1_family_is_config_error(self, tmp_path, capsys, algorithm):
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "50", "--out", str(stream))
        code, out, err = run(capsys, "build", "--algorithm", algorithm, "--input", str(stream),
                             "--epsilon", "0.2", "--p", "2", "--out", str(tmp_path / "s"))
        assert code == cli.EXIT_CONFIG and not out
        assert last_error(err) == "config" and f"{algorithm} answers p=1 only" in err
        assert not (tmp_path / "s").exists()

    def test_offline_space_words_counts_three_per_entry(self, tmp_path, capsys):
        path, rec = build_1d(capsys, tmp_path, "offline1d", "o.hsko", "--epsilon", "0.2")
        sk = cli.load_sketch(path)
        assert rec["space_words"] == 3 * len(sk) == sk.space_words()

    def test_dimension_compat_enforced(self, tmp_path, capsys):
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "50", "--d", "2",
            "--out", str(stream))
        code, _, err = run(capsys, "build", "--algorithm", "mult1d", "--input",
                           str(stream), "--epsilon", "0.2", "--out",
                           str(tmp_path / "x.hsk"))
        assert code == cli.EXIT_CONFIG
        assert "requires d=1" in err

    def test_opthard_gen_with_sidecar(self, tmp_path, capsys):
        stream = tmp_path / "h.csv"
        code, _, _ = run(capsys, "gen", "--kind", "opthard", "--delta", "0.1",
                         "--n", "400", "--out", str(stream))
        assert code == 0
        meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
        assert meta["lam"] == pytest.approx(0.01)
        assert meta["max_norm"] == pytest.approx(1.1)
        pts, errs = cli.ingest(str(stream), "csv", max_norm=meta["max_norm"])
        assert len(pts) == 400 and not errs

    def test_optimize_command(self, tmp_path, capsys):
        stream = tmp_path / "h.csv"
        run(capsys, "gen", "--kind", "opthard", "--delta", "0.1", "--n", "400",
            "--out", str(stream))
        meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
        code, out, _ = run(capsys, "optimize", "--algorithm", "add1d", "--input",
                           str(stream), "--lam", "0.01", "--epsilon", "0.2",
                           "--max-norm", "1.1")
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["theta"][0] - meta["theta_star_magnitude"]) <= 1.0

    def test_hsk_seed_env_override(self, tmp_path, capsys, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.setenv("HSK_SEED", "123")
        run(capsys, "gen", "--kind", "uniform", "--n", "50", "--seed", "0",
            "--out", str(a))
        monkeypatch.delenv("HSK_SEED")
        run(capsys, "gen", "--kind", "uniform", "--n", "50", "--seed", "123",
            "--out", str(b))
        assert a.read_text() == b.read_text()

    # a seed past int64 at either end, and replica seeds that leave int64 or
    # wrap past 2^64; a RuntimeWarning fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["mult1d", "dyn1d", "add2d"])
    @pytest.mark.parametrize("seed,replicas", [
        (-1, 3), (2**63, 1), (2**63 - 1, 3), (2**64 - 1, 3)])
    def test_build_takes_any_integer_seed(self, tmp_path, capsys, algorithm, seed, replicas):
        d = "2" if algorithm == "add2d" else "1"
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "200", "--d", d, "--out", str(stream))
        out = str(tmp_path / "s")
        build = ["build", "--algorithm", algorithm, "--input", str(stream), "--epsilon", "0.3"]
        code, _, err = run(capsys, *build, f"--seed={seed}", "--replicas", str(replicas),
                           "--out", out)
        assert code == 0 and all("warning" in json.loads(e) for e in err.splitlines())
        files = [out] if replicas == 1 else [f"{out}.{i}" for i in range(replicas)]
        flags = ["--theta", "0.6,0.8", "--b", "0.5"] if d == "2" else ["--q", "0.5"]
        code, got, _ = run(capsys, "query", *sum((["--sketch", f] for f in files), []), *flags)
        assert code == 0 and json.loads(got)["replicas"] == replicas
        if seed == 2**64 - 1:  # the second replica's seed wraps to 0
            assert run(capsys, *build, "--seed", "0", "--out", str(tmp_path / "z"))[0] == 0
            assert (tmp_path / "s.1").read_bytes() == (tmp_path / "z").read_bytes()

    @given(st.integers(-2**63, 2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_seed_in_int64_keeps_its_header_bytes(self, seed):
        w = Writer(MultStream1D.MAGIC)
        w.fields(SketchParams(0.5, seed=seed), SketchParams.HEADER)
        assert w.getvalue()[-8:] == struct.pack("<q", seed)
        # HSKQ: magic, version, eps_struct, n_declared and p, then the seed
        assert QuadTree2D(0.25, 10, seed=seed).to_bytes()[23:31] == struct.pack("<q", seed)

    # --format is on the commands that write or read a stream, --fail-fast and
    # --max-norm on those that read one, --seed on all but query, which draws
    # nothing; argparse refuses them elsewhere
    @pytest.mark.parametrize("command,flag", [
        ("gen", "--fail-fast"), ("gen", "--max-norm 0.01"), ("query", "--seed 1"),
        *((c, f) for c in ("query", "bench", "verify")
          for f in ("--format bin", "--fail-fast", "--max-norm 7"))])
    def test_flags_a_command_does_not_read_exit_2(self, tmp_path, capsys, command, flag):
        out = tmp_path / "s.csv"
        argv = {"gen": ["--kind", "uniform", "--n", "10", "--out", str(out)],
                "query": ["--sketch", str(tmp_path / "s.hsk"), "--q", "0.5"],
                "bench": ["--n", "10", "--seeds", "1"], "verify": []}[command]
        code, stdout, err = run(capsys, command, *argv, *flag.split())
        assert code == cli.EXIT_CONFIG and not stdout and not out.exists()
        assert f"unrecognized arguments: {flag}" in err

    def test_index1d_gen_metadata(self, tmp_path, capsys):
        stream = tmp_path / "i.csv"
        code, _, _ = run(capsys, "gen", "--kind", "index1d", "--bits", "101",
                         "--epsilon", "0.01", "--n", "1000", "--out", str(stream))
        assert code == 0
        meta = json.loads((tmp_path / "i.csv.meta.json").read_text())
        assert len(meta["queries"]) == 3
        assert meta["per_bit"] == 100


# node records of the tree files, all counters zero
HSKB_NODE = struct.Struct("<BQdd")  # has-children, c, s, s2
HSKQ_NODE = struct.Struct("<BQ5dQB")  # has-children, c, X..Zxy, reservoir count, has-sample


class TestOptimizeRecords:
    """``optimize`` feeds ingest's records straight to the library: its output
    equals the library's on the generator's record array of the same rows."""

    # algorithm: (d, lambda, epsilon, replicas)
    CASES = {"offline1d": (1, 0.5, 0.3, 1), "add1d": (1, 0.5, 0.3, 1),
             "mult1d": (1, 0.5, 0.4, 3), "dyn1d": (1, 0.5, 0.3, 3), "add2d": (2, 0.5, 0.5, 1),
             "pegasos": (1, 0.5, 0.2, 1)}

    def run_optimize(self, capsys, tmp_path, algorithm, labels):
        d, lam, eps, k = self.CASES[algorithm]
        pts = gen_uniform(300, d, seed=21, low=-1.0)
        if labels == "halfplane":  # the side of sum(x) = 0.1, 10% of the labels flipped
            flip = np.random.default_rng(22).uniform(size=len(pts)) < 0.1
            pts["y"] = np.where(pts["x"].sum(axis=1) > 0.1, 1, -1) * np.where(flip, -1, 1)
        stream = tmp_path / f"{algorithm}-{labels}.csv"
        cli.write_stream(pts, str(stream), "csv")
        code, out, err = run(capsys, "optimize", "--algorithm", algorithm, "--input",
                             str(stream), "--lam", str(lam), "--epsilon", str(eps),
                             "--replicas", str(k), "--seed", "4")
        assert code == 0 and not err
        return json.loads(out), pts, lam, eps, k

    # "positive": every label +1, so the y=-1 class is empty
    @pytest.mark.parametrize("algorithm, labels", [
        ("add1d", "halfplane"), ("mult1d", "halfplane"), ("dyn1d", "halfplane"),
        ("add2d", "halfplane"), ("offline1d", "halfplane"), ("add1d", "positive"),
        ("add2d", "positive")])
    def test_sketch_backends(self, capsys, tmp_path, algorithm, labels):
        rec, pts, lam, eps, k = self.run_optimize(capsys, tmp_path, algorithm, labels)
        assert {p.y for p in pts} == ({1} if labels == "positive" else {-1, 1})
        assert rec["value"] < 1.0  # not the origin's value: the data moved the argmin
        res = optimize.optimize_via_sketch(pts, lam, eps, family=algorithm, k=k, seed=4)
        assert rec == {"algorithm": algorithm, "theta": list(res.theta), "b": res.b,
                       "value": res.value, "grid_size": res.grid_size, "k": k}

    @pytest.mark.parametrize("algorithm", ["add1d", "add2d"])
    @pytest.mark.parametrize("lam,epsilon", [("0.5", "0.25"), ("5", "0.9")])
    def test_wrong_dimension_names_the_backend(self, capsys, tmp_path, algorithm, lam, epsilon):
        # at lambda 0.5, epsilon 0.25 the d=3 grid's box holds 55^4 points, past the budget
        stream = tmp_path / "u.csv"
        stream.write_text("1,0.1,0.2,0.3\n-1,-0.5,0.5,0.5\n")
        code, out, err = run(capsys, "optimize", "--algorithm", algorithm, "--input",
                             str(stream), "--lam", lam, "--epsilon", epsilon)
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert f"backend {algorithm} supports d={families.FAMILIES[algorithm].dim} only" in err

    def test_pegasos(self, capsys, tmp_path):
        rec, pts, lam, eps, _ = self.run_optimize(capsys, tmp_path, "pegasos", "halfplane")
        theta, b = optimize.sgd_baseline(pts, lam, eps, seed=4)
        assert rec == {"algorithm": "pegasos", "theta": list(theta), "b": b,
                       "value": hinge_objective(pts, HyperplaneQuery(theta, b), lam),
                       "space_words": optimize.sgd_space_words(lam, eps, 1)}


def hskb(flags=(0,) * 16, eps=0.01, lo=-1.0, hi=1.0, depth=4, first=(0, 0.0, 0.0),
         count=None):
    """An HSKB file of n_declared 100; eps 0.01 gives 16 roots and depth cap 20.
    ``first`` is the first node's count, s and s2; the other nodes are empty.
    The header's count is ``count``, the first node's count by default."""
    c = first[0]
    head = add1d.Tree1D.MAGIC + struct.pack("<HdQBddQH", 1, eps, 100, 1, lo, hi,
                                            c if count is None else count, depth)
    nodes = [HSKB_NODE.pack(f, 0, 0.0, 0.0) for f in flags]
    if nodes:
        nodes[0] = HSKB_NODE.pack(flags[0], *first)
    return head + b"".join(nodes)


def hskq(flags=(0,) * 64, eps=0.01, depth=3, first=(0, 0, 0), sums=(0.0,) * 5, count=None):
    """An HSKQ file of n_declared 100; eps 0.01 gives 64 roots and depth cap 14.
    ``first`` is the first node's count, reservoir count, has-sample byte and
    sample coordinates, if any, and ``sums`` its X, Y, Xvv, Yvv and Zxy; the
    other nodes are empty.  The header's count is ``count``, the first node's
    count by default."""
    c, seen, has_sample, *sample = first
    head = QuadTree2D.MAGIC + struct.pack("<HdQBqQH", 1, eps, 100, 1, 0,
                                          c if count is None else count, depth)
    nodes = [HSKQ_NODE.pack(f, 0, *[0.0] * 5, 0, 0) for f in flags]
    if nodes:
        nodes[0] = (HSKQ_NODE.pack(flags[0], c, *sums, seen, has_sample)
                    + struct.pack(f"<{len(sample)}d", *sample))
    return head + b"".join(nodes)


# the first node of three points at -0.975, or at (0.01, 0.01), in the first
# root's cell (p is 1, so the squared counters are 0); with the header's count
# 3 the files load
HSKB_3 = (3, 0.3, 0.0)
HSKQ_3 = (3, 3, 1, 0.01, 0.01)
HSKQ_3_SUMS = (0.03, 0.03, 0.0, 0.0, 0.0)


def chain(depth, arity, roots):
    """Has-children flags of a first root split ``depth`` times down its first
    child, in pre-order: the splits, the last first child, its siblings on the
    way up, then the other roots."""
    return [1] * depth + [0] * (1 + (arity - 1) * depth + roots - 1)


# name: (file, what the error line says)
CRAFTED_TREES = {
    "hskb_chain": (hskb(chain(5000, 2, 16)), "past the depth cap"),
    "hskq_chain": (hskq(chain(5000, 4, 64)), "past the depth cap"),
    # eps 2^-34 asks for 2^18 roots (4^17 in a quad-tree): the file holds none
    "hskb_root_grid": (hskb((), eps=2.0**-34, depth=18), "root grid of depth 18"),
    "hskq_root_grid": (hskq((), eps=2.0**-34, depth=17), "root grid of depth 17"),
    # ... and a stored depth of 0 must not let the constructor build them
    "hskb_root_grid_depth_mismatch": (hskb((0,), eps=2.0**-34, depth=0), "initial depth"),
    "hskq_root_grid_depth_mismatch": (hskq((0,), eps=2.0**-34, depth=0), "initial depth"),
    # eps 2^-32 asks for 2^17 roots: a file that holds them passes the byte
    # check, but the grid is past the root-grid bound
    "hskb_root_grid_past_the_bound": (hskb((0,) * 2**17, eps=2.0**-32, depth=17), "too small"),
    "hskb_minus_inf_domain": (hskb(lo=-np.inf), "domain"),
    "hskb_empty_domain": (hskb(lo=1.0, hi=1.0), "domain"),
    # a node keeps a sample exactly when it holds points, all of which its reservoir saw
    "hskq_sample_byte_2": (hskq(first=(3, 3, 2, 0.01, 0.01)), "has-sample byte 2"),
    "hskq_points_without_sample": (hskq(first=(3, 3, 0)),
                                   "node of count 3 with reservoir count 3 and has-sample byte 0"),
    "hskq_sample_without_points": (hskq(first=(0, 0, 1, 0.01, 0.01)),
                                   "node of count 0 with reservoir count 0 and has-sample byte 1"),
    "hskq_reservoir_count": (hskq(first=(3, 5, 1, 0.01, 0.01)),
                             "node of count 3 with reservoir count 5"),
    # the first root's cell is [0, 1/8]^2
    "hskq_nan_sample": (hskq(first=(3, 3, 1, np.nan, 0.01)), "outside its node's cell"),
    "hskq_sample_outside_the_cell": (hskq(first=(3, 3, 1, 0.01, 0.5)), "outside its node's cell"),
    # a query divides by the header's count, and answers 0 when it is 0
    "hskb_count_0": (hskb(first=HSKB_3, count=0), "header count 0 but the nodes hold 3 points"),
    "hskb_count_1000": (hskb(first=HSKB_3, count=1000), "header count 1000 but the nodes hold 3"),
    "hskq_count_0": (hskq(first=HSKQ_3, sums=HSKQ_3_SUMS, count=0),
                     "header count 0 but the nodes hold 3 points"),
    "hskq_count_1000": (hskq(first=HSKQ_3, sums=HSKQ_3_SUMS, count=1000),
                        "header count 1000 but the nodes hold 3"),
    # every node counter is a finite sum of finite values
    "hskb_nan_s": (hskb(first=(3, np.nan, 0.0)), "non-finite value"),
    "hskb_inf_s2": (hskb(first=(3, 0.3, np.inf)), "non-finite value"),
    **{f"hskq_non_finite_{name}": (hskq(first=HSKQ_3, sums=HSKQ_3_SUMS[:i] + (v,) + HSKQ_3_SUMS[i + 1:]),
                            "non-finite value")
       for i, (name, v) in enumerate([("X", np.nan), ("Y", np.inf), ("Xvv", -np.inf),
                                      ("Yvv", np.nan), ("Zxy", np.inf)])},
}


def tree_container(algorithm, p):
    """The bytes of a small add1d or add2d sketch."""
    xs = np.random.default_rng(p).uniform(0.0, 1.0, (300, 2))
    if algorithm == "add1d":
        sk = additive_tree_1d(0.3, len(xs), p=p)
        sk.update_many(xs[:, 0])
    else:
        sk = additive_quadtree(0.3, len(xs), p=p, seed=p)
        sk.update_many(xs)
    return sk.to_bytes()


class TestCraftedTrees:
    def test_intact_files_load(self, tmp_path):
        for name, data in [("b", hskb()), ("q", hskq()), ("b1", hskb(first=HSKB_3)),
                           ("q1", hskq(first=HSKQ_3, sums=HSKQ_3_SUMS))]:
            (tmp_path / name).write_bytes(data)
            assert cli.load_sketch(str(tmp_path / name)).to_bytes() == data

    @pytest.mark.parametrize("name", sorted(CRAFTED_TREES))
    def test_crafted_file_is_data_error(self, tmp_path, capsys, name):
        data, says = CRAFTED_TREES[name]
        path = tmp_path / name
        path.write_bytes(data)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "query", "--sketch", str(path), "--q", "0.5")
        assert time.perf_counter() - t0 < 1.0
        assert code == cli.EXIT_DATA and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "data"
        assert says in err

    def test_dropped_sample_is_data_error(self, tmp_path, capsys):
        """A built quad-tree's file with one populated node's sample left out:
        read with a distance of 0 for that node, it would answer otherwise."""
        sk = additive_quadtree(0.5, 100, seed=1)
        sk.update_many(np.random.default_rng(1).uniform(0.0, 1.0, (100, 2)))
        next(node for node in sk._walk() if node.c).sample = None
        path = tmp_path / "q"
        path.write_bytes(sk.to_bytes())
        code, out, err = run(capsys, "query", "--sketch", str(path), "--theta=0,1", "--b=0.3")
        assert code == cli.EXIT_DATA and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "data"
        assert "has-sample byte 0" in err

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("algorithm", ["add1d", "add2d"])
    def test_roundtrip_bytes(self, tmp_path, algorithm, p):
        data = tree_container(algorithm, p)
        (tmp_path / "s").write_bytes(data)
        assert cli.load_sketch(str(tmp_path / "s")).to_bytes() == data

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(algorithm=st.sampled_from(["add1d", "add2d"]), p=st.sampled_from([1, 2]),
           damage=st.sampled_from(["truncate", "flip", "extend"]),
           where=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7),
           tail=st.binary(min_size=1, max_size=64))
    def test_damaged_container_loads_or_is_data_error(self, tmp_path, algorithm, p, damage,
                                                      where, bit, tail):
        data = bytearray(tree_container(algorithm, p))
        at = int(where * len(data))
        if damage == "truncate":
            data = data[:at]
        elif damage == "flip":
            data[at] ^= 1 << bit
        else:
            data += tail
        path = tmp_path / "s"
        path.write_bytes(bytes(data))
        try:
            cli.load_sketch(str(path))
        except cli.DataError:
            pass


class TestCraftedParams:
    """HSK1/HSKD headers and build flags whose sample sizes overflow, and HSKO
    arrays of different lengths."""

    # offsets in the shared HSK1/HSKD header: epsilon at 6, C1 at 30, C at 46
    @pytest.mark.parametrize("algorithm,offset,value", [
        ("mult1d", 30, np.inf), ("mult1d", 6, 5e-324), ("dyn1d", 46, np.inf),
        ("dyn1d", 6, 5e-324),
    ])
    def test_header_is_data_error(self, tmp_path, capsys, algorithm, offset, value):
        path, _ = build_1d(capsys, tmp_path, algorithm, "s.bin", "--epsilon", "0.2")
        data = bytearray(open(path, "rb").read())
        struct.pack_into("<d", data, offset, value)
        open(path, "wb").write(data)
        code, out, err = run(capsys, "query", "--sketch", path, "--q", "0.5")
        assert code == cli.EXIT_DATA and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "data"

    # the trees' root grids: add1d 2^538 and 2^24 cells, add2d 4^426 and 4^14
    @pytest.mark.parametrize("algorithm,epsilon", [
        ("mult1d", "1e-320"), ("dyn1d", "1e-110"), ("add1d", "1e-320"), ("add1d", "1e-12"),
        ("add2d", "1e-320"), ("add2d", "1e-10")])
    def test_tiny_epsilon_flag_is_config_error(self, tmp_path, capsys, monkeypatch, algorithm,
                                               epsilon):
        def no_node(*args):
            raise AssertionError("a tree node was built")
        monkeypatch.setattr(add1d, "_Node", no_node)
        monkeypatch.setattr(add2d, "_QNode", no_node)
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "50", "--d",
            "2" if algorithm == "add2d" else "1", "--out", str(stream))
        code, out, err = run(capsys, "build", "--algorithm", algorithm, "--input", str(stream),
                             "--epsilon", epsilon, "--out", str(tmp_path / "s"))
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert "too small" in err and not (tmp_path / "s").exists()

    def test_hsko_arrays_of_different_lengths_is_data_error(self, tmp_path, capsys):
        def array(*values):
            return struct.pack(f"<Q{len(values)}d", len(values), *values)
        # one rank, three positions, one sum
        data = (OfflineSketch1D.MAGIC + struct.pack("<Hd", 1, 0.1) + array(1.0)
                + array(0.1, 0.2, 0.3) + array(0.0))
        assert len(data) == 78
        path = tmp_path / "s"
        path.write_bytes(data)
        code, out, err = run(capsys, "query", "--sketch", str(path), "--q", "0.5")
        assert code == cli.EXIT_DATA and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "data"
        assert "differ in length" in err


@functools.lru_cache
def sample_sketch(algorithm):
    """A frozen offline1d, mult1d or dyn1d sketch of 2,000 values in [1, 16]: mult1d's
    at eps 0.5 and W 16 fills its banks (capacities 256 and 512), dyn1d's has intervals."""
    xs = 1.0 + 15.0 * np.random.default_rng(8).uniform(0.0, 1.0, 2000)
    if algorithm == "offline1d":
        sk = OfflineSketch1D(0.3)
    else:
        sk = families.FAMILIES[algorithm].make(0.5, len(xs), 8, 1, 16)
    sk.update_many(xs)
    sk.freeze()
    return sk


def hsk1(buffer=lambda bank, i, b: b, count=None, survived=lambda bank, i, s: s):
    """The HSK1 bytes of the mult1d sample sketch, each level's buffer replaced by
    ``buffer(bank name, level, buffer)`` and its survivor count by
    ``survived(bank name, level, count)``, and the stream's count by ``count``."""
    sk = sample_sketch("mult1d")
    w = Writer(MultStream1D.MAGIC)
    w.fields(sk.params, SketchParams.HEADER)
    w.u8(0)
    w.u64(sk.count if count is None else count)
    w.u16(sk.params.num_levels)
    for name, bank in (("E", sk.E), ("S", sk.S)):
        for i, b in enumerate(bank.buffers):
            w.u64(survived(name, i, bank.survived[i]))
            w.array(buffer(name, i, b))
    return w.getvalue()


def hskd(expl=None, interval=lambda i, fields: fields, count=None):
    """The HSKD bytes of the dyn1d sample sketch, with its explicit points replaced
    by ``expl``, each interval's (boundary, rho, rho_star, samples) by
    ``interval(index, fields)`` and the stored interval count by ``count``."""
    sk = sample_sketch("dyn1d")
    w = Writer(DynSketch1D.MAGIC)
    w.fields(sk.params, SketchParams.HEADER)
    w.u64(sk.count)
    w.array(sk._expl_sorted if expl is None else expl)
    w.u64(len(sk.intervals) if count is None else count)
    for i, itv in enumerate(sk.intervals):
        bd, rho, rho_star, samples = interval(i, (itv.boundary, itv.rho, itv.rho_star,
                                                   itv.samples))
        w.f64(bd)
        w.f64(rho)
        w.f64(rho_star)
        w.array(samples)
    return w.getvalue()


def hsko(ranks=None, xs=None, sums=None):
    """The HSKO bytes of the offline1d sample sketch, with arrays replaced."""
    sk = sample_sketch("offline1d")
    w = Writer(OfflineSketch1D.MAGIC)
    w.f64(sk.epsilon)
    for new, old in ((ranks, sk.ranks.astype(float)), (xs, sk.xs), (sums, sk.sums)):
        w.array(old if new is None else new)
    return w.getvalue()


def with_value(a, at, value):
    a = np.array(a, dtype=float)
    a[at] = value
    return a


def swap_first_boundaries(i, fields):
    bd0, bd1 = (itv.boundary for itv in sample_sketch("dyn1d").intervals[:2])
    return ({0: bd1, 1: bd0}.get(i, fields[0]), *fields[1:])


# name: (file, what the error line says)
CRAFTED_SAMPLE_FILES = {
    "hsk1_nan": (lambda: hsk1(lambda bank, i, b: with_value(b, 3, np.nan) if i == 0 else b),
                 "non-finite"),
    "hsk1_inf": (lambda: hsk1(lambda bank, i, b: with_value(b, -1, np.inf) if i == 2 else b),
                 "non-finite"),
    "hsk1_past_capacity": (lambda: hsk1(lambda bank, i, b: np.arange(257.0)
                                        if (bank, i) == ("E", 0) else b), "capacity 256"),
    # a count equal to the level-0 fill would answer every query from level 0 alone
    "hsk1_count_is_the_level_0_fill": (
        lambda: hsk1(count=sample_sketch("mult1d")._level0()[0].size),
        "level 0 saw 2000 of 512 values"),
    # level S1 keeps 512 of about 1,000 survivors
    "hsk1_survivors_below_the_fill": (
        lambda: hsk1(survived=lambda bank, i, s: 100 if (bank, i) == ("S", 1) else s),
        "of its 100 survivors"),
    "hskd_rho_zero": (lambda: hskd(interval=lambda i, f: (f[0], 0.0, *f[2:])), "rho 0.0"),
    "hskd_rho_nan": (lambda: hskd(interval=lambda i, f: (f[0], np.nan, *f[2:])), "rho nan"),
    "hskd_rho_above_one": (lambda: hskd(interval=lambda i, f: (f[0], 1.5, *f[2:])),
                           "rho 1.5"),
    "hskd_rho_star_inf": (lambda: hskd(interval=lambda i, f: (*f[:2], np.inf, f[3])),
                          "rho_star inf"),
    "hskd_boundary_nan": (lambda: hskd(interval=lambda i, f: (np.nan, *f[1:])),
                          "boundary nan"),
    "hskd_boundaries_descending": (lambda: hskd(interval=swap_first_boundaries), "boundary"),
    "hskd_first_boundary_below_the_anchor": (
        lambda: hskd(interval=lambda i, f: (f[0] if i else sample_sketch("dyn1d").anchor - 1.0,
                                            *f[1:])), "is not above the anchor"),
    "hskd_finite_tail_boundary": (
        lambda: hskd(interval=lambda i, f: (f[0] if f[0] < np.inf else 1e3, *f[1:])),
        "tail interval's boundary 1000.0 is not +inf"),
    # rho* no longer matches the interval's samples, and the band estimates grow 50-fold
    "hskd_rho_over_50": (lambda: hskd(interval=lambda i, f: (f[0], f[1] / 50.0, *f[2:])
                                      if i == 0 else f), "interval 0: rho_star"),
    "hskd_explicit_nan": (lambda: hskd(expl=with_value(sample_sketch("dyn1d")._expl_sorted, 0,
                                                       np.nan)), "non-finite"),
    "hskd_sample_inf": (lambda: hskd(interval=lambda i, f: (*f[:3], with_value(f[3], 0, -np.inf))
                                     if i == 1 else f), "non-finite"),
    # each interval reads bytes: the loop over a huge count runs out of file
    "hskd_interval_count": (lambda: hskd(count=2**62), "truncated"),
    "hsko_descending": (lambda: hsko(xs=sample_sketch("offline1d").xs[::-1]), "ascending"),
    "hsko_nan_position": (lambda: hsko(xs=with_value(sample_sketch("offline1d").xs, -1, np.nan)),
                          "finite"),
    "hsko_inf_sum": (lambda: hsko(sums=with_value(sample_sketch("offline1d").sums, 2, np.inf)),
                     "finite"),
    "hsko_fractional_rank": (lambda: hsko(ranks=with_value(sample_sketch("offline1d").ranks, 1,
                                                            2.5)), "whole numbers"),
    "hsko_repeated_rank": (lambda: hsko(ranks=with_value(sample_sketch("offline1d").ranks, 1,
                                                          1.0)), "strictly ascending"),
}

PROBES = np.concatenate([np.linspace(-5.0, 40.0, 91), [1e6]])


class TestCraftedSampleFiles:
    """HSK1, HSKD and HSKO files with arrays out of order, non-finite values,
    bad rates and damaged bytes."""

    def test_writers_give_the_intact_files(self):
        assert hsk1() == sample_sketch("mult1d").to_bytes()
        assert hskd() == sample_sketch("dyn1d").to_bytes()
        assert hsko() == sample_sketch("offline1d").to_bytes()

    @pytest.mark.parametrize("name", sorted(CRAFTED_SAMPLE_FILES))
    def test_crafted_file_is_data_error(self, tmp_path, capsys, name):
        make, says = CRAFTED_SAMPLE_FILES[name]
        path = tmp_path / name
        path.write_bytes(make())
        code, out, err = run(capsys, "query", "--sketch", str(path), "--q", "5")
        assert code == cli.EXIT_DATA and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "data"
        assert says in err

    def test_huge_interval_count_is_format_error(self):
        assert hskd(count=len(sample_sketch("dyn1d").intervals)) == hskd()
        with pytest.raises(FormatError, match="truncated"):
            DynSketch1D.from_bytes(hskd(count=2**62))

    @pytest.mark.parametrize("algorithm", ["mult1d", "dyn1d"])
    def test_reversed_arrays_answer_as_the_intact_file(self, tmp_path, capsys, algorithm):
        if algorithm == "mult1d":
            crafted = hsk1(lambda bank, i, b: b[::-1])
        else:
            crafted = hskd(sample_sketch("dyn1d")._expl_sorted[::-1],
                           lambda i, f: (*f[:3], f[3][::-1]))
        intact = sample_sketch(algorithm).to_bytes()
        assert crafted != intact
        answers = []
        for name, data in (("crafted", crafted), ("intact", intact)):
            (tmp_path / name).write_bytes(data)
            assert cli.load_sketch(str(tmp_path / name)).to_bytes() == intact
            code, out, err = run(capsys, "query", "--sketch", str(tmp_path / name),
                                 *[f"--q={q}" for q in PROBES])
            assert code == cli.EXIT_OK, err
            answers.append(out)
        assert answers[0] == answers[1]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(algorithm=st.sampled_from(["offline1d", "mult1d", "dyn1d"]),
           damage=st.sampled_from(["truncate", "flip", "extend"]),
           where=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7),
           tail=st.binary(min_size=1, max_size=64))
    def test_damaged_container_loads_or_is_data_error(self, tmp_path, algorithm, damage,
                                                      where, bit, tail):
        data = bytearray(sample_sketch(algorithm).to_bytes())
        at = int(where * len(data))
        if damage == "truncate":
            data = data[:at]
        elif damage == "flip":
            data[at] ^= 1 << bit
        else:
            data += tail
        path = tmp_path / "s"
        path.write_bytes(bytes(data))
        try:
            sk = cli.load_sketch(str(path))
        except cli.DataError:
            return
        assert np.isfinite(sk.query_many(PROBES)).all()


class TestNonFiniteParams:
    """A NaN or infinite --epsilon or --lam is a config error that names the flag."""

    def expect_config_error(self, capsys, name, *argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert f"{name} must be positive and finite" in err

    @pytest.mark.parametrize("algorithm,d,epsilon", [
        ("offline1d", 1, "inf"), ("offline1d", 1, "nan"), ("mult1d", 1, "inf"),
        ("dyn1d", 1, "nan"), ("add1d", 1, "nan"), ("add1d", 1, "inf"), ("add2d", 2, "nan"),
        ("add2d", 2, "inf"),
    ])
    def test_build(self, tmp_path, capsys, algorithm, d, epsilon):
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "300", "--d", str(d), "--out",
            str(stream))
        code, out, err = run(capsys, "build", "--algorithm", algorithm, "--input", str(stream),
                             "--epsilon", epsilon, "--out", str(tmp_path / "s"))
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        # mult1d and dyn1d say "epsilon must be in (0, 1)"
        assert "epsilon must be" in err and not (tmp_path / "s").exists()

    def test_huge_finite_epsilon_builds_offline1d(self, tmp_path, capsys):
        # the rank ladder (1+eps)^t would overflow int64 before its ranks above n are dropped
        path, rec = build_1d(capsys, tmp_path, "offline1d", "s.hsko", "--epsilon", "1e308")
        assert rec["space_words"] == 3
        code, out, _ = run(capsys, "query", "--sketch", path, "--q", "2.0")
        assert code == 0 and json.loads(out)["estimate"] > 0

    def test_tiny_epsilon_offline1d(self, tmp_path, capsys):
        # 1 + 1e-300 rounds to 1, so no rank ladder (1+eps)^t exists
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "300", "--out", str(stream))
        code, out, err = run(capsys, "build", "--algorithm", "offline1d", "--input", str(stream),
                             "--epsilon", "1e-300", "--out", str(tmp_path / "s"))
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert "rounds to 1" in err and not (tmp_path / "s").exists()
        # the same epsilon in a file's header is a data error
        path, _ = build_1d(capsys, tmp_path, "offline1d", "s.hsko", "--epsilon", "0.2")
        with open(path, "r+b") as f:
            f.seek(6)
            f.write(struct.pack("<d", 1e-300))
        code, out, err = run(capsys, "query", "--sketch", path, "--q", "2.0")
        assert code == cli.EXIT_DATA and not out and "rounds to 1" in err

    @pytest.mark.parametrize("algorithm,epsilon", [
        ("offline1d", "inf"), ("add1d", "nan"), ("add2d", "inf"), ("pegasos", "inf"),
        ("pegasos", "nan"),
    ])
    def test_bench(self, capsys, algorithm, epsilon):
        self.expect_config_error(capsys, "epsilon", "bench", "--algorithms", algorithm,
                                 "--epsilons", f"0.2,{epsilon}", "--n", "100", "--seeds", "1")

    @pytest.mark.parametrize("algorithm,d,lam,epsilon", [
        ("add1d", 1, "inf", "0.2"), ("add1d", 1, "nan", "0.2"), ("dyn1d", 1, "nan", "0.2"),
        ("add2d", 2, "inf", "0.5"), ("pegasos", 1, "nan", "0.2"), ("pegasos", 2, "inf", "0.2"),
        ("add1d", 1, "0.5", "nan"), ("add2d", 2, "0.5", "inf"), ("pegasos", 1, "0.5", "inf"),
    ])
    def test_optimize(self, tmp_path, capsys, algorithm, d, lam, epsilon):
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "300", "--d", str(d), "--labels",
            "random", "--out", str(stream))
        name = "lambda" if lam in ("inf", "nan") else "epsilon"
        self.expect_config_error(capsys, name, "optimize", "--algorithm", algorithm, "--input",
                                 str(stream), "--lam", lam, "--epsilon", epsilon)


    # lambda or epsilon whose grid, or SGD step count, overflows float64
    @pytest.mark.parametrize("algorithm,d,lam,epsilon", [
        ("add1d", 1, "1e-320", "0.2"), ("mult1d", 1, "0.5", "1e-320"),
        ("add2d", 2, "1e-320", "0.5"), ("dyn1d", 1, "0.5", "5e-324"),
        ("pegasos", 1, "1e-320", "0.2"), ("pegasos", 2, "0.5", "1e-320"),
    ])
    def test_optimize_sizes_overflow(self, tmp_path, capsys, algorithm, d, lam, epsilon):
        stream = tmp_path / "u.csv"
        run(capsys, "gen", "--kind", "uniform", "--n", "300", "--d", str(d), "--labels",
            "random", "--out", str(stream))
        code, out, err = run(capsys, "optimize", "--algorithm", algorithm, "--input",
                             str(stream), "--lam", lam, "--epsilon", epsilon)
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert "overflows" in err


class TestBench:
    def test_every_registry_name_is_a_choice(self, capsys):
        names = [*families.FAMILIES, "pegasos"]
        ap = cli.build_parser()
        for name in names:
            if name != "pegasos":
                args = ap.parse_args(["build", "--algorithm", name, "--input", "s.csv",
                                      "--epsilon", "0.5", "--out", "s"])
                assert args.algorithm == name
            args = ap.parse_args(["optimize", "--algorithm", name, "--input", "s.csv",
                                  "--lam", "1", "--epsilon", "0.5"])
            assert args.algorithm == name
        code, out, _ = run(capsys, "bench", "--algorithms", ",".join(names), "--epsilons", "0.5",
                           "--n", "50", "--seeds", "1")
        assert code == 0 and [r.split(",")[0] for r in out.splitlines()[1:]] == names

    def test_bench_csv_shape_and_determinism(self, tmp_path, capsys):
        args = ["bench", "--algorithms", "offline1d,add1d", "--epsilons",
                "0.2,0.1", "--n", "1000", "--seeds", "2"]
        code, out1, _ = run(capsys, *args)
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0].startswith("algorithm,epsilon,p,space_words")
        assert len(lines) == 1 + 4
        code, out2, _ = run(capsys, *args)
        strip_ns = lambda text: [",".join(r.split(",")[:-2]) for r in text.splitlines()]
        assert strip_ns(out1) == strip_ns(out2)

    @pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-1"), ("--n", "0"),
                                            ("--n", "-5")])
    def test_empty_run_is_config_error(self, capsys, flag, value):
        code, out, err = run(capsys, "bench", "--algorithms", "add1d,pegasos", "--epsilons",
                             "0.2", "--n", "100", "--seeds", "1", flag, value)
        assert code == cli.EXIT_CONFIG and not out
        assert len(err.strip().splitlines()) == 1 and last_error(err) == "config"
        assert f"{flag} must be >= 1" in err

    @pytest.mark.parametrize("algorithm", ["offline1d", "mult1d", "dyn1d"])
    def test_p2_of_a_p1_family_is_config_error(self, capsys, algorithm):
        code, out, err = run(capsys, "bench", "--algorithms", f"add1d,{algorithm}",
                             "--epsilons", "0.2", "--n", "200", "--seeds", "1", "--p", "2")
        assert code == cli.EXIT_CONFIG and not out
        assert last_error(err) == "config" and f"{algorithm} answers p=1 only" in err

    def test_space_scaling_columns(self, capsys):
        # two eps-halvings: aggregate add1d growth within [1.2^2, 1.7^2]
        # (per-halving ratios are lumpy under power-of-two cell rounding, so
        # the bracket is checked over a two-halving aggregate in the fine regime)
        code, out, _ = run(capsys, "bench", "--algorithms", "add1d", "--epsilons",
                           "0.1,0.025", "--n", "2000", "--seeds", "1")
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        space = {float(r[1]): int(r[3]) for r in rows}
        assert 1.2**2 <= space[0.025] / space[0.1] <= 1.7**2

    def test_pegasos_space_scaling(self, capsys):
        # reservoir capacity tracks 1/(lam*eps): halving eps doubles the words
        code, out, _ = run(capsys, "bench", "--algorithms", "pegasos", "--epsilons",
                           "0.4,0.2", "--n", "500", "--seeds", "1")
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        space = {float(r[1]): int(r[3]) for r in rows}
        assert 1.8 <= space[0.2] / space[0.4] <= 2.2


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out

    def test_fault_injection_names_invariant(self, capsys):
        code, out, err = run(capsys, "verify", "--inject-fault", "capacity")
        assert code == cli.EXIT_VERIFY
        assert "FAIL" in out and "capacity" in out.split("FAIL", 1)[1]

    def test_unknown_command_is_config_error(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG
