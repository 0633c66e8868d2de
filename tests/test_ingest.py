"""Block ingest against the per-row checks.

``stream.ingest`` reads CSV and HSTR streams in numpy blocks.  Rows that fail
a mask, and CSV blocks that ``np.loadtxt`` rejects, go through
``stream._RowChecker``, which writes every row error.  The reference here runs
that checker on every line (CSV) or unpacks every record with ``struct``
(HSTR): block ingest must give the same points bit for bit, the same errors
in the same order and the same first error under ``fail_fast``, for any
block size.
"""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hingesketch import cli, stream
from hingesketch.core import LabeledPoint

BLOCK_ROWS = (1, 7, 65536)
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _rows(records):
    """(label, coordinates as float.hex) per record: bit-exact and -0.0 aware."""
    return [(y, tuple(v.hex() for v in x))
            for y, x in zip(records["y"].tolist(), records["x"].tolist())]


def _ref_rows(points):
    return [(y, tuple(v.hex() for v in x)) for y, x in points]


def per_row_csv(path, max_norm, fail_fast=False):
    chk = stream._RowChecker(max_norm, fail_fast)
    points = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            res = chk.csv_line(lineno, line)
            if res is not None:
                points.append(res)
    return points, chk.errors


def per_row_hstr(path, max_norm, fail_fast=False):
    chk = stream._RowChecker(max_norm, fail_fast)
    data = open(path, "rb").read()
    d = struct.unpack("<I", data[4:8])[0]
    rec = 1 + 8 * d
    points = []
    for lineno, i in enumerate(range(8, len(data), rec), start=1):
        chunk = data[i:i + rec]
        if len(chunk) < rec:
            chk.bad(lineno, "truncated record")
            break
        y = struct.unpack("<b", chunk[:1])[0]
        if y not in (-1, 1):
            chk.bad(lineno, "label must be -1 or 1")
            continue
        x = chk.point(lineno, struct.unpack(f"<{d}d", chunk[1:]), y)
        if x is not None:
            points.append((y, x))
    return points, chk.errors


def _outcome(fn):
    """A call's result, or the message of the DataError it raised."""
    try:
        return fn()
    except cli.DataError as e:
        return str(e)


def assert_same_as_per_row(path, fmt, max_norm, monkeypatch):
    ref = per_row_csv if fmt == "csv" else per_row_hstr
    points, errors = ref(path, max_norm)
    first_error = _outcome(lambda: ref(path, max_norm, fail_fast=True))
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(stream, "_BLOCK_ROWS", rows)
        records, got_errors = cli.ingest(path, fmt, max_norm=max_norm)
        assert _rows(records) == _ref_rows(points)
        assert got_errors == errors
        got_first = _outcome(lambda: cli.ingest(path, fmt, fail_fast=True, max_norm=max_norm))
        if isinstance(first_error, str):
            assert got_first == first_error
        else:
            assert not isinstance(got_first, str)


LABELS = st.sampled_from(
    ["1", "-1", "1.0", "1e0", "-1.00", "+1", " 1", "1 ", "0", "2", "1.5", "-1.9", "x", "",
     "nan", "inf", "-inf", "1_0", "-0.0"])
BOUNDARY = ["1.000000001", "1.0000000010000001", "1.0000000009999999", "0.7071067811865476",
            "0.7071067811865475", "0.5773502691896258", "0.5773502691896257", "0.6", "0.8"]
ODD = ["nan", "inf", "-inf", "", "1_0", "abc", "0x1", " 0.5", "0.5 ", "1e-320", "-0.0",
       "1e400", "0.5#x", "\xa00.25", "0.25\x0b", "1.5", "0.123456789012345678901234567890123456"]
COORDS = st.one_of(st.floats(-1.2, 1.2).map(repr), st.sampled_from(BOUNDARY),
                   st.sampled_from(ODD))
SPECIAL = st.sampled_from(["", "   ", "\t", "# comment", "  # indented", "#1,0.5", "\u3000",
                          "\xa0# indented"])


@st.composite
def csv_streams(draw):
    d = draw(st.integers(1, 3))
    good = st.floats(-0.55, 0.55).map(repr)
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(SPECIAL))
        elif kind == 1:  # a row of any shape and content
            coords = draw(st.lists(COORDS, max_size=4))
            lines.append(",".join([draw(LABELS), *coords]))
        elif kind == 2:  # one odd or boundary token in a row of the stream's dimension
            coords = [draw(good) for _ in range(d)]
            coords[draw(st.integers(0, d - 1))] = draw(COORDS)
            lines.append(",".join([draw(LABELS), *coords]))
        else:
            lines.append(",".join([draw(st.sampled_from(["1", "-1"])),
                                   *(draw(good) for _ in range(d))]))
    return "".join(line + "\n" for line in lines)


@st.composite
def hstr_streams(draw):
    d = draw(st.integers(1, 3))
    labels = st.sampled_from([1, -1, 1, -1, 0, 2, -128, 127])
    coords = st.one_of(st.floats(-0.6, 0.6), st.sampled_from(
        [math.nan, math.inf, -math.inf, 1.000000001, 0.7071067811865476, 0.5773502691896258,
         -0.0, 5e-324, 1.5]))
    body = b"".join(
        struct.pack("<b", draw(labels)) + struct.pack(f"<{d}d", *(draw(coords) for _ in range(d)))
        for _ in range(draw(st.integers(0, 30))))
    tail = draw(st.binary(max_size=8 * d))  # a partial record when non-empty
    return stream.MAGIC + struct.pack("<I", d) + body + tail


class TestBlocksMatchPerRow:
    @SETTINGS
    @given(text=csv_streams(), max_norm=st.sampled_from([1.0, 1.5]))
    def test_csv(self, tmp_path, monkeypatch, text, max_norm):
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert_same_as_per_row(str(path), "csv", max_norm, monkeypatch)

    @SETTINGS
    @given(data=hstr_streams(), max_norm=st.sampled_from([1.0, 1.5]))
    def test_hstr(self, tmp_path, monkeypatch, data, max_norm):
        path = tmp_path / "s.bin"
        path.write_bytes(data)
        assert_same_as_per_row(str(path), "bin", max_norm, monkeypatch)

    @pytest.mark.parametrize("text", [
        "1,nan\n1,0.5,0.5\n1,0.25\n",    # a non-finite first row fixes d=1
        "1,2.0,0.0\n1,0.5\n1,0.5,0.5\n",  # a row over the norm bound fixes d=2
        "x,0.5,0.5\n1,\n1,0.25\n-1,0.5,0.5\n",  # bad label and empty field fix nothing
        "1\n1,0.5\n",                     # no coordinates fix nothing
        "1,0.5\n" * 9 + "1,1_0\n" + "-1,0.25\n" * 9,  # a block loadtxt rejects
    ])
    def test_dimension_fixed_by_first_valid_row(self, tmp_path, monkeypatch, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert_same_as_per_row(str(path), "csv", 1.0, monkeypatch)


def test_per_row_checks_run_only_on_failing_rows(tmp_path, monkeypatch):
    calls = []

    def counted(name):
        method = getattr(stream._RowChecker, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)
        return wrapper

    for name in ("csv_line", "point"):
        monkeypatch.setattr(stream._RowChecker, name, counted(name))
    rows = [f"1,{x!r},0.5" for x in np.linspace(-0.5, 0.5, 500).tolist()]
    rows[7], rows[300] = "1,nan,0.5", "-1,0.9,0.9"
    path = tmp_path / "s.csv"
    path.write_text("# header\n\n" + "\n".join(rows) + "\n")
    records, errors = cli.ingest(str(path), "csv")
    assert len(records) == 498 and len(errors) == 2
    assert calls.count("csv_line") == 2
    calls.clear()
    X = np.column_stack([np.linspace(-0.5, 0.5, 500), np.full(500, 0.5)])
    X[7, 0], X[300] = np.inf, (0.9, 0.9)
    rec = np.empty(500, stream.record_dtype(2))
    rec["y"], rec["x"] = 1, X
    rec["y"][11] = 0
    path = tmp_path / "s.bin"
    path.write_bytes(stream.MAGIC + struct.pack("<I", 2) + rec.tobytes())
    records, errors = cli.ingest(str(path), "bin")
    assert len(records) == 497 and len(errors) == 3
    assert calls.count("point") == 2  # the bad label byte is reported before point()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mask_norms_match_labeled_point(d):
    """Bit-equal for d <= 2 on every Python, and for d = 3 before 3.12, whose
    compensated ``sum`` can move the last bit (the mask sends rows within
    1e-12 of the bound to the per-row check for that)."""
    rng = np.random.default_rng(d)
    X = rng.uniform(-1.0, 1.0, (20000, d)) * rng.choice([1e-3, 1.0, 1e3], (20000, 1))
    ref = np.array([LabeledPoint(tuple(x), 1).norm() for x in X.tolist()])
    if d <= 2 or sys.version_info < (3, 12):
        np.testing.assert_array_equal(stream._row_norms(X), ref)
    else:
        np.testing.assert_allclose(stream._row_norms(X), ref, rtol=1e-15, atol=0)


BAD_ROWS = ["0,0.5", "1.5,0.5", "inf,0.5", "1,nan", "1,2.0", "1,0.5,0.5", "1,1_0", "1,", "x"]


@pytest.mark.parametrize("bad", BAD_ROWS)
@pytest.mark.parametrize("algorithm", ["mult1d", "dyn1d", "add1d"])
def test_one_bad_row_builds_same_sketch(tmp_path, capsys, monkeypatch, algorithm, bad):
    xs = np.random.default_rng(3).uniform(-1.0, 1.0, 300).tolist()
    good = [f"1,{x!r}" for x in xs]
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    clean.write_text("\n".join(good) + "\n")
    dirty.write_text("\n".join(good[:137] + [bad] + good[137:]) + "\n")
    for rows in (7, 65536):
        monkeypatch.setattr(stream, "_BLOCK_ROWS", rows)
        sketches = []
        for src in (clean, dirty):
            out = tmp_path / f"{src.stem}.hsk"
            code = cli.main(["build", "--algorithm", algorithm, "--input", str(src),
                             "--epsilon", "0.3", "--out", str(out)])
            assert code == cli.EXIT_OK
            sketches.append(out.read_bytes())
        err = capsys.readouterr().err.strip().splitlines()
        # both 300-point builds of a d=1 sampler also warn that it is not sublinear
        errors = [line for line in err if '{"warning": "not_sublinear"' not in line]
        assert len(err) - len(errors) == (0 if algorithm == "add1d" else 2)
        assert len(errors) == 1 and '"line 138: ' in errors[0]
        assert sketches[0] == sketches[1]
