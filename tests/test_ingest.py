"""Stream ingest against the per-row checks.

``stream.ingest`` reads a CSV file whose rows all pass in one ``np.loadtxt``
call on its path, straight into the records.  Any other CSV stream, and every
HSTR stream, is read in numpy blocks: rows that fail a mask, and CSV blocks
that ``np.loadtxt`` rejects, go through ``stream._RowChecker``, which writes
every row error.  The reference here runs that checker on every line (CSV) or
unpacks every record with ``struct`` (HSTR): ingest must give the same points
bit for bit, the same errors in the same order and the same first error under
``fail_fast``, for any block size and on either CSV path.
"""

import gzip
import io
import json
import math
import struct
import sys
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
       "1e400", "0.5#x", "\xa00.25", "0.25\x0b", "1.5", "0.123456789012345678901234567890123456",
       "0.5\x00", "\x000.25", "0.\x005"]
# line ends: the fast path reads the file as one buffer, the block path line by line
ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
BOM = "\ufeff"
COORDS = st.one_of(st.floats(-1.2, 1.2).map(repr), st.sampled_from(BOUNDARY),
                   st.sampled_from(ODD))
SPECIAL = st.sampled_from(["", "   ", "\t", "# comment", "  # indented", "#1,0.5", "\u3000",
                          "\xa0# indented"])


ROWS = st.tuples(st.sampled_from(["1", "-1"]), st.floats(-0.9, 0.9)).map(
    lambda r: f"{r[0]},{r[1]!r}")
BLANK_LINES = ["", " ", "\t", "\xa0", "\u3000", " \t\xa0\u3000 ", "#", "# 1,0.5", "\xa0#x",
               "\u3000#1,0.5"]
# rows that loadtxt parses and the mask rejects
FAILING = ["0,0.5", "2,0.5", "1,nan", "-1,inf", "1,2.0", "-1,-1.5"]
# rows that loadtxt rejects among rows of one coordinate
MALFORMED = ["1,", "x,0.5", "1,0.5,0.5", "1,abc", "1,0.5#x", "1", ",", "1,0.5,", "1,0.5\x00",
             "\x00-1,0.25"]


@st.composite
def lines_among_rows(draw):
    """Valid rows mixed with a few kinds of line each: lines that strip to
    nothing or to a '#' line, rows the mask rejects and rows that
    ``np.loadtxt`` rejects.  Few kinds make blocks that only one of them
    breaks common."""
    odd = [*draw(st.lists(st.sampled_from(BLANK_LINES), min_size=1, max_size=2)),
           *draw(st.lists(st.sampled_from(FAILING), min_size=1, max_size=2)),
           *draw(st.lists(st.sampled_from(MALFORMED), max_size=1))]
    lines = draw(st.lists(st.one_of(ROWS, st.sampled_from(odd)), max_size=40))
    # a line that ends in "\r" ends in CRLF once written; a "\r" inside splits it
    lines = [line + draw(st.sampled_from(["", "", "\r", "\r1,0.25"])) for line in lines]
    if lines and draw(st.booleans()):
        lines[0] = BOM + lines[0]
    return lines


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
    text = "".join(line + draw(ENDS) for line in lines)
    if text and draw(st.booleans()):  # no line end after the last line
        text = text.rstrip("\r\n")
    return (BOM if draw(st.integers(0, 9)) == 0 else "") + text


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

    @SETTINGS
    @given(lines=lines_among_rows())
    # blocks of 2 to 8 lines put a blank line before a row the mask rejects
    @example(lines=["1,0.5", "", "2,0.5", "\xa0", "1,nan", "\u3000", "-1,2.0"])
    def test_blank_comment_and_malformed_lines_among_rows(self, tmp_path, monkeypatch, lines):
        """Lines that strip to nothing (U+00A0 and U+3000 included, which
        ``np.loadtxt`` rejects rather than skips), '#' lines and malformed rows
        among valid ones: every block maps its rows one to one onto its lines."""
        path = tmp_path / "s.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        points, errors = per_row_csv(str(path), 1.0)
        for rows in range(1, 9):
            monkeypatch.setattr(stream, "_BLOCK_ROWS", rows)
            records, got_errors = cli.ingest(str(path), "csv")
            assert _rows(records) == _ref_rows(points)
            assert got_errors == errors


def count_row_checks(monkeypatch) -> list:
    """The per-row checks called from here on, by name, one entry per call."""
    calls = []

    def counted(name):
        method = getattr(stream._RowChecker, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)
        return wrapper

    for name in ("csv_line", "labeled", "point"):
        monkeypatch.setattr(stream._RowChecker, name, counted(name))
    return calls


def write_hstr(path, y, X):
    rec = np.empty(len(y), stream.record_dtype(X.shape[1]))
    rec["y"], rec["x"] = y, X
    path.write_bytes(stream.MAGIC + struct.pack("<I", X.shape[1]) + rec.tobytes())


def test_infinite_max_norm_sends_no_finite_row_to_the_checks(tmp_path, monkeypatch):
    calls = count_row_checks(monkeypatch)
    X = np.random.default_rng(4).uniform(-1e150, 1e150, (1000, 2))
    csv, hstr = tmp_path / "s.csv", tmp_path / "s.bin"
    csv.write_text("".join(f"-1,{a!r},{b!r}\n" for a, b in X.tolist()))
    write_hstr(hstr, np.full(1000, -1), X)
    for path, fmt in ((csv, "csv"), (hstr, "bin")):
        records, errors = cli.ingest(str(path), fmt, max_norm=math.inf)
        assert len(records) == 1000 and errors == [] and calls == []


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_infinite_max_norm_rules_as_the_per_row_checks(tmp_path, monkeypatch, fmt):
    """Rows of infinite or NaN norm, or whose squares overflow, go to the
    per-row checks, which rule on them as on any row."""
    coords = [0.5, -1e150, 1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 3.0]
    rows = [(y, a, b) for y in (1, -1, 0) for a in coords for b in coords]
    path = tmp_path / f"s.{fmt}"
    if fmt == "csv":
        path.write_text("".join(f"{y},{a!r},{b!r}\n" for y, a, b in rows))
    else:
        write_hstr(path, np.array([r[0] for r in rows]), np.array([r[1:] for r in rows]))
    assert_same_as_per_row(str(path), fmt, math.inf, monkeypatch)


def test_per_row_checks_run_only_on_failing_rows(tmp_path, monkeypatch):
    calls = count_row_checks(monkeypatch)
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
    y = np.ones(500)
    y[11] = 0
    path = tmp_path / "s.bin"
    write_hstr(path, y, X)
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


def spy_block_reader(monkeypatch) -> list:
    """The paths that reach the CSV block reader from here on, one entry per stream."""
    calls = []
    blocks = stream._blocks

    def spied(path, fmt, chk):
        if fmt == "csv":
            calls.append(path)
        return blocks(path, fmt, chk)
    monkeypatch.setattr(stream, "_blocks", spied)
    return calls


def build(capsys, path) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``build`` on a CSV stream."""
    code = cli.main(["build", "--algorithm", "add1d", "--input", str(path),
                     "--epsilon", "0.3", "--out", str(path) + ".hsk"])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_clean_file_is_parsed_once(tmp_path, monkeypatch, d):
    """More rows than a block, all passing: no per-row check, no block reader."""
    n = stream._BLOCK_ROWS + 1000
    X = np.random.default_rng(d).uniform(-1.0, 1.0, (n, d)) / d
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{y},{','.join(map(repr, x))}\n"
                            for y, x in zip([1, -1] * (n // 2), X.tolist())))
    points, errors = per_row_csv(str(path), 1.0)
    assert len(points) == n and errors == []
    calls, blocks = count_row_checks(monkeypatch), spy_block_reader(monkeypatch)
    records, got_errors = cli.ingest(str(path), "csv")
    assert _rows(records) == _ref_rows(points) and got_errors == []
    assert calls == [] and blocks == []


@pytest.mark.parametrize("text", [
    "1,0.5\n# comment\n-1,0.25\n",
    "1,0.5\n   \n-1,0.25\n",
    "1,0.5\n1,2.0\n-1,0.25\n",  # one row over the norm bound
    "1,0.5\n1.0,0.25\n-1,0.25\n",  # a label the block path reads as 1
    "1\n1,0.5\n-1,0.25\n",  # no comma on line 1
])
def test_other_files_go_to_the_block_reader(tmp_path, monkeypatch, text):
    path = tmp_path / "s.csv"
    path.write_text(text)
    blocks = spy_block_reader(monkeypatch)
    assert_same_as_per_row(str(path), "csv", 1.0, monkeypatch)
    assert blocks and set(blocks) == {str(path)}


def test_bad_utf8_goes_to_the_block_reader(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    path.write_bytes(b"1,0.5\n-1,0.25\xff\n")
    with pytest.raises(UnicodeDecodeError) as e:
        path.read_text(encoding="utf-8")
    blocks = spy_block_reader(monkeypatch)
    with pytest.raises(cli.DataError) as got:
        cli.ingest(str(path), "csv")
    assert str(got.value) == f"{path}: {e.value}" and blocks == [str(path)]


def test_rows_read_as_fields(tmp_path, monkeypatch):
    """Every path returns a recarray, whose rows read as ``p.x`` and ``p.y``."""
    X = np.random.default_rng(5).uniform(-0.5, 0.5, (20, 2))
    y = np.array([1, -1] * 10)
    csv, hstr = tmp_path / "s.csv", tmp_path / "s.bin"
    stream.write_stream(stream.make_records(y, X), str(csv), "csv")
    write_hstr(hstr, y, X)
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("# header\n" + csv.read_text())
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    for rows in (7, 65536):  # several blocks, one block
        monkeypatch.setattr(stream, "_BLOCK_ROWS", rows)
        for path, fmt in ((csv, "csv"), (dirty, "csv"), (hstr, "bin")):
            records, _ = cli.ingest(str(path), fmt)
            assert isinstance(records, np.recarray) and isinstance(records[0], np.record)
            assert [p.y for p in records] == y.tolist()
            np.testing.assert_array_equal([p.x for p in records], X)
        assert isinstance(cli.ingest(str(empty), "csv")[0], np.recarray)


def test_gzip_file_is_not_decompressed(tmp_path, capsys):
    """numpy would decompress a ".gz" path; ingest reads its bytes as text."""
    path = tmp_path / "s.gz"
    path.write_bytes(gzip.compress(b"1,0.5\n-1,0.25\n"))
    with pytest.raises(UnicodeDecodeError) as e:
        path.read_text(encoding="utf-8")
    code, err = build(capsys, path)
    assert code == cli.EXIT_DATA
    assert err == [json.dumps({"error": "data", "message": f"{path}: {e.value}"})]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_suffix_goes_to_the_block_reader(tmp_path, monkeypatch, suffix):
    """A plain-text CSV named as numpy's compressed files is read as text."""
    path = tmp_path / f"s{suffix}"
    path.write_text("1,0.5\n-1,0.25\n")
    blocks = spy_block_reader(monkeypatch)
    records, errors = cli.ingest(str(path), "csv")
    assert _rows(records) == _ref_rows([(1, (0.5,)), (-1, (0.25,))]) and errors == []
    assert blocks == [str(path)]


def test_missing_file_is_not_looked_for_compressed(tmp_path, capsys):
    """numpy would open "w.csv.gz" when asked for a missing "w.csv"."""
    path = tmp_path / "w.csv"
    (tmp_path / "w.csv.gz").write_bytes(gzip.compress(b"1,0.5\n"))
    with pytest.raises(OSError) as e:
        open(path)
    code, err = build(capsys, path)
    assert code == cli.EXIT_DATA
    assert err == [json.dumps({"error": "data", "message": str(e.value)})]


def test_path_that_reads_as_url_is_a_local_file(tmp_path, monkeypatch):
    """numpy would fetch "http://localhost/s.csv"; here it names http:/localhost/s.csv."""
    def no_fetch(*args, **kwargs):
        raise AssertionError("a local path was fetched as a URL")
    monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "s.csv").write_text("1,0.5\n-1,0.25\n")
    blocks = spy_block_reader(monkeypatch)
    records, errors = cli.ingest("http://localhost/s.csv", "csv")
    assert _rows(records) == _ref_rows([(1, (0.5,)), (-1, (0.25,))]) and errors == []
    assert blocks == [] and sorted(p.name for p in tmp_path.iterdir()) == ["http:"]


def test_dash_reads_stdin(tmp_path, monkeypatch):
    """"-" is stdin, even beside a regular file named "-"."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text("1,0.5\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("-1,0.25\n1,0.125\n"))
    records, errors = cli.ingest("-", "csv")
    assert _rows(records) == _ref_rows([(-1, (0.25,)), (1, (0.125,))]) and errors == []


def test_empty_file_warns_nothing(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = build(capsys, path)
    assert caught == [] and code == cli.EXIT_DATA
    assert err == [json.dumps({"error": "data", "message": "no valid points in stream"})]


def test_a_parse_that_warns_goes_to_the_block_reader(tmp_path, monkeypatch):
    """Older numpy parses "1.5" into an integer field with a DeprecationWarning."""
    loadtxt = np.loadtxt

    def warning_loadtxt(fname, *args, **kwargs):
        if isinstance(fname, str):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return loadtxt(fname, *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = tmp_path / "s.csv"
    path.write_text("1,0.5\n-1,0.25\n")
    blocks = spy_block_reader(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_same_as_per_row(str(path), "csv", 1.0, monkeypatch)
    assert caught == [] and blocks and set(blocks) == {str(path)}
