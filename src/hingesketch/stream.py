"""Labeled streams on disk: the CSV and HSTR formats, read and written.

A stream is a sequence of points (x, y) with x in R^d and y in {-1, +1}.
CSV rows are "y,x1[,x2...]", decoded as UTF-8; blank lines and lines that
start with '#' are skipped.  An HSTR file is an 8-byte header (magic "HSTR",
u32 dimension) followed by records of one label byte and d little-endian
float64 coordinates.  See docs/formats.md.

A CSV file whose rows all pass is parsed in one ``np.loadtxt`` call on its
path; any other CSV stream, and every HSTR stream, is read in blocks, and the
block readers own every row error.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings

import numpy as np

from .core import LabeledPoint

MAGIC = b"HSTR"

# rows per block of the stream readers
_BLOCK_ROWS = 65536

# np.loadtxt opens a str path through numpy.lib._datasource, which decompresses
# a file with one of these suffixes; such a file goes to the block reader
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class DataError(ValueError):
    pass


def record_dtype(d: int) -> np.dtype:
    """One stream record, as HSTR stores it: a label byte and d float64 coordinates."""
    return np.dtype([("y", "i1"), ("x", "<f8", (d,))])


def make_records(y, X) -> np.recarray:
    """The ``record_dtype(d)`` array of labels ``y`` and (n, d) coordinates ``X``, as a
    recarray view so that a row reads as ``p.x``/``p.y``; library code reads fields."""
    rec = np.empty(len(X), record_dtype(X.shape[1]))
    rec["y"] = y
    rec["x"] = X
    return rec.view(np.recarray)


class _RowChecker:
    """The per-row checks of a stream, and the single source of row errors.

    The block readers call it only on rows a mask rejects, and on CSV blocks
    that ``np.loadtxt`` cannot parse.  ``dim`` is fixed by the first row with a
    valid label and parseable coordinates, even if that row then fails.
    """

    def __init__(self, max_norm: float, fail_fast: bool):
        self.max_norm = max_norm
        self.fail_fast = fail_fast
        self.dim: int | None = None
        self.errors: list[str] = []

    def bad(self, lineno: int, msg: str) -> None:
        self.errors.append(f"line {lineno}: {msg}")
        if self.fail_fast:
            raise DataError(f"line {lineno}: {msg}")

    def point(self, lineno: int, coords, y: int):
        """The coordinates of a point with a valid label, or None once its error is reported."""
        try:
            p = LabeledPoint(coords, y)
        except ValueError as e:
            self.bad(lineno, str(e))
            return None
        if p.norm() > self.max_norm + 1e-9:
            self.bad(lineno, f"norm {p.norm():.6g} exceeds bound {self.max_norm:.6g}")
            return None
        return p.x

    def labeled(self, lineno: int, y: int, coords):
        """(y, coordinates) of a row with label y, or None once its error is reported."""
        if y not in (-1, 1):
            self.bad(lineno, "label must be -1 or 1")
            return None
        x = self.point(lineno, coords, y)
        return None if x is None else (y, x)

    def csv_line(self, lineno: int, line: str):
        """(y, coordinates) of a CSV line; None for a blank or '#' line, and once
        the line's error is reported."""
        line = line.strip()
        if not line or line.startswith("#"):
            return None
        parts = line.split(",")
        try:
            label = float(parts[0])
        except ValueError:
            label = math.nan
        if not math.isfinite(label):
            self.bad(lineno, f"bad label {parts[0]!r}")
            return None
        if label not in (-1.0, 1.0):
            self.bad(lineno, "label must be -1 or 1")
            return None
        try:
            coords = tuple(float(v) for v in parts[1:])
        except ValueError:
            self.bad(lineno, "bad coordinate")
            return None
        if not coords:
            self.bad(lineno, "missing coordinates")
            return None
        if self.dim is None:
            self.dim = len(coords)
        elif len(coords) != self.dim:
            self.bad(lineno, f"dimension drift: {len(coords)} != {self.dim}")
            return None
        return self.labeled(lineno, int(label), coords)

    def mask(self, y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Rows that pass every check: labels +-1, finite, within the norm bound.

        A NaN or infinite coordinate makes the norm NaN or infinite, which
        fails the bound.  Python 3.12+ sums floats with compensation, which
        can move a norm of ``_row_norms`` by an ulp for d >= 3, so rows within
        1e-12 of the bound go to the per-row check.  An infinite bound cuts at
        the largest finite float, so that every finite norm passes.
        """
        limit = self.max_norm + 1e-9
        cut = limit - 1e-12 * limit if limit < math.inf else sys.float_info.max
        return ((y == 1) | (y == -1)) & (_row_norms(X) <= cut)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean row norms, the squares added column by column as ``LabeledPoint.norm`` adds them."""
    with np.errstate(over="ignore"):  # a square past the float range is inf, as in Python
        sq = X[:, 0] * X[:, 0]
        for j in range(1, X.shape[1]):
            sq += X[:, j] * X[:, j]
        return np.sqrt(sq)


def _passing(y: np.ndarray, X: np.ndarray, ok: np.ndarray, check) -> np.ndarray:
    """Records of the rows of a block that pass: the ``ok`` rows, and each
    other row ``i`` for which the per-row ``check(i)`` returns (y, coordinates)."""
    for i in np.flatnonzero(~ok).tolist():
        res = check(i)
        if res is not None:
            ok[i] = True
            X[i] = res[1]
    return make_records(y[ok], X[ok])


def _csv_records(stream, chk: _RowChecker):
    """Record blocks of a CSV stream, read _BLOCK_ROWS lines at a time."""
    first = 1
    while True:
        lines = list(itertools.islice(stream, _BLOCK_ROWS))
        if not lines:
            return
        linenos = np.arange(first, first + len(lines))
        first += len(lines)
        if min(lines) < "$":  # lines that are blank or '#' once stripped sort below "$"
            lines = list(map(str.strip, lines))
            keep = np.fromiter(map(len, lines), np.intp, len(lines)) > 0
            keep &= ~np.fromiter(map(str.startswith, lines, itertools.repeat("#")),
                                 bool, len(lines))
            lines = list(itertools.compress(lines, keep.tolist()))
            linenos = linenos[keep]
            if not lines:
                continue
        try:
            # comments=None: the default "#" would cut "1,0.5#x", a bad coordinate
            a = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            a = None
        if a is None:
            rows = [r for r in map(chk.csv_line, linenos.tolist(), lines) if r is not None]
            if rows:
                yield np.array(rows, record_dtype(chk.dim))
            continue
        y, X = a[:, 0], a[:, 1:]
        if chk.dim is None and X.shape[1] and ((y == 1) | (y == -1)).any():
            chk.dim = X.shape[1]
        ok = chk.mask(y, X) if X.shape[1] == chk.dim else np.zeros(len(a), bool)
        yield _passing(y, X, ok, lambda i: chk.csv_line(int(linenos[i]), lines[i]))


def _clean_csv(path: str, chk: _RowChecker):
    """The records of a CSV file whose rows all pass, from one ``np.loadtxt``
    call on its path; None for any other file, which the block reader reads.

    Given a path, numpy reads the file in chunks of text and parses labels and
    coordinates straight into the records, with the float parser the block
    reader uses; d is the comma count of line 1.  Labels parse as integers,
    so "1.0" or "1e0" sends the file to the block reader, as do '#' and
    whitespace-only lines, a failing row and a parse that warns (an old
    numpy's lenient integer parse).  Only a regular file with no compressed
    suffix is read here, by its absolute path: numpy would look for
    "w.csv.gz" when "w.csv" is missing, and fetch a relative path that reads
    as a URL.
    """
    if path == "-" or not os.path.isfile(path) or path.endswith(_COMPRESSED):
        return None
    try:
        with open(path, encoding="utf-8") as f:
            d = f.readline().count(",")
        if d < 1:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = np.loadtxt(os.path.abspath(path), delimiter=",", comments=None, ndmin=1,
                             dtype=record_dtype(d), encoding="utf-8")
    except (OSError, ValueError, Warning):
        return None
    return rec if chk.mask(rec["y"], rec["x"]).all() else None


def _hstr_records(f, chk: _RowChecker):
    """Record blocks of an HSTR stream."""
    head = f.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise DataError("bad stream header (expected HSTR magic)")
    chk.dim = int.from_bytes(head[4:8], "little")
    if not 1 <= chk.dim < 2**31:  # numpy cannot shape a record of 2**31 coordinates
        raise DataError(f"bad stream header (dimension {chk.dim})")
    dtype = record_dtype(chk.dim)
    # reads of at most 16 MB, or one record: a crafted dimension asks for no more
    rows = max(1, min(_BLOCK_ROWS, (1 << 24) // dtype.itemsize))
    done = 0
    while True:
        # a fresh, writable buffer per block: a block whose rows all pass is
        # yielded as is.  np.empty, not bytearray: the pages a short read does
        # not fill are never touched
        buf = np.empty(dtype.itemsize * rows, np.uint8)
        got = f.readinto(buf)
        if not got:
            return
        recs = buf[: got - got % dtype.itemsize].view(dtype)
        y, X = recs["y"], recs["x"]
        ok = chk.mask(y, X)
        yield recs if ok.all() else _passing(
            y, X, ok, lambda i: chk.labeled(done + 1 + i, int(y[i]), X[i].tolist()))
        done += len(recs)
        if got % dtype.itemsize:
            chk.bad(done + 1, "truncated record")
            return


def _blocks(path: str, fmt: str, chk: _RowChecker):
    """Record blocks of a stream file, in stream order; the CSV path "-" reads stdin."""
    if fmt == "csv":
        f = sys.stdin if path == "-" else open(path, encoding="utf-8")
        try:
            yield from _csv_records(f, chk)
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: {e}") from e
        finally:
            if f is not sys.stdin:
                f.close()
    elif fmt == "bin":
        with open(path, "rb") as f:
            yield from _hstr_records(f, chk)
    else:
        raise ValueError(f"unknown stream format {fmt!r}")


def ingest(path: str, fmt: str, fail_fast: bool = False, max_norm: float = 1.0):
    """Read a labeled stream; returns (records, row_errors).

    ``records`` is one structured array of ``record_dtype(d)``: the points
    that pass every check, in stream order.  ``max_norm`` relaxes the
    unit-ball check (the adversarial optimization instances deliberately
    place one cluster at norm 1+delta).  A CSV file whose rows all pass is
    parsed once (``_clean_csv``); any other CSV stream, stdin included, and
    every HSTR stream is read in blocks.  There, rows that fail a check, and
    CSV blocks that ``np.loadtxt`` rejects, go through the per-row checks of
    ``_RowChecker``, which write every row error.  Either way the records are a
    recarray view, whose rows read as ``p.x``/``p.y``.  A NaN or negative
    ``max_norm`` raises ValueError before any row is read.
    """
    if not max_norm >= 0:  # NaN fails too: every norm check against it would pass
        raise ValueError(f"max_norm must be >= 0, not {max_norm!r}")
    chk = _RowChecker(max_norm, fail_fast)
    records = _clean_csv(path, chk) if fmt == "csv" else None
    if records is None:
        blocks = [b for b in _blocks(path, fmt, chk) if len(b)]
        records = np.concatenate(blocks) if blocks else np.empty(0, record_dtype(chk.dim or 1))
    return records.view(np.recarray), chk.errors


def write_stream(records: np.ndarray, path: str, fmt: str) -> None:
    """Write a ``record_dtype(d)`` array as a CSV or HSTR stream; d comes from
    its ``x`` field, so an empty stream keeps its dimension."""
    d = records["x"].shape[1]
    if fmt == "csv":
        with open(path, "w") as f:
            for s in range(0, len(records), _BLOCK_ROWS):
                blk = records[s : s + _BLOCK_ROWS]
                # a row is "y,x1,..."; repr prints a float's shortest round-trip text
                cols = [map(str, blk["y"].tolist()), *(map(repr, c) for c in blk["x"].T.tolist())]
                f.write("\n".join(map(",".join, zip(*cols))) + "\n")
    elif fmt == "bin":
        with open(path, "wb") as f:
            f.write(MAGIC + d.to_bytes(4, "little"))
            f.write(records.astype(record_dtype(d), copy=False).tobytes())
    else:
        raise ValueError(f"unknown stream format {fmt!r}")
