"""Telemetry dataset: schema, vectorized CSV row writer, sliced CSV reader.

One row per simulation step, exactly 14 metric columns in a fixed order.
Floats are written with 9 significant digits so repeated runs with the same
config and seed produce byte-identical files. :func:`write_rows` writes the
rows of every CSV the package writes (telemetry, forecast log, fingerprint
panels). It renders ``_CHUNK`` rows at a time as one numpy byte matrix, built
column by column. A float column's band has only the character rows some
cell prints, its 9-digit mantissa split into digit groups by exact float
arithmetic, and Python's ``%`` formats only the cells whose ``%.9g`` text
the arithmetic cannot prove: non-finite cells, cells printed in scientific
notation, and cells whose mantissa, scaled in floating point, lands exactly
on a .5 tie. The output is the per-cell format byte for byte. A column may
be table codes, whose table's text is rendered once, and
``simulate.write_run`` renders each band once for both the telemetry and the
forecast log. :func:`write_json` gives every JSON artifact its one layout.
:func:`read_csv` parses ``_SLICE`` lines at a time in one pass, shares one
``str`` per state name, names the line of the first malformed row and grows
each column in place (glibc's ``realloc`` moves a large block by ``mremap``,
so no column is resident twice): exactly, as ``resize`` zero-fills the rows
it adds, and with ``refcheck`` off, which profilers and tracers would trip.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .errors import InputError

FLOAT_FMT = "%.9g"
# Rows rendered at once; the chunk's byte matrix and temporaries grow with it.
# Writing the seed-24 90k-step frame traces a 2.2 MB peak at 4,096 rows. At
# 2,048 rows it writes about 20 % slower; 8,192 rows (4.3 MB) are no faster.
# validation90k streams its rows, so this sets its peak RSS: 44 MB at 4,096
# rows, 1 MB less at 2,048, 3 MB more at 8,192 and 7 MB more at 16,384.
_CHUNK = 4096
# Lines read_csv parses at once, beside the columns read so far. A process
# that reads the seed-1018 90k-row file and writes its fingerprint report peaks
# at 43.4 MB RSS at 2,048 lines, against 43.8-44.0 at 1,024, 44.7-44.8 at 4,096,
# 46.8 at 8,192 and 47.0-47.2 at 16,384; at 900k rows (seed 24), 141 MB against
# 142-143 at 1,024-8,192 and 155 at 16,384. On two x86-64 vCPUs the 90k read
# takes 0.10 s at 2,048 lines and 0.094 s at 16,384, best of five.
_SLICE = 2048


@dataclass
class TelemetryFrame:
    """Column-oriented telemetry for a whole run; field order is the schema.
    Every column is an ``n``-row array of its ``_ROW`` dtype: a sequence of
    state names given for ``load_state`` becomes an object array."""

    step: np.ndarray
    t_ms: np.ndarray
    load_state: np.ndarray
    rho: np.ndarray
    t24: np.ndarray
    p_eic_w: np.ndarray
    hint_w: np.ndarray
    eta: np.ndarray
    delta_t_c: np.ndarray
    bias_c: np.ndarray
    residual_c: np.ndarray
    drift_nm: np.ndarray
    queue_depth: np.ndarray
    ttft_ms: np.ndarray

    def __post_init__(self) -> None:
        self.load_state = np.asarray(self.load_state, _ROW["load_state"])

    @property
    def n(self) -> int:
        return int(self.step.shape[0])

    @classmethod
    def empty(cls, n: int = 0) -> "TelemetryFrame":
        """A frame of ``n`` unfilled rows."""
        return cls(**{c: np.empty(n, _ROW[c]) for c in COLUMNS})


COLUMNS = tuple(f.name for f in fields(TelemetryFrame))
_INT_COLUMNS = ("step", "queue_depth")


# one parsed CSV row: int64 counters, float metrics, the state name as a str
_ROW = np.dtype([
    (c, object if c == "load_state" else np.int64 if c in _INT_COLUMNS else float)
    for c in COLUMNS
])
_CELLS = {c: {"O": "%s", "i": "%d", "f": FLOAT_FMT}[_ROW[c].kind] for c in COLUMNS}


# A chunk is a byte matrix with one row per character slot and one column per
# CSV row. _PAD fills the slots a cell leaves empty; UTF-8 never contains it.
_PAD, _MINUS, _DOT, _ZERO = (np.uint8(c) for c in b"\xff-.0")

# %.9g prints x in fixed notation when its decimal exponent e, taken after
# rounding to 9 digits, is in -4..8: the digits of m = rint(|x|·10^(8−e)) with
# a '.' after digit e, or after a "0.000" prefix cut to 1 − e characters when
# e < 0, and with trailing fractional zeros stripped.
_POW10 = 10.0 ** np.arange(13)                 # 10^(8−e), each one exact
# 000..999 as words of three ASCII digits and a pad byte, one gather a group
_DIGITS = np.frombuffer(b"".join(b"%03d\xff" % i for i in range(1000)), np.uint32)
_SLOT = np.arange(1, 10, dtype=np.uint8)[:, None]          # digits 1..9
_GROUPS = np.array([[1e6], [1e3], [1.0]])       # place values of m's groups
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_PREFIX_E = np.array([-1, -1, -2, -3, -4])[:, None]        # e ≤ this prints it


def _text_band(texts: list[bytes]) -> np.ndarray:
    """``texts`` as a (longest, len(texts)) band, one column each."""
    band = np.full((max(map(len, texts), default=0), len(texts)), _PAD)
    for i, t in enumerate(texts):
        band[:len(t), i] = np.frombuffer(t, np.uint8)
    return band


def _float_band(x) -> np.ndarray:
    """The ``%.9g`` text of each cell of ``x`` as a byte band."""
    x = np.asarray(x, dtype=float)
    # log10(0) and the casts of inf and nan warn; zeros pass by a == 0 and
    # inf and nan never pass, so those values are not used
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.abs(x)
        e = np.floor(np.log10(a)).astype(np.intp)
        np.minimum(np.maximum(e, -4, out=e), 8, out=e)
        s = a * _POW10[8 - e]
        m = np.rint(s)
        # s = fl(|x|·10^(8−e)) rounds the exact product once, and rounding is
        # monotone: 1e8 < s < 1e9 − 0.5 proves that e is the exponent of x at
        # 9 digits, whatever log10 returned, and an s that is not a float tie
        # k + 0.5 rounds to the integer nearest the exact product. ±0.0
        # prints "0" from m = e = 0.
        fast = ((s > 1e8) & (s < 999999999.5) & (np.abs(s - m) < 0.5)
                | (a == 0))
    m = np.where(fast, m, 0.0)
    e = np.where(m > 0, e, 0)
    # m's 3-digit groups in exact float arithmetic: m is an integer below
    # 1e9, so m/1e6 and m/1e3 are integers or 1e-6 and 1e-3 or more from one,
    # far above half an ulp (2^-33 below 1e6), and their correctly rounded
    # quotients floor exactly; every product and difference is below 2^53
    g = np.floor(m / _GROUPS)
    g[1:] -= g[:2] * 1e3
    d = _DIGITS.take(g.astype(np.intp)).view(np.uint8).reshape(3, -1, 4)
    d = d[..., :3].transpose(0, 2, 1).reshape(9, -1)
    kept = np.maximum(((d != _ZERO) * _SLOT).max(axis=0), e + 1)
    d = d[:kept.max()]      # only the rows some cell prints, padded past kept
    d |= (_SLOT[:len(d)] > kept.astype(np.uint8)).view(np.uint8) * _PAD
    lo, hi = e.min(), e.max()
    rows = []
    neg = np.signbit(x)
    if neg.any():
        rows.append(np.where(neg, _MINUS, _PAD)[None])
    if lo < 0:
        rows.append(np.where(e <= _PREFIX_E[:1 - lo], _PREFIX[:1 - lo], _PAD))
    point = np.where(kept > e + 1, e, -1)      # the digit a '.' follows
    for j in range(len(d)):
        rows.append(d[j:j + 1])
        if lo <= j <= hi and (dot := point == j).any():   # a '.' some cell prints
            rows.append(np.where(dot, _DOT, _PAD)[None])
    band = np.concatenate(rows)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = _text_band([(FLOAT_FMT % v).encode() for v in x[slow].tolist()])
        if text.shape[0] > band.shape[0]:
            band = np.concatenate([band, np.full(
                (text.shape[0] - band.shape[0], band.shape[1]), _PAD)])
        band[:, slow] = _PAD
        band[:text.shape[0], slow] = text
    return band


def _int_band(k) -> np.ndarray:
    """The ``%d`` text of each cell of ``k`` as a byte band."""
    k = np.asarray(k, dtype=np.int64)
    q = k.view(np.uint64)
    q = np.where(k < 0, -q, q)          # the magnitude, int64 min included
    rows = []
    while True:
        r = q // np.uint64(10)
        digit = (q - r * np.uint64(10)).astype(np.uint8) + _ZERO
        rows.append(np.where(q > 0, digit, _PAD) if rows else digit)
        q = r
        if not q.any():
            break
    if (k < 0).any():
        rows.append(np.where(k < 0, _MINUS, _PAD))
    return np.stack(rows[::-1])


def _str_band(names) -> np.ndarray:
    """The ``%s`` text of ``names``, an object or ``U`` array, as a byte
    band: a band of each distinct name, taken by the cells' codes."""
    names = names.tolist()
    table = {s: i for i, s in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(table.__getitem__, names), np.intp, len(names))
    texts = [str(s).encode("utf-8", "surrogatepass") for s in table]
    return _text_band(texts).take(codes, axis=1)


_BANDS = {FLOAT_FMT: _float_band, "%d": _int_band, "%s": _str_band}


def write_rows(files, columns, cells) -> None:
    """Write equal-length ``columns`` as CSV rows, ``_CHUNK`` rows at a time,
    to each ``fh`` of the ``(fh, names)`` pairs in ``files``: the columns
    ``names`` names, in that order.

    ``columns`` maps a name to a 1-d numpy array, or to ``(codes, table)``
    for the cells ``table[codes]``, and ``cells`` maps it to its %-format
    (``"%.9g"``, ``"%d"``, ``"%s"``). A table's band is rendered once a call
    and a column's once a chunk, however many files name it. A file's chunk
    is one byte matrix: the band of each column, a comma row after each band
    but the last and a newline row at the end. Read row by row without its
    pad bytes, it is the text ``cells`` gives each row.
    """
    tables = {c: _BANDS[cells[c]](col[1]) for c, col in columns.items()
              if isinstance(col, tuple)}
    col = columns[files[0][1][0]]
    total = len(col[0] if isinstance(col, tuple) else col)
    for lo in range(0, total, _CHUNK):
        at = slice(lo, min(lo + _CHUNK, total))
        comma = np.full((1, at.stop - lo), ord(","), np.uint8)
        bands = {}
        for i, (fh, names) in enumerate(files):
            parts = []
            for c in names:
                if c not in bands:
                    bands[c] = tables[c].take(columns[c][0][at], axis=1) \
                        if c in tables else _BANDS[cells[c]](columns[c][at])
                parts += [bands[c], comma]
            parts[-1] = np.full_like(comma, ord("\n"))
            # only the bands a later file names outlive this file's text
            bands = {c: bands[c] for _, more in files[i + 1:] for c in more
                     if c in bands}
            text = np.concatenate(parts).T.tobytes().translate(None, b"\xff")
            fh.write(text.decode("utf-8", "surrogatepass"))


@contextmanager
def csv_file(path):
    """``path`` open to write a CSV; a cell that is not UTF-8 text (a lone
    surrogate) raises an InputError naming it and the path, leaving no file."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except UnicodeEncodeError as e:
        os.remove(path)
        at = max(e.object.rfind(c, 0, e.start) for c in ",\n") + 1
        cell = e.object[at:].split("\n")[0].split(",")[0]
        raise InputError(f"{path}: {cell!r} is not UTF-8 text") from None


def write_csv(frame: TelemetryFrame, path) -> None:
    """Write a frame's telemetry to CSV, one row per step."""
    with csv_file(path) as fh:
        fh.write(",".join(COLUMNS) + "\n")
        write_rows([(fh, COLUMNS)], vars(frame), _CELLS)


def write_json(path, payload: dict) -> None:
    """Write a JSON artifact: indented, with sorted keys."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))


def _parse(lines: list[str]) -> np.ndarray:
    with warnings.catch_warnings():
        # np.loadtxt skips blank lines (warning when nothing is left); the
        # row count below rejects them instead
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
    if rows.shape[0] != len(lines):
        raise ValueError("blank line")
    return rows


def _first_bad(lines: list[str]) -> int:
    """Index of the first line of a slice that :func:`_parse` rejects, given
    that it rejects the slice; bisects, so it costs about two parses of it."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse(lines[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def read_csv(path) -> TelemetryFrame:
    """Read a telemetry CSV written by :func:`write_csv` in one pass of
    ``_SLICE``-line slices; the rows of a state share one ``str`` name.

    Every malformed row (wrong cell count, blank, a non-number, a
    non-integer counter) raises :class:`InputError` naming the file and line,
    as does a file that does not decode. State names are read as written.
    """
    frame, names, done = TelemetryFrame.empty(), {}, 0   # one str per name; rows read
    try:
        with open(path) as fh:
            if tuple(fh.readline().rstrip("\n").split(",")) != COLUMNS:
                raise InputError(f"{path}: not a telemetry CSV (expected header "
                                 f"{','.join(COLUMNS)})")
            while lines := list(islice(fh, _SLICE)):
                try:
                    rows = _parse(lines)
                except ValueError:
                    i = _first_bad(lines)
                    raise InputError(
                        f"{path}: line {done + i + 2}: malformed row "
                        f"{lines[i].rstrip()!r} (expected {len(COLUMNS)} cells: "
                        f"integer step and queue_depth, numbers except "
                        f"load_state)") from None
                states = rows["load_state"].tolist()
                rows["load_state"] = list(map(names.setdefault, states, states))
                del lines, states  # the slice's text goes before the columns grow
                for c in COLUMNS:  # to the exact size; unchecked, as the
                    # loop's only view of a column, getattr(frame, c)[done:],
                    # lives one statement and the frame is returned after it
                    getattr(frame, c).resize(done + len(rows), refcheck=False)
                    getattr(frame, c)[done:] = rows[c]
                done += len(rows)
                del rows  # and its rows before the next slice is read
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    return frame
