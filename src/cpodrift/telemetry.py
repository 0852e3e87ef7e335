"""Telemetry dataset: schema, chunked CSV row writer, numpy CSV reader.

One row per simulation step, exactly 14 metric columns in a fixed order.
Floats are written with 9 significant digits so repeated runs with the same
config and seed produce byte-identical files. :func:`write_rows` formats the
rows of every CSV the package writes (telemetry, forecast log, fingerprint
panels) one chunk at a time; :func:`read_csv` parses a whole telemetry file
in one ``np.loadtxt`` pass and names the line of the first malformed row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError

FLOAT_FMT = "%.9g"
# Rows formatted at once. Larger chunks cost peak memory: at 8192 rows a
# 90k-step run writing its two CSVs peaks about 4 MB (7 %) higher than at 2048.
_CHUNK = 2048


@dataclass
class TelemetryFrame:
    """Column-oriented telemetry for a whole run; field order is the schema."""

    step: np.ndarray
    t_ms: np.ndarray
    load_state: list[str]
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

    @property
    def n(self) -> int:
        return int(self.step.shape[0])

    @classmethod
    def empty(cls) -> "TelemetryFrame":
        return cls(**{
            c: [] if c == "load_state" else np.empty(0, _ROW[c]) for c in COLUMNS
        })


COLUMNS = tuple(f.name for f in fields(TelemetryFrame))
_INT_COLUMNS = ("step", "queue_depth")


# one parsed CSV row: int64 counters, float metrics, the state name as a str
_ROW = np.dtype([
    (c, object if c == "load_state" else np.int64 if c in _INT_COLUMNS else float)
    for c in COLUMNS
])
_CELLS = tuple(
    "%s" if c == "load_state" else "%d" if c in _INT_COLUMNS else FLOAT_FMT
    for c in COLUMNS
)


def write_rows(fh, columns, cells) -> None:
    """Write equal-length ``columns`` as CSV rows, ``_CHUNK`` rows at a time.

    ``cells`` holds one %-format per column (``"%.9g"``, ``"%d"``, ``"%s"``);
    a column is a numpy array or a list.
    """
    template = ",".join(cells) + "\n"
    for lo in range(0, len(columns[0]), _CHUNK):
        part = [c[lo:lo + _CHUNK] for c in columns]
        part = [p.tolist() if isinstance(p, np.ndarray) else p for p in part]
        fh.write("".join(map(template.__mod__, zip(*part))))


def write_csv(frame: TelemetryFrame, path) -> None:
    """Write the frame to CSV, one row per step."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        write_rows(fh, [getattr(frame, c) for c in COLUMNS], _CELLS)


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
    """Index of the first line :func:`_parse` rejects, given that it rejects
    ``lines``; bisects, so it costs about two parses of ``lines``."""
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
    """Read a telemetry CSV written by :func:`write_csv`.

    Every malformed row (wrong cell count, blank, a non-number, a
    non-integer counter) raises :class:`InputError` naming the file and line.
    """
    with open(path) as fh:
        if tuple(fh.readline().rstrip("\n").split(",")) != COLUMNS:
            raise InputError(
                f"{path}: not a telemetry CSV (expected header {','.join(COLUMNS)})"
            )
        lines = fh.readlines()
    if not lines:
        return TelemetryFrame.empty()
    try:
        rows = _parse(lines)
    except ValueError:
        i = _first_bad(lines)
        raise InputError(
            f"{path}: line {i + 2}: malformed row {lines[i].rstrip()!r} (expected "
            f"{len(COLUMNS)} cells: integer step and queue_depth, numbers "
            f"except load_state)"
        ) from None
    del lines  # the text goes before the column copies are made
    return TelemetryFrame(**{
        c: rows[c].tolist() if c == "load_state" else np.ascontiguousarray(rows[c])
        for c in COLUMNS
    })
