"""Telemetry dataset: schema, streaming CSV writer, reader.

One row per simulation step, exactly 14 metric columns in a fixed order.
Floats are written with 9 significant digits so repeated runs with the same
config and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError

FLOAT_FMT = "%.9g"
_CHUNK = 8192


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
        return cls(**_columns({c: [] for c in COLUMNS}))


COLUMNS = tuple(f.name for f in fields(TelemetryFrame))
_INT_COLUMNS = ("step", "queue_depth")


def _columns(cols: dict[str, list]) -> dict:
    """Column lists as frame fields: int64 counters, float metrics."""
    return {
        c: v if c == "load_state"
        else np.asarray(v, dtype=np.int64 if c in _INT_COLUMNS else float)
        for c, v in cols.items()
    }


def write_csv(frame: TelemetryFrame, path) -> None:
    """Stream the frame to CSV in bounded-memory chunks."""
    fmt = FLOAT_FMT
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for lo in range(0, frame.n, _CHUNK):
            hi = min(lo + _CHUNK, frame.n)
            rows = []
            for i in range(lo, hi):
                rows.append(
                    f"{int(frame.step[i])},{fmt % frame.t_ms[i]},"
                    f"{frame.load_state[i]},{fmt % frame.rho[i]},"
                    f"{fmt % frame.t24[i]},{fmt % frame.p_eic_w[i]},"
                    f"{fmt % frame.hint_w[i]},{fmt % frame.eta[i]},"
                    f"{fmt % frame.delta_t_c[i]},{fmt % frame.bias_c[i]},"
                    f"{fmt % frame.residual_c[i]},{fmt % frame.drift_nm[i]},"
                    f"{int(frame.queue_depth[i])},{fmt % frame.ttft_ms[i]}\n"
                )
            fh.write("".join(rows))


def read_csv(path) -> TelemetryFrame:
    """Read a telemetry CSV written by :func:`write_csv`."""
    cols: dict[str, list] = {c: [] for c in COLUMNS}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != COLUMNS:
            raise InputError(
                f"{path}: not a telemetry CSV (expected header {','.join(COLUMNS)})"
            )
        for row in reader:
            if len(row) != len(COLUMNS):
                raise InputError(f"{path}: malformed row {row!r}")
            for c, v in zip(COLUMNS, row):
                cols[c].append(v)
    return TelemetryFrame(**_columns(cols))
