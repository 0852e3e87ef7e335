import csv
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cpodrift import fingerprint
from cpodrift import telemetry
from cpodrift.config import default_config
from cpodrift.errors import InputError
from cpodrift.simulate import _chunks, write_run
from cpodrift.workload import STATE_BY_NAME
from cpodrift.telemetry import (
    _CHUNK,
    FLOAT_FMT,
    _ROW,
    COLUMNS,
    TelemetryFrame,
    read_csv,
    write_csv,
    write_rows,
)

EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
               0.5, 99999.99995, 1.0 / 3.0,
               # exact binary ties at the 9th digit
               1234567895.0, 123456789.5, 123456788.5,
               # decimal ties at the 9th digit: the scaled product |x|·10^k
               # rounds to exactly a .5 tie, though the binary x lies off it
               48497457.55, 400.0919115, 0.1140812545, 0.0005999585185]
# for each decimal exponent: the power of ten, the 9-digit tie just below it
# computed two ways, and the float neighbours of each
_BOUNDARY = [
    v
    for e in range(-5, 10)
    for b in (10.0 ** e, 9.999999995 * 10.0 ** e, (1e9 - 0.5) * 10.0 ** (e - 8))
    for v in (b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf))
]
EDGE_FLOATS += _BOUNDARY + [-v for v in _BOUNDARY]
# a U-dtype column, as the fingerprint panels pass, with a non-ASCII name and
# a lone surrogate, which a str may hold
PANEL_NAMES = np.array(["Idle", "", "Spitzenlast \u00e9\u6e29\u5ea6", "x" * 40,
                        "lone \udc80"])


def test_schema_has_exactly_14_columns():
    assert len(COLUMNS) == 14
    assert COLUMNS[0] == "step" and COLUMNS[-1] == "ttft_ms"


def test_row_invariants(validation_run):
    frame = validation_run.frame
    cfg = validation_run.config
    assert np.all(np.diff(frame.t_ms) > 0)
    np.testing.assert_allclose(
        frame.drift_nm, cfg.optics.kappa_to * frame.residual_c, atol=1e-9
    )
    np.testing.assert_allclose(
        frame.t24, cfg.affine_map.alpha * frame.rho + cfg.affine_map.beta,
        atol=1e-9,
    )


def test_csv_round_trip(tmp_path, fingerprint_run):
    path = tmp_path / "t.csv"
    frame = fingerprint_run.frame
    write_csv(frame, path)
    back = read_csv(path)
    assert back.n == frame.n
    assert np.array_equal(back.load_state, frame.load_state)
    # 9 significant digits survive the round trip at this magnitude
    np.testing.assert_allclose(back.delta_t_c, frame.delta_t_c, rtol=1e-8)
    np.testing.assert_allclose(back.drift_nm, frame.drift_nm, rtol=1e-8)
    assert np.array_equal(back.queue_depth, frame.queue_depth)


def test_csv_header_order(tmp_path, transient_run):
    path = tmp_path / "t.csv"
    write_csv(transient_run.frame, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)


def test_read_rejects_foreign_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InputError):
        read_csv(p)


def test_empty_frame():
    f = TelemetryFrame.empty()
    assert f.n == 0


def test_every_column_is_an_array_of_its_schema_dtype(tmp_path, transient_run):
    path = tmp_path / "t.csv"
    write_csv(transient_run.frame, path)
    for frame in (transient_run.frame, read_csv(path), TelemetryFrame.empty()):
        for c in COLUMNS:
            col = getattr(frame, c)
            assert isinstance(col, np.ndarray) and col.dtype == _ROW[c], c
            assert col.shape == (frame.n,), c
    assert set(transient_run.frame.load_state) <= set(STATE_BY_NAME)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the telemetry and forecast-log CSVs of the seed-24 default run,
# as written by the per-cell formatter that write_rows replaced
TELEMETRY_SHA256 = "634c6971709c8b9113c9ea81cbb61a914530cffdae6ce7dd65c704b44828e94b"
FORECAST_LOG_SHA256 = "47f27a680dca1c22e0b43dcf2967b9007122da6ebf9e578e54ebb1462cc0154d"


def test_default_run_csvs_are_byte_identical_to_golden(tmp_path, validation_run):
    write_csv(validation_run.frame, tmp_path / "t.csv")
    validation_run.forecast_log.write_csv(tmp_path / "f.csv")
    assert _sha256(tmp_path / "t.csv") == TELEMETRY_SHA256
    assert _sha256(tmp_path / "f.csv") == FORECAST_LOG_SHA256


def _edge_columns(n: int, seed: int = 0):
    """Floats cycling the edge values then spanning 1e-300..1e300, int64
    counters including both extremes, and state names up to 3,000 chars."""
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats = np.concatenate([EDGE_FLOATS, wide])[:n]
    ints = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n,
                        dtype=np.int64, endpoint=True)
    ints[:2] = [np.iinfo(np.int64).min, np.iinfo(np.int64).max][:n]
    names = np.array(["", "Idle", "a state name with spaces", "S" * 3000],
                     dtype=object)
    return floats, ints, names[np.arange(n) % names.size]


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_write_rows_matches_per_cell_format(n):
    # two files from one set of columns: the second shares a column with the
    # first and takes table-coded ones, a float table and a name table
    floats, ints, states = _edge_columns(n, seed=n)
    panel = PANEL_NAMES[np.arange(n) % len(PANEL_NAMES)]
    codes = np.arange(n)[::-1] % len(EDGE_FLOATS)
    columns = {"x": floats, "k": ints, "s": states, "p": panel,
               "edge": (codes, np.array(EDGE_FLOATS)), "name": (codes % 5, PANEL_NAMES)}
    cells = {"x": "%.9g", "k": "%d", "s": "%s", "p": "%s", "edge": "%.9g",
             "name": "%s"}
    fh, other = io.StringIO(), io.StringIO()
    write_rows([(fh, ("x", "k", "s", "p")), (other, ("edge", "x", "name"))],
               columns, cells)
    expected = "".join(
        f"{'%.9g' % float(x)},{int(k)},{s},{p}\n"
        for x, k, s, p in zip(floats, ints, states, panel.tolist())
    )
    assert fh.getvalue() == expected
    assert other.getvalue() == "".join(
        f"{'%.9g' % EDGE_FLOATS[i]},{'%.9g' % float(x)},{PANEL_NAMES[i % 5]}\n"
        for i, x in zip(codes, floats))


def _assert_band_prints_each_cell_in_used_rows(x):
    band = telemetry._float_band(x)
    assert not (band == 0xFF).all(axis=1).any()     # no row all pad
    assert [bytes(c[c != 0xFF]).decode() for c in band.T] == \
        [FLOAT_FMT % v for v in np.asarray(x, dtype=float).tolist()]


# 9-digit mantissas at the edges of the 3-digit groups
_GROUP_EDGES = (999999999, 100000000, 1000000, 999999, 1000, 999)


@pytest.mark.parametrize("x", [
    EDGE_FLOATS,
    np.arange(0, 4096) * 1.0,
    np.arange(86016, 90000) * 1.0,
    np.arange(3, 5) * 1.0,
    [s * m * 10.0 ** k for m in _GROUP_EDGES for k in range(-14, 4)
     for s in (1, -1)],
    *([m * 10.0 ** k for m in _GROUP_EDGES] for k in (-13, -9, -6, -1, 0, 2, 3)),
], ids=["edge", "stamps", "late_stamps", "two_stamps", "group_edges",
        *(f"group_edges_e{k}" for k in (-13, -9, -6, -1, 0, 2, 3))])
def test_float_band_has_only_rows_some_cell_prints(x):
    _assert_band_prints_each_cell_in_used_rows(x)


def test_chunk_bands_have_only_rows_some_cell_prints():
    # seed 1018's first chunk: a 4,096-row slice of each float column, and
    # the tables write_run takes ttft_ms, horizon_ms and eta from by code
    cfg = default_config(1018)
    columns = next(_chunks(cfg)).columns(cfg)
    for col in columns.values():
        x = col[1] if isinstance(col, tuple) else col
        if isinstance(x, np.ndarray) and x.dtype == float:
            _assert_band_prints_each_cell_in_used_rows(x[:4096])


def test_written_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # a band's height follows the cells of its chunk; the text must not
    cfg = default_config(24)
    cfg = replace(cfg, workload=replace(cfg.workload, step_count=3_000))
    written = []
    for chunk in (7, 1_000, 4_096):
        monkeypatch.setattr(telemetry, "_CHUNK", chunk)
        write_run(cfg, tmp_path / "t.csv", tmp_path / "f.csv")
        written.append([(tmp_path / f).read_bytes() for f in ("t.csv", "f.csv")])
    assert written[0] == written[1] == written[2]


def test_writing_the_90k_frame_stays_within_a_memory_budget(tmp_path,
                                                            validation_run):
    # the writer holds one chunk at a time: 2.2 MB traced at 4,096 rows, and
    # 8.6 MB at 16,384 rows, a chunk that raised the run's peak RSS by 9 MB
    tracemalloc.start()
    try:
        write_csv(validation_run.frame, tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


# the per-cell parser of a column, by the kind of its schema dtype
_PARSE = {"f": float, "i": int, "O": str}
_FLOAT_COLUMNS = [c for c in COLUMNS if _ROW[c].kind == "f"]


def _frame_from_columns(n: int) -> TelemetryFrame:
    edges = dict(zip("fiO", _edge_columns(n)))
    return TelemetryFrame(**{c: np.roll(edges[_ROW[c].kind], j)
                             for j, c in enumerate(COLUMNS)})


def _parse_per_cell(path) -> dict:
    """The reader the numpy one replaced: csv.reader, float()/int() per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {
        c: np.array([_PARSE[_ROW[c].kind](x) for x in v], dtype=_ROW[c])
        for c, v in zip(COLUMNS, zip(*rows))
    }


def _assert_frame_equals_per_cell(frame: TelemetryFrame, path) -> None:
    ref = _parse_per_cell(path)
    for c in COLUMNS:
        np.testing.assert_array_equal(getattr(frame, c), ref[c], strict=True,
                                      err_msg=c)
    for c in _FLOAT_COLUMNS:
        assert np.array_equal(np.signbit(getattr(frame, c)),
                              np.signbit(ref[c])), c


@pytest.mark.parametrize("n", [1, _CHUNK + 1])
def test_read_equals_per_cell_parse_on_edge_values(tmp_path, n):
    path = tmp_path / "t.csv"
    frame = _frame_from_columns(n)
    write_csv(frame, path)
    back = read_csv(path)
    _assert_frame_equals_per_cell(back, path)
    assert np.array_equal(back.load_state, frame.load_state)


def test_read_equals_per_cell_parse_on_a_run(tmp_path, fingerprint_run):
    path = tmp_path / "t.csv"
    write_csv(fingerprint_run.frame, path)
    _assert_frame_equals_per_cell(read_csv(path), path)


def test_read_accepts_crlf_lines(tmp_path, transient_run):
    path = tmp_path / "t.csv"
    write_csv(transient_run.frame, path)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    a, b = read_csv(path), read_csv(crlf)
    for c in COLUMNS:
        np.testing.assert_array_equal(getattr(b, c), getattr(a, c), strict=True,
                                      err_msg=c)


def test_empty_frame_round_trips_without_warning(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(TelemetryFrame.empty(), path)
    assert path.read_text() == ",".join(COLUMNS) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_csv(path)
    assert back.n == 0
    for c in COLUMNS:
        assert getattr(back, c).shape == (0,) and getattr(back, c).dtype == _ROW[c]


GOOD_ROW = "0,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0,3200"


@pytest.mark.parametrize("bad", [
    "0,abc,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0,3200",   # non-numeric float cell
    "0.5,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0,3200",  # non-integer step
    "0,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,1.5,3200",  # non-integer queue_depth
    "1e3,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0,3200",  # step written as a float
    "0,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0",         # 13 cells
    "0,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0,3200,9",  # 15 cells
    "",                                                     # blank line
])
@pytest.mark.parametrize("where", [0, 2, 5000])
def test_read_rejects_malformed_row_naming_the_line(tmp_path, bad, where):
    lines = [GOOD_ROW] * 5001
    lines[where] = bad
    path = tmp_path / "bad.csv"
    path.write_text(",".join(COLUMNS) + "\n" + "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=rf"bad\.csv: line {where + 2}: malformed"):
            read_csv(path)


def test_read_rejects_a_lone_blank_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(COLUMNS) + "\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="line 2: malformed"):
            read_csv(path)


# read_csv parses _SLICE lines at a time; the tests below shrink the slice so
# that a few dozen rows cross several slice edges
_EDGE_SLICE = 7
_EDGE_ROWS = 3 * _EDGE_SLICE + 2        # the last slice is a partial one


@pytest.mark.parametrize("bad", [
    "0,abc,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0,3200",   # non-numeric float cell
    "",                                                     # blank line
    "0,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0",         # 13 cells
    "0.5,1.5,Idle,0.1,1,2,3,0.5,0.25,0,0.25,0.02,0,3200",  # non-integer step
])
@pytest.mark.parametrize("where", [_EDGE_SLICE - 1, _EDGE_SLICE, _EDGE_SLICE + 1,
                                   2 * _EDGE_SLICE, _EDGE_ROWS - 1])
def test_read_names_the_line_of_a_bad_row_at_a_slice_edge(tmp_path, monkeypatch,
                                                          bad, where):
    monkeypatch.setattr(telemetry, "_SLICE", _EDGE_SLICE)
    lines = [GOOD_ROW] * _EDGE_ROWS
    lines[where] = bad
    path = tmp_path / "bad.csv"
    path.write_text(",".join(COLUMNS) + "\n" + "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=rf"bad\.csv: line {where + 2}: malformed"):
            read_csv(path)


def test_read_rejects_a_non_utf8_byte_in_a_later_slice(tmp_path, monkeypatch):
    # 256-line slices put the third slice past the first 8 KB the text
    # decoder reads, so the bad byte is decoded while that slice is taken
    monkeypatch.setattr(telemetry, "_SLICE", 256)
    lines = [GOOD_ROW.encode()] * 1000
    lines[2 * 256 + 5] = GOOD_ROW.replace("Idle", "Caf\xe9").encode("latin-1")
    path = tmp_path / "latin1.csv"
    path.write_bytes(",".join(COLUMNS).encode() + b"\n" + b"\n".join(lines) + b"\n")
    with pytest.raises(InputError, match=r"latin1\.csv: not utf-8 text"):
        read_csv(path)


@pytest.mark.parametrize("variant", ["lf", "no final newline", "crlf", "header only",
                                     "whole slices", "1 row"])
def test_read_in_slices_equals_read_in_one_slice(tmp_path, monkeypatch, variant):
    path = tmp_path / "t.csv"
    frame = _frame_from_columns({"header only": 0, "whole slices": 3 * _EDGE_SLICE,
                                 "1 row": 1}.get(variant, _EDGE_ROWS))
    write_csv(frame, path)
    text = path.read_bytes()
    path.write_bytes({"no final newline": text.rstrip(b"\n"),
                      "crlf": text.replace(b"\n", b"\r\n")}.get(variant, text))
    whole = read_csv(path)
    monkeypatch.setattr(telemetry, "_SLICE", _EDGE_SLICE)
    sliced = read_csv(path)
    for c in COLUMNS:
        np.testing.assert_array_equal(getattr(sliced, c), getattr(whole, c),
                                      strict=True, err_msg=c)
    for c in _FLOAT_COLUMNS:
        assert np.array_equal(np.signbit(getattr(sliced, c)),
                              np.signbit(getattr(whole, c))), c
    assert np.array_equal(sliced.load_state, frame.load_state)


def _traced_above_frame(path, run, n: int) -> int:
    """The traced peak of reading the first ``n`` rows of ``run`` back, less
    the bytes of the frame read."""
    write_csv(TelemetryFrame(**{c: getattr(run.frame, c)[:n] for c in COLUMNS}),
              path)
    tracemalloc.start()
    try:
        frame = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.n == n
    return peak - sum(getattr(frame, c).nbytes for c in COLUMNS)


def test_read_memory_above_the_frame_does_not_grow_with_the_rows(
        tmp_path, monkeypatch, fingerprint_run):
    # a whole-file parse holds the lines, a structured array with one str per
    # row and the column copies at once: about 250 B a row above the frame
    size = 500
    monkeypatch.setattr(telemetry, "_SLICE", size)

    def above_frame(n: int) -> int:
        return _traced_above_frame(tmp_path / f"t{n}.csv", fingerprint_run, n)

    # the columns grow in place, so only one slice's parse is held above them
    assert above_frame(8 * size) - above_frame(2 * size) <= 8 * 6 * size


def test_read_holds_no_column_twice(tmp_path, monkeypatch, fingerprint_run):
    # above the frame the read holds one slice's parse at any length; a join
    # of per-slice copies would hold one more 8-byte column, 8 B a row
    size = 128
    monkeypatch.setattr(telemetry, "_SLICE", size)
    short, long = (_traced_above_frame(tmp_path / f"t{k}.csv", fingerprint_run,
                                       k * size) for k in (4, 32))
    assert abs(long - short) <= _ROW.itemsize * size


@pytest.mark.parametrize("hook", ["setprofile", "settrace"])
def test_read_works_under_a_profile_or_trace_hook(tmp_path, monkeypatch,
                                                 fingerprint_run, hook):
    # with a profile or trace hook set, the interpreter holds one more
    # reference to a column while it resizes, which numpy's refcheck refuses
    monkeypatch.setattr(telemetry, "_SLICE", 128)
    path = tmp_path / "t.csv"
    write_csv(TelemetryFrame(**{c: getattr(fingerprint_run.frame, c)[:1000]
                                for c in COLUMNS}), path)
    plain = read_csv(path)
    before = getattr(sys, "get" + hook[3:])()
    getattr(sys, hook)(lambda *args: None)
    try:
        hooked = read_csv(path)
    finally:
        getattr(sys, hook)(before)
    for c in COLUMNS:
        assert np.array_equal(getattr(hooked, c), getattr(plain, c)), c


# The peak resident set of this process image, in KiB. ru_maxrss would also
# carry the peak of the process that spawned it across the exec.
_RSS_CHILD = """\
import sys
from cpodrift.telemetry import COLUMNS, read_csv
def hwm():
    with open("/proc/self/status") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0])
before = hwm()
frame = read_csv(sys.argv[1])
print((hwm() - before) * 1024 / sum(getattr(frame, c).nbytes for c in COLUMNS))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak resident set from /proc")
def test_read_grows_resident_memory_by_about_one_frame(tmp_path):
    # tracemalloc counts each live block once, wherever the allocator put it;
    # the resident peak also sees freed slice copies that the heap cannot
    # hand to the next column, which a join of them left resident
    cfg = default_config(24)
    cfg = replace(cfg, workload=replace(cfg.workload, step_count=200_000))
    path = tmp_path / "t.csv"
    write_run(cfg, path, tmp_path / "log.csv")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(path)], env=env,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 1.4


def test_read_keeps_one_str_per_state_name(tmp_path, monkeypatch, fingerprint_run):
    monkeypatch.setattr(telemetry, "_SLICE", 1000)
    path = tmp_path / "t.csv"
    write_csv(fingerprint_run.frame, path)
    states = read_csv(path).load_state
    assert len({id(s) for s in states}) == len(set(states)) > 1


def test_writers_reject_a_name_that_is_not_utf8_and_leave_no_file(
        tmp_path, fingerprint_run):
    # a lone surrogate is a str, and write_rows renders it into any text
    # stream; a file's UTF-8 encoder cannot write it
    lone = str(PANEL_NAMES[-1])
    states = fingerprint_run.frame.load_state.copy()
    states[7] = lone
    frame = replace(fingerprint_run.frame, load_state=states)
    panel = fingerprint.Panel("p", {"x": np.arange(3.0),
                                    "state": PANEL_NAMES[[0, 4, 2]]}, {"k": 1})
    for write, path in ((lambda p: write_csv(frame, p), tmp_path / "t.csv"),
                        (lambda p: fingerprint.write_panel_csv(panel, p),
                         tmp_path / "p.csv")):
        with pytest.raises(InputError) as e:
            write(path)
        assert str(path) in str(e.value) and repr(lone) in str(e.value)
        assert not path.exists()
    fh = io.StringIO()
    write_rows([(fh, ("state",))], panel.columns, {"state": "%s"})
    assert fh.getvalue().splitlines()[1] == lone
