import numpy as np
import pytest

from cpodrift.errors import InputError
from cpodrift.telemetry import COLUMNS, TelemetryFrame, read_csv, write_csv


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
    assert back.load_state == frame.load_state
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
