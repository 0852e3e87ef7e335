import hashlib
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cpodrift import fingerprint
from cpodrift.config import fingerprint_config
from cpodrift.errors import CoverageError, ExtractionError, InputError, InsufficientDataError
from cpodrift.fingerprint import (
    build_report,
    estimate_kappa,
    estimate_r_th,
    estimate_tau,
    find_holds,
    regress,
    regress_through_origin,
    report_dict,
    table_text,
    write_report,
)
from cpodrift.simulate import simulate
from cpodrift.telemetry import TelemetryFrame
from cpodrift.thermal import ThermalParams


# ---------------------------------------------------------------------------
# regression primitives

def test_regress_exact_line():
    r = regress([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert r.slope == pytest.approx(2.0, abs=1e-12)
    assert r.intercept == pytest.approx(1.0, abs=1e-12)
    assert r.r_squared == pytest.approx(1.0, abs=1e-12)
    assert r.n == 3


def test_regress_constant_y_convention():
    r = regress([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert r.r_squared == 0.0


def test_regress_input_errors():
    with pytest.raises(InputError):
        regress([1.0, 2.0], [1.0])
    with pytest.raises(InputError):
        regress([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        regress([1.0], [1.0])


@pytest.mark.parametrize("fit", [regress, regress_through_origin, estimate_tau,
                                 estimate_kappa])
def test_fits_reject_non_finite_points(fit):
    # a NaN would read as R^2 = 1 in x and as R^2 = 0 in y, and a tau trace
    # with one would fail as "never crosses 63.2%" or "non-physical fit"
    x, y = np.arange(1.0, 6.0), np.arange(1.0, 6.0) * 2.0
    bad = x.copy()
    bad[3] = math.nan
    with pytest.raises(InputError, match=r": x\[3\] must be finite, got nan"):
        fit(bad, y)
    y[1] = math.inf
    with pytest.raises(InputError, match=r": y\[1\] must be finite, got inf"):
        fit(x, y)


def test_r_squared_invariant_under_affine_x():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.9, 2.7, 400)
    y = 20.0 * x + rng.normal(0, 0.5, 400)
    r1 = regress(x, y).r_squared
    r2 = regress(0.361 * x + 19.875, y).r_squared
    assert abs(r1 - r2) < 1e-12


def test_through_origin_slope():
    x = np.array([1.0, 2.0, 3.0])
    r = regress_through_origin(x, 0.7 * x)
    assert r.slope == pytest.approx(0.7, abs=1e-12)
    assert r.intercept == 0.0


# ---------------------------------------------------------------------------
# tau extraction

def _rise_trace(tau=80.0, amp=37.0, n=400, dt=1.0):
    t = np.arange(n) * dt
    return t, amp * (1.0 - np.exp(-t / tau))


def test_estimate_tau_analytic_80():
    t, y = _rise_trace(80.0)
    assert estimate_tau(t, y) == pytest.approx(80.0, abs=0.5)


def test_estimate_tau_analytic_40():
    t, y = _rise_trace(40.0)
    assert estimate_tau(t, y) == pytest.approx(40.0, abs=0.5)


def test_estimate_tau_short_trace_unbiased():
    # 300 ms is less than 4 tau; the joint asymptote fit must stay unbiased
    t, y = _rise_trace(80.0, n=300)
    assert estimate_tau(t, y) == pytest.approx(80.0, abs=0.5)


def test_estimate_tau_falling_step():
    t = np.arange(500.0)
    y = 30.0 * np.exp(-t / 80.0) + 5.0
    assert estimate_tau(t, y) == pytest.approx(80.0, abs=0.5)


def test_estimate_tau_constant_trace_raises():
    t = np.arange(200.0)
    with pytest.raises(ExtractionError):
        estimate_tau(t, np.full(200, 7.5))


def test_estimate_tau_unsettled_ramp_raises():
    # a straight ramp fits best as tau -> infinity: the search ends on its edge
    t = np.arange(400.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ExtractionError, match="edge"):
            estimate_tau(t, t)


def test_estimate_tau_input_validation():
    with pytest.raises(InputError):
        estimate_tau([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ExtractionError):
        estimate_tau([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])  # too short
    with pytest.raises(InputError):
        estimate_tau([0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# kappa

def test_estimate_kappa_exact_linear_points():
    dts = np.array([5.0, 10.0, 20.0, 40.0])
    r = estimate_kappa(dts, 0.0852 * dts)
    assert abs(r.slope - 0.0852) < 1e-12
    assert r.r_squared == pytest.approx(1.0, abs=1e-12)


def test_estimate_kappa_errors():
    with pytest.raises(InsufficientDataError):
        estimate_kappa([5.0], [0.426])
    with pytest.raises(InsufficientDataError):
        estimate_kappa([5.0, 5.0, 5.0], [0.4, 0.4, 0.4])


# ---------------------------------------------------------------------------
# r_th from synthetic steady telemetry

def _steady_frame(levels, hold=500, dt=1.0):
    """Constant-level holds: (state, power, delta_t) per level."""
    n = hold * len(levels)
    state = []
    p = np.empty(n)
    d = np.empty(n)
    for i, (name, power, delta) in enumerate(levels):
        sl = slice(i * hold, (i + 1) * hold)
        state.extend([name] * hold)
        p[sl] = power
        d[sl] = delta
    z = np.zeros(n)
    return TelemetryFrame(
        step=np.arange(n, dtype=np.int64), t_ms=np.arange(n) * dt,
        load_state=state, rho=z.copy(), t24=z.copy(), p_eic_w=p,
        hint_w=z.copy(), eta=z.copy(), delta_t_c=d, bias_c=z.copy(),
        residual_c=d.copy(), drift_nm=0.0852 * d, queue_depth=z.astype(np.int64),
        ttft_ms=z.copy(),
    )


def test_estimate_r_th_two_exact_points():
    frame = _steady_frame([("Idle", 0.0, 0.0), ("Peak", 82.0, 36.982)])
    est = estimate_r_th(frame, ThermalParams())
    assert est.unified == pytest.approx(0.451, abs=1e-12)
    assert est.per_state["Peak"] == pytest.approx(0.451, abs=1e-12)


def test_estimate_r_th_identical_power_rejected():
    frame = _steady_frame([("Idle", 50.0, 20.0), ("Low", 50.0, 20.0)])
    with pytest.raises(InsufficientDataError):
        estimate_r_th(frame, ThermalParams())


def test_estimate_r_th_no_steady_hold():
    frame = _steady_frame([("Idle", 10.0, 4.5)], hold=100)  # 100 ms < 5 tau
    with pytest.raises(InsufficientDataError):
        estimate_r_th(frame, ThermalParams())


def test_five_tau_past_the_float_range_leaves_no_steady_hold():
    # 5 * 1e308 ms overflows to inf: no hold is that many steps long
    cfg = fingerprint_config()
    cfg = replace(cfg, thermal=replace(cfg.thermal, tau_ms=1e308),
                  workload=replace(cfg.workload, step_count=2000, schedule=tuple(
                      (state, 400.0) for state, _ in cfg.workload.schedule)))
    with pytest.raises(InsufficientDataError, match="no steady-state segment"):
        build_report(simulate(cfg).frame, cfg)


def _holds_by_loop(names):
    """The (state, start, stop) runs of ``names``, by the loop find_holds
    replaced."""
    if not names:
        return []
    holds, start = [], 0
    for i in range(1, len(names)):
        if names[i] != names[start]:
            holds.append((names[start], start, i))
            start = i
    holds.append((names[start], start, len(names)))
    return holds


@pytest.mark.parametrize("names", [
    pytest.param([], id="empty"),
    pytest.param(["Idle"], id="one_row"),
    pytest.param(["Peak"] * 7, id="one_state"),
    pytest.param(["Idle", "Peak"] * 4, id="alternating"),
    pytest.param(["Idle"] * 50 + ["Peak"] * 50 + ["Idle"] * 50, id="three_holds"),
])
@pytest.mark.parametrize("built_from", [list, lambda v: np.array(v, dtype=object)],
                         ids=["list", "array"])
def test_find_holds_run_lengths(names, built_from):
    frame = replace(TelemetryFrame.empty(len(names)), load_state=built_from(names))
    holds = find_holds(frame)
    assert [(h.state, h.start, h.stop) for h in holds] == _holds_by_loop(names)
    assert all(type(h.state) is str and type(h.start) is int for h in holds)


def test_report_rejects_a_state_outside_the_five(validation_run):
    # the 450-step High hold from step 23,000 renamed: its samples would
    # enter the unified fit, and the report would pass
    names = validation_run.frame.load_state.copy()
    names[23000:23450] = "Turbo"
    frame = replace(validation_run.frame, load_state=names)
    with pytest.raises(InputError, match="unknown load state 'Turbo' from step 23000"):
        build_report(frame, validation_run.config)


@pytest.mark.parametrize("row, t", [(1, 0.0), (0, math.nan), (4000, 3998.0)])
def test_report_rejects_a_bad_time_column(fingerprint_run, fingerprint_cfg, row, t):
    # equal first stamps divided by zero; a NaN first stamp read as "no
    # steady-state segment found"
    t_ms = fingerprint_run.frame.t_ms.copy()
    t_ms[row] = t
    frame = replace(fingerprint_run.frame, t_ms=t_ms)
    for judge in (lambda: build_report(frame, fingerprint_cfg),
                  lambda: estimate_r_th(frame, fingerprint_cfg.thermal)):
        with pytest.raises(InputError, match=rf"t_ms\[{row}\] = {t} is not a finite"):
            judge()


# ---------------------------------------------------------------------------
# full report

def test_report_finds_holds_and_step_period_once(monkeypatch, fingerprint_run,
                                                 fingerprint_cfg):
    calls = Counter()
    for name in ("find_holds", "_step_ms"):
        def counted(*args, _real=getattr(fingerprint, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(fingerprint, name, counted)
    build_report(fingerprint_run.frame, fingerprint_cfg)
    assert calls == {"find_holds": 1, "_step_ms": 1}


def test_report_resistance_is_estimate_r_th(fingerprint_run, fingerprint_cfg,
                                            fingerprint_report):
    est = estimate_r_th(fingerprint_run.frame, fingerprint_cfg.thermal)
    assert fingerprint_report.r_th_per_state == est.per_state
    assert fingerprint_report.r_th_unified == est.unified


def test_report_recovers_parameters(noiseless_fingerprint):
    report, cfg = noiseless_fingerprint
    assert abs(report.r_th_unified / cfg.thermal.r_th - 1.0) <= 0.01
    assert abs(report.tau_est_ms - cfg.thermal.tau_ms) <= 0.5
    assert abs(report.kappa_est.slope - cfg.optics.kappa_to) <= 1e-9


def test_report_pass_fail_verdicts(fingerprint_report):
    rows = {r.panel: r for r in fingerprint_report.pass_fail}
    assert len(rows) == 6
    assert rows["Top-Left"].verdict == "Pass"
    assert rows["Top-Right"].verdict in ("Pass", "Exceeded")
    assert rows["Bottom-Center"].verdict == "Excellent"
    assert rows["Bottom-Right"].verdict == "outside spec (expected)"
    assert fingerprint_report.ok


def test_report_stress_arithmetic(fingerprint_report):
    assert fingerprint_report.max_open_loop_drift_nm == pytest.approx(
        3.408, abs=1e-9
    )
    assert fingerprint_report.observed_max_drift_nm > 0.5  # outside spec band


def test_report_axis_change_preserves_r_squared(fingerprint_report):
    assert fingerprint_report.rho_dt_fit.r_squared == pytest.approx(
        fingerprint_report.t24_dt_fit.r_squared, abs=1e-12
    )


def test_report_panels_shapes(fingerprint_report):
    panels = {p.name: p for p in fingerprint_report.panel_data}
    assert set(panels) == {
        "rth_by_state", "thermal_diffusion_heatmap", "throughput_coupling",
        "step_response", "rth_validation", "spectral_stability",
    }
    assert panels["rth_by_state"].n_rows == 5
    assert panels["thermal_diffusion_heatmap"].n_rows == 5 * 500
    assert panels["rth_validation"].meta["max_deviation_frac"] <= 0.05
    ref = panels["throughput_coupling"].meta
    assert ref["reference_fit_slope"] == 63.0
    assert ref["reference_fit_intercept"] == -1256.6


def test_report_missing_state_coverage_error(fingerprint_run, fingerprint_cfg):
    frame = fingerprint_run.frame
    keep = [i for i, s in enumerate(frame.load_state) if s != "Peak"]
    sub = TelemetryFrame(
        step=frame.step[keep], t_ms=frame.t_ms[keep],
        load_state=[frame.load_state[i] for i in keep],
        rho=frame.rho[keep], t24=frame.t24[keep], p_eic_w=frame.p_eic_w[keep],
        hint_w=frame.hint_w[keep], eta=frame.eta[keep],
        delta_t_c=frame.delta_t_c[keep], bias_c=frame.bias_c[keep],
        residual_c=frame.residual_c[keep], drift_nm=frame.drift_nm[keep],
        queue_depth=frame.queue_depth[keep], ttft_ms=frame.ttft_ms[keep],
    )
    with pytest.raises(CoverageError) as exc:
        build_report(sub, fingerprint_cfg)
    assert "Peak" in exc.value.missing


def test_report_on_compensated_telemetry(validation_run):
    # plant-physics fits must read the plant delta, not the regulated
    # residual; the spectral row flips to "within spec" under compensation
    report = build_report(validation_run.frame, validation_run.config)
    assert abs(report.tau_est_ms - 80.0) <= 4.0
    assert report.rho_dt_fit.r_squared >= 0.98
    assert abs(report.kappa_est.slope - 0.0852) <= 1e-9
    spectral = next(r for r in report.pass_fail if r.panel == "Bottom-Right")
    assert spectral.verdict == "within spec"
    assert report.ok


def test_report_theory_line_uses_resolved_coupling():
    # d_um = 12 resolves gamma to 0.67: the plant and the theory line must
    # both use it
    cfg = fingerprint_config()
    cfg = replace(cfg, thermal=replace(cfg.thermal, d_um=12.0))
    report = build_report(simulate(cfg).frame, cfg)
    agreement = next(r for r in report.pass_fail if r.panel == "Bottom-Center")
    assert agreement.verdict == "Excellent"
    assert report.r_th_unified == pytest.approx(cfg.thermal.gain, rel=0.01)


def test_state_at_or_below_the_baseline_power_is_named():
    # Idle dissipates ~12 W: with a 13 W baseline its resistance is undefined
    cfg = fingerprint_config()
    cfg = replace(cfg, thermal=replace(cfg.thermal, p_baseline_w=13.0))
    with pytest.raises(InsufficientDataError,
                       match=r"'Idle'.*thermal\.p_baseline_w = 13\.0"):
        build_report(simulate(cfg).frame, cfg)


def _resistance_row(cfg):
    report = build_report(simulate(cfg).frame, cfg)
    return report, next(r for r in report.pass_fail if r.panel == "Top-Left")


def test_report_resistance_row_divides_out_coupling():
    # the through-origin slope is gamma * r_th; the row judges r_th itself
    cfg = fingerprint_config(24)
    report, row = _resistance_row(
        replace(cfg, thermal=replace(cfg.thermal, d_um=12.0)))
    assert row.ok and row.measured == "0.451 C/W"
    assert report.ok
    _, row = _resistance_row(replace(cfg, thermal=ThermalParams(r_th=0.40)))
    assert not row.ok and row.verdict == "Fail"


def test_report_rejects_a_nan_density(fingerprint_run, fingerprint_cfg):
    # not "Density-temperature R^2 1.0000 Exceeded"
    rho = fingerprint_run.frame.rho.copy()
    rho[100] = math.nan
    with pytest.raises(InputError, match=r"regress: x\[100\] must be finite"):
        build_report(replace(fingerprint_run.frame, rho=rho), fingerprint_cfg)


def test_report_is_pure_function(fingerprint_run, fingerprint_cfg):
    a = build_report(fingerprint_run.frame, fingerprint_cfg)
    b = build_report(fingerprint_run.frame, fingerprint_cfg)
    assert report_dict(a) == report_dict(b)


def test_report_dict_keeps_its_key_order(fingerprint_report):
    # `cpodrift experiment fingerprint` prints this dict unsorted
    assert list(report_dict(fingerprint_report)) == [
        "r_th_per_state", "r_th_unified", "tau_est_ms", "kappa_est_nm_per_c",
        "rho_dt_fit", "t24_dt_fit", "max_open_loop_drift_nm",
        "observed_max_drift_nm", "peak_delta_t_c", "peak_junction_temp_c",
        "t24_fit_reference", "pass_fail", "panels", "notes", "ok"]


def test_write_report_artifacts(tmp_path, fingerprint_report):
    files = write_report(fingerprint_report, tmp_path)
    names = {f.name for f in files}
    assert "fingerprint_report.json" in names
    assert "fingerprint_table.txt" in names
    csvs = [f for f in files if f.suffix == ".csv"]
    assert len(csvs) == 6
    for f in csvs:
        lines = f.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert "," in header
    txt = table_text(fingerprint_report.pass_fail)
    assert "outside spec (expected)" in txt


# sha256 of each panel CSV of the seed-24 staircase report, as written by the
# per-cell formatter that write_rows replaced
PANEL_SHA256 = {
    "rth_by_state": "318d4e888e28c4849d693c909325f54ff326b5cae5423b4f6d9d2423e66ecd3e",
    "rth_validation": "acec911686f99c985ab28dae65115db3258db8e2a5b54a6b010204de4c0cc650",
    "spectral_stability": "7a6861b41c713eff0e63e937e4985f4d445812d6364fafa0233013c0dfb7bbef",
    "step_response": "1ee3ad8661e59bb035535af3fd40e90696472dd13863fbd44a84d7df89698a81",
    "thermal_diffusion_heatmap":
        "2b0bd4ce6044860e8387e289379b2851d12f385cb142790ffd06d149f2045ea9",
    "throughput_coupling": "f4651d6d79a89666a185cf85347621da94a62cf68cd854feda396b4511a4159a",
}


def test_panel_csvs_are_byte_identical_to_golden(tmp_path, fingerprint_report):
    write_report(fingerprint_report, tmp_path)
    got = {
        name: hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
        for name in PANEL_SHA256
    }
    assert got == PANEL_SHA256
