from dataclasses import replace

import numpy as np
import pytest

from cpodrift.config import comparison_config
from cpodrift.controller import (
    ControllerParams,
    Mode,
    compensate,
    energy_margin_estimate,
)
from cpodrift.errors import (
    ConfigError,
    ImplausibleInputError,
    InputError,
    StepSizeError,
)
from cpodrift.optics import OpticParams, drift
from cpodrift.scheduler import HintForecast
from cpodrift.simulate import simulate
from cpodrift.thermal import ThermalParams
from oracle import CompensationState, MissingHintError, control_step

THERMAL = ThermalParams()
OPTIC = OpticParams()


def _hint(fw, t=0.0, horizon=30.0):
    return HintForecast(horizon_ms=horizon, forecast_w=fw, issued_at_ms=t,
                        source="queue_replay", newest_input_ms=t)


def _residual(params, plant_c, hint_w=0.0, steps=1, horizon=30.0):
    """Last-step residual of ``steps`` steps of constant plant and hint."""
    dT = np.full(steps, plant_c)
    bias = compensate(dT, np.full(steps, hint_w), 1.0, params, THERMAL, horizon)
    assert bias.shape == (steps,)
    return float(abs(dT - bias)[-1]), float(bias[-1])


def test_open_loop_residual_is_plant_delta():
    residual, bias = _residual(ControllerParams(mode=Mode.OPEN_LOOP), 40.0)
    assert bias == 0.0
    assert residual == 40.0
    assert drift(residual, OPTIC) == pytest.approx(3.408, abs=1e-9)


def test_zero_plant_zero_residual_every_mode():
    for mode in Mode:
        residual, _ = _residual(ControllerParams(mode=mode), 0.0, steps=200)
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert drift(residual, OPTIC) == pytest.approx(0.0, abs=1e-12)


def test_predictive_requires_hint():
    with pytest.raises(MissingHintError):
        control_step(CompensationState(), 10.0, None, 1.0,
                     ControllerParams(mode=Mode.PREDICTIVE), THERMAL, OPTIC)


def test_control_step_rejects_bad_dt():
    with pytest.raises(StepSizeError):
        control_step(CompensationState(), 1.0, _hint(10.0), 0.0,
                     ControllerParams(), THERMAL, OPTIC)


def test_lead_cannot_exceed_horizon():
    params = ControllerParams(lead_ms=40.0)
    with pytest.raises(InputError):
        control_step(CompensationState(), 1.0, _hint(10.0, horizon=30.0), 1.0,
                     params, THERMAL, OPTIC)


def test_predictive_converges_to_cap_setpoint():
    # steady peak load with a perfect hint: residual settles at the setpoint,
    # under the cap, and the drift under the compensated budget
    params = ControllerParams()
    peak_w = 94.0
    residual, _ = _residual(params, THERMAL.gain * peak_w, peak_w, steps=3000)
    assert residual <= 4.15 + 1e-9
    assert residual == pytest.approx(params.setpoint_c, abs=1e-6)
    assert drift(residual, OPTIC) <= 0.3536


def test_reactive_converges_to_cap_setpoint():
    params = ControllerParams(mode=Mode.REACTIVE)
    residual, _ = _residual(params, 20.0, steps=3000)
    assert residual == pytest.approx(params.setpoint_c, abs=1e-6)


def test_energy_margin_reference_points():
    assert energy_margin_estimate(5.0, 0.85) == pytest.approx(0.17, abs=1e-12)
    assert energy_margin_estimate(5.0, 0.0) == 0.0
    assert energy_margin_estimate(5.0, 1.0) == pytest.approx(0.20, abs=1e-12)
    assert 0.15 <= energy_margin_estimate(5.0, 0.85) <= 0.20


def test_energy_margin_validation():
    with pytest.raises(ImplausibleInputError):
        energy_margin_estimate(5.0, 6.0)
    with pytest.raises(InputError):
        energy_margin_estimate(0.0, 0.0)
    with pytest.raises(InputError):
        energy_margin_estimate(5.0, -0.1)


def test_controller_params_validation():
    with pytest.raises(ConfigError):
        ControllerParams(gain=0.0)
    with pytest.raises(ConfigError):
        ControllerParams(gain=1.2)
    with pytest.raises(ConfigError):
        ControllerParams(actuator_tau_ms=0.0)
    with pytest.raises(ConfigError):
        ControllerParams(residual_cap_c=-1.0)
    with pytest.raises(ConfigError):
        ControllerParams(setpoint_margin_c=5.0)
    with pytest.raises(ConfigError):
        ControllerParams(mode="thermostat")


def _burst_cfg(steps=6000):
    cfg = comparison_config(seed=11)
    return replace(cfg, workload=replace(cfg.workload, step_count=steps))


def test_reactive_residual_monotone_in_sensor_latency():
    prev = -1.0
    for latency in (5.0, 10.0, 20.0, 40.0):
        cfg = _burst_cfg()
        cfg = replace(cfg, controller=ControllerParams(
            mode=Mode.REACTIVE, sensor_latency_ms=latency))
        run = simulate(cfg)
        peak = run.summary.max_residual_c
        assert peak >= prev, f"latency {latency}: {peak} < {prev}"
        prev = peak


def test_predictive_residual_never_exceeds_cap_on_default_run(validation_run):
    cap = validation_run.config.controller.residual_cap_c
    assert validation_run.summary.max_residual_c <= cap + 1e-12


def test_predictive_never_worse_than_reactive_same_actuator():
    cfg = _burst_cfg()
    runs = {}
    for mode in (Mode.REACTIVE, Mode.PREDICTIVE):
        c = replace(cfg, controller=replace(cfg.controller, mode=mode))
        runs[mode] = simulate(c).summary.max_residual_c
    assert runs[Mode.PREDICTIVE] <= runs[Mode.REACTIVE]


def test_run_comparison_report_contents(comparison_report):
    rep = comparison_report
    modes = {m.mode for m in rep.modes}
    assert modes == {"reactive", "predictive", "open_loop"}
    assert rep.improvement_ratio is not None and rep.improvement_ratio > 1.0
    assert rep.energy_margin_fraction == pytest.approx(0.17)
    assert "not directly measured" in rep.energy_note
    text = rep.to_text()
    assert "improvement ratio" in text
    d = rep.to_dict()
    assert set(d["modes"]) == modes


def test_open_loop_mode_in_comparison_tracks_optics(comparison_report):
    ol = comparison_report.by_mode("open_loop")
    # open-loop drift is exactly kappa times the plant excursion
    assert ol.max_drift_nm == pytest.approx(0.0852 * ol.max_residual_c, rel=1e-9)
