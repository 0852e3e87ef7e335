import json
import math
import re
import types
from dataclasses import fields, is_dataclass, replace
from typing import Annotated, Union, get_args, get_origin

import numpy as np
import pytest

from cpodrift.config import (
    RunConfig,
    apply_overrides,
    comparison_config,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
    stabilization_config,
)
from cpodrift.controller import ControllerParams, Mode
from cpodrift.errors import ConfigError, field_types
from cpodrift.optics import OpticParams
from cpodrift.scheduler import SchedulerConfig
from cpodrift.thermal import BoundaryStack, CouplingConfig, ThermalParams
from cpodrift.workload import AffineMapParams, WorkloadConfig


def test_default_config_reproduces_nominal_setup():
    cfg = default_config()
    assert cfg.thermal.r_th == 0.451
    assert cfg.thermal.tau_ms == 80.0
    assert cfg.optics.kappa_to == 0.0852
    assert cfg.scheduler.t_slice_ms == 80.0
    assert cfg.controller.residual_cap_c == 4.15
    assert cfg.workload.step_count == 90_000
    assert cfg.boundary.cumulative == (0.812, 1.407, 1.995)


def test_unknown_keys_rejected_with_field_path():
    with pytest.raises(ConfigError, match="thermal.r_tj"):
        config_from_dict({"thermal": {"r_tj": 0.5}})
    with pytest.raises(ConfigError, match="config.extra"):
        config_from_dict({"extra": 1})
    with pytest.raises(ConfigError, match="controller.modee"):
        config_from_dict({"controller": {"modee": "reactive"}})


def test_section_value_validation_paths():
    with pytest.raises(ConfigError):
        config_from_dict({"workload": {"schedule": [["Warp", 100]]}})
    with pytest.raises(ConfigError):
        config_from_dict({"controller": {"mode": "thermostat"}})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": "abc"})
    with pytest.raises(ConfigError):
        config_from_dict({"scheduler": {"horizon_ms": 90.0}})


@pytest.mark.parametrize("data, message", [
    ({"thermal": {"ambient_c": float("nan")}}, "thermal.ambient_c must be finite"),
    ({"thermal": {"p_baseline_w": float("inf")}}, "thermal.p_baseline_w must be finite"),
    ({"thermal": {"d_um": float("nan")}}, "thermal.d_um must be finite"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"seed": True}, "seed must be a non-negative integer"),
    ({"seed": 2.0}, "seed must be a non-negative integer"),
    ({"workload": {"step_period_ms": float("nan")}}, "workload.step_period_ms must be finite"),
    ({"workload": {"noise_sigma": float("nan")}}, "workload.noise_sigma must be finite"),
    ({"workload": {"step_count": 10.5}}, "workload.step_count must be a non-negative integer"),
    ({"scheduler": {"throttle_cap_c": float("nan")}}, "scheduler.throttle_cap_c must be finite"),
    ({"scheduler": {"throttle_cap_c": 0.0}}, "scheduler.throttle_cap_c must be > 0"),
    ({"scheduler": {"throttle_cap_c": -1.0}}, "scheduler.throttle_cap_c must be > 0"),
    ({"affine_map": {"alpha": float("inf")}}, "affine_map.alpha must be finite"),
    ({"controller": {"sensor_latency_ms": float("nan")}},
     "controller.sensor_latency_ms must be finite"),
    ({"scheduler": {"throttle_enabled": "no"}}, "scheduler.throttle_enabled must be true or false"),
    ({"boundary": {"cumulative": [1.0, "x"]}}, r"boundary.cumulative\[1\] must be a number"),
    ({"thermal": 5}, "thermal must be an object"),
    ({"scheduler": {"tau_th_ms": 80.0}}, "scheduler.tau_th_ms: unknown key"),
    ({"workload": {"alpha": 0.361}}, "workload.alpha: unknown key"),
    ({"thermal": {"d_decay_um": 5.0}}, "thermal.d_decay_um: unknown key"),
    ({"coupling": {"d_decay_um": 0.0}}, "coupling.d_decay_um must be > 0"),
    ({"thermal": {"d_um": 0.0}}, "thermal.d_um must be > 0"),
    ({"thermal": {"d_um": 5000.0}}, "thermal.d_um = 5000.0 leaves no coupling"),
    ({"thermal": {"r_th": 1e200}}, r"thermal.r_th = 1e\+200.*past the 1e\+80 C"),
    ({"thermal": {"r_th": 1e300}}, r"thermal.r_th = 1e\+300.*past the 1e\+80 C"),
    ({"thermal": {"p_baseline_w": 1e300}},
     r"thermal.p_baseline_w = 1e\+300.*past the 1e\+80 C"),
    # wider than the density domain, and far too wide to cast to streams
    ({"workload": {"noise_sigma": math.nextafter(1.8, 2.0)}},
     r"workload.noise_sigma must be in \[0, 1.8\]"),
    ({"workload": {"noise_sigma": 2e298}},
     r"workload.noise_sigma must be in \[0, 1.8\]"),
    ({"affine_map": {"p_idle_w": 95.0}},
     r"affine_map.p_idle_w = 95.0 must be < affine_map.p_peak_w = 94.0"),
    ({"affine_map": {"p_peak_w": 101.0}},
     r"affine_map.p_peak_w = 101.0 exceeds .* affine_map.p_max_w = 100.0"),
    ({"optics": {"spec_band_nm": 2.0}},
     r"optics.spec_band_nm = 2.0 must be in \(0, optics.tolerance_band_nm = 1.7\)"),
    ({"optics": {"spec_band_nm": 0.0}}, r"optics.spec_band_nm = 0.0 must be in"),
    ({"controller": {"sensor_latency_ms": -1.0}},
     "controller.sensor_latency_ms must be >= 0"),
    ({"controller": {"lead_ms": -1.0}}, "controller.lead_ms must be >= 0"),
    ({"scheduler": {"overhead_ms": 50.0}}, "scheduler.overhead_ms does not fit"),
    ({"scheduler": {"ewma_half_life_ms": 0.0}},
     "scheduler.ewma_half_life_ms must be > 0"),
    ({"scheduler": {"history_window_ms": 0.0}},
     "scheduler.history_window_ms must be > 0"),
    ({"boundary": {"names": ["Junction-to-Case"]}},
     "boundary.cumulative has 3 stages, boundary.names 1"),
    ({"boundary": {"names": [], "cumulative": []}},
     "boundary.cumulative: at least one stage required"),
    ({"workload": {"schedule": [["Peak", 300.0, 1.0]]}},
     r"workload.schedule\[0\] must have 2 items, got 3"),
    # whole-slot durations, but 1e300 ms is an infinite count of 2^-900 ms
    ({"workload": {"step_period_ms": 2.0 ** -900, "step_count": 5},
      "scheduler": {"history_window_ms": 1e300}},
     r"scheduler.history_window_ms = 1e\+300 overflows as a count of "
     r"workload.step_period_ms = .* steps"),
    # below absolute zero
    ({"thermal": {"ambient_c": -300.0}},
     r"thermal.ambient_c must be > -273.15, got -300.0"),
    # every hint replays the queue; there is no forecaster to choose
    ({"scheduler": {"forecaster": "ewma"}}, "scheduler.forecaster: unknown key"),
])
def test_bad_values_rejected_with_field_name(data, message, tmp_path):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_sections_built_in_python_get_the_same_rule():
    with pytest.raises(ConfigError, match="thermal.r_th must be a number"):
        ThermalParams(r_th=True)
    with pytest.raises(ConfigError, match="workload.step_count must be a non-negative"):
        WorkloadConfig(step_count=10.5)
    with pytest.raises(ConfigError, match=r"workload.schedule\[0\] must be a list"):
        WorkloadConfig(schedule=(["Peak", 300.0],))
    with pytest.raises(ConfigError, match="scheduler.throttle_enabled"):
        SchedulerConfig(throttle_enabled=1)
    with pytest.raises(ConfigError, match="controller.mode must be a Mode"):
        ControllerParams(mode="reactive")
    with pytest.raises(ConfigError, match="workload must be a WorkloadConfig"):
        RunConfig(workload={})


def _every_field_changed(d_um):
    return RunConfig(
        seed=7,
        workload=WorkloadConfig(
            step_count=1234, step_period_ms=0.5,
            schedule=(("Low", 250.0), ("Peak", 125.5)), noise_sigma=0.01),
        affine_map=AffineMapParams(alpha=0.4, beta=19.0, p_idle_w=10.0,
                                   p_peak_w=90.0, p_max_w=95.0),
        thermal=ThermalParams(r_th=0.5, tau_ms=70.0, gamma=0.9, d_um=d_um,
                              ambient_c=40.0, p_baseline_w=1.0),
        coupling=CouplingConfig(d_ref_um=8.0, d_decay_um=4.0),
        boundary=BoundaryStack(names=("a", "b"), cumulative=(0.5, 1.25)),
        optics=OpticParams(kappa_to=0.08, spec_band_nm=0.4, tolerance_band_nm=1.5),
        scheduler=SchedulerConfig(
            horizon_ms=25.0, horizon_min_ms=15.0, horizon_max_ms=45.0,
            t_slice_ms=75.0, ewma_half_life_ms=30.0,
            history_window_ms=150.0, admission_lead_ms=60.0, overhead_ms=0.25,
            throttle_enabled=False, throttle_cap_c=4.0,
            throttle_compensation_gain=0.9),
        controller=ControllerParams(
            mode=Mode.REACTIVE, sensor_latency_ms=15.0, actuator_tau_ms=2.0,
            gain=0.9, residual_cap_c=4.0, setpoint_margin_c=0.05, lead_ms=2.0),
        out_dir="runs/x",
    )


def test_every_field_round_trips_through_json(tmp_path):
    cfg = _every_field_changed(d_um=12.5)
    default = RunConfig()
    for f in fields(RunConfig):
        section, base = getattr(cfg, f.name), getattr(default, f.name)
        if is_dataclass(section):
            for g in fields(section):
                assert getattr(section, g.name) != getattr(base, g.name), \
                    f"{f.name}.{g.name}"
        else:
            assert section != base, f.name
    for variant in (cfg, replace(cfg, thermal=replace(cfg.thermal, d_um=None))):
        path = tmp_path / "run.json"
        save_config(variant, path)
        saved = json.loads(path.read_text())
        assert list(saved) == [f.name for f in fields(RunConfig)]
        assert list(saved["thermal"]) == [f.name for f in fields(ThermalParams)]
        assert load_config(path) == variant


def test_round_trip_through_json(tmp_path):
    cfg = comparison_config(seed=99)
    path = tmp_path / "run.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_partial_config_uses_defaults(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"thermal": {"r_th": 0.5}, "seed": 3}))
    cfg = load_config(path)
    assert cfg.thermal.r_th == 0.5
    assert cfg.thermal.tau_ms == 80.0
    assert cfg.seed == 3


def test_load_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.json")


def test_load_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_mode_round_trip():
    d = config_to_dict(RunConfig())
    assert d["controller"]["mode"] == "predictive"
    cfg = config_from_dict({"controller": {"mode": "open_loop"}})
    assert cfg.controller.mode is Mode.OPEN_LOOP


def test_apply_overrides():
    cfg = apply_overrides(default_config(), seed=7, steps=100, out_dir="x")
    assert cfg.seed == 7
    assert cfg.workload.step_count == 100
    assert cfg.out_dir == "x"
    with pytest.raises(ConfigError):
        apply_overrides(default_config(), steps=-1)


def test_lead_must_fit_horizon():
    with pytest.raises(ConfigError):
        config_from_dict({
            "controller": {"lead_ms": 40.0},
            "scheduler": {"horizon_ms": 30.0},
        })


def test_step_must_divide_scheduler_times():
    # hints replay and the throttle defers whole dispatch slots
    def cfg(step_ms, **scheduler):
        return config_from_dict({"workload": {"step_period_ms": step_ms},
                                 "scheduler": scheduler})

    with pytest.raises(ConfigError, match="scheduler.horizon_ms"):
        cfg(0.7)
    for longer_than_horizon in (40.0, 100.0):
        with pytest.raises(ConfigError, match="workload.step_period_ms"):
            cfg(longer_than_horizon)
    with pytest.raises(ConfigError, match="scheduler.t_slice_ms"):
        cfg(5.0, t_slice_ms=82.0)
    with pytest.raises(ConfigError, match="scheduler.admission_lead_ms"):
        cfg(5.0, admission_lead_ms=82.0)
    for on_grid in (1.0, 5.0):
        assert cfg(on_grid).workload.step_period_ms == on_grid


def test_distance_resolves_coupling_gamma():
    import math
    cfg = config_from_dict({"thermal": {"d_um": 15.0},
                            "coupling": {"d_decay_um": 5.0}})
    assert cfg.thermal.gamma == pytest.approx(math.exp(-1.0))
    assert config_from_dict({}).thermal.gamma == 1.0


def test_saved_config_records_the_resolved_gamma(tmp_path):
    cfg = config_from_dict({"thermal": {"d_um": 15.0}})
    path = tmp_path / "run.json"
    save_config(cfg, path)
    saved = json.loads(path.read_text())["thermal"]
    assert saved["gamma"] == cfg.thermal.gamma < 1.0 and saved["d_um"] == 15.0
    assert load_config(path) == cfg


def test_presets_shapes():
    assert stabilization_config().workload.step_count == 1_800_000
    assert comparison_config().workload.step_count == 16_300
    names = {s for s, _ in comparison_config().workload.schedule}
    assert "Peak" in names and ("Low" in names or "Idle" in names)


# each rule's values just outside its finite ends, and at or just inside them
_OUTSIDE = {"> 0": (0.0,), ">= 0": (-5e-324,),
            "in (0, 1]": (0.0, np.nextafter(1, 2)),
            "in [0, 1.8]": (-5e-324, np.nextafter(1.8, 2)),
            "> -273.15": (-273.15,)}
_INSIDE = {"> 0": (5e-324,), ">= 0": (0.0,), "in (0, 1]": (5e-324, 1.0),
           "in [0, 1.8]": (0.0, 1.8), "> -273.15": (np.nextafter(-273.15, 0),)}


def _declared_rules():
    """(section, class, field, annotation) of every field of a RunConfig
    section whose annotation is an ``Annotated`` range."""
    found = []
    for section, cls in field_types(RunConfig).items():
        for name, tp in field_types(cls).items() if is_dataclass(cls) else ():
            if get_origin(tp) in (Union, types.UnionType):   # X | None
                (tp,) = (a for a in get_args(tp) if a is not type(None))
            if get_origin(tp) is Annotated:
                found.append((section, cls, name, tp))
    return found


def test_every_declared_range_holds_at_its_edges():
    ranges = _declared_rules()
    assert len(ranges) == 19
    for section, cls, name, tp in ranges:
        _, rule, test = get_args(tp)
        for bad in _OUTSIDE[rule]:
            with pytest.raises(ConfigError, match=(
                    f"^{re.escape(f'{section}.{name} must be {rule}')}, got")):
                cls(**{name: bad})
        assert all(test(ok) for ok in _INSIDE[rule]), f"{section}.{name}"
