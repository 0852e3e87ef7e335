import json

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
from cpodrift.controller import Mode
from cpodrift.errors import ConfigError


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
])
def test_bad_values_rejected_with_field_name(data, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


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
    cfg = config_from_dict({"thermal": {"d_um": 15.0, "d_decay_um": 5.0}})
    assert cfg.thermal_resolved.gamma == pytest.approx(math.exp(-1.0))
    assert config_from_dict({}).thermal_resolved.gamma == 1.0


def test_presets_shapes():
    assert stabilization_config().workload.step_count == 1_800_000
    assert comparison_config().workload.step_count == 16_300
    names = {s for s, _ in comparison_config().workload.schedule}
    assert "Peak" in names and ("Low" in names or "Idle" in names)
