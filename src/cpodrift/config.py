"""Run configuration: sections mirroring the model layers, JSON on disk.

Every parameter defaults to the nominal calibration, so an empty config
reproduces the flagship 90,000-step validation run. Unknown keys anywhere
are hard errors carrying the dotted field path, which prevents silent
miscalibration from typos.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .controller import ControllerParams, Mode
from .errors import ConfigError
from .optics import OpticParams
from .scheduler import SchedulerConfig
from .thermal import BoundaryStack, CouplingConfig, ThermalParams
from .workload import (
    AffineMapParams,
    BURST_SCHEDULE,
    STAIRCASE_SCHEDULE,
    WorkloadConfig,
)

DEFAULT_SEED = 24


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    affine_map: AffineMapParams = field(default_factory=AffineMapParams)
    thermal: ThermalParams = field(default_factory=ThermalParams)
    coupling: CouplingConfig = field(default_factory=CouplingConfig)
    boundary: BoundaryStack = field(default_factory=BoundaryStack)
    optics: OpticParams = field(default_factory=OpticParams)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    controller: ControllerParams = field(default_factory=ControllerParams)
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if self.controller.lead_ms > self.scheduler.horizon_ms:
            raise ConfigError(
                f"controller.lead_ms = {self.controller.lead_ms} must not exceed "
                f"scheduler.horizon_ms = {self.scheduler.horizon_ms}"
            )
        # hints replay, and the throttle defers, whole dispatch slots
        dt = self.workload.step_period_ms
        if not dt <= self.scheduler.horizon_ms:
            raise ConfigError(
                f"workload.step_period_ms = {dt} must not exceed "
                f"scheduler.horizon_ms = {self.scheduler.horizon_ms}"
            )
        for name in ("horizon_ms", "t_slice_ms", "admission_lead_ms"):
            value = getattr(self.scheduler, name)
            if not abs(math.remainder(value, dt)) <= 1e-9 * dt:
                raise ConfigError(
                    f"scheduler.{name} = {value} is not a whole number of "
                    f"workload.step_period_ms = {dt}"
                )

    @property
    def thermal_resolved(self) -> ThermalParams:
        """Thermal params with gamma resolved from distance, if configured."""
        return self.thermal.with_distance(self.coupling)


# ---------------------------------------------------------------------------
# presets

def default_config(seed: int = DEFAULT_SEED) -> RunConfig:
    """Flagship 90,000-step validation profile, predictive compensation."""
    return RunConfig(seed=seed)


def stabilization_config(seed: int = DEFAULT_SEED) -> RunConfig:
    """Sustained 1,800 s run at Peak load, predictive compensation."""
    return RunConfig(
        seed=seed,
        workload=WorkloadConfig(
            step_count=1_800_000, schedule=(("Peak", 1_800_000.0),)
        ),
    )


def comparison_config(seed: int = DEFAULT_SEED) -> RunConfig:
    """Burst-heavy workload used for the reactive/predictive comparison."""
    cycle_ms = sum(d for _, d in BURST_SCHEDULE)
    return RunConfig(
        seed=seed,
        workload=WorkloadConfig(
            step_count=int(2 * cycle_ms), schedule=BURST_SCHEDULE
        ),
    )


def fingerprint_config(seed: int = DEFAULT_SEED) -> RunConfig:
    """Five-state staircase with >= 5 tau holds, open-loop characterization."""
    cycle_ms = sum(d for _, d in STAIRCASE_SCHEDULE)
    return RunConfig(
        seed=seed,
        workload=WorkloadConfig(
            step_count=int(cycle_ms), schedule=STAIRCASE_SCHEDULE
        ),
        controller=ControllerParams(mode=Mode.OPEN_LOOP),
    )


def transient_config(seed: int = DEFAULT_SEED) -> RunConfig:
    """300 steps at 1 ms from cold start into Peak: startup transient."""
    return RunConfig(
        seed=seed,
        workload=WorkloadConfig(step_count=300, schedule=(("Peak", 300.0),)),
        controller=ControllerParams(mode=Mode.OPEN_LOOP),
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization

_WORKLOAD_KEYS = {"step_count", "step_period_ms", "schedule", "noise_sigma"}
_MAP_KEYS = {"alpha", "beta", "p_idle_w", "p_peak_w", "p_max_w"}
_THERMAL_KEYS = {"r_th", "tau_ms", "gamma", "d_um", "ambient_c", "p_baseline_w"}
_COUPLING_KEYS = {"d_ref_um", "d_decay_um"}
_BOUNDARY_KEYS = {"boundary_names", "boundary_cumulative"}


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{section}.{key}: unknown key")


def _build(section: str, cls, data: dict):
    try:
        return cls(**data)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    allowed_sections = {
        "seed", "workload", "thermal", "optics", "scheduler", "controller",
        "out_dir",
    }
    _check_keys("config", data, allowed_sections)

    kwargs: dict = {}
    if "seed" in data:
        kwargs["seed"] = data["seed"]
    if "out_dir" in data:
        kwargs["out_dir"] = data["out_dir"]

    wl = dict(data.get("workload", {}))
    _check_keys("workload", wl, _WORKLOAD_KEYS | _MAP_KEYS)
    map_data = {k: wl.pop(k) for k in list(wl) if k in _MAP_KEYS}
    if "schedule" in wl:
        try:
            wl["schedule"] = tuple((str(s), float(d)) for s, d in wl["schedule"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"workload.schedule: {exc}") from exc
    kwargs["workload"] = _build("workload", WorkloadConfig, wl)
    if map_data:
        kwargs["affine_map"] = _build("workload", AffineMapParams, map_data)

    th = dict(data.get("thermal", {}))
    _check_keys("thermal", th, _THERMAL_KEYS | _COUPLING_KEYS | _BOUNDARY_KEYS)
    coupling_data = {k: th.pop(k) for k in list(th) if k in _COUPLING_KEYS}
    names = th.pop("boundary_names", None)
    cumulative = th.pop("boundary_cumulative", None)
    kwargs["thermal"] = _build("thermal", ThermalParams, th)
    if coupling_data:
        kwargs["coupling"] = _build("thermal", CouplingConfig, coupling_data)
    if cumulative is not None:
        bkw = {"cumulative": tuple(float(c) for c in cumulative)}
        if names is not None:
            bkw["names"] = tuple(str(n) for n in names)
        else:
            bkw["names"] = tuple(f"stage_{i}" for i in range(len(cumulative)))
        kwargs["boundary"] = _build("thermal", BoundaryStack, bkw)

    op = dict(data.get("optics", {}))
    _check_keys("optics", op, {f.name for f in fields(OpticParams)})
    kwargs["optics"] = _build("optics", OpticParams, op)

    sc = dict(data.get("scheduler", {}))
    _check_keys("scheduler", sc, {f.name for f in fields(SchedulerConfig)})
    kwargs["scheduler"] = _build("scheduler", SchedulerConfig, sc)

    ct = dict(data.get("controller", {}))
    _check_keys("controller", ct, {f.name for f in fields(ControllerParams)})
    if "mode" in ct:
        ct["mode"] = Mode.from_str(str(ct["mode"]))
    kwargs["controller"] = _build("controller", ControllerParams, ct)

    return RunConfig(**kwargs)


def config_to_dict(config: RunConfig) -> dict:
    wl = config.workload
    return {
        "seed": config.seed,
        "out_dir": config.out_dir,
        "workload": {
            "step_count": wl.step_count,
            "step_period_ms": wl.step_period_ms,
            "schedule": [[s, d] for s, d in wl.schedule],
            "noise_sigma": wl.noise_sigma,
            "alpha": config.affine_map.alpha,
            "beta": config.affine_map.beta,
            "p_idle_w": config.affine_map.p_idle_w,
            "p_peak_w": config.affine_map.p_peak_w,
            "p_max_w": config.affine_map.p_max_w,
        },
        "thermal": {
            "r_th": config.thermal.r_th,
            "tau_ms": config.thermal.tau_ms,
            "gamma": config.thermal.gamma,
            "d_um": config.thermal.d_um,
            "ambient_c": config.thermal.ambient_c,
            "p_baseline_w": config.thermal.p_baseline_w,
            "d_ref_um": config.coupling.d_ref_um,
            "d_decay_um": config.coupling.d_decay_um,
            "boundary_names": list(config.boundary.names),
            "boundary_cumulative": list(config.boundary.cumulative),
        },
        "optics": {
            "kappa_to": config.optics.kappa_to,
            "spec_band_nm": config.optics.spec_band_nm,
            "tolerance_band_nm": config.optics.tolerance_band_nm,
        },
        "scheduler": {
            f.name: getattr(config.scheduler, f.name)
            for f in fields(SchedulerConfig)
        },
        "controller": {
            "mode": config.controller.mode.value,
            "sensor_latency_ms": config.controller.sensor_latency_ms,
            "actuator_tau_ms": config.controller.actuator_tau_ms,
            "gain": config.controller.gain,
            "residual_cap_c": config.controller.residual_cap_c,
            "setpoint_margin_c": config.controller.setpoint_margin_c,
            "lead_ms": config.controller.lead_ms,
        },
    }


def load_config(path) -> RunConfig:
    """Load a JSON run config; missing sections fall back to defaults."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def apply_overrides(
    config: RunConfig, *, seed: int | None = None, steps: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """CLI-style overrides on top of a loaded config."""
    if seed is not None:
        config = replace(config, seed=seed)
    if steps is not None:
        if steps < 0:
            raise ConfigError(f"steps override must be >= 0, got {steps}")
        config = replace(config, workload=replace(config.workload, step_count=steps))
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    return config
