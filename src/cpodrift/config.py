"""Run configuration: sections mirroring the model layers, JSON on disk.

Every parameter defaults to the nominal calibration, so an empty config
reproduces the flagship 90,000-step validation run. The JSON layout is
``RunConfig`` itself, read and written by one walk over the dataclass
fields; each section checks its own fields against their annotations,
declared ranges included (:func:`check_fields`). Unknown keys anywhere are
hard errors carrying the dotted field path, which prevents silent
miscalibration from typos.

A ``thermal.d_um`` resolves ``thermal.gamma`` once, when the config is
built: ``config.thermal`` is the plant every reader uses, and a saved
config records the gamma its run used.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .controller import ControllerParams, Mode
from .errors import ConfigError, check_fields, field_types
from .optics import OpticParams
from .scheduler import SchedulerConfig
from .thermal import (
    SCAN_MAX_INPUT,
    BoundaryStack,
    CouplingConfig,
    ThermalParams,
    gamma_of_distance,
)
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
        check_fields(self, "")
        if self.thermal.d_um is not None and not (
            gamma_of_distance(self.thermal.d_um, self.coupling) > 0
        ):
            raise ConfigError(
                f"thermal.d_um = {self.thermal.d_um} leaves no coupling: gamma "
                f"underflows to 0 with coupling.d_ref_um = {self.coupling.d_ref_um}, "
                f"coupling.d_decay_um = {self.coupling.d_decay_um}"
            )
        object.__setattr__(self, "thermal", self.thermal.with_distance(self.coupling))
        thermal, p_max = self.thermal, self.affine_map.p_max_w
        swing = thermal.gain * max(abs(thermal.p_baseline_w),
                                   abs(p_max - thermal.p_baseline_w))
        if not swing <= SCAN_MAX_INPUT:
            raise ConfigError(
                f"thermal.r_th = {thermal.r_th}, thermal.gamma = {thermal.gamma} "
                f"and thermal.p_baseline_w = {thermal.p_baseline_w} put the plant "
                f"delta for powers in [0, affine_map.p_max_w = {p_max}] W up to "
                f"{swing:.3g} C, past the {SCAN_MAX_INPUT:.0e} C the plant scan "
                "holds"
            )
        if self.controller.lead_ms > self.scheduler.horizon_ms:
            raise ConfigError(
                f"controller.lead_ms = {self.controller.lead_ms} must not exceed "
                f"scheduler.horizon_ms = {self.scheduler.horizon_ms}"
            )
        dt = self.workload.step_period_ms
        # the run counts every duration in whole steps (workload.steps_of)
        for section in fields(self):
            params = getattr(self, section.name)
            for f in fields(params) if is_dataclass(params) else ():
                value = getattr(params, f.name)
                if f.name.endswith("_ms") and not math.isfinite(value / dt):
                    raise ConfigError(
                        f"{section.name}.{f.name} = {value} overflows as a "
                        f"count of workload.step_period_ms = {dt} steps"
                    )
        # hints replay, and the throttle defers, whole dispatch slots
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
# JSON (de)serialization: the layout mirrors RunConfig field by field

def _from_json(tp, value, path: str):
    """Build a value of annotation ``tp`` from parsed JSON.

    Objects become dataclasses, lists tuples and enum values their members;
    the sections' own ``check_fields`` then judges what was built.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be an object, got {value!r}")
        types = field_types(tp)
        for key in value:
            if key not in types:
                raise ConfigError(f"{path or 'config'}.{key}: unknown key")
        return tp(**{
            key: _from_json(types[key], v, f"{path}.{key}" if path else key)
            for key, v in value.items()
        })
    if isinstance(tp, enum.EnumMeta):
        try:
            return tp(value)
        except (ValueError, TypeError):
            raise ConfigError(
                f"{path}: unknown value {value!r}; expected one of "
                f"{[m.value for m in tp]}"
            ) from None
    if isinstance(value, list):
        return tuple(_from_json(object, v, path) for v in value)
    return value


def _to_json(value):
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_from_dict(data: dict) -> RunConfig:
    """Inverse of :func:`config_to_dict`; missing keys keep their defaults."""
    return _from_json(RunConfig, data, "")


def config_to_dict(config: RunConfig) -> dict:
    return _to_json(config)


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
        config = replace(config, workload=replace(config.workload, step_count=steps))
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    return config
