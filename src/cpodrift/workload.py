"""Synthetic concurrent-inference workload model.

The scheduling layer sees load as a dimensionless density: each active stream
contributes the product of its attention footprint, activation rate and
routing coefficient, and the instantaneous density is the sum over streams.
A run plans each step's density directly, not stream by stream. Density
maps affinely onto system throughput (MTPS) and, via a calibrated affine
ramp, onto package electrical power.

Calibration anchors:

* density domain [0.9, 2.7] maps to throughput [20.20, 20.85] MTPS with
  alpha = 0.361 MTPS per unit density and beta = 19.875 MTPS;
* the same density domain maps to [12, 94] W, an 82 W idle-to-peak swing
  inside the 0-100 W package envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateMapError, InputError, Positive, check_fields

RHO_MIN = 0.9
RHO_MAX = 2.7
NOISE_SIGMA_MAX = 1.8   # RHO_MAX - RHO_MIN, the width of the density domain
# module level: class annotations resolve with the class body as globals
NoiseSigma = Annotated[float, f"in [0, {NOISE_SIGMA_MAX}]",
                       lambda x: 0 <= x <= NOISE_SIGMA_MAX]

# mean per-stream density contribution under the default factor distributions:
# E[attn] * E[activation] * E[routing] = 1.0 * 0.65 * 1.0
_MEAN_STREAM_CONTRIBUTION = 0.65


@dataclass(frozen=True)
class AffineMapParams:
    """Calibration constants for the density -> throughput / power maps."""

    alpha: Positive = 0.361     # MTPS per unit density
    beta: float = 19.875        # MTPS
    p_idle_w: float = 12.0      # W at rho = RHO_MIN
    p_peak_w: float = 94.0      # W at rho = RHO_MAX (82 W swing)
    p_max_w: float = 100.0      # package power envelope ceiling

    def __post_init__(self) -> None:
        check_fields(self, "affine_map")
        if not self.p_idle_w < self.p_peak_w:
            raise ConfigError(f"affine_map.p_idle_w = {self.p_idle_w} must be < "
                              f"affine_map.p_peak_w = {self.p_peak_w}")
        if self.p_peak_w > self.p_max_w:
            raise ConfigError(
                f"affine_map.p_peak_w = {self.p_peak_w} exceeds the package "
                f"envelope affine_map.p_max_w = {self.p_max_w}")


DEFAULT_MAP = AffineMapParams()


class LoadState(NamedTuple):
    """One of the five discrete operating points (Idle .. Peak)."""

    name: str
    rho_target: float
    t24_mtps: float
    power_w: float


def _make_states(params: AffineMapParams = DEFAULT_MAP) -> tuple[LoadState, ...]:
    names = ("Idle", "Low", "Medium", "High", "Peak")
    rhos = np.linspace(RHO_MIN, RHO_MAX, len(names))
    return tuple(
        LoadState(
            name=n,
            rho_target=float(r),
            t24_mtps=density_to_throughput(float(r), params),
            power_w=density_to_power(float(r), params),
        )
        for n, r in zip(names, rhos)
    )


def density_to_throughput(rho: float, params: AffineMapParams = DEFAULT_MAP):
    """T24 = alpha * rho + beta  [MTPS]. Accepts scalars or arrays."""
    if np.ndim(rho) == 0 and not math.isfinite(float(rho)):
        raise InputError(f"rho must be finite, got {rho!r}")
    return params.alpha * rho + params.beta


def throughput_to_density(t24: float, params: AffineMapParams = DEFAULT_MAP):
    """Exact inverse of :func:`density_to_throughput`."""
    if params.alpha == 0:
        raise DegenerateMapError("alpha = 0: throughput map is not invertible")
    return (t24 - params.beta) / params.alpha


def density_to_power(rho: float, params: AffineMapParams = DEFAULT_MAP,
                     out: np.ndarray | None = None):
    """EIC package power for a given density, W.

    Affine ramp from (RHO_MIN, p_idle) to (RHO_MAX, p_peak), clamped to the
    [0, p_max] package envelope; monotone nondecreasing in rho. An array
    ``rho`` may have its powers written into ``out``.
    """
    span = params.p_peak_w - params.p_idle_w
    if isinstance(rho, float):      # Python arithmetic: no numpy call cost
        p = params.p_idle_w + span * (rho - RHO_MIN) / (RHO_MAX - RHO_MIN)
        return float(min(max(p, 0.0), params.p_max_w))
    # the scalar law's operations in its order, in place in one array
    p = np.subtract(rho, RHO_MIN, out=np.empty(np.shape(rho)) if out is None
                    else out)
    p *= span
    p /= RHO_MAX - RHO_MIN
    p += params.p_idle_w
    # np.clip's bounds, without its per-call dispatch cost
    np.minimum(np.maximum(0.0, p, out=p), params.p_max_w, out=p)
    return float(p) if np.ndim(rho) == 0 else p


LOAD_STATES: tuple[LoadState, ...] = _make_states()
STATE_BY_NAME: dict[str, LoadState] = {s.name: s for s in LOAD_STATES}


def load_state(name: str) -> LoadState:
    try:
        return STATE_BY_NAME[name]
    except KeyError:
        raise ConfigError(
            f"unknown load state {name!r}; expected one of {sorted(STATE_BY_NAME)}"
        ) from None


# ---------------------------------------------------------------------------
# workload generation

ScheduleEntry = tuple[str, float]  # (state name, hold duration in ms)

# Flagship validation schedule: staircase through all five states with long
# holds (4500 ms >> 5 tau) plus a block of 150-450 ms adjacent-state bursts.
# Hold lengths are calibrated so the density-to-temperature regression over
# 90k steps lands at R^2 ~ 0.991; see README "Calibration notes".
VALIDATION_SCHEDULE: tuple[ScheduleEntry, ...] = (
    ("Idle", 4500), ("Low", 4500), ("Medium", 4500), ("High", 4500), ("Peak", 4500),
    ("High", 300), ("Peak", 200), ("High", 450), ("Medium", 300), ("Low", 300),
)

# Burst-heavy schedule used by the controller comparison: sustained segments
# interleaved with 100-500 ms bursts, the largest being Low -> Peak.
BURST_SCHEDULE: tuple[ScheduleEntry, ...] = (
    ("Low", 3000), ("Peak", 500), ("Low", 800), ("Peak", 250), ("Idle", 1000),
    ("Medium", 400), ("Peak", 100), ("Low", 600), ("Peak", 500), ("Low", 1000),
)

# Staircase with >= 5 tau holds for fingerprint characterization.
STAIRCASE_SCHEDULE: tuple[ScheduleEntry, ...] = (
    ("Idle", 1200), ("Low", 1200), ("Medium", 1200), ("High", 1200), ("Peak", 1200),
)


def steps_of(ms: float, step_period_ms: float) -> int:
    """The whole number of steps nearest to a duration of ``ms``."""
    return int(round(ms / step_period_ms))


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload generator settings (one config section of a run)."""

    step_count: int = 90_000
    step_period_ms: Positive = 1.0
    schedule: tuple[ScheduleEntry, ...] = VALIDATION_SCHEDULE
    noise_sigma: NoiseSigma = 0.02

    def __post_init__(self) -> None:
        check_fields(self, "workload")
        if not self.schedule:
            raise ConfigError("workload.schedule must contain at least one entry")
        for i, (name, dur) in enumerate(self.schedule):
            if name not in STATE_BY_NAME:
                raise ConfigError(
                    f"workload.schedule[{i}].state: unknown state {name!r}"
                )
            if dur <= 0:
                raise ConfigError(
                    f"workload.schedule[{i}].duration_ms: must be > 0, got {dur}"
                )


class _PlanStream:
    """The run's plan, read in step order, any number of steps at a time.

    A read repeats the state index (``uint8``) and density target of each
    hold of the schedule's cycle for its steps read, so it costs the steps
    read plus the holds of the cycles it crosses. The noise is drawn from
    one generator read after read, which gives the one-call draw bit for
    bit (sigma times ``standard_normal`` is ``normal(0, sigma)`` but for a
    zero's sign, which adding it to a target drops). A stream set has no
    negative density, so a read that draws one raises a ``ConfigError``
    naming ``workload.noise_sigma``.
    """

    def __init__(self, config: WorkloadConfig, seed: int) -> None:
        self.config = config
        dt = config.step_period_ms
        name_to_idx = {nm: i for i, nm in enumerate(STATE_BY_NAME)}
        self.idx = np.array([name_to_idx[state] for state, _ in config.schedule],
                            dtype=np.uint8)
        # where each hold of the cycle ends, in steps; a hold is read for
        # at most the run's steps, so cap it there to keep the cycle in int64
        cap_ms = config.step_count * dt
        self.ends = np.cumsum([max(1, steps_of(min(dur_ms, cap_ms), dt))
                               for _, dur_ms in config.schedule])
        # the density target of each hold
        self.rho_targets = np.asarray([s.rho_target
                                       for s in STATE_BY_NAME.values()])[self.idx]
        self.seed = seed
        self.rng = np.random.default_rng(seed) if config.noise_sigma > 0 \
            else None
        self.top = 0    # steps read

    def __call__(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``state_idx`` and ``rho`` of steps [lo, hi), where ``lo`` is the
        step the last read ended at."""
        if lo != self.top:
            raise InputError(f"the plan is read in step order: a read from "
                             f"step {lo} after one that ended at step {self.top}")
        self.top = hi
        # the steps in [lo, hi) of each hold of the m cycles from step lo's
        cycle = int(self.ends[-1])
        base = lo - lo % cycle
        m = (hi - base) // cycle + 1
        ends = (self.ends + base + cycle * np.arange(m)[:, None]).ravel()
        np.minimum(np.maximum(ends, lo, out=ends), hi, out=ends)
        steps = ends - np.concatenate(((lo,), ends[:-1]))
        state_idx = np.repeat(np.tile(self.idx, m), steps)
        rho = np.repeat(np.tile(self.rho_targets, m), steps)
        if self.rng is not None:
            sigma = self.config.noise_sigma
            noise = self.rng.standard_normal(hi - lo)
            rho += np.multiply(noise, sigma, out=noise)
            if rho.min(initial=0.0) < 0:
                negative = np.flatnonzero(rho < 0)
                raise ConfigError(
                    f"workload.noise_sigma = {sigma} draws a negative density "
                    f"with seed {self.seed}, first at step "
                    f"{lo + int(negative[0])}; a stream set cannot have one")
        return state_idx, rho


def stream_counts(rho: np.ndarray) -> np.ndarray:
    """Streams a step of planned density ``rho`` runs: max(1, rint(rho / 0.65))."""
    n = np.rint(rho / _MEAN_STREAM_CONTRIBUTION).astype(np.int64)
    return np.maximum(n, 1, out=n)
