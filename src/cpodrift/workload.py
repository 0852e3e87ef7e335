"""Synthetic concurrent-inference workload model.

The scheduling layer sees load as a dimensionless density: each active stream
contributes the product of its attention footprint, activation rate and
routing coefficient, and the instantaneous density is the sum over streams.
Density maps affinely onto system throughput (MTPS) and, via a calibrated
affine ramp, onto package electrical power.

Calibration anchors:

* density domain [0.9, 2.7] maps to throughput [20.20, 20.85] MTPS with
  alpha = 0.361 MTPS per unit density and beta = 19.875 MTPS;
* the same density domain maps to [12, 94] W, an 82 W idle-to-peak swing
  inside the 0-100 W package envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateMapError, InputError, check_fields

RHO_MIN = 0.9
RHO_MAX = 2.7
NOISE_SIGMA_MAX = 1.8   # RHO_MAX - RHO_MIN, the width of the density domain

# mean per-stream density contribution under the default factor distributions:
# E[attn] * E[activation] * E[routing] = 1.0 * 0.65 * 1.0
_MEAN_STREAM_CONTRIBUTION = 0.65

ATTN_RANGE = (0.6, 1.4)
ACTIVATION_RANGE = (0.3, 1.0)
ROUTING_RANGE = (0.8, 1.2)


@dataclass(frozen=True)
class StreamDescriptor:
    """One concurrent inference stream's density factors."""

    attn_footprint: float
    activation_rate: float
    routing_coeff: float
    remaining_steps: int = 1

    def __post_init__(self) -> None:
        for name in ("attn_footprint", "activation_rate", "routing_coeff"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InputError(f"StreamDescriptor.{name} must be finite, got {v!r}")
        if self.attn_footprint < 0:
            raise InputError(f"attn_footprint must be >= 0, got {self.attn_footprint}")
        if not 0.0 <= self.activation_rate <= 1.0:
            raise InputError(f"activation_rate must be in [0, 1], got {self.activation_rate}")
        if self.routing_coeff <= 0:
            raise InputError(f"routing_coeff must be > 0, got {self.routing_coeff}")

    @property
    def contribution(self) -> float:
        """Density contributed by this stream (attn * activation * routing)."""
        return self.attn_footprint * self.activation_rate * self.routing_coeff


@dataclass(frozen=True)
class AffineMapParams:
    """Calibration constants for the density -> throughput / power maps."""

    alpha: float = 0.361        # MTPS per unit density
    beta: float = 19.875        # MTPS
    p_idle_w: float = 12.0      # W at rho = RHO_MIN
    p_peak_w: float = 94.0      # W at rho = RHO_MAX (82 W swing)
    p_max_w: float = 100.0      # package power envelope ceiling

    def __post_init__(self) -> None:
        check_fields(self, "affine_map")
        if not self.alpha > 0:
            raise ConfigError(f"affine_map.alpha must be > 0, got {self.alpha}")
        if not self.p_idle_w < self.p_peak_w:
            raise ConfigError("affine_map: p_idle_w must be < p_peak_w")
        if self.p_peak_w > self.p_max_w:
            raise ConfigError("affine_map: p_peak_w exceeds the package envelope")


DEFAULT_MAP = AffineMapParams()


@dataclass(frozen=True)
class LoadState:
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


def density(streams) -> float:
    """Instantaneous workload density: sum of per-stream contributions.

    Empty input sums to 0. All factors must be finite (the descriptor
    enforces the sign constraints on construction).
    """
    total = 0.0
    for s in streams:
        c = s.contribution
        if not math.isfinite(c):
            raise InputError("non-finite stream contribution")
        total += c
    return total


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


def density_to_power(rho: float, params: AffineMapParams = DEFAULT_MAP):
    """EIC package power for a given density, W.

    Affine ramp from (RHO_MIN, p_idle) to (RHO_MAX, p_peak), clamped to the
    [0, p_max] package envelope; monotone nondecreasing in rho.
    """
    scalar = isinstance(rho, float)     # Python arithmetic: no numpy call cost
    span = params.p_peak_w - params.p_idle_w
    p = params.p_idle_w + span * ((rho if scalar else np.asarray(rho)) - RHO_MIN) \
        / (RHO_MAX - RHO_MIN)
    if scalar:
        return float(min(max(p, 0.0), params.p_max_w))
    # np.clip's bounds, without its per-call dispatch cost
    p = np.minimum(np.maximum(0.0, p), params.p_max_w)
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
    step_period_ms: float = 1.0
    schedule: tuple[ScheduleEntry, ...] = VALIDATION_SCHEDULE
    noise_sigma: float = 0.02

    def __post_init__(self) -> None:
        check_fields(self, "workload")
        if self.step_period_ms <= 0:
            raise ConfigError(
                f"workload.step_period_ms must be > 0, got {self.step_period_ms}"
            )
        if not 0 <= self.noise_sigma <= NOISE_SIGMA_MAX:
            raise ConfigError(
                f"workload.noise_sigma must be in [0, {NOISE_SIGMA_MAX}], the "
                f"width of the density domain, got {self.noise_sigma}")
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


@dataclass(frozen=True)
class WorkloadPlan:
    """Generated per-step dispatch plan.

    Arrays are aligned with step index k; ``rho`` already includes the
    configured noise. Stream descriptors are materialized lazily per step via
    :meth:`streams_at` (deterministic in (seed, k)) so that a 90k-step plan
    stays cheap while ``density(streams_at(k)) == rho[k]``.
    """

    seed: int
    step_period_ms: float
    t_ms: np.ndarray          # step start times
    state_names: tuple[str, ...]
    state_idx: np.ndarray     # index into state_names
    rho: np.ndarray
    n_streams: np.ndarray

    @property
    def step_count(self) -> int:
        return int(self.rho.shape[0])

    def state_name(self, k: int) -> str:
        return self.state_names[int(self.state_idx[k])]

    def streams_at(self, k: int) -> tuple[StreamDescriptor, ...]:
        """Materialize the stream set dispatched at step k."""
        rho_k = float(self.rho[k])
        n = int(self.n_streams[k])
        if n <= 0 or rho_k <= 0:
            return ()
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(k,)))
        attn = rng.uniform(*ATTN_RANGE, n)
        act = rng.uniform(*ACTIVATION_RANGE, n)
        rout = rng.uniform(*ROUTING_RANGE, n)
        raw = float(np.sum(attn * act * rout))
        # rescale routing so the stream set sums exactly to the planned density
        rout *= rho_k / raw
        return tuple(
            StreamDescriptor(float(a), float(w), float(r))
            for a, w, r in zip(attn, act, rout)
        )


class _PlanStream:
    """The plan of :func:`generate_workload`, read in step order, any number
    of steps at a time.

    The state of step k is read from its position in the schedule's cycle,
    so nothing step-sized is built past the steps read. The noise is drawn
    from one generator read after read, which gives the one-call draw bit
    for bit. A stream set has no negative density, so a read that draws one
    raises a ``ConfigError`` naming ``workload.noise_sigma``.
    """

    def __init__(self, config: WorkloadConfig, seed: int) -> None:
        self.config = config
        dt = config.step_period_ms
        name_to_idx = {nm: i for i, nm in enumerate(STATE_BY_NAME)}
        self.idx = np.array([name_to_idx[state] for state, _ in config.schedule],
                            dtype=np.int64)
        # where each hold of the cycle ends, in steps
        self.ends = np.cumsum([max(1, steps_of(dur_ms, dt))
                               for _, dur_ms in config.schedule])
        self.rho_targets = np.asarray([s.rho_target
                                       for s in STATE_BY_NAME.values()])
        self.seed = seed
        self.rng = np.random.default_rng(seed) if config.noise_sigma > 0 \
            else None
        self.top = 0    # steps read

    def __call__(self, lo: int, hi: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``state_idx``, ``rho`` and ``n_streams`` of steps [lo, hi), where
        ``lo`` is the step the last read ended at."""
        assert lo == self.top
        self.top = hi
        pos = np.arange(lo, hi) % int(self.ends[-1])
        state_idx = self.idx[np.searchsorted(self.ends, pos, side="right")]
        rho = self.rho_targets[state_idx]
        if self.rng is not None:
            sigma = self.config.noise_sigma
            rho += self.rng.normal(0.0, sigma, hi - lo)
            negative = np.flatnonzero(rho < 0)
            if negative.size:
                raise ConfigError(
                    f"workload.noise_sigma = {sigma} draws a negative density "
                    f"with seed {self.seed}, first at step "
                    f"{lo + int(negative[0])}; a stream set cannot have one")
        n_streams = np.maximum(
            1, np.rint(rho / _MEAN_STREAM_CONTRIBUTION).astype(np.int64))
        return state_idx, rho, n_streams


def generate_workload(config: WorkloadConfig, seed: int) -> WorkloadPlan:
    """Expand a schedule into a per-step plan; pure function of (config, seed).

    The schedule cycles until ``step_count`` steps are covered. Gaussian
    noise (sigma = ``noise_sigma``) is added to the per-step density, so the
    per-state mean density stays on target while individual steps scatter.
    The plan is one read of a :class:`_PlanStream`.
    """
    n = config.step_count
    dt = config.step_period_ms
    state_idx, rho, n_streams = _PlanStream(config, seed)(0, n)
    return WorkloadPlan(
        seed=seed, step_period_ms=dt, t_ms=np.arange(n, dtype=float) * dt,
        state_names=tuple(STATE_BY_NAME), state_idx=state_idx, rho=rho,
        n_streams=n_streams,
    )
