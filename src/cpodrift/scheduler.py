"""Deterministic look-ahead hint layer.

The scheduler owns its dispatch plan, so it can forecast the package power
a short horizon ahead without peeking at the future: a hint issued at time
t replays the already-admitted queue at t + horizon and falls back to an
exponentially-weighted mean of the power history when the queue does not
cover the target slot. Every forecast records the newest input timestamp it
touched, which makes "no future reads" an auditable property rather than a
promise.

Two independent 80 ms quantities matter here and must not be conflated: the
plant's thermal time constant and the scheduler's execution slice. The
horizon must fit strictly inside the slice (with its fixed overhead budget)
so forecasting hides entirely inside queue cycles. The preposition fraction

    eta = 1 - exp(-horizon / tau)

is the share of a steady-state thermal step that develops within the
look-ahead window, i.e. how much of an impending excursion the hint lets
the controller front-run (22.12% at 20 ms up to 46.47% at 50 ms for
tau = 80 ms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import COMPENSATION_GAIN, RESIDUAL_CAP_C
from .errors import ConfigError, InputError, SliceViolationError, check_fields
from .telemetry import FLOAT_FMT, write_rows
from .thermal import ThermalParams, steady_state_delta_t, step_response_fraction
from .workload import AffineMapParams, DEFAULT_MAP, density_to_power


@dataclass(frozen=True)
class SchedulerConfig:
    """Hint-layer settings (one config section of a run)."""

    horizon_ms: float = 30.0
    horizon_min_ms: float = 20.0
    horizon_max_ms: float = 50.0
    t_slice_ms: float = 80.0
    forecaster: str = "queue_replay"     # "queue_replay" | "ewma"
    ewma_half_life_ms: float = 40.0
    history_window_ms: float = 200.0     # power-history ring buffer span
    admission_lead_ms: float = 80.0      # how far ahead dispatches are admitted
    overhead_ms: float = 0.5             # synthetic per-forecast cost
    throttle_enabled: bool = True
    throttle_cap_c: float = RESIDUAL_CAP_C
    throttle_compensation_gain: float = COMPENSATION_GAIN

    def __post_init__(self) -> None:
        check_fields(self, "scheduler")
        if self.forecaster not in ("queue_replay", "ewma"):
            raise ConfigError(
                f"scheduler.forecaster: unknown forecaster {self.forecaster!r}"
            )
        if not self.horizon_min_ms <= self.horizon_ms <= self.horizon_max_ms:
            raise ConfigError(
                f"scheduler.horizon_ms = {self.horizon_ms} outside bounds "
                f"[{self.horizon_min_ms}, {self.horizon_max_ms}]"
            )
        if self.horizon_ms >= self.t_slice_ms:
            raise ConfigError(
                f"scheduler.horizon_ms = {self.horizon_ms} must be < t_slice_ms "
                f"= {self.t_slice_ms}"
            )
        if self.overhead_ms >= self.t_slice_ms - self.horizon_ms:
            raise ConfigError(
                "scheduler.overhead_ms does not fit in the slice after the horizon"
            )
        if self.admission_lead_ms < self.horizon_max_ms:
            raise ConfigError(
                "scheduler.admission_lead_ms must cover the maximum horizon"
            )
        if not self.ewma_half_life_ms > 0:
            raise ConfigError("scheduler.ewma_half_life_ms must be > 0")
        if not self.history_window_ms > 0:
            raise ConfigError("scheduler.history_window_ms must be > 0")
        if not self.throttle_cap_c > 0:
            raise ConfigError(
                f"scheduler.throttle_cap_c must be > 0, got {self.throttle_cap_c}")


# eta = 1 - exp(-horizon/tau): the steady-state fraction developed inside
# the look-ahead window, the plant's step response at the horizon
preposition_fraction = step_response_fraction


@dataclass(frozen=True)
class QueueEntry:
    """One admitted dispatch: density contribution scheduled at dispatch_t_ms."""

    dispatch_t_ms: float
    rho: float
    n_streams: int = 1
    admitted_t_ms: float = 0.0


@dataclass(frozen=True)
class Filtration:
    """Snapshot of everything the scheduler may legally read at time now_ms.

    ``power_history`` holds (t_ms, watts) observations with t <= now;
    ``queue`` holds admitted dispatch entries (admission time <= now, the
    queue is scheduler-owned so planned future dispatch times are knowable).
    ``slot_ms`` is the dispatch slot width used for replay matching.
    """

    now_ms: float
    power_history: tuple[tuple[float, float], ...] = ()
    queue: tuple[QueueEntry, ...] = ()
    queue_depth: int = 0
    slot_ms: float = 1.0

    def __post_init__(self) -> None:
        for t, _ in self.power_history:
            if t > self.now_ms:
                raise InputError(
                    f"power history observation at {t} ms is newer than now = "
                    f"{self.now_ms} ms"
                )
        for e in self.queue:
            if e.admitted_t_ms > self.now_ms:
                raise InputError(
                    f"queue entry admitted at {e.admitted_t_ms} ms is newer than "
                    f"now = {self.now_ms} ms"
                )


@dataclass(frozen=True)
class HintForecast:
    """Causal power forecast at t + horizon, with provenance."""

    horizon_ms: float
    forecast_w: float
    issued_at_ms: float
    source: str = "queue_replay"        # "queue_replay" | "ewma"
    newest_input_ms: float = 0.0
    filtration: Filtration | None = None


def _slot_entries(f: Filtration, target_ms: float) -> list[QueueEntry]:
    """Queue entries whose dispatch slot [dispatch, dispatch + slot)
    contains ``target_ms``, in queue order."""
    eps = 1e-6 * f.slot_ms  # guards slot boundaries against rounding in t + horizon
    return [e for e in f.queue
            if e.dispatch_t_ms - eps <= target_ms < e.dispatch_t_ms + f.slot_ms - eps]


def ordered_sum(x) -> float:
    """Sum of ``x`` added left to right, as Python 3.11's ``sum()`` adds
    floats on every Python (3.12's ``sum()`` compensates; ``np.sum`` adds
    pairwise)."""
    x = np.asarray(x, dtype=float)
    return float(x.cumsum()[-1]) if x.size else 0.0


def _ewma_power(history, now_ms: float, half_life_ms: float) -> float:
    """Exponentially-weighted mean of the power history (newest-heavy)."""
    if not history:
        return 0.0
    wsum = 0.0
    vsum = 0.0
    for t, w in history:
        weight = 0.5 ** ((now_ms - t) / half_life_ms)
        wsum += weight
        vsum += weight * w
    return vsum / wsum


def forecast(
    f: Filtration,
    t_ms: float,
    horizon_ms: float,
    config: SchedulerConfig = SchedulerConfig(),
    map_params: AffineMapParams = DEFAULT_MAP,
) -> HintForecast:
    """Issue the look-ahead hint H(t): forecast power at t + horizon.

    Replays the admitted queue: entries whose dispatch slot
    [dispatch, dispatch + slot) contains t + horizon are the ones executing
    then. When no entry covers the slot the forecast falls back to the EWMA
    of the power history. Nothing stamped after t is ever read; the newest
    input timestamp is recorded for the causality audit.

    Raises SliceViolationError when the horizon (or its overhead budget)
    does not fit strictly inside the execution slice, InputError when the
    horizon leaves the configured bounds.
    """
    if horizon_ms >= config.t_slice_ms:
        raise SliceViolationError(
            f"horizon {horizon_ms} ms >= t_slice {config.t_slice_ms} ms: "
            "forecast cost can no longer hide inside queue cycles"
        )
    if config.overhead_ms >= config.t_slice_ms - horizon_ms:
        raise SliceViolationError(
            f"overhead {config.overhead_ms} ms exceeds the slice budget "
            f"{config.t_slice_ms - horizon_ms} ms left after the horizon"
        )
    if not config.horizon_min_ms <= horizon_ms <= config.horizon_max_ms:
        raise InputError(
            f"horizon {horizon_ms} ms outside configured bounds "
            f"[{config.horizon_min_ms}, {config.horizon_max_ms}]"
        )

    target = t_ms + horizon_ms

    slot = _slot_entries(f, target) if config.forecaster == "queue_replay" else []
    if slot:
        return HintForecast(
            horizon_ms=horizon_ms,
            forecast_w=density_to_power(ordered_sum([e.rho for e in slot]),
                                        map_params),
            issued_at_ms=t_ms,
            source="queue_replay",
            newest_input_ms=max([0.0] + [e.admitted_t_ms for e in slot]),
            filtration=f,
        )

    newest = f.power_history[-1][0] if f.power_history else t_ms
    return HintForecast(
        horizon_ms=horizon_ms,
        forecast_w=_ewma_power(f.power_history, t_ms, config.ewma_half_life_ms),
        issued_at_ms=t_ms,
        source="ewma",
        newest_input_ms=newest,
        filtration=f,
    )


# ---------------------------------------------------------------------------
# forecast log + causality audit

_SOURCE_NAMES = ("queue_replay", "ewma")     # by source code


@dataclass(frozen=True)
class ForecastLog:
    """Struct-of-arrays log of issued hints, one entry per hint."""

    issued_at_ms: np.ndarray
    horizon_ms: np.ndarray
    forecast_w: np.ndarray
    newest_input_ms: np.ndarray
    source: np.ndarray          # 0 = queue replay, 1 = EWMA fallback

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("issued_at_ms,horizon_ms,forecast_w,newest_input_ms,source\n")
            write_rows(
                fh,
                [self.issued_at_ms, self.horizon_ms, self.forecast_w,
                 self.newest_input_ms,
                 list(map(_SOURCE_NAMES.__getitem__, self.source.tolist()))],
                (FLOAT_FMT,) * 4 + ("%s",),
            )


@dataclass(frozen=True)
class AuditReport:
    n_checked: int
    violations: tuple[tuple[float, float], ...]  # (issued_at, offending stamp)

    @property
    def ok(self) -> bool:
        return not self.violations


def causality_audit(trace: ForecastLog, power_trace) -> AuditReport:
    """Verify no forecast read anything stamped after its issue time.

    ``power_trace`` is the realized (t_ms, watts) log; it must be sorted, as
    must the forecast trace, otherwise the stamps are not comparable and an
    InputError is raised. Empty traces audit trivially clean.
    """
    issued = np.asarray(trace.issued_at_ms, dtype=float)
    newest = np.asarray(trace.newest_input_ms, dtype=float)
    if issued.size and np.any(np.diff(issued) < 0):
        raise InputError("forecast trace is not sorted by issue time")
    pt = np.asarray(power_trace, dtype=float)
    if pt.size:
        times = pt[:, 0] if pt.ndim == 2 else pt
        if np.any(np.diff(times) < 0):
            raise InputError("power trace is not sorted by time")
    if issued.size == 0:
        return AuditReport(n_checked=0, violations=())
    bad = newest > issued + 1e-9
    violations = tuple(
        (float(i), float(n)) for i, n in zip(issued[bad], newest[bad])
    )
    return AuditReport(n_checked=int(issued.size), violations=violations)


# ---------------------------------------------------------------------------
# pre-emptive throttling

def throttle_cut(slot: list[float], forecast_w: float, cap_delta_t_c: float,
                 thermal: ThermalParams, compensation_gain: float,
                 map_params: AffineMapParams = DEFAULT_MAP) -> tuple[int, float]:
    """How many of the newest entries of a slot the throttle takes out.

    ``slot`` holds the densities of the slot's entries in queue order, and
    ``forecast_w`` is the hint that forecasts the slot. The projection is
    conservative budget arithmetic: of the steady-state delta of the power
    over baseline, the compensator is credited a proportional share
    (``compensation_gain``), and the rest must fit under the cap. While it
    does not, entries come out newest first (LIFO) and the projection is
    taken again of the density left: the slot's total, added left to
    right, less each entry taken, in turn. A slot holds at most two
    entries, so this is a few float operations.

    Returns ``(n_taken, projected_after_c)``.
    """
    def projection(power_w: float) -> float:
        return (1.0 - compensation_gain) * steady_state_delta_t(
            thermal.r_th, max(0.0, power_w - thermal.p_baseline_w),
            thermal.gamma)

    after = projection(forecast_w)
    left = 0.0
    for rho in slot:
        left += rho
    n = 0
    while after > cap_delta_t_c and n < len(slot):
        n += 1
        left -= slot[-n]
        after = projection(density_to_power(max(left, 0.0), map_params))
    return n, after
