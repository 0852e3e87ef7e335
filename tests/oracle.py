"""Per-step reference composition of the co-simulation: the test oracle.

Each step dispatches its queue slot, snapshots a :class:`Filtration`, issues
the hint with :func:`forecast`, lets :func:`throttle` take queued work out
of the slot the hint forecasts, then advances the plant with
:func:`thermal.step` and the compensator with :func:`control_step`. It is
the literal module-by-module reading of the model, and much slower than
``simulate``; the equivalence tests check ``simulate`` against it.

:func:`throttle` is the throttle's own reading here: it pops the newest
queue entry of the slot while the projected residual breaches the cap,
with the projection and the power map written inline. Each slot entry
carries a flag that says whether it was deferred before. A popped entry
that was not is deferred by one slice, or is outstanding if that lands
past the last step; one that was is shed. It shares with
``scheduler.throttle_cut`` only the documented order of the density left:
the slot's total, added left to right, less each popped entry in turn.

:func:`control_step` and :class:`CompensationState` are the per-step
compensator, written here as a delay line, a hint FIFO and a replica state
rather than as the recursions of :func:`cpodrift.controller.compensate`, so
the oracle shares no compensator code with the path it checks.

:func:`plan_oracle` is the run's plan expanded one step at a time, so the
plan ``simulate`` reads by holds is judged by one it shares no code with.
:func:`make_chunk` builds a chunk of a run by hand, every field filled as
the schedule pass fills it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from cpodrift import thermal as th
from cpodrift.config import RunConfig
from cpodrift.controller import ControllerParams, Mode
from cpodrift.errors import CpodriftError, InputError, StepSizeError
from cpodrift.optics import OpticParams, drift
from cpodrift.scheduler import (
    Filtration,
    ForecastLog,
    HintForecast,
    QueueEntry,
    forecast,
    preposition_fraction,
)
from cpodrift.simulate import RunResult, _Chunk, _Summary, simulate
from cpodrift.telemetry import TelemetryFrame
from cpodrift.thermal import ThermalParams
from cpodrift.workload import (
    LOAD_STATES,
    RHO_MAX,
    RHO_MIN,
    AffineMapParams,
    WorkloadConfig,
    density_to_throughput,
)


class Plan(NamedTuple):
    """The per-step plan of a run, one entry per step."""

    t_ms: np.ndarray        # step start times
    state_idx: np.ndarray   # index into LOAD_STATES
    rho: np.ndarray         # planned density, noise included
    n_streams: np.ndarray


def plan_oracle(config: WorkloadConfig, seed: int) -> Plan:
    """The plan of a run, expanded one Python list entry per step: each
    hold of the schedule gives its state for its whole number of steps (at
    least one, at most the run's), the cycle is tiled to ``step_count``
    steps, and one ``default_rng(seed)`` draw of ``step_count`` normals adds
    the noise. A step runs ``max(1, rint(rho / 0.65))`` streams, 0.65 being
    a stream's mean density."""
    n, dt = config.step_count, config.step_period_ms
    names = [s.name for s in LOAD_STATES]
    cycle = []
    for state, dur_ms in config.schedule:
        cycle.extend([names.index(state)] * max(1, round(min(dur_ms / dt, n))))
    cycle = np.asarray(cycle, dtype=np.uint8)
    state_idx = np.tile(cycle, -(-n // cycle.size))[:n]
    rho = np.asarray([s.rho_target for s in LOAD_STATES])[state_idx]
    if config.noise_sigma > 0:
        rho = rho + np.random.default_rng(seed).normal(0.0, config.noise_sigma, n)
    n_streams = np.maximum(1, np.rint(rho / 0.65)).astype(np.int64)
    return Plan(np.arange(n, dtype=float) * dt, state_idx, rho, n_streams)


class MissingHintError(CpodriftError):
    """The predictive controller stepped without a hint forecast."""


@dataclass(frozen=True)
class CompensationState:
    """Controller state after a step.

    ``sensor_buf`` is the delay line of plant observations (reactive path);
    ``hint_buf`` holds hint powers whose coverage time has not yet entered
    the lead window (predictive path); ``replica_ahead_c`` is the thermal
    replica advanced ``lead_ms`` into the hinted future. The buffers are
    deques that each step advances in place, so a step costs the same
    whatever their length, and a state is current only until the next step.
    """

    bias_delta_t_c: float = 0.0
    residual_delta_t_c: float = 0.0
    residual_drift_nm: float = 0.0
    t_ms: float = 0.0
    sensor_buf: deque[float] = field(default_factory=deque)
    hint_buf: deque[float] = field(default_factory=deque)
    replica_ahead_c: float = 0.0
    replica_live: bool = False


def control_step(
    state: CompensationState,
    plant_delta_t: float,
    hint: HintForecast | None,
    dt_ms: float,
    params: ControllerParams = ControllerParams(),
    thermal: ThermalParams = ThermalParams(),
    optic: OpticParams = OpticParams(),
) -> CompensationState:
    """Advance the compensator one step and recompute residuals.

    ``plant_delta_t`` is the plant temperature delta at the end of the
    current step. In predictive mode a hint is mandatory; its forecast power
    feeds the replica once its coverage time falls inside the lead window
    (warm-up steps slave the replica to the plant, which the power-driven
    replica equals exactly for a deterministic plant).
    """
    if not dt_ms > 0:
        raise StepSizeError(f"dt_ms must be > 0, got {dt_ms}")

    mode = params.mode
    if mode is Mode.OPEN_LOOP:
        bias = 0.0
        residual = abs(plant_delta_t - bias)
        return CompensationState(
            bias_delta_t_c=bias,
            residual_delta_t_c=residual,
            residual_drift_nm=drift(residual, optic),
            t_ms=state.t_ms + dt_ms,
        )

    setpoint = params.setpoint_c
    g = params.tracking_factor(dt_ms)

    if mode is Mode.REACTIVE:
        lag_steps = int(round(params.sensor_latency_ms / dt_ms))
        buf = state.sensor_buf
        sensed = buf[0] if len(buf) >= lag_steps and lag_steps > 0 else (
            plant_delta_t if lag_steps == 0 else 0.0
        )
        target = max(0.0, sensed - setpoint)
        if lag_steps > 0:   # the last lag_steps observations
            buf.append(plant_delta_t)
            if len(buf) > lag_steps:
                buf.popleft()
        bias = (1.0 - g) * state.bias_delta_t_c + g * target
        residual = abs(plant_delta_t - bias)
        return CompensationState(
            bias_delta_t_c=bias,
            residual_delta_t_c=residual,
            residual_drift_nm=drift(residual, optic),
            t_ms=state.t_ms + dt_ms,
            sensor_buf=buf,
        )

    # predictive
    if hint is None:
        raise MissingHintError("predictive controller stepped without a hint")
    if params.lead_ms > hint.horizon_ms:
        raise InputError(
            f"lead_ms = {params.lead_ms} exceeds the hint horizon {hint.horizon_ms}"
        )
    h_steps = int(round(hint.horizon_ms / dt_ms))
    lead_steps = max(1, int(round(params.lead_ms / dt_ms)))
    lead_steps = min(lead_steps, h_steps)
    warm = h_steps - lead_steps

    decay = math.exp(-dt_ms / thermal.tau_ms)
    buf = state.hint_buf
    buf.append(hint.forecast_w)
    if len(buf) > warm and state.replica_live:
        coverage_w = buf.popleft()
        ahead = state.replica_ahead_c * decay + thermal.gain * (
            coverage_w - thermal.p_baseline_w
        ) * (1.0 - decay)
        live = True
    else:
        # hint FIFO still maturing: anticipate with the preposition blend of
        # the current plant state and the hint-implied steady state
        wl = 1.0 - math.exp(-(lead_steps * dt_ms) / thermal.tau_ms)
        ahead = (1.0 - wl) * plant_delta_t + wl * thermal.gain * (
            hint.forecast_w - thermal.p_baseline_w
        )
        if len(buf) > warm:
            # window just filled: discard the stale head, go live
            buf.popleft()
            live = True
        else:
            live = False

    target = max(0.0, max(plant_delta_t, ahead) - setpoint)
    bias = (1.0 - g) * state.bias_delta_t_c + g * target
    residual = abs(plant_delta_t - bias)
    return CompensationState(
        bias_delta_t_c=bias,
        residual_delta_t_c=residual,
        residual_drift_nm=drift(residual, optic),
        t_ms=state.t_ms + dt_ms,
        hint_buf=buf,
        replica_ahead_c=ahead,
        replica_live=live,
    )


def _steps_of(ms: float, dt: float) -> int:
    return int(round(ms / dt))


def _power(rho: float, wmap: AffineMapParams) -> float:
    """The affine density-to-power ramp, clamped to [0, p_max]."""
    p = wmap.p_idle_w + (wmap.p_peak_w - wmap.p_idle_w) * (rho - RHO_MIN) \
        / (RHO_MAX - RHO_MIN)
    return min(max(p, 0.0), wmap.p_max_w)


def throttle(slot: list, forecast_w: float, cap_c: float, gain: float,
             thermal: ThermalParams, wmap: AffineMapParams
             ) -> tuple[list, float]:
    """Pop the newest ``[QueueEntry, deferred]`` item of ``slot`` (in queue
    order) while the projected residual breaches ``cap_c``; return the
    popped items, newest first, and the projection left.

    The projected residual of a power P is the part of its steady-state
    delta over baseline that the compensation credit does not cover,
    (1 - gain) * (gamma * R_th * max(0, P - P0)): first of the hint, then of
    the power of the density left in the slot.
    """
    def projected(power_w):
        return (1.0 - gain) * (thermal.gamma * thermal.r_th *
                               max(0.0, power_w - thermal.p_baseline_w))

    left = 0.0
    for entry, _ in slot:
        left += entry.rho
    popped = []
    after = projected(forecast_w)
    while after > cap_c and slot:
        popped.append(slot.pop())
        left -= popped[-1][0].rho
        after = projected(_power(max(left, 0.0), wmap))
    return popped, after


def make_chunk(config: RunConfig, lo: int, state_idx: np.ndarray,
               rho: np.ndarray, queue_depth: np.ndarray | None = None,
               moves_before: int = 0, planned: np.ndarray | None = None,
               **fields) -> _Chunk:
    """A :class:`_Chunk` of steps [lo, lo + len(rho)) of a run of ``config``,
    with every field the schedule pass fills.

    ``planned`` is the run's plan (:func:`plan_oracle`) over [lo, lo + len
    + admission lead), cut at the run's last step, unless given. The
    queue-depth moves are the throttle's: none without ``queue_depth``,
    else the moves that give that depth after each step, ``moves_before``
    of them before lo. The steps start at their times; any other field not
    given is zero: power, hints that read their own step's time (EWMA ones,
    so ``n_replay`` 0), throttle counters and physics.
    """
    wl = config.workload
    n = len(rho)
    adm = min(_steps_of(config.scheduler.admission_lead_ms, wl.step_period_ms),
              wl.step_count)
    if planned is None:
        planned = plan_oracle(wl, config.seed).rho[lo:lo + n + adm]
    depth_moves = 0
    if queue_depth is not None:
        # the depth after each step without a move: the streams admitted
        # (an admission lead ahead) and not yet run
        counts = np.maximum(1, np.rint(planned / 0.65)).astype(np.int64)
        c = np.concatenate(([0], np.cumsum(counts)))
        ahead = np.minimum(np.arange(1, n + 1) + adm, c.size - 1)
        moved = np.asarray(queue_depth) - (c[ahead] - c[1:n + 1])
        depth_moves = np.diff(moved, prepend=moves_before)
    t = (lo + np.arange(n)) * wl.step_period_ms
    z = np.zeros(n)
    return _Chunk(**dict(
        lo=lo, t_ms=t, state_idx=state_idx, rho=rho, p_eic_w=z, hint_w=z,
        newest_input_ms=t, n_replay=0, depth_moves=depth_moves,
        throttle_deferrals=0, outstanding_density=0.0, outstanding_entries=0,
        shed_density=0.0, shed_entries=0, planned=planned,
        moves_before=moves_before, delta_t_c=z, bias_c=z, residual_c=z,
        drift_nm=z) | fields)


def simulate_oracle(config: RunConfig) -> RunResult:
    plan = plan_oracle(config.workload, config.seed)
    if plan.rho.size == 0:
        return simulate(config)

    sc = config.scheduler
    cp = config.controller
    thermal = config.thermal
    optic = config.optics
    wmap = config.affine_map
    dt = config.workload.step_period_ms
    N = plan.rho.size
    t = plan.t_ms

    h_steps = _steps_of(sc.horizon_ms, dt)
    adm_steps = _steps_of(sc.admission_lead_ms, dt)
    slice_steps = max(1, _steps_of(sc.t_slice_ms, dt))
    win_steps = max(1, _steps_of(sc.history_window_ms, dt))

    # dispatch slots: step index -> list of [queue entry, deferred before]
    # items, and the streams of all of them
    slots: dict[int, list[list]] = {}
    queued = 0

    def admit(j: int, admitted_ms: float) -> None:
        nonlocal queued
        if 0 <= j < N:
            slots.setdefault(j, []).append([QueueEntry(
                dispatch_t_ms=float(t[j]), rho=float(plan.rho[j]),
                n_streams=int(plan.n_streams[j]), admitted_t_ms=admitted_ms,
            ), False])
            queued += int(plan.n_streams[j])

    for j in range(min(adm_steps, N)):
        admit(j, 0.0)

    history: list[tuple[float, float]] = []
    plant = th.ThermalState()
    ctrl = CompensationState()
    hints: list[HintForecast] = []

    cols: dict[str, list] = {k: [] for k in (
        "rho", "t24", "p", "hint", "dT", "bias", "residual", "drift", "qd",
    )}
    state_col: list[str] = []
    deferrals = outstanding_entries = shed_entries = 0
    outstanding_density = shed_density = 0.0

    for k in range(N):
        admit(k + adm_steps, float(t[k]))

        executing = [e for e, _ in slots.pop(k, [])]
        queued -= sum(e.n_streams for e in executing)
        rho_k = 0.0
        for e in executing:
            rho_k += e.rho
        p_k = _power(rho_k, wmap)
        t24_k = density_to_throughput(rho_k, wmap)

        history.append((float(t[k]), p_k))
        if len(history) > win_steps:
            history.pop(0)

        # every slot left is pending; forecast() and throttle() read only
        # the one holding the hint's target, so the filtration carries that
        # slot and its neighbours, and a step costs the same whatever the
        # admission lead
        target = k + h_steps
        near = [e for js in (target - 1, target, target + 1) if js > k
                for e, _ in slots.get(js, ())]
        qd = queued
        snapshot = Filtration(
            now_ms=float(t[k]),
            power_history=tuple(history),
            queue=tuple(near),
            slot_ms=dt,
        )
        hint = forecast(snapshot, float(t[k]), sc.horizon_ms, sc, wmap)
        hints.append(hint)

        if sc.throttle_enabled and target in slots:
            later = target + slice_steps
            popped, _ = throttle(slots[target], hint.forecast_w,
                                 sc.throttle_cap_c,
                                 sc.throttle_compensation_gain, thermal, wmap)
            for entry, deferred_before in popped:
                if deferred_before:         # its second cut: shed
                    shed_density += entry.rho
                    shed_entries += 1
                    queued -= entry.n_streams
                    continue
                deferrals += 1
                if later < N:
                    slots.setdefault(later, []).append(
                        [entry._replace(dispatch_t_ms=float(t[later])), True])
                else:   # past the last step: outstanding
                    outstanding_density += entry.rho
                    outstanding_entries += 1
                    queued -= entry.n_streams

        plant = th.step(plant, p_k - thermal.p_baseline_w, dt, thermal)
        ctrl = control_step(ctrl, plant.delta_t_c, hint, dt, cp, thermal, optic)

        state_col.append(LOAD_STATES[plan.state_idx[k]].name)
        cols["rho"].append(rho_k)
        cols["t24"].append(t24_k)
        cols["p"].append(p_k)
        cols["hint"].append(hint.forecast_w)
        cols["dT"].append(plant.delta_t_c)
        cols["bias"].append(ctrl.bias_delta_t_c)
        cols["residual"].append(ctrl.residual_delta_t_c)
        cols["drift"].append(ctrl.residual_drift_nm)
        cols["qd"].append(qd)

    log = ForecastLog(
        *(np.array([getattr(h, name) for h in hints], dtype=float)
          for name in ("issued_at_ms", "horizon_ms", "forecast_w",
                       "newest_input_ms")),
        np.array([h.source == "ewma" for h in hints], dtype=int))
    eta = preposition_fraction(sc.horizon_ms, thermal.tau_ms)
    qd_arr = np.asarray(cols["qd"], dtype=np.int64)
    frame = TelemetryFrame(
        step=np.arange(N, dtype=np.int64),
        t_ms=t,
        load_state=state_col,
        rho=np.asarray(cols["rho"]),
        t24=np.asarray(cols["t24"]),
        p_eic_w=np.asarray(cols["p"]),
        hint_w=np.asarray(cols["hint"]),
        eta=np.full(N, eta),
        delta_t_c=np.asarray(cols["dT"]),
        bias_c=np.asarray(cols["bias"]),
        residual_c=np.asarray(cols["residual"]),
        drift_nm=np.asarray(cols["drift"]),
        queue_depth=qd_arr,
        ttft_ms=qd_arr * sc.t_slice_ms * 0.5,
    )
    stats = _Summary(config)
    stats.add(make_chunk(
        config, 0, plan.state_idx, frame.rho, qd_arr, planned=plan.rho,
        p_eic_w=frame.p_eic_w, hint_w=log.forecast_w,
        newest_input_ms=log.newest_input_ms,
        n_replay=int((log.source == 0).sum()),
        throttle_deferrals=deferrals, outstanding_density=outstanding_density,
        outstanding_entries=outstanding_entries, shed_density=shed_density,
        shed_entries=shed_entries, delta_t_c=frame.delta_t_c, bias_c=frame.bias_c,
        residual_c=frame.residual_c, drift_nm=frame.drift_nm))
    summary, audit = stats.finish()
    return RunResult(config=config, frame=frame, summary=summary,
                     forecast_log=log, audit=audit)
