"""Lock-step co-simulation in two passes.

Per step: dispatch the planned workload slice, map density to throughput
and power, issue the look-ahead hint (which may throttle queued work),
advance the compensator, advance the thermal plant, convert the residual to
drift, and record one telemetry row. Everything is a pure function of
(config, seed).

The scheduler never reads the plant or the compensator: the throttle
decides from the hint and the queue alone, and the compensator reads only
the forecast power and horizon of a hint. So a run is two passes.

* Schedule pass (:func:`schedule`): from the workload plan alone, the
  dispatched density, the hint stream with its provenance, the queue depth,
  the deferral count and the work deferred past the last step. Array reads
  cover every step the throttle leaves alone; a loop visits, in time order,
  only the steps whose hint breaches the throttle cap and applies the
  throttle's LIFO cut (:func:`lifo_cut`, the kernel behind
  :func:`throttle_decision`) to the slot the hint forecasts, held as arrays.
* Physics pass: the plant's response to the dispatched power
  (:func:`thermal.respond`), then the compensator's bias from that response
  and the hint stream (:func:`controller.compensate`), both one-pole
  recursions exact for piecewise-constant inputs.

``tests/oracle.py`` composes the module-level operations step by step
(Filtration snapshots, forecast(), throttle_decision(), thermal.step() and
a per-step compensator); the equivalence tests check this module against
it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .controller import compensate
from .scheduler import (
    AuditReport,
    ForecastLog,
    causality_audit,
    lifo_cut,
    ordered_sum,
    preposition_fraction,
)
from .telemetry import TelemetryFrame
from .thermal import respond
from .workload import (
    WorkloadPlan,
    density_to_power,
    density_to_throughput,
    generate_workload,
)

STABILIZATION_BAND_C = 0.05     # | trailing-mean residual - cap | tolerance
_STAB_WINDOW_MS = 1000.0


@dataclass(frozen=True)
class SimulationSummary:
    steps: int
    duration_ms: float
    max_residual_c: float = 0.0
    mean_residual_c: float = 0.0
    max_drift_nm: float = 0.0
    mean_drift_nm: float = 0.0
    peak_delta_t_c: float = 0.0
    peak_junction_temp_c: float = 0.0
    eta_min: float = 0.0
    eta_max: float = 0.0
    stabilization_ms: float | None = None   # trailing mean enters cap +/- band
    stays_in_band: bool = False
    mean_rho_by_state: dict[str, float] = field(default_factory=dict)
    throttle_deferrals: int = 0
    outstanding_density: float = 0.0    # deferred past the last step
    outstanding_entries: int = 0
    audit_violations: int = 0

    def to_dict(self) -> dict:
        d = dict(vars(self))
        d["mean_rho_by_state"] = dict(self.mean_rho_by_state)
        return d


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    frame: TelemetryFrame
    summary: SimulationSummary
    forecast_log: ForecastLog
    audit: AuditReport


def _steps_of(ms: float, dt: float) -> int:
    return int(round(ms / dt))


def _window_means(P: np.ndarray, lo: int, hi: int, w: np.ndarray) -> np.ndarray:
    """Weighted mean of the trailing power window ending at each step in
    [lo, hi); ``w[d]`` weighs the power d steps back."""
    a = max(0, lo - w.size + 1)
    num = np.convolve(P[a:hi], w)[lo - a:hi - a]
    return num / np.cumsum(w)[np.minimum(np.arange(lo, hi), w.size - 1)]


def _empty_result(config: RunConfig) -> RunResult:
    frame = TelemetryFrame.empty()
    summary = SimulationSummary(steps=0, duration_ms=0.0)
    return RunResult(config=config, frame=frame, summary=summary,
                     forecast_log=ForecastLog(),
                     audit=AuditReport(n_checked=0, violations=()))


@dataclass(frozen=True)
class DispatchTrace:
    """Outcome of the schedule pass, one entry per step."""

    rho: np.ndarray              # dispatched density
    hint_w: np.ndarray           # look-ahead hint power
    newest_input_ms: np.ndarray  # newest input stamp each hint read
    source: np.ndarray           # 0 = queue replay, 1 = EWMA fallback
    queue_depth: np.ndarray      # admitted streams pending after the step
    deferrals: int
    outstanding_density: float   # deferred past the last step
    outstanding_entries: int


def simulate(config: RunConfig) -> RunResult:
    """Run the co-simulation described by ``config``.

    Deterministic per (config, seed): byte-identical telemetry and forecast
    logs across repeated runs.
    """
    plan = generate_workload(config.workload, config.seed)
    if plan.step_count == 0:
        return _empty_result(config)
    trace = schedule(config, plan)
    log = ForecastLog.from_arrays(
        plan.t_ms, np.full(plan.step_count, config.scheduler.horizon_ms),
        trace.hint_w, trace.newest_input_ms, trace.source,
    )
    return _finish(config, plan, _physics(config, plan, trace), log,
                   trace.deferrals, trace.outstanding_density,
                   trace.outstanding_entries)


# ---------------------------------------------------------------------------
# schedule pass

def schedule(config: RunConfig, plan: WorkloadPlan) -> DispatchTrace:
    """Dispatch, hints, queue depth and deferrals from the plan alone.

    A hint replays the admitted queue at t + horizon and falls back to the
    half-life weighted mean of the dispatched power where the plan no longer
    covers that slot. Where the throttle fires it defers the newest entries
    of the forecast slot by one execution slice; that changes the dispatched
    power of two slots and so the hints that read them, all later than the
    firing step. Entries that would land past the last step are outstanding:
    counted, not dispatched.

    A slot that differs from its plan entry is a pair of ``(rho,
    n_streams)`` arrays in queue order, dropped once its hint is processed.
    """
    sc = config.scheduler
    wmap = config.affine_map
    dt = plan.step_period_ms
    N = plan.step_count
    t = plan.t_ms
    h = _steps_of(sc.horizon_ms, dt)
    slice_steps = _steps_of(sc.t_slice_ms, dt)
    adm = _steps_of(sc.admission_lead_ms, dt)
    # deferred entries join their new slot behind its plan entry only if
    # that was admitted by the time they were deferred
    plan_first = adm >= h + slice_steps
    # Past N steps a horizon, an admission lead or a window reads nothing
    # more, so cap them to keep huge configured times within array sizes.
    # The window keeps one step past N, which leaves np.convolve's operand
    # order, and so its rounding, as it is for any longer window.
    h, adm = min(h, N), min(adm, N)
    win = min(max(1, _steps_of(sc.history_window_ms, dt)), N + 1)
    w = 0.5 ** (np.arange(win) * dt / sc.ewma_half_life_ms)

    rho = plan.rho.copy()
    P = density_to_power(rho, wmap)
    replay = max(0, N - h) if sc.forecaster == "queue_replay" else 0
    F = np.empty(N)
    F[:replay] = P[h:h + replay]
    newest = t.copy()
    newest[:replay] = np.maximum(0, np.arange(replay) + h - adm) * dt
    source = np.zeros(N, dtype=int)
    source[replay:] = 1

    def ewma(lo: int, hi: int) -> None:
        if lo < hi:
            F[lo:hi] = _window_means(P, lo, hi, w)

    ewma(replay, N)

    # pending queue depth as planned: admitted dispatches after each step
    cn = np.concatenate(([0], np.cumsum(plan.n_streams)))
    steps = np.arange(N)
    queue_depth = cn[np.minimum(steps + adm, N - 1) + 1] - cn[steps + 1]
    deferrals = outstanding_entries = 0
    outstanding_density = 0.0

    if sc.throttle_enabled:
        thermal = config.thermal_resolved
        cap, gain = sc.throttle_cap_c, sc.throttle_compensation_gain
        moved = np.zeros(N + 1, dtype=np.int64)  # queue-depth differences

        # excess power over baseline past which lifo_cut may fire, less a
        # hair of slack: the heap holds a superset of the steps that fire,
        # and the cut itself stays authoritative
        per_w = (1.0 - gain) * thermal.gamma * thermal.r_th
        fire_w = cap * (1.0 - 1e-9) / per_w if per_w > 0 else math.inf
        slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        heap = np.flatnonzero(
            F[:max(0, N - h)] - thermal.p_baseline_w > fire_w).tolist()
        last = -1
        while heap:
            k = heapq.heappop(heap)
            if k == last:
                continue
            last = k
            j, m = k + h, k + h + slice_steps
            # the heap only moves forward, so slot j is never read again
            q_rho, q_n = slots.pop(j, None) or (plan.rho[j:j + 1],
                                                 plan.n_streams[j:j + 1])
            cut, _ = lifo_cut(q_rho, F[k], cap, thermal, gain, wmap)
            if not cut:
                continue
            keep = q_rho.size - cut
            later = q_rho[keep:][::-1], q_n[keep:][::-1]   # newest first
            n = int(later[1].sum())
            deferrals += cut
            rho[j] = ordered_sum(q_rho[:keep])
            changed = [j]
            if m < N:
                own = plan.rho[m:m + 1], plan.n_streams[m:m + 1]
                slots[m] = tuple(map(np.concatenate, zip(own, later) if
                                     plan_first else zip(later, own)))
                rho[m] = ordered_sum(slots[m][0])
                moved[j] += n       # still pending over [j, m)
                moved[m] -= n
                changed.append(m)
            else:
                moved[k + 1] -= n   # outstanding: not pending over (k, j)
                moved[j] += n
                outstanding_density += float(later[0].sum())
                outstanding_entries += cut
            P[changed] = density_to_power(rho[changed], wmap)
            retimed = []
            if m < N and m - h < replay:
                F[m - h] = P[m]     # the hint that replays slot m
                retimed.append(m - h)
            for s in changed:
                lo, hi = max(s, replay), min(s + win, N)
                ewma(lo, hi)
                retimed.extend(range(lo, hi))
            for s in retimed:
                if s < N - h and F[s] - thermal.p_baseline_w > fire_w:
                    heapq.heappush(heap, s)
        queue_depth += np.cumsum(moved)[:N]

    return DispatchTrace(rho=rho, hint_w=F, newest_input_ms=newest,
                         source=source, queue_depth=queue_depth,
                         deferrals=deferrals,
                         outstanding_density=outstanding_density,
                         outstanding_entries=outstanding_entries)


# ---------------------------------------------------------------------------
# physics pass

def _physics(config: RunConfig, plan: WorkloadPlan,
             trace: DispatchTrace) -> TelemetryFrame:
    sc = config.scheduler
    thermal = config.thermal_resolved
    dt = plan.step_period_ms
    N = plan.step_count
    F = trace.hint_w

    P = density_to_power(trace.rho, config.affine_map)
    dT = respond(P - thermal.p_baseline_w, thermal, dt)
    bias = compensate(dT, F, dt, config.controller, thermal, sc.horizon_ms)
    residual = np.abs(dT - bias)
    return TelemetryFrame(
        step=np.arange(N, dtype=np.int64),
        t_ms=plan.t_ms,
        load_state=[plan.state_names[i] for i in plan.state_idx],
        rho=trace.rho,
        t24=density_to_throughput(trace.rho, config.affine_map),
        p_eic_w=P,
        hint_w=F,
        eta=np.full(N, preposition_fraction(sc.horizon_ms, thermal.tau_ms)),
        delta_t_c=dT,
        bias_c=bias,
        residual_c=residual,
        drift_nm=config.optics.kappa_to * residual,
        queue_depth=trace.queue_depth.astype(np.int64),
        ttft_ms=trace.queue_depth * sc.t_slice_ms * 0.5,
    )

# ---------------------------------------------------------------------------
# summary

def _finish(config: RunConfig, plan: WorkloadPlan, frame: TelemetryFrame,
            log: ForecastLog, throttle_deferrals: int,
            outstanding_density: float, outstanding_entries: int) -> RunResult:
    thermal = config.thermal_resolved
    dt = plan.step_period_ms
    N = frame.n

    audit = causality_audit(log, np.column_stack((frame.t_ms, frame.p_eic_w)))

    idle_ss = thermal.gain * (config.affine_map.p_idle_w - thermal.p_baseline_w)
    peak_delta = float(frame.delta_t_c.max())
    cap = config.controller.residual_cap_c

    stab_ms = None
    stays = False
    window = max(1, _steps_of(_STAB_WINDOW_MS, dt))
    if N >= window:
        c = np.concatenate(([0.0], np.cumsum(frame.residual_c)))
        trailing = (c[window:] - c[:-window]) / window
        inband = np.abs(trailing - cap) <= STABILIZATION_BAND_C
        hits = np.nonzero(inband)[0]
        if hits.size:
            first = int(hits[0])
            stab_ms = float((first + window) * dt)
            stays = bool(inband[first:].all())

    by_state: dict[str, float] = {}
    for i, name in enumerate(plan.state_names):
        mask = plan.state_idx == i
        if mask.any():
            by_state[name] = float(frame.rho[mask].mean())

    summary = SimulationSummary(
        steps=N,
        duration_ms=float(N * dt),
        max_residual_c=float(frame.residual_c.max()),
        mean_residual_c=float(frame.residual_c.mean()),
        max_drift_nm=float(frame.drift_nm.max()),
        mean_drift_nm=float(frame.drift_nm.mean()),
        peak_delta_t_c=peak_delta,
        peak_junction_temp_c=thermal.ambient_c + peak_delta - idle_ss,
        eta_min=float(frame.eta.min()),
        eta_max=float(frame.eta.max()),
        stabilization_ms=stab_ms,
        stays_in_band=stays,
        mean_rho_by_state=by_state,
        throttle_deferrals=throttle_deferrals,
        outstanding_density=outstanding_density,
        outstanding_entries=outstanding_entries,
        audit_violations=len(audit.violations),
    )
    return RunResult(config=config, frame=frame, summary=summary,
                     forecast_log=log, audit=audit)
