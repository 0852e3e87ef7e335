"""Lock-step co-simulation: a schedule pass, a chunked physics pass and a
streaming summary.

Per step: dispatch the planned workload slice, map density to throughput
and power, issue the look-ahead hint (which may throttle queued work),
advance the compensator, advance the thermal plant, convert the residual to
drift, and record one telemetry row. Everything is a pure function of
(config, seed).

The scheduler never reads the plant or the compensator: the throttle
decides from the hint and the queue alone, and the compensator reads only
the forecast power and horizon of a hint. So a run is two passes.

* Schedule pass (:func:`schedule`), whole-run: from the workload plan
  alone, the dispatched density and power, the hint stream with its
  provenance, the queue depth, the deferral count and the work deferred
  past the last step. Array reads cover every step the throttle leaves
  alone; a loop visits, in time order, only the steps whose hint breaches
  the throttle cap and applies the throttle's LIFO cut (:func:`lifo_cut`,
  the kernel behind :func:`throttle_decision`) to the slot the hint
  forecasts, held as arrays.
* Physics pass (:func:`_physics`), ``_CHUNK_STEPS`` steps at a time: the
  plant's response to the dispatched power (:func:`thermal.respond`), then
  the compensator's bias from that response and the hint stream
  (:func:`controller.compensate`), both one-pole recursions exact for
  piecewise-constant inputs. The plant state, the actuator bias, the
  predictive replica and the reactive sensor delay line carry across chunk
  edges, so the chunks give a one-chunk run's columns bit for bit.

Each chunk goes to the streaming summary (:class:`_Summary`), and
:func:`simulate` also copies it into the preallocated telemetry frame. A
summary-only run (:func:`_summarize`) keeps no frame, so past the schedule
pass it holds one chunk of physics at a time.

``tests/oracle.py`` composes the module-level operations step by step
(Filtration snapshots, forecast(), throttle_decision(), thermal.step() and
a per-step compensator); the equivalence tests check this module against
it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .config import RunConfig
from .controller import _Compensator
from .scheduler import (
    AuditReport,
    ForecastLog,
    causality_audit,
    lifo_cut,
    ordered_sum,
    preposition_fraction,
)
from .telemetry import TelemetryFrame
from .thermal import _response
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
    power_w: np.ndarray          # dispatched power
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
    return _run(config, keep_frame=True)


def _summarize(config: RunConfig) -> SimulationSummary:
    """``simulate(config).summary`` without the telemetry frame: the physics
    chunks go to the streaming summary alone, so past the schedule pass the
    run holds one chunk of physics at a time."""
    return _run(config, keep_frame=False).summary


def _run(config: RunConfig, keep_frame: bool) -> RunResult:
    """Both passes and the summary; without ``keep_frame`` the result's
    frame is None."""
    plan = generate_workload(config.workload, config.seed)
    if plan.step_count == 0:
        return _empty_result(config)
    trace = schedule(config, plan)
    frame = _frame(config, plan, trace) if keep_frame else None
    names = np.array(plan.state_names, dtype=object)
    stats = _Summary(config, plan)
    for chunk in _physics(config, plan, trace):
        if frame is not None:
            hi = chunk.lo + chunk.delta_t_c.size
            for col in _PHYSICS_COLUMNS:
                getattr(frame, col)[chunk.lo:hi] = getattr(chunk, col)
            frame.load_state.extend(names[plan.state_idx[chunk.lo:hi]].tolist())
        stats.add(chunk)
    log = ForecastLog.from_arrays(
        plan.t_ms, np.broadcast_to(config.scheduler.horizon_ms, plan.step_count),
        trace.hint_w, trace.newest_input_ms, trace.source,
    )
    summary, audit = stats.finish(trace.rho, log, trace.deferrals,
                                  trace.outstanding_density,
                                  trace.outstanding_entries)
    return RunResult(config=config, frame=frame, summary=summary,
                     forecast_log=log, audit=audit)


# ---------------------------------------------------------------------------
# schedule pass

def _planned_queue_depth(n_streams: np.ndarray, adm: int) -> np.ndarray:
    """Pending queue depth as planned: the streams admitted after each step,
    those of the next ``adm`` steps, or of all steps left."""
    cs = np.cumsum(n_streams)
    depth = cs[-1] - cs
    m = cs.size - adm
    if m > 0:
        np.subtract(cs[adm:], cs[:m], out=depth[:m])
    return depth


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
    head = newest[:replay]
    np.maximum(np.arange(h - adm, h - adm + replay, dtype=float), 0.0, out=head)
    head *= dt
    source = np.zeros(N, dtype=int)
    source[replay:] = 1

    def ewma(lo: int, hi: int) -> None:
        if lo < hi:
            F[lo:hi] = _window_means(P, lo, hi, w)

    ewma(replay, N)

    queue_depth = _planned_queue_depth(plan.n_streams, adm)
    deferrals = outstanding_entries = 0
    outstanding_density = 0.0

    if sc.throttle_enabled:
        thermal = config.thermal_resolved
        cap, gain = sc.throttle_cap_c, sc.throttle_compensation_gain
        # excess power over baseline past which lifo_cut may fire, less a
        # hair of slack: the heap holds a superset of the steps that fire,
        # and the cut itself stays authoritative
        per_w = (1.0 - gain) * thermal.gamma * thermal.r_th
        fire_w = cap * (1.0 - 1e-9) / per_w if per_w > 0 else math.inf
        slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        heap = np.flatnonzero(
            F[:max(0, N - h)] - thermal.p_baseline_w > fire_w).tolist()
        moved = np.zeros(N + 1, dtype=np.int64)  # queue-depth differences
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
        queue_depth += np.cumsum(moved, out=moved)[:N]

    return DispatchTrace(rho=rho, power_w=P, hint_w=F, newest_input_ms=newest,
                         source=source, queue_depth=queue_depth,
                         deferrals=deferrals,
                         outstanding_density=outstanding_density,
                         outstanding_entries=outstanding_entries)


# ---------------------------------------------------------------------------
# physics pass

# Steps per physics chunk: a multiple of every scan block, so the chunked
# scans continue bit for bit across chunk edges.
_CHUNK_STEPS = 1 << 16
_PHYSICS_COLUMNS = ("delta_t_c", "bias_c", "residual_c", "drift_nm")


class _Chunk(NamedTuple):
    """The physics columns of steps [lo, lo + len)."""

    lo: int
    delta_t_c: np.ndarray
    bias_c: np.ndarray
    residual_c: np.ndarray
    drift_nm: np.ndarray


def _physics(config: RunConfig, plan: WorkloadPlan,
             trace: DispatchTrace) -> Iterator[_Chunk]:
    """The plant's response to the dispatched power (:func:`respond`), the
    compensator's bias from it and the hint stream (:func:`compensate`), and
    the residual and drift, ``_CHUNK_STEPS`` steps at a time."""
    thermal = config.thermal_resolved
    dt = plan.step_period_ms
    P = trace.power_w
    bias_of = _Compensator(trace.hint_w, dt, config.controller, thermal,
                           config.scheduler.horizon_ms)
    plant = 0.0
    for lo in range(0, plan.step_count, _CHUNK_STEPS):
        dT, plant = _response(P[lo:lo + _CHUNK_STEPS] - thermal.p_baseline_w,
                              thermal, dt, plant)
        bias = bias_of(dT)
        residual = np.abs(dT - bias)
        yield _Chunk(lo, dT, bias, residual, config.optics.kappa_to * residual)


def _frame(config: RunConfig, plan: WorkloadPlan,
           trace: DispatchTrace) -> TelemetryFrame:
    """The run's frame: the columns the schedule pass fixes, the physics
    columns allocated and ``load_state`` empty, both for the chunks to fill."""
    sc = config.scheduler
    N = plan.step_count
    eta = preposition_fraction(sc.horizon_ms, config.thermal_resolved.tau_ms)
    return TelemetryFrame(
        step=np.arange(N, dtype=np.int64),
        t_ms=plan.t_ms,
        load_state=[],
        rho=trace.rho,
        t24=density_to_throughput(trace.rho, config.affine_map),
        p_eic_w=trace.power_w,
        hint_w=trace.hint_w,
        eta=np.full(N, eta),
        queue_depth=trace.queue_depth.astype(np.int64, copy=False),
        ttft_ms=trace.queue_depth * sc.t_slice_ms * 0.5,
        **{col: np.empty(N) for col in _PHYSICS_COLUMNS},
    )


# ---------------------------------------------------------------------------
# summary

class _Summary:
    """Streaming summary of a run, fed its physics chunks in step order.

    Maxima and the stabilization window are exact whatever the chunking; the
    trailing window's cumulative sum carries across chunk edges. The means
    sum per chunk, so with more than one chunk they may differ from
    ``np.mean`` of the whole column in the last bits (1e-12 relative bounds
    it). Any object with the physics columns is a chunk: the oracle feeds
    its whole frame as one.
    """

    def __init__(self, config: RunConfig, plan: WorkloadPlan) -> None:
        self.config, self.plan = config, plan
        self.window = max(1, _steps_of(_STAB_WINDOW_MS, plan.step_period_ms))
        self.max_residual = self.max_drift = self.peak_delta = -math.inf
        self.sum_residual = self.sum_drift = 0.0
        self.cum = np.zeros(1)  # cumulative residual at the last window steps
        self.done = 0           # trailing means computed so far
        self.first: int | None = None   # first trailing mean in band
        self.stays = False

    def add(self, chunk) -> None:
        r = chunk.residual_c
        self.max_residual = float(np.maximum(self.max_residual, r.max()))
        self.max_drift = float(np.maximum(self.max_drift, chunk.drift_nm.max()))
        self.peak_delta = float(np.maximum(self.peak_delta,
                                           chunk.delta_t_c.max()))
        self.sum_residual += float(r.sum())
        self.sum_drift += float(chunk.drift_nm.sum())

        w, k = self.window, self.cum.size
        c = np.concatenate((self.cum, r))
        np.cumsum(c[k - 1:], out=c[k - 1:])     # on from the carried sum
        trailing = (c[w:] - c[:-w]) / w
        inband = np.abs(trailing - self.config.controller.residual_cap_c) \
            <= STABILIZATION_BAND_C
        if self.first is None:
            hits = np.flatnonzero(inband)
            if hits.size:
                self.first = self.done + int(hits[0])
                self.stays = bool(inband[hits[0]:].all())
        else:
            self.stays = self.stays and bool(inband.all())
        self.done += trailing.size
        self.cum = c[-w:]

    def finish(self, rho: np.ndarray, log: ForecastLog, throttle_deferrals: int,
               outstanding_density: float, outstanding_entries: int,
               ) -> tuple[SimulationSummary, AuditReport]:
        config, plan = self.config, self.plan
        thermal = config.thermal_resolved
        dt = plan.step_period_ms
        N = plan.step_count
        audit = causality_audit(log, plan.t_ms)
        idle_ss = thermal.gain * (config.affine_map.p_idle_w - thermal.p_baseline_w)
        eta = preposition_fraction(config.scheduler.horizon_ms, thermal.tau_ms)

        by_state: dict[str, float] = {}
        for i, name in enumerate(plan.state_names):
            mask = plan.state_idx == i
            if mask.any():
                by_state[name] = float(rho[mask].mean())

        summary = SimulationSummary(
            steps=N,
            duration_ms=float(N * dt),
            max_residual_c=self.max_residual,
            mean_residual_c=self.sum_residual / N,
            max_drift_nm=self.max_drift,
            mean_drift_nm=self.sum_drift / N,
            peak_delta_t_c=self.peak_delta,
            peak_junction_temp_c=thermal.ambient_c + self.peak_delta - idle_ss,
            eta_min=eta,
            eta_max=eta,
            stabilization_ms=None if self.first is None else
            float((self.first + self.window) * dt),
            stays_in_band=self.stays,
            mean_rho_by_state=by_state,
            throttle_deferrals=throttle_deferrals,
            outstanding_density=outstanding_density,
            outstanding_entries=outstanding_entries,
            audit_violations=len(audit.violations),
        )
        return summary, audit
