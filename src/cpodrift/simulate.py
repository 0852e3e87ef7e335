"""Lock-step co-simulation, streamed: plan, schedule pass and physics pass
one chunk at a time, into a streaming summary.

Per step: dispatch the planned workload slice, map density to throughput
and power, issue the look-ahead hint (which may throttle queued work),
advance the compensator, advance the thermal plant, convert the residual to
drift, and record one telemetry row. Everything is a pure function of
(config, seed).

The scheduler never reads the plant or the compensator: the throttle
decides from the hint and the queue alone, and the compensator reads only
the forecast power and horizon of a hint. So a run is two passes, and
:func:`_chunks` runs both ``_CHUNK_STEPS`` steps at a time.

* The plan (:class:`workload._PlanStream`): the load state and noisy
  density of each step, the noise drawn from one generator in order.
* Schedule pass (:func:`_dispatch`): from the plan alone, the dispatched
  density and power, the hint stream with its provenance, the queue depth,
  the deferral count, and the work shed or deferred past the last step.
  Array reads cover every step the throttle leaves alone; a heap visits,
  in time order, only the steps whose hint breaches the throttle cap and
  applies the throttle's LIFO cut (:func:`throttle_cut`) to the slot the
  hint forecasts. An entry is deferred at most once, so a slot holds at
  most two entries and the cut is a few float operations. A firing edits
  only steps at or after its own, so a chunk is
  final once its steps are visited; the pass reads the plan as far ahead
  as a firing or the queue depth reaches and keeps the power of the EWMA
  window behind the chunk.
* Physics pass: the plant's response to the dispatched power
  (:func:`thermal.respond`), then the compensator's bias from that
  response and the hint stream (:func:`controller.compensate`), both
  one-pole recursions exact for piecewise-constant inputs. The plant state,
  the actuator bias, the predictive replica with the hints it has yet to
  read, and the reactive sensor delay line carry across chunk edges. The
  schedule pass runs one chunk ahead, since the replica reads hints past
  its chunk.

The chunks give a one-chunk run's columns bit for bit, and :func:`_chunks`
is the one reader of the plan and the schedule pass. Each chunk goes to the
streaming summary (:class:`_Summary`), and :func:`simulate` also copies it
into the preallocated telemetry frame and forecast log. A summary-only run
(:func:`_summarize`) keeps nothing whole-run, so its memory does not grow
with the step count. A run of no steps yields no chunk.

``tests/oracle.py`` composes the module-level operations step by step
(Filtration snapshots, forecast(), thermal.step(), and its own per-entry
throttle and per-step compensator); the equivalence tests check this
module against it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .config import RunConfig
from .controller import _Compensator
from .optics import drift
from .scheduler import (
    AuditReport,
    ForecastLog,
    causality_audit,
    preposition_fraction,
    throttle_cut,
)
from .telemetry import TelemetryFrame
from .thermal import _response, peak_junction_temperature
from .workload import (
    STATE_BY_NAME,
    AffineMapParams,
    _PlanStream,
    density_to_power,
    density_to_throughput,
    steps_of,
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
    shed_density: float = 0.0           # deferred once, then taken out again
    shed_entries: int = 0
    audit_violations: int = 0

    def to_dict(self) -> dict:
        """The fields as a dict. The shed counters appear only for a run
        that shed work, so the summary artifacts of every other run keep
        their layout."""
        d = dict(vars(self))
        if not self.shed_entries:
            del d["shed_density"], d["shed_entries"]
        d["mean_rho_by_state"] = dict(self.mean_rho_by_state)
        return d


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    frame: TelemetryFrame
    summary: SimulationSummary
    forecast_log: ForecastLog
    audit: AuditReport


@dataclass(frozen=True)
class DispatchTrace:
    """Outcome of the schedule pass over one chunk of a run, one entry per
    step; the counts are totals through the chunk's last step."""

    rho: np.ndarray              # dispatched density
    power_w: np.ndarray          # dispatched power
    hint_w: np.ndarray           # look-ahead hint power
    newest_input_ms: np.ndarray  # newest input stamp each hint read
    source: np.ndarray           # 0 = queue replay, 1 = EWMA fallback
    queue_depth: np.ndarray      # admitted streams pending after the step
    deferrals: int
    outstanding_density: float   # deferred past the last step
    outstanding_entries: int
    shed_density: float          # taken out a second time: dropped
    shed_entries: int


def simulate(config: RunConfig) -> RunResult:
    """Run the co-simulation described by ``config``.

    Deterministic per (config, seed): byte-identical telemetry and forecast
    logs across repeated runs.
    """
    N = config.workload.step_count
    sc = config.scheduler
    eta = preposition_fraction(sc.horizon_ms, config.thermal.tau_ms)
    frame = TelemetryFrame(
        step=np.arange(N, dtype=np.int64), load_state=[], eta=np.full(N, eta),
        queue_depth=np.empty(N, dtype=np.int64),
        **{c: np.empty(N) for c in ("t_ms", "rho", "t24", "p_eic_w", "hint_w",
                                     "ttft_ms", *_PHYSICS_COLUMNS)})
    newest, source = np.empty(N), np.empty(N, dtype=int)
    names = np.array(tuple(STATE_BY_NAME), dtype=object)
    stats = _Summary(config)
    for chunk in _chunks(config):
        at = slice(chunk.lo, chunk.lo + chunk.t_ms.size)
        tr = chunk.trace
        frame.load_state.extend(names[chunk.state_idx].tolist())
        for col, values in (
            (frame.t_ms, chunk.t_ms), (frame.rho, tr.rho),
            (frame.t24, density_to_throughput(tr.rho, config.affine_map)),
            (frame.p_eic_w, tr.power_w), (frame.hint_w, tr.hint_w),
            (frame.queue_depth, tr.queue_depth),
            (frame.ttft_ms, tr.queue_depth * sc.t_slice_ms * 0.5),
            (newest, tr.newest_input_ms), (source, tr.source),
            *((getattr(frame, c), getattr(chunk, c)) for c in _PHYSICS_COLUMNS),
        ):
            col[at] = values
        stats.add(chunk)
    log = ForecastLog(frame.t_ms, np.broadcast_to(float(sc.horizon_ms), N),
                      frame.hint_w, newest, source)
    summary, audit = stats.finish()
    return RunResult(config=config, frame=frame, summary=summary,
                     forecast_log=log, audit=audit)


def _summarize(config: RunConfig) -> SimulationSummary:
    """``simulate(config).summary`` without the telemetry frame: the chunks
    go to the streaming summary alone, so the run holds a few chunks at a
    time whatever its length."""
    stats = _Summary(config)
    for chunk in _chunks(config):
        stats.add(chunk)
    return stats.finish()[0]


# Steps per chunk: a multiple of every scan block, so the chunked scans
# continue bit for bit across chunk edges. The chunks in flight peak at
# about 5 MB of arrays at this size and 20 MB at 65,536 steps (tracemalloc,
# summary-only); simulate() pays that on top of its frame, and at 65,536 a
# 90k-step run peaked 10 % above the whole-run schedule pass it replaced.
_CHUNK_STEPS = 1 << 14
_PHYSICS_COLUMNS = ("delta_t_c", "bias_c", "residual_c", "drift_nm")


class _Chunk(NamedTuple):
    """Steps [lo, lo + len) of a run: their plan, dispatch and physics."""

    lo: int
    t_ms: np.ndarray
    state_idx: np.ndarray
    trace: DispatchTrace
    delta_t_c: np.ndarray
    bias_c: np.ndarray
    residual_c: np.ndarray
    drift_nm: np.ndarray


def _chunks(config: RunConfig) -> Iterator[_Chunk]:
    """The run of ``config``, ``_CHUNK_STEPS`` steps at a time; none for a
    run of no steps.

    Each chunk of the plan (:class:`_PlanStream`) goes through the schedule
    pass (:func:`_dispatch`) and then the physics: the plant's response to
    the dispatched power (:func:`respond`), the compensator's bias from it
    and the hint stream (:func:`compensate`), and the residual and drift.
    """
    wl = config.workload
    thermal = config.thermal
    N, dt = wl.step_count, wl.step_period_ms
    bias_of = _Compensator(N, dt, config.controller, thermal,
                           config.scheduler.horizon_ms)
    steps = _dispatch(config)
    # the schedule pass runs a chunk ahead of the physics: the predictive
    # replica reads hints up to a scan block past its chunk
    ahead = next(steps, None)
    if ahead is None:
        return
    bias_of.feed(ahead[1].hint_w)
    plant = 0.0
    lo = 0
    for nxt in chain(steps, [None]):
        if nxt is not None:
            bias_of.feed(nxt[1].hint_w)
        (state_idx, trace), ahead = ahead, nxt
        dT, plant = _response(trace.power_w - thermal.p_baseline_w, thermal,
                              dt, plant)
        bias = bias_of(dT)
        residual = np.abs(dT - bias)
        t = np.arange(lo, lo + dT.size, dtype=float) * dt
        yield _Chunk(lo, t, state_idx, trace, dT, bias, residual,
                     drift(residual, config.optics))
        lo += dT.size


# ---------------------------------------------------------------------------
# schedule pass

def _planned_queue_depth(n_streams: np.ndarray, lo: int, hi: int, adm: int,
                         N: int) -> np.ndarray:
    """Pending queue depth as planned for steps [lo, hi) of an ``N``-step
    run: the streams admitted after each step, those of the next ``adm``
    steps or of all steps left. ``n_streams`` starts at step lo."""
    cs = np.cumsum(n_streams[:min(N, hi + adm) - lo])
    depth = np.full(hi - lo, cs[-1])    # all steps left
    full = max(0, min(hi, N - adm) - lo)
    depth[:full] = cs[adm:adm + full]
    depth -= cs[:hi - lo]
    return depth


def _extended(buffers: tuple[np.ndarray, ...], plan: tuple[np.ndarray, ...],
              wmap: AffineMapParams) -> tuple[np.ndarray, ...]:
    """The state, planned density, planned streams, dispatched density and
    power buffers of :func:`_dispatch` with the steps of ``plan`` (its
    ``state_idx``, ``rho`` and ``n_streams``) added."""
    state_idx, rho, n_streams = plan
    return tuple(map(np.concatenate, zip(buffers, (
        state_idx, rho, n_streams, rho, density_to_power(rho, wmap)))))


def _dispatch(config: RunConfig) -> Iterator[tuple[np.ndarray, DispatchTrace]]:
    """Dispatch, hints, queue depth, deferrals and shed work of the run of
    ``config`` from its plan (:class:`_PlanStream`) alone, ``_CHUNK_STEPS``
    steps at a time, each with the load state of its steps.

    A hint replays the admitted queue at t + horizon and falls back to the
    half-life weighted mean of the dispatched power where the plan no longer
    covers that slot. Where the throttle fires it takes the newest entries
    out of the forecast slot (:func:`throttle_cut`). An entry taken out for
    the first time is deferred by one execution slice; that changes the
    dispatched power of two slots and so the hints that read them, all
    later than the firing step. One that would land past the last step is
    outstanding: counted, not dispatched. An entry that was deferred before
    is shed: counted and dropped. So a slot holds its plan entry and at most
    the one entry deferred into it from a slice before, kept in ``slots``
    as ``(rho, n_streams, True)``, and a run defers at most once per step.

    Array reads cover every step the throttle leaves alone; a heap visits,
    in time order, only the steps whose hint breaches the throttle cap.

    Every edit of a firing lands at or after its step, so a chunk's rows are
    final once the steps before its end are visited. The pass holds the
    plan, the dispatched density and the power from ``win`` steps before
    the chunk (the EWMA window) to as far past it as a firing reaches
    (horizon plus slice) or the queue depth reads (admission lead); the
    slots and queue-depth moves pending past the chunk carry over.
    """
    sc = config.scheduler
    wmap = config.affine_map
    N, dt = config.workload.step_count, config.workload.step_period_ms
    plan = _PlanStream(config.workload, config.seed)
    h = steps_of(sc.horizon_ms, dt)
    slice_steps = steps_of(sc.t_slice_ms, dt)
    adm = steps_of(sc.admission_lead_ms, dt)
    # deferred entries join their new slot behind its plan entry only if
    # that was admitted by the time they were deferred
    plan_first = adm >= h + slice_steps
    # Past N steps a horizon, an admission lead or a window reads nothing
    # more, so cap them to keep huge configured times within array sizes.
    # The window keeps one step past N, which leaves np.convolve's operand
    # order, and so its rounding, as it is for any longer window.
    h, adm = min(h, N), min(adm, N)
    win = min(max(1, steps_of(sc.history_window_ms, dt)), N + 1)
    w = 0.5 ** (np.arange(win) * dt / sc.ewma_half_life_ms)
    norm = np.cumsum(w)
    reach = max(h + slice_steps, adm)
    replay = max(0, N - h) if sc.forecaster == "queue_replay" else 0

    if sc.throttle_enabled:
        thermal = config.thermal
        cap, gain = sc.throttle_cap_c, sc.throttle_compensation_gain
        # excess power over baseline past which throttle_cut may fire, less a
        # hair of slack: the heap holds a superset of the steps that fire,
        # and the cut itself stays authoritative
        per_w = (1.0 - gain) * thermal.gamma * thermal.r_th
        fire_w = cap * (1.0 - 1e-9) / per_w if per_w > 0 else math.inf
    # step -> the (rho, n_streams, deferred) entry deferred into its slot
    slots: dict[int, tuple[float, int, bool]] = {}
    deferrals = outstanding_entries = shed_entries = 0
    outstanding_density = shed_density = 0.0

    # the plan (state, density, streams), dispatched density and power of
    # steps [b, top), and the queue-depth differences of steps [lo, top]
    sidx, pn = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    prho = rho = P = np.empty(0)
    b = top = 0
    moved = np.zeros(1, dtype=np.int64)
    moved_before = 0    # the moves of the steps before lo, summed

    def ewma(s0: int, s1: int) -> None:
        """F over steps [s0, s1): the weighted mean of the trailing power
        window ending at each, ``w[d]`` weighing the power d steps back."""
        a = max(0, s0 - win + 1)
        x = P[a - b:s1 - b]
        if x.size < win <= N:
            # keep the power the longer operand, as over the whole run:
            # np.convolve swaps its operands otherwise, and so its rounding
            x = np.concatenate((x, np.zeros(win - x.size)))
        F[s0 - lo:s1 - lo] = np.convolve(x, w)[s0 - a:s1 - a] / \
            norm[np.minimum(np.arange(s0, s1), win - 1)]

    for lo in range(0, N, _CHUNK_STEPS):
        hi = min(lo + _CHUNK_STEPS, N)
        if top < min(N, hi + reach):
            sidx, prho, pn, rho, P = _extended(
                (sidx, prho, pn, rho, P), plan(top, min(N, hi + reach)), wmap)
            top = min(N, hi + reach)
            moved = np.concatenate((moved, np.zeros(top + 1 - lo - moved.size,
                                                    dtype=np.int64)))

        F = np.empty(hi - lo)
        r = max(0, min(hi, replay) - lo)    # replay rows
        F[:r] = P[lo + h - b:lo + h + r - b]
        ewma(lo + r, hi)
        newest = np.arange(lo, hi, dtype=float)
        np.maximum(newest[:r] + (h - adm), 0.0, out=newest[:r])
        newest *= dt
        source = np.zeros(hi - lo, dtype=int)
        source[r:] = 1

        if sc.throttle_enabled:
            heap = (np.flatnonzero(F[:max(0, min(hi, N - h) - lo)] -
                                   thermal.p_baseline_w > fire_w) + lo).tolist()
            last = -1
            while heap:
                k = heapq.heappop(heap)
                if k == last:
                    continue
                last = k
                j, m = k + h, k + h + slice_steps
                # slot j: its plan entry and the entry deferred into it, if
                # any, in queue order; the heap only moves forward, so the
                # slot is never read again
                own = float(prho[j - b]), int(pn[j - b]), False
                moved_in = slots.pop(j, None)
                slot = [own] if moved_in is None else \
                    [own, moved_in] if plan_first else [moved_in, own]
                cut, _ = throttle_cut([e[0] for e in slot], float(F[k - lo]),
                                      cap, thermal, gain, wmap)
                if not cut:
                    continue
                # what is left is the oldest entry, or nothing
                rho_j = slot[0][0] if cut < len(slot) else 0.0
                rho[j - b], P[j - b] = rho_j, density_to_power(rho_j, wmap)
                changed = [j]
                for r, n, deferred_before in slot[len(slot) - cut:]:
                    if not deferred_before and m < N:
                        deferrals += 1
                        slots[m] = r, n, True
                        own_m = float(prho[m - b])
                        rho_m = own_m + r if plan_first else r + own_m
                        rho[m - b], P[m - b] = rho_m, density_to_power(rho_m, wmap)
                        moved[j - lo] += n      # still pending over [j, m)
                        moved[m - lo] -= n
                        changed.append(m)
                        continue
                    # shed, or outstanding: not pending over (k, j)
                    moved[k + 1 - lo] -= n
                    moved[j - lo] += n
                    if deferred_before:
                        shed_density += r
                        shed_entries += 1
                    else:
                        deferrals += 1
                        outstanding_density += r
                        outstanding_entries += 1
                # the hints of this chunk that read a changed slot; later
                # ones are read when their chunk starts
                retimed = []
                if changed[-1] == m and m - h < min(replay, hi):
                    F[m - h - lo] = P[m - b]    # the hint that replays slot m
                    retimed.append(m - h)
                for s in changed:
                    s0, s1 = max(s, replay), min(s + win, hi)
                    if s0 < s1:
                        ewma(s0, s1)
                        retimed.extend(range(s0, s1))
                for s in retimed:
                    if s < N - h and F[s - lo] - thermal.p_baseline_w > fire_w:
                        heapq.heappush(heap, s)
            # the slots of the steps visited are read no more
            for j in [j for j in slots if j < hi + h]:
                del slots[j]

        depth = _planned_queue_depth(pn[lo - b:], lo, hi, adm, N)
        depth += moved_before + np.cumsum(moved[:hi - lo])
        moved_before += int(moved[:hi - lo].sum())

        yield sidx[lo - b:hi - b], DispatchTrace(
            rho=rho[lo - b:hi - b], power_w=P[lo - b:hi - b], hint_w=F,
            newest_input_ms=newest, source=source, queue_depth=depth,
            deferrals=deferrals, outstanding_density=outstanding_density,
            outstanding_entries=outstanding_entries, shed_density=shed_density,
            shed_entries=shed_entries)
        moved = moved[hi - lo:]
        drop = max(0, hi - win + 1) - b
        sidx, prho, pn, rho, P = (x[drop:] for x in (sidx, prho, pn, rho, P))
        b += drop


# ---------------------------------------------------------------------------
# summary

class _Summary:
    """Streaming summary of a run, fed its chunks in step order.

    Maxima and the stabilization window are exact whatever the chunking; the
    trailing window's cumulative sum carries across chunk edges. The means,
    the per-state dispatched-density means among them, sum per chunk, so
    with more than one chunk they may differ from ``np.mean`` of the whole
    column in the last bits (1e-12 relative bounds it). The causality audit
    runs per chunk. Any ``_Chunk`` is a chunk: the oracle feeds its whole
    run as one.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.window = max(1, steps_of(_STAB_WINDOW_MS,
                                      config.workload.step_period_ms))
        self.max_residual = self.max_drift = self.peak_delta = -math.inf
        self.sum_residual = self.sum_drift = 0.0
        self.cum = np.zeros(1)  # cumulative residual at the last window steps
        self.done = 0           # trailing means computed so far
        self.first: int | None = None   # first trailing mean in band
        self.stays = False
        self.rho_sums = [0.0] * len(STATE_BY_NAME)    # per state
        self.rho_steps = np.zeros(len(STATE_BY_NAME), dtype=np.int64)
        self.n_checked = 0
        self.violations: list[tuple[float, float]] = []
        self.t_last = np.empty(0)   # the last issue stamp audited
        self.trace: DispatchTrace | None = None

    def add(self, chunk: _Chunk) -> None:
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

        tr = chunk.trace
        steps = np.bincount(chunk.state_idx, minlength=self.rho_steps.size)
        for i in np.flatnonzero(steps):
            self.rho_sums[i] += float(tr.rho[chunk.state_idx == i].sum())
        self.rho_steps += steps

        n = chunk.t_ms.size
        horizon = float(self.config.scheduler.horizon_ms)
        log = ForecastLog(chunk.t_ms, np.broadcast_to(horizon, n), tr.hint_w,
                          tr.newest_input_ms, tr.source)
        # the last stamp of the chunk before carries the sortedness check
        # across the edge
        audit = causality_audit(log, np.concatenate((self.t_last, chunk.t_ms)))
        self.t_last = chunk.t_ms[-1:]
        self.n_checked += audit.n_checked
        self.violations.extend(audit.violations)
        self.trace = tr

    def finish(self) -> tuple[SimulationSummary, AuditReport]:
        config, tr = self.config, self.trace
        audit = AuditReport(n_checked=self.n_checked,
                            violations=tuple(self.violations))
        if tr is None:      # no chunk: a run of no steps
            return SimulationSummary(steps=0, duration_ms=0.0), audit
        thermal = config.thermal
        dt = config.workload.step_period_ms
        N = config.workload.step_count
        eta = preposition_fraction(config.scheduler.horizon_ms, thermal.tau_ms)

        summary = SimulationSummary(
            steps=N,
            duration_ms=float(N * dt),
            max_residual_c=self.max_residual,
            mean_residual_c=self.sum_residual / N,
            max_drift_nm=self.max_drift,
            mean_drift_nm=self.sum_drift / N,
            peak_delta_t_c=self.peak_delta,
            peak_junction_temp_c=peak_junction_temperature(
                self.peak_delta, config.affine_map.p_idle_w, thermal),
            eta_min=eta,
            eta_max=eta,
            stabilization_ms=None if self.first is None else
            float((self.first + self.window) * dt),
            stays_in_band=self.stays,
            mean_rho_by_state={
                name: float(self.rho_sums[i] / self.rho_steps[i])
                for i, name in enumerate(STATE_BY_NAME) if self.rho_steps[i]},
            throttle_deferrals=tr.deferrals,
            outstanding_density=tr.outstanding_density,
            outstanding_entries=tr.outstanding_entries,
            shed_density=tr.shed_density,
            shed_entries=tr.shed_entries,
            audit_violations=len(audit.violations),
        )
        return summary, audit
