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
  density and power, the hint stream with the count of replayed hints, the
  queue-depth moves, the deferral count, and the work shed or deferred
  past the last step.
  Array reads cover every step the throttle leaves alone. A firing edits
  only its step's forecast slot and the slot a slice on, and an entry is
  deferred at most once, so a slot holds at most two entries. A replayed
  hint reads its own slot alone, so the throttle's LIFO cut
  (:func:`throttle_cut`) of a slot depends on one bit, whether the slot a
  slice back deferred into it: the pass cuts each slot both ways at once
  and chains the bit along these lanes. EWMA hints read a window of
  slots, so the pass sweeps them in blocks of a horizon's steps. A chunk
  is final once swept; the pass reads the plan as far ahead as a firing
  or the queue depth reaches and keeps the power of the EWMA window
  behind the chunk.
* Physics pass: the plant's response to the dispatched power
  (:func:`thermal.respond`), then the compensator's bias from that
  response and the hint stream (:func:`controller.compensate`), both
  one-pole recursions exact for piecewise-constant inputs. The scans with
  their open blocks, the predictive replica with the hints of its lead
  delay, and the reactive sensor delay line carry across chunk edges.

Chunks of any size give a one-chunk run's columns bit for bit.
:func:`_chunks`, the one reader of the plan and the schedule pass, yields
each chunk to its sinks: the streaming summary (:class:`_Summary`) and a
keeper (:func:`_keeper`) of the whole-run columns a caller names, every one
for :func:`simulate`. :func:`write_run` writes each chunk's rows to the
telemetry and forecast-log CSVs in one pass. Only kept columns grow with
the run. :meth:`_Chunk.columns` derives the queue depth and the hint
sources, which only the writers and the keeper read, so a summary-only run
skips them. A run of no steps yields no chunk.

``tests/oracle.py`` composes the module-level operations step by step
(Filtration snapshots, forecast(), thermal.step(), and its own per-entry
throttle and per-step compensator); the equivalence tests check this
module against it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .config import RunConfig
from .controller import _Compensator
from .optics import drift
from .scheduler import (
    _SOURCE_NAMES,
    LOG_CELLS,
    LOG_HEADER,
    AuditReport,
    ForecastLog,
    causality_audit,
    ordered_sum,
    preposition_fraction,
    throttle_cut,
    throttle_projection,
)
from .telemetry import _CELLS, _ROW, COLUMNS, TelemetryFrame, write_rows
from .thermal import _response, peak_junction_temperature
from .workload import (
    STATE_BY_NAME,
    AffineMapParams,
    _PlanStream,
    density_to_power,
    density_to_throughput,
    steps_of,
    stream_counts,
)

STABILIZATION_BAND_C = 0.05     # | trailing-mean residual - cap | tolerance
_STAB_WINDOW_MS = 1000.0
_STATE_NAMES = np.array(tuple(STATE_BY_NAME), dtype=object)   # by state_idx
# the forecast log's columns by chunk name: issue stamp t_ms, forecast hint_w
_LOG_COLUMNS = ("t_ms", "horizon_ms", "hint_w", "newest_input_ms", "source")


class SimulationSummary(NamedTuple):
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
    # read-only by default: a NamedTuple default is one object shared by
    # every instance built without it
    mean_rho_by_state: Mapping[str, float] = MappingProxyType({})
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
        d = self._asdict()
        if not self.shed_entries:
            del d["shed_density"], d["shed_entries"]
        d["mean_rho_by_state"] = dict(self.mean_rho_by_state)
        return d


class RunResult(NamedTuple):
    config: RunConfig
    frame: TelemetryFrame
    summary: SimulationSummary
    forecast_log: ForecastLog
    audit: AuditReport


def simulate(config: RunConfig) -> RunResult:
    """Run the co-simulation described by ``config``.

    Deterministic per (config, seed): byte-identical telemetry and forecast
    logs across repeated runs.
    """
    stats, (keep, columns) = _Summary(config), _keeper(config, _DTYPES)
    for chunk in _chunks(config):
        stats.add(chunk)
        keep(chunk.columns(config))
    frame = TelemetryFrame(**{c: columns[c] for c in COLUMNS})
    log = ForecastLog(frame.t_ms, np.broadcast_to(
        float(config.scheduler.horizon_ms), frame.n), frame.hint_w,
        columns["newest_input_ms"], columns["source"])
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
        del chunk   # freed before the next chunk is made
    return stats.finish()[0]


def write_run(config: RunConfig, telemetry_path, log_path,
              columns=()) -> tuple[SimulationSummary, AuditReport, dict]:
    """Run ``config`` and write its telemetry and forecast-log CSVs chunk by
    chunk; return the summary, the audit and the named ``columns``, whole."""
    stats, (keep, kept) = _Summary(config), _keeper(config, columns)
    with open(telemetry_path, "w", newline="") as tel, \
            open(log_path, "w", newline="") as log:
        tel.write(",".join(COLUMNS) + "\n")
        log.write(LOG_HEADER)
        files = ((tel, COLUMNS), (log, _LOG_COLUMNS))
        for chunk in _chunks(config):
            stats.add(chunk)
            rows = chunk.columns(config)
            keep(rows)
            write_rows(files, rows, _CELLS | LOG_CELLS)
            del chunk, rows     # freed before the next chunk is made
    return *stats.finish(), kept


# Steps per chunk. Any size gives the same columns, but the summary's means
# sum per chunk, so the pinned summaries depend on it. The chunks in flight
# peak at about 5 MB of arrays at this size and 20 MB at 65,536 steps
# (tracemalloc, summary-only); simulate() pays that on top of its frame, and
# at 65,536 a 90k-step run peaked 10 % above the whole-run schedule pass.
_CHUNK_STEPS = 1 << 14
# Slices per lane pass of the throttle: some 300 kB of temporaries.
_LANE_ROUNDS = 16


class _Chunk(NamedTuple):
    """Steps [lo, lo + len) of a run: their plan, dispatch and physics, one
    entry per step; the counts are totals through the chunk's last step.
    :meth:`columns` derives the queue depth and the hint sources."""

    lo: int
    t_ms: np.ndarray
    state_idx: np.ndarray
    rho: np.ndarray              # dispatched density
    p_eic_w: np.ndarray          # dispatched power
    hint_w: np.ndarray           # look-ahead hint power
    newest_input_ms: np.ndarray  # newest input stamp each hint read
    n_replay: int                # hints replaying the queue, all before EWMA ones
    depth_moves: np.ndarray | int    # queue-depth moves; 0 before any hint may fire
    throttle_deferrals: int
    outstanding_density: float   # deferred past the last step
    outstanding_entries: int
    shed_density: float          # taken out a second time: dropped
    shed_entries: int
    planned: np.ndarray          # planned density of [lo, lo + len + adm)
    moves_before: int            # the queue-depth moves of the steps before lo
    # the physics, which _chunks fills in after the schedule pass
    delta_t_c: np.ndarray | None = None
    bias_c: np.ndarray | None = None
    residual_c: np.ndarray | None = None
    drift_nm: np.ndarray | None = None

    def columns(self, config: RunConfig) -> dict:
        """The chunk's CSV columns by name, a few as ``(codes, table)``. A
        step admits the streams of the step an admission lead on, runs its
        own and adds its moves, so the queue depth after step lo - 1 is the
        streams of steps [lo, lo + lead) plus the moves before lo."""
        sc, n = config.scheduler, self.t_ms.size
        one = np.zeros(n, np.intp)    # the codes of a one-value table
        source = np.zeros(n, np.intp)     # 0 = queue replay, 1 = EWMA fallback
        source[self.n_replay:] = 1
        adm = steps_of(sc.admission_lead_ms, config.workload.step_period_ms)
        pn = stream_counts(self.planned)    # through the run's last step
        d, ahead = -pn[:n] + self.depth_moves, pn[adm:]
        d[:ahead.size] += ahead
        d[0] += int(pn[:adm].sum()) + self.moves_before
        depth = np.cumsum(d)    # admitted streams pending
        depths, codes = np.unique(depth, return_inverse=True)
        eta = preposition_fraction(sc.horizon_ms, config.thermal.tau_ms)
        return self._asdict() | dict(
            step=np.arange(self.lo, self.lo + n),
            load_state=(self.state_idx, _STATE_NAMES),
            t24=density_to_throughput(self.rho, config.affine_map),
            eta=(one, np.array([eta])),
            queue_depth=depth,
            ttft_ms=(codes, depths * sc.t_slice_ms * 0.5),
            horizon_ms=(one, np.array([float(sc.horizon_ms)])),
            source=(source, _SOURCE_NAMES))


# the throttle counters of a chunk, named as in the summary
_COUNTERS = ("throttle_deferrals", "outstanding_density", "outstanding_entries",
             "shed_density", "shed_entries")


def _chunks(config: RunConfig) -> Iterator[_Chunk]:
    """The run of ``config``, ``_CHUNK_STEPS`` steps at a time; none for a
    run of no steps.

    Each chunk of the plan (:class:`_PlanStream`) goes through the schedule
    pass (:func:`_dispatch`) and then, before the next is dispatched, the
    physics: the plant's response to the dispatched power
    (:func:`respond`), the compensator's bias from it and the hint stream
    (:func:`compensate`), and the residual and drift.
    """
    wl = config.workload
    thermal = config.thermal
    N, dt = wl.step_count, wl.step_period_ms
    bias_of = _Compensator(N, dt, config.controller, thermal,
                           config.scheduler.horizon_ms)
    plant = 0.0
    for chunk in _dispatch(config):
        dT, plant = _response(chunk.p_eic_w, thermal, dt, plant,
                              thermal.p_baseline_w)
        bias = bias_of(dT, chunk.hint_w)
        residual = np.subtract(dT, bias)
        np.abs(residual, out=residual)
        chunk = chunk._replace(delta_t_c=dT, bias_c=bias, residual_c=residual,
                               drift_nm=drift(residual, config.optics))
        yield chunk
        del chunk, dT, bias, residual   # freed before the next chunk is made


_ONE_TO_255 = np.arange(1, 256)    # a bisection round's probes


def _split(passes: Callable) -> tuple[float, float]:
    """The last float that fails ``passes`` and the first that passes it,
    NaN for a side with none, so ``x <= last`` and ``x >= first`` are its
    sides bit for bit: for a test of float arrays that NaN fails and the
    floats, -inf to +inf, fail up to one and pass from the next, as a
    comparison of IEEE operations each nondecreasing in x does (each rounds
    a nondecreasing exact result). Bisection, 255 floats a round, over the
    floats in order as signed 64-bit integers: a float's bits, all but the
    sign bit flipped if it is set."""
    def floats(k: np.ndarray) -> np.ndarray:
        return (k ^ (k >> 63 & (1 << 63) - 1)).view(float)

    # the NaNs beside -inf and +inf: a side with no float ends there
    lo, hi = (1 << 52) - 2 - (1 << 63), 0x7FF0_0000_0000_0001
    with np.errstate(all="ignore"):     # a float far out overflows the test
        while hi - lo > 1:
            # lo + i * step: the product may wrap around, the sum does not
            k = _ONE_TO_255[:hi - lo - 1] * max(1, (hi - lo) >> 8)
            k += lo
            # the floats that fail come first: k[i] is the first that passes
            i = k.size - int(np.count_nonzero(passes(floats(k))))
            lo, hi = int(k[i - 1]) if i else lo, int(k[i]) if i < k.size else hi
    return tuple(floats(np.array([lo, hi])).tolist())


# ---------------------------------------------------------------------------
# schedule pass

def _extended(buffers: tuple[np.ndarray, ...], plan: tuple[np.ndarray, ...],
              wmap: AffineMapParams) -> tuple[np.ndarray, ...]:
    """The step buffers of :func:`_dispatch` with the steps of ``plan`` (its
    ``state_idx`` and ``rho``) added: their plan, their dispatched density
    and power as planned, and, if the pass holds those buffers yet, no
    deferred entry and no queue-depth move."""
    n, rho = buffers[0].size, plan[1]
    out = tuple(np.empty(n + rho.size, x.dtype) for x in buffers)
    for x, y, new in zip(buffers, out, (*plan, rho, rho, 0.0, -1, 0)):
        y[:n], y[n:] = x, new
    density_to_power(out[3][n:], wmap, out=out[3][n:])
    return out


def _dispatch(config: RunConfig) -> Iterator[_Chunk]:
    """Dispatch, hints, queue moves, deferrals and shed work of the run of
    ``config`` from its plan (:class:`_PlanStream`) alone, ``_CHUNK_STEPS``
    steps at a time, each with the times and load state of its steps: the
    chunks of the run without their physics.

    A hint replays the admitted queue at t + horizon and falls back to the
    half-life weighted mean of the dispatched power where the plan no longer
    covers that slot. Where the throttle fires it takes the newest entries
    out of the forecast slot (:func:`throttle_cut`). An entry taken out for
    the first time is deferred by one execution slice; that changes the
    dispatched power of two slots and so the hints that read them, all
    at least a horizon after the firing step. One that would land past the
    last step is outstanding: counted, not dispatched. An entry that was
    deferred before is shed: counted and dropped. So a slot holds its plan
    entry and at most the one entry deferred into it from a slice before,
    kept in per-step arrays beside the plan, and a run defers at most once
    per step.

    A hint may breach the cap iff the cut's own projection of it does,
    which is nondecreasing in the hint's power, so iff the power is at
    least one :func:`_split` finds once a run. A firing at step s edits
    slot s + h, which of the replayed hints only its own reads, and slot
    s + h + slice, read by the replayed hint of step s + slice (the config
    keeps h < slice). So a slot's cut depends on one bit, whether its lane
    predecessor a slice back deferred into it: a lane pass over
    ``_LANE_ROUNDS`` slices cuts every slot that may fire without that
    entry and with it in one :func:`throttle_cut`, chains the bit along
    the lanes a slice-round at a time and applies the cuts at once. EWMA
    hints read both slots from step s + h on, so for them the pass sweeps
    blocks of a horizon's steps, whose hints are then final, from each
    step that may fire, and every hint a firing retimes joins them. Either
    way it then takes the EWMA hints a firing retimes past the steps that
    can fire.

    Every edit of a firing lands after its step, so a chunk's rows are
    final once it is swept. The pass holds its step buffers (the plan,
    the dispatched density and power, and from the first hint that may
    breach the cap on the deferred entries and the queue-depth moves) from
    ``win`` steps before the chunk (the EWMA window) to as far past it as a firing
    reaches (horizon plus slice) or the queue depth reads (admission lead).
    A chunk holds views of its planned density to an admission lead past it
    and of its queue-depth moves, and the total of the moves before it: the
    depth after step lo - 1 is the streams planned over [lo, lo + lead)
    plus those moves. So the pass counts streams only in a chunk whose
    throttle fires, and :meth:`_Chunk.columns` derives the depth.
    """
    sc = config.scheduler
    wmap, thermal = config.affine_map, config.thermal
    cap, gain = sc.throttle_cap_c, sc.throttle_compensation_gain
    N, dt = config.workload.step_count, config.workload.step_period_ms
    plan = _PlanStream(config.workload, config.seed)
    h = steps_of(sc.horizon_ms, dt)
    slice_steps = steps_of(sc.t_slice_ms, dt)
    adm = steps_of(sc.admission_lead_ms, dt)
    # deferred entries join their new slot behind its plan entry only if
    # that was admitted by the time they were deferred
    plan_first = adm >= h + slice_steps
    # Past N steps a horizon, a slice, an admission lead or a window reads
    # nothing more, so cap them to keep huge configured times within array
    # sizes.
    h, adm, slice_steps = min(h, N), min(adm, N), min(slice_steps, N)
    win = min(max(1, steps_of(sc.history_window_ms, dt)), N)
    w = 0.5 ** (np.arange(win) * dt / sc.ewma_half_life_ms)
    norm = np.cumsum(w)
    reach = max(h + slice_steps, adm)
    lanes = sc.forecaster == "queue_replay"
    replay = max(0, N - h) if lanes else 0
    block = _LANE_ROUNDS * slice_steps     # steps per lane pass
    f_min = _split(lambda F: throttle_projection(F, thermal, gain) > cap)[1]
    ramp = np.arange(min(N, _CHUNK_STEPS), dtype=float)
    deferrals = outstanding_entries = shed_entries = 0
    outstanding_density = shed_density = 0.0

    # the step buffers, of steps [b, top): the plan (state, density), the
    # dispatched density and power, and from the first hint that may breach
    # the cap on, the density and streams (-1: none) of the entry deferred
    # into each step and the queue-depth moves
    floats = np.empty(0)
    bufs = (np.empty(0, dtype=np.uint8), floats, floats, floats)
    b = top = 0
    moves_before = 0    # the queue-depth moves of the steps before lo

    def ewma(s0: int, s1: int) -> None:
        """F over steps [s0, s1): the weighted mean of the trailing power
        window ending at each, ``w[d]`` weighing the power d steps back.
        Steps before the run weigh in as zero power, and the mean divides
        by the weights of the steps inside the run."""
        # each row sums the whole of w, so its bits do not depend on the
        # rows it is summed with, and chunking stays invisible
        if s0 < s1:
            pad = max(0, win - 1 - s0)
            x = np.concatenate((np.zeros(pad), P[s0 + pad - win + 1 - b:s1 - b]))
            F[s0 - lo:s1 - lo] = np.convolve(x, w, "valid") / norm[
                np.minimum(np.arange(s0, s1), win - 1)]

    def taken(own: np.ndarray, x: np.ndarray, counts: np.ndarray,
              hint: np.ndarray) -> np.ndarray:
        """How many newest entries the throttle takes out of slots of plan
        entries ``own`` and, where ``counts`` is 2, deferred ``x``."""
        entries = np.empty((own.size, 2))
        entries[:, 0] = own if plan_first else np.where(counts > 1, x, own)
        entries[:, 1] = x if plan_first else own
        return throttle_cut(entries, counts, hint, cap, thermal, gain, wmap)[0]

    def cut(s: np.ndarray, counts: np.ndarray, n_out: np.ndarray) -> None:
        """Take the ``n_out`` > 0 newest entries out of the slots of steps
        ``s`` (ascending), which hold ``counts``."""
        nonlocal pn, deferrals, shed_entries, outstanding_entries
        nonlocal shed_density, outstanding_density
        if pn is None:      # the plan's stream counts, once a chunk
            pn = stream_counts(prho)
        into_rho, into_n, moved = moves
        j = s + (h - b)
        own, n_own = prho[j], pn[j]
        # the newest entries are out: the plan entry, deferred by a slice to
        # slot m < N or else outstanding, and the deferred one, shed
        left, own_at = counts - n_out, 0 if plan_first else counts - 1
        own_out = own_at >= left
        shed = (counts > 1) & (1 - own_at >= left)
        defer = own_out & (s < N - h - slice_steps)
        out = own_out & ~defer
        # the deferrals first: a slot deferred into may be cut here too
        m = j[defer] + slice_steps
        into_rho[m], into_n[m] = own[defer], n_own[defer]
        rho[m] = prho[m] + own[defer]
        P[m] = density_to_power(rho[m], wmap)
        # what is left is the oldest entry, or nothing
        r_in, n_in = into_rho[j], into_n[j]
        rho[j] = np.where(left > 0, own if plan_first else r_in, 0.0)
        P[j] = density_to_power(rho[j], wmap)
        # deferred entries stay pending over [j, m); shed and outstanding
        # ones are not pending over (s, j)
        gone = np.where(shed, n_in, 0)
        moved[j] += np.where(own_out, n_own, 0) + gone
        moved[m] -= n_own[defer]
        moved[s + 1 - b] -= np.where(out, n_own, 0) + gone
        deferrals += int(own_out.sum())
        shed_entries += int(shed.sum())
        outstanding_entries += int(out.sum())
        # added in slot order, as the summary pins their bits
        shed_density = ordered_sum(np.append(shed_density, r_in[shed]))
        outstanding_density = ordered_sum(np.append(outstanding_density, own[out]))

    for lo in range(0, N, _CHUNK_STEPS):
        hi = min(lo + _CHUNK_STEPS, N)
        if top < min(N, hi + reach):
            grow = min(N, hi + reach) - top
            bufs = _extended(bufs, plan(top, top + grow), wmap)
            top += grow
        sidx, prho, rho, P, *moves = bufs
        pn = None

        F = np.empty(hi - lo)
        r = max(0, min(hi, replay) - lo)    # replay rows
        F[:r] = P[lo + h - b:lo + h + r - b]
        ewma(lo + r, hi)
        newest = ramp[:hi - lo] + lo    # the chunk's steps
        t_ms = newest * dt
        np.maximum(newest[:r] + (h - adm), 0.0, out=newest[:r])
        newest *= dt

        # the hints that may breach the cap, among the steps [lo, end) whose
        # hint forecasts a slot of the run
        end = max(lo, min(hi, N - h)) if sc.throttle_enabled else lo
        may = F >= f_min
        may[end - lo:] = False
        if may.any() and not moves:     # the first firing may come
            moves = [np.full(top - b, v) for v in (0.0, -1, 0)]
            bufs += tuple(moves)
        if lanes and may.any():
            into_rho, into_n, _ = moves
            for a0 in range(lo, end, block):
                n, j0 = min(block, end - a0), a0 + h - b
                f = min(n, slice_steps)     # steps in the first round
                # a slot holds its plan entry and, iff its lane predecessor
                # a slice back deferred, that one's plan entry x; in the
                # first round the pass before has deferred it or not
                own, F0 = prho[j0:j0 + n], P[j0:j0 + n]
                F[a0 - lo:a0 + n - lo] = F0
                x = np.concatenate((into_rho[j0:j0 + f], prho[
                    j0 + f - slice_steps:j0 + n - slice_steps]))
                F1 = density_to_power(own + x, wmap)
                # the first firing reads F0: its x, if any, is in the buffers
                c0, c1 = np.flatnonzero(F0 >= f_min), np.flatnonzero(F1 >= f_min)
                if not c0.size:
                    continue
                # each slot's cut without x and with it, where its hint may
                # breach the cap, and whether it defers its plan entry
                c = np.concatenate((c0, c1))
                t = np.zeros((2, n), int)
                t[0, c0], t[1, c1] = np.split(taken(
                    own[c], x[c], np.repeat((1, 2), (c0.size, c1.size)),
                    np.concatenate((F0[c0], F1[c1]))), (c0.size,))
                d = t >= ([[1], [2]] if plan_first else 1)
                # chain the bit along the lanes, a slice-round at a time
                has = into_n[j0:j0 + n] >= 0    # known in the first round
                for q in range(f, n, slice_steps):
                    p = slice(q - slice_steps, min(q, n - slice_steps))
                    has[q:q + slice_steps] = np.where(has[p], d[1, p], d[0, p])
                np.copyto(F[a0 - lo:a0 + n - lo], F1, where=has)
                t = np.where(has, t[1], t[0])
                c = np.flatnonzero(t)
                cut(a0 + c, 1 + has[c], t[c])
            ewma(end, hi)   # the EWMA hints past the steps that can fire
        elif may.any():
            # EWMA hints: from each step whose hint may breach the cap, a
            # block of a horizon's steps has final hints
            into_rho, into_n, _ = moves
            a = lo
            while a < end:
                a += int(may[a - lo:end - lo].argmax())
                if not may[a - lo]:
                    break
                k, a = a, min(a + h, end)
                ewma(k, a)
                j = slice(k + h - b, a + h - b)
                counts = 1 + (into_n[j] >= 0)
                t = taken(prho[j], into_rho[j], counts, F[k - lo:a - lo])
                c = np.flatnonzero(t)
                if c.size:
                    cut(k + c, counts[c], t[c])
                    # the hints whose window holds a changed slot
                    may[k + h - lo:a + h + slice_steps + win - lo] = True
            if may[end - lo:].any():
                ewma(end, hi)   # retimed hints of the steps that cannot fire

        at = slice(lo - b, hi - b)
        depth_moves = moves[2][at] if moves else 0
        yield _Chunk(
            lo, t_ms, sidx[at], rho[at], P[at], F, newest, r, depth_moves,
            deferrals, outstanding_density, outstanding_entries, shed_density,
            shed_entries, prho[at.start:min(hi + adm, N) - b], moves_before)
        moves_before += int(np.sum(depth_moves))
        drop = max(0, hi - win + 1) - b
        bufs = tuple(x[drop:] for x in bufs)
        b += drop


_DTYPES = {c: _ROW[c] for c in COLUMNS} | {"newest_input_ms": float, "source": int}


def _keeper(config: RunConfig, names) -> tuple[Callable, dict]:
    """A sink that copies the ``names`` columns of each chunk's
    :meth:`_Chunk.columns`, telemetry or forecast-log ones, into arrays of
    the whole run; and those arrays. ``source`` keeps its codes, as
    :class:`ForecastLog` holds them."""
    kept = {c: np.empty(config.workload.step_count, _DTYPES[c]) for c in names}

    def keep(rows: dict) -> None:
        at = slice(rows["lo"], rows["lo"] + rows["t_ms"].size)
        for c, col in kept.items():
            v = rows[c]
            if isinstance(v, tuple):    # (codes, table)
                v = v[0] if c == "source" else v[1][v[0]]
            col[at] = v
    return keep, kept


# ---------------------------------------------------------------------------
# summary

class _Summary:
    """Streaming summary of a run, fed its chunks in step order.

    Maxima and the stabilization window are exact whatever the chunking; the
    trailing window's cumulative sum carries across chunk edges. The means,
    the per-state dispatched-density means among them, sum per chunk, so
    with more than one chunk they may differ from ``np.mean`` of the whole
    column in the last bits (1e-12 relative bounds it). A trailing mean is
    in band iff its window's sum x is in [x_lo, x_hi]: x / window - cap is
    nondecreasing in x, so :func:`_split` finds both ends once a run. The
    causality audit runs per chunk. Any ``_Chunk`` is a chunk: the oracle
    feeds its whole run as one.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.window = max(1, steps_of(_STAB_WINDOW_MS,
                                      config.workload.step_period_ms))
        self.max_residual = self.max_drift = self.peak_delta = -math.inf
        self.sum_residual = self.sum_drift = 0.0
        w, cap = self.window, config.controller.residual_cap_c
        self.x_lo = _split(lambda x: x / w - cap >= -STABILIZATION_BAND_C)[1]
        self.x_hi = _split(lambda x: x / w - cap > STABILIZATION_BAND_C)[0]
        self.cum = np.zeros(1)  # cumulative residual at the last window steps
        self.done = 0           # trailing means computed so far
        self.first: int | None = None   # first trailing mean in band
        self.stays = False
        self.rho_sums = [0.0] * len(STATE_BY_NAME)    # per state
        self.rho_steps = np.zeros(len(STATE_BY_NAME), dtype=np.int64)
        self.n_checked = 0
        self.violations: list[tuple[float, float]] = []
        self.t_last = np.empty(0)   # the last issue stamp audited
        self.counters: dict | None = None   # the last chunk's, by name

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
        x = np.subtract(c[w:], c[:-w])  # the trailing windows' sums
        if self.first is None:
            inband = (x >= self.x_lo) & (x <= self.x_hi)
            hits = np.flatnonzero(inband)
            if hits.size:
                self.first = self.done + int(hits[0])
                self.stays = bool(inband[hits[0]:].all())
        elif self.stays:
            self.stays = bool(self.x_lo <= x.min() and x.max() <= self.x_hi)
        self.done += x.size
        self.cum = c[-w:]

        # the chunk's runs of one state, [starts, ends); a state whose rows
        # form one run is summed over a view of it: the values, order and
        # count of its masked copy, so its sum
        si = chunk.state_idx
        edges = np.concatenate(((0,), np.flatnonzero(si[1:] != si[:-1]) + 1,
                                (si.size,)))
        starts, ends = edges[:-1], edges[1:]
        state = si[starts]
        steps = np.bincount(state, ends - starts,
                            self.rho_steps.size).astype(np.int64)
        for i in np.flatnonzero(steps):
            run = np.flatnonzero(state == i)
            rows = chunk.rho[starts[run[0]]:ends[run[0]]] if run.size == 1 \
                else chunk.rho[si == i]
            self.rho_sums[i] += float(rows.sum())
        self.rho_steps += steps

        # the audit reads the two stamp columns alone and checks the issue
        # stamps, t_ms, for order; the last of the chunk before and the first
        # of this one carry it over the edge
        log = ForecastLog(chunk.t_ms, None, chunk.hint_w, chunk.newest_input_ms, None)
        audit = causality_audit(log, np.concatenate((self.t_last, chunk.t_ms[:1])))
        self.t_last = chunk.t_ms[-1:]
        self.n_checked += audit.n_checked
        self.violations.extend(audit.violations)
        self.counters = {c: getattr(chunk, c) for c in _COUNTERS}

    def finish(self) -> tuple[SimulationSummary, AuditReport]:
        config = self.config
        audit = AuditReport(n_checked=self.n_checked,
                            violations=tuple(self.violations))
        if self.counters is None:   # no chunk: a run of no steps
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
            audit_violations=len(audit.violations),
            **self.counters,
        )
        return summary, audit
