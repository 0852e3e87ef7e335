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
  only its step's forecast slot and the slot a slice on, so from each step
  whose hint may breach the throttle cap the pass sweeps a block of a
  slice's steps (a horizon's for EWMA hints), whose hints are then final,
  and applies the throttle's LIFO cut (:func:`throttle_cut`) to all the
  slots they forecast at once. An entry is deferred at most once, so a
  slot holds at most two entries. A chunk is final once swept; the pass
  reads the plan as far ahead as a firing or the queue depth reaches and
  keeps the power of the EWMA window behind the chunk.
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
    depth_moves: np.ndarray | int    # queue-depth moves; 0 before any block
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


_ONE_TO_255 = np.arange(1, 256, dtype=np.uint64)   # a bisection round's probes


def _split(passes: Callable) -> tuple[float, float]:
    """The last float that fails ``passes`` and the first that passes it,
    NaN for a side with none, so ``x <= last`` and ``x >= first`` are its
    sides bit for bit: for a test of float arrays that NaN fails and the
    floats, -inf to +inf, fail up to one and pass from the next, as a
    comparison of IEEE operations each nondecreasing in x does (each rounds
    a nondecreasing exact result). Bisection, 255 floats a round, over the
    floats in order as unsigned integers: a float's bits with the sign bit
    set, or all flipped if it was set."""
    def floats(u: np.ndarray) -> np.ndarray:
        return np.where(u >> 63, u ^ np.uint64(1 << 63), ~u).view(float)

    # the NaNs beside -inf and +inf: a side with no float ends there
    lo, hi = 0x000F_FFFF_FFFF_FFFE, 0xFFF0_0000_0000_0001
    with np.errstate(all="ignore"):     # a float far out overflows the test
        while hi - lo > 1:
            u = _ONE_TO_255[:hi - lo - 1] * np.uint64(max(1, (hi - lo) >> 8))
            u += np.uint64(lo)
            # the floats that fail come first: u[i] is the first that passes
            i = u.size - int(np.count_nonzero(passes(floats(u))))
            lo, hi = int(u[i - 1]) if i else lo, int(u[i]) if i < u.size else hi
    return tuple(floats(np.array([lo, hi], np.uint64)).tolist())


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

    The throttle sweeps a chunk in blocks from each step whose hint may
    breach the cap to the next: the cut's own projection of the chunk's
    hints picks them, and every hint a firing retimes joins them. A firing
    at step s edits slot s + h, which of the replayed hints only its own
    reads, and slot s + h + slice, read by the replayed hint of step
    s + slice (the config keeps h < slice); EWMA hints read both from step
    s + h on. So a block of a slice's steps for replayed hints, a
    horizon's for EWMA ones, has final hints: the pass reads them again
    from the final power and cuts their slots together, and takes the
    EWMA hints a firing retimes past the steps that can fire again once
    the chunk is swept. A hint may breach the cap iff the cut's own
    projection of it does, which is nondecreasing in the hint's power, so
    iff the power is at least one :func:`_split` finds once a run.

    Every edit of a firing lands after its step, so a chunk's rows are
    final once it is swept. The pass holds its step buffers (the plan,
    the dispatched density and power, and from the first block it sweeps
    on the deferred entries and the queue-depth moves) from ``win`` steps
    before the chunk (the EWMA window) to as far past it as a firing
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
    replay = max(0, N - h) if sc.forecaster == "queue_replay" else 0
    span = h if sc.forecaster == "ewma" else slice_steps    # steps per block
    f_min = _split(lambda F: throttle_projection(F, thermal, gain) > cap)[1]
    ramp = np.arange(min(N, _CHUNK_STEPS), dtype=float)
    deferrals = outstanding_entries = shed_entries = 0
    outstanding_density = shed_density = 0.0

    # the step buffers, of steps [b, top): the plan (state, density), the
    # dispatched density and power, and from the first block swept on, the
    # density and streams (-1: none) of the entry deferred into each step
    # and the queue-depth moves
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
        # hint forecasts a slot of the run, and later each hint a firing
        # retimes
        end = max(lo, min(hi, N - h)) if sc.throttle_enabled else lo
        may = F >= f_min
        may[end - lo:] = False
        a = lo
        while a < end:
            a += int(may[a - lo:end - lo].argmax())
            if not may[a - lo]:
                break
            # the block, steps [k, a): its hints are final, as no firing
            # before k edits a slot they read and none in the block a slot
            # another of its hints reads; so are its slots, [k + h, a + h)
            k, a = a, min(a + span, end)
            if not moves:   # the first block: no entry deferred yet
                moves = [np.full(top - b, v) for v in (0.0, -1, 0)]
                bufs += tuple(moves)
            into_rho, into_n, moved = moves
            r1 = max(k, min(a, replay))     # replay rows [k, r1)
            F[k - lo:r1 - lo] = P[k + h - b:r1 + h - b]
            ewma(r1, a)
            j = slice(k + h - b, a + h - b)
            own, r_in, n_in = prho[j], into_rho[j], into_n[j]
            # each slot's entries in queue order: the plan entry, and the
            # entry deferred into it if any
            counts = 1 + (n_in >= 0)
            entries = np.empty((a - k, 2))
            entries[:, 0] = own if plan_first else np.where(counts > 1, r_in, own)
            entries[:, 1] = r_in if plan_first else own
            taken = throttle_cut(entries, counts, F[k - lo:a - lo], cap, thermal,
                                 gain, wmap)[0]
            if not taken.any():
                continue
            if pn is None:      # the plan's stream counts, once a chunk
                pn = stream_counts(prho)
            n_own = pn[j]
            # what is left is the oldest entry, or nothing
            left = counts - taken
            np.copyto(rho[j], np.where(left > 0, entries[:, 0], 0.0),
                      where=taken > 0)
            np.copyto(P[j], density_to_power(rho[j], wmap), where=taken > 0)
            # the newest entries are out: the plan entry, deferred by a
            # slice to step m < N or else outstanding, and the deferred one,
            # shed; the first nd of the block's slots have an m
            own_at = 0 if plan_first else counts - 1
            own_out = own_at >= left
            shed = (counts > 1) & (1 - own_at >= left)
            m0, nd = k + h + slice_steps, max(0, min(a, N - h - slice_steps) - k)
            defer, out = own_out[:nd], own_out.copy()
            out[:nd] = False
            m = slice(m0 - b, m0 + nd - b)
            np.copyto(into_rho[m], own[:nd], where=defer)
            np.copyto(into_n[m], n_own[:nd], where=defer)
            np.copyto(rho[m], prho[m] + own[:nd], where=defer)
            np.copyto(P[m], density_to_power(rho[m], wmap), where=defer)
            # deferred entries stay pending over [j, m); shed and
            # outstanding ones are not pending over (k, j)
            gone = np.where(shed, n_in, 0)
            moved[j] += np.where(own_out, n_own, 0) + gone
            moved[m] -= np.where(defer, n_own[:nd], 0)
            moved[k + 1 - b:a + 1 - b] -= np.where(out, n_own, 0) + gone
            deferrals += int(own_out.sum())
            shed_entries += int(shed.sum())
            outstanding_entries += int(out.sum())
            for x in r_in[shed].tolist():
                shed_density += x
            for x in own[out].tolist():
                outstanding_density += x
            # the hints of this chunk that read a changed slot: the replay
            # hints of the slots deferred into, and the EWMA hints of the
            # window from each changed slot; later ones are read when their
            # chunk starts
            t = k + slice_steps
            nr = max(0, min(nd, replay - t, hi - t))
            may[t - lo:t + nr - lo] |= defer[:nr]
            may[max(k + h, replay) - lo:m0 + nd + win - lo] = True
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
