"""The streamed run: plan, schedule pass, physics pass and summary one chunk
at a time.

``_chunks`` is the one reader of the plan and the schedule pass.
``simulate`` copies its chunks into a frame, the summary-only run
(``_summarize``) feeds them to the streaming summary without keeping one,
and ``write_run`` writes them to the telemetry and forecast-log CSVs as
they come, keeping only the columns its caller names.
Here the chunk is cut to 8192 steps, so runs of C - 1, C, C + 1 and 2C + 7
steps put their edges everywhere that matters, and every run is checked
against a one-chunk run:

* the telemetry frame and the forecast log are bitwise equal, and so are
  the deferrals, shed and outstanding work;
* the summary-only summary equals ``simulate``'s field for field;
* maxima, peaks, eta and the stabilization verdict are exact whatever the
  chunking, and the verdict equals the trailing 1 s mean taken with one
  ``np.cumsum`` over the residual column. The means sum per chunk, so they
  are held to 1e-12 relative of ``np.mean`` over the whole column, the
  per-state density means included;
* planned work is dispatched, shed or outstanding.

Chunks of sizes no scan block divides, down to one step, give the one-chunk
columns too, and the physics holds one schedule chunk at a time.
"""

import importlib
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from cpodrift.config import (RunConfig, comparison_config, default_config,
                              stabilization_config)
from cpodrift.experiments import run_experiment
from cpodrift.controller import ControllerParams, Mode
from cpodrift.errors import InputError
from cpodrift.scheduler import ForecastLog, SchedulerConfig
from cpodrift.scheduler import throttle_projection
from cpodrift.thermal import _SCAN_MAX_BLOCK, ThermalParams, _one_pole, _scan_block
from cpodrift.workload import BURST_SCHEDULE, WorkloadConfig
from cpodrift import telemetry
from cpodrift.telemetry import FLOAT_FMT, write_csv
from test_simulate import (
    _assert_matches_oracle,
    _bits,
    _column_bits,
    _gain_half_cfg,
    _throttled_cfg,
)
from oracle import make_chunk, plan_oracle, simulate_oracle

# the package attribute ``simulate`` is the function, not the module
sim = importlib.import_module("cpodrift.simulate")

C = 8192
ONE_CHUNK = 1 << 40
MEANS = ("mean_residual_c", "mean_drift_nm")


# a throttle cap each forecaster's hints breach a few hundred times in 2C
# steps of bursts, short of the runaway re-deferral of a lower cap
_CAP = {"queue_replay": 4.36, "ewma": 4.2}


def _cfg(steps, mode=Mode.PREDICTIVE, forecaster="queue_replay", throttle=True,
         schedule=BURST_SCHEDULE, scheduler=None, **controller_kw):
    return RunConfig(
        seed=5,
        workload=WorkloadConfig(step_count=steps, schedule=schedule),
        scheduler=scheduler or SchedulerConfig(
            forecaster=forecaster, throttle_enabled=throttle,
            throttle_compensation_gain=0.9, throttle_cap_c=_CAP[forecaster]),
        controller=ControllerParams(mode=mode, **controller_kw),
    )


def _chunked(monkeypatch, cfg, chunk=C):
    monkeypatch.setattr(sim, "_CHUNK_STEPS", chunk)
    return sim.simulate(cfg), sim._summarize(cfg)


def _assert_frames_equal(a, b):
    for f in fields(a):
        assert _column_bits(getattr(a, f.name)) == _column_bits(getattr(b, f.name)), \
            f.name


def _assert_chunking_changes_nothing(monkeypatch, cfg):
    run, only = _chunked(monkeypatch, cfg)
    whole, _ = _chunked(monkeypatch, cfg, ONE_CHUNK)
    assert _bits(run) == _bits(whole)
    _assert_frames_equal(run.frame, whole.frame)
    for name in ("issued_at_ms", "forecast_w"):
        assert getattr(run.forecast_log, name).tobytes() == \
            getattr(whole.forecast_log, name).tobytes(), name
    assert run.audit == whole.audit and run.audit.n_checked == run.frame.n

    assert only == run.summary
    got, ref = run.summary.to_dict(), whole.summary.to_dict()
    for key in MEANS:
        assert got.pop(key) == pytest.approx(ref.pop(key), rel=1e-12, abs=0)
    by_state, ref_by_state = got.pop("mean_rho_by_state"), \
        ref.pop("mean_rho_by_state")
    assert by_state == pytest.approx(ref_by_state, rel=1e-12, abs=0)
    assert got == ref
    assert run.summary.mean_residual_c == pytest.approx(
        np.mean(run.frame.residual_c), rel=1e-12, abs=0)
    assert run.summary.mean_drift_nm == pytest.approx(
        np.mean(run.frame.drift_nm), rel=1e-12, abs=0)
    states = run.frame.load_state
    assert by_state == pytest.approx(
        {s: np.mean(run.frame.rho[states == s]) for s in set(run.frame.load_state)},
        rel=1e-12, abs=0)
    # the trailing 1 s mean of the residual, ending at each step from the
    # window's last on, and the first step it lies in the band
    dt = cfg.workload.step_period_ms
    w = max(1, round(1000.0 / dt))
    cum = np.concatenate(([0.0], np.cumsum(run.frame.residual_c)))
    inband = np.abs((cum[w:] - cum[:-w]) / w
                    - cfg.controller.residual_cap_c) <= 0.05
    hits = np.flatnonzero(inband)
    assert run.summary.stabilization_ms == (
        float((hits[0] + w) * dt) if hits.size else None)
    assert run.summary.stays_in_band == (
        hits.size > 0 and bool(inband[hits[0]:].all()))

    planned = plan_oracle(cfg.workload, cfg.seed).rho.sum()
    assert planned == pytest.approx(
        run.frame.rho.sum() + run.summary.shed_density
        + run.summary.outstanding_density, rel=1e-9)
    return run


@pytest.mark.parametrize("steps", [C - 1, C, C + 1, 2 * C + 7])
@pytest.mark.parametrize("mode", list(Mode))
def test_chunk_edges_change_no_bit(monkeypatch, steps, mode):
    _assert_chunking_changes_nothing(monkeypatch, _cfg(steps, mode))


@pytest.mark.parametrize("throttle", [True, False])
@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
@pytest.mark.parametrize("mode", list(Mode))
def test_chunk_edges_change_no_bit_for_every_forecaster(
        monkeypatch, mode, forecaster, throttle):
    run = _assert_chunking_changes_nothing(
        monkeypatch, _cfg(2 * C + 7, mode, forecaster, throttle))
    assert (run.summary.throttle_deferrals > 0) == throttle


@pytest.mark.parametrize("admission_lead_ms", [80.0, 160.0],
                         ids=["deferred_first", "plan_first"])
@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
@pytest.mark.parametrize("steps", [C - 1, C, C + 1, 2 * C + 7])
def test_schedule_pass_chunk_edges(monkeypatch, steps, forecaster,
                                   admission_lead_ms):
    # deferred entries join their new slot ahead of its plan entry, or
    # behind it once the admission lead covers horizon plus slice
    sc = SchedulerConfig(forecaster=forecaster, throttle_compensation_gain=0.9,
                         throttle_cap_c=_CAP[forecaster],
                         admission_lead_ms=admission_lead_ms)
    run = _assert_chunking_changes_nothing(monkeypatch, _cfg(steps, scheduler=sc))
    assert run.summary.throttle_deferrals > 0


@pytest.mark.parametrize("admission_lead_ms", [80.0, 160.0])
@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
def test_throttle_work_straddles_a_chunk_edge(monkeypatch, forecaster,
                                              admission_lead_ms):
    # a weak compensation credit and a cap only Peak breaches; Peak starts
    # 292 steps before the edge and the run ends 60 steps after it, so
    # firings, the slots they move work into, the work they shed, the EWMA
    # windows they retime and the work they push past the last step all lie
    # on both sides
    sc = SchedulerConfig(forecaster=forecaster, throttle_compensation_gain=0.5,
                         throttle_cap_c=20.0, admission_lead_ms=admission_lead_ms)
    cfg = _cfg(C + 60, schedule=(("Low", 7900.0), ("Peak", 600.0)), scheduler=sc)
    run = _assert_chunking_changes_nothing(monkeypatch, cfg)
    assert run.summary.outstanding_entries > 0
    # the replayed hint sees the entries deferred into a slot and sheds
    # them; the trailing mean lets them through
    assert (run.summary.shed_entries > 0) == (forecaster == "queue_replay")
    moved = run.frame.rho != plan_oracle(cfg.workload, cfg.seed).rho
    assert moved[C - 300:C].any() and moved[C:].any()
    _assert_matches_oracle(cfg)


def test_reactive_delay_line_longer_than_a_chunk(monkeypatch):
    # 9000 readings in flight: the line spans a whole chunk edge
    cfg = _cfg(2 * C + 7, Mode.REACTIVE, sensor_latency_ms=9000.0)
    _assert_chunking_changes_nothing(monkeypatch, cfg)
    _assert_matches_oracle(cfg)


def test_predictive_warm_up_past_a_chunk_edge(monkeypatch):
    # an 8200-step horizon: the warm-up blend runs past the first edge and
    # the replica's own scan grid starts 8 steps into the second chunk
    sc = SchedulerConfig(horizon_ms=8200.0, horizon_max_ms=1e4, t_slice_ms=2e4,
                         admission_lead_ms=1e4)
    cfg = _cfg(2 * C + 7, Mode.PREDICTIVE, scheduler=sc)
    run = _assert_chunking_changes_nothing(monkeypatch, cfg)
    assert run.frame.n > 8200 + 1 > C
    _assert_matches_oracle(cfg)


def test_stabilization_window_across_a_chunk_edge(monkeypatch):
    # idle, with the plant's zero at idle power, until just before the edge:
    # the trailing 1 s mean enters the band with its window straddling the
    # first edge, and stays there
    cfg = replace(_cfg(2 * C + 7, schedule=(("Idle", 7800.0), ("Peak", 1e6))),
                  thermal=ThermalParams(p_baseline_w=12.0))
    run = _assert_chunking_changes_nothing(monkeypatch, cfg)
    stab = run.summary.stabilization_ms
    assert stab is not None and stab - 1000.0 < C < stab
    assert run.summary.stays_in_band


@pytest.mark.parametrize("mode", list(Mode))
def test_chunked_run_matches_the_oracle(monkeypatch, mode):
    # the reactive delay line and the predictive replica's lead window both
    # cross the edge at step C
    monkeypatch.setattr(sim, "_CHUNK_STEPS", C)
    run = _assert_matches_oracle(_cfg(C + 1, mode))
    assert run.summary.throttle_deferrals > 0


@pytest.mark.parametrize("pole", [math.exp(-1.0 / 80.0), 0.4, 0.5, 0.999])
def test_scan_in_pieces_equals_one_scan(pole):
    x = np.random.default_rng(8).normal(size=5 * _SCAN_MAX_BLOCK + 11)
    b = _scan_block(pole)
    # the scan's own (x - offset) * scale gives the scan of the scaled x
    for scaled in ((), (0.451, 12.0)):
        u = scaled[0] * (x - scaled[1]) if scaled else x
        whole, _ = _one_pole(u, pole, 1.0 - pole, 0.7)
        for cut in (x.size, 2 * _SCAN_MAX_BLOCK, 1, 7, b - 1, b + 1, 12345):
            # one step at a time, up to two block edges: each call scans its
            # open block again
            n = 2 * b + 3 if cut == 1 else x.size
            carry, parts = 0.7, []
            for lo in range(0, n, cut):
                y, carry = _one_pole(x[lo:min(n, lo + cut)], pole, 1.0 - pole,
                                     carry, *scaled)
                parts.append(y)
            assert np.concatenate(parts).tobytes() == whole[:n].tobytes(), \
                (cut, scaled)


@pytest.mark.parametrize("pole", [1e-300, 1e-9, 0.3995, 0.4, 0.5, 0.9,
                                  math.exp(-1.0 / 80.0), 0.999, 1.0 - 1e-12])
def test_scan_blocks_divide_the_chunk(pole):
    # powers of two, which every golden's rounding depends on; a chunk need
    # not be a multiple of one, since the scan carries its open block
    b = _scan_block(pole)
    assert b > 0 and b & (b - 1) == 0


# chunk sizes that no scan block divides, down to a few steps
_CUTS = (5, 1000, 4097, 8191, 12345)
_BURSTS = 20007


def _any_cut_cases():
    for forecaster in ("queue_replay", "ewma"):
        for mode in Mode:
            for cut in _CUTS:
                yield pytest.param(_cfg(_BURSTS, mode, forecaster), cut,
                                   id=f"{mode.value}-{forecaster}-{cut}")
    for mode in Mode:
        for cut in (1, 7, 64):
            yield pytest.param(_cfg(300, mode), cut, id=f"{mode.value}-300-{cut}")
    # a window past the run: each hint sums a prefix of it, whichever chunk
    # ends at the hint's step
    past = _cfg(300, scheduler=SchedulerConfig(
        forecaster="ewma", history_window_ms=1e6, throttle_cap_c=_CAP["ewma"],
        throttle_compensation_gain=0.9))
    for cut in (2, 6, 8):
        yield pytest.param(past, cut, id=f"window_past_the_run-{cut}")
    # a short plant block (1024 steps), a delay line past a block and a
    # chunk, a half-millisecond step, and 9 s EWMA windows: 9,000 hints in
    # the run's partial-window prefix, and windows across every edge
    for name, cfg in (
            *((f"window9s-{forecaster}", _cfg(_BURSTS, scheduler=SchedulerConfig(
                forecaster=forecaster, history_window_ms=9000.0,
                throttle_compensation_gain=0.9, throttle_cap_c=_CAP[forecaster])))
              for forecaster in ("queue_replay", "ewma")),
            ("tau3", replace(_cfg(_BURSTS), thermal=ThermalParams(tau_ms=3.0))),
            ("lag5000", _cfg(_BURSTS, Mode.REACTIVE, sensor_latency_ms=5000.0)),
            ("dt0.5", replace(_cfg(_BURSTS), workload=WorkloadConfig(
                step_count=_BURSTS, schedule=BURST_SCHEDULE, step_period_ms=0.5)))):
        for cut in _CUTS:
            yield pytest.param(cfg, cut, id=f"{name}-{cut}")


def _column_digests(run):
    """The dtype and sha256 of each telemetry and forecast-log column."""
    return {f"{part}.{name}": _column_bits(getattr(getattr(run, part), name))
            for part, names in (("frame", telemetry.COLUMNS),
                                ("forecast_log", ForecastLog._fields))
            for name in names}


_ONE_CHUNK_DIGESTS = {}     # config -> the column digests of its one-chunk run


@pytest.mark.parametrize("cfg, cut", list(_any_cut_cases()))
def test_any_chunk_size_gives_the_one_chunk_bits(monkeypatch, cfg, cut):
    if cfg not in _ONE_CHUNK_DIGESTS:
        monkeypatch.setattr(sim, "_CHUNK_STEPS", ONE_CHUNK)
        _ONE_CHUNK_DIGESTS[cfg] = _column_digests(sim.simulate(cfg))
    monkeypatch.setattr(sim, "_CHUNK_STEPS", cut)
    assert _column_digests(sim.simulate(cfg)) == _ONE_CHUNK_DIGESTS[cfg]


@pytest.mark.parametrize("lead", [80.0, 150.0])
@pytest.mark.parametrize("gain", [0.8, 0.9])
@pytest.mark.parametrize("seed", [24, 1018])
def test_dense_firing_replay_runs_give_the_one_chunk_bits(monkeypatch, seed, gain,
                                                          lead):
    # the burst cycle that the throttle cuts at Peak, to its first two Peak
    # holds: the throttle fires in most of their slots and chains deferrals
    # along the slice lanes, the plan entry first in the queue (lead 150) or
    # the deferred one (lead 80); chunk edges cut the lanes anywhere
    cfg = comparison_config(seed)
    cfg = replace(cfg, workload=replace(cfg.workload, step_count=5000),
                  scheduler=replace(cfg.scheduler, throttle_compensation_gain=gain,
                                    admission_lead_ms=lead))
    monkeypatch.setattr(sim, "_CHUNK_STEPS", ONE_CHUNK)
    whole = sim.simulate(cfg)
    assert whole.summary.throttle_deferrals > 400
    slice_steps = round(cfg.scheduler.t_slice_ms / cfg.workload.step_period_ms)
    for cut in (slice_steps - 1, slice_steps, slice_steps + 1, 1000):
        monkeypatch.setattr(sim, "_CHUNK_STEPS", cut)
        run = sim.simulate(cfg)
        assert _column_digests(run) == _column_digests(whole), cut
        assert _bits(run) == _bits(whole), cut
    _assert_matches_oracle(cfg)


def test_the_physics_holds_one_schedule_chunk(monkeypatch):
    # the schedule pass runs in lockstep with the physics, not a chunk ahead
    dispatched = []
    dispatch = sim._dispatch

    def counted(config):
        for chunk in dispatch(config):
            dispatched.append(chunk.lo)
            yield chunk

    monkeypatch.setattr(sim, "_dispatch", counted)
    monkeypatch.setattr(sim, "_CHUNK_STEPS", C)
    assert next(sim._chunks(_cfg(2 * C + 7))).lo == 0
    assert dispatched == [0]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [
    lambda steps: replace(stabilization_config(), workload=replace(
        stabilization_config().workload, step_count=steps)),
    lambda steps: _cfg(steps, Mode.REACTIVE, "ewma", throttle=False),
], ids=["stabilization", "bursts"])
def test_summary_only_memory_does_not_grow_with_the_run(make):
    c = sim._CHUNK_STEPS
    short = _traced_peak(sim._summarize, make(4 * c))
    long = _traced_peak(sim._summarize, make(16 * c))
    assert long <= 1.05 * short, (short, long)


def test_validation90k_memory_grows_by_at_most_40_bytes_a_step(tmp_path):
    # the experiment keeps its two fit columns (16 B a step) and streams the
    # rest: its CSVs are written chunk by chunk, no frame is kept
    def peak(steps):
        cfg = default_config()
        cfg = replace(cfg, workload=replace(cfg.workload, step_count=steps))
        return _traced_peak(lambda: run_experiment(
            "validation90k", config=cfg, out_dir=tmp_path / str(steps)))

    short, long = peak(20_000), peak(60_000)
    assert (long - short) / 40_000 <= 40, (short, long)


@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
@pytest.mark.parametrize("chunk, steps", [
    (C, C - 1), (C, C), (C, C + 1),
    (C, 2 * C + 7),     # no multiple of the writer's 4,096 rows
    (5000, 12_345),     # chunks the writer's 4,096 rows do not divide
])
def test_streamed_csvs_equal_the_whole_frame_written(monkeypatch, tmp_path,
                                                    forecaster, chunk, steps):
    monkeypatch.setattr(sim, "_CHUNK_STEPS", chunk)
    cfg = _cfg(steps, forecaster=forecaster)
    run = sim.simulate(cfg)
    write_csv(run.frame, tmp_path / "t.csv")
    run.forecast_log.write_csv(tmp_path / "f.csv")
    run_experiment("validation90k", config=cfg, out_dir=tmp_path)
    for ours, whole in (("telemetry", "t"), ("forecast_log", "f")):
        assert (tmp_path / f"validation90k_{ours}.csv").read_bytes() == \
            (tmp_path / f"{whole}.csv").read_bytes(), ours
    summary, audit, kept = sim.write_run(
        cfg, tmp_path / "t2.csv", tmp_path / "f2.csv", ("rho", "t24", "source"))
    assert summary == run.summary and audit == run.audit
    for c, col in kept.items():
        whole = run.forecast_log.source if c == "source" else getattr(run.frame, c)
        assert _column_bits(col) == _column_bits(whole), c


def _default_cfg(steps):
    cfg = default_config(24)
    return replace(cfg, workload=replace(cfg.workload, step_count=steps))


# each run with the hint sources its log names and its largest queue depth:
# both source names and one, a one-value ttft_ms table (a one-step run is
# the one whose queue depth is 0 on every step), and step counts across the
# writer's 4,096 rows and the run's chunk of 16,384 steps
@pytest.mark.parametrize("cfg, sources, max_depth", [
    (_throttled_cfg(), [0, 1], 578),
    (_gain_half_cfg(10_000), [0, 1], 393),
    (_throttled_cfg(forecaster="ewma"), [1], 440),
    (_default_cfg(1), [1], 0),
    (_default_cfg(4_097), [0, 1], 80),
    (_default_cfg(16_385), [0, 1], 259),
], ids=["throttled_cfg", "gain_half_10k", "ewma", "steps1", "steps4097",
        "steps16385"])
def test_write_run_writes_the_whole_run_files(tmp_path, cfg, sources, max_depth):
    run = sim.simulate(cfg)
    assert np.unique(run.forecast_log.source).tolist() == sources
    assert run.frame.queue_depth.max() == max_depth
    write_csv(run.frame, tmp_path / "t.csv")
    run.forecast_log.write_csv(tmp_path / "f.csv")
    sim.write_run(cfg, tmp_path / "t2.csv", tmp_path / "f2.csv")
    for whole, streamed in (("t.csv", "t2.csv"), ("f.csv", "f2.csv")):
        assert (tmp_path / streamed).read_bytes() == \
            (tmp_path / whole).read_bytes(), whole


def test_write_run_formats_each_distinct_float_once(monkeypatch, tmp_path):
    # 9 float columns of the telemetry and newest_input_ms of the log are
    # cells; eta, ttft_ms and horizon_ms come from tables, and t_ms and
    # hint_w are formatted once for both files (a cell each would be 15)
    cfg = _default_cfg(20_000)
    formatted = []
    band = telemetry._BANDS[FLOAT_FMT]
    monkeypatch.setitem(telemetry._BANDS, FLOAT_FMT,
                        lambda x: formatted.append(np.size(x)) or band(x))
    sim.write_run(cfg, tmp_path / "t.csv", tmp_path / "f.csv")
    N, c = cfg.workload.step_count, sim._CHUNK_STEPS
    depth = sim.simulate(cfg).frame.queue_depth
    tables = sum(2 + np.unique(depth[lo:lo + c]).size for lo in range(0, N, c))
    assert sum(formatted) <= 10 * N + tables


def test_a_huge_step_count_streams():
    # a trillion steps of 2 and 3 ms holds: the first chunk needs no
    # step-sized array, no tiled schedule and no plan of the whole run
    c = sim._CHUNK_STEPS
    cfg = _cfg(10**12, schedule=(("Low", 3.0), ("Peak", 2.0)), throttle=False)

    def first_chunk():
        chunk = next(sim._chunks(cfg))
        sim._Summary(cfg).add(chunk)
        return chunk

    peak = _traced_peak(first_chunk)
    assert peak < 40 * 8 * c, peak
    chunk = first_chunk()
    assert chunk.lo == 0 and chunk.t_ms.size == c
    assert chunk.state_idx.tolist() == ([1, 1, 1, 4, 4] * c)[:c]


def _stamped_chunk(cfg, lo, t_ms):
    """A hand-built chunk of quiet steps issued at ``t_ms``, each hint
    reading the millisecond before its issue."""
    t = np.array(t_ms, dtype=float)
    return make_chunk(cfg, lo, np.zeros(t.size, np.uint8), np.zeros(t.size),
                      t_ms=t, newest_input_ms=t - 1.0, n_replay=t.size)


@pytest.mark.parametrize("second, error", [
    ([1.5, 3.0, 4.0], "power trace is not sorted"),     # back across the edge
    ([2.0, 4.0, 3.0], "forecast trace is not sorted"),  # back within the chunk
    ([2.0, 3.0, 4.0], None),
])
def test_the_audit_checks_stamp_order_across_a_chunk_edge(second, error):
    cfg = _default_cfg(6)
    stats = sim._Summary(cfg)
    stats.add(_stamped_chunk(cfg, 0, [0.0, 1.0, 2.0]))
    if error is None:
        stats.add(_stamped_chunk(cfg, 3, second))
        assert stats.n_checked == 6 and not stats.violations
    else:
        with pytest.raises(InputError, match=error):
            stats.add(_stamped_chunk(cfg, 3, second))


@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
def test_the_columns_of_hand_built_chunks_are_the_oracle_run(forecaster):
    # make_chunk fills every field as the schedule pass does, so columns()
    # of its chunks of a throttled oracle run, whole or cut at step 400
    # with the moves before the cut carried, give that run's queue depth,
    # ttft, sources, states and throughput
    cfg = _throttled_cfg(forecaster=forecaster)
    ref = simulate_oracle(cfg)
    assert ref.summary.throttle_deferrals > 0
    frame, source = ref.frame, ref.forecast_log.source
    state_idx = plan_oracle(cfg.workload, cfg.seed).state_idx
    n = cfg.workload.step_count
    before = 0
    for lo, hi in ((0, n), (0, 400), (400, n)):
        chunk = make_chunk(cfg, lo, state_idx[lo:hi], frame.rho[lo:hi],
                           frame.queue_depth[lo:hi], before if lo else 0,
                           n_replay=int((source[lo:hi] == 0).sum()))
        if hi == 400:   # the moves the cut carries
            before = int(np.sum(chunk.depth_moves))
            assert before != 0
        cols = chunk.columns(cfg)
        assert np.array_equal(cols["step"], np.arange(lo, hi))
        assert np.array_equal(cols["queue_depth"], frame.queue_depth[lo:hi])
        for name, want in (("ttft_ms", frame.ttft_ms), ("eta", frame.eta),
                           ("load_state", frame.load_state)):
            codes, table = cols[name]
            assert np.array_equal(table[codes], want[lo:hi]), name
        assert np.array_equal(cols["source"][0], source[lo:hi])
        np.testing.assert_allclose(cols["t24"], frame.t24[lo:hi], rtol=1e-12)


def test_only_the_writers_derive_the_queue_depth_and_the_sources(monkeypatch):
    # the queue depth (an integer prefix sum) and the source codes are read
    # by the writers and the keeper alone: the summary-only run derives
    # neither, and simulate each once a chunk. Every hint is an EWMA one,
    # so a source array is the one integer array of ones
    cfg = _cfg(3 * C - 5, forecaster="ewma")
    made = []
    cumsum, zeros = np.cumsum, np.zeros

    def counted_cumsum(a, *args, **kw):
        made.append(("cumsum", np.asarray(a)))
        return cumsum(a, *args, **kw)

    def counted_zeros(*args, **kw):
        made.append(("zeros", zeros(*args, **kw)))
        return made[-1][1]

    def derived(run):
        made.clear()
        run(cfg)
        steps = [(f, x) for f, x in made if x.dtype.kind == "i" and x.size > 100]
        return (sum(f == "cumsum" for f, _ in steps),
                sum(f == "zeros" and bool(x.all()) for f, x in steps))

    monkeypatch.setattr(sim, "_CHUNK_STEPS", C)
    monkeypatch.setattr(np, "cumsum", counted_cumsum)
    monkeypatch.setattr(np, "zeros", counted_zeros)
    assert derived(sim._summarize) == (0, 0)
    assert derived(sim.simulate) == (3, 3)


def test_only_the_writers_and_the_cut_count_streams(monkeypatch):
    # the stream counts feed the queue depth, which the writers and the
    # keeper read, and the entries a firing defers: a run whose throttle
    # sweeps no block counts none for its summary, and simulate once a chunk
    cfg = _cfg(3 * C - 5, scheduler=SchedulerConfig())
    calls = []
    counts = sim.stream_counts

    def counted(rho):
        calls.append(rho.size)
        return counts(rho)

    def cut(*args, **kw):
        raise AssertionError("the throttle swept a block")

    monkeypatch.setattr(sim, "_CHUNK_STEPS", C)
    monkeypatch.setattr(sim, "stream_counts", counted)
    monkeypatch.setattr(sim, "throttle_cut", cut)
    sim._summarize(cfg)
    assert calls == []
    sim.simulate(cfg)
    assert len(calls) == 3


def _band_edge_cases(n=70):
    """Throttle and summary settings from one seed: compensation gains in
    [0, 1] with both ends, caps from 1e-300 to 1e6, baselines from 0 to 1e8,
    residual caps and step periods."""
    rng = np.random.default_rng(35)
    gains = [0.0, 1.0, 1.0 - 2.0 ** -53, 0.95] + rng.uniform(0, 1, n).tolist()
    return [pytest.param(gains[i], float(10.0 ** rng.uniform(-300, 6)),
                         0.0 if i % 4 == 0 else float(rng.uniform(0, 1e8)),
                         float(10.0 ** rng.uniform(-1.4, 6)),
                         float(rng.choice([0.5, 1.0, 2.0, 2.5, 5.0])), id=str(i))
            for i in range(n)]


def _probes(edges, rng):
    """Floats about each edge: it, its neighbours, the signed zeros, the
    infinities, NaN, the least subnormal, floats near the edge and floats of
    any bit pattern."""
    edges = np.array([e for e in edges if np.isfinite(e)], dtype=float)
    near = [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            np.outer(edges, rng.uniform(0.999, 1.001, 20)).ravel()]
    wide = rng.integers(0, 2 ** 64, 200, dtype=np.uint64, endpoint=False)
    return np.concatenate(near + [[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                   -5e-324], wide.view(float)])


@pytest.mark.parametrize("gain, cap, baseline, residual_cap, step_ms",
                         _band_edge_cases())
def test_thresholds_give_the_elementwise_tests(monkeypatch, gain, cap, baseline,
                                               residual_cap, step_ms):
    # the throttle screen, projection(F) > cap, is F >= f_min, and a
    # trailing mean in band, |x / window - cap| <= band, is
    # x_lo <= x <= x_hi for its window's sum x, for every float F and x
    cfg = RunConfig(
        seed=1,
        workload=WorkloadConfig(step_count=100, step_period_ms=step_ms),
        thermal=ThermalParams(p_baseline_w=baseline),
        scheduler=SchedulerConfig(throttle_compensation_gain=gain,
                                  throttle_cap_c=cap),
        controller=ControllerParams(residual_cap_c=residual_cap))
    found, split = [], sim._split
    monkeypatch.setattr(sim, "_split", lambda t: found.append(split(t)) or found[-1])
    next(sim._dispatch(cfg))
    (_, f_min), = found
    stats = sim._Summary(cfg)
    rng = np.random.default_rng(int(gain * 1e6))
    F = _probes([f_min], rng)
    x = _probes([stats.x_lo, stats.x_hi], rng)
    with np.errstate(all="ignore"):     # far floats overflow, NaNs signal
        screened = throttle_projection(F, cfg.thermal, gain) > cap
        trailing = x / stats.window
        trailing -= residual_cap
    inband = np.abs(trailing) <= sim.STABILIZATION_BAND_C
    assert np.array_equal(F >= f_min, screened)
    assert np.array_equal((x >= stats.x_lo) & (x <= stats.x_hi), inband)
    assert inband.any() and not screened[np.isnan(F)].any()


@pytest.mark.parametrize("shift, stays", [(0.0, True), (1.0, False), (-1.0, False)])
def test_the_verdict_leaves_the_band_above_or_below_after_a_chunk_edge(shift, stays):
    # the first chunk's last trailing mean is the cap, in band; the next
    # chunk keeps it there, or takes it out above or below
    cfg = _default_cfg(3000)
    cap = cfg.controller.residual_cap_c
    stats = sim._Summary(cfg)
    for lo, r in ((0, cap), (1000, cap + shift), (2000, cap + shift)):
        t = np.arange(lo, lo + 1000, dtype=float)
        stats.add(_stamped_chunk(cfg, lo, t)._replace(residual_c=np.full(1000, r)))
    assert stats.first == 0 and stats.stays is stays
