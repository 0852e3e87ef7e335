"""The streamed run: plan, schedule pass, physics pass and summary one chunk
at a time.

``_chunks`` is the one reader of the plan and the schedule pass.
``simulate`` copies its chunks into a frame, and the summary-only run
(``_summarize``) feeds them to the streaming summary without keeping one.
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
"""

import importlib
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from cpodrift.config import RunConfig, stabilization_config
from cpodrift.controller import ControllerParams, Mode
from cpodrift.scheduler import SchedulerConfig
from cpodrift.thermal import _SCAN_MAX_BLOCK, ThermalParams, _one_pole, _scan_block
from cpodrift.workload import BURST_SCHEDULE, WorkloadConfig, generate_workload
from test_simulate import _assert_matches_oracle, _bits

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
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "load_state":
            assert x == y
        else:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


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
    states = np.array(run.frame.load_state)
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

    planned = generate_workload(cfg.workload, cfg.seed).rho.sum()
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
    moved = run.frame.rho != generate_workload(cfg.workload, cfg.seed).rho
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
    whole, _ = _one_pole(x, pole, 1.0 - pole, 0.7)
    state, parts = 0.7, []
    for lo in range(0, x.size, 2 * _SCAN_MAX_BLOCK):
        y, state = _one_pole(x[lo:lo + 2 * _SCAN_MAX_BLOCK], pole, 1.0 - pole,
                             state)
        parts.append(y)
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("pole", [1e-300, 1e-9, 0.3995, 0.4, 0.5, 0.9,
                                  math.exp(-1.0 / 80.0), 0.999, 1.0 - 1e-12])
def test_scan_blocks_divide_the_chunk(pole):
    b = _scan_block(pole)
    assert b > 0 and b & (b - 1) == 0
    assert sim._CHUNK_STEPS % b == 0 and C % b == 0


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
