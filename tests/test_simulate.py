import filecmp
import hashlib
import importlib
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cpodrift.config import RunConfig, comparison_config, default_config
from cpodrift.controller import ControllerParams, Mode
from cpodrift.errors import ConfigError
from cpodrift.scheduler import ForecastLog, SchedulerConfig, throttle_cut
from cpodrift.simulate import simulate
from cpodrift.telemetry import TelemetryFrame, write_csv
from cpodrift.thermal import ThermalParams, _one_pole, _scan_block, gamma_of_distance
from cpodrift.workload import BURST_SCHEDULE, WorkloadConfig, generate_workload
from oracle import simulate_oracle

# the package attribute ``simulate`` is the function, not the module
sim = importlib.import_module("cpodrift.simulate")


def _small_cfg(mode=Mode.PREDICTIVE, steps=3000, seed=7, **controller_kw):
    return RunConfig(
        seed=seed,
        workload=WorkloadConfig(step_count=steps, schedule=BURST_SCHEDULE),
        controller=ControllerParams(mode=mode, **controller_kw),
    )


# Bursts at Peak with a weak compensation credit: the throttle fires, sheds
# what it had deferred once already and leaves work past the last step
# outstanding.
THROTTLE_SCHEDULE = (("Low", 150), ("Peak", 300), ("Low", 150), ("Peak", 150))


def _throttled_cfg(mode=Mode.PREDICTIVE, steps=1200, step_ms=1.0, **scheduler_kw):
    return RunConfig(
        seed=7,
        workload=WorkloadConfig(step_count=steps, step_period_ms=step_ms,
                                schedule=THROTTLE_SCHEDULE),
        scheduler=SchedulerConfig(throttle_compensation_gain=0.9, **scheduler_kw),
        controller=ControllerParams(mode=mode),
    )


EQUIV_COLS = ("rho", "t24", "p_eic_w", "eta", "delta_t_c", "bias_c",
              "residual_c", "drift_nm", "ttft_ms")


def _assert_matches_oracle(cfg, col_tol=1e-12):
    """simulate() against the per-step oracle: floats within tolerance,
    integer and categorical outputs exactly."""
    run, ref = simulate(cfg), simulate_oracle(cfg)
    for col in EQUIV_COLS:
        a, b = getattr(run.frame, col), getattr(ref.frame, col)
        assert np.max(np.abs(a - b)) < col_tol, col
    np.testing.assert_allclose(run.frame.hint_w, ref.frame.hint_w, atol=1e-9)
    np.testing.assert_allclose(run.forecast_log.forecast_w,
                               ref.forecast_log.forecast_w, atol=1e-9)
    assert run.summary.throttle_deferrals == ref.summary.throttle_deferrals
    assert run.summary.outstanding_entries == ref.summary.outstanding_entries
    assert run.summary.outstanding_density == pytest.approx(
        ref.summary.outstanding_density, rel=1e-9, abs=1e-9)
    assert run.summary.shed_entries == ref.summary.shed_entries
    assert run.summary.shed_density == pytest.approx(
        ref.summary.shed_density, rel=1e-9, abs=1e-9)
    assert np.array_equal(run.frame.queue_depth, ref.frame.queue_depth)
    assert run.frame.load_state == ref.frame.load_state
    np.testing.assert_array_equal(run.forecast_log.newest_input_ms,
                                  ref.forecast_log.newest_input_ms)
    np.testing.assert_array_equal(run.forecast_log.source,
                                  ref.forecast_log.source)
    return run


@pytest.mark.parametrize("mode", [Mode.PREDICTIVE, Mode.REACTIVE, Mode.OPEN_LOOP])
def test_vector_matches_reference_engine(mode):
    run = _assert_matches_oracle(_small_cfg(mode))
    assert run.summary.throttle_deferrals == 0


def test_engines_match_at_coarser_step():
    cfg = _small_cfg(steps=1200)
    cfg = replace(cfg, workload=replace(cfg.workload, step_count=1200,
                                        step_period_ms=5.0))
    _assert_matches_oracle(cfg)


@pytest.mark.parametrize("horizon", [20.0, 50.0])
def test_engines_match_across_horizons(horizon):
    cfg = _small_cfg(steps=2000)
    cfg = replace(cfg, scheduler=SchedulerConfig(horizon_ms=horizon))
    _assert_matches_oracle(cfg)


def test_engines_match_with_ewma_forecaster():
    cfg = _small_cfg(steps=1500)
    cfg = replace(cfg, scheduler=SchedulerConfig(forecaster="ewma"))
    run = _assert_matches_oracle(cfg, col_tol=1e-9)
    assert all(s == 1 for s in run.forecast_log.source)


@pytest.mark.parametrize("step_ms", [1.0, 5.0])
@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
@pytest.mark.parametrize("mode", [Mode.PREDICTIVE, Mode.REACTIVE, Mode.OPEN_LOOP])
def test_throttled_run_matches_oracle(mode, forecaster, step_ms):
    cfg = _throttled_cfg(mode, forecaster=forecaster, step_ms=step_ms)
    run = _assert_matches_oracle(cfg)
    assert run.summary.throttle_deferrals > 0


@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
@pytest.mark.parametrize("times", [
    {"history_window_ms": 1e300},
    {"admission_lead_ms": 1e300},
    {"t_slice_ms": 1e300, "admission_lead_ms": 1e300},
    {"horizon_ms": 1e299, "horizon_max_ms": 1e300, "t_slice_ms": 1e300,
     "admission_lead_ms": 1e300},
], ids=["window", "admission", "slice", "horizon"])
def test_huge_scheduler_times_match_oracle(times, forecaster):
    # times far past the run's reach are valid and read what the run's
    # length does; a hint past the last step has nothing to throttle
    run = _assert_matches_oracle(_throttled_cfg(forecaster=forecaster, **times))
    assert (run.summary.throttle_deferrals > 0) == ("horizon_ms" not in times)


@pytest.mark.parametrize("mode", [Mode.PREDICTIVE, Mode.REACTIVE, Mode.OPEN_LOOP])
def test_largest_accepted_plant_gain_stays_finite(mode):
    # gain * max|P - p_baseline_w| = 1e80, the most the scan holds (a larger
    # r_th is rejected at load): every column finite and on the oracle to
    # the usual 1e-12, relative to the column's scale
    cfg = replace(_small_cfg(mode, steps=400), thermal=ThermalParams(r_th=1e78))
    run, ref = simulate(cfg), simulate_oracle(cfg)
    for col in EQUIV_COLS:
        a, b = getattr(run.frame, col), getattr(ref.frame, col)
        assert np.isfinite(a).all(), col
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b))), col


# what the schedule pass gives a run: these columns and throttle counters
_SCHEDULE_COLUMNS = (("frame", ("rho", "p_eic_w", "hint_w", "queue_depth")),
                     ("forecast_log", ("newest_input_ms", "source")))
_THROTTLE_COUNTERS = ("throttle_deferrals", "outstanding_density",
                      "outstanding_entries", "shed_density", "shed_entries")


def _bits(run):
    """The schedule pass's outcome in ``run``, bit for bit."""
    bits = {name: getattr(run.summary, name) for name in _THROTTLE_COUNTERS}
    for part, names in _SCHEDULE_COLUMNS:
        for name in names:
            v = getattr(getattr(run, part), name)
            bits[name] = v.dtype.str, v.shape, v.tobytes()
    return bits


@pytest.mark.parametrize("throttle", [True, False])
def test_schedule_reads_no_controller_field(throttle):
    # domain separation: no compensator setting, every mode included, moves
    # a bit of the schedule pass's outcome
    cfg = _throttled_cfg(throttle_enabled=throttle)
    run = simulate(cfg)
    assert (run.summary.throttle_deferrals > 0) == throttle
    base = _bits(run)
    cp = cfg.controller
    variants = [replace(cp, mode=m) for m in Mode] + [
        replace(cp, **{f.name: getattr(cp, f.name) * 0.5})
        for f in fields(cp) if f.name != "mode"
    ]
    for variant in variants:
        assert _bits(simulate(replace(cfg, controller=variant))) == base, \
            variant


@pytest.mark.parametrize("forecaster", ["queue_replay", "ewma"])
@pytest.mark.parametrize("times", [
    {},
    {"admission_lead_ms": 160.0},
    {"admission_lead_ms": 1e300},
    {"horizon_ms": 1e299, "horizon_max_ms": 1e300, "t_slice_ms": 1e300,
     "admission_lead_ms": 1e300},
], ids=["default", "lead", "huge_lead", "huge_horizon"])
def test_planned_queue_depth_and_input_stamps(times, forecaster):
    # the whole-run index arithmetic these columns were first built with
    cfg = _throttled_cfg(forecaster=forecaster, throttle_enabled=False, **times)
    plan = generate_workload(cfg.workload, cfg.seed)
    run = simulate(cfg)
    N, dt, sc = plan.step_count, plan.step_period_ms, cfg.scheduler
    h = min(round(sc.horizon_ms / dt), N)
    adm = min(round(sc.admission_lead_ms / dt), N)
    cn = np.concatenate(([0], np.cumsum(plan.n_streams)))
    steps = np.arange(N)
    depth = cn[np.minimum(steps + adm, N - 1) + 1] - cn[steps + 1]
    replay = max(0, N - h) if forecaster == "queue_replay" else 0
    newest = plan.t_ms.copy()
    newest[:replay] = np.maximum(0, np.arange(replay) + h - adm) * dt
    for got, want in ((run.frame.queue_depth, depth),
                      (run.forecast_log.newest_input_ms, newest)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_deferred_work_lines_up_behind_admitted_work():
    # deferred entries join their new slot ahead of its plan entry unless
    # that was admitted first, as here (admission lead >= horizon + slice);
    # the LIFO throttle then defers them in the other order
    run = _assert_matches_oracle(_throttled_cfg(admission_lead_ms=120.0))
    assert run.summary.throttle_deferrals > 0


def test_throttled_runs_conserve_planned_work():
    # seeded random throttled configs: every planned density is dispatched,
    # shed, or still outstanding past the last step
    rng = np.random.default_rng(2026)
    outstanding, shed = [], []
    for _ in range(12):
        step_ms = float(rng.choice([1.0, 2.0, 5.0]))
        cfg = RunConfig(
            seed=int(rng.integers(0, 2**31)),
            workload=WorkloadConfig(step_count=int(rng.integers(300, 1500)),
                                    step_period_ms=step_ms,
                                    schedule=THROTTLE_SCHEDULE),
            scheduler=SchedulerConfig(
                throttle_compensation_gain=float(rng.uniform(0.3, 0.95)),
                throttle_cap_c=float(rng.uniform(0.5, 4.5)),
                admission_lead_ms=float(rng.choice([80.0, 100.0, 120.0, 160.0]))),
        )
        run = simulate(cfg)
        planned = generate_workload(cfg.workload, cfg.seed).rho.sum()
        assert planned == pytest.approx(
            run.frame.rho.sum() + run.summary.shed_density
            + run.summary.outstanding_density, rel=1e-9)
        outstanding.append(run.summary.outstanding_entries)
        shed.append(run.summary.shed_entries)
    assert max(outstanding) > 0 and max(shed) > 0


def _gain_half_cfg(steps):
    cfg = default_config(24)
    return replace(cfg, workload=replace(cfg.workload, step_count=steps),
                   scheduler=replace(cfg.scheduler, throttle_compensation_gain=0.5))


@pytest.mark.parametrize("steps", [5_000, 10_000, 20_000])
def test_an_entry_is_deferred_at_most_once(monkeypatch, steps):
    # every slot holds its plan entry and at most the one entry deferred
    # into it, so the deferrals stay within one per step
    sizes = []

    def counting_cut(slot, *args):
        sizes.append(len(slot))
        return throttle_cut(slot, *args)

    monkeypatch.setattr(sim, "throttle_cut", counting_cut)
    cfg = _gain_half_cfg(steps)
    run = simulate(cfg)
    s = run.summary
    assert 0 < s.throttle_deferrals <= steps
    assert max(sizes) == 2
    assert s.shed_entries > 0 and s.outstanding_entries > 0
    planned = generate_workload(cfg.workload, cfg.seed).rho.sum()
    assert planned == pytest.approx(
        run.frame.rho.sum() + s.shed_density + s.outstanding_density, rel=1e-9)


# sha256 of the telemetry and forecast-log CSVs of throttled runs under the
# defer-once policy, recorded once the per-step oracle agreed with them
@pytest.mark.parametrize("cfg, deferrals, max_queue, telemetry, forecast_log", [
    (_throttled_cfg(), 1040, 578,
     "c9f61636b9a1923fe71906c375c2cce1186a315543006370412b12b8ca8cb539",
     "8917e5f6ef55c472e9249d10114b3ab8b41d3bb4c92d9bdc60e8c79a2b5e5a19"),
    (_gain_half_cfg(10_000), 5_500, 393,
     "74bb4eb1096f9f6fef2a385409df1435d9fc00a22b05d59635f7dc581b15b1b2",
     "c621bba98961d702729039b2d8db5696a4ef4ca72cf944dd64621a9617d459a5"),
], ids=["throttled_cfg", "gain_half_10k"])
def test_throttled_run_csvs_are_byte_identical_to_golden(
        tmp_path, cfg, deferrals, max_queue, telemetry, forecast_log):
    run = simulate(cfg)
    assert run.summary.throttle_deferrals == deferrals
    assert run.frame.queue_depth.max() == max_queue
    write_csv(run.frame, tmp_path / "t.csv")
    run.forecast_log.write_csv(tmp_path / "f.csv")
    for name, digest in (("t.csv", telemetry), ("f.csv", forecast_log)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_byte_identical_telemetry_and_forecast_logs(tmp_path):
    cfg = _small_cfg(steps=4000)
    paths = []
    for tag in ("a", "b"):
        run = simulate(cfg)
        tpath = tmp_path / f"telemetry_{tag}.csv"
        fpath = tmp_path / f"forecast_{tag}.csv"
        write_csv(run.frame, tpath)
        run.forecast_log.write_csv(fpath)
        paths.append((tpath, fpath))
    assert filecmp.cmp(paths[0][0], paths[1][0], shallow=False)
    assert filecmp.cmp(paths[0][1], paths[1][1], shallow=False)


def test_distance_run_equals_the_run_at_its_resolved_gamma():
    # gamma is resolved once, at load: a d_um run and the same run with that
    # gamma written in are the same run, bit for bit
    cfg = comparison_config()
    by_distance = replace(cfg, thermal=replace(cfg.thermal, d_um=12.0))
    by_gamma = replace(cfg, thermal=replace(cfg.thermal,
                                            gamma=gamma_of_distance(12.0)))
    assert by_distance.thermal.gamma == by_gamma.thermal.gamma < 1.0
    a, b = simulate(by_distance), simulate(by_gamma)
    for f in fields(a.frame):
        x, y = getattr(a.frame, f.name), getattr(b.frame, f.name)
        assert x == y if f.name == "load_state" else x.tobytes() == y.tobytes(), \
            f.name
    assert a.summary == b.summary
    assert a.summary.peak_delta_t_c != simulate(cfg).summary.peak_delta_t_c


def test_different_seed_changes_output():
    a = simulate(_small_cfg(seed=1, steps=1000))
    b = simulate(_small_cfg(seed=2, steps=1000))
    assert not np.array_equal(a.frame.rho, b.frame.rho)


def test_zero_duration_run():
    cfg = replace(RunConfig(), workload=WorkloadConfig(
        step_count=0, schedule=(("Peak", 100),)))
    run = simulate(cfg)
    assert run.frame.n == 0
    assert run.summary.steps == 0
    assert run.summary.max_drift_nm == 0.0
    assert run.audit.ok and run.audit.n_checked == 0
    assert sim._summarize(cfg) == run.summary
    empty = TelemetryFrame.empty()
    for f in fields(empty):
        assert np.asarray(getattr(run.frame, f.name)).dtype == \
            np.asarray(getattr(empty, f.name)).dtype, f.name
    for f in fields(ForecastLog):
        col = getattr(run.forecast_log, f.name)
        assert col.shape == (0,) and col.dtype == (
            int if f.name == "source" else float), f.name


@pytest.mark.parametrize("run", [simulate, sim._summarize,
                                 lambda cfg: generate_workload(cfg.workload,
                                                               cfg.seed)],
                         ids=["simulate", "summarize", "generate_workload"])
def test_a_plan_that_draws_a_negative_density_is_rejected(run):
    # a stream set has no negative density, and no power below idle's ramp
    # may be clamped silently: such a noise draw is refused, naming the field
    cfg = default_config(24)
    cfg = replace(cfg, workload=replace(cfg.workload, step_count=20_000,
                                        noise_sigma=1.0))
    with pytest.raises(ConfigError, match=r"workload\.noise_sigma .*seed 24"):
        run(cfg)


def test_a_wide_noise_that_stays_positive_runs():
    cfg = default_config(24)
    cfg = replace(cfg, workload=replace(cfg.workload, step_count=20_000,
                                        noise_sigma=0.15))
    run = simulate(cfg)
    assert run.summary.steps == 20_000 and run.audit.ok
    assert run.frame.rho.min() > 0


def test_causality_audit_clean_on_default_runs(validation_run, transient_run,
                                               fingerprint_run):
    for run in (validation_run, transient_run, fingerprint_run):
        assert run.audit.ok
        assert run.summary.audit_violations == 0


def test_summary_contents(validation_run):
    s = validation_run.summary
    assert s.steps == 90_000
    assert s.duration_ms == pytest.approx(90_000.0)
    assert s.eta_min == s.eta_max  # fixed horizon
    assert 0.2212 <= s.eta_min <= 0.4648
    assert s.peak_junction_temp_c <= 85.0
    assert set(s.mean_rho_by_state) == {"Idle", "Low", "Medium", "High", "Peak"}


def test_eta_uses_the_plant_time_constant():
    cfg = replace(_small_cfg(steps=200), thermal=ThermalParams(tau_ms=120.0))
    run = simulate(cfg)
    # 1 - exp(-30/120); tau = 80 ms would give 0.3127
    assert run.frame.eta == pytest.approx(np.full(200, 0.2212), abs=1e-4)
    assert run.summary.eta_min == run.summary.eta_max == run.frame.eta[0]


def test_hint_column_is_causal_replay(validation_run):
    frame = validation_run.frame
    sc = validation_run.config.scheduler
    h = int(sc.horizon_ms)
    # inside the replay region the hint equals the realized power at t + h
    np.testing.assert_allclose(
        frame.hint_w[: frame.n - h], frame.p_eic_w[h:], atol=1e-9
    )


def test_throttle_fires_and_defers():
    cfg = RunConfig(
        workload=WorkloadConfig(
            step_count=2500, schedule=(("Low", 1000), ("Peak", 800), ("Low", 700))
        ),
        scheduler=SchedulerConfig(throttle_cap_c=1.0),
    )
    run = simulate(cfg)
    assert run.summary.throttle_deferrals > 0
    assert run.audit.ok


def test_throttle_disabled_keeps_vector_path():
    cfg = RunConfig(
        workload=WorkloadConfig(step_count=1000, schedule=(("Peak", 1000),)),
        scheduler=SchedulerConfig(throttle_cap_c=1.0, throttle_enabled=False),
    )
    run = simulate(cfg)
    assert run.summary.throttle_deferrals == 0


def test_open_loop_drift_tracks_plant(fingerprint_run):
    frame = fingerprint_run.frame
    kappa = fingerprint_run.config.optics.kappa_to
    np.testing.assert_allclose(frame.residual_c, frame.delta_t_c, atol=1e-12)
    np.testing.assert_allclose(frame.drift_nm, kappa * frame.delta_t_c, atol=1e-9)


def test_runtime_budget_for_default_run():
    import time
    t0 = time.time()
    simulate(RunConfig(seed=77))
    assert time.time() - t0 < 10.0


def _one_pole_loop(x, pole, gain_in, y_prev):
    out = np.empty(len(x))
    y = y_prev
    for i, v in enumerate(x):
        y = pole * y + gain_in * v
        out[i] = y
    return out


@pytest.mark.parametrize("pole", [0.0, 0.40, math.exp(-1.0 / 80.0), 0.999])
def test_one_pole_scan_matches_recursion(pole):
    block = _scan_block(pole) if pole else 64
    x = np.random.default_rng(3).random(3 * block + 7)
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 7):
        got, _ = _one_pole(x[:n], pole, 1.0 - pole, 2.5)
        assert got.shape == (n,)
        np.testing.assert_allclose(
            got, _one_pole_loop(x[:n], pole, 1.0 - pole, 2.5), rtol=1e-12, atol=0
        )


def test_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cpodrift; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
