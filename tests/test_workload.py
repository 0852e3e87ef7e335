import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpodrift.errors import ConfigError, DegenerateMapError
from cpodrift.workload import (
    AffineMapParams,
    LOAD_STATES,
    RHO_MAX,
    RHO_MIN,
    STATE_BY_NAME,
    WorkloadConfig,
    _PlanStream,
    density_to_power,
    density_to_throughput,
    load_state,
    stream_counts,
    throughput_to_density,
)
from oracle import plan_oracle


def test_throughput_map_calibration_endpoints():
    assert density_to_throughput(0.9) == pytest.approx(20.1999, abs=1e-9)
    assert density_to_throughput(2.7) == pytest.approx(20.8497, abs=1e-9)
    assert density_to_throughput(0.0) == pytest.approx(19.875, abs=1e-12)


def test_throughput_inverse_examples():
    assert throughput_to_density(19.875) == pytest.approx(0.0, abs=1e-12)
    assert throughput_to_density(20.1999) == pytest.approx(0.9, abs=1e-9)


def test_throughput_round_trip_property():
    for rho in np.linspace(RHO_MIN, RHO_MAX, 37):
        back = throughput_to_density(density_to_throughput(float(rho)))
        assert abs(back - rho) < 1e-12


def test_degenerate_map_error():
    with pytest.raises(ConfigError):
        AffineMapParams(alpha=0.0)
    params = AffineMapParams()
    object.__setattr__(params, "alpha", 0.0)
    with pytest.raises(DegenerateMapError):
        throughput_to_density(20.5, params)


def test_power_map_anchors_and_span():
    assert density_to_power(0.9) == pytest.approx(12.0, abs=1e-12)
    assert density_to_power(2.7) == pytest.approx(94.0, abs=1e-12)
    assert density_to_power(1.8) == pytest.approx(53.0, abs=1e-12)
    assert density_to_power(2.7) - density_to_power(0.9) == pytest.approx(82.0)


def test_power_map_monotone_and_clamped():
    grid = np.linspace(-1.0, 5.0, 101)
    p = np.array([density_to_power(float(r)) for r in grid])
    assert np.all(np.diff(p) >= -1e-12)
    assert p.min() >= 0.0 and p.max() <= 100.0


def test_load_states_strictly_ordered():
    rhos = [s.rho_target for s in LOAD_STATES]
    t24s = [s.t24_mtps for s in LOAD_STATES]
    pows = [s.power_w for s in LOAD_STATES]
    for seq in (rhos, t24s, pows):
        assert all(a < b for a, b in zip(seq, seq[1:]))
    assert rhos[0] == RHO_MIN and rhos[-1] == RHO_MAX
    assert load_state("Peak").power_w == pytest.approx(94.0)


def test_load_state_unknown_name():
    with pytest.raises(ConfigError):
        load_state("Turbo")


def _plan(cfg, seed):
    """The whole plan of ``cfg`` in one read: state index and density."""
    return _PlanStream(cfg, seed)(0, cfg.step_count)


def test_generate_workload_deterministic():
    cfg = WorkloadConfig(step_count=2000)
    (a_idx, a_rho), (b_idx, b_rho) = _plan(cfg, 7), _plan(cfg, 7)
    assert np.array_equal(a_rho, b_rho)
    assert np.array_equal(a_idx, b_idx)
    assert not np.array_equal(a_rho, _plan(cfg, 8)[1])


_ONE_STEP_HOLDS = (("Idle", 1.0), ("Peak", 1.0))


@pytest.mark.parametrize("schedule", [
    WorkloadConfig().schedule,
    (("Low", 3.0), ("Peak", 0.2), ("Idle", 1.5), ("High", 0.6), ("Medium", 2.5)),
    (("Peak", 7.0),),
    _ONE_STEP_HOLDS,
], ids=["validation", "sub_step_holds", "one_hold", "one_step_holds"])
@pytest.mark.parametrize("step_ms", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("steps", [1, 6, 1000, 50_001])
def test_schedule_expansion_matches_the_per_step_expansion(schedule, step_ms, steps):
    # the plan read by holds against the oracle's, expanded step by step
    cfg = WorkloadConfig(step_count=steps, step_period_ms=step_ms, schedule=schedule)
    state_idx, rho = _plan(cfg, seed=3)
    want = plan_oracle(cfg, seed=3)
    for got, ref in zip((state_idx, rho, stream_counts(rho)), want[1:]):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


_TAIL = WorkloadConfig().schedule[5:]   # a 1,550-step cycle of five holds


@pytest.mark.parametrize("split, steps, schedule", [
    pytest.param(split, steps, _TAIL, id=f"{split}-{steps}")
    for split, steps in ((1, 3000), (7, 3000), (65_535, 200_001),
                         (65_536, 200_001), (100_000, 200_001))] + [
    # reads that end on a hold edge: a whole cycle, and thousands of
    # one-step holds
    pytest.param(1550, 200_001, _TAIL, id="cycle-200001"),
    pytest.param(1, 3000, _ONE_STEP_HOLDS, id="one_step_holds-1-3000"),
    pytest.param(4096, 20_001, _ONE_STEP_HOLDS, id="one_step_holds-4096-20001"),
])
def test_plan_read_in_pieces_equals_one_read(split, steps, schedule):
    # one noise generator drawn from read after read gives the one-call
    # draw bit for bit
    cfg = WorkloadConfig(step_count=steps, schedule=schedule)
    state_idx, rho = _plan(cfg, seed=11)
    stream = _PlanStream(cfg, seed=11)
    parts = [stream(lo, min(lo + split, steps)) for lo in range(0, steps, split)]
    parts = [(idx, r, stream_counts(r)) for idx, r in parts]
    for whole, part in zip((state_idx, rho, stream_counts(rho)), zip(*parts)):
        joined = np.concatenate(part)
        assert joined.dtype == whole.dtype and joined.tobytes() == whole.tobytes()


def test_generate_constant_peak_no_noise():
    cfg = WorkloadConfig(step_count=500, schedule=(("Peak", 500),), noise_sigma=0.0)
    state_idx, rho = _plan(cfg, seed=1)
    assert np.all(rho == 2.7)
    names = list(STATE_BY_NAME)
    assert all(names[state_idx[k]] == "Peak" for k in (0, 250, 499))


def test_default_schedule_state_means_within_2pct():
    state_idx, rho = _plan(WorkloadConfig(), seed=24)
    for i, name in enumerate(STATE_BY_NAME):
        mask = state_idx == i
        mean = rho[mask].mean()
        target = load_state(name).rho_target
        assert abs(mean / target - 1.0) < 0.02, name


def test_default_schedule_has_bursts_in_range():
    durations = [d for _, d in WorkloadConfig().schedule]
    bursts = [d for d in durations if d <= 500]
    assert bursts, "default schedule must include burst segments"
    assert all(100 <= d <= 500 for d in bursts)


def test_zero_steps_is_empty_not_error():
    state_idx, rho = _plan(WorkloadConfig(step_count=0), seed=1)
    assert state_idx.size == rho.size == stream_counts(rho).size == 0


def test_workload_config_validation():
    with pytest.raises(ConfigError):
        WorkloadConfig(schedule=(("Warp", 100),))
    with pytest.raises(ConfigError):
        WorkloadConfig(schedule=(("Peak", -5),))
    with pytest.raises(ConfigError):
        WorkloadConfig(step_period_ms=0.0)
    with pytest.raises(ConfigError):
        WorkloadConfig(schedule=())


@pytest.mark.parametrize("hold_ms", [1e300, 1.5e308])
def test_a_hold_far_past_the_run_plans_like_one_of_its_length(hold_ms):
    # hold lengths past the run's steps once overflowed the cycle's int64
    def plan(low_ms, peak_ms):
        cfg = WorkloadConfig(step_count=500, schedule=(("Low", low_ms),
                                                       ("Peak", peak_ms)))
        return _plan(cfg, seed=1)

    for low_ms in (100.0, hold_ms):
        far, near = plan(low_ms, hold_ms), plan(min(low_ms, 500.0), 500.0)
        assert np.array_equal(far[0], near[0])
        assert np.array_equal(far[1], near[1])


def test_an_out_of_order_plan_read_raises_under_python_O():
    # the check is no assert, so ``python -O`` keeps it: a read that does
    # not start where the last ended would draw another step's noise
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("from cpodrift.errors import InputError\n"
            "from cpodrift.workload import WorkloadConfig, _PlanStream\n"
            "plan = _PlanStream(WorkloadConfig(step_count=100), 5)\n"
            "plan(0, 10)\n"
            "try:\n"
            "    plan(20, 30)\n"
            "except InputError as e:\n"
            "    print(e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ("the plan is read in step order: a read "
                                  "from step 20 after one that ended at step 10")
