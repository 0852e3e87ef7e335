import math

import numpy as np
import pytest

from cpodrift.errors import ConfigError, DegenerateMapError, InputError
from cpodrift.workload import (
    AffineMapParams,
    LOAD_STATES,
    RHO_MAX,
    RHO_MIN,
    StreamDescriptor,
    WorkloadConfig,
    _PlanStream,
    density,
    density_to_power,
    density_to_throughput,
    generate_workload,
    load_state,
    throughput_to_density,
)


def test_density_empty_sums_to_zero():
    assert density([]) == 0.0


def test_density_identity_factors():
    assert density([StreamDescriptor(1.0, 1.0, 1.0)]) == 1.0


def test_density_hand_sum():
    streams = [StreamDescriptor(1.2, 0.5, 1.5), StreamDescriptor(0.9, 1.0, 1.0)]
    # 1.2*0.5*1.5 + 0.9*1.0*1.0 = 0.9 + 0.9
    assert density(streams) == pytest.approx(1.8, abs=1e-12)


def test_density_additive_over_disjoint_sets():
    rng = np.random.default_rng(3)
    streams = [
        StreamDescriptor(rng.uniform(0.6, 1.4), rng.uniform(0.3, 1.0),
                         rng.uniform(0.8, 1.2))
        for _ in range(12)
    ]
    total = density(streams)
    assert total == pytest.approx(density(streams[:5]) + density(streams[5:]),
                                  rel=1e-12)


@pytest.mark.parametrize("bad", [
    dict(attn_footprint=-0.1, activation_rate=0.5, routing_coeff=1.0),
    dict(attn_footprint=1.0, activation_rate=1.5, routing_coeff=1.0),
    dict(attn_footprint=1.0, activation_rate=0.5, routing_coeff=0.0),
    dict(attn_footprint=float("nan"), activation_rate=0.5, routing_coeff=1.0),
    dict(attn_footprint=float("inf"), activation_rate=0.5, routing_coeff=1.0),
])
def test_stream_descriptor_rejects_invalid_fields(bad):
    with pytest.raises(InputError):
        StreamDescriptor(**bad)


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


def test_generate_workload_deterministic():
    cfg = WorkloadConfig(step_count=2000)
    a = generate_workload(cfg, seed=7)
    b = generate_workload(cfg, seed=7)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.state_idx, b.state_idx)
    assert a.streams_at(123) == b.streams_at(123)
    c = generate_workload(cfg, seed=8)
    assert not np.array_equal(a.rho, c.rho)


def _per_step_expansion(cfg, seed):
    # the schedule expanded one Python list entry per step, cycled with
    # np.tile, and the noise added to a copy
    names = tuple(s.name for s in LOAD_STATES)
    cycle = []
    for state, dur_ms in cfg.schedule:
        cycle.extend([names.index(state)] * max(1, int(round(dur_ms / cfg.step_period_ms))))
    cycle = np.asarray(cycle, dtype=np.int64)
    state_idx = np.tile(cycle, int(np.ceil(cfg.step_count / cycle.size)))[:cfg.step_count]
    rho = np.asarray([s.rho_target for s in LOAD_STATES])[state_idx].astype(float)
    if cfg.noise_sigma > 0:
        rho = rho + np.random.default_rng(seed).normal(0.0, cfg.noise_sigma,
                                                       cfg.step_count)
    return state_idx, rho


@pytest.mark.parametrize("schedule", [
    WorkloadConfig().schedule,
    (("Low", 3.0), ("Peak", 0.2), ("Idle", 1.5), ("High", 0.6), ("Medium", 2.5)),
    (("Peak", 7.0),),
], ids=["validation", "sub_step_holds", "one_hold"])
@pytest.mark.parametrize("step_ms", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("steps", [1, 6, 1000, 50_001])
def test_schedule_expansion_matches_the_per_step_expansion(schedule, step_ms, steps):
    cfg = WorkloadConfig(step_count=steps, step_period_ms=step_ms, schedule=schedule)
    plan = generate_workload(cfg, seed=3)
    state_idx, rho = _per_step_expansion(cfg, seed=3)
    assert plan.state_idx.dtype == state_idx.dtype
    assert plan.state_idx.tobytes() == state_idx.tobytes()
    assert plan.rho.tobytes() == rho.tobytes()


@pytest.mark.parametrize("split, steps", [
    (1, 3000), (7, 3000), (65_535, 200_001), (65_536, 200_001),
    (100_000, 200_001)])
def test_plan_read_in_pieces_equals_one_read(split, steps):
    # one noise generator drawn from read after read gives the one-call
    # draw bit for bit
    cfg = WorkloadConfig(step_count=steps, schedule=WorkloadConfig().schedule[5:])
    plan = generate_workload(cfg, seed=11)
    stream = _PlanStream(cfg, seed=11)
    parts = [stream(lo, min(lo + split, steps)) for lo in range(0, steps, split)]
    for whole, part in zip((plan.state_idx, plan.rho, plan.n_streams), zip(*parts)):
        joined = np.concatenate(part)
        assert joined.dtype == whole.dtype and joined.tobytes() == whole.tobytes()


def test_generate_constant_peak_no_noise():
    cfg = WorkloadConfig(step_count=500, schedule=(("Peak", 500),), noise_sigma=0.0)
    plan = generate_workload(cfg, seed=1)
    assert np.all(plan.rho == 2.7)
    assert all(plan.state_name(k) == "Peak" for k in (0, 250, 499))


def test_default_schedule_state_means_within_2pct():
    plan = generate_workload(WorkloadConfig(), seed=24)
    names = plan.state_names
    for i, name in enumerate(names):
        mask = plan.state_idx == i
        mean = plan.rho[mask].mean()
        target = load_state(name).rho_target
        assert abs(mean / target - 1.0) < 0.02, name


def test_default_schedule_has_bursts_in_range():
    durations = [d for _, d in WorkloadConfig().schedule]
    bursts = [d for d in durations if d <= 500]
    assert bursts, "default schedule must include burst segments"
    assert all(100 <= d <= 500 for d in bursts)


def test_streams_materialize_to_planned_density():
    plan = generate_workload(WorkloadConfig(step_count=300), seed=5)
    for k in (0, 77, 299):
        streams = plan.streams_at(k)
        assert density(streams) == pytest.approx(plan.rho[k], rel=1e-12)
        assert len(streams) == plan.n_streams[k]
        assert all(math.isfinite(s.contribution) for s in streams)


def test_zero_steps_is_empty_not_error():
    plan = generate_workload(WorkloadConfig(step_count=0), seed=1)
    assert plan.step_count == 0
    assert plan.state_idx.size == plan.n_streams.size == plan.t_ms.size == 0


def test_workload_config_validation():
    with pytest.raises(ConfigError):
        WorkloadConfig(schedule=(("Warp", 100),))
    with pytest.raises(ConfigError):
        WorkloadConfig(schedule=(("Peak", -5),))
    with pytest.raises(ConfigError):
        WorkloadConfig(step_period_ms=0.0)
    with pytest.raises(ConfigError):
        WorkloadConfig(schedule=())
