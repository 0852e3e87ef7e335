import math

import numpy as np
import pytest

from cpodrift.errors import ConfigError, InputError, StepSizeError
from cpodrift.thermal import (
    BoundaryStack,
    CouplingConfig,
    ThermalParams,
    ThermalState,
    boundary_temperatures,
    gamma_of_distance,
    junction_temperature,
    respond,
    steady_state_delta_t,
    step,
    step_response_fraction,
)

DEFAULTS = ThermalParams()


def test_steady_state_reference_point():
    assert steady_state_delta_t(0.451, 82.0, 1.0) == pytest.approx(36.982, abs=1e-9)


def test_steady_state_zero_power():
    assert steady_state_delta_t(0.7, 0.0, 1.0) == 0.0


def test_steady_state_hand_product():
    assert steady_state_delta_t(0.45, 10.0, 0.5) == pytest.approx(2.25, abs=1e-12)


def test_steady_state_requires_positive_resistance():
    with pytest.raises(InputError):
        steady_state_delta_t(0.0, 10.0)


def test_single_step_of_one_tau_reaches_63_2_percent():
    out = step(ThermalState(), 82.0, DEFAULTS.tau_ms, DEFAULTS)
    ss = steady_state_delta_t(DEFAULTS.r_th, 82.0, DEFAULTS.gamma)
    assert out.delta_t_c / ss == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_step_fixed_point():
    # power chosen so the steady state equals the current delta
    power = 10.0 / DEFAULTS.gain
    s = ThermalState(delta_t_c=10.0)
    for dt in (0.5, 1.0, 7.0, 80.0, 1000.0):
        out = step(s, power, dt, DEFAULTS)
        assert out.delta_t_c == pytest.approx(10.0, abs=1e-12)


def test_step_size_invariance_oracle():
    # 80 steps of 1 ms must match the single-step analytic update
    one = step(ThermalState(), 82.0, 80.0, DEFAULTS)
    s = ThermalState()
    for _ in range(80):
        s = step(s, 82.0, 1.0, DEFAULTS)
    assert abs(s.delta_t_c - one.delta_t_c) / one.delta_t_c < 1e-9


def test_step_rejects_nonpositive_dt():
    with pytest.raises(StepSizeError):
        step(ThermalState(), 10.0, 0.0, DEFAULTS)
    with pytest.raises(StepSizeError):
        step(ThermalState(), 10.0, -1.0, DEFAULTS)


def test_step_is_the_exact_one_step_update():
    rng = np.random.default_rng(11)
    params = ThermalParams(r_th=0.6, tau_ms=35.0, gamma=0.7)
    for _ in range(200):
        d0, p = rng.uniform(-50.0, 50.0, 2)
        dt = float(rng.choice([1e-3, 0.5, 1.0, 7.0, 80.0, 1e5]))
        decay = math.exp(-dt / params.tau_ms)
        out = step(ThermalState(delta_t_c=d0), p, dt, params)
        assert out.delta_t_c == d0 * decay + params.gain * p * (1.0 - decay)


def test_respond_continues_from_its_last_value():
    # two half-runs chained through the last delta equal one full run,
    # across scan block boundaries
    power = np.random.default_rng(5).uniform(-10.0, 82.0, 10_000)
    full = respond(power, DEFAULTS, 1.0, 3.0)
    head = respond(power[:4321], DEFAULTS, 1.0, 3.0)
    tail = respond(power[4321:], DEFAULTS, 1.0, head[-1])
    np.testing.assert_allclose(np.concatenate((head, tail)), full,
                               rtol=1e-12, atol=1e-12)


def test_one_step_is_the_first_step_of_a_longer_run():
    # the one-element path of the scan rounds exactly as the scan does
    rng = np.random.default_rng(12)
    for _ in range(2000):
        p, q = rng.uniform(-50.0, 150.0, 2)
        params = ThermalParams(r_th=float(rng.uniform(0.05, 5.0)),
                               tau_ms=float(rng.uniform(0.5, 500.0)))
        dt, d0 = float(rng.uniform(0.01, 100.0)), float(rng.uniform(-40.0, 40.0))
        one = respond([p], params, dt, d0)[0]
        assert one.tobytes() == respond([p, q], params, dt, d0)[0].tobytes()


def _response(powers, dts, params=DEFAULTS):
    s = ThermalState()
    out = []
    for p, dt in zip(powers, dts):
        s = step(s, p, dt, params)
        out.append(s.delta_t_c)
    return np.asarray(out)


def test_linearity_and_superposition():
    rng = np.random.default_rng(11)
    n = 200
    dts = np.full(n, 1.0)
    p1 = rng.uniform(0.0, 90.0, n)
    p2 = rng.uniform(0.0, 90.0, n)
    a, b = 0.7, 2.3
    combined = _response(a * p1 + b * p2, dts)
    superposed = a * _response(p1, dts) + b * _response(p2, dts)
    assert np.max(np.abs(combined - superposed)) < 1e-9


def test_nonnegative_under_nonnegative_power():
    rng = np.random.default_rng(5)
    out = _response(rng.uniform(0.0, 100.0, 500), np.full(500, 1.0))
    assert np.all(out >= 0.0)


def test_convergence_within_0_7_percent_after_5_tau():
    s = ThermalState()
    for _ in range(400):  # 5 tau at 1 ms
        s = step(s, 82.0, 1.0, DEFAULTS)
    ss = steady_state_delta_t(DEFAULTS.r_th, 82.0, DEFAULTS.gamma)
    assert abs(s.delta_t_c - ss) / ss < 0.007


def test_step_response_fraction_values():
    assert step_response_fraction(80.0, 80.0) == pytest.approx(0.6321, abs=1e-4)
    assert step_response_fraction(0.0, 80.0) == 0.0
    # 1 - e^-3
    assert step_response_fraction(240.0, 80.0) == pytest.approx(0.9502, abs=1e-4)


def test_step_response_fraction_validation():
    with pytest.raises(InputError):
        step_response_fraction(-1.0, 80.0)
    with pytest.raises(InputError):
        step_response_fraction(10.0, 0.0)


def test_boundary_defaults_exact_milestones():
    stack = BoundaryStack()
    assert stack.cumulative == (0.812, 1.407, 1.995)
    assert all(a < b for a, b in zip(stack.cumulative, stack.cumulative[1:]))
    # per-stage resistances, the milestones' differences, re-sum to them
    stages = np.diff(stack.cumulative, prepend=0.0)
    assert np.allclose(np.cumsum(stages), stack.cumulative, atol=1e-12)


def test_boundary_temperatures_at_zero_power():
    temps = boundary_temperatures(BoundaryStack(), 0.0, 45.0)
    assert all(t == 45.0 for _, t in temps)


def test_boundary_temperatures_at_reference_power():
    temps = boundary_temperatures(BoundaryStack(), 82.0, 45.0)
    assert temps[-1][0] == "Heatsink-to-Ambient"
    assert temps[-1][1] == pytest.approx(45.0 + 1.995 * 82.0, abs=1e-9)


def test_boundary_rejects_negative_power_and_bad_stack():
    with pytest.raises(InputError):
        boundary_temperatures(BoundaryStack(), -1.0, 45.0)
    with pytest.raises(ConfigError):
        BoundaryStack(names=("a", "b"), cumulative=(1.0, 0.5))


def test_junction_peak_under_ceiling():
    # 45 C idle reference + 36.982 C rise for the 82 W swing
    t = junction_temperature(82.0, DEFAULTS)
    assert t == pytest.approx(81.982, abs=1e-9)
    assert t <= 85.0


def test_gamma_of_distance():
    assert gamma_of_distance(10.0) == 1.0
    assert gamma_of_distance(15.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert gamma_of_distance(3.0) == 1.0  # clamped inside the reference
    with pytest.raises(InputError):
        gamma_of_distance(0.0)


def test_with_distance_resolves_gamma():
    p = ThermalParams(d_um=15.0)
    resolved = p.with_distance(CouplingConfig())
    assert resolved.gamma == pytest.approx(math.exp(-1.0))
    assert ThermalParams().with_distance().gamma == 1.0


def test_thermal_params_validation():
    with pytest.raises(ConfigError):
        ThermalParams(r_th=0.0)
    with pytest.raises(ConfigError):
        ThermalParams(tau_ms=-1.0)
    with pytest.raises(ConfigError):
        ThermalParams(gamma=1.5)
