"""One-shot self-check: analytic oracles against the configured model.

Each check pins an expected value from the nominal calibration arithmetic
and evaluates the corresponding operation under the given config. With the
default config every check passes; perturbing a parameter shows up as an
expected-vs-actual mismatch rather than a silent recalibration.
"""

from __future__ import annotations

from .config import RunConfig
from .fingerprint import RESPONSE_63_2, Claim, claim
from .optics import assess, drift
from .scheduler import preposition_fraction
from .thermal import (JUNCTION_CEILING_C, ThermalState, boundary_temperatures,
                      junction_temperature, step, steady_state_delta_t)
from .workload import density_to_power, density_to_throughput, throughput_to_density


def _check(name: str, expected: float, actual: float, tol: float) -> Claim:
    return claim("verify", name, f"{actual:.6g}", f"{expected:.6g} (tol {tol:g})",
                 abs(actual - expected) <= tol)


def verify(config: RunConfig | None = None) -> tuple[Claim, ...]:
    """Run the analytic-oracle checks, each a claim that holds or fails."""
    cfg = config if config is not None else RunConfig()
    thermal = cfg.thermal
    wmap = cfg.affine_map
    checks = []

    checks.append(_check(
        "preposition fraction at 20 ms",
        0.2212, preposition_fraction(20.0, thermal.tau_ms), 1e-4,
    ))
    checks.append(_check(
        "preposition fraction at 50 ms",
        0.46474, preposition_fraction(50.0, thermal.tau_ms), 1e-4,
    ))
    checks.append(_check(
        "steady-state gain at 82 W",
        36.982, steady_state_delta_t(thermal.r_th, 82.0, thermal.gamma), 1e-9,
    ))

    one_tau = step(ThermalState(), 82.0, thermal.tau_ms, thermal)
    ss = steady_state_delta_t(thermal.r_th, 82.0, thermal.gamma)
    checks.append(_check(
        "single-step response fraction at t = tau",
        RESPONSE_63_2,
        one_tau.delta_t_c / ss if ss else float("nan"), 1e-4,
    ))

    s = ThermalState()
    n = 80
    for _ in range(n):
        s = step(s, 82.0, thermal.tau_ms / n, thermal)
    rel = abs(s.delta_t_c - one_tau.delta_t_c) / one_tau.delta_t_c
    checks.append(_check("step-size invariance (80 substeps, relative)",
                         0.0, rel, 1e-9))

    checks.append(_check("drift at 40 C", 3.408, drift(40.0, cfg.optics), 1e-9))
    checks.append(_check("drift at 4.15 C", 0.35358, drift(4.15, cfg.optics), 1e-9))
    checks.append(_check(
        "budget fraction of 0.3536 nm",
        0.208, assess(0.3536, cfg.optics).budget_fraction, 2e-3,
    ))

    expected_cum = (0.812, 1.407, 1.995)
    cum = cfg.boundary.cumulative
    for i, exp in enumerate(expected_cum):
        actual = cum[i] if i < len(cum) else float("nan")
        checks.append(_check(f"boundary cumulative milestone {i}", exp, actual, 0.0))

    temps = boundary_temperatures(cfg.boundary, 82.0, thermal.ambient_c)
    checks.append(_check(
        "outermost boundary at 82 W",
        thermal.ambient_c + 1.995 * 82.0, temps[-1][1], 1e-9,
    ))
    checks.append(_check(
        f"junction peak under the {JUNCTION_CEILING_C:.0f} C ceiling",
        81.982, junction_temperature(82.0, thermal), 1e-3,
    ))

    rho = 1.7
    rt = throughput_to_density(density_to_throughput(rho, wmap), wmap)
    checks.append(_check("throughput round-trip at rho = 1.7", rho, rt, 1e-12))
    checks.append(_check("power map at idle density", 12.0,
                         density_to_power(0.9, wmap), 1e-9))
    checks.append(_check("power map at peak density", 94.0,
                         density_to_power(2.7, wmap), 1e-9))

    return tuple(checks)
