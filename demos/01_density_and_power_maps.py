"""Workload density and the affine throughput / power maps.

Concurrent inference streams each contribute attention-footprint x
activation-rate x routing-coefficient to a dimensionless density. The
density rides two calibrated affine maps: one to system throughput (MTPS),
one to package power (W).
"""

from dataclasses import replace

from cpodrift import (
    LOAD_STATES,
    density_to_power,
    density_to_throughput,
    simulate,
    throughput_to_density,
)
from cpodrift.config import default_config

# two streams: 1.2 x 0.5 x 1.5 + 0.9 x 1.0 x 1.0
rho = 1.2 * 0.5 * 1.5 + 0.9 * 1.0 * 1.0
print(f"two streams -> density {rho:.3f}")
print(f"  throughput {density_to_throughput(rho):.4f} MTPS")
print(f"  power      {density_to_power(rho):.2f} W")
print(f"  inverse map round-trip: {throughput_to_density(density_to_throughput(rho)):.12f}")

print("\nthe five operating points:")
for s in LOAD_STATES:
    print(f"  {s.name:<7} rho={s.rho_target:.2f}  T24={s.t24_mtps:.4f} MTPS  "
          f"P={s.power_w:.1f} W")

cfg = default_config(24)
cfg = replace(cfg, workload=replace(cfg.workload, step_count=20_000))
means = simulate(cfg).summary.mean_rho_by_state
print(f"\na {cfg.workload.step_count}-step run; per-state mean density:")
for s in LOAD_STATES:
    if s.name in means:
        print(f"  {s.name:<7} mean rho = {means[s.name]:.4f} "
              f"(target {s.rho_target:.2f})")
