"""Recover the thermal fingerprint from telemetry.

Runs the five-state staircase open-loop, then asks the estimator pipeline
to recover what was configured: thermal resistance from steady-state
windows, the time constant from a step transient, the thermo-optic slope
from the drift relation. Panel CSVs land in ./demo_out.
"""

from cpodrift import build_report, simulate
from cpodrift.config import fingerprint_config
from cpodrift.fingerprint import table_text, write_report

cfg = fingerprint_config()
run = simulate(cfg)
report = build_report(run.frame, cfg)

print(f"unified R_th : {report.r_th_unified:.4f} C/W "
      f"(configured {cfg.thermal.r_th})")
print("per state    :", {k: round(v, 4) for k, v in report.r_th_per_state.items()})
print(f"tau          : {report.tau_est_ms:.2f} ms (configured {cfg.thermal.tau_ms})")
print(f"kappa        : {report.kappa_est.slope:.5f} nm/C "
      f"(configured {cfg.optics.kappa_to})")
print(f"rho-dT R^2   : {report.rho_dt_fit.r_squared:.4f} "
      f"(same on the throughput axis: {report.t24_dt_fit.r_squared:.4f})")
print(f"stress drift : {report.max_open_loop_drift_nm:.3f} nm at 40 C "
      f"(observed max {report.observed_max_drift_nm:.3f} nm)")

print()
print(table_text(report.pass_fail))

files = write_report(report, "demo_out")
print(f"\nwrote {len(files)} artifacts to demo_out/")
