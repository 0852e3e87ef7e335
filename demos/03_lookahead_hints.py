"""The causal hint layer: look-ahead forecasts, eta, and the audit.

A hint issued at time t replays the scheduler's own admitted queue at
t + horizon. The preposition fraction eta says how much of a steady-state
thermal step develops inside that window; the causality audit proves no
forecast ever read data stamped after its issue time.
"""

import numpy as np

from cpodrift import (
    Filtration,
    QueueEntry,
    causality_audit,
    forecast,
    preposition_fraction,
    simulate,
)
from cpodrift.config import comparison_config

print("preposition fraction across the look-ahead window (tau = 80 ms):")
for h in (20, 30, 40, 50):
    print(f"  horizon {h} ms -> eta = {preposition_fraction(h, 80.0):.4f}")

# a hand-built filtration: the queue knows a Peak dispatch 30 ms out
f = Filtration(
    now_ms=100.0,
    power_history=tuple((float(t), 32.5) for t in range(80, 101)),
    queue=(QueueEntry(dispatch_t_ms=130.0, rho=2.7, admitted_t_ms=60.0),),
)
hint = forecast(f, 100.0, 30.0)
print(f"\nqueue replay: forecast {hint.forecast_w:.1f} W at t+30 ms "
      f"(source={hint.source}, newest input stamp {hint.newest_input_ms} ms)")

empty = Filtration(now_ms=100.0,
                   power_history=tuple((float(t), 50.0) for t in range(80, 101)))
fallback = forecast(empty, 100.0, 30.0)
print(f"empty queue: falls back to history mean {fallback.forecast_w:.1f} W "
      f"(source={fallback.source})")

run = simulate(comparison_config(seed=3))
report = causality_audit(
    run.forecast_log, np.column_stack((run.frame.t_ms, run.frame.p_eic_w))
)
print(f"\naudit over a full {run.summary.steps}-step run: "
      f"{report.n_checked} forecasts checked, "
      f"{len(report.violations)} future reads")
