"""Per-step reference composition of the co-simulation: the test oracle.

Each step dispatches its queue slot, snapshots a :class:`Filtration`, issues
the hint with :func:`forecast`, lets :func:`throttle_decision` defer queued
work, then advances the plant with :func:`thermal.step` and the compensator
with :func:`control_step`. It is the literal module-by-module reading of the
model, and much slower than ``simulate``; the equivalence tests check
``simulate`` against it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cpodrift import thermal as th
from cpodrift.config import RunConfig
from cpodrift.controller import CompensationState, control_step
from cpodrift.scheduler import (
    Filtration,
    ForecastLog,
    QueueEntry,
    forecast,
    preposition_fraction,
    throttle_decision,
)
from cpodrift.simulate import RunResult, _finish, simulate
from cpodrift.telemetry import TelemetryFrame
from cpodrift.workload import density_to_power, density_to_throughput, generate_workload


def _steps_of(ms: float, dt: float) -> int:
    return int(round(ms / dt))


def simulate_oracle(config: RunConfig) -> RunResult:
    plan = generate_workload(config.workload, config.seed)
    if plan.step_count == 0:
        return simulate(config)

    sc = config.scheduler
    cp = config.controller
    thermal = config.thermal_resolved
    optic = config.optics
    wmap = config.affine_map
    dt = plan.step_period_ms
    N = plan.step_count
    t = plan.t_ms

    h_steps = _steps_of(sc.horizon_ms, dt)
    adm_steps = _steps_of(sc.admission_lead_ms, dt)
    slice_steps = max(1, _steps_of(sc.t_slice_ms, dt))
    win_steps = max(1, _steps_of(sc.history_window_ms, dt))

    # dispatch slots: step index -> list of queue entries
    slots: dict[int, list[QueueEntry]] = {}

    def admit(j: int, admitted_ms: float) -> None:
        if 0 <= j < N:
            slots.setdefault(j, []).append(QueueEntry(
                dispatch_t_ms=float(t[j]), rho=float(plan.rho[j]),
                n_streams=int(plan.n_streams[j]), admitted_t_ms=admitted_ms,
            ))

    for j in range(min(adm_steps, N)):
        admit(j, 0.0)

    history: list[tuple[float, float]] = []
    plant = th.ThermalState()
    ctrl = CompensationState()
    log = ForecastLog()

    cols: dict[str, list] = {k: [] for k in (
        "rho", "t24", "p", "hint", "dT", "bias", "residual", "drift", "qd",
    )}
    state_col: list[str] = []
    deferrals = outstanding_entries = 0
    outstanding_density = 0.0

    for k in range(N):
        admit(k + adm_steps, float(t[k]))

        executing = slots.pop(k, [])
        rho_k = sum(e.rho for e in executing)
        p_k = density_to_power(rho_k, wmap)
        t24_k = density_to_throughput(rho_k, wmap)

        history.append((float(t[k]), p_k))
        if len(history) > win_steps:
            history.pop(0)

        pending = [e for js in sorted(slots) if js > k for e in slots[js]]
        qd = sum(e.n_streams for e in pending)
        snapshot = Filtration(
            now_ms=float(t[k]),
            power_history=tuple(history),
            queue=tuple(pending),
            queue_depth=qd,
            slot_ms=dt,
        )
        hint = forecast(snapshot, float(t[k]), sc.horizon_ms, sc, wmap)
        log.append(hint)

        if sc.throttle_enabled:
            decision = throttle_decision(
                hint, sc.throttle_cap_c, thermal,
                compensation_gain=sc.throttle_compensation_gain,
                map_params=wmap,
            )
            if decision.fired:
                deferrals += len(decision.deferred)
                j = k + h_steps
                kept = [
                    e for e in slots.get(j, [])
                    if not any(e is d for d in decision.deferred)
                ]
                slots[j] = kept
                for e in decision.deferred:
                    admit_j = j + slice_steps
                    if admit_j < N:
                        slots.setdefault(admit_j, []).append(
                            replace(e, dispatch_t_ms=float(t[admit_j]))
                        )
                    else:   # past the last step: outstanding
                        outstanding_density += e.rho
                        outstanding_entries += 1

        plant = th.step(plant, p_k - thermal.p_baseline_w, dt, thermal)
        ctrl = control_step(ctrl, plant.delta_t_c, hint, dt, cp, thermal, optic)

        state_col.append(plan.state_name(k))
        cols["rho"].append(rho_k)
        cols["t24"].append(t24_k)
        cols["p"].append(p_k)
        cols["hint"].append(hint.forecast_w)
        cols["dT"].append(plant.delta_t_c)
        cols["bias"].append(ctrl.bias_delta_t_c)
        cols["residual"].append(ctrl.residual_delta_t_c)
        cols["drift"].append(ctrl.residual_drift_nm)
        cols["qd"].append(qd)

    eta = preposition_fraction(sc.horizon_ms, thermal.tau_ms)
    qd_arr = np.asarray(cols["qd"], dtype=np.int64)
    frame = TelemetryFrame(
        step=np.arange(N, dtype=np.int64),
        t_ms=t,
        load_state=state_col,
        rho=np.asarray(cols["rho"]),
        t24=np.asarray(cols["t24"]),
        p_eic_w=np.asarray(cols["p"]),
        hint_w=np.asarray(cols["hint"]),
        eta=np.full(N, eta),
        delta_t_c=np.asarray(cols["dT"]),
        bias_c=np.asarray(cols["bias"]),
        residual_c=np.asarray(cols["residual"]),
        drift_nm=np.asarray(cols["drift"]),
        queue_depth=qd_arr,
        ttft_ms=qd_arr * sc.t_slice_ms * 0.5,
    )
    return _finish(config, plan, frame, log, deferrals, outstanding_density,
                   outstanding_entries)
