"""Bias-compensation plant: reactive baseline vs hint-driven predictive mode.

Both closed-loop modes regulate the residual ring temperature toward the
residual cap (compensating only as much as the spectral budget requires,
which is what saves heater energy), tracking their target through a
first-order actuator. They differ in where the target comes from:

* Reactive: the industry baseline reads the plant through a temperature
  sensor with ``sensor_latency_ms`` of delay, so during a burst the bias
  chases a stale reading and the residual overshoots.
* Predictive: the controller integrates the causal hint stream through a
  replica of the identified thermal model. Because hints issued earlier
  cover the near future, the replica can run a small lead window ahead of
  real time, and the bias meets the excursion instead of chasing it. The
  replica's per-step exponential update is exactly the preposition-fraction
  blend: new = (1 - eta_dt) * old + eta_dt * steady(hint power).
* OpenLoop: no compensation; the residual is the raw plant delta.

The residual is |plant delta - bias| and the residual drift is kappa times
that, so overcompensation is penalized symmetrically. A max(now, ahead)
guard keeps the predictive lead from undershooting into announced falls
while the plant is still hot.

:func:`compensate` computes the bias of a whole run: each mode is a
first-order recursion over the plant response, and the predictive replica
is :func:`thermal.respond` over the hint stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, Fraction, ImplausibleInputError, InputError,
                     NonNegative, Positive, check_fields)
from .thermal import ThermalParams, _one_pole, _response, step_response_fraction
from .workload import steps_of

# The residual budget, 4.15 C (0.354 nm of drift at kappa_to = 0.0852 nm/C),
# and the compensator's proportional gain; the throttle's projection
# defaults to both.
RESIDUAL_CAP_C = 4.15
COMPENSATION_GAIN = 0.95


class Mode(enum.Enum):
    REACTIVE = "reactive"
    PREDICTIVE = "predictive"
    OPEN_LOOP = "open_loop"


@dataclass(frozen=True)
class ControllerParams:
    """Compensation settings (one config section of a run).

    The actuator tracks its target with per-step factor
    gain * (1 - exp(-dt/actuator_tau_ms)). ``setpoint_margin_c`` keeps the
    regulation setpoint just under the cap so the cap is a hard bound even
    under workload-noise ripple. ``lead_ms`` is the predictive replica's
    look-ahead window; it must not exceed the hint horizon.
    """

    mode: Mode = Mode.PREDICTIVE
    sensor_latency_ms: NonNegative = 20.0
    actuator_tau_ms: Positive = 1.0
    gain: Fraction = COMPENSATION_GAIN
    residual_cap_c: Positive = RESIDUAL_CAP_C
    setpoint_margin_c: NonNegative = 0.035
    lead_ms: NonNegative = 1.0

    def __post_init__(self) -> None:
        check_fields(self, "controller")
        if not self.setpoint_margin_c < self.residual_cap_c:
            raise ConfigError(
                f"controller.setpoint_margin_c = {self.setpoint_margin_c} must be < "
                f"controller.residual_cap_c = {self.residual_cap_c}")

    @property
    def setpoint_c(self) -> float:
        return self.residual_cap_c - self.setpoint_margin_c

    def tracking_factor(self, dt_ms: float) -> float:
        """Per-step actuator convergence factor."""
        return self.gain * step_response_fraction(dt_ms, self.actuator_tau_ms)


def compensate(
    delta_t_c: np.ndarray,
    hint_w: np.ndarray,
    dt_ms: float,
    params: ControllerParams,
    thermal: ThermalParams,
    horizon_ms: float,
) -> np.ndarray:
    """Bias delta applied at the end of each step of a run.

    ``delta_t_c`` is the plant temperature delta at the end of each step
    (:func:`thermal.respond`) and ``hint_w`` the hint power issued at each
    step for ``horizon_ms`` ahead. The predictive replica runs the hints
    through the plant law once their coverage time falls inside the lead
    window; until the hint FIFO matures it anticipates with the
    preposition blend of the plant state and the hint-implied steady state.
    The run starts from rest: zero bias and an empty sensor delay line.
    """
    return _Compensator(hint_w.size, dt_ms, params, thermal,
                        horizon_ms)(delta_t_c, hint_w)


class _Compensator:
    """:func:`compensate` one chunk of an ``n``-step run at a time.

    Calls pass the plant deltas and the hints of consecutive chunks. The
    actuator bias, the sensor delay line (reactive) and the predictive
    replica with the hints of the last ``warm`` steps carry across chunk
    edges, and so do the scans' open blocks, so any chunking gives the
    one-call bias bit for bit.
    """

    def __init__(self, n: int, dt_ms: float, params: ControllerParams,
                 thermal: ThermalParams, horizon_ms: float) -> None:
        self.mode = params.mode
        self.g = params.tracking_factor(dt_ms)
        self.setpoint = params.setpoint_c
        self.bias = 0.0     # actuator scan carry
        self.lo = 0         # first step of the next chunk
        if self.mode is Mode.REACTIVE:
            lag = steps_of(params.sensor_latency_ms, dt_ms)
            self.line = np.zeros(min(lag, n))   # readings in flight
        elif self.mode is Mode.PREDICTIVE:
            h_steps = steps_of(horizon_ms, dt_ms)
            lead = min(max(1, steps_of(params.lead_ms, dt_ms)), h_steps)
            self.warm = h_steps - lead
            self.wl = step_response_fraction(lead * dt_ms, thermal.tau_ms)
            self.thermal, self.dt_ms = thermal, dt_ms
            self.past = np.empty(0)     # the hints of the last warm steps
            self.replica = 0.0          # scan carry, seeded at step warm

    def __call__(self, dT: np.ndarray, hint_w: np.ndarray) -> np.ndarray:
        n = dT.size
        lo = self.lo
        self.lo += n
        if self.mode is Mode.OPEN_LOOP:
            return np.zeros(n)
        if self.mode is Mode.REACTIVE:
            full = np.concatenate((self.line, dT))
            t, self.line = full[:n], full[n:]       # the sensed deltas
        else:
            t = self._ahead(dT, hint_w, lo)
            np.maximum(dT, t, out=t)
        t -= self.setpoint      # the target max(0, t - setpoint), in place
        np.maximum(0.0, t, out=t)   # 0.0 first: a tie keeps t's signed zero
        bias, self.bias = _one_pole(t, 1.0 - self.g, self.g, self.bias)
        return bias

    def _ahead(self, dT: np.ndarray, hint_w: np.ndarray, lo: int) -> np.ndarray:
        """The replica's lead-ahead delta over steps [lo, lo + dT.size)."""
        thermal, warm = self.thermal, self.warm
        hi = lo + dT.size
        ahead = np.empty(dT.size)
        upto = min(warm + 1, hi)
        if lo < upto:
            ahead[:upto - lo] = (1.0 - self.wl) * dT[:upto - lo] + \
                self.wl * thermal.gain * (hint_w[:upto - lo] - thermal.p_baseline_w)
            if upto == warm + 1:
                self.replica = ahead[warm - lo]
        hints = np.concatenate((self.past, hint_w))     # steps [hi - k, hi)
        k = hints.size
        if hi > warm + 1:
            # matured: the replica integrates the hint stream at the lead
            # delay, step s reading the hint of step s - warm
            start = max(lo, warm + 1)
            ahead[start - lo:], self.replica = _response(
                hints[start - warm - hi + k:k - warm], thermal, self.dt_ms,
                self.replica, thermal.p_baseline_w)
        self.past = hints[max(0, k - warm):]
        return ahead


def energy_margin_estimate(
    baseline_pj_per_bit: float, savings_pj_per_bit: float
) -> float:
    """Fraction of the per-bit energy budget recovered by margin compression.

    Reported downstream as calculated savings, not a direct measurement.
    """
    if not baseline_pj_per_bit > 0:
        raise InputError(
            f"baseline_pj_per_bit must be > 0, got {baseline_pj_per_bit}"
        )
    if savings_pj_per_bit < 0:
        raise InputError(
            f"savings_pj_per_bit must be >= 0, got {savings_pj_per_bit}"
        )
    if savings_pj_per_bit > baseline_pj_per_bit:
        raise ImplausibleInputError(
            f"savings {savings_pj_per_bit} pJ/bit exceed the {baseline_pj_per_bit} "
            "pJ/bit baseline"
        )
    return savings_pj_per_bit / baseline_pj_per_bit
