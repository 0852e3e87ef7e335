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
from .thermal import (_SCAN_MAX_BLOCK, ThermalParams, _one_pole, _response,
                      step_response_fraction)
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
    bias_of = _Compensator(hint_w.size, dt_ms, params, thermal, horizon_ms)
    bias_of.feed(hint_w)
    return bias_of(delta_t_c)


class _Compensator:
    """:func:`compensate` one chunk of an ``n``-step run at a time.

    Calls pass the plant deltas of consecutive chunks, and :meth:`feed`
    passes the hint stream in order, ahead of them: the predictive replica
    reads up to one scan block past the chunk. The actuator bias, the sensor
    delay line (reactive) and the replica (predictive) carry across chunk
    edges, so chunks of whole multiples of ``thermal._SCAN_MAX_BLOCK`` steps
    give the one-call bias bit for bit. The replica scans the hint stream on
    its own grid, which starts at the step after the warm-up, in pieces of
    such multiples; the hints it has yet to read are all that is kept of the
    stream.
    """

    def __init__(self, n: int, dt_ms: float, params: ControllerParams,
                 thermal: ThermalParams, horizon_ms: float) -> None:
        self.mode = params.mode
        self.g = params.tracking_factor(dt_ms)
        self.setpoint = params.setpoint_c
        self.bias = 0.0     # actuator scan state
        self.lo = 0         # first step of the next chunk
        self.n = n
        if self.mode is Mode.REACTIVE:
            lag = steps_of(params.sensor_latency_ms, dt_ms)
            self.line = np.zeros(min(lag, n))   # readings in flight
        elif self.mode is Mode.PREDICTIVE:
            h_steps = steps_of(horizon_ms, dt_ms)
            lead = min(max(1, steps_of(params.lead_ms, dt_ms)), h_steps)
            self.warm = h_steps - lead
            self.wl = step_response_fraction(lead * dt_ms, thermal.tau_ms)
            self.thermal, self.dt_ms = thermal, dt_ms
            self.hints = np.empty(0)    # hint stream from step self.first on
            self.first = 0
            self.replica = 0.0          # scan state, seeded at step warm
            self.scanned = 0            # replica inputs consumed
            self.ready = np.empty(0)    # replica outputs not yet used

    def feed(self, hint_w: np.ndarray) -> None:
        """Pass the hints of the next steps of the stream."""
        if self.mode is Mode.PREDICTIVE:
            self.hints = np.concatenate((self.hints, hint_w))

    def _hint_w(self, lo: int, hi: int) -> np.ndarray:
        """The hints of steps [lo, hi)."""
        assert self.first <= lo and hi <= self.first + self.hints.size
        return self.hints[lo - self.first:hi - self.first]

    def __call__(self, dT: np.ndarray) -> np.ndarray:
        n = dT.size
        lo = self.lo
        self.lo += n
        if self.mode is Mode.OPEN_LOOP:
            return np.zeros(n)
        if self.mode is Mode.REACTIVE:
            sensed = dT
            if self.line.size:
                full = np.concatenate((self.line, dT))
                sensed, self.line = full[:n], full[n:]
            target = np.maximum(0.0, sensed - self.setpoint)
        else:
            ahead = self._ahead(dT, lo)
            target = np.maximum(0.0, np.maximum(dT, ahead) - self.setpoint)
        bias, self.bias = _one_pole(target, 1.0 - self.g, self.g, self.bias)
        return bias

    def _ahead(self, dT: np.ndarray, lo: int) -> np.ndarray:
        """The replica's lead-ahead delta over steps [lo, lo + dT.size)."""
        thermal, warm = self.thermal, self.warm
        hi = lo + dT.size
        ahead = np.empty(dT.size)
        upto = min(warm + 1, hi)
        if lo < upto:
            ahead[:upto - lo] = (1.0 - self.wl) * dT[:upto - lo] + \
                self.wl * thermal.gain * (self._hint_w(lo, upto) -
                                          thermal.p_baseline_w)
            if upto == warm + 1:
                self.replica = ahead[warm - lo]
        if hi > warm + 1:
            # matured: the replica integrates the hint stream at the lead
            # delay, input i (step warm + 1 + i) reading hint i + 1
            start = max(lo, warm + 1)
            need = hi - start
            if self.ready.size < need:
                i = self.scanned
                short = need - self.ready.size
                m = min(self.n - warm - 1 - i,
                        -(-short // _SCAN_MAX_BLOCK) * _SCAN_MAX_BLOCK)
                y, self.replica = _response(
                    self._hint_w(1 + i, 1 + i + m) - thermal.p_baseline_w,
                    thermal, self.dt_ms, self.replica)
                self.scanned += m
                self.ready = np.concatenate((self.ready, y))
            ahead[start - lo:] = self.ready[:need]
            self.ready = self.ready[need:]
        # keep the hints still to be read: the replica's next inputs, or
        # the warm-up's if the replica never starts
        keep = 1 + self.scanned if warm + 1 < self.n else hi
        self.hints = self.hints[keep - self.first:]
        self.first = keep
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
