"""First-order RC thermal plant and series boundary stack.

Heat flows from the electronic die into the photonic substrate through a
lumped RC network: the temperature delta responds to a dissipation delta
``dP`` with steady-state gain ``gamma * r_th`` and time constant ``tau``.
The integrator uses the exact exponential update for piecewise-constant
power, so composing many small steps equals one large step to rounding
error and the steady-state gain holds exactly.

Nominal calibration: r_th = 0.451 C/W, tau = 80 ms, gamma = 1, giving the
reference 0.451 * 82 = 36.982 C rise for an 82 W idle-to-peak swing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (AboveAbsoluteZero, ConfigError, Fraction, InputError,
                     Positive, StepSizeError, check_fields)


@dataclass(frozen=True)
class CouplingConfig:
    """Spatial coupling model across the die-to-substrate separation."""

    d_ref_um: float = 10.0     # separation at which coupling is unity
    d_decay_um: Positive = 5.0  # e-folding length of the decay

    def __post_init__(self) -> None:
        check_fields(self, "coupling")


def gamma_of_distance(d_um: float, coupling: CouplingConfig = CouplingConfig()) -> float:
    """Dimensionless coupling factor: exp(-(d - d_ref)/d_decay), clamped to (0, 1].

    Separations at or inside the reference distance couple fully (1.0).
    """
    if not d_um > 0:
        raise InputError(f"d_um must be > 0, got {d_um}")
    g = math.exp(-(d_um - coupling.d_ref_um) / coupling.d_decay_um)
    return min(g, 1.0)


@dataclass(frozen=True)
class ThermalParams:
    """Plant parameters.

    ``p_baseline_w`` is the operating point power that defines the zero of
    the temperature delta; all power inputs to :func:`step` are deltas above
    it (default 0 W, so idle dissipation produces a nonzero delta).
    """

    r_th: Positive = 0.451        # C/W, junction-to-substrate
    tau_ms: Positive = 80.0       # RC time constant
    gamma: Fraction = 1.0         # spatial coupling
    d_um: Positive | None = None  # optional separation; overrides gamma when set
    ambient_c: AboveAbsoluteZero = 45.0   # package reference temperature at idle
    p_baseline_w: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self, "thermal")

    @property
    def gain(self) -> float:
        """Steady-state gain gamma * r_th, C/W."""
        return self.gamma * self.r_th

    def with_distance(self, coupling: CouplingConfig = CouplingConfig()) -> "ThermalParams":
        """Resolve gamma from the configured separation, if any."""
        if self.d_um is None:
            return self
        return replace(self, gamma=gamma_of_distance(self.d_um, coupling))


class ThermalState(NamedTuple):
    """Lumped plant state at time t_ms."""

    delta_t_c: float = 0.0
    t_ms: float = 0.0


def steady_state_delta_t(r_th: float, delta_p_w: float, gamma: float = 1.0) -> float:
    """Converged temperature delta for a constant dissipation delta."""
    if not r_th > 0:
        raise InputError(f"r_th must be > 0, got {r_th}")
    return gamma * r_th * delta_p_w


def step_response_fraction(t_ms: float, tau_ms: float) -> float:
    """Fraction of the final value reached t_ms after a step: 1 - exp(-t/tau);
    also the preposition fraction, the actuator tracking and the 63.2 % mark."""
    if not tau_ms > 0:
        raise InputError(f"tau_ms must be > 0, got {tau_ms}")
    if t_ms < 0:
        raise InputError(f"t_ms must be >= 0, got {t_ms}")
    return 1.0 - math.exp(-t_ms / tau_ms)


# The scan scales by a^(+-j), j < B. Keeping |log a^B| <= 500 holds those
# factors within e^(+-500), so inputs up to SCAN_MAX_INPUT neither overflow
# nor underflow; poles far from 1 (the actuator's 1 - g ~ 0.40) get short
# blocks. A scan cuts its input into blocks of B from its first step on,
# however it is called: the carry holds the open block.
_SCAN_LOG_SPAN = 500.0
_SCAN_MAX_BLOCK = 4096
SCAN_MAX_INPUT = 1e80


@functools.lru_cache(maxsize=16)
def _scan_block(pole: float) -> int:
    """Largest power-of-two scan block B for a nonzero pole with |log |a|^B|
    in range."""
    log_a = abs(math.log(abs(pole)))
    if log_a == 0.0:
        return _SCAN_MAX_BLOCK
    b = max(1, min(_SCAN_MAX_BLOCK, int(_SCAN_LOG_SPAN / log_a)))
    return 1 << (b.bit_length() - 1)


@functools.lru_cache(maxsize=16)
def _scan_factors(pole: float, gain_in: float,
                  block: int) -> tuple[np.ndarray, np.ndarray]:
    """a^j and gain * a^-j for j < block, read-only: every call of a scan
    scans with the same ones."""
    powers = pole ** np.arange(block, dtype=float)
    scaled_gain = gain_in / powers
    powers.flags.writeable = scaled_gain.flags.writeable = False
    return powers, scaled_gain


_Carry = tuple[float, np.ndarray] | float


def _one_pole(x: np.ndarray, pole: float, gain_in: float, carry: _Carry,
              scale: float = 1.0, offset: float = 0.0
              ) -> tuple[np.ndarray, _Carry]:
    """y[n] = pole * y[n-1] + gain_in * u[n] with u = (x - offset) * scale,
    continuing a scan from ``carry``: the state entering the scan's open
    block and that block's inputs u so far, or a bare float, the state
    before the scan's first step.

    A blocked scan (Blelloch 1990) in one output buffer: u is written into
    it, and within a block of B steps y[j] = a^j * cumsum(gain_in * u * a^-j),
    the state entering each block (carried across blocks with pole a^B)
    folded into its column 0.

    Returns y and the carry after it. A call scans the open block of
    ``carry`` again, followed by ``x``, and returns only the new outputs.
    Within a block an output depends on no later input, so a scan cut
    anywhere, each piece continued from the carry the last one returned,
    gives the one-call scan bit for bit.
    """
    state, held = carry if isinstance(carry, tuple) else (carry, np.empty(0))
    k, n = held.size, held.size + np.size(x)
    block = _scan_block(pole) if pole != 0.0 and n > 1 else 1
    n_blocks = -(-n // block)
    y = np.empty(n_blocks * block)
    y[:k] = held
    u = np.subtract(x, offset, out=y[k:n])
    if scale != 1.0:
        u *= scale
    if pole == 0.0 or k == n:
        return gain_in * u, carry
    if n == 1:  # the scan's arithmetic for one element
        return np.array([gain_in * u[0] + pole * state]), (state, u)
    powers, scaled_gain = _scan_factors(pole, gain_in, block)

    y[n:] = 0.0
    opened = y[n - n % block:n].copy()
    rows = y.reshape(n_blocks, block)
    rows *= scaled_gain

    # block ends without the incoming state, then the state entering each;
    # numpy's row sums, unlike a BLAS product, round each row the same
    # whatever the number of rows, so a scan cut in pieces keeps its bits
    ends = (rows.sum(axis=1) * powers[-1]).tolist()
    pole_block = powers[-1] * pole
    starts = []
    for end in ends:
        starts.append(state)
        state = pole_block * state + end
    rows[:, 0] += pole * np.asarray(starts)
    np.cumsum(rows, axis=1, out=rows)
    rows *= powers
    return y[k:n], (starts[-1] if opened.size else state, opened)


def _response(power_w, params: ThermalParams, dt_ms: float, carry: _Carry,
              baseline_w: float = 0.0) -> tuple[np.ndarray, _Carry]:
    """:func:`respond` to ``power_w - baseline_w`` continuing the plant's
    scan from ``carry``, returning the carry after it: a run cut anywhere,
    each piece continued from the carry the last one returned, gives the
    one-call response bit for bit. The scan scales the inputs itself.
    """
    if not dt_ms > 0:
        raise StepSizeError(f"dt_ms must be > 0, got {dt_ms}")
    decay = math.exp(-dt_ms / params.tau_ms)
    return _one_pole(power_w, decay, 1.0 - decay, carry, params.gain,
                     baseline_w)


def respond(
    power_w,
    params: ThermalParams,
    dt_ms: float,
    delta_t_c: float = 0.0,
) -> np.ndarray:
    """Plant temperature delta at the end of each step of a power sequence.

    ``power_w[n]`` is the dissipation delta above ``params.p_baseline_w``
    held over step n, and ``delta_t_c`` the delta entering the first step.
    Each step applies

        dT' = dT * exp(-dt/tau) + gain * dP * (1 - exp(-dt/tau)),

    the analytic response to piecewise-constant input, so no discretization
    error accumulates regardless of dt. To continue a run, pass its last
    output back as ``delta_t_c``.
    """
    return _response(power_w, params, dt_ms, delta_t_c)[0]


def step(
    state: ThermalState,
    power_w: float,
    dt_ms: float,
    params: ThermalParams = ThermalParams(),
) -> ThermalState:
    """Advance the plant by dt_ms under a constant dissipation delta: the
    one-step :func:`respond`."""
    new_delta = float(respond((power_w,), params, dt_ms, state.delta_t_c)[0])
    return ThermalState(delta_t_c=new_delta, t_ms=state.t_ms + dt_ms)


# ---------------------------------------------------------------------------
# series boundary stack

DEFAULT_BOUNDARY_NAMES = ("Junction-to-Case", "Case-to-Heatsink", "Heatsink-to-Ambient")
DEFAULT_BOUNDARY_CUMULATIVE = (0.812, 1.407, 1.995)  # C/W, outward from junction


@dataclass(frozen=True)
class BoundaryStack:
    """Series thermal boundaries, junction outward to ambient.

    ``cumulative`` is authoritative (the calibration is specified as
    cumulative milestones); per-stage resistances are its differences.
    """

    names: tuple[str, ...] = DEFAULT_BOUNDARY_NAMES
    cumulative: tuple[float, ...] = DEFAULT_BOUNDARY_CUMULATIVE

    def __post_init__(self) -> None:
        check_fields(self, "boundary")
        if len(self.names) != len(self.cumulative):
            raise ConfigError(
                f"boundary.cumulative has {len(self.cumulative)} stages, "
                f"boundary.names {len(self.names)}"
            )
        if not self.cumulative:
            raise ConfigError("boundary.cumulative: at least one stage required")
        prev = 0.0
        for i, c in enumerate(self.cumulative):
            if not c > prev:
                raise ConfigError(
                    f"boundary.cumulative[{i}] = {c} must exceed {prev}"
                )
            prev = c


def boundary_temperatures(
    stack: BoundaryStack, delta_p_w: float, ambient_c: float
) -> tuple[tuple[str, float], ...]:
    """Absolute temperature at each boundary: ambient + cumulative_k * dP.

    Returned junction-first (outermost stage last).
    """
    if delta_p_w < 0:
        raise InputError(f"delta_p_w must be >= 0, got {delta_p_w}")
    return tuple(
        (name, ambient_c + c * delta_p_w)
        for name, c in zip(stack.names, stack.cumulative)
    )


JUNCTION_CEILING_C = 85.0   # absolute junction temperature limit


def junction_temperature(
    delta_p_w: float, params: ThermalParams = ThermalParams()
) -> float:
    """Absolute junction temperature for a dissipation delta above idle.

    The reference temperature (``ambient_c``) is the package temperature at
    the idle operating point, so only the rise above idle is added.
    """
    return params.ambient_c + steady_state_delta_t(params.r_th, delta_p_w, params.gamma)


def peak_junction_temperature(peak_delta_t_c: float, p_idle_w: float,
                              params: ThermalParams) -> float:
    """Absolute junction temperature at a run's peak plant delta (measured
    from ``p_baseline_w``), less the idle steady state ``ambient_c`` covers."""
    idle_ss = params.gain * (p_idle_w - params.p_baseline_w)
    return params.ambient_c + peak_delta_t_c - idle_ss
