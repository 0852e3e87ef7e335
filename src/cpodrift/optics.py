"""Thermo-optic layer: temperature delta to resonant-wavelength drift.

Drift is linear in the ring temperature delta through the thermo-optic
coefficient (0.0852 nm/C nominal) and is judged against two symmetric
budgets: the +/-0.5 nm per-channel operational spec band and the +/-1.7 nm
tolerance band beyond which bit-error-rate degradation becomes measurable.
Only drift magnitude matters; no BER curve is modeled, crossing the
tolerance band just sets a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, Positive, check_fields


@dataclass(frozen=True)
class OpticParams:
    kappa_to: Positive = 0.0852     # nm/C
    spec_band_nm: float = 0.5       # operational spectral budget
    tolerance_band_nm: float = 1.7  # BER tolerance budget

    def __post_init__(self) -> None:
        check_fields(self, "optics")
        if not 0 < self.spec_band_nm < self.tolerance_band_nm:
            raise ConfigError(
                f"optics.spec_band_nm = {self.spec_band_nm} must be in (0, "
                f"optics.tolerance_band_nm = {self.tolerance_band_nm})"
            )


class DriftAssessment(NamedTuple):
    drift_nm: float
    budget_fraction: float   # |drift| / tolerance band
    within_spec: bool
    within_tolerance: bool


def drift(delta_t_c, params: OpticParams = OpticParams()):
    """Resonant wavelength drift, nm: kappa_to * delta_t. Accepts arrays,
    one element long too, and gives an array for them."""
    if np.ndim(delta_t_c):
        return params.kappa_to * delta_t_c
    if not math.isfinite(float(delta_t_c)):
        raise InputError(f"delta_t_c must be finite, got {delta_t_c!r}")
    return params.kappa_to * float(delta_t_c)


def assess(drift_nm: float, params: OpticParams = OpticParams()) -> DriftAssessment:
    """Judge a drift magnitude against the spec and tolerance budgets."""
    mag = abs(drift_nm)
    return DriftAssessment(
        drift_nm=drift_nm,
        budget_fraction=mag / params.tolerance_band_nm,
        within_spec=mag <= params.spec_band_nm,
        within_tolerance=mag <= params.tolerance_band_nm,
    )
