import numpy as np
import pytest

from cpodrift.errors import ConfigError, InputError
from cpodrift.optics import OpticParams, assess, drift

P = OpticParams()


def test_drift_reference_points():
    assert drift(40.0) == pytest.approx(3.408, abs=1e-9)
    assert drift(4.15) == pytest.approx(0.35358, abs=1e-9)
    assert drift(0.0) == 0.0


def test_drift_linear_and_sign_preserving():
    for t in (-20.0, -1.0, 0.5, 12.0):
        assert drift(3.0 * t) == pytest.approx(3.0 * drift(t), rel=1e-12)
        assert (drift(t) < 0) == (t < 0)
    for t in (np.array([12.0]), np.array([-1.0, 0.5])):
        assert drift(t).tobytes() == (P.kappa_to * t).tobytes()


def test_drift_rejects_nonfinite():
    with pytest.raises(InputError):
        drift(float("nan"))


def test_assess_budget_fraction_reference():
    a = assess(0.3536)
    assert a.budget_fraction == pytest.approx(0.208, abs=0.002)
    assert a.within_spec and a.within_tolerance


def test_assess_open_loop_stress():
    a = assess(3.408)
    assert not a.within_spec and not a.within_tolerance
    assert a.budget_fraction > 1.0


def test_assess_zero():
    a = assess(0.0)
    assert a.budget_fraction == 0.0
    assert a.within_spec and a.within_tolerance


def test_flags_monotone_in_magnitude():
    drifts = np.linspace(0.0, 4.0, 200)
    spec_flags = [assess(d).within_spec for d in drifts]
    tol_flags = [assess(d).within_tolerance for d in drifts]
    for flags in (spec_flags, tol_flags):
        # once a flag turns false it stays false as |drift| grows
        assert all(a or not b for a, b in zip(flags, flags[1:]))


def test_within_spec_temperature_threshold():
    # the temperature delta at which drift exactly fills the spec band
    params = OpticParams()
    limit = params.spec_band_nm / params.kappa_to
    assert limit == pytest.approx(0.5 / 0.0852, rel=1e-12)
    assert assess(drift(limit - 1e-9)).within_spec
    assert not assess(drift(limit + 1e-6)).within_spec


def test_symmetric_bands():
    assert assess(-0.49).within_spec
    assert not assess(-0.51).within_spec


def test_optic_params_validation():
    with pytest.raises(ConfigError):
        OpticParams(kappa_to=0.0)
    with pytest.raises(ConfigError):
        OpticParams(spec_band_nm=2.0, tolerance_band_nm=1.7)
