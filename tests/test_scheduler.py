import math

import numpy as np
import pytest

from cpodrift.errors import ConfigError, InputError, SliceViolationError
from cpodrift.scheduler import (
    Filtration,
    ForecastLog,
    HintForecast,
    QueueEntry,
    SchedulerConfig,
    causality_audit,
    forecast,
    lifo_cut,
    ordered_sum,
    preposition_fraction,
    throttle_decision,
)
from cpodrift.thermal import ThermalParams, steady_state_delta_t
from cpodrift.workload import AffineMapParams, density_to_power

CFG = SchedulerConfig()


def test_preposition_fraction_reference_endpoints():
    assert preposition_fraction(20.0, 80.0) == pytest.approx(0.22120, abs=1e-4)
    assert preposition_fraction(50.0, 80.0) == pytest.approx(0.46474, abs=1e-4)
    assert preposition_fraction(0.0, 80.0) == 0.0


def test_preposition_fraction_monotonicity():
    horizons = np.linspace(20.0, 50.0, 31)
    etas = [preposition_fraction(float(h), 80.0) for h in horizons]
    assert all(a < b for a, b in zip(etas, etas[1:]))
    assert all(0.2211 <= e <= 0.4648 for e in etas)
    taus = np.linspace(40.0, 160.0, 25)
    etas_tau = [preposition_fraction(30.0, float(t)) for t in taus]
    assert all(a > b for a, b in zip(etas_tau, etas_tau[1:]))


def test_preposition_fraction_validation():
    with pytest.raises(InputError):
        preposition_fraction(-1.0, 80.0)
    with pytest.raises(InputError):
        preposition_fraction(10.0, 0.0)


def _filtration(now=100.0, queue=(), history=()):
    return Filtration(now_ms=now, power_history=history, queue=queue,
                      queue_depth=sum(e.n_streams for e in queue), slot_ms=1.0)


def test_forecast_constant_history_fallback():
    hist = tuple((float(t), 50.0) for t in range(80, 101))
    hint = forecast(_filtration(history=hist), 100.0, 30.0)
    assert hint.forecast_w == pytest.approx(50.0, rel=1e-12)
    assert hint.source == "ewma"


def test_forecast_queue_replay_hits_peak_dispatch():
    q = (QueueEntry(dispatch_t_ms=130.0, rho=2.7, admitted_t_ms=60.0),)
    hint = forecast(_filtration(queue=q), 100.0, 30.0)
    assert hint.forecast_w == pytest.approx(94.0, abs=1e-9)
    assert hint.source == "queue_replay"
    assert hint.newest_input_ms == 60.0


def test_forecast_slice_violation_strict_boundary():
    with pytest.raises(SliceViolationError):
        forecast(_filtration(), 100.0, 80.0,
                 SchedulerConfig(horizon_ms=30.0, horizon_max_ms=90.0,
                                 t_slice_ms=80.0, admission_lead_ms=100.0))


def test_forecast_horizon_bounds():
    with pytest.raises(InputError):
        forecast(_filtration(), 100.0, 10.0)
    with pytest.raises(InputError):
        forecast(_filtration(), 100.0, 55.0)


def test_forecast_overhead_budget():
    cfg = SchedulerConfig(horizon_ms=45.0, horizon_max_ms=50.0, overhead_ms=30.0)
    with pytest.raises(SliceViolationError):
        # 80 - 50 = 30 ms left, which the 30 ms overhead no longer fits
        forecast(_filtration(), 100.0, 50.0, cfg)


def test_forecast_never_reads_future():
    q = (QueueEntry(dispatch_t_ms=130.0, rho=1.0, admitted_t_ms=90.0),)
    hist = ((99.0, 40.0), (100.0, 41.0))
    hint = forecast(_filtration(queue=q, history=hist), 100.0, 30.0)
    assert hint.newest_input_ms <= hint.issued_at_ms


def test_filtration_rejects_future_stamps():
    with pytest.raises(InputError):
        Filtration(now_ms=10.0, power_history=((11.0, 5.0),))
    with pytest.raises(InputError):
        Filtration(now_ms=10.0,
                   queue=(QueueEntry(20.0, 1.0, admitted_t_ms=12.0),))


def test_scheduler_config_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(horizon_ms=90.0, horizon_max_ms=95.0)  # >= t_slice
    with pytest.raises(ConfigError):
        SchedulerConfig(horizon_ms=10.0)  # below min bound
    with pytest.raises(ConfigError):
        SchedulerConfig(forecaster="oracle")
    with pytest.raises(ConfigError):
        SchedulerConfig(admission_lead_ms=40.0)  # < horizon_max
    with pytest.raises(ConfigError):
        SchedulerConfig(t_slice_ms=0.0)


# ---------------------------------------------------------------------------
# causality audit

def _log_entry(issued, newest, fw=50.0):
    return HintForecast(horizon_ms=30.0, forecast_w=fw, issued_at_ms=issued,
                        source="ewma", newest_input_ms=newest)


def test_audit_clean_log():
    log = ForecastLog.from_hints(_log_entry(t, t - 0.5) for t in (0.0, 1.0, 2.0))
    rep = causality_audit(log, np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0]]))
    assert rep.ok and rep.n_checked == 3


def test_audit_detects_planted_future_read():
    log = ForecastLog.from_hints((
        _log_entry(0.0, 0.0),
        _log_entry(1.0, 5.0),  # reads 4 ms into the future
    ))
    rep = causality_audit(log, np.array([[0.0, 10.0], [1.0, 11.0]]))
    assert not rep.ok
    assert rep.violations == ((1.0, 5.0),)


def test_audit_empty_traces():
    rep = causality_audit(ForecastLog.from_hints(()), np.empty((0, 2)))
    assert rep.ok and rep.n_checked == 0 and rep.violations == ()


def test_audit_rejects_unsorted_traces():
    log = ForecastLog.from_hints((_log_entry(5.0, 1.0), _log_entry(2.0, 1.0)))
    with pytest.raises(InputError):
        causality_audit(log, np.array([[0.0, 1.0]]))
    ok_log = ForecastLog.from_hints((_log_entry(0.0, 0.0),))
    with pytest.raises(InputError):
        causality_audit(ok_log, np.array([[1.0, 5.0], [0.0, 6.0]]))


def test_forecast_log_csv_round_trip(tmp_path):
    log = ForecastLog.from_hints((_log_entry(0.0, 0.0), _log_entry(1.0, 0.5)))
    p = tmp_path / "log.csv"
    log.write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "issued_at_ms,horizon_ms,forecast_w,newest_input_ms,source"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# throttle

THERMAL = ThermalParams()


def _hint_with_queue(rhos, issued=100.0, horizon=30.0):
    q = tuple(
        QueueEntry(dispatch_t_ms=issued + horizon, rho=r, admitted_t_ms=50.0)
        for r in rhos
    )
    f = _filtration(now=issued, queue=q)
    return HintForecast(
        horizon_ms=horizon,
        forecast_w=density_to_power(sum(rhos)),
        issued_at_ms=issued, source="queue_replay",
        newest_input_ms=50.0, filtration=f,
    )


def test_throttle_noop_under_cap():
    # peak-load projection with default headroom: 0.05 * 36.982 + idle share
    hint = _hint_with_queue([2.7])
    d = throttle_decision(hint, 4.15, THERMAL)
    assert not d.fired and d.deferred == ()
    assert d.projected_residual_c == pytest.approx(
        0.05 * steady_state_delta_t(0.451, 94.0), rel=1e-9
    )


def test_throttle_defers_lifo_until_under_cap():
    hint = _hint_with_queue([0.9, 0.9, 0.9])
    cap = 1.0
    d = throttle_decision(hint, cap, THERMAL)
    assert d.fired
    assert d.projected_after_c <= cap
    # LIFO: the most recently enqueued entries go first
    assert d.deferred[0] is hint.filtration.queue[-1]
    # oracle: recompute the projection from the kept entries
    kept_rho = sum(e.rho for e in hint.filtration.queue) - sum(
        e.rho for e in d.deferred
    )
    expected = 0.05 * steady_state_delta_t(
        THERMAL.r_th, density_to_power(max(kept_rho, 0.0)), THERMAL.gamma
    )
    assert d.projected_after_c == pytest.approx(expected, rel=1e-9)


def test_throttle_sums_the_slot_in_queue_order():
    # added left to right the four 1e-16 entries vanish against 1.0; a
    # compensated sum (the builtin sum() from Python 3.12) keeps them
    rhos = [1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1.0]
    in_order = 0.0
    for r in rhos:
        in_order += r
    assert ordered_sum(rhos) == in_order != math.fsum(rhos)

    def after(total):
        return (1.0 - 0.95) * steady_state_delta_t(
            THERMAL.r_th, density_to_power(total - rhos[-1]), THERMAL.gamma)

    assert after(in_order) != after(math.fsum(rhos))
    d = throttle_decision(_hint_with_queue(rhos), 1.0, THERMAL)
    assert d.deferred == (d.deferred[0],) and d.deferred[0].rho == 1.0
    assert d.projected_after_c == after(in_order)


def _lifo_loop(rhos, forecast_w, cap, thermal, gain, wmap):
    """The LIFO cut one entry at a time, in scalar arithmetic."""
    def projection(power_w):
        return (1.0 - gain) * steady_state_delta_t(
            thermal.r_th, max(0.0, power_w - thermal.p_baseline_w), thermal.gamma)

    after = projection(forecast_w)
    remaining = 0.0
    for r in rhos:
        remaining += r
    n = 0
    for r in reversed(rhos):
        if after <= cap:
            break
        n += 1
        remaining -= r
        after = projection(density_to_power(max(remaining, 0.0), wmap))
    return n, after


def test_lifo_cut_matches_the_entry_at_a_time_loop():
    rng = np.random.default_rng(11)
    thermal = ThermalParams(gamma=0.8, p_baseline_w=3.0)
    wmap = AffineMapParams(p_peak_w=80.0, p_max_w=80.0)
    fired = 0
    for _ in range(400):
        size = int(rng.integers(0, 40))
        rhos = rng.uniform(0.0, 3.0, size) * 10.0 ** rng.integers(-17, 1, size)
        forecast_w = float(rng.uniform(0.0, 120.0))
        cap = float(rng.uniform(0.05, 6.0))
        gain = float(rng.uniform(0.0, 1.0))
        want = _lifo_loop(rhos.tolist(), forecast_w, cap, thermal, gain, wmap)
        assert lifo_cut(rhos, forecast_w, cap, thermal, gain, wmap) == want
        fired += want[0] > 0
    assert 50 < fired < 400


def test_throttle_empty_queue_noop():
    hint = HintForecast(horizon_ms=30.0, forecast_w=500.0, issued_at_ms=0.0,
                        filtration=_filtration(now=0.0))
    d = throttle_decision(hint, 0.1, THERMAL)
    assert not d.fired


def test_throttle_validates_cap():
    hint = _hint_with_queue([1.0])
    with pytest.raises(InputError):
        throttle_decision(hint, 0.0, THERMAL)
