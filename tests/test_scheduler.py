import math

import numpy as np
import pytest

from cpodrift.errors import ConfigError, InputError, SliceViolationError
from cpodrift.scheduler import (
    Filtration,
    ForecastLog,
    QueueEntry,
    SchedulerConfig,
    causality_audit,
    forecast,
    ordered_sum,
    preposition_fraction,
    throttle_cut,
)
from cpodrift.thermal import ThermalParams, steady_state_delta_t
from cpodrift.workload import AffineMapParams, density_to_power

import oracle

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
                      slot_ms=1.0)


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

def _log(*stamps):
    """The log of EWMA hints issued and reading input at the given
    (issued, newest) stamp pairs."""
    issued, newest = np.array(stamps, dtype=float).reshape(-1, 2).T
    n = issued.size
    return ForecastLog(issued, np.full(n, 30.0), np.full(n, 50.0), newest,
                       np.ones(n, dtype=int))


def test_audit_clean_log():
    log = _log(*((t, t - 0.5) for t in (0.0, 1.0, 2.0)))
    rep = causality_audit(log, np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0]]))
    assert rep.ok and rep.n_checked == 3


def test_audit_detects_planted_future_read():
    log = _log(
        (0.0, 0.0),
        (1.0, 5.0),  # reads 4 ms into the future
    )
    rep = causality_audit(log, np.array([[0.0, 10.0], [1.0, 11.0]]))
    assert not rep.ok
    assert rep.violations == ((1.0, 5.0),)


def test_audit_tolerates_1e_9_ms_and_no_more():
    # a stamp 1e-9 ms past its issue is within the audit's rounding slack;
    # one twice as far is a read of the future
    issued = (0.0, 1000.0)
    log = _log(*((t, t + slack) for t in issued for slack in (1e-9, 2e-9)))
    rep = causality_audit(log, np.array([[0.0, 1.0]]))
    assert rep.n_checked == 4
    assert rep.violations == tuple((t, t + 2e-9) for t in issued)


def test_audit_empty_traces():
    rep = causality_audit(_log(), np.empty((0, 2)))
    assert rep.ok and rep.n_checked == 0 and rep.violations == ()


def test_audit_rejects_unsorted_traces():
    log = _log((5.0, 1.0), (2.0, 1.0))
    with pytest.raises(InputError):
        causality_audit(log, np.array([[0.0, 1.0]]))
    ok_log = _log((0.0, 0.0))
    with pytest.raises(InputError):
        causality_audit(ok_log, np.array([[1.0, 5.0], [0.0, 6.0]]))


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("stamps, power_times, want", [
    # a NaN compares false, so it neither unsorts a trace nor reads ahead
    (((0.0, 0.0), (_NAN, 0.0), (2.0, 1.0)), (0.0, 1.0, 2.0), ()),
    (((0.0, 0.0), (1.0, _NAN), (2.0, 1.0)), (0.0, 1.0, 2.0), ()),
    (((_NAN, _NAN), (_NAN, _NAN)), (_NAN, _NAN), ()),
    (((0.0, 0.0), (1.0, 1.0)), (0.0, _NAN, 1.0), ()),
    # an infinite stamp is ordered like any other
    (((0.0, 0.0), (1.0, 1.0), (_INF, 5.0)), (0.0, 1.0, 2.0), ()),
    (((0.0, 0.0), (_INF, 1.0), (_INF, 1.0)), (0.0, 1.0, 2.0), ()),
    (((0.0, 0.0), (1.0, 1.0), (2.0, _INF)), (0.0, 1.0, 2.0), ((2.0, _INF),)),
    (((-_INF, 0.0), (1.0, 1.0), (2.0, 1.0)), (0.0, 1.0, 2.0), ((-_INF, 0.0),)),
    (((0.0, 0.0), (1.0, 1.0)), (-_INF, 0.0, _INF, _INF), ()),
    # one stamp out of order
    (((0.0, 0.0), (2.0, 1.0), (1.0, 1.0), (3.0, 3.0)), (0.0, 1.0, 2.0),
     "forecast trace is not sorted"),
    (((0.0, 0.0), (1.0, 1.0)), (0.0, 2.0, 1.0, 3.0), "power trace is not sorted"),
], ids=["nan_issue", "nan_newest", "nan_everywhere", "nan_power", "inf_issue",
        "inf_issues_tied", "inf_newest", "minus_inf_issue", "inf_power",
        "unsorted_issue", "unsorted_power"])
def test_audit_of_nan_inf_and_unsorted_stamps(stamps, power_times, want):
    log = _log(*stamps)
    for power in (np.array(power_times), np.column_stack(
            (power_times, np.ones(len(power_times))))):
        if isinstance(want, str):
            with pytest.raises(InputError, match=want):
                causality_audit(log, power)
            continue
        rep = causality_audit(log, power)
        assert rep.n_checked == len(stamps)
        assert np.array_equal(rep.violations, want, equal_nan=True) \
            and len(rep.violations) == len(want)


def test_forecast_log_csv_round_trip(tmp_path):
    log = _log((0.0, 0.0), (1.0, 0.5))
    p = tmp_path / "log.csv"
    log.write_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "issued_at_ms,horizon_ms,forecast_w,newest_input_ms,source"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# throttle

THERMAL = ThermalParams()
GAIN = 0.95


def _projection(power_w, thermal=THERMAL, gain=GAIN):
    return (1.0 - gain) * steady_state_delta_t(
        thermal.r_th, max(0.0, power_w - thermal.p_baseline_w), thermal.gamma)


def _cut_one(rhos, forecast_w, cap):
    """``throttle_cut`` of a block of one slot."""
    n, after = throttle_cut(np.reshape(rhos, (1, -1)), [len(rhos)], [forecast_w],
                            cap, THERMAL, GAIN)
    return n[0], after[0]


def test_throttle_noop_under_cap():
    # peak-load projection with default headroom: 0.05 * 36.982 + idle share
    n, after = _cut_one([2.7], density_to_power(2.7), 4.15)
    assert n == 0
    assert after == pytest.approx(
        0.05 * steady_state_delta_t(0.451, 94.0), rel=1e-9
    )


def test_throttle_defers_lifo_until_under_cap():
    # the newest entries come out first: taking out the 0.9 alone leaves
    # 2.0, which still breaches the cap; taking out the 1.5 as well leaves
    # 0.5, which fits
    rhos = [0.5, 1.5, 0.9]
    total = 0.5 + 1.5 + 0.9
    cap = 1.0
    n, after = _cut_one(rhos, density_to_power(total), cap)
    assert n == 2
    assert _projection(density_to_power(total - 0.9)) > cap >= after
    assert after == _projection(density_to_power(max(total - 0.9 - 1.5, 0.0)))


def test_throttle_sums_the_slot_in_queue_order():
    # added left to right the four 1e-16 entries vanish against 1.0; a
    # compensated sum (the builtin sum() from Python 3.12) keeps them
    rhos = [1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1.0]
    in_order = 0.0
    for r in rhos:
        in_order += r
    assert ordered_sum(rhos) == in_order != math.fsum(rhos)

    def after(total):
        return _projection(density_to_power(total - rhos[-1]))

    assert after(in_order) != after(math.fsum(rhos))
    n, got = _cut_one(rhos, density_to_power(in_order), 1.0)
    assert n == 1 and got == after(in_order)


def test_throttle_cut_matches_the_oracle_loop():
    # the oracle pops QueueEntry items with its own law, one slot at a
    # time; the block cut takes out the same newest entries of every slot
    # of the block and leaves the same projection, bit for bit
    rng = np.random.default_rng(11)
    thermal = ThermalParams(gamma=0.8, p_baseline_w=3.0)
    wmap = AffineMapParams(p_peak_w=80.0, p_max_w=80.0)
    # mostly the slots of at most two entries the run holds
    sizes = np.where(rng.random(600) < 0.8, rng.integers(0, 3, 600),
                     rng.integers(3, 40, 600))
    entries = rng.uniform(0.0, 3.0, (600, 39)) * \
        10.0 ** rng.integers(-17, 1, (600, 39))
    forecast_w = rng.uniform(0.0, 120.0, 600)
    for cap, gain in rng.uniform((0.05, 0.0), (6.0, 1.0), (4, 2)).tolist():
        n, after = throttle_cut(entries, sizes, forecast_w, cap, thermal, gain,
                                wmap)
        for i, size in enumerate(sizes.tolist()):
            slot = [[QueueEntry(0.0, r), False]
                    for r in entries[i, :size].tolist()]
            popped, want = oracle.throttle(list(slot), float(forecast_w[i]),
                                           cap, gain, thermal, wmap)
            assert (n[i], after[i]) == (len(popped), want)
            assert all(a is b for a, b in zip(popped, slot[::-1]))
        assert 50 < np.count_nonzero(n) < 600


def test_throttle_empty_queue_noop():
    n, after = _cut_one([], 500.0, 0.1)
    assert n == 0 and after == _projection(500.0) > 0.1
