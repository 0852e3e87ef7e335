"""Schema-driven config fuzz: every config either runs cleanly and matches
the per-step oracle, or is rejected with a ConfigError naming its field.

Each draw perturbs one to three numeric leaves of the comparison preset's
JSON layout (``config_to_dict``), picks the mode, the forecaster and the
throttle gain, and runs 1 to 900 steps. The generator is seeded, so the
draws are the same on every run.
"""

from __future__ import annotations

import copy
import re
import warnings

import numpy as np
import pytest

from cpodrift.config import comparison_config, config_from_dict, config_to_dict
from cpodrift.controller import Mode
from cpodrift.errors import ConfigError
from cpodrift.simulate import simulate
from oracle import plan_oracle, simulate_oracle

DRAWS = 150
PERTURBATIONS = (
    lambda x: x * 0, lambda x: x * 0.5, lambda x: x * 2, lambda x: x * 10,
    lambda x: x * 100, lambda x: 1e-300, lambda x: 1e300, lambda x: -x,
)
FLOAT_COLS = ("t_ms", "rho", "t24", "p_eic_w", "hint_w", "eta", "delta_t_c",
              "bias_c", "residual_c", "drift_nm", "ttft_ms")
EQUIV_COLS = ("rho", "t24", "p_eic_w", "eta", "delta_t_c", "bias_c",
              "residual_c", "drift_nm", "ttft_ms")


def _leaves(node, path=()):
    """(path, value) of every leaf of a parsed JSON config; a list's items
    are leaves under their index."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _field_paths(node, prefix=""):
    """The dotted path of every field of a parsed JSON config."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from _field_paths(value, path + ".")


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _draw(rng, base, numeric):
    data = copy.deepcopy(base)
    data["controller"]["mode"] = str(rng.choice([m.value for m in Mode]))
    data["scheduler"]["forecaster"] = str(rng.choice(["queue_replay", "ewma"]))
    data["scheduler"]["throttle_compensation_gain"] = float(
        rng.choice([0.95, 0.9, 0.5]))
    data["workload"]["step_count"] = int(rng.integers(1, 901))
    for i in rng.choice(len(numeric), size=rng.integers(1, 4), replace=False):
        path, value = numeric[i]
        _set(data, path, PERTURBATIONS[rng.integers(len(PERTURBATIONS))](value))
    return data


def _assert_runs_cleanly(run):
    cfg = run.config
    ref = simulate_oracle(cfg)
    for col in FLOAT_COLS:
        assert np.isfinite(getattr(run.frame, col)).all(), col
    assert run.audit.ok
    s = run.summary
    planned = plan_oracle(cfg.workload, cfg.seed).rho.sum()
    assert planned == pytest.approx(
        run.frame.rho.sum() + s.shed_density + s.outstanding_density,
        rel=1e-9, abs=1e-9)
    for col in EQUIV_COLS:
        a, b = getattr(run.frame, col), getattr(ref.frame, col)
        scale = max(1.0, float(np.abs(b).max()))
        assert np.abs(a - b).max() <= 1e-12 * scale, col
    np.testing.assert_allclose(run.frame.hint_w, ref.frame.hint_w, rtol=0,
                               atol=1e-9)
    assert np.array_equal(run.frame.queue_depth, ref.frame.queue_depth)
    assert s.throttle_deferrals == ref.summary.throttle_deferrals
    assert s.shed_entries == ref.summary.shed_entries
    assert s.outstanding_entries == ref.summary.outstanding_entries


def test_every_fuzzed_config_runs_cleanly_or_names_its_field():
    base = config_to_dict(comparison_config())
    numeric = [(path, value) for path, value in _leaves(base)
               if isinstance(value, (int, float)) and not isinstance(value, bool)
               and path != ("workload", "step_count")]
    paths = set(_field_paths(base))
    rng = np.random.default_rng(2026)
    outcomes = {"rejected": 0, "ran": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(DRAWS):
            data = _draw(rng, base, numeric)
            try:
                run = simulate(config_from_dict(data))
            except ConfigError as exc:
                # the message opens with the dotted field it rejects
                named = re.match(r"[a-z_]+(\.[a-z_0-9]+)*", str(exc))
                assert named and named.group() in paths, (data, str(exc))
                outcomes["rejected"] += 1
                continue
            _assert_runs_cleanly(run)
            outcomes["ran"] += 1
    # both classes are exercised
    assert min(outcomes.values()) >= DRAWS // 10, outcomes
