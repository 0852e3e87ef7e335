"""Standard experiments: each produces artifact files under an output dir.

* ``validation90k``: the flagship 90,000-step dataset plus regression stats.
* ``transient300``: 300 steps at 1 ms from cold start, capturing the 80 ms
  rise; reports the extracted time constant.
* ``comparison``: reactive vs predictive vs open-loop on the same seeded
  burst workload.
* ``fingerprint``: five-state staircase in open loop, then the six-panel
  fingerprint report.
* ``stabilization1800``: sustained 1,800 s predictive run (convenience
  extension of the standard four); summary-only, so it keeps no frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import fingerprint as fp
from .config import (
    DEFAULT_SEED,
    RunConfig,
    comparison_config,
    default_config,
    fingerprint_config,
    stabilization_config,
    transient_config,
)
from .controller import run_comparison
from .errors import UsageError
from .simulate import RunResult, _summarize, simulate
from .telemetry import write_csv
from .thermal import JUNCTION_CEILING_C


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    files: tuple[Path, ...]
    summary: dict
    ok: bool


def write_json(path: Path, payload: dict) -> None:
    """The JSON layout of every experiment artifact: indented, sorted keys."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _write_run(run: RunResult, out: Path, stem: str) -> list[Path]:
    files = []
    tpath = out / f"{stem}_telemetry.csv"
    write_csv(run.frame, tpath)
    files.append(tpath)
    fpath = out / f"{stem}_forecast_log.csv"
    run.forecast_log.write_csv(fpath)
    files.append(fpath)
    return files


def _run_validation90k(cfg: RunConfig, out: Path) -> ExperimentResult:
    run = simulate(cfg)
    files = _write_run(run, out, "validation90k")
    fit = fp.regress(run.frame.rho, run.frame.delta_t_c)
    summary = run.summary.to_dict() | {
        "rho_dt_fit": vars(fit) | {},
        "audit_ok": run.audit.ok,
    }
    spath = out / "validation90k_summary.json"
    write_json(spath, summary)
    files.append(spath)
    ok = fit.r_squared >= 0.98 and run.audit.ok and \
        run.summary.peak_junction_temp_c <= JUNCTION_CEILING_C
    return ExperimentResult("validation90k", tuple(files), summary, ok)


def _run_transient300(cfg: RunConfig, out: Path) -> ExperimentResult:
    run = simulate(cfg)
    files = _write_run(run, out, "transient300")
    tau_est = fp.estimate_tau(run.frame.t_ms, run.frame.delta_t_c)
    tau_cfg = cfg.thermal.tau_ms
    summary = run.summary.to_dict() | {
        "tau_est_ms": tau_est,
        "tau_configured_ms": tau_cfg,
    }
    spath = out / "transient300_summary.json"
    write_json(spath, summary)
    files.append(spath)
    ok = abs(tau_est - tau_cfg) <= 2.0
    return ExperimentResult("transient300", tuple(files), summary, ok)


def _run_comparison(cfg: RunConfig, out: Path) -> ExperimentResult:
    report = run_comparison(cfg)
    jpath = out / "comparison.json"
    write_json(jpath, report.to_dict())
    tpath = out / "comparison.txt"
    tpath.write_text(report.to_text() + "\n")
    ok = report.improvement_ratio is not None and report.improvement_ratio > 1.0
    return ExperimentResult("comparison", (jpath, tpath), report.to_dict(), ok)


def _run_fingerprint(cfg: RunConfig, out: Path) -> ExperimentResult:
    run = simulate(cfg)
    files = _write_run(run, out, "fingerprint")
    report = fp.build_report(run.frame, cfg)
    files.extend(fp.write_report(report, out))
    return ExperimentResult(
        "fingerprint", tuple(files), fp.report_dict(report), report.ok
    )


def _run_stabilization(cfg: RunConfig, out: Path) -> ExperimentResult:
    # summary-only: no frame is kept, and no telemetry is written
    result = _summarize(cfg)
    summary = result.to_dict()
    spath = out / "stabilization1800_summary.json"
    write_json(spath, summary)
    stab = result.stabilization_ms
    ok = stab is not None and stab <= 50_000.0 and result.stays_in_band
    return ExperimentResult("stabilization1800", (spath,), summary, ok)


# name -> (preset, runner)
_EXPERIMENTS = {
    "validation90k": (default_config, _run_validation90k),
    "transient300": (transient_config, _run_transient300),
    "comparison": (comparison_config, _run_comparison),
    "fingerprint": (fingerprint_config, _run_fingerprint),
    "stabilization1800": (stabilization_config, _run_stabilization),
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def _lookup(name: str):
    if name not in _EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {name!r}; expected one of {list(_EXPERIMENTS)}"
        )
    return _EXPERIMENTS[name]


def experiment_config(name: str, seed: int = DEFAULT_SEED) -> RunConfig:
    """The preset run config of a named experiment."""
    return _lookup(name)[0](seed)


def run_experiment(
    name: str,
    *,
    config: RunConfig | None = None,
    out_dir="out",
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    """Run a named experiment and write its artifact files.

    ``config`` replaces the experiment's preset (:func:`experiment_config`)
    entirely, ``seed`` included; without it the preset runs with ``seed``.
    """
    preset, runner = _lookup(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return runner(config if config is not None else preset(seed), out)
