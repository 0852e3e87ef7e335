"""Standard experiments: each produces artifact files under an output dir.

* ``validation90k``: the flagship 90,000-step dataset plus regression stats.
* ``transient300``: 300 steps at 1 ms from cold start, capturing the 80 ms
  rise; reports the extracted time constant.
* ``comparison``: reactive vs predictive vs open-loop on the same seeded
  burst workload (:func:`run_comparison`).
* ``fingerprint``: five-state staircase in open loop, then the six-panel
  fingerprint report.
* ``stabilization1800``: sustained 1,800 s predictive run (convenience
  extension of the standard four); summary-only, so it keeps no frame.

An experiment that writes telemetry writes its CSVs chunk by chunk as the
run goes (:func:`write_run`) and keeps only the columns it fits.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

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
from .controller import Mode, energy_margin_estimate
from .errors import ConfigError, UsageError
from .optics import assess
from .simulate import _summarize, write_run
from .telemetry import COLUMNS, TelemetryFrame, write_json
from .thermal import JUNCTION_CEILING_C


# the paper's headline: the maximum drift stays under 21 % of the budget
HEADLINE_BUDGET_FRACTION = 0.21


class ExperimentResult(NamedTuple):
    name: str
    files: tuple[Path, ...]
    summary: dict
    claims: tuple[fp.Claim, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)


def _csv_paths(out: Path, stem: str) -> list[Path]:
    return [out / f"{stem}_telemetry.csv", out / f"{stem}_forecast_log.csv"]


def _audit(violations: int) -> tuple:
    return ("causality audit", f"{violations} violations" if violations else
            "clean", "clean", not violations)


def _result(name: str, out: Path, files, summary: dict, *claims) -> ExperimentResult:
    """The result of experiment ``name``, its summary written as JSON; each
    claim a (parameter, measured, target, ok) tuple."""
    spath = out / f"{name}_summary.json"
    write_json(spath, summary)
    return ExperimentResult(name, (*files, spath), summary,
                            tuple(fp.claim(name, *c) for c in claims))


def _check_steps(cfg: RunConfig, least: int, fit: str) -> None:
    """Refuse, before a file is written, a run too short for its fit."""
    if cfg.workload.step_count < least:
        raise ConfigError(f"workload.step_count must be at least {least} for the "
                          f"{fit}, got {cfg.workload.step_count}")


def _run_validation90k(cfg: RunConfig, out: Path) -> ExperimentResult:
    _check_steps(cfg, 2, "validation90k fit of delta_t_c on rho")
    files = _csv_paths(out, "validation90k")
    run, audit, kept = write_run(cfg, *files, ("rho", "delta_t_c"))
    fit = fp.regress(kept["rho"], kept["delta_t_c"])
    summary = run.to_dict() | {"rho_dt_fit": fit._asdict(), "audit_ok": audit.ok}
    frac = assess(run.max_drift_nm, cfg.optics).budget_fraction
    peak = run.peak_junction_temp_c
    return _result(
        "validation90k", out, files, summary,
        ("density-temperature R^2", f"{fit.r_squared:.4f}", ">= 0.98",
         fit.r_squared >= 0.98),
        _audit(len(audit.violations)),
        ("peak junction temperature", f"{peak:.1f} C",
         f"<= {JUNCTION_CEILING_C:.0f} C", peak <= JUNCTION_CEILING_C),
        ("max drift", f"{run.max_drift_nm:.4f} nm ({frac:.2%} of the band)",
         f"< {HEADLINE_BUDGET_FRACTION:.0%} of {cfg.optics.tolerance_band_nm} nm",
         frac < HEADLINE_BUDGET_FRACTION))


def _run_transient300(cfg: RunConfig, out: Path) -> ExperimentResult:
    _check_steps(cfg, 4, "transient300 fit of tau_ms")
    files = _csv_paths(out, "transient300")
    run, audit, kept = write_run(cfg, *files, ("t_ms", "delta_t_c"))
    tau_est = fp.estimate_tau(kept["t_ms"], kept["delta_t_c"])
    tau_cfg = cfg.thermal.tau_ms
    summary = run.to_dict() | {"tau_est_ms": tau_est, "tau_configured_ms": tau_cfg}
    return _result("transient300", out, files, summary,
                   ("thermal time constant", f"{tau_est:.2f} ms",
                    f"{tau_cfg:g} ms (within 2 ms)", abs(tau_est - tau_cfg) <= 2.0),
                   _audit(len(audit.violations)))


# ---------------------------------------------------------------------------
# mode comparison

# the per-bit energy budget and the savings margin compression recovers
BASELINE_PJ_PER_BIT = 5.0
SAVINGS_PJ_PER_BIT = 0.85


class ModeResult(NamedTuple):
    mode: str
    max_drift_nm: float
    mean_drift_nm: float
    max_residual_c: float
    mean_residual_c: float
    budget_fraction: float


class ComparisonReport(NamedTuple):
    modes: tuple[ModeResult, ...]
    improvement_ratio: float | None     # reactive max drift / predictive max drift
    energy_margin_fraction: float
    energy_note: str
    seed: int
    notes: tuple[str, ...]
    audit_violations: int = 0           # causality audit, all mode runs

    @property
    def claims(self) -> tuple[fp.Claim, ...]:
        """Predictive drifts less than reactive; every mode run is causal."""
        ratio = self.improvement_ratio
        return (fp.claim("comparison", "improvement ratio",
                         "undefined" if ratio is None else f"{ratio:.2f}x",
                         "> 1 (reactive/predictive max drift)",
                         ratio is not None and ratio > 1.0),
                fp.claim("comparison", *_audit(self.audit_violations)))

    @property
    def audit_ok(self) -> bool:
        return not self.audit_violations

    def by_mode(self, name: str) -> ModeResult:
        for m in self.modes:
            if m.mode == name:
                return m
        raise KeyError(name)

    def to_dict(self) -> dict:
        """The fields in order, modes keyed by name, the audit as ``audit_ok``."""
        modes = {m.mode: {k: v for k, v in m._asdict().items() if k != "mode"}
                 for m in self.modes}
        d = self._asdict() | {"modes": modes, "notes": list(self.notes)}
        del d["audit_violations"]
        return d | {"audit_ok": self.audit_ok}

    def to_text(self) -> str:
        lines = [
            f"{'mode':<12} {'max drift':>10} {'mean drift':>11} "
            f"{'max resid':>10} {'budget':>8}",
            "-" * 56,
        ]
        for m in self.modes:
            lines.append(
                f"{m.mode:<12} {m.max_drift_nm:>8.4f} nm {m.mean_drift_nm:>8.4f} nm "
                f"{m.max_residual_c:>8.3f} C {m.budget_fraction:>7.1%}"
            )
        if self.improvement_ratio is not None:
            lines.append(f"improvement ratio (reactive/predictive): "
                         f"{self.improvement_ratio:.2f}x")
        lines.append(
            f"energy margin: {self.energy_margin_fraction:.0%} ({self.energy_note})"
        )
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)


def run_comparison(config: RunConfig) -> ComparisonReport:
    """Run the same seeded workload under each controller mode, in ``Mode``
    order.

    Every mode sees the identical workload plan (same config, same seed);
    results are therefore directly comparable and deterministic per seed.
    Each mode runs summary-only: no telemetry frame is built.
    """
    results = []
    violations = 0
    for mode in Mode:
        summary = _summarize(replace(
            config, controller=replace(config.controller, mode=mode)))
        violations += summary.audit_violations
        results.append(ModeResult(
            mode=mode.value,
            max_drift_nm=summary.max_drift_nm,
            mean_drift_nm=summary.mean_drift_nm,
            max_residual_c=summary.max_residual_c,
            mean_residual_c=summary.mean_residual_c,
            budget_fraction=assess(summary.max_drift_nm, config.optics).budget_fraction,
        ))

    by_mode = {r.mode: r for r in results}
    pred = by_mode["predictive"].max_drift_nm
    ratio = by_mode["reactive"].max_drift_nm / pred if pred > 0 else None

    return ComparisonReport(
        modes=tuple(results),
        improvement_ratio=ratio,
        energy_margin_fraction=energy_margin_estimate(
            BASELINE_PJ_PER_BIT, SAVINGS_PJ_PER_BIT
        ),
        energy_note="calculated savings, not directly measured",
        seed=config.seed,
        audit_violations=violations,
        notes=(
            "reactive baseline band and the improvement ratio are "
            "calibration-dependent (sensor latency tuned to the anecdotal "
            "0.8-1.2 nm industry band), not physics claims",
            "microheater steady draw 10-20 mW per channel (informational, "
            "not simulated electrically)",
        ),
    )


def _run_comparison(cfg: RunConfig, out: Path) -> ExperimentResult:
    report = run_comparison(cfg)
    jpath = out / "comparison.json"
    write_json(jpath, report.to_dict())
    tpath = out / "comparison.txt"
    tpath.write_text(report.to_text() + "\n")
    return ExperimentResult("comparison", (jpath, tpath), report.to_dict(),
                            report.claims)


def _run_fingerprint(cfg: RunConfig, out: Path) -> ExperimentResult:
    files = _csv_paths(out, "fingerprint")
    _, audit, columns = write_run(cfg, *files, COLUMNS)
    report = fp.build_report(TelemetryFrame(**columns), cfg)
    files.extend(fp.write_report(report, out))
    claims = (*report.pass_fail,
              fp.claim("fingerprint", *_audit(len(audit.violations))))
    return ExperimentResult("fingerprint", tuple(files), fp.report_dict(report),
                            claims)


def _run_stabilization(cfg: RunConfig, out: Path) -> ExperimentResult:
    # summary-only: no frame is kept, and no telemetry is written
    result = _summarize(cfg)
    stab = result.stabilization_ms
    return _result("stabilization1800", out, (), result.to_dict(),
                   ("stabilization time", "never" if stab is None else
                    f"{stab:.0f} ms", "<= 50000 ms",
                    stab is not None and stab <= 50_000.0),
                   ("stays in band", "yes" if result.stays_in_band else "no",
                    "yes", result.stays_in_band),
                   _audit(result.audit_violations))


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
