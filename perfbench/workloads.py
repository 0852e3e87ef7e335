"""The four benchmark workloads, each driven through the public calls the
``cpodrift`` CLI makes.

A workload has two timed parts. ``configure(seed, scale)`` builds the run
config and is timed with ``import cpodrift`` as set-up. ``run(cfg, seed, out,
inputs)`` is timed as the run and returns an :class:`Outcome`.

``scale`` shrinks every step count and schedule hold for the smoke test. The benchmark itself
always runs at scale 1.

The modules are called through their package attributes at call time, never
through names bound at import. A traced run swaps those attributes for timing
wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Workload name -> why it is in the benchmark.
WHY = {
    "validation90k": "flagship experiment: 90k vector-path steps, then the "
                     "telemetry CSV, forecast-log CSV and summary writes",
    "fingerprint_csv": "cpodrift fingerprint path: read a 90k telemetry CSV, "
                       "build and write the fingerprint report",
    "stabilization1800": "scale and memory: 1.8M vector-path steps and the "
                         "summary, no file I/O",
    "throttle_burst": "one burst cycle where the throttle fires: the only "
                      "per-step hint, throttle, controller and plant path",
}
NAMES = tuple(WHY)


@dataclass
class Outcome:
    ok: bool                    # the workload's own correctness gate
    rows: int                   # telemetry rows simulated, or read
    files: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)   # must repeat per seed
    why_not_ok: str = ""


def _scaled(cfg, scale: float):
    """``cfg`` with its step count and schedule holds shrunk by ``scale``."""
    if scale == 1:
        return cfg
    wl = cfg.workload
    return replace(cfg, workload=replace(
        wl, step_count=max(1, round(wl.step_count * scale)),
        schedule=tuple((state, ms * scale) for state, ms in wl.schedule)))


def nan_by_column(frame) -> dict:
    """NaN count of every numeric telemetry column, keyed ``nan.<column>``."""
    import numpy as np

    import cpodrift

    return {
        f"nan.{c}": int(np.isnan(np.asarray(getattr(frame, c), dtype=float)).sum())
        for c in cpodrift.COLUMNS if c != "load_state"
    }


def _summary_counters(summary: dict) -> dict:
    return {k: summary[k]
            for k in ("steps", "throttle_deferrals", "audit_violations")}


# -- validation90k ----------------------------------------------------------

def configure_validation90k(seed, scale):
    import cpodrift
    return _scaled(cpodrift.default_config(seed), scale)


def run_validation90k(cfg, seed, out, inputs):
    import cpodrift
    res = cpodrift.run_experiment("validation90k", config=cfg, out_dir=out,
                                  seed=seed)
    return Outcome(ok=res.ok, rows=res.summary["steps"],
                   files=[str(f) for f in res.files],
                   counters=_summary_counters(res.summary),
                   why_not_ok="" if res.ok else "experiment verdict failed")


# -- stabilization1800 ------------------------------------------------------

def configure_stabilization1800(seed, scale):
    import cpodrift
    return _scaled(cpodrift.stabilization_config(seed), scale)


def run_stabilization1800(cfg, seed, out, inputs):
    import cpodrift
    res = cpodrift.run_experiment("stabilization1800", config=cfg,
                                  out_dir=out, seed=seed)
    return Outcome(ok=res.ok, rows=res.summary["steps"],
                   files=[str(f) for f in res.files],
                   counters=_summary_counters(res.summary),
                   why_not_ok="" if res.ok else "did not stabilize in band")


# -- fingerprint_csv --------------------------------------------------------

def prepare_fingerprint_csv(seed, scale, path):
    """Write the input telemetry CSV: the default 90k run for ``seed``."""
    import cpodrift
    run = cpodrift.simulate(_scaled(cpodrift.default_config(seed), scale))
    cpodrift.write_csv(run.frame, path)


def configure_fingerprint_csv(seed, scale):
    import cpodrift
    return cpodrift.default_config(seed)


def run_fingerprint_csv(cfg, seed, out, inputs):
    import cpodrift
    frame = cpodrift.read_csv(inputs)
    report = cpodrift.build_report(frame, cfg)
    files = cpodrift.fingerprint.write_report(report, out)
    failed = [row for row in report.pass_fail if not row.ok]
    return Outcome(ok=report.ok, rows=frame.n, files=[str(f) for f in files],
                   counters={"rows": frame.n} | nan_by_column(frame),
                   why_not_ok=f"{len(failed)} fingerprint checks failed")


# -- throttle_burst ---------------------------------------------------------

def configure_throttle_burst(seed, scale):
    import cpodrift
    cfg = cpodrift.comparison_config(seed)
    cycle_ms = sum(d for _, d in cpodrift.workload.BURST_SCHEDULE)
    steps = round(cycle_ms / cfg.workload.step_period_ms)
    cfg = replace(
        cfg,
        workload=replace(cfg.workload, step_count=steps),
        scheduler=replace(cfg.scheduler, throttle_compensation_gain=0.9),
    )
    return _scaled(cfg, scale)


def run_throttle_burst(cfg, seed, out, inputs):
    import numpy as np

    import cpodrift
    run = cpodrift.simulate(cfg)
    frame = run.frame
    finite = all(
        np.isfinite(np.asarray(getattr(frame, c), dtype=float)).all()
        for c in cpodrift.COLUMNS if c != "load_state"
    ) and all(isinstance(s, str) and s for s in frame.load_state)
    checks = {
        "audit failed": run.audit.ok,
        "non-finite column": finite,
        f"{frame.n} rows, expected {cfg.workload.step_count}":
            frame.n == cfg.workload.step_count,
    }
    failed = [k for k, good in checks.items() if not good]
    return Outcome(
        ok=not failed, rows=frame.n,
        counters={"steps": frame.n,
                  "throttle_deferrals": run.summary.throttle_deferrals,
                  "max_queue_depth": int(frame.queue_depth.max()),
                  "audit_violations": len(run.audit.violations)}
                 | nan_by_column(frame),
        why_not_ok="; ".join(failed),
    )


CONFIGURE = {
    "validation90k": configure_validation90k,
    "fingerprint_csv": configure_fingerprint_csv,
    "stabilization1800": configure_stabilization1800,
    "throttle_burst": configure_throttle_burst,
}
RUN = {
    "validation90k": run_validation90k,
    "fingerprint_csv": run_fingerprint_csv,
    "stabilization1800": run_stabilization1800,
    "throttle_burst": run_throttle_burst,
}
PREPARE = {"fingerprint_csv": prepare_fingerprint_csv}
