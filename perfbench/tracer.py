"""Span tracing of cpodrift's public functions, installed from outside.

Each target is named by its public dotted path. Its function object is
replaced by a timing wrapper wherever a ``cpodrift`` module binds it, so
``from .scheduler import forecast`` and ``th.step`` call sites are both
covered without touching the package. A target that no longer exists, or is
no longer called, reports 0 calls and 0 s.

Spans are kept in memory as ``(name, start, end, parent)`` and written out
once, at the end of the run. A layer's self time is the length of its spans
minus the part that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import fields

from workloads import nan_by_column

# Span name of the observer callbacks below. Their time is excluded from the
# self time of the layer that called the traced function.
OBSERVE = "trace.observe"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _frame_counts(counts, frame):
    for key, n in nan_by_column(frame).items():
        counts[key] += n
        counts["telemetry.nan_count"] += n


def _nbytes(frame, log) -> int:
    """Computed bytes of a frame and a forecast log: array buffers, plus the
    list and the distinct string objects of ``load_state``."""
    total = 0
    for f in fields(frame):
        col = getattr(frame, f.name)
        if hasattr(col, "nbytes"):
            total += col.nbytes
        else:
            distinct = {id(s): s for s in col}
            total += sys.getsizeof(col) + sum(map(sys.getsizeof, distinct.values()))
    for name in ("issued_at_ms", "horizon_ms", "forecast_w", "newest_input_ms",
                 "source"):
        total += getattr(log, name).nbytes
    return total


def _on_generate(counts, plan, args, kwargs):
    counts["workload.steps"] += plan.step_count
    counts["planned_rho"] += float(plan.rho.sum())


def _on_simulate(counts, run, args, kwargs):
    frame, log = run.frame, run.forecast_log
    counts["dispatched_rho"] += float(frame.rho.sum())
    # ForecastLog.source codes: 0 = queue replay, 1 = EWMA fallback
    counts["scheduler.hints_replay"] += int((log.source == 0).sum())
    counts["scheduler.hints_ewma"] += int((log.source == 1).sum())
    if frame.n:
        counts["scheduler.max_queue_depth"] = max(
            counts["scheduler.max_queue_depth"], int(frame.queue_depth.max()))
    counts["simulate.result_mb"] += _nbytes(frame, log) / 1e6
    _frame_counts(counts, frame)


def _on_throttle(counts, decision, args, kwargs):
    counts["scheduler.throttle_fired"] += int(decision.fired)
    counts["scheduler.deferrals"] += len(decision.deferred)


def _on_audit(counts, report, args, kwargs):
    counts["scheduler.audit_checked"] += report.n_checked
    counts["scheduler.audit_violations"] += len(report.violations)


def _on_log_write(counts, _, args, kwargs):
    counts["scheduler.log_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _on_telemetry_write(counts, _, args, kwargs):
    counts["telemetry.bytes_written"] += os.path.getsize(
        _arg(args, kwargs, 1, "path"))


def _on_read(counts, frame, args, kwargs):
    counts["telemetry.rows_read"] += frame.n
    _frame_counts(counts, frame)


# public dotted path -> (span name, self-time metric, calls metric, observer)
TARGETS = {
    "cpodrift.workload.generate_workload": (
        "workload.generate", "workload.generate_s", "workload.generate_calls",
        _on_generate),
    "cpodrift.simulate.simulate": (
        "simulate", "simulate.self_s", "simulate.calls", _on_simulate),
    "cpodrift.scheduler.forecast": (
        "scheduler.forecast", "scheduler.forecast_s", "scheduler.forecast_calls",
        None),
    "cpodrift.scheduler.throttle_decision": (
        "scheduler.throttle", "scheduler.throttle_s", "scheduler.throttle_calls",
        _on_throttle),
    "cpodrift.scheduler.causality_audit": (
        "scheduler.audit", "scheduler.audit_s", "scheduler.audit_calls",
        _on_audit),
    "cpodrift.scheduler.ForecastLog.write_csv": (
        "scheduler.log_write", "scheduler.log_write_s",
        "scheduler.log_write_calls", _on_log_write),
    "cpodrift.controller.control_step": (
        "controller.control_step", "controller.control_step_s",
        "controller.control_step_calls", None),
    "cpodrift.thermal.step": (
        "thermal.step", "thermal.step_s", "thermal.step_calls", None),
    "cpodrift.telemetry.write_csv": (
        "telemetry.write", "telemetry.write_s", "telemetry.write_calls",
        _on_telemetry_write),
    "cpodrift.telemetry.read_csv": (
        "telemetry.read", "telemetry.read_s", "telemetry.read_calls", _on_read),
    "cpodrift.fingerprint.build_report": (
        "fingerprint.build_report", "fingerprint.build_report_s",
        "fingerprint.build_report_calls", None),
    "cpodrift.fingerprint.regress": (
        "fingerprint.regress", "fingerprint.regress_s",
        "fingerprint.regress_calls", None),
    "cpodrift.fingerprint.estimate_tau": (
        "fingerprint.estimate_tau", "fingerprint.estimate_tau_s",
        "fingerprint.estimate_tau_calls", None),
    "cpodrift.fingerprint.write_report": (
        "fingerprint.write_report", "fingerprint.write_report_s",
        "fingerprint.write_report_calls", None),
    "cpodrift.experiments.run_experiment": (
        "experiments", "experiments.self_s", "experiments.calls", None),
}


def _resolve(path):
    """(owner, attribute, object) of a dotted path, or None if it is gone.

    The owner is the longest loaded module prefix, so a package attribute
    that shadows a submodule (``cpodrift.simulate``) does not get in the way.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        owner = sys.modules.get(".".join(parts[:cut]))
        if owner is not None:
            break
    else:
        return None
    for part in parts[cut:-1]:
        owner = getattr(owner, part, None)
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(self.counts, result, args, kwargs)
                spans.append((OBSERVE, end, time.perf_counter(), parent))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded ``cpodrift`` module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == "cpodrift" or n.startswith("cpodrift."))]
        for path, (span, _, _, observe) in TARGETS.items():
            found = _resolve(path)
            if found is None:
                continue
            owner, attr, obj = found
            wrapper = self.wrap(span, obj, observe)
            setattr(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapper)

    def layers(self) -> tuple[dict, dict]:
        """(self seconds, calls) of every target, keyed by metric name; a
        target that was never called reads 0."""
        metric = {span: (t, c) for span, t, c, _ in TARGETS.values()}
        self_s = {t: 0.0 for t, _ in metric.values()}
        calls = {c: 0 for _, c in metric.values()}
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, covered):
            if name in metric:
                t, c = metric[name]
                self_s[t] += end - start - inner
                calls[c] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
