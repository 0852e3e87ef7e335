"""cpodrift benchmark: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1|both] [--scale X]

For ``--seconds`` seconds it runs the workload again and again, each time in
a fresh single-threaded process (``child.py``), one process at a time. It
checks every execution's correctness gate and that the deterministic
counters (counts, output sha256, NaN counts) repeat exactly, also across
runs of the same seed on the same source tree, and prints the medians. Times
are reported at a fixed reference host speed, from the speed each execution
samples while it runs (see ``calib.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced executions and reports the per-layer metrics: self times
of each module's public functions, counts, the ``-X importtime`` breakdown,
and the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

With no arguments it runs all workloads, untraced and traced, at seed 24.
Outputs, per-run records and the last traced run's spans are written under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
# Every subprocess of one workload's run gets what is left of this, so that a
# hung execution still ends the run within 180 s.
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (standard library only at import time)
from calib import at_reference, REF_CHUNK_S  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Per-layer metric -> unit. Self times come from the tracer's spans, counts
# from its observers, setup.* from ``-X importtime``.
PER_LAYER = {
    "setup.import_scipy_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_cpodrift_self_s": "s",
    "setup.modules_imported": "count",
    "workload.generate_s": "s",
    "workload.steps": "count",
    "simulate.self_s": "s",
    "simulate.calls": "count",
    "simulate.result_mb": "MB",
    "scheduler.forecast_s": "s",
    "scheduler.throttle_s": "s",
    "scheduler.audit_s": "s",
    "scheduler.log_write_s": "s",
    "scheduler.forecast_calls": "count",
    "scheduler.throttle_calls": "count",
    "scheduler.throttle_fired": "count",
    "scheduler.deferrals": "count",
    "scheduler.hints_replay": "count",
    "scheduler.hints_ewma": "count",
    "scheduler.max_queue_depth": "count",
    "scheduler.audit_checked": "count",
    "scheduler.audit_violations": "count",
    "scheduler.log_bytes": "B",
    "scheduler.dispatched_frac": "frac",
    "controller.control_step_s": "s",
    "controller.control_step_calls": "count",
    "thermal.step_s": "s",
    "thermal.step_calls": "count",
    "telemetry.write_s": "s",
    "telemetry.bytes_written": "B",
    "telemetry.read_s": "s",
    "telemetry.rows_read": "count",
    "telemetry.nan_count": "count",
    "fingerprint.build_report_s": "s",
    "fingerprint.regress_s": "s",
    "fingerprint.estimate_tau_s": "s",
    "fingerprint.write_report_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}
# Timed metric -> the child's phase whose host speed corrects it.
_PHASE = {"wall_s": "all", "setup_s": "setup", "run_s": "run"}
_IMPORT_GROUPS = {
    "setup.import_scipy_s": "scipy",
    "setup.import_numpy_s": "numpy",
    "setup.import_cpodrift_self_s": "cpodrift",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_python(args, deadline, stderr=None) -> int:
    """Run ``python args`` in the child environment; return its exit code.

    It is killed at ``deadline``. The wait blocks rather than polls
    (``Popen.wait(timeout)`` polls, up to 50 ms late), so a wall time taken
    around this call ends when the process does.
    """
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=stderr)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()


def _tail(path, lines=5) -> str:
    return "\n".join(Path(path).read_text(errors="replace").splitlines()[-lines:])


def parse_importtime(text: str) -> dict:
    """setup.* metrics from the ``-X importtime`` lines that ``child.py``
    brackets around ``import cpodrift``: self seconds summed per top-level
    package, and the number of modules imported."""
    from child import IMPORT_BEGIN, IMPORT_END

    lines = text.split(IMPORT_BEGIN, 1)[-1].split(IMPORT_END, 1)[0].splitlines()
    out = dict.fromkeys(_IMPORT_GROUPS, 0.0)
    out["setup.modules_imported"] = 0
    for line in lines:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        out["setup.modules_imported"] += 1
        for metric, package in _IMPORT_GROUPS.items():
            if top == package:
                out[metric] += int(self_us) / 1e6
    return out


def run_child(workload, seed, out: Path, *, scale, inputs, trace,
              deadline) -> dict:
    """One execution; returns its record, with ``error`` set if it crashed."""
    out.mkdir(parents=True)
    cmd = [*(["-X", "importtime"] if trace else []), str(CHILD),
           "--workload", workload, "--seed", str(seed), "--out", str(out),
           "--scale", repr(scale)]
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    if trace:
        cmd.append("--trace")
    err_path = out / "stderr.txt"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        code = _run_python(cmd, deadline, stderr=err)
    rec = {"trace": trace, "wall_s": time.perf_counter() - start}
    res_path = out / "result.json"
    if code != 0 or not res_path.exists():
        rec["error"] = f"exit {code}: {_tail(err_path)}"
        return rec
    rec |= json.loads(res_path.read_text())
    rec["counters"] |= {f"sha256.{Path(f).name}": _sha256(f) for f in rec["files"]}
    if trace:
        rec["setup"] = parse_importtime(err_path.read_text())
    return rec


def prepare_inputs(workload, seed, scale, wdir: Path, deadline):
    """Write a workload's input file in its own process, untimed."""
    if workload not in workloads.PREPARE:
        return None
    path = wdir / "input_telemetry.csv"
    code = _run_python([str(CHILD), "--workload", workload, "--seed", str(seed),
                        "--out", str(wdir), "--scale", repr(scale),
                        "--prepare", str(path)], deadline)
    if code != 0:
        raise RuntimeError(f"preparing the {workload} input failed (exit {code})")
    return path


def _ref(sample, metric) -> float:
    """A timed metric of one execution at the reference host speed."""
    return at_reference(sample[metric], sample["speed"][_PHASE[metric]])


def _speedup(sample, phase) -> float:
    """Factor that takes host seconds of ``phase`` to reference seconds."""
    return REF_CHUNK_S / sample["speed"][phase]["chunk_s"]


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def bench(workload, seed, seconds, trace, scale, src_sha) -> dict:
    """Run one workload for ``seconds``; return its metrics and record.

    Counters must match every earlier execution of the same workload, seed
    and scale on the same source tree, in this run or an earlier one.
    """
    store = OUT / "counters" / f"{workload}-seed{seed}-scale{scale:g}-{src_sha[:16]}.json"
    reference = json.loads(store.read_text()) if store.exists() else {}
    wdir = OUT / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    inputs = prepare_inputs(workload, seed, scale, wdir, deadline)

    samples, failures = [], []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        cdir = wdir / f"c{len(samples)}"
        rec = run_child(workload, seed, cdir, scale=scale, inputs=inputs,
                        trace=traced, deadline=deadline)
        if traced and (cdir / "spans.json").exists():
            shutil.move(cdir / "spans.json", OUT / f"{workload}-seed{seed}-spans.json")
        shutil.rmtree(cdir)
        samples.append(rec)

        why = rec.get("error") or rec.get("why_not_ok")
        for key, value in rec.get("counters", {}).items():
            if reference.setdefault(key, value) != value:
                why = f"counter {key} = {value}, earlier runs {reference[key]}"
        if why:
            failures.append(f"run {len(samples) - 1}: {why}")
            rec["failed"] = why

        elapsed = time.perf_counter() - start
        if len(samples) >= (2 if trace else 1) and \
                elapsed + rec["wall_s"] > seconds:
            break
    if inputs is not None:
        inputs.unlink()
    store.parent.mkdir(exist_ok=True)
    store.write_text(json.dumps(reference, indent=1))

    done = [s for s in samples if "error" not in s]
    plain = [s for s in done if not s["trace"]]
    if trace:
        metrics = per_layer(done, plain, reference)
    else:
        metrics = {m: [_ref(s, m) for s in plain] for m in _PHASE}
        metrics |= {
            "steps_per_s": [s["rows"] / _ref(s, "run_s") for s in plain],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        metrics["ok_frac"] = [1 - len(failures) / len(samples)]
    host = {m: _median([s[m] for s in plain]) for m in _PHASE}
    host["chunk_s"] = _median([s["speed"]["all"]["chunk_s"] for s in plain])
    return {"workload": workload, "samples": samples, "failures": failures,
            "metrics": metrics, "host": host, "runnable": bool(plain)}


def per_layer(done, plain, counters) -> dict:
    traced = [s for s in done if s["trace"]]
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = [_median([_ref(s, "run_s") for s in traced])
                             - _median([_ref(s, "run_s") for s in plain])]
        elif name == "setup.modules_imported":
            metrics[name] = [s["setup"][name] for s in traced]
        elif name.startswith("setup."):
            metrics[name] = [s["setup"][name] * _speedup(s, "setup")
                             for s in traced]
        elif name.endswith("_s"):
            metrics[name] = [s["layers"].get(name, 0.0) * _speedup(s, "run")
                             for s in traced]
        else:
            metrics[name] = [counters.get(name, counters.get(f"traced.{name}", 0))]
    return metrics


def provenance(seed) -> dict:
    commit = None   # a plain checkout: src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all", *workloads.NAMES))
    p.add_argument("--seed", type=int, default=24)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", default="both", choices=("0", "1", "both"))
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink step counts and schedule holds (smoke test only)")
    args = p.parse_args(argv)
    # let a terminated run stop its child (see _run_python) before it exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cpodrift" / "__init__.py").is_file():
        print(f"error: no cpodrift package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    probe = subprocess.run([sys.executable, "-c", "import cpodrift"], cwd=ROOT,
                           env=child_env(), stdin=subprocess.DEVNULL,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        print(f"error: import cpodrift failed:\n{probe.stderr}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    prov = provenance(args.seed)
    print(f"# provenance {json.dumps(prov)}")

    results = []
    for name in names:
        for trace in modes:
            r = bench(name, args.seed, args.seconds, trace, args.scale,
                      prov["src_sha256"])
            units = PER_LAYER if trace else END_TO_END
            r["values"] = {m: _median(v) for m, v in r["metrics"].items()}
            OUT.joinpath(f"{name}-seed{args.seed}-trace{trace}.json").write_text(
                json.dumps(r | {"provenance": prov}, indent=1, default=float))
            print(f"# {name} trace={trace}: {len(r['samples'])} runs, "
                  f"{len(r['failures'])} failed")
            for failure in r["failures"]:
                print(f"#   FAILED {failure}")
            print("#   host medians, uncorrected: " + ", ".join(
                f"{m} {v:.6g}" for m, v in r["host"].items()))
            for m, unit in units.items():
                print(f"{name:18s} {m:32s} {r['values'][m]:14.6g} {unit:6s} "
                      f"{_spread(r['metrics'][m])}")
            results.append((name, trace, r))

    if not all(r["runnable"] for _, _, r in results):
        print("error: a workload never completed; see the FAILED lines",
              file=sys.stderr)
        return 1

    attempted = sum(len(r["samples"]) for _, _, r in results)
    failed = sum(len(r["failures"]) for _, _, r in results)
    metrics = {}
    for name, trace, r in results:
        units = PER_LAYER if trace else END_TO_END
        prefix = "" if len(results) == 1 else f"{name}.trace{trace}."
        for m, unit in units.items():
            metrics[prefix + m] = {"value": r["values"][m], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
