"""One workload execution in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        [--scale X] [--inputs PATH] [--trace] [--prepare PATH]

Times ``import cpodrift`` plus building the config (set-up), then the
workload's calls (run), samples the host's speed all along (``calib.py``),
and writes ``result.json`` into ``--out``. With
``--trace`` the run goes through :mod:`tracer` and the per-layer numbers and
``spans.json`` are written too. With ``--prepare`` it only writes the
workload's input file, untimed.

Only the standard library is imported before ``import cpodrift``, so the
``-X importtime`` lines between the two markers on stderr are exactly the
modules that import pulls in.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

IMPORT_BEGIN = "perfbench: import cpodrift begin"
IMPORT_END = "perfbench: import cpodrift end"


def _mark(text):
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--inputs", default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--prepare", default=None)
    args = p.parse_args()

    if args.prepare:
        import workloads
        workloads.PREPARE[args.workload](args.seed, args.scale, args.prepare)
        return 0

    from calib import SpeedSampler
    speed = SpeedSampler()
    speed.start()
    t0 = time.perf_counter()
    _mark(IMPORT_BEGIN)
    import cpodrift  # noqa: F401  (timed: this is the set-up being measured)
    _mark(IMPORT_END)
    import workloads
    cfg = workloads.CONFIGURE[args.workload](args.seed, args.scale)
    t1 = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    args.out.mkdir(parents=True, exist_ok=True)
    t2 = time.perf_counter()
    outcome = workloads.RUN[args.workload](cfg, args.seed, args.out, args.inputs)
    t3 = time.perf_counter()
    speed.stop()

    counters = dict(outcome.counters)
    layers = {}
    if tracer is not None:
        layers, calls = tracer.layers()
        counts = tracer.counts
        planned = counts.pop("planned_rho", 0.0)
        dispatched = counts.pop("dispatched_rho", 0.0)
        counts["scheduler.dispatched_frac"] = dispatched / planned if planned else 0.0
        counters |= calls | {f"traced.{k}": v for k, v in counts.items()}
        tracer.write(args.out / "spans.json")

    result = {
        "ok": bool(outcome.ok),
        "why_not_ok": "" if outcome.ok else outcome.why_not_ok,
        "rows": int(outcome.rows),
        "files": outcome.files,
        "counters": counters,
        "layers": layers,
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "speed": {"setup": speed.phase(t0, t1), "run": speed.phase(t2, t3),
                  "all": speed.phase()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    (args.out / "result.json").write_text(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
