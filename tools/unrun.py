"""List the functions in ``src/cpodrift`` whose bodies no CLI run executes.

Runs a fixed set of CLI commands under the standard library's ``trace``
line counter, in a temporary directory, and prints each function or method
(nested ones included) none of whose body statements ran:

* ``experiment`` for each of the five experiments;
* ``simulate --out`` on a throttled config;
* ``compare`` and ``verify``;
* ``fingerprint`` on three CSVs: the ``validation90k`` and ``fingerprint``
  experiments' telemetry and the throttled ``simulate`` run's, which covers
  two load states and so exits 2 with a ``CoverageError``.

The package is imported under the tracer, so what runs at import counts as
run. A listed function may still be public API that tests or demos call;
the list is where to look for code that no run needs. It is not part of
the test suite; run it from the repository root::

    python tools/unrun.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import trace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "cpodrift"

# a throttled run of 20 s of Low/Peak bursts; the throttle defers entries
THROTTLED = {
    "seed": 7,
    "workload": {"step_count": 20_000,
                 "schedule": [["Low", 150], ["Peak", 300], ["Low", 150],
                              ["Peak", 150]]},
    "scheduler": {"throttle_compensation_gain": 0.9},
}


def commands(tmp: Path) -> list[list[str]]:
    """The CLI argument lists of the traced run set, writing under ``tmp``."""
    from cpodrift.experiments import EXPERIMENT_NAMES

    out = tmp / "out"
    argv = [["experiment", name, "--out", str(out)] for name in EXPERIMENT_NAMES]
    path = tmp / "throttled.json"
    path.write_text(json.dumps(THROTTLED))
    argv.append(["simulate", "--config", str(path), "--out", str(tmp / "throttled")])
    argv += [["compare"], ["verify"]]
    for csv in (out / "validation90k_telemetry.csv",
                out / "fingerprint_telemetry.csv",
                tmp / "throttled" / "telemetry.csv"):
        argv.append(["fingerprint", str(csv), "--out", str(tmp / "fp")])
    return argv


def run_all(tmp: Path) -> list[tuple[list[str], int]]:
    """Run every command of :func:`commands`; their exit codes."""
    from cpodrift.cli import main

    codes = []
    for argv in commands(tmp):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append((argv, main(argv)))
    return codes


def functions(path: Path):
    """(qualified name, def line, last line, body statement lines) of every
    function in the module at ``path``."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                body = child.body
                if (isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]     # the docstring is no statement run
                yield name, child.lineno, child.end_lineno, \
                    [s.lineno for s in body]
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text()), "")


def main() -> int:
    sys.path.insert(0, str(SRC))
    if "cpodrift" in sys.modules:
        raise SystemExit("cpodrift is imported before the trace starts")
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory() as tmp:
        codes = tracer.runfunc(run_all, Path(tmp))
    counts = tracer.results().counts
    ran = {(Path(f).resolve(), line) for f, line in counts}
    for argv, code in codes:
        print(f"exit {code}: cpodrift {' '.join(argv[:2])}")
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last, body in functions(path):
            if body and not any((path, line) in ran for line in body):
                unrun.append((path.name, first, name, last - first + 1))
    for file, first, name, lines in unrun:
        print(f"{file}:{first}: {name} ({lines} lines)")
    print(f"{len(unrun)} function bodies ran no line, "
          f"{sum(n for *_, n in unrun)} lines in all")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
