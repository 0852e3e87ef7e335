"""Smoke test of the benchmark harness at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload through ``run.py`` (about a minute on 2 vCPUs) and checks
that the metrics it prints are exactly the ones ``BENCHMARK.json`` declares.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_matches_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.NAMES)
    assert E2E == run.END_TO_END
    assert LAYERS == run.PER_LAYER


def test_every_workload_reports_every_metric():
    proc = _bench("--workload", "all", "--trace", "both", "--seed", "7",
                  "--seconds", "1", "--scale", "0.5")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 12
    for name in run.workloads.NAMES:
        for trace, spec in ((0, E2E), (1, LAYERS)):
            prefix = f"{name}.trace{trace}."
            got = {k[len(prefix):]: v["unit"]
                   for k, v in result["metrics"].items() if k.startswith(prefix)}
            assert got == spec, (name, trace)
    traced = result["metrics"]
    assert traced["throttle_burst.trace1.scheduler.throttle_calls"]["value"] > 0
    assert traced["validation90k.trace1.telemetry.bytes_written"]["value"] > 0
    assert traced["fingerprint_csv.trace1.telemetry.rows_read"]["value"] > 0


def test_single_workload_prints_the_contract_line():
    proc = _bench("--workload", "throttle_burst", "--trace", "0", "--seed", "3",
                  "--seconds", "1", "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "validation90k", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_trace_targets_resolve_and_missing_ones_read_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import cpodrift
    import tracer

    # the package attribute ``simulate`` shadows the submodule of that name
    found = tracer._resolve("cpodrift.simulate.simulate")
    assert found is not None and found[2] is cpodrift.simulate
    assert tracer._resolve("cpodrift.scheduler.no_such_function") is None
    self_s, calls = tracer.Tracer().layers()
    assert set(self_s.values()) == {0.0} and set(calls.values()) == {0}
    assert len(self_s) == len(calls) == len(tracer.TARGETS)


def test_speed_correction_cancels_the_host():
    import calib

    # the same work, less its chunks, on a host half as fast reads the same
    fast = {"chunks": 10, "busy_s": 0.01, "chunk_s": 0.001}
    slow = {"chunks": 10, "busy_s": 0.02, "chunk_s": 0.002}
    assert calib.at_reference(1.01, fast) == \
        pytest.approx(calib.at_reference(2.02, slow))

    sampler = calib.SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        pass
    t1 = time.perf_counter()
    sampler.stop()
    during = sampler.phase(t0, t1)
    assert during["chunks"] >= 5 and during["busy_s"] < t1 - t0
    # a phase no chunk started in takes the speed of the whole execution
    before = sampler.phase(t0 - 10, t0 - 9)
    assert before["chunks"] == 0 and before["busy_s"] == 0
    assert before["chunk_s"] == sampler.phase()["chunk_s"] > 0
