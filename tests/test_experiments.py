import hashlib
import json

import pytest

from cpodrift.cli import main
from cpodrift.errors import UsageError
from cpodrift.experiments import EXPERIMENT_NAMES, run_experiment
from cpodrift.telemetry import COLUMNS


def test_experiment_names():
    for name in ("validation90k", "transient300", "comparison", "fingerprint"):
        assert name in EXPERIMENT_NAMES


def test_unknown_experiment_raises_usage_error(tmp_path):
    with pytest.raises(UsageError):
        run_experiment("warp_drive", out_dir=tmp_path)


def test_transient300_experiment(tmp_path):
    res = run_experiment("transient300", out_dir=tmp_path)
    assert res.ok
    assert abs(res.summary["tau_est_ms"] - 80.0) <= 2.0
    names = {f.name for f in res.files}
    assert "transient300_telemetry.csv" in names
    tele = tmp_path / "transient300_telemetry.csv"
    assert len(tele.read_text().splitlines()) == 301  # header + 300 rows


def test_fingerprint_experiment_manifest(tmp_path):
    res = run_experiment("fingerprint", out_dir=tmp_path)
    assert res.ok
    names = {f.name for f in res.files}
    expected = {
        "rth_by_state.csv", "thermal_diffusion_heatmap.csv",
        "throughput_coupling.csv", "step_response.csv", "rth_validation.csv",
        "spectral_stability.csv", "fingerprint_report.json",
        "fingerprint_table.txt",
    }
    assert expected <= names
    report = json.loads((tmp_path / "fingerprint_report.json").read_text())
    assert report["ok"] is True


def test_comparison_experiment(tmp_path):
    res = run_experiment("comparison", out_dir=tmp_path)
    assert res.ok
    data = json.loads((tmp_path / "comparison.json").read_text())
    assert 1.0 < data["improvement_ratio"] < 10.0


def test_stabilization_experiment_short_run(tmp_path):
    from dataclasses import replace
    from cpodrift.config import stabilization_config
    from cpodrift.workload import WorkloadConfig

    cfg = replace(stabilization_config(), workload=WorkloadConfig(
        step_count=60_000, schedule=(("Peak", 60_000.0),)))
    res = run_experiment("stabilization1800", config=cfg, out_dir=tmp_path)
    assert res.ok
    assert res.summary["stabilization_ms"] <= 50_000.0
    assert (tmp_path / "stabilization1800_summary.json").exists()


def test_validation90k_row_count(tmp_path):
    res = run_experiment("validation90k", out_dir=tmp_path)
    assert res.ok
    tele = tmp_path / "validation90k_telemetry.csv"
    with open(tele) as fh:
        assert sum(1 for _ in fh) == 90_001  # header + 90,000 rows
    assert res.summary["rho_dt_fit"]["r_squared"] >= 0.98


# ---------------------------------------------------------------------------
# CLI

def test_cli_verify_pass():
    assert main(["verify"]) == 0


def test_cli_verify_fails_on_perturbed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"thermal": {"r_th": 0.40}}))
    assert main(["verify", "--config", str(cfg)]) == 1


def test_cli_simulate_with_overrides(tmp_path, capsys):
    rc = main(["simulate", "--steps", "500", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"steps": 500' in out
    assert (tmp_path / "telemetry.csv").exists()
    assert (tmp_path / "forecast_log.csv").exists()


def test_cli_fingerprint_from_telemetry_csv(tmp_path, capsys):
    rc = main(["experiment", "fingerprint", "--out", str(tmp_path / "exp")])
    assert rc == 0
    telemetry = tmp_path / "exp" / "fingerprint_telemetry.csv"
    rc = main(["fingerprint", str(telemetry), "--out", str(tmp_path / "fp")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outside spec (expected)" in out
    assert (tmp_path / "fp" / "fingerprint_report.json").exists()


def test_cli_compare(capsys, tmp_path):
    rc = main(["compare", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "improvement ratio" in out
    assert (tmp_path / "comparison.json").exists()


def test_cli_error_is_reported_not_raised(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_telemetry_file(tmp_path, capsys):
    p = tmp_path / "junk.csv"
    p.write_text("a,b\n1,2\n")
    assert main(["fingerprint", str(p)]) == 2
    p.write_text(",".join(COLUMNS) + "\n0,abc,Idle" + ",1" * 11 + "\n")
    assert main(["fingerprint", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_experiment_overrides_keep_the_preset(tmp_path, capsys):
    assert main(["experiment", "transient300", "--seed", "5",
                 "--out", str(tmp_path / "s5")]) == 0
    summary = json.loads((tmp_path / "s5" / "transient300_summary.json").read_text())
    assert summary["steps"] == 300
    # --seed 0 is a seed, not "no override"
    assert main(["experiment", "transient300", "--seed", "0",
                 "--out", str(tmp_path / "cli")]) == 0
    run_experiment("transient300", seed=0, out_dir=tmp_path / "api")
    name = "transient300_telemetry.csv"
    assert (tmp_path / "cli" / name).read_bytes() == \
        (tmp_path / "api" / name).read_bytes()


def test_config_out_dir_is_the_output_directory(tmp_path, capsys):
    # a config file's out_dir takes effect without --out; --out overrides it
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "runs" / "x"),
                               "workload": {"step_count": 300}}))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "runs" / "x" / "telemetry.csv").exists()
    assert main(["experiment", "transient300", "--config", str(cfg)]) == 0
    assert (tmp_path / "runs" / "x" / "transient300_summary.json").exists()
    assert main(["experiment", "transient300", "--config", str(cfg),
                 "--out", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "cli" / "transient300_summary.json").exists()


def test_compare_writes_the_experiment_comparison_json(tmp_path, capsys):
    assert main(["compare", "--out", str(tmp_path / "cli")]) == 0
    run_experiment("comparison", out_dir=tmp_path / "exp")
    assert (tmp_path / "cli" / "comparison.json").read_bytes() == \
        (tmp_path / "exp" / "comparison.json").read_bytes()


# sha256 of the JSON and text artifacts of the seed-24 experiments
ARTIFACT_SHA256 = {
    "validation90k": {
        "validation90k_summary.json":
            "76d6beff9e41814c6a6053821c7e8dce1705f9fec013b8afd410edc72cb6ac83",
    },
    "transient300": {
        "transient300_summary.json":
            "68816af7a2bcf9e9bc1ff8d9a394eae648c3ade4677e15e06b0d061bef0a6afa",
    },
    "comparison": {
        "comparison.json":
            "5b1a2112bb3c5b481104750df48a5cd54eb791fba9775a99e379f9f8854f5875",
        "comparison.txt":
            "b88a24d72a061ac7ca0a816c974ca2c74368fec3ac0a1d37972226abc9cb6398",
    },
    "fingerprint": {
        "fingerprint_report.json":
            "42fcec19f23e10985a5ff8459f872471ad6580cbe5ec3e338728b63986a2d43d",
        "fingerprint_table.txt":
            "56aa3f9638df17b604d483f8aac7f2befb26725c13adf8ef753c0104802d720a",
    },
}


@pytest.mark.parametrize("name", ARTIFACT_SHA256)
def test_json_and_text_artifacts_are_byte_identical_to_golden(tmp_path, name):
    run_experiment(name, out_dir=tmp_path, seed=24)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in ARTIFACT_SHA256[name]}
    assert got == ARTIFACT_SHA256[name]
