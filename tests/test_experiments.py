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
    assert sum(1 for _ in open(tele)) == 90_001  # header + 90,000 rows
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
