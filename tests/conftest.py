"""Shared fixtures: the expensive runs execute once per session."""

from __future__ import annotations

from dataclasses import replace

import pytest

from cpodrift.config import (
    comparison_config,
    default_config,
    fingerprint_config,
    stabilization_config,
    transient_config,
)
from cpodrift.experiments import run_comparison
from cpodrift.fingerprint import build_report
from cpodrift.simulate import simulate


@pytest.fixture(scope="session")
def validation_run():
    return simulate(default_config())


@pytest.fixture(scope="session")
def comparison_report():
    return run_comparison(comparison_config())


@pytest.fixture(scope="session")
def stabilization_run():
    return simulate(stabilization_config())


@pytest.fixture(scope="session")
def fingerprint_cfg():
    return fingerprint_config()


@pytest.fixture(scope="session")
def fingerprint_run(fingerprint_cfg):
    return simulate(fingerprint_cfg)


@pytest.fixture(scope="session")
def fingerprint_report(fingerprint_run, fingerprint_cfg):
    return build_report(fingerprint_run.frame, fingerprint_cfg)


@pytest.fixture(scope="session")
def noiseless_fingerprint():
    cfg = fingerprint_config()
    cfg = replace(cfg, workload=replace(cfg.workload, noise_sigma=0.0))
    run = simulate(cfg)
    return build_report(run.frame, cfg), cfg


@pytest.fixture(scope="session")
def transient_run():
    return simulate(transient_config())
