"""The package's layering: every module imports at its top, so the import
graph is the one the module headers show, with no cycle hidden in a
function body; only ``thermal`` knows how a scan is cut into blocks; and
only the classes whose dataclass parts are read are dataclasses."""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import cpodrift

SOURCES = sorted(Path(cpodrift.__file__).parent.glob("*.py"))


def _function_imports(path: Path) -> list[str]:
    """``file:line`` of each import inside a function body of ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return found


def test_no_module_imports_inside_a_function():
    assert SOURCES
    assert [site for path in SOURCES for site in _function_imports(path)] == []


# the scan's block grid: a module that reads it could cut a scan where its
# carry does not continue it
SCAN_GRID = {"_SCAN_MAX_BLOCK", "_scan_block", "_scan_factors"}


def _scan_grid_names(path: Path) -> list[str]:
    """``file:line name`` of each use of a scan-grid name in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = [node.id] if isinstance(node, ast.Name) else \
            [node.attr] if isinstance(node, ast.Attribute) else \
            [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
        found.extend(f"{path.name}:{node.lineno} {n}" for n in names if n in SCAN_GRID)
    return found


def test_only_thermal_names_the_scan_grid():
    assert _scan_grid_names(Path(cpodrift.__file__).parent / "thermal.py")
    assert [site for path in SOURCES if path.name != "thermal.py"
            for site in _scan_grid_names(path)] == []


# Classes whose dataclass parts something reads: the config sections (the
# schema walks their fields(), __post_init__ checks them), TelemetryFrame
# (fields() gives COLUMNS, __post_init__ converts load_state) and
# Filtration, which validates in __post_init__. Every other record is a NamedTuple, which
# import defines about five times faster.
DATACLASSES = {
    "RunConfig", "WorkloadConfig", "AffineMapParams", "SchedulerConfig",
    "ControllerParams", "ThermalParams", "CouplingConfig", "BoundaryStack",
    "OpticParams", "TelemetryFrame", "Filtration"}
RECORDS = {
    "ExperimentResult", "ModeResult", "ComparisonReport", "FingerprintReport",
    "Claim", "RegressionResult", "RthEstimate", "Panel", "Hold",
    "DriftAssessment", "ForecastLog", "HintForecast", "AuditReport",
    "QueueEntry", "SimulationSummary", "RunResult", "ThermalState",
    "LoadState"}
RULE = "see README.md, 'Records and config classes'"


def _classes() -> dict[str, type]:
    """Every class defined in a ``cpodrift`` module, by name."""
    found = {}
    for path in SOURCES:
        module = importlib.import_module(
            "cpodrift" if path.stem == "__init__" else f"cpodrift.{path.stem}")
        found.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__)
    return found


def test_only_the_classes_read_as_dataclasses_are_dataclasses():
    classes = _classes()
    assert {n for n, c in classes.items() if dataclasses.is_dataclass(c)} == \
        DATACLASSES, RULE
    assert sorted(n for n in RECORDS if not hasattr(classes.get(n), "_fields")) \
        == [], RULE


def test_src_holds_no_assert():
    # ``python -O`` strips an assert, so a check the package relies on
    # raises instead
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
