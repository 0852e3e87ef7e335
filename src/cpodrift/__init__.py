"""cpodrift: co-simulation and characterization of scheduler-driven thermal
wavelength drift in co-packaged optics.

The package chains a synthetic inference workload through a look-ahead hint
scheduler, a bias compensator, a first-order RC thermal plant and a
thermo-optic stage, records 14-metric telemetry, and recovers the thermal
fingerprint (R_th, tau, kappa, R^2) from its own output.
"""

from .config import (
    RunConfig,
    comparison_config,
    default_config,
    fingerprint_config,
    load_config,
    save_config,
    stabilization_config,
    transient_config,
)
from .controller import ControllerParams, Mode, energy_margin_estimate
from .errors import (
    ConfigError,
    CoverageError,
    CpodriftError,
    DegenerateMapError,
    ExtractionError,
    ImplausibleInputError,
    InputError,
    InsufficientDataError,
    SliceViolationError,
    StepSizeError,
    UsageError,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ComparisonReport,
    ExperimentResult,
    run_comparison,
    run_experiment,
)
from .fingerprint import (
    FingerprintReport,
    RegressionResult,
    build_report,
    estimate_kappa,
    estimate_r_th,
    estimate_tau,
    regress,
)
from .optics import DriftAssessment, OpticParams, assess, drift
from .scheduler import (
    AuditReport,
    Filtration,
    ForecastLog,
    HintForecast,
    QueueEntry,
    SchedulerConfig,
    causality_audit,
    forecast,
    preposition_fraction,
)
from .simulate import RunResult, SimulationSummary, simulate
from .telemetry import COLUMNS, TelemetryFrame, read_csv, write_csv
from .thermal import (
    BoundaryStack,
    CouplingConfig,
    ThermalParams,
    ThermalState,
    boundary_temperatures,
    gamma_of_distance,
    steady_state_delta_t,
    step,
    step_response_fraction,
)
from .verify import verify
from .workload import (
    AffineMapParams,
    LOAD_STATES,
    LoadState,
    WorkloadConfig,
    density_to_power,
    density_to_throughput,
    load_state,
    throughput_to_density,
)

__version__ = "0.1.0"
