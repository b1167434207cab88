"""The resource-sensitivity characterization harness — the paper's
contribution.  Experiments pair a workload with a resource allocation,
run it on the simulated testbed, and produce measurements; sweeps and
analyses regenerate every table and figure of the paper."""

from repro.core.analysis import (
    Knee,
    LinearComparison,
    diminishing_returns,
    find_knee,
    linear_response_comparison,
    relative_performance,
    speedup_series,
    sufficient_allocation,
    wait_ratio_table,
)
from repro.core.experiment import Experiment, ExperimentConfig, run_experiment
from repro.core.knobs import (
    CORE_SWEEP,
    GRANT_SWEEP_PERCENT,
    LLC_SWEEP_MB,
    MAXDOP_SWEEP,
    ResourceAllocation,
)
from repro.core.colocation import TenantSpec, run_colocated
from repro.core.journal import SweepJournal
from repro.core.measurement import Measurement
from repro.core.resultcache import ResultCache, calibration_token, config_digest
from repro.core.runner import (
    FailedMeasurement,
    SupervisionPolicy,
    SweepReport,
    run_supervised,
    run_sweep,
)
from repro.core.sensitivity import SensitivityRow, sensitivity_matrix, spectrum_width

__all__ = [
    "Knee",
    "LinearComparison",
    "diminishing_returns",
    "find_knee",
    "linear_response_comparison",
    "relative_performance",
    "speedup_series",
    "sufficient_allocation",
    "wait_ratio_table",
    "Experiment",
    "ExperimentConfig",
    "run_experiment",
    "CORE_SWEEP",
    "GRANT_SWEEP_PERCENT",
    "LLC_SWEEP_MB",
    "MAXDOP_SWEEP",
    "ResourceAllocation",
    "Measurement",
    "TenantSpec",
    "run_colocated",
    "ResultCache",
    "calibration_token",
    "config_digest",
    "run_supervised",
    "run_sweep",
    "FailedMeasurement",
    "SupervisionPolicy",
    "SweepJournal",
    "SweepReport",
    "SensitivityRow",
    "sensitivity_matrix",
    "spectrum_width",
]
