"""The paper's primary contribution: the transient finite-workload model."""

from repro.core.transient import TransientModel
from repro.core.steady_state import (
    SteadyState,
    solve_steady_state,
    time_stationary_distribution,
)
from repro.core.regions import Regions, decompose_regions
from repro.core.metrics import (
    speedup,
    prediction_error,
    exponential_twin,
    utilizations,
    transient_utilizations,
)
from repro.core.sojourn import SojournAnalysis, StationMetrics, analyze_sojourn
from repro.core.epochs import epoch_distribution, epoch_distributions, epoch_scvs
from repro.core.correlations import (
    index_of_dispersion,
    interdeparture_autocorrelation,
    interdeparture_autocovariance,
)
from repro.core.sensitivity import makespan_elasticities, rank_parameters

__all__ = [
    "TransientModel",
    "SteadyState",
    "solve_steady_state",
    "time_stationary_distribution",
    "Regions",
    "decompose_regions",
    "speedup",
    "prediction_error",
    "exponential_twin",
    "utilizations",
    "transient_utilizations",
    "index_of_dispersion",
    "SojournAnalysis",
    "StationMetrics",
    "analyze_sojourn",
    "epoch_distribution",
    "epoch_distributions",
    "epoch_scvs",
    "interdeparture_autocorrelation",
    "interdeparture_autocovariance",
    "makespan_elasticities",
    "rank_parameters",
]
