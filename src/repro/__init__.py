"""repro — transient LAQT models of parallel and distributed systems.

A from-scratch reproduction of Mohamed, Lipsky & Ammar, *Modeling Parallel
and Distributed Systems with Finite Workloads* (IPPS 2004): a transient
(finite-population, finite-workload) solver for queueing networks built on
Linear-Algebraic Queueing Theory, together with the substrates the paper
relies on — phase-type distribution algebra, cluster system models,
product-form baselines, and a discrete-event simulator for validation.

Typical usage::

    from repro import ApplicationModel, central_cluster, TransientModel, Shape

    app = ApplicationModel()                       # E(T) = 12 per task
    spec = central_cluster(app, {"rdisk": Shape.hyperexp(10.0)})
    model = TransientModel(spec, K=5)              # 5 workstations
    times = model.interdeparture_times(N=30)       # the paper's Figure 3
    makespan = model.makespan(N=30)
"""

from repro.clusters import (
    ApplicationModel,
    central_cluster,
    central_cluster_multitasking,
    central_cluster_with_scheduler,
    distributed_cluster,
    heterogeneous_distributed_cluster,
    load_balanced_weights,
)
from repro.core import (
    TransientModel,
    SteadyState,
    solve_steady_state,
    Regions,
    decompose_regions,
    speedup,
    prediction_error,
    exponential_twin,
    utilizations,
    analyze_sojourn,
    time_stationary_distribution,
)
from repro.distributions import (
    MatrixExponential,
    PHDistribution,
    Shape,
    exponential,
    erlang,
    hyperexponential,
    hypoexponential,
    coxian,
    truncated_power_tail,
    fit_h2,
    fit_scv,
)
from repro.jackson import convolution_analysis, mva_analysis, open_jackson_analysis
from repro.markov import MakespanAnalyzer
from repro.network import DELAY, NetworkSpec, Station
from repro.queues import FiniteSourceQueue, MG1Queue
from repro.resilience import (
    Budget,
    BudgetExceededError,
    ConvergenceError,
    FaultPlan,
    GuardConfig,
    NumericalHealthError,
    ResilienceConfig,
    ResilientResult,
    SingularLevelError,
    SolverError,
    SolverReport,
    solve_resilient,
)
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    Tracer,
    profiled,
)
from repro.simulation import (
    generate_traces,
    replay_traces,
    simulate_once,
    simulate_study,
)

__version__ = "1.0.0"

__all__ = [
    "ApplicationModel",
    "central_cluster",
    "central_cluster_multitasking",
    "central_cluster_with_scheduler",
    "distributed_cluster",
    "heterogeneous_distributed_cluster",
    "load_balanced_weights",
    "analyze_sojourn",
    "time_stationary_distribution",
    "TransientModel",
    "SteadyState",
    "solve_steady_state",
    "Regions",
    "decompose_regions",
    "speedup",
    "prediction_error",
    "exponential_twin",
    "utilizations",
    "MatrixExponential",
    "PHDistribution",
    "Shape",
    "exponential",
    "erlang",
    "hyperexponential",
    "hypoexponential",
    "coxian",
    "truncated_power_tail",
    "fit_h2",
    "fit_scv",
    "convolution_analysis",
    "mva_analysis",
    "open_jackson_analysis",
    "MakespanAnalyzer",
    "DELAY",
    "NetworkSpec",
    "Station",
    "simulate_once",
    "simulate_study",
    "generate_traces",
    "replay_traces",
    "FiniteSourceQueue",
    "MG1Queue",
    "Budget",
    "BudgetExceededError",
    "ConvergenceError",
    "FaultPlan",
    "GuardConfig",
    "NumericalHealthError",
    "ResilienceConfig",
    "ResilientResult",
    "SingularLevelError",
    "SolverError",
    "SolverReport",
    "solve_resilient",
    "Instrumentation",
    "MetricsRegistry",
    "Tracer",
    "profiled",
    "__version__",
]
