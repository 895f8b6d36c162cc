"""One-call performance report for a finite workload on a cluster.

Ties the whole library together: transient epochs and regions, makespan
distribution, steady-state station metrics, speedup, and comparisons with
the product-form and fork/join baselines — as one formatted text report.
This is the "what the model tells a practitioner" artifact; the examples
and the CLI both build on it.
"""

from __future__ import annotations


from repro.baselines.order_stats import fork_join_makespan
from repro.core.metrics import speedup as _speedup
from repro.core.regions import decompose_regions
from repro.core.sojourn import analyze_sojourn
from repro.core.transient import TransientModel
from repro.jackson.convolution import convolution_analysis
from repro.laqt.service import ServiceNetwork
from repro.markov.makespan import MakespanAnalyzer
from repro.network.spec import NetworkSpec

__all__ = ["performance_report"]


def performance_report(
    spec: NetworkSpec,
    K: int,
    N: int,
    *,
    quantiles: tuple[float, ...] = (0.5, 0.9, 0.95),
    include_distribution: bool = True,
) -> str:
    """Build the full analysis of ``N`` tasks on ``K`` workstations.

    Parameters
    ----------
    quantiles:
        Makespan quantiles to report (needs ``include_distribution``).
    include_distribution:
        Skip the absorbing-chain work (variance/quantiles) when only mean
        values are needed — it is the most expensive part for large ``N``.
    """
    model = TransientModel(spec, K)
    times = model.interdeparture_times(N)
    span = float(times.sum())
    regions = decompose_regions(model, N)
    soj = analyze_sojourn(model)

    lines = [
        f"=== finite-workload performance report: N={N} tasks on K={K} ===",
        "",
        spec.describe(),
        "",
        f"mean makespan E(T):        {span:.4f}",
        f"speedup vs 1 workstation:  {_speedup(spec, N, span):.4f} (ideal {K})",
        f"steady-state t_ss:         {regions.t_ss:.4f} "
        f"(throughput {1.0 / regions.t_ss:.4f})",
        f"regions (epochs):          transient {regions.transient}, "
        f"steady {regions.steady}, draining {regions.draining}",
        f"steady-state fraction:     {regions.steady_fraction:.1%}",
    ]

    if include_distribution:
        mk = MakespanAnalyzer(model, N)
        lines += [
            "",
            "makespan distribution:",
            f"  std  {mk.std():.4f}   (C2 {mk.scv():.4f})",
        ]
        for q in quantiles:
            lines.append(f"  p{int(q * 100):<3} {mk.quantile(q):.4f}")

    lines += ["", "steady-state station metrics (fully backlogged):"]
    lines.append(
        f"  {'station':<10} {'customers':>10} {'busy':>8} {'waiting':>8} "
        f"{'resid/visit':>12} {'wait/visit':>11}"
    )
    for s in soj.stations:
        lines.append(
            f"  {s.name:<10} {s.mean_customers:>10.4f} {s.mean_busy:>8.4f} "
            f"{s.mean_waiting:>8.4f} {s.residence_time:>12.4f} "
            f"{s.waiting_time:>11.4f}"
        )
    lines.append(f"  bottleneck: {soj.bottleneck().name}")

    # Baselines.
    pf = convolution_analysis(spec, K)
    pf_span = N * pf.interdeparture_time
    task_ph = ServiceNetwork(spec).as_ph()
    fj = fork_join_makespan(task_ph, K, N)
    lines += [
        "",
        "baseline comparison:",
        f"  steady-state-only estimate (N·t_pf):  {pf_span:.4f} "
        f"({(pf_span - span) / span * 100:+.1f}% vs exact; ignores fill/drain "
        "and any non-exponential shared server)",
        f"  fork/join order statistics (no sharing): {fj:.4f} "
        f"({(fj - span) / span * 100:+.1f}% vs exact)",
    ]
    return "\n".join(lines)
