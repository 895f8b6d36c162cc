"""Data locality on a computational grid.

Two sites joined by a WAN run a shared workload.  How much does data
locality buy?  The transient model answers exactly: we sweep the fraction
of storage accesses that stay on-site and watch the makespan, the grid's
bottleneck, and the effective speedup over one workstation.

Run:  python examples/grid_locality.py
"""

from repro import ApplicationModel, TransientModel, analyze_sojourn, speedup
from repro.clusters.grid import grid_cluster

SITES, K, N = 2, 6, 36  # K tasks active across the whole grid


def main() -> None:
    app = ApplicationModel()
    print(f"{N} tasks on a {SITES}-site grid, {K} active tasks, "
          f"WAN 3x slower than a site channel\n")
    print(f"{'locality':>9} {'E[makespan]':>12} {'speedup':>8} "
          f"{'WAN util':>9}  bottleneck")
    for loc in (1.0, 0.9, 0.8, 0.6, 0.4, 0.2):
        spec = grid_cluster(app, SITES, locality=loc, wan_factor=3.0)
        model = TransientModel(spec, K)
        soj = analyze_sojourn(model)
        wan_util = soj.station("wan_up").mean_busy
        span = model.makespan(N)
        print(f"{loc:>9.0%} {span:>12.2f} "
              f"{speedup(spec, N, span):>8.3f} {wan_util:>9.3f}  "
              f"{soj.bottleneck().name}")

    print("""
Reading the table:
 * at full locality the grid behaves like independent clusters;
 * each lost 10 points of locality costs makespan twice: the task does
   more (WAN transfers) AND the shared link congests;
 * once the WAN becomes the bottleneck, adding CPUs anywhere is useless —
   replicate data (raise locality) or upgrade the link instead.""")


if __name__ == "__main__":
    main()
