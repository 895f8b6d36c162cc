"""Quickstart: analyze a finite workload on a cluster of workstations.

Builds the paper's canonical application (12 time units per task), runs it
on a 5-workstation central-storage cluster whose shared remote disk is
Hyperexponential (C² = 10), and prints everything the transient model can
tell you that a steady-state (Jackson/product-form) analysis cannot.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    ApplicationModel,
    Shape,
    TransientModel,
    central_cluster,
    decompose_regions,
    solve_steady_state,
    speedup,
)

K = 5   # workstations
N = 30  # tasks in the finite workload


def main() -> None:
    # 1. Describe the application: C=0.5, X=8, Y=3, B=1/3 → E(T) = 12.
    app = ApplicationModel()
    print(f"application: E(T) = {app.task_time:g} per task "
          f"(CPU {app.cpu_time:g}, local disk {app.local_disk_time:g}, "
          f"comm {app.comm_time:g}, remote disk {app.remote_disk_time:g})")

    # 2. Build the cluster. Dedicated CPUs/disks are exponential; the shared
    #    remote disk is H2 with C² = 10 — a case Jackson networks can't model.
    spec = central_cluster(app, {"rdisk": Shape.hyperexp(10.0)})

    # 3. Solve the transient model.
    model = TransientModel(spec, K)
    times = model.interdeparture_times(N)
    print(f"\nmean inter-departure time per epoch (N={N}, K={K}):")
    for i in range(0, N, 5):
        row = " ".join(f"{t:7.3f}" for t in times[i : i + 5])
        print(f"  epochs {i + 1:>2}-{min(i + 5, N):>2}: {row}")

    # 4. The three performance regions of the paper.
    regions = decompose_regions(model, N)
    print(f"\nregions: transient epochs {regions.transient}, "
          f"steady {regions.steady}, draining {regions.draining}")
    print(f"steady-state inter-departure time: {regions.t_ss:.4f} "
          f"(the product-form value)")

    # 5. Headline numbers.
    span = model.makespan(N)
    print(f"\nmean makespan E(T_total) = {span:.3f}")
    print(f"speedup over one workstation: {speedup(spec, N, span):.3f} (ideal {K})")
    ss = solve_steady_state(model)
    print(f"steady-state throughput: {ss.throughput:.4f} tasks/unit time")

    # 6. What the exponential assumption would have predicted.
    from repro import exponential_twin, prediction_error

    exp_model = TransientModel(exponential_twin(spec), K)
    err = prediction_error(span, exp_model.makespan(N))
    print(f"\nif the remote disk were modeled as exponential: "
          f"E(T_total) = {exp_model.makespan(N):.3f} "
          f"→ underestimates by {err:.1f}%")


if __name__ == "__main__":
    main()
