"""Measure campaign dispatch + scaling; ``benchmarks/BENCH_campaign.json``.

Run directly (CI's campaign-bench-smoke job does) or via ``repro-bench
run campaign``::

    python benchmarks/campaign_scaling.py [OUTPUT.json] [--quick]

Two measurements, written in the shared ``repro-bench`` report schema
(:mod:`repro.obs.bench`):

* **Dispatch overhead** (the headline): the same analytic-mode grid run
  through a warm lease pipeline that is already started (persistent
  salt-verified ``fork`` workers, batched leases, streaming merge) versus
  a cold pool: a fresh ``WarmWorkerPool(..., start_method="spawn")``
  started inside each timed campaign.  Analytic cells cost
  milliseconds, so the wall-time difference *is* the dispatch overhead —
  cold interpreter start, imports and salt derivation in every worker —
  the exact costs a warm pool exists to pay once.
  ``warm_vs_spawn_speedup`` is floor-tested (>= 1.4x) in
  ``benchmarks/test_perf_campaign.py`` on any CPU count, because the
  overhead being eliminated is per-worker/per-cell, not per-core.
* **Worker scaling**: the fixed event-mode (δ × seed) grid timed
  serially and with 2 and 4 warm workers.  Cells are independent
  simulations, so on an unloaded machine with >= 4 CPUs the 4-worker
  run should beat serial by well over 1.5×; the test module asserts that
  wherever the hardware can express it.  A speedup at more workers than
  the host has CPUs measures time-slicing, not parallel dispatch, so it
  is not reported as a metric: ``details["not_measured"]`` says why.

Wall times are best-of-``REPEATS`` minima — the low-noise statistic for
short runs — and the derived cache salt is computed *before* any timing
so salt derivation (a one-off analysis pass) never lands in a measured
window.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter
from typing import Optional

from repro.experiments.cache import cache_salt
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.pool import WarmWorkerPool
from repro.obs.bench import LOWER_IS_BETTER, build_report, metric, \
    write_report

SUITE = "campaign"

#: The fixed scaling grid: 2 deltas x 4 seeds = 8 cells, sized so each
#: cell costs enough wall time that pool start-up cost is noise.
BENCH_GRID = dict(
    deltas=(0.02, 0.05),
    seeds=(1, 2, 3, 4),
    duration=30.0,
    scenario="inria-umd",
    scenario_kwargs={"utilization_fwd": 0.5, "utilization_rev": 0.5},
)

#: The dispatch-overhead grid: analytic cells cost milliseconds, so the
#: campaign wall time is almost entirely executor overhead — which is
#: the quantity under test.
DISPATCH_GRID = dict(
    deltas=(0.02, 0.05),
    seeds=(1, 2, 3, 4),
    duration=30.0,
    scenario="inria-umd",
    scenario_kwargs={"utilization_fwd": 0.5, "utilization_rev": 0.5},
    mode="analytic",
)

WORKER_COUNTS = (1, 2, 4)

#: Workers for the dispatch-overhead comparison (both pools).
DISPATCH_WORKERS = 2

#: Best-of-N repeats per timed configuration.  The minimum is the
#: stable statistic for sub-second runs; the cold spawn-pool runs are
#: expensive, so they repeat less.
REPEATS = 3
SPAWN_REPEATS = 2

#: Resolution floor (seconds) applied to the dispatch-overhead *metrics*
#: (the raw values stay in ``details``).  The warm pipeline's overhead
#: sits near scheduler-jitter level; clamping to the measurement noise
#: floor keeps ``repro-bench compare`` from flagging a 0.02s -> 0.04s
#: wobble as a 100% regression.
OVERHEAD_RESOLUTION_SECONDS = 0.1


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def time_campaign(workers: int, grid: dict = BENCH_GRID,
                  start_method: Optional[str] = None) -> float:
    """Wall seconds for one full run of a benchmark grid.

    ``workers > 1`` starts a fresh warm pool inside the timed window:
    the campaign's own (``fork`` where available) by default, or one
    started with ``start_method``.
    """
    spec = CampaignSpec(**grid)
    started = perf_counter()
    if start_method is None:
        run_campaign(spec, workers=workers)
    else:
        with WarmWorkerPool(workers, start_method=start_method) as pool:
            run_campaign(spec, pool=pool)
    return perf_counter() - started


def best_of(repeats: int, workers: int, grid: dict,
            start_method: Optional[str] = None) -> float:
    """Minimum wall seconds over ``repeats`` runs of the grid."""
    return min(time_campaign(workers, grid=grid, start_method=start_method)
               for _ in range(max(1, repeats)))


def collect_dispatch(quick: bool = False) -> dict:
    """Warm fork pipeline vs a cold spawn-started pool, analytic grid."""
    grid = dict(DISPATCH_GRID)
    if quick:
        grid["seeds"] = DISPATCH_GRID["seeds"][:2]
    spec = CampaignSpec(**grid)
    cells = len(grid["deltas"]) * len(grid["seeds"])

    serial = best_of(REPEATS, 1, grid)
    warm = best_of(REPEATS, DISPATCH_WORKERS, grid)
    spawn = best_of(SPAWN_REPEATS, DISPATCH_WORKERS, grid,
                    start_method="spawn")

    # One instrumented warm run for the lease accounting (its wall time
    # is not used; the timed runs above stay uninstrumented).
    with WarmWorkerPool(DISPATCH_WORKERS) as pool:
        result = run_campaign(spec, pool=pool)
        leases_served = pool.leases_served
    dispatch = result.dispatch_stats or {}

    return {
        "grid_cells": cells,
        "mode": "analytic",
        "workers": DISPATCH_WORKERS,
        "serial_seconds": serial,
        "warm_seconds": warm,
        "spawn_seconds": spawn,
        "warm_vs_spawn_speedup": spawn / warm,
        # Executor cost over and above the (tiny) serial compute: what
        # each dispatch path adds to an overhead-free baseline.
        "dispatch_overhead_warm_seconds": max(0.0, warm - serial),
        "dispatch_overhead_spawn_seconds": max(0.0, spawn - serial),
        "leases": dispatch.get("leases", 0),
        "lease_batch_size": dispatch.get("batch_size", 0),
        "leases_served": leases_served,
    }


def collect_scaling(quick: bool = False) -> dict:
    """Run the event-mode grid at every worker count; derive speedups."""
    grid = dict(BENCH_GRID, duration=5.0) if quick else BENCH_GRID
    if quick:
        grid["seeds"] = BENCH_GRID["seeds"][:2]
    cells = len(grid["deltas"]) * len(grid["seeds"])
    document = {
        "grid_cells": cells,
        "cell_duration_seconds": grid["duration"],
        "cpus": available_cpus(),
        "wall_seconds": {},
        "speedup_vs_serial": {},
    }
    for workers in WORKER_COUNTS:
        document["wall_seconds"][str(workers)] = time_campaign(workers,
                                                               grid=grid)
    serial = document["wall_seconds"]["1"]
    for workers in WORKER_COUNTS:
        document["speedup_vs_serial"][str(workers)] = \
            serial / document["wall_seconds"][str(workers)]
    document["not_measured"] = {
        f"speedup_{workers}_workers":
            f"{document['cpus']} CPU(s) < {workers} workers"
        for workers in WORKER_COUNTS if workers > document["cpus"]}
    return document


def collect(quick: bool = False) -> dict:
    """Both measurements, merged into one details document."""
    # The derived cache salt is memoized process state; derive it before
    # any timed window so the one-off analysis pass (and its imports)
    # cannot be booked against the first executor measured.
    cache_salt()
    document = collect_scaling(quick=quick)
    document["dispatch"] = collect_dispatch(quick=quick)
    return document


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    dispatch = details["dispatch"]
    metrics = {
        f"speedup_{workers}_workers":
            metric(details["speedup_vs_serial"][str(workers)], "x")
        for workers in WORKER_COUNTS
        if workers > 1
        and f"speedup_{workers}_workers" not in details["not_measured"]
    }
    metrics["serial_seconds"] = metric(details["wall_seconds"]["1"], "s",
                                       direction=LOWER_IS_BETTER)
    metrics["warm_vs_spawn_speedup"] = metric(
        dispatch["warm_vs_spawn_speedup"], "x")
    metrics["dispatch_overhead_warm_seconds"] = metric(
        max(dispatch["dispatch_overhead_warm_seconds"],
            OVERHEAD_RESOLUTION_SECONDS), "s",
        direction=LOWER_IS_BETTER)
    metrics["dispatch_overhead_spawn_seconds"] = metric(
        max(dispatch["dispatch_overhead_spawn_seconds"],
            OVERHEAD_RESOLUTION_SECONDS), "s",
        direction=LOWER_IS_BETTER)
    return build_report(SUITE, metrics, mode="quick" if quick else "full",
                        details=details)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    positional = [arg for arg in argv if not arg.startswith("--")]
    output = positional[0] if positional \
        else "benchmarks/BENCH_campaign.json"
    report = run_suite(quick=quick)
    document = report["details"]
    dispatch = document["dispatch"]
    write_report(report, output)
    print(f"campaign scaling on {document['cpus']} CPU(s), "
          f"{document['grid_cells']} cells:")
    for workers in WORKER_COUNTS:
        wall = document["wall_seconds"][str(workers)]
        speedup = document["speedup_vs_serial"][str(workers)]
        caveat = document["not_measured"].get(f"speedup_{workers}_workers")
        note = f"; speedup not measured: {caveat}" if caveat else ""
        print(f"  workers={workers}: {wall:7.2f}s  ({speedup:.2f}x{note})")
    print(f"dispatch overhead ({dispatch['grid_cells']} analytic cells, "
          f"{dispatch['workers']} workers):")
    print(f"  warm  pipeline: {dispatch['warm_seconds']:7.2f}s "
          f"(+{dispatch['dispatch_overhead_warm_seconds']:.2f}s overhead, "
          f"{dispatch['leases']} leases)")
    print(f"  cold spawn pool: {dispatch['spawn_seconds']:6.2f}s "
          f"(+{dispatch['dispatch_overhead_spawn_seconds']:.2f}s overhead)")
    print(f"  warm vs spawn:  {dispatch['warm_vs_spawn_speedup']:.2f}x")
    print(f"written to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
