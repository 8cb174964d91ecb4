"""Campaign parallelization benchmarks.

The governing requirement of the parallel executors: fanning the (δ × seed)
grid over worker processes changes *nothing* about the results (that is
tier-1 tested in ``tests/experiments/test_campaign.py``) and makes the
sweep substantially faster.  Two separate claims are recorded in
``BENCH_campaign.json`` and floor-tested here:

* the warm ``fork`` lease pipeline avoids the dispatch overhead of a
  cold pool — interpreter start, imports and salt derivation in every
  worker — so it beats a freshly started ``spawn`` pool by >= 1.4x on
  the overhead-dominated analytic grid *on any CPU count* (the win is
  per-worker, not per-core);
* independent cells scale across cores, >= 1.5× at 4 workers wherever
  the hardware can express it.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from campaign_scaling import available_cpus, run_suite, time_campaign

from repro.obs.bench import write_report

SPEEDUP_FLOOR = 1.5

#: Required warm-pipeline advantage over the cold-spawn baseline on the
#: overhead-dominated dispatch grid (the ISSUE's >= 1.4x acceptance
#: floor; measured advantage is far larger).
DISPATCH_SPEEDUP_FLOOR = 1.4


@pytest.fixture(scope="module")
def scaling_document():
    """Run the full scaling grid once and persist BENCH_campaign.json."""
    report = run_suite()
    out = Path(__file__).resolve().parent / "BENCH_campaign.json"
    write_report(report, out)
    return report["details"]


def test_scaling_document_complete(scaling_document):
    assert scaling_document["grid_cells"] == 8
    assert set(scaling_document["wall_seconds"]) == {"1", "2", "4"}
    assert all(wall > 0
               for wall in scaling_document["wall_seconds"].values())
    assert scaling_document["speedup_vs_serial"]["1"] == pytest.approx(1.0)


def test_speedup_at_4_workers(scaling_document):
    if scaling_document["cpus"] < 4:
        pytest.skip(f"speedup floor needs >= 4 CPUs, have "
                    f"{scaling_document['cpus']}")
    assert scaling_document["speedup_vs_serial"]["4"] > SPEEDUP_FLOOR


def test_warm_pipeline_beats_cold_spawn(scaling_document):
    """A warm pool pays worker start-up once, not per campaign.

    Runs (and must pass) on a 1-CPU host: both pools get the same worker
    count, so the ratio isolates per-worker cold start (interpreter,
    imports, salt derivation), not core-count parallelism.
    """
    dispatch = scaling_document["dispatch"]
    assert dispatch["warm_vs_spawn_speedup"] >= DISPATCH_SPEEDUP_FLOOR, \
        (f"warm {dispatch['warm_seconds']:.2f}s vs spawn "
         f"{dispatch['spawn_seconds']:.2f}s")


def test_dispatch_accounting_consistent(scaling_document):
    """Every planned lease was served by the pool exactly once."""
    dispatch = scaling_document["dispatch"]
    assert dispatch["leases"] > 0
    assert dispatch["leases_served"] == dispatch["leases"]


def test_parallel_not_pathologically_slower():
    """Even on small machines the pool must not collapse throughput.

    Guards the fan-out overhead (process start-up, spec pickling, trace
    pickling) rather than the speedup: with 2 workers the same grid may
    not run any meaningful factor *slower* than serial, whatever the CPU
    count.
    """
    serial = time_campaign(1)
    parallel = time_campaign(2)
    budget = 1.5 if available_cpus() == 1 else 1.2
    assert parallel < serial * budget, \
        f"2-worker run {parallel:.2f}s vs serial {serial:.2f}s"
