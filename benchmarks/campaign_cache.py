"""Measure cold-vs-warm campaign latency; ``benchmarks/BENCH_cache.json``.

Run directly (CI's cache-smoke job does) or via ``repro-bench run cache``::

    python benchmarks/campaign_cache.py [OUTPUT.json] [--quick]

Runs the fixed benchmark grid twice against the same cell cache: a cold
pass (empty cache, every cell simulated and stored) and a warm pass (every
cell loaded from disk).  Records both wall times, the speedup, the warm
pass's hit accounting, and whether the two passes' artifacts — summary
tables, per-cell trace CSVs, ``manifest.json`` — came out byte-identical
(the cold==warm invariant), in the shared ``repro-bench`` report schema
(:mod:`repro.obs.bench`).  ``benchmarks/test_perf_cache.py`` asserts the
>= 10x warm speedup and the byte-identity.

It also records ``salt_seconds``: what deriving the cache salt costs every
fresh ``repro-campaign``/``repro-figures`` process and every ``spawn``
worker — the median over fresh interpreters of one cold
:func:`~repro.experiments.cache.cache_salt` call, with ``repro`` already
imported (as ``perfbench``'s ``devtools.salt_s`` times it).
"""

from __future__ import annotations

import filecmp
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import repro
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.obs.bench import build_report, metric, write_report

SUITE = "cache"

#: The fixed benchmark grid: 2 deltas x 3 seeds = 6 cells, sized so the
#: cold pass costs seconds of simulation while the warm pass is pure I/O.
BENCH_GRID = dict(
    deltas=(0.02, 0.05),
    seeds=(1, 2, 3),
    duration=30.0,
    scenario="inria-umd",
    scenario_kwargs={"utilization_fwd": 0.5, "utilization_rev": 0.5},
)

#: Required warm-over-cold speedup (asserted by test_perf_cache.py).
SPEEDUP_FLOOR = 10.0

#: Fresh interpreters timed for ``salt_seconds`` (3 in quick mode).
SALT_RUNS = 7

#: Times one cold cache_salt() in a fresh interpreter; prints seconds.
_SALT_PROBE = """\
from time import perf_counter
from repro.experiments.cache import cache_salt
started = perf_counter()
cache_salt()
print(perf_counter() - started)
"""


def salt_seconds(runs: int) -> float:
    """Median seconds of a cold ``cache_salt()`` over ``runs`` interpreters."""
    env = dict(os.environ)
    sources = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [sources] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(runs):
        probe = subprocess.run([sys.executable, "-c", _SALT_PROBE], env=env,
                               capture_output=True, text=True, check=True)
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def _run_pass(cache: CampaignCache, output_dir: Path,
              grid: dict = BENCH_GRID) -> "tuple[float, dict]":
    """One full campaign into ``output_dir``; (wall seconds, cache stats)."""
    spec = CampaignSpec(output_dir=output_dir, **grid)
    started = perf_counter()
    result = run_campaign(spec, cache=cache)
    assert result.cache_stats is not None
    return perf_counter() - started, result.cache_stats


def _artifacts_identical(cold_dir: Path, warm_dir: Path) -> bool:
    """True when every deterministic artifact matches byte-for-byte.

    ``timing.json`` is excluded by design: it records execution mechanics
    (wall clocks, hit/miss accounting) and legitimately differs.
    """
    names = sorted(p.name for p in cold_dir.iterdir()
                   if p.name != "timing.json")
    if names != sorted(p.name for p in warm_dir.iterdir()
                       if p.name != "timing.json"):
        return False
    match, mismatch, errors = filecmp.cmpfiles(cold_dir, warm_dir, names,
                                               shallow=False)
    return not mismatch and not errors


def collect(quick: bool = False) -> dict:
    """Run the grid cold then warm against one cache; derive the speedup."""
    grid = dict(BENCH_GRID, duration=5.0) if quick else BENCH_GRID
    workdir = Path(tempfile.mkdtemp(prefix="bench-cache-"))
    try:
        cache = CampaignCache(workdir / "cache")
        cold_seconds, cold_stats = _run_pass(cache, workdir / "cold",
                                             grid=grid)
        warm_seconds, warm_stats = _run_pass(cache, workdir / "warm",
                                             grid=grid)
        identical = _artifacts_identical(workdir / "cold", workdir / "warm")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cells = len(grid["deltas"]) * len(grid["seeds"])
    salt_runs = 3 if quick else SALT_RUNS
    return {
        "grid_cells": cells,
        "cell_duration_seconds": grid["duration"],
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cold_misses": cold_stats["misses"],
        "warm_hits": warm_stats["hits"],
        "warm_misses": warm_stats["misses"],
        "cache_bytes_written": cold_stats["bytes_written"],
        "cache_bytes_read": warm_stats["bytes_read"],
        "artifacts_identical": identical,
        "salt_runs": salt_runs,
        "salt_seconds": salt_seconds(salt_runs),
    }


def run_suite(quick: bool = False) -> dict:
    """One schema-versioned ``repro-bench`` report for this suite."""
    details = collect(quick=quick)
    metrics = {
        "warm_speedup": metric(details["speedup"], "x"),
        "warm_seconds": metric(details["warm_seconds"], "s",
                               direction="lower"),
        "salt_seconds": metric(details["salt_seconds"], "s",
                               direction="lower"),
    }
    return build_report(SUITE, metrics, mode="quick" if quick else "full",
                        details=details)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    positional = [arg for arg in argv if not arg.startswith("--")]
    output = positional[0] if positional else "benchmarks/BENCH_cache.json"
    report = run_suite(quick="--quick" in argv)
    document = report["details"]
    write_report(report, output)
    print(f"campaign cell cache, {document['grid_cells']} cells:")
    print(f"  cold: {document['cold_seconds']:7.2f}s "
          f"({document['cold_misses']} misses)")
    print(f"  warm: {document['warm_seconds']:7.2f}s "
          f"({document['warm_hits']} hits)  "
          f"-> {document['speedup']:.1f}x")
    print(f"  artifacts byte-identical: {document['artifacts_identical']}")
    print(f"  cache salt: {document['salt_seconds']:.3f}s "
          f"(median of {document['salt_runs']} fresh interpreters)")
    print(f"written to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
