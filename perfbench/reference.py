"""Reference digests for the benchmark's output checks.

Every figure of a ``paper`` pass and every campaign cell is checked
against a digest recorded here once.  Cell references come from an
**event-mode** campaign over the whole seed pool of each grid (``sweep``:
the sweep workloads'; ``standard``: the one the analytic engine is
checked on): event execution is the golden oracle, so an analytic or
cached cell passes only when its probe trace is bit-identical to what the
event simulator produced.

Regenerate (about 9 minutes on 2 CPUs) after a change that is *meant* to
alter simulated outputs::

    python3 perfbench/reference.py --output perfbench/reference.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

import numpy as np

from common import REFERENCE, SMOKE_FIGURES, Grid, grids_for, use_repo_sources


def trace_digest(trace: Any) -> str:
    """SHA-256 over a trace's ``send_times`` then ``rtts`` (float64 bytes)."""
    digest = hashlib.sha256()
    for column in (trace.send_times, trace.rtts):
        digest.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
    return digest.hexdigest()


def figure_digest(result: Any) -> str:
    """SHA-256 over a figure's ``summary()``, ``rendering`` and trace."""
    digest = hashlib.sha256()
    digest.update(result.summary().encode())
    digest.update(b"\0")
    digest.update(result.rendering.encode())
    digest.update(b"\0")
    if result.trace is not None:
        digest.update(trace_digest(result.trace).encode())
    return digest.hexdigest()


def load(path: Path = REFERENCE) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def paper_reference(names: Optional[Iterable[str]] = None) -> Dict[str, str]:
    """Digest of every figure, run serially with its defaults."""
    from repro.experiments.figures import ALL_FIGURES
    names = list(ALL_FIGURES) if names is None else list(names)
    return {name: figure_digest(ALL_FIGURES[name]()) for name in names}


def sweep_reference(grid: Grid) -> Dict[str, Any]:
    """Event-mode digests of every (δ, seed) cell of the grid's seed pool."""
    from repro.experiments.campaign import CampaignSpec, cell_key, run_campaign
    cells: Dict[str, str] = {}
    pool = list(grid.seed_pool)
    for start in range(0, len(pool), grid.seeds_per_pass):
        spec = CampaignSpec(deltas=grid.deltas,
                            seeds=pool[start:start + grid.seeds_per_pass],
                            duration=grid.duration, scenario=grid.scenario,
                            mode="event")
        result = run_campaign(spec, workers=grid.workers)
        for (delta, seed), trace in result.traces.items():
            cells[cell_key(delta, seed)] = trace_digest(trace)
    return {"scenario": grid.scenario, "duration": grid.duration,
            "deltas": list(grid.deltas), "seeds": pool, "mode": "event",
            "cells": cells}


def build(smoke: bool) -> Dict[str, Any]:
    from repro.experiments.cache import cache_salt
    return {"salt": cache_salt(),
            "paper": paper_reference(SMOKE_FIGURES if smoke else None),
            **{section: sweep_reference(grid)
               for section, grid in grids_for(smoke).items()}}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reference the shrunk test grid only")
    args = parser.parse_args(argv)
    use_repo_sources()
    document = build(args.smoke)
    args.output.write_text(json.dumps(document, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
