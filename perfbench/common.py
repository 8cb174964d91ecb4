"""Shared definitions of the benchmark: paths, grids and seed selection.

Standard library only, so the command-line entry point can load it (and
fail cleanly) even in a checkout whose ``src/`` tree is missing.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: Scratch space for caches, campaign outputs and result files; ignored by
#: git and wiped per run.
WORK = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"
#: Declares the workloads and every metric's name, unit and bound;
#: ``README.md`` documents what each metric measures and should move.
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper", "sweep-event", "sweep-cached")

#: The paper's six probe intervals (Table 3), seconds.
PAPER_DELTAS = (0.008, 0.020, 0.050, 0.100, 0.200, 0.500)

#: The keys of ``repro.experiments.figures.ALL_FIGURES``, in paper order.
FIGURES = ("table1", "table2", "figure1", "figure2", "figure4", "figure5",
           "figure6", "figure8", "figure9", "table3")
#: Figures a ``--smoke`` paper pass runs (the cheap ones, defaults kept).
SMOKE_FIGURES = ("table1", "table2", "figure1", "figure4")


@dataclass(frozen=True)
class Grid:
    """A (δ × seed) campaign grid drawn from a fixed pool of seeds.

    Every pass of a sweep runs all ``deltas`` over ``seeds_per_pass``
    seeds.  The base seed permutes ``seed_pool`` and pass ``k`` takes the
    ``k``-th chunk of that permutation, so consecutive passes never share
    a seed (nothing a warm worker keeps can carry a pass) while every
    cell stays inside the pool the event-mode reference covers.
    """

    deltas: Tuple[float, ...]
    seed_pool: Tuple[int, ...]
    seeds_per_pass: int
    duration: float
    scenario: str = "inria-umd"
    workers: int = 2

    def pass_seeds(self, base_seed: int, index: int) -> List[int]:
        """The seeds of pass ``index`` for ``base_seed`` (sorted)."""
        order = random.Random(base_seed).sample(list(self.seed_pool),
                                                len(self.seed_pool))
        chunks = len(order) // self.seeds_per_pass
        start = (index % chunks) * self.seeds_per_pass
        return sorted(order[start:start + self.seeds_per_pass])


#: The sweep workloads' grid: six paper δ × 4 seeds × 120 s on inria-umd.
SWEEP_GRID = Grid(PAPER_DELTAS, tuple(range(1, 65)), 4, 120.0)
#: The standard campaign: six paper δ × 8 seeds × 600 s on inria-umd.  The
#: traced run measures and checks the analytic engine on it.
STANDARD_GRID = Grid(PAPER_DELTAS, tuple(range(1, 65)), 8, 600.0)
#: A shrunk grid for the benchmark's own tests.
SMOKE_GRID = Grid((0.050, 0.500), (1, 2, 3, 4), 2, 60.0)


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    document = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in document[kind]}


def grids_for(smoke: bool) -> Dict[str, Grid]:
    """The grids by reference section: ``sweep`` and ``standard``."""
    if smoke:
        return {"sweep": SMOKE_GRID, "standard": SMOKE_GRID}
    return {"sweep": SWEEP_GRID, "standard": STANDARD_GRID}


def paper_order(base_seed: int, names: Sequence[str]) -> List[str]:
    """The order a paper pass calls the figures in, drawn from the seed.

    The figures run with the paper's own defaults (their seeds included),
    so the base seed only decides the call order.
    """
    return random.Random(base_seed).sample(list(names), len(names))


def use_repo_sources() -> None:
    """Make ``import repro`` load this checkout's ``src`` tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
