"""Per-layer tracing from outside the program: module-attribute wrappers.

Inside a ``with LayerTracer():`` block, public functions of the repro
layers are replaced — in every ``repro`` module that bound them — by
wrappers that count calls and time them; leaving the block puts the
originals back.  Only the traced run of the benchmark enters such a block,
so the timed runs execute the program untouched.  Nothing under ``src/``
knows about these wrappers.

Each wrapper keeps its probe's inclusive time (outermost calls only, so a
recursive or nested call is never counted twice) and its self time (the
inclusive time minus the time of wrapped calls made inside it).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute, probe) for every wrapped function.  The attribute
#: is rebound wherever a ``repro`` module imported that same function.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.runner", "build_scenario", "topology.build"),
    ("repro.experiments.runner", "probe_scenario", "sim.run"),
    ("repro.analysis.phase", "phase_points", "analysis"),
    ("repro.analysis.phase", "fit_compression_line", "analysis"),
    ("repro.analysis.phase", "diagonal_fraction", "analysis"),
    ("repro.analysis.workload", "workload_distribution", "analysis"),
    ("repro.analysis.workload", "find_peaks", "analysis"),
    ("repro.analysis.workload", "classify_peaks", "analysis"),
    ("repro.analysis.loss", "loss_stats", "analysis"),
    ("repro.analysis.lindley", "lindley_waits", "analysis.lindley"),
    ("repro.plotting.ascii", "line", "plotting.render"),
    ("repro.plotting.ascii", "scatter", "plotting.render"),
    ("repro.plotting.ascii", "histogram", "plotting.render"),
    ("repro.experiments.fastforward", "build_cross_replay",
     "fastforward.replay"),
    ("repro.experiments.fastforward", "run_fastforward_experiment",
     "fastforward.engine"),
    ("repro.obs.manifest", "write_manifest", "obs.manifest"),
    ("repro.obs.manifest", "write_timing", "obs.manifest"),
)

#: (module, class, method, probe) for every wrapped method.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.experiments.cache", "CampaignCache", "load_many", "cache.lookup"),
    ("repro.experiments.cache", "CampaignCache", "store", "cache.store"),
    ("repro.netdyn.trace", "ProbeTrace", "save_csv", "netdyn.save_csv"),
)


class Probe:
    """Calls and seconds accumulated by one probe."""

    __slots__ = ("calls", "seconds", "self_seconds", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.depth = 0


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start: float) -> None:
        self.start = start
        self.child = 0.0


class LayerTracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.probes: Dict[str, Probe] = defaultdict(Probe)
        #: Sum of Simulator.events_executed over every probed scenario.
        self.events = 0
        #: Fast-forward bottleneck passes / per-packet walks, keyed by δ.
        self.passes_by_delta: Counter = Counter()
        self.walks_by_delta: Counter = Counter()
        self.walk_seconds = 0.0
        self._delta: Optional[float] = None
        self._stack: List[_Frame] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for module_name, attr, probe in FUNCTIONS:
                self._wrap_function(module_name, attr, probe)
            for module_name, cls_name, attr, probe in METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                self._set(cls, attr,
                          self._timed(probe, cls.__dict__[attr]))
            fastforward = importlib.import_module(
                "repro.experiments.fastforward")
            self._set(fastforward, "FluidQueue",
                      self._counting_queue(fastforward.FluidQueue))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, module_name: str, attr: str,
                       probe: str) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        before = after = None
        if probe == "sim.run":
            after = self._count_events
        elif probe == "fastforward.engine":
            before, after = self._enter_cell, self._leave_cell
        wrapper = self._timed(probe, original, before, after)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(module, attr, None) is original:
                self._set(module, attr, wrapper)

    def _timed(self, name: str, original: Callable,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None) -> Callable:
        probe = self.probes[name]
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            frame = _Frame(perf_counter())
            stack.append(frame)
            probe.depth += 1
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame.start
                stack.pop()
                probe.depth -= 1
                if stack:
                    stack[-1].child += elapsed
                probe.self_seconds += elapsed - frame.child
                if probe.depth == 0:
                    probe.calls += 1
                    probe.seconds += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting_queue(self, base: type) -> type:
        """A FluidQueue subclass timing each walk: construction to stats()."""
        tracer = self

        class CountingFluidQueue(base):  # type: ignore[misc,valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                tracer.walks_by_delta[tracer._delta] += 1
                self._walk_started = perf_counter()

            def stats(self, elapsed: float) -> dict:
                walked = perf_counter() - self._walk_started
                tracer.walk_seconds += walked
                if tracer._stack:
                    # The walk runs inside the engine call: not engine
                    # self time.
                    tracer._stack[-1].child += walked
                return super().stats(elapsed)

        return CountingFluidQueue

    # -- hooks ----------------------------------------------------------
    def _count_events(self, args: tuple, kwargs: dict, trace: Any) -> None:
        scenario = args[0] if args else kwargs["scenario"]
        self.events += int(scenario.sim.events_executed)

    def _enter_cell(self, args: tuple, kwargs: dict) -> None:
        config = args[0] if args else kwargs["config"]
        self._delta = float(config.delta)

    def _leave_cell(self, args: tuple, kwargs: dict, result: Any) -> None:
        if result.mode_used == "analytic":
            self.passes_by_delta[self._delta] += 2
        self._delta = None

    # -- readout ----------------------------------------------------------
    def seconds(self, name: str) -> float:
        return self.probes[name].seconds

    def calls(self, name: str) -> int:
        return self.probes[name].calls

    def self_seconds(self, name: str) -> float:
        return self.probes[name].self_seconds
