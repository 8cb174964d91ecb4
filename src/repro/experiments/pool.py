"""Warm worker pool and batched cell leasing.

The campaign dispatcher's transport layer.  A :class:`WarmWorkerPool` keeps
``workers`` long-lived processes around: each worker imports the repro
closure once (under the preferred ``fork`` start method it inherits the
parent's already-imported modules outright; ``spawn`` starts each worker
from a fresh interpreter for full isolation), reports its import-closure
cache salt in a handshake, and then serves *leases* — contiguous batches
of (δ, seed) grid cells planned by :func:`plan_leases` — until the pool is
closed.  Per campaign this pays process start-up and imports once per
worker, not once per cell, and one pipe round trip per lease.

A finished lease travels back over the worker's pipe as one plain pickle
of its :class:`~repro.experiments.campaign.CellResult` list.  Pickling
keeps dict iteration order and float64 arrays bit for bit, which the
byte-identical artifact invariant relies on.  Everything in this module is
execution mechanics: it moves results between processes but computes
nothing, which is why it is excluded from the derived cache-salt closure
and banned from the kernel call graph alongside the telemetry modules
(OBS002).

Staleness: a long-lived pool may outlive a code edit.  Workers therefore
report :func:`repro.experiments.cache.cache_salt` (their view of the
import-closure code version) when they start; the parent refuses the pool
with :class:`StaleWorkerError` when any worker's salt differs from its
own.  Under ``fork`` the check is cheap (the memoized salt is inherited);
under ``spawn`` each worker derives it from the sources on disk, making
the handshake a real cross-process code-version check.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import traceback
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.spans import PHASE_LEASE, SpanTracer, append_spans


class StaleWorkerError(RuntimeError):
    """A pool worker reported an import-closure salt the parent rejects."""


class LeaseError(RuntimeError):
    """A lease failed inside a worker (carries the worker traceback)."""


#: Leases each worker should serve per campaign when auto-tuning the batch
#: size: enough batches that a slow cell cannot straggle the whole grid,
#: few enough that per-lease IPC stays amortized.
LEASES_PER_WORKER = 4

#: Target wall-clock length of one lease, seconds, used with the per-cell
#: duration estimate to keep leases short on expensive (event-mode) grids.
TARGET_LEASE_SECONDS = 2.0


def plan_leases(cells: Sequence[Tuple[float, int]], workers: int,
                batch_size: Optional[int] = None,
                cell_seconds: Optional[float] = None,
                affinity: Optional[str] = None,
                ) -> List[List[Tuple[float, int]]]:
    """Partition grid cells into deterministic, contiguous lease batches.

    The partition depends only on the arguments — never on timing or
    worker count *behaviour* — so the same spec always produces the same
    leases (the serial==parallel byte-identity invariant needs nothing
    from this, since the merge re-orders by grid index, but deterministic
    leases keep span/timing telemetry comparable across runs).

    ``batch_size=None`` auto-tunes: start from a fair share that gives
    every worker about :data:`LEASES_PER_WORKER` leases, then shrink the
    batch when the per-cell duration estimate says one lease would exceed
    :data:`TARGET_LEASE_SECONDS` (expensive event-mode cells), so the tail
    of the grid stays balanced.

    ``affinity="seed"`` regroups the cells seed-major before batching —
    stably, so the δ order within one seed is the grid's — and never lets
    a lease straddle a seed boundary.  Analytic campaigns use this so a
    warm worker serving one lease replays each seed's cross traffic once
    and hits its in-process :class:`~repro.experiments.fastforward.\
CrossReplayMemo` for every further δ of that seed.  The merge re-orders
    by grid index, so affinity changes only which worker computes a cell,
    never any artifact byte.
    """
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}")
    if affinity not in (None, "seed"):
        raise ConfigurationError(
            f"affinity must be None or 'seed', got {affinity!r}")
    cells = list(cells)
    if not cells:
        return []
    if batch_size is None:
        fair = math.ceil(len(cells) / (max(1, workers) * LEASES_PER_WORKER))
        batch_size = max(1, fair)
        if cell_seconds is not None and cell_seconds > 0:
            by_cost = max(1, int(TARGET_LEASE_SECONDS / cell_seconds))
            batch_size = max(1, min(batch_size, by_cost))
    if affinity == "seed":
        groups: Dict[int, List[Tuple[float, int]]] = {}
        for cell in cells:
            groups.setdefault(cell[1], []).append(cell)
        return [group[i:i + batch_size]
                for group in groups.values()
                for i in range(0, len(group), batch_size)]
    return [cells[i:i + batch_size]
            for i in range(0, len(cells), batch_size)]


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
def _worker_main(conn, salt_override: Optional[str] = None) -> None:
    """Serve leases until told to stop (runs in the worker process).

    The first message out is the handshake: this worker's import-closure
    cache salt (or the injected override — tests use it to exercise the
    stale-worker refusal without editing sources).  Under ``fork`` the
    memoized salt is inherited from the parent; under ``spawn`` it is
    derived fresh from the sources on disk.
    """
    if salt_override is None:
        from repro.experiments.cache import cache_salt
        salt = cache_salt()
    else:
        salt = salt_override
    conn.send(("hello", -1, {"salt": salt, "pid": os.getpid()}))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # parent went away; nothing left to serve
        if message[0] == "stop":
            return
        request = message[1]
        try:
            payload = _serve_lease(request)
        except BaseException:
            conn.send(("error", request["index"], traceback.format_exc()))
            continue
        conn.send(("result", request["index"], payload))


def _serve_lease(request: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.campaign import _replay_counters, _run_cell
    spec = request["spec"]
    span_dir = request["span_dir"]
    # Replay-memo accounting rides beside the cells in the pipe message,
    # never inside them: the parent folds the deltas into its timing.json
    # dispatch block, so a cell is the same whichever process ran it.
    hits_before, misses_before = _replay_counters(spec)
    if span_dir is None:
        cells = [_run_cell(spec, delta, seed)
                 for delta, seed in request["cells"]]
    else:
        tracer = SpanTracer()
        with tracer.span(f"lease {request['index']}", phase=PHASE_LEASE):
            cells = [_run_cell(spec, delta, seed, span_dir=span_dir)
                     for delta, seed in request["cells"]]
        append_spans(span_dir, tracer.records)
    hits, misses = _replay_counters(spec)
    return {"cells": cells, "replay_hits": hits - hits_before,
            "replay_misses": misses - misses_before}


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def _default_start_method() -> str:
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else mp.get_start_method()


class WarmWorkerPool:
    """Persistent campaign workers serving batched cell leases.

    Parameters
    ----------
    workers:
        Long-lived worker processes to keep.
    start_method:
        Multiprocessing start method (default: ``fork`` where available,
        else the platform default).  ``fork`` makes warm-up free — the
        repro closure is inherited already imported.  ``spawn`` starts
        every worker from a fresh interpreter: full isolation, at the
        cost of cold imports and a salt derived from the sources.
    expected_salt:
        Import-closure salt the parent demands in the handshake (default:
        its own :func:`~repro.experiments.cache.cache_salt`).  Tests
        inject a value to avoid the source analysis.
    worker_salt:
        Salt the workers *report* instead of deriving their own — test
        injection for the stale-worker refusal path.

    A pool is reusable across campaigns: pass the instance as
    ``run_campaign(..., pool=pool)`` repeatedly and close it once at the
    end (or use it as a context manager).  Lifetime accounting (leases
    served, replay-memo hits and misses) accumulates on the instance.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None,
                 expected_salt: Optional[str] = None,
                 worker_salt: Optional[str] = None) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"pool workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._start_method = start_method
        self._expected_salt = expected_salt
        self._worker_salt = worker_salt
        self._procs: List[mp.process.BaseProcess] = []
        self._conns: List[Any] = []
        #: Verified handshake salt once started.
        self.salt: Optional[str] = None
        self.worker_pids: List[int] = []
        #: Lifetime lease accounting.
        self.leases_served = 0
        #: Lifetime replay-memo accounting (worker-side CrossReplayMemo
        #: hits/misses summed over every served lease).
        self.replay_hits = 0
        self.replay_misses = 0

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> "WarmWorkerPool":
        """Launch the workers and verify the salt handshake (idempotent)."""
        if self._procs:
            return self
        expected = self._expected_salt
        if expected is None:
            # Computed (and memoized) before forking, so fork workers
            # inherit it and the handshake costs nothing.
            from repro.experiments.cache import cache_salt
            expected = cache_salt()
        context = mp.get_context(self._start_method
                                 or _default_start_method())
        conns: List[Any] = []
        procs: List[mp.process.BaseProcess] = []
        try:
            for _ in range(self.workers):
                parent_end, child_end = context.Pipe()
                proc = context.Process(target=_worker_main,
                                       args=(child_end,
                                             self._worker_salt),
                                       daemon=True)
                proc.start()
                child_end.close()
                conns.append(parent_end)
                procs.append(proc)
            pids = []
            for conn in conns:
                kind, _, hello = conn.recv()
                if kind != "hello":
                    raise LeaseError(
                        f"expected worker handshake, got {kind!r}")
                if hello["salt"] != expected:
                    raise StaleWorkerError(
                        f"worker pid {hello['pid']} reports import-closure "
                        f"salt {hello['salt']!r} but the parent expects "
                        f"{expected!r}; the worker is running stale code — "
                        "restart the pool on the current sources")
                pids.append(hello["pid"])
        except BaseException:
            _teardown(conns, procs)
            raise
        self._conns = conns
        self._procs = procs
        self.worker_pids = pids
        self.salt = expected
        return self

    def run_leases(self, spec: Any,
                   leases: Sequence[Sequence[Tuple[float, int]]],
                   span_dir: Optional[Any] = None,
                   ) -> Iterator[Tuple[int, List[Any], Dict[str, Any]]]:
        """Dispatch leases and yield ``(index, cells, info)`` as they land.

        Completion order, not lease order: the caller's streaming merge
        re-orders by grid index.  Every worker holds at most one lease;
        finishing one immediately earns the next, so the pool stays busy
        without any global barrier.  A worker error or crash closes the
        pool (its pipes are in an unknown state) and raises
        :class:`LeaseError`.  ``info`` carries the lease's worker-side
        ``replay_hits``/``replay_misses`` deltas (zero for event-mode
        leases).
        """
        self.start()
        pending = deque(enumerate(leases))
        active: Dict[Any, int] = {}
        for conn in self._conns:
            if not pending:
                break
            self._dispatch(conn, pending.popleft(), spec, span_dir)
            active[conn] = True  # type: ignore[assignment]
        while active:
            for conn in _wait_connections(list(active)):
                try:
                    kind, index, payload = conn.recv()
                except EOFError:
                    self.close()
                    raise LeaseError(
                        "a pool worker exited mid-lease (killed or "
                        "crashed); the pool has been closed")
                if kind == "error":
                    self.close()
                    raise LeaseError(
                        f"lease {index} failed in worker:\n{payload}")
                cells = payload.pop("cells")
                self.leases_served += 1
                self.replay_hits += payload["replay_hits"]
                self.replay_misses += payload["replay_misses"]
                if pending:
                    self._dispatch(conn, pending.popleft(), spec, span_dir)
                else:
                    del active[conn]
                yield index, cells, payload

    def _dispatch(self, conn, numbered_lease, spec, span_dir) -> None:
        index, cells = numbered_lease
        conn.send(("lease", {"index": index, "spec": spec,
                             "cells": list(cells), "span_dir": span_dir}))

    def close(self) -> None:
        """Stop the workers; safe to call twice (and from error paths)."""
        conns, procs = self._conns, self._procs
        self._conns, self._procs = [], []
        self.worker_pids = []
        _teardown(conns, procs)

    def __enter__(self) -> "WarmWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "started" if self.started else "cold"
        return (f"<WarmWorkerPool workers={self.workers} {state} "
                f"leases={self.leases_served}>")


def _teardown(conns: List[Any], procs: List[mp.process.BaseProcess]) -> None:
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError):
            pass
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=5.0)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - stuck-worker backstop
            proc.terminate()
            proc.join(timeout=5.0)
