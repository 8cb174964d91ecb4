"""Analytic fast-forward execution of a calibrated probe experiment.

The calibrated scenarios are, structurally, exactly the paper's Figure 3
model: probes cross a chain of FIFO links, one of them the bottleneck per
direction, where an open-loop Internet stream joins them.  This module
exploits that: instead of driving every cross packet through the event
kernel, it

1. **replays the cross-traffic RNG streams** scalar-for-scalar in event
   order (the :class:`~repro.sim.random.BatchedDraws` layer guarantees the
   value sequence is identical either way), producing the *exact* emission
   times and packet sizes event mode would generate;
2. pushes those emissions through their access link with one
   :func:`~repro.queueing.fastforward.departure_scan`, yielding the exact
   bottleneck arrival times.  An access link rarely fills, so nearly all
   of this scan runs as numpy speculation windows, each checked arrival
   by arrival against the kernel's rule;
3. advances each bottleneck with one more departure scan over the merged
   cross and probe arrivals, which decides every drop exactly as the
   event queue does: windows without a drop are computed in numpy and
   checked, and the scalar loop takes the arrivals around each overflow
   (all of them on a link that drops often).  The bottleneck's queue
   statistics come from the same scan, summed in the kernel's order;
4. walks the probes hop by hop along the round trip, vectorized over the
   probe train, and replays fault decisions by drawing from the *same*
   :class:`~repro.net.faults.RandomDropFault` generators in probe order.

**Invariant: event-order arithmetic.**  Every time this module computes
is the result of the float operations the event kernel performs for the
same packet, in the kernel's order and association: ``t + proc`` at a
forwarding node, ``start = max(arrival, finish)`` and ``start + bits /
rate`` at a link (as in :meth:`repro.net.link.Interface._start_next`),
``finish + prop`` to the next node.  Nothing is precomputed as a sum of
fixed latencies.  Where two events fall on one instant, the scan orders
them as the kernel does, by the instant each was scheduled.  So the
analytic trace equals the event trace *bit for bit* — the equivalence
tests pin it with ``np.array_equal``, not a tolerance — and event mode
remains the golden reference: any divergence is a bug in this module,
never a re-baseline.

The mode only handles what it can do exactly: open-loop
:class:`~repro.traffic.ftp.FtpSource` / :class:`~repro.traffic.telnet.TelnetSource`
cross traffic, :class:`~repro.net.faults.RandomDropFault` on probe-only
interfaces, and floor-quantized or perfect source clocks.  Anything else —
a reactive mini-TCP flow, a stall fault, a lifecycle hook, a fault shared
with cross traffic — produces an ineligibility reason and the runner falls
back to exact event execution (:func:`fastforward_ineligibilities` reports
why).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Iterable, List, Optional, \
    Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Scenario, build_scenario, probe_scenario
from repro.net.clocks import PerfectClock, QuantizedClock
from repro.net.faults import RandomDropFault
from repro.net.link import Interface
from repro.net.packet import UDP_WIRE_OVERHEAD_BYTES
from repro.net.queue import MODE_BYTES
from repro.net.routing import Network
from repro.netdyn import packetfmt
from repro.netdyn.session import DEFAULT_DRAIN
from repro.netdyn.trace import LOST, ProbeTrace
# The engine never constructs a FluidQueue; the benchmark's layer tracer
# (perfbench/layers.py) still wraps the name here to count per-packet
# walks, so it stays importable from this module.
from repro.queueing.fastforward import (
    FluidQueue,  # noqa: F401
    departure_scan,
    scan_stats,
)
from repro.traffic.ftp import FtpSource
from repro.traffic.sizes import EmpiricalSize
from repro.traffic.telnet import TelnetSource
from repro.units import bits_to_bytes, bytes_to_bits, seconds_to_ms

#: Safety margin on the access-link no-drop certificate: estimated peak
#: backlog must stay below this fraction of the access queue capacity.
ACCESS_BACKLOG_MARGIN = 0.9


@dataclass
class Hop:
    """One link a probe crosses, with the node that forwards onto it."""

    #: Interface label ("a->b"), for queue statistics.
    label: str
    #: Processing delay of the forwarding node, seconds.
    processing_delay: float
    rate_bps: float
    prop_delay: float
    capacity: int
    queue_mode: str
    #: Random drop stages met on transmit and on delivery, in order.
    egress_faults: List[RandomDropFault] = field(default_factory=list)
    ingress_faults: List[RandomDropFault] = field(default_factory=list)
    #: True on the two bottlenecks, whose queue statistics are reported.
    bottleneck: bool = False
    #: Cross traffic joining this queue: arrival instants (sorted), the
    #: instants their arrival events were scheduled, and wire bits.
    cross_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    cross_scheduled: np.ndarray = field(
        default_factory=lambda: np.empty(0))
    cross_bits: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class FastForwardResult:
    """Outcome of :func:`run_fastforward_experiment`."""

    trace: ProbeTrace
    #: Per-bottleneck statistics dicts keyed by interface label (analytic
    #: runs report the two bottlenecks; event fallbacks report every
    #: active queue, like a normal campaign cell).
    queue_stats: dict
    #: ``"analytic"`` or ``"event"`` (the mode actually executed).
    mode_used: str
    #: Why the analytic engine declined, when it did (sorted, stable).
    fallback_reasons: List[str]
    scenario: Scenario


# ---------------------------------------------------------------------------
# Model extraction
# ---------------------------------------------------------------------------
def _hop_interfaces(network: Network, path: Sequence[str],
                    ) -> List[Interface]:
    """The interfaces a packet crosses along ``path``, in order."""
    return [network.node(a).interface_to(b)
            for a, b in zip(path[:-1], path[1:])]


def _probe_hops(network: Network, path: Sequence[str],
                bottleneck: Interface) -> List[Hop]:
    """The hops along ``path``; the cross streams are attached later.

    Assumes eligibility already verified: no faults on the bottleneck
    itself, every fault a :class:`RandomDropFault` on a probe-only
    interface.
    """
    hops = []
    for name, interface in zip(path[:-1], _hop_interfaces(network, path)):
        queue = interface.queue
        hops.append(Hop(
            label=interface.name,
            processing_delay=network.node(name).processing_delay,
            rate_bps=interface.rate_bps, prop_delay=interface.prop_delay,
            capacity=queue.capacity, queue_mode=queue.mode,
            egress_faults=list(interface.egress_faults),
            ingress_faults=list(interface.ingress_faults),
            bottleneck=interface is bottleneck))
    return hops


def fastforward_ineligibilities(scenario: Scenario) -> List[str]:
    """Why ``scenario`` cannot run analytically (empty = eligible).

    Checks are structural only and consume no randomness, so an eligible
    scenario can proceed straight to extraction and an ineligible one can
    be rebuilt fresh for the event fallback.
    """
    reasons: List[str] = []
    network = scenario.network
    for attr in ("bottleneck_fwd", "bottleneck_rev", "mix_fwd", "mix_rev"):
        if not hasattr(scenario, attr):
            return [f"scenario exposes no {attr}"]

    clock = network.host(scenario.source).clock
    if type(clock) not in (PerfectClock, QuantizedClock):
        reasons.append(
            f"source clock {type(clock).__name__} is not replayable")

    fwd_path = network.path(scenario.source, scenario.echo)
    rev_path = network.path(scenario.echo, scenario.source)
    probe_interfaces: List[Interface] = []
    for path, bottleneck, label in (
            (fwd_path, scenario.bottleneck_fwd, "forward"),
            (rev_path, scenario.bottleneck_rev, "reverse")):
        interfaces = _hop_interfaces(network, path)
        crossings = sum(1 for i in interfaces if i is bottleneck)
        if crossings != 1:
            reasons.append(
                f"{label} probe path crosses its bottleneck "
                f"{crossings} times (need exactly 1)")
        probe_interfaces.extend(interfaces)

    if len({id(i) for i in probe_interfaces}) != len(probe_interfaces):
        reasons.append("the probe paths cross one interface twice")

    faults: List[RandomDropFault] = []
    for interface in probe_interfaces:
        if interface.lifecycle is not None:
            reasons.append(f"lifecycle hook on interface {interface.name}")
        if interface.queue.lifecycle is not None:
            reasons.append(f"lifecycle hook on queue of {interface.name}")
        on_bottleneck = (interface is scenario.bottleneck_fwd
                         or interface is scenario.bottleneck_rev)
        for fault in (list(interface.egress_faults)
                      + list(interface.ingress_faults)):
            if on_bottleneck:
                reasons.append(
                    f"fault on bottleneck interface {interface.name}")
            elif type(fault) is not RandomDropFault:
                reasons.append(
                    f"{type(fault).__name__} on {interface.name} is not "
                    "a replayable random drop")
            else:
                faults.append(fault)
    for path in (fwd_path, rev_path):
        for name in path:
            node = network.node(name)
            if node.lifecycle is not None:
                reasons.append(f"lifecycle hook on node {name}")
                break

    generator_ids = [id(fault._rng) for fault in faults]
    if len(set(generator_ids)) != len(generator_ids):
        reasons.append("faults share a random generator "
                       "(crossing order not replayable)")

    probe_ids = {id(i) for i in probe_interfaces}
    for mix, bottleneck, label in (
            (scenario.mix_fwd, scenario.bottleneck_fwd, "forward"),
            (scenario.mix_rev, scenario.bottleneck_rev, "reverse")):
        if mix is None:
            continue
        access_ids: List[int] = []
        for source in mix.sources:
            if type(source) not in (FtpSource, TelnetSource):
                reasons.append(
                    f"{label} mix has a non-open-loop source "
                    f"{type(source).__name__}")
                continue
            path = network.path(source.host.name, source.destination)
            interfaces = _hop_interfaces(network, path)
            if len(interfaces) < 2 or interfaces[1] is not bottleneck:
                reasons.append(
                    f"{label} mix source {source.host.name} does not "
                    "attach directly to the bottleneck ingress")
                continue
            access_ids.append(id(interfaces[0]))
            shared = [i for i in interfaces if id(i) in probe_ids]
            if any(i is not bottleneck for i in shared):
                reasons.append(
                    f"{label} mix shares a non-bottleneck interface "
                    "with the probes")
            for interface in interfaces:
                if interface.egress_faults or interface.ingress_faults:
                    if interface is not bottleneck:
                        reasons.append(
                            f"fault on mix interface {interface.name}")
                if interface.lifecycle is not None \
                        or interface.queue.lifecycle is not None:
                    reasons.append(
                        f"lifecycle hook on mix interface {interface.name}")
        if len(set(access_ids)) > 1:
            reasons.append(
                f"{label} mix sources use different access links")
    return sorted(set(reasons))


# ---------------------------------------------------------------------------
# Cross-traffic replay
# ---------------------------------------------------------------------------
def _ftp_emissions(source: FtpSource, horizon: float,
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Replay an FTP source's draws: (emission times, wire bits).

    Draws come from the source's *raw* generator: the batched layer
    guarantees its value sequence equals scalar draws (see
    ``tests/sim/test_random_batched.py``), and the source has drawn
    nothing yet, so replaying scalar-for-scalar in event order yields the
    exact emission sequence without the batch layer's kind-switch cost.
    The burst inner loop is vectorized — window ticks draw nothing, so
    one ``np.repeat`` over the per-window burst counts emits the same
    packet sequence the per-packet loop would.
    """
    rng = source.rng
    exponential = rng.exponential
    mean_interval = source._mean_session_interval
    wire_bits = float(bytes_to_bits(source.payload_bytes
                                    + UDP_WIRE_OVERHEAD_BYTES))
    window = source.window
    window_interval = source.window_interval
    ticks: List[float] = []
    bursts: List[int] = []
    # Event order on this stream: one exponential at start(), then per
    # session tick a geometric (file size) followed by an exponential
    # (next session); window ticks draw nothing.
    t = exponential(mean_interval)
    while t <= horizon:
        remaining = int(rng.geometric(source._file_size_p))
        tick = t
        while remaining > 0 and tick <= horizon:
            burst = min(window, remaining)
            ticks.append(tick)
            bursts.append(burst)
            remaining -= burst
            if remaining > 0:
                tick = tick + window_interval
        t = t + exponential(mean_interval)
    times = np.repeat(np.asarray(ticks, dtype=float),
                      np.asarray(bursts, dtype=np.intp))
    return times, np.full(times.size, wire_bits)


def _telnet_emissions(source: TelnetSource, horizon: float,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Replay a Telnet source's draws: (emission times, wire bits).

    Same raw-generator replay as :func:`_ftp_emissions`.  The empirical
    size distribution is inlined to one uniform per packet — exactly the
    single draw :meth:`EmpiricalSize.sample` consumes.  The loop only
    collects the uniforms; one ``searchsorted(..., side="right")`` on the
    CDF after it picks every size (the index the per-packet sample takes),
    with wire bits precomputed per size choice.
    """
    rng = source.rng
    exponential = rng.exponential
    mean_interval = source._mean_interval
    sizes = source.sizes
    # Typed buffers, not lists of float objects: a long replay holds
    # hundreds of thousands of emissions.
    times = array("d")
    # Event order: one exponential at start(), then per emission a size
    # draw followed by the next exponential.
    t = exponential(mean_interval)
    if isinstance(sizes, EmpiricalSize):
        wire_by_choice = np.array([
            float(bytes_to_bits(int(payload) + UDP_WIRE_OVERHEAD_BYTES))
            for payload in sizes.sizes])
        uniforms = array("d")
        random = rng.random
        while t <= horizon:
            uniforms.append(random())
            times.append(t)
            t = t + exponential(mean_interval)
        choices = np.searchsorted(
            sizes._cdf, np.frombuffer(uniforms, dtype=float), side="right")
        bits = wire_by_choice[choices]
    else:
        bit_list = array("d")
        while t <= horizon:
            payload = sizes.sample(rng)
            times.append(t)
            bit_list.append(bytes_to_bits(payload + UDP_WIRE_OVERHEAD_BYTES))
            t = t + exponential(mean_interval)
        bits = np.frombuffer(bit_list, dtype=float)
    return np.frombuffer(times, dtype=float), bits


@dataclass
class CrossStream:
    """One direction's replayed cross traffic, sliceable to any horizon.

    Emission generation truncates only the tail (``t <= horizon``), and
    the access-link departure scan is causal, so everything up to a
    shorter horizon is a bit-identical *prefix* of this stream — the
    arrays here are therefore built once per (scenario, kwargs, seed) and
    cut with ``np.searchsorted`` per cell (:func:`slice_stream`).  The
    running peak-backlog estimate makes the per-prefix no-drop
    certificate a single indexed lookup instead of a fresh max/min scan.
    """

    #: Merged emission times, sorted (the prefix cut key).
    emit_times: np.ndarray
    #: Exact bottleneck-queue arrival times, same order (nondecreasing:
    #: FIFO departures plus fixed latencies).
    arrivals: np.ndarray
    #: Instant each arrival's event was scheduled (the access link's
    #: transmission end, or the delivery before the bottleneck node's
    #: processing delay): the kernel's order at equal instants.
    scheduled: np.ndarray
    #: Wire bits of each packet.
    bits: np.ndarray
    #: Prefix peak-backlog estimate (packets) on the access link:
    #: ``cummax(waits) * rate / cummin(bits)``, so element ``i-1`` equals
    #: the certificate value a fresh build over the first ``i`` emissions
    #: would compute.
    peak_backlogs: np.ndarray
    #: Access-link identity for the overflow diagnostic.
    access_name: str
    access_capacity: int


@dataclass
class CrossReplay:
    """Both directions' cross streams, keyed and memoized per seed.

    A replay is a pure function of (scenario, kwargs, seed) up to its
    build ``horizon``; :func:`replay_key` derives the memo key from the
    same causal-fingerprint machinery as the cell cache (salt included),
    and :class:`CrossReplayMemo` treats any entry whose horizon covers a
    request as a hit (prefix slicing is exact, see :class:`CrossStream`).
    """

    horizon: float
    #: (forward, reverse); None where the direction has no mix.
    streams: Tuple[Optional[CrossStream], Optional[CrossStream]]


def _direction_stream(network: Network, mix, bottleneck: Interface,
                      horizon: float) -> Optional[CrossStream]:
    """Replay one direction's mix into a :class:`CrossStream`.

    Emissions from all of the mix's sources are merged, sent through
    their shared access link with one departure scan, and carried to the
    bottleneck queue in the kernel's arithmetic (module invariant).
    """
    if mix is None:
        return None
    time_parts: List[np.ndarray] = []
    bit_parts: List[np.ndarray] = []
    host = None
    access: Optional[Interface] = None
    for source in mix.sources:
        if isinstance(source, FtpSource):
            t, b = _ftp_emissions(source, horizon)
        else:
            t, b = _telnet_emissions(source, horizon)
        time_parts.append(t)
        bit_parts.append(b)
        host = source.host
        path = network.path(source.host.name, source.destination)
        access = _hop_interfaces(network, path)[0]
    times = np.concatenate(time_parts)
    bits = np.concatenate(bit_parts)
    if times.size == 0:
        return CrossStream(emit_times=times, arrivals=times, bits=bits,
                           peak_backlogs=times, access_name="",
                           access_capacity=0, scheduled=times)
    order = np.argsort(times, kind="stable")
    times = times[order]
    bits = bits[order]
    assert access is not None and host is not None
    send_times = times
    if host.processing_delay > 0:
        send_times = times + host.processing_delay
    starts, _ = departure_scan(send_times, bits, access.rate_bps,
                               access.queue.capacity, access.queue.mode)
    sent = ~np.isnan(starts)
    # A drop counts as an unbounded wait, so the certificate rejects
    # every prefix that reaches one.
    waits = np.where(sent, starts - send_times, np.inf)
    peak_backlogs = (np.maximum.accumulate(waits)
                     * access.rate_bps / np.minimum.accumulate(bits))
    if not sent.all():
        times, bits, starts = times[sent], bits[sent], starts[sent]
        peak_backlogs = peak_backlogs[sent]
    scheduled = starts + bits / access.rate_bps
    arrivals = scheduled + access.prop_delay
    processing = network.node(bottleneck.node.name).processing_delay
    if processing > 0:
        scheduled = arrivals
        arrivals = arrivals + processing
    return CrossStream(emit_times=times, arrivals=arrivals, bits=bits,
                       peak_backlogs=peak_backlogs,
                       access_name=access.name,
                       access_capacity=access.queue.capacity,
                       scheduled=scheduled)


def build_cross_replay(scenario: Scenario, horizon: float) -> CrossReplay:
    """Replay both directions' cross traffic up to ``horizon``."""
    network = scenario.network
    return CrossReplay(horizon=float(horizon), streams=(
        _direction_stream(network, scenario.mix_fwd,
                          scenario.bottleneck_fwd, horizon),
        _direction_stream(network, scenario.mix_rev,
                          scenario.bottleneck_rev, horizon)))


def slice_stream(stream: Optional[CrossStream], horizon: float,
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (arrivals, bits, scheduled) prefix a build at ``horizon`` gives.

    Applies the per-prefix no-drop certificate on the access link — the
    same check (and diagnostic) a direct replay at ``horizon`` performs,
    read off the precomputed running peak instead of recomputed.
    """
    if stream is None:
        return np.empty(0), np.empty(0), np.empty(0)
    cut = int(np.searchsorted(stream.emit_times, horizon, side="right"))
    if cut == 0:
        return (stream.emit_times[:0], stream.bits[:0],
                stream.emit_times[:0])
    peak_backlog = float(stream.peak_backlogs[cut - 1])
    if peak_backlog > ACCESS_BACKLOG_MARGIN * stream.access_capacity:
        raise ConfigurationError(
            f"access link {stream.access_name} may overflow "
            f"(~{peak_backlog:.0f} packets backlogged of "
            f"{stream.access_capacity}); scenario too loaded for the "
            "no-drop access model")
    return (stream.arrivals[:cut], stream.bits[:cut],
            stream.scheduled[:cut])


#: Replay entries a :class:`CrossReplayMemo` keeps by default.  Sized for
#: a seed-affine lease (one hot seed, a little slack for interleaving);
#: an entry holds ~4 float64 arrays per direction, so the bound also caps
#: resident memory in long-lived warm workers.
DEFAULT_REPLAY_ENTRIES = 4


class CrossReplayMemo:
    """Bounded LRU of :class:`CrossReplay` artifacts, keyed by fingerprint.

    An entry hits when its key matches *and* its build horizon covers the
    requested one (a shorter request is an exact prefix slice); a stored
    replay with a longer horizon simply replaces the old entry.  Hit and
    miss counters are execution mechanics: the campaign quarantines them
    in timing.json's ``dispatch`` block, never in any deterministic
    artifact — which is also why the memo lives beside the engine, not on
    :class:`~repro.experiments.campaign.CampaignSpec`.
    """

    def __init__(self, entries: int = DEFAULT_REPLAY_ENTRIES) -> None:
        if entries < 1:
            raise ConfigurationError(
                f"memo needs at least one entry, got {entries}")
        self.entries = int(entries)
        self._replays: "OrderedDict[str, CrossReplay]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._replays)

    def get(self, key: str, horizon: float) -> Optional[CrossReplay]:
        """The covering replay for ``key``, or None (counted as a miss)."""
        replay = self._replays.get(key)
        if replay is not None and replay.horizon >= horizon:
            self._replays.move_to_end(key)
            self.hits += 1
            return replay
        self.misses += 1
        return None

    def put(self, key: str, replay: CrossReplay) -> None:
        self._replays[key] = replay
        self._replays.move_to_end(key)
        while len(self._replays) > self.entries:
            self._replays.popitem(last=False)

    def counters(self) -> Tuple[int, int]:
        """(hits, misses) snapshot, for delta accounting around a lease."""
        return self.hits, self.misses


_process_memo: Optional[CrossReplayMemo] = None


def process_replay_memo() -> CrossReplayMemo:
    """The process-global memo serial cells and warm workers share."""
    global _process_memo
    if _process_memo is None:
        _process_memo = CrossReplayMemo()
    return _process_memo


def replay_key(config: ExperimentConfig) -> str:
    """The config's replay-memo key (cell-cache fingerprint machinery)."""
    from repro.experiments.cache import replay_fingerprint
    return replay_fingerprint(config.scenario, config.scenario_kwargs,
                              config.seed)


def cell_horizon(config: ExperimentConfig) -> float:
    """Simulated end time of one cell (warm-up + probe train + drain)."""
    return config.warmup + config.count * config.delta + DEFAULT_DRAIN


# ---------------------------------------------------------------------------
# Probe pipeline
# ---------------------------------------------------------------------------
def _apply_stages(stages: Sequence[RandomDropFault],
                  alive: np.ndarray) -> None:
    """Draw each stage's drop decisions for surviving probes, in order.

    Event mode draws one uniform per packet *reaching* a fault, in
    sequence order (probes cannot reorder); a probe dropped earlier never
    draws at later stages.  One batched
    :meth:`~repro.net.faults.RandomDropFault.drops_many` call per stage
    replays exactly those draws (``Generator.random(size=n)`` consumes
    the same doubles as ``n`` scalar draws).  Mutates ``alive`` in place
    and advances the faults' own generators/counters, keeping them
    draw-for-draw in step.
    """
    for stage in stages:
        indices = np.flatnonzero(alive)
        if indices.size == 0:
            continue
        dropped = stage.drops_many(indices.size)
        alive[indices[dropped]] = False


def _kernel_order(cross_times: np.ndarray, cross_scheduled: np.ndarray,
                  probe_times: np.ndarray,
                  probe_scheduled: np.ndarray) -> np.ndarray:
    """Positions of the probes in the merged arrival sequence.

    Both inputs are sorted, so one ``searchsorted`` merges them.  At one
    instant the kernel runs events in the order they were scheduled: a
    cross packet goes ahead of a probe unless its event was scheduled
    later (equal scheduling instants keep the cross packet first).
    """
    ahead = np.searchsorted(cross_times, probe_times, side="right")
    tied_from = np.searchsorted(cross_times, probe_times, side="left")
    for index in np.flatnonzero(tied_from < ahead).tolist():
        tied = cross_scheduled[tied_from[index]:ahead[index]]
        ahead[index] -= int(np.count_nonzero(
            tied > probe_scheduled[index]))
    return ahead + np.arange(probe_times.size)


def _queue_pass(hop: Hop, times: np.ndarray, scheduled: np.ndarray,
                alive: np.ndarray, probe_bits: float, end_time: float,
                ) -> Optional[dict]:
    """Carry the live probes across one link, in the kernel's arithmetic.

    ``times`` holds each probe's arrival at the link and ``scheduled``
    the instant its arrival event was scheduled; both are advanced in
    place to the delivery at the far end and the transmission end that
    schedules it.  Probes the buffer drops leave ``alive``.  The
    bottleneck merges the cross arrivals in kernel order and runs one
    :func:`~repro.queueing.fastforward.departure_scan`, returning its
    queue statistics; elsewhere only probes use the link, and when none
    arrives before its predecessor has left (the usual case) each
    departure is just ``arrival + bits / rate``.
    """
    live = np.flatnonzero(alive)
    arrivals = times[live]
    service = probe_bits / hop.rate_bps
    stats: Optional[dict] = None
    if hop.bottleneck:
        # Cross packets still on their way at the end never arrive.
        cut = int(np.searchsorted(hop.cross_times, end_time, side="right"))
        cross_times = hop.cross_times[:cut]
        slots = _kernel_order(cross_times, hop.cross_scheduled[:cut],
                              arrivals, scheduled[live])
        total = cut + live.size
        merged_times = np.empty(total)
        merged_scheduled = np.empty(total)
        merged_bits = np.empty(total)
        is_cross = np.ones(total, dtype=bool)
        is_cross[slots] = False
        merged_times[slots] = arrivals
        merged_times[is_cross] = cross_times
        merged_scheduled[slots] = scheduled[live]
        merged_scheduled[is_cross] = hop.cross_scheduled[:cut]
        merged_bits[slots] = probe_bits
        merged_bits[is_cross] = hop.cross_bits[:cut]
        del is_cross
        starts, peak = departure_scan(
            merged_times, merged_bits, hop.rate_bps, hop.capacity,
            hop.queue_mode, merged_scheduled)
        del merged_scheduled
        stats = scan_stats(merged_times, merged_bits, starts, peak,
                           end_time)
        starts = starts[slots]
    else:
        finishes = arrivals + service
        oversized = (hop.queue_mode == MODE_BYTES
                     and bits_to_bytes(probe_bits) > hop.capacity)
        if not oversized and not np.any(arrivals[1:] < finishes[:-1]):
            starts = arrivals
        else:
            starts, _ = departure_scan(
                arrivals, np.full(live.size, probe_bits), hop.rate_bps,
                hop.capacity, hop.queue_mode, scheduled[live])
    dropped = np.isnan(starts)
    alive[live[dropped]] = False
    finishes = starts + service
    scheduled[live] = finishes
    times[live] = finishes + hop.prop_delay
    return stats


def _round_trip(hops: Sequence[Hop], send_times: np.ndarray,
                alive: np.ndarray, probe_bits: float, end_time: float,
                ) -> Tuple[np.ndarray, Dict[str, dict]]:
    """Walk the probe train hop by hop: delivery times and queue stats.

    The first probe's send event is scheduled before the run and each
    later one by its predecessor (the source agent's timer), which fixes
    the kernel's order at the first link.  Each hop applies the
    forwarding node's processing delay, the link's egress faults, the
    link itself, and its ingress faults, exactly as a probe meets them
    in event mode.
    """
    times = send_times.copy()
    scheduled = np.empty_like(times)
    scheduled[0] = -np.inf
    scheduled[1:] = send_times[:-1]
    queue_stats: Dict[str, dict] = {}
    for hop in hops:
        if hop.processing_delay > 0:
            scheduled[:] = times
            times += hop.processing_delay
        # The run ends at end_time: later events never happen.
        alive &= times <= end_time
        _apply_stages(hop.egress_faults, alive)
        stats = _queue_pass(hop, times, scheduled, alive, probe_bits,
                            end_time)
        # Like collect_queue_stats, skip a queue nothing arrived at.
        if stats is not None and stats["arrivals"]:
            queue_stats[hop.label] = stats
        alive &= times <= end_time
        _apply_stages(hop.ingress_faults, alive)
    return times, queue_stats


def _clock_reading(sim_time: float, resolution: float) -> float:
    """Replicate a (possibly quantized) host clock read at ``sim_time``."""
    if resolution > 0:
        return int(sim_time / resolution) * resolution
    return sim_time


def _clock_readings(sim_times: np.ndarray,
                    resolution: float) -> np.ndarray:
    """Vectorized :func:`_clock_reading` (bit-identical per element).

    ``int()`` truncates toward zero and the readings are nonnegative, so
    ``np.trunc`` computes the same tick count; every count in range is
    exactly representable in float64, so the final product matches the
    scalar ``int * float``.
    """
    if resolution > 0:
        return np.trunc(sim_times / resolution) * resolution
    return sim_times


def _span(tracer: Optional[Any], name: str,
          phase: str) -> ContextManager[None]:
    """A tracer span, or a no-op context when telemetry is disabled."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, phase=phase)


def run_fastforward_experiment(config: ExperimentConfig,
                               memo: Optional[CrossReplayMemo] = None,
                               tracer: Optional[Any] = None,
                               replay_horizon: Optional[float] = None,
                               ) -> FastForwardResult:
    """Run one experiment analytically, or fall back to event mode.

    The returned trace carries the same metadata keys as an event-mode
    trace plus ``mode`` (and, on fallback, ``fallback`` with the sorted
    ineligibility reasons), so campaign artifacts always record how a cell
    was actually produced.

    Parameters
    ----------
    memo:
        Optional :class:`CrossReplayMemo`.  When given, the cross-traffic
        replay is fetched from (or built into) it under the cell's
        :func:`replay_key`; every cell still slices its own exact prefix,
        so the trace is byte-identical with or without a memo.
    tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`; replay builds
        (memo misses and memo-less runs) are timed under the ``replay``
        phase.  Telemetry only — never touches the result.
    replay_horizon:
        Build the replay out to at least this horizon (default: the
        cell's own end time).  :func:`run_fastforward_grid` passes the
        group-wide maximum so one build covers a whole δ-stack.
    """
    scenario = build_scenario(config)
    reasons = fastforward_ineligibilities(scenario)
    if reasons:
        scenario.start_traffic(at=0.0)
        trace = probe_scenario(scenario, config)
        trace.meta["mode"] = "event"
        trace.meta["fallback"] = reasons
        from repro.experiments.campaign import collect_queue_stats
        return FastForwardResult(
            trace=trace, queue_stats=collect_queue_stats(scenario.network),
            mode_used="event", fallback_reasons=reasons, scenario=scenario)

    network = scenario.network
    count = config.count
    wire_bytes = packetfmt.PROBE_PAYLOAD_BYTES + UDP_WIRE_OVERHEAD_BYTES
    probe_bits = float(bytes_to_bits(wire_bytes))
    end_time = cell_horizon(config)

    build_horizon = max(end_time, replay_horizon or 0.0)
    replay: Optional[CrossReplay] = None
    key: Optional[str] = None
    if memo is not None:
        key = replay_key(config)
        replay = memo.get(key, end_time)
    if replay is None:
        from repro.obs.spans import PHASE_REPLAY
        with _span(tracer, "replay", PHASE_REPLAY):
            replay = build_cross_replay(scenario, build_horizon)
        if memo is not None and key is not None:
            memo.put(key, replay)

    hops: List[Hop] = []
    for path, bottleneck, stream in (
            (network.path(scenario.source, scenario.echo),
             scenario.bottleneck_fwd, replay.streams[0]),
            (network.path(scenario.echo, scenario.source),
             scenario.bottleneck_rev, replay.streams[1])):
        path_hops = _probe_hops(network, path, bottleneck)
        for hop in path_hops:
            if hop.bottleneck:
                (hop.cross_times, hop.cross_bits,
                 hop.cross_scheduled) = slice_stream(stream, end_time)
        hops.extend(path_hops)

    # Probe send times accumulate exactly like the source agent's
    # self-rescheduling timer (t += delta in floating point): cumsum is
    # the same left-to-right chain of float64 additions.
    increments = np.full(count, float(config.delta))
    increments[0] = float(config.warmup)
    send_times = np.cumsum(increments)
    resolution = network.host(scenario.source).clock.resolution
    source_stamps = packetfmt.quantize_stamps(
        _clock_readings(send_times, resolution))

    alive = np.ones(count, dtype=bool)
    receive_times, queue_stats = _round_trip(hops, send_times, alive,
                                             probe_bits, end_time)

    rtts = np.full(count, LOST)
    destinations = packetfmt.quantize_stamps(
        _clock_readings(receive_times[alive], resolution))
    rtts[alive] = destinations - source_stamps[alive]

    trace = ProbeTrace(
        delta=config.delta, send_times=send_times, rtts=rtts,
        payload_bytes=packetfmt.PROBE_PAYLOAD_BYTES, wire_bytes=wire_bytes,
        meta={
            "source": scenario.source,
            "echo": scenario.echo,
            "clock_resolution": resolution,
            "reordered": 0,
            "duplicates": 0,
            "delta_ms": seconds_to_ms(config.delta),
            "count": count,
            "scenario": config.scenario,
            "seed": config.seed,
            "mu_bps": scenario.bottleneck_rate_bps,
            "mode": "analytic",
        })
    return FastForwardResult(trace=trace, queue_stats=queue_stats,
                             mode_used="analytic", fallback_reasons=[],
                             scenario=scenario)


def run_fastforward_grid(configs: Iterable[ExperimentConfig],
                         memo: Optional[CrossReplayMemo] = None,
                         tracer: Optional[Any] = None,
                         ) -> List[FastForwardResult]:
    """Run a stack of cells, computing each seed's cross replay once.

    The batched analytic entry point: cells sharing a :func:`replay_key`
    (scenario + kwargs + seed) share one :class:`CrossReplay` — built at
    the group's largest horizon on the first encounter, then sliced per
    cell — so a 6-δ sweep replays its cross traffic once instead of six
    times.  Each cell's probe train still runs its own departure scan
    per bottleneck against the shared cross arrivals, and every result
    is byte-identical to :func:`run_fastforward_experiment` run cell by
    cell (the memo is an optimization, never an input).  Results come
    back in input order; ineligible cells fall back to event mode
    individually, exactly as in the single-cell path.
    """
    configs = list(configs)
    if memo is None:
        memo = CrossReplayMemo(
            entries=max(DEFAULT_REPLAY_ENTRIES, len(configs)))
    # One pre-pass finds each replay group's largest horizon, so the
    # group's first cell builds a replay that covers every later member
    # (the memo's covers-rule then serves them all as hits, whatever the
    # input order).
    horizons: Dict[str, float] = {}
    for config in configs:
        key = replay_key(config)
        horizon = cell_horizon(config)
        horizons[key] = max(horizon, horizons.get(key, 0.0))
    return [run_fastforward_experiment(
                config, memo=memo, tracer=tracer,
                replay_horizon=horizons[replay_key(config)])
            for config in configs]
