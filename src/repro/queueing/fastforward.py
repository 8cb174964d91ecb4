"""Fast-forward primitives for a single bottleneck FIFO queue.

The paper's own model (Figure 3) is a fixed delay plus one finite FIFO
queue driven by Lindley's recurrence, so simulating every cross packet
through the event kernel is overkill: a FIFO link's departures follow
from its arrivals in one sequential pass.  This module provides

* :func:`departure_scan` — the exact drop-tail FIFO pass the analytic
  execution mode is built on.  It performs the event kernel's float
  operations in the kernel's order (``start = max(arrival, finish)``,
  ``finish = start + bits / rate``, as in
  :meth:`repro.net.link.Interface._start_next`) and admits by the
  waiting count exactly like :class:`repro.net.queue.DropTailQueue`
  behind a busy :class:`repro.net.link.Interface`, including the
  kernel's order of an arrival and a departure at the same instant.  It
  is the discrete-time Lindley recurrence ``w' = (w - Δt)^+ + y`` taken
  as a max-plus scan on absolute times, so its results are the event
  simulator's bit for bit;
* :func:`scan_stats` — the per-queue statistics of a scan, shaped like
  :func:`repro.experiments.campaign.collect_queue_stats`;
* :class:`FluidQueue` — a drop-tail FIFO advanced in closed form between
  offers, with optional aggregate batch entries, and
  :func:`aggregate_batches`, which collapses a cross stream into such
  batches outside guard windows around probes.  Both are lossy
  coarse-graining tools for workload-structure estimates; the analytic
  execution mode does not use them;
* :func:`fifo_waits` — the vectorized
  :func:`repro.analysis.lindley.lindley_waits` applied to a stream
  through an infinite FIFO (Lindley waits, not event-order times).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.lindley import lindley_waits
from repro.errors import ConfigurationError
from repro.net.queue import MODE_BYTES, MODE_PACKETS
from repro.units import bits_to_bytes


def fifo_waits(arrival_times: Sequence[float], sizes_bits: Sequence[float],
               rate_bps: float) -> np.ndarray:
    """Queueing waits of a sorted arrival stream through an infinite FIFO.

    One vectorized :func:`~repro.analysis.lindley.lindley_waits` call:
    service times are ``sizes_bits / rate_bps`` and inter-arrival times
    come from the (sorted) arrival instants.  Used for the fast access
    links whose buffers never overflow in the calibrated scenarios.
    """
    times = np.asarray(arrival_times, dtype=float)
    bits = np.asarray(sizes_bits, dtype=float)
    if times.shape != bits.shape:
        raise ConfigurationError(
            f"arrival/size lengths differ: {times.shape} vs {bits.shape}")
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps}")
    if times.size == 0:
        return np.empty(0)
    if np.any(np.diff(times) < 0):
        raise ConfigurationError("arrival times must be sorted")
    service = bits / rate_bps
    gaps = np.empty_like(times)
    gaps[:-1] = np.diff(times)
    gaps[-1] = 0.0  # unused for the last customer's wait
    return lindley_waits(service, gaps)


#: Arrivals :func:`departure_scan` converts to Python lists at a time.
SCAN_CHUNK = 1 << 14


def departure_scan(times: Sequence[float], bits: Sequence[float],
                   rate_bps: float, capacity: float,
                   mode: str = MODE_PACKETS,
                   scheduled: Optional[Sequence[float]] = None,
                   ) -> Tuple[np.ndarray, int]:
    """Service start of every arrival at a drop-tail FIFO link.

    ``times`` are the arrival instants in the order the event kernel
    runs them (nondecreasing) and ``bits`` their wire sizes.  Returns
    ``(starts, peak)``: each arrival's service start, NaN where the
    buffer dropped it (its departure is ``start + bits / rate_bps``, the
    kernel's own operation), and the peak waiting occupancy in packets as
    :class:`~repro.net.queue.DropTailQueue` records it (an arrival to an
    idle link counts while it passes through the buffer).

    Admission is the event queue's: the packet in service holds no buffer
    slot, and an arrival drops when the waiting packets (``mode`` =
    packets) or their bytes plus its own would exceed ``capacity``.
    Which packets still wait depends, when an arrival and a transmission
    end fall on one instant, on which event the kernel runs first: events
    at one instant run in the order they were scheduled, and a
    transmission end is scheduled when that transmission starts.
    ``scheduled`` gives the instant each arrival's event was scheduled
    (the upstream transmission end that delivers it, or the node's
    processing timer).  An arrival scheduled at the same instant as the
    transmission end is taken to run first, as it does when it was
    scheduled before the run; ``None`` means every arrival was scheduled
    that way.

    The scan converts :data:`SCAN_CHUNK` arrivals at a time to Python
    lists and keeps only the packets that may still be waiting, so its
    memory stays bounded whatever the stream length.
    """
    arrivals = np.asarray(times, dtype=float)
    wire_bits = np.asarray(bits, dtype=float)
    if arrivals.shape != wire_bits.shape:
        raise ConfigurationError(
            f"arrival/size lengths differ: {arrivals.shape} vs "
            f"{wire_bits.shape}")
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps}")
    if capacity <= 0:
        raise ConfigurationError(
            f"queue capacity must be positive, got {capacity}")
    if mode not in (MODE_PACKETS, MODE_BYTES):
        raise ConfigurationError(f"unknown queue mode {mode!r}")
    total = arrivals.size
    order: Optional[np.ndarray] = None
    if scheduled is not None:
        order = np.asarray(scheduled, dtype=float)
        if order.shape != arrivals.shape:
            raise ConfigurationError(
                f"arrival/schedule lengths differ: {arrivals.shape} vs "
                f"{order.shape}")
    packets_mode = mode == MODE_PACKETS
    starts_out = np.empty(total)
    # Admitted packets that may still be waiting, FIFO: service start,
    # and when the event starting it was scheduled (None: it started in
    # its own arrival event).  An infinite start closes ``queue`` so the
    # scan below needs no bound check.  In bytes mode ``sizes`` holds
    # each packet's bytes and ``load`` the bytes waiting.
    inf = np.inf
    queue: list = [inf]
    keys: list = []
    sizes: list = []
    head = 0
    count = 0
    load = 0.0
    finish = -inf
    last_start = -inf
    peak = 0
    for lo in range(0, total, SCAN_CHUNK):
        hi = min(lo + SCAN_CHUNK, total)
        first = count
        dropped: list = []
        chunk_bits = wire_bits[lo:hi]
        for t, s, w, u in zip(
                arrivals[lo:hi].tolist(),
                (chunk_bits / rate_bps).tolist(),
                repeat(1.0) if packets_mode
                else bits_to_bytes(chunk_bits).tolist(),
                repeat(-inf) if order is None
                else order[lo:hi].tolist()):
            # Packets whose transmission began before this arrival's
            # event ran have left the buffer.
            begun = queue[head]
            while begun < t or (begun == t and (
                    keys[head] is None or keys[head] < u)):
                if not packets_mode:
                    load -= sizes[head]
                head += 1
                begun = queue[head]
            waiting = count - head
            if packets_mode:
                if waiting >= capacity:
                    # Index in the chunk: every earlier arrival of the
                    # chunk was either admitted or dropped.
                    dropped.append(count - first + len(dropped))
                    continue
            else:
                if load + w > capacity:
                    dropped.append(count - first + len(dropped))
                    continue
                sizes.append(w)
                load += w
            if waiting >= peak:
                peak = waiting + 1
            if finish < t or (finish == t and last_start < u):
                # Idle transmitter: service starts in the arrival event.
                queue[count] = t
                keys.append(None)
                last_start = t
            else:
                # Busy: service starts when the last admitted packet's
                # transmission ends (scheduled when that one started).
                queue[count] = finish
                keys.append(last_start)
                last_start = finish
            queue.append(inf)
            count += 1
            finish = last_start + s
        chunk = starts_out[lo:hi]
        if dropped:
            kept = np.ones(hi - lo, dtype=bool)
            kept[dropped] = False
            chunk[~kept] = np.nan
            chunk[kept] = queue[first:count]
        else:
            chunk[:] = queue[first:count]
        if head:
            del queue[:head], keys[:head], sizes[:head]
            count -= head
            head = 0
    return starts_out, peak


def scan_stats(times: np.ndarray, bits: np.ndarray, starts: np.ndarray,
               peak: int, elapsed: float) -> dict:
    """Queue statistics of a :func:`departure_scan` over ``elapsed`` s.

    Shaped like :func:`repro.experiments.campaign.collect_queue_stats`:
    every arrival counts, a departure is a packet that began its
    transmission (left the buffer) by ``elapsed``, and the occupancy means
    integrate each admitted packet's time in the buffer over the window.
    """
    if elapsed <= 0:
        raise ConfigurationError(
            f"elapsed must be positive, got {elapsed}")
    dropped = np.isnan(starts)
    arrivals = int(times.size)
    accepted = arrivals - int(np.count_nonzero(dropped))
    waiting = np.minimum(starts, elapsed)
    waiting -= times
    waiting[dropped] = 0.0
    return {
        "arrivals": float(arrivals),
        "drops": float(arrivals - accepted),
        "departures": float(np.count_nonzero(starts <= elapsed)),
        "loss_fraction": (arrivals - accepted) / arrivals
        if arrivals else 0.0,
        "occupancy_mean_pkts": float(waiting.sum()) / elapsed,
        "occupancy_max_pkts": float(peak),
        "occupancy_mean_bytes": bits_to_bytes(
            float(np.dot(bits, waiting))) / elapsed,
    }


class FluidQueue:
    """A drop-tail FIFO advanced analytically between arrivals.

    Mirrors the observable behaviour of a
    :class:`~repro.net.queue.DropTailQueue` behind an
    :class:`~repro.net.link.Interface`: the transmitter serves one packet
    at a time at ``rate_bps``; the packet in service occupies no buffer
    slot; an arriving packet drops when the *waiting* occupancy plus
    itself would exceed ``capacity`` (packets or bytes per ``mode``).

    Work is held as FIFO entries of ``(bits, packets)``; an entry with
    ``packets > 1`` is an aggregate batch whose packets are assumed
    equal-sized (per-packet entries — the analytic mode's exact path —
    carry no such assumption).  :meth:`advance` serves whole
    entries in closed form — each step is Lindley's recurrence on the
    backlog — so cost is O(entries), not O(simulated events).

    Counters (``arrivals``/``drops``/``departures`` and the time-weighted
    occupancy integrals) follow the event queue's accounting so the
    analytic mode can report comparable queue statistics.
    """

    def __init__(self, rate_bps: float, capacity: int,
                 mode: str = MODE_PACKETS) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(
                f"service rate must be positive, got {rate_bps}")
        if capacity <= 0:
            raise ConfigurationError(
                f"queue capacity must be positive, got {capacity}")
        if mode not in (MODE_PACKETS, MODE_BYTES):
            raise ConfigurationError(f"unknown queue mode {mode!r}")
        self.rate_bps = rate_bps
        self.capacity = capacity
        self.mode = mode
        self._packets_mode = mode == MODE_PACKETS
        self._now = 0.0
        #: Remaining bits of the packet currently being transmitted.
        self._service_bits = 0.0
        #: Waiting batches, FIFO: [bits, packets] (mutable pairs).
        self._entries: deque = deque()
        self._waiting_packets = 0
        self._waiting_bits = 0.0
        self.arrivals = 0
        self.drops = 0
        self.departures = 0
        self._busy_seconds = 0.0
        self._occupancy_packet_seconds = 0.0
        self._occupancy_bit_seconds = 0.0
        self._occupancy_max_packets = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Time the queue state has been advanced to."""
        return self._now

    @property
    def workload_seconds(self) -> float:
        """Seconds of service ahead of a new arrival (its Lindley wait)."""
        return (self._service_bits + self._waiting_bits) / self.rate_bps

    @property
    def waiting_packets(self) -> int:
        """Buffered packets, excluding the one in service."""
        return self._waiting_packets

    @property
    def waiting_bits(self) -> float:
        """Buffered bits, excluding the packet in service."""
        return self._waiting_bits

    # ------------------------------------------------------------------
    def advance(self, to_time: float) -> None:
        """Serve work until ``to_time`` (Lindley drain on the backlog).

        This is the analytic mode's hottest loop, so state lives in
        locals for its duration: drop/wait semantics are unchanged from
        the straightforward attribute-at-a-time version (the equivalence
        tests pin them), only the Python overhead per step shrinks.
        """
        now = self._now
        if to_time <= now:
            return
        service_bits = self._service_bits
        entries = self._entries
        if service_bits == 0.0 and not entries:
            # Idle queue: occupancy zero, nothing to integrate.
            self._now = to_time
            return
        rate = self.rate_bps
        busy = self._busy_seconds
        occ_pkt = self._occupancy_packet_seconds
        occ_bit = self._occupancy_bit_seconds
        waiting_packets = self._waiting_packets
        waiting_bits = self._waiting_bits
        departures = self.departures
        while True:
            if service_bits > 0.0:
                finish = now + service_bits / rate
                if finish > to_time:
                    span = to_time - now
                    service_bits -= span * rate
                    busy += span
                    occ_pkt += waiting_packets * span
                    occ_bit += waiting_bits * span
                    break
                span = finish - now
                busy += span
                occ_pkt += waiting_packets * span
                occ_bit += waiting_bits * span
                now = finish
                service_bits = 0.0
                departures += 1
                continue
            if not entries:
                break  # idle, occupancy zero: nothing to integrate
            entry = entries[0]
            bits, packets = entry
            span = bits / rate
            if now + span <= to_time:
                # The whole entry drains before to_time: closed form.
                # When packet i of the entry enters service the waiting
                # count has already dropped by i + 1; each then serves
                # for the same per-packet span, so the occupancy
                # integral is an arithmetic series, not a per-packet
                # loop.
                entries.popleft()
                waiting_packets -= packets
                waiting_bits -= bits
                per_packet_span = bits / packets / rate
                per_packet_bits = bits / packets
                steps = packets * (packets + 1) / 2.0
                occ_pkt += ((waiting_packets * packets + steps - packets)
                            * per_packet_span)
                occ_bit += ((waiting_bits * packets
                             + (steps - packets) * per_packet_bits)
                            * per_packet_span)
                busy += span
                departures += packets
                now += span
                continue
            # Entry outlives the step: pull one packet into service and
            # loop (the in-service branch handles the partial span).
            per_packet_bits = bits / packets
            entry[0] = bits - per_packet_bits
            entry[1] = packets - 1
            if entry[1] == 0:
                entries.popleft()
            waiting_packets -= 1
            waiting_bits -= per_packet_bits
            service_bits = per_packet_bits
        self._now = to_time
        self._service_bits = service_bits
        self._busy_seconds = busy
        self._occupancy_packet_seconds = occ_pkt
        self._occupancy_bit_seconds = occ_bit
        self._waiting_packets = waiting_packets
        self._waiting_bits = waiting_bits
        self.departures = departures

    # ------------------------------------------------------------------
    def offer(self, at: float, bits: float, packets: int = 1) -> int:
        """Present a batch at time ``at``; return packets accepted.

        Advances the queue to ``at`` first, so a probe's Lindley wait is
        ``workload_seconds`` read *before* its own ``offer``.  Admission
        follows event-drop semantics: the packet in service holds no
        buffer slot, a batch's surplus packets drop tail-first, and an
        idle transmitter takes one packet straight into service.
        """
        if packets < 1:
            raise ConfigurationError(
                f"batch needs at least one packet, got {packets}")
        if bits <= 0:
            raise ConfigurationError(
                f"batch bits must be positive, got {bits}")
        if at > self._now:
            if self._service_bits > 0.0 or self._entries:
                self.advance(at)
            else:
                self._now = at
        self.arrivals += packets
        per_packet_bits = bits / packets
        idle = self._service_bits == 0.0 and not self._entries
        if self._packets_mode:
            room = self.capacity - self._waiting_packets
        else:
            per_packet_bytes = bits_to_bytes(per_packet_bits)
            free_bytes = (self.capacity
                          - bits_to_bytes(self._waiting_bits))
            room = int(free_bytes // per_packet_bytes) \
                if per_packet_bytes > 0 else packets
            if idle and room == 0 \
                    and per_packet_bytes > self.capacity:
                # Even an empty buffer cannot hold this packet.
                idle = False
        if room < 0:
            room = 0
        if idle:
            room += 1  # the first packet goes straight into service
        accepted = packets if packets < room else room
        self.drops += packets - accepted
        if accepted == 0:
            return 0
        queued = accepted
        if idle:
            self._service_bits = per_packet_bits
            queued -= 1
        if queued > 0:
            self._entries.append([per_packet_bits * queued, queued])
            self._waiting_packets += queued
            self._waiting_bits += per_packet_bits * queued
            if self._waiting_packets > self._occupancy_max_packets:
                self._occupancy_max_packets = self._waiting_packets
        return accepted

    # ------------------------------------------------------------------
    def stats(self, elapsed: float) -> dict:
        """Queue statistics shaped like the event mode's per-queue dict.

        ``elapsed`` is the total observation window (occupancy means are
        time-weighted over it, matching
        :func:`repro.experiments.campaign.collect_queue_stats` closely
        enough for reporting — aggregate entries, where used, make the
        occupancy figures approximate, never the drop counts).
        """
        if elapsed <= 0:
            raise ConfigurationError(
                f"elapsed must be positive, got {elapsed}")
        loss = self.drops / self.arrivals if self.arrivals else 0.0
        return {
            "arrivals": float(self.arrivals),
            "drops": float(self.drops),
            "departures": float(self.departures),
            "loss_fraction": loss,
            "occupancy_mean_pkts": self._occupancy_packet_seconds / elapsed,
            "occupancy_max_pkts": float(self._occupancy_max_packets),
            "occupancy_mean_bytes": bits_to_bytes(
                self._occupancy_bit_seconds) / elapsed,
        }

    def __repr__(self) -> str:
        return (f"<FluidQueue {self._waiting_packets} pkts waiting of "
                f"{self.capacity} {self.mode}, {self.drops} drops, "
                f"t={self._now:.6f}>")


def aggregate_batches(times: Sequence[float], bits: Sequence[float],
                      probe_times: Sequence[float], guard: float,
                      max_batch_packets: int = 8,
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse cross arrivals outside probe guard windows into batches.

    Arrivals within ``guard`` seconds of any probe arrival keep
    per-packet granularity (so the queue state every probe actually
    samples is built from exact arrivals); the rest are grouped per
    inter-probe interval — never across a probe — into batches of at most
    ``max_batch_packets``, placed at the mean arrival time of their
    members.  Total bits and packet counts are conserved exactly.

    Parameters are arrays sorted by time.  Returns ``(batch_times,
    batch_bits, batch_packets)``, sorted by time.
    """
    times = np.asarray(times, dtype=float)
    bits = np.asarray(bits, dtype=float)
    probes = np.asarray(probe_times, dtype=float)
    if times.shape != bits.shape:
        raise ConfigurationError(
            f"arrival/size lengths differ: {times.shape} vs {bits.shape}")
    if guard < 0:
        raise ConfigurationError(f"guard must be >= 0, got {guard}")
    if max_batch_packets < 1:
        raise ConfigurationError(
            f"max_batch_packets must be >= 1, got {max_batch_packets}")
    if times.size == 0:
        return times, bits, np.empty(0, dtype=int)
    if np.any(np.diff(times) < 0):
        raise ConfigurationError("arrival times must be sorted")
    if probes.size == 0:
        protected = np.zeros(times.shape, dtype=bool)
        interval = np.zeros(times.shape, dtype=int)
    else:
        right = np.searchsorted(probes, times)
        dist_next = np.where(right < probes.size,
                             probes[np.minimum(right, probes.size - 1)]
                             - times, np.inf)
        dist_prev = np.where(right > 0,
                             times - probes[np.maximum(right - 1, 0)],
                             np.inf)
        protected = (dist_next <= guard) | (dist_prev <= guard)
        interval = right
    free = ~protected
    if not np.any(free):
        return times, bits, np.ones(times.size, dtype=int)

    free_times = times[free]
    free_bits = bits[free]
    free_interval = interval[free]
    # Chunk starts: the first arrival of each interval, then every
    # max_batch_packets-th arrival within it.
    new_interval = np.empty(free_interval.shape, dtype=bool)
    new_interval[0] = True
    new_interval[1:] = np.diff(free_interval) != 0
    group_start_positions = np.flatnonzero(new_interval)
    group_sizes = np.diff(np.append(group_start_positions,
                                    free_interval.size))
    ordinal = (np.arange(free_interval.size)
               - np.repeat(group_start_positions, group_sizes))
    chunk_starts = np.flatnonzero(new_interval
                                  | (ordinal % max_batch_packets == 0))
    counts = np.diff(np.append(chunk_starts, free_interval.size))
    batch_bits = np.add.reduceat(free_bits, chunk_starts)
    batch_times = np.add.reduceat(free_times, chunk_starts) / counts

    merged_times = np.concatenate([times[protected], batch_times])
    merged_bits = np.concatenate([bits[protected], batch_bits])
    merged_packets = np.concatenate(
        [np.ones(int(np.count_nonzero(protected)), dtype=int), counts])
    order = np.argsort(merged_times, kind="stable")
    return (merged_times[order], merged_bits[order],
            merged_packets[order])
