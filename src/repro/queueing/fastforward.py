"""Fast-forward primitives for a single bottleneck FIFO queue.

The paper's own model (Figure 3) is a fixed delay plus one finite FIFO
queue driven by Lindley's recurrence, so simulating every cross packet
through the event kernel is overkill: a FIFO link's departures follow
from its arrivals in one sequential pass.  This module provides

* :func:`departure_scan` — the exact drop-tail FIFO pass the analytic
  execution mode is built on.  Its rule is the event kernel's: the float
  operations of :meth:`repro.net.link.Interface._start_next` in their
  order (``start = max(arrival, finish)``, ``finish = start + bits /
  rate``), admission by the waiting count as in
  :class:`repro.net.queue.DropTailQueue` behind a busy
  :class:`repro.net.link.Interface`, and the kernel's order of an arrival
  and a departure at the same instant.  It computes in two ways that give
  one result bit for bit:

  1. *speculation*, for most arrivals: a window of arrivals is assumed to
     enter without a drop, Lindley's max-plus closed form guesses where
     its busy periods begin, and the starts are computed in numpy as the
     loop computes them, one packet after another within each busy period
     (sums restarted at every head, in the loop's association);
  2. *the check and the scalar loop*: every guessed choice and every
     admission in the window is checked against the rule, the prefix that
     passes is kept, and the scalar loop, one arrival at a time, takes
     over from the exact state at the first failure, until a stretch
     without drops hands back to speculation;

* :func:`scan_stats` — the per-queue statistics of a scan, equal to what
  :func:`repro.experiments.campaign.collect_queue_stats` reads off the
  event queue (its time-weighted sums formed in the kernel's order);
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


#: Arrivals the scalar loop converts to Python lists at a time.
SCAN_CHUNK = 1 << 14
#: Bounds of a speculation window, in arrivals.  A window costs some
#: hundred numpy calls whatever its length, so a short one loses to the
#: scalar loop.  The window doubles after each window accepted whole and
#: halves after each one that fails.
SCAN_WINDOW_MIN = 1 << 10
SCAN_WINDOW_MAX = 1 << 14
#: Bounds of the scalar stretch after a failed window: the arrivals it
#: must pass without a drop before the scan speculates again.  It doubles
#: after each failure and halves after each window accepted whole, so a
#: link that drops often stays on the scalar loop.
SCAN_QUIET_MIN = 1 << 10
SCAN_QUIET_MAX = 1 << 20


class _LinkState:
    """The link between two arrivals: exactly the scalar loop's state.

    ``queue`` holds the service starts of the admitted packets that may
    still wait, FIFO, closed by an infinite start so the loop needs no
    bound check; ``keys`` the instant the event starting each was
    scheduled (None: it started in its own arrival event); in bytes mode
    ``sizes`` their bytes and ``load`` the bytes waiting.  ``finish`` and
    ``last_start`` belong to the last admitted packet; ``peak`` is the
    running peak occupancy.
    """

    __slots__ = ("queue", "keys", "sizes", "load", "finish", "last_start",
                 "peak")

    def __init__(self) -> None:
        self.queue: list = [np.inf]
        self.keys: list = []
        self.sizes: list = []
        self.load = 0.0
        self.finish = -np.inf
        self.last_start = -np.inf
        self.peak = 0


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

    The rule above, applied one arrival at a time, is the scalar loop.
    The scan runs it only where it must.  Elsewhere it speculates over
    windows of arrivals (:func:`_speculate`): it assumes that none drops,
    computes every start in numpy with the loop's own float operations,
    then checks each arrival against the loop's rule and accepts the
    prefix that passes.  At the first arrival that fails, the scalar loop
    resumes from the exact state the accepted prefix leaves, and hands
    back to speculation after a run of arrivals without a drop
    (:func:`_scalar_stretch`), the packets still waiting included.  Each
    failure doubles that run and halves the next window, so a link that
    drops often costs what the scalar loop costs.  The result equals the scalar loop's bit
    for bit (DESIGN.md §9 gives the argument), and memory stays bounded
    by a window or :data:`SCAN_CHUNK` arrivals whatever the stream length.
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
    link = _LinkState()
    scan = (link, arrivals, wire_bits, order, rate_bps, capacity,
            packets_mode, starts_out)
    if not _checks_are_exact(arrivals, wire_bits, rate_bps, capacity,
                             packets_mode):
        _scalar_stretch(*scan, 0, total)
        return starts_out, link.peak
    window = SCAN_WINDOW_MIN
    quiet = SCAN_QUIET_MIN
    index = _scalar_stretch(*scan, 0, quiet)
    while index < total:
        end = min(index + window, total)
        index = _speculate(*scan, index, end)
        if index == end:
            window = min(2 * window, SCAN_WINDOW_MAX)
            quiet = max(quiet // 2, SCAN_QUIET_MIN)
            continue
        window = max(window // 2, SCAN_WINDOW_MIN)
        quiet = min(2 * quiet, SCAN_QUIET_MAX)
        index = _scalar_stretch(*scan, index, quiet)
    return starts_out, link.peak


def _checks_are_exact(arrivals: np.ndarray, wire_bits: np.ndarray,
                      rate_bps: float, capacity: float,
                      packets_mode: bool) -> bool:
    """Whether :func:`_speculate`'s checks decide as the scalar loop does.

    They need finite values and starts that strictly increase (every
    service time exceeds the float spacing at the latest possible start),
    and in bytes mode integral sizes, so that prefix sums of bytes are
    exact, none larger than the buffer.
    """
    if arrivals.size == 0 or not (np.isfinite(arrivals).all()
                                  and np.isfinite(wire_bits).all()):
        return False
    shortest = float(wire_bits.min()) / rate_bps
    latest = (float(np.abs(arrivals).max())
              + float(wire_bits.sum()) / rate_bps)
    if not shortest > 2.0 * float(np.spacing(latest)):
        return False
    if packets_mode:
        return True
    sizes = bits_to_bytes(wire_bits)
    return bool((sizes == np.floor(sizes)).all()
                and float(sizes.sum()) < 2.0 ** 52
                and float(sizes.max()) <= capacity)


def _scalar_stretch(link: _LinkState, arrivals: np.ndarray,
                    wire_bits: np.ndarray, order: Optional[np.ndarray],
                    rate_bps: float, capacity: float, packets_mode: bool,
                    starts_out: np.ndarray, lo: int, quiet: int) -> int:
    """The scalar loop from arrival ``lo``; returns where it stopped.

    It handles one arrival at a time in the kernel's operations, in
    chunks of at most ``quiet`` arrivals, and stops at the end of the
    first chunk that closes ``quiet`` arrivals without a drop, or at the
    end of the stream.  Nothing is checked per arrival beyond the rule.
    """
    inf = np.inf
    total = arrivals.size
    queue, keys, sizes = link.queue, link.keys, link.sizes
    head = 0
    count = len(queue) - 1
    load = link.load
    finish = link.finish
    last_start = link.last_start
    peak = link.peak
    step = min(quiet, SCAN_CHUNK)
    quiet_from = lo
    base = lo
    while base < total:
        end = min(base + step, total)
        first = count
        dropped: list = []
        chunk_bits = wire_bits[base:end]
        for t, s, w, u in zip(
                arrivals[base:end].tolist(),
                (chunk_bits / rate_bps).tolist(),
                repeat(1.0) if packets_mode
                else bits_to_bytes(chunk_bits).tolist(),
                repeat(-inf) if order is None
                else order[base:end].tolist()):
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
        chunk = starts_out[base:end]
        if dropped:
            kept = np.ones(end - base, dtype=bool)
            kept[dropped] = False
            chunk[~kept] = np.nan
            chunk[kept] = queue[first:count]
            quiet_from = base + dropped[-1] + 1
        else:
            chunk[:] = queue[first:count]
        if head:
            del queue[:head], keys[:head], sizes[:head]
            count -= head
            head = 0
        base = end
        if base - quiet_from >= quiet:
            break
    link.load = load
    link.finish = finish
    link.last_start = last_start
    link.peak = peak
    return base


def _speculate(link: _LinkState, arrivals: np.ndarray,
               wire_bits: np.ndarray, order: Optional[np.ndarray],
               rate_bps: float, capacity: float, packets_mode: bool,
               starts_out: np.ndarray, lo: int, hi: int) -> int:
    """Assume arrivals ``lo`` to ``hi`` all enter; keep what checks out.

    Writes the starts of the accepted prefix to ``starts_out``, advances
    ``link`` past it and returns the index of the first arrival not
    accepted (``hi`` when the whole window passed).
    """
    size = hi - lo
    t = arrivals[lo:hi]
    service = wire_bits[lo:hi] / rate_bps
    u = None if order is None else order[lo:hi]
    finish0 = link.finish
    last0 = link.last_start
    t0 = float(t[0])
    idle0 = finish0 < t0 or (finish0 == t0 and u is not None
                             and last0 < float(u[0]))

    # Guess the busy-period heads from Lindley's max-plus closed form:
    # an arrival starts one when it comes after every earlier arrival's
    # time plus the service between the two (the finish0 term stands for
    # the link's state).  Prefix sums make the guess, not the starts.
    lead = np.cumsum(service)
    np.subtract(t, lead, out=lead)
    lead += service
    reach = np.maximum.accumulate(lead)
    heads = np.empty(size, dtype=bool)
    heads[0] = True
    np.greater(lead[1:], np.maximum(reach[:-1], finish0), out=heads[1:])

    # The starts, in the loop's operations: a head starts at its arrival,
    # any other packet when its predecessor's transmission ends.
    values = np.empty(size)
    values[1:] = service[:-1]
    np.copyto(values, t, where=heads)
    if not idle0:
        values[0] = finish0
    firsts = heads.nonzero()[0]
    lengths = np.empty_like(firsts)
    np.subtract(firsts[1:], firsts[:-1], out=lengths[:-1])
    lengths[-1] = size - firsts[-1]
    starts = _restarted_sums(values, firsts, lengths)
    finishes = starts + service

    # Check every idle/busy choice against the loop's rule; accept the
    # prefix before the first wrong guess.  Where the previous
    # transmission ends exactly at the arrival, the start is that instant
    # either way: only the head flag differs, and the loop's is taken.
    accepted = size
    if size > 1:
        idle = finishes[:-1] < t[1:]
        tied = finishes[:-1] == t[1:]
        if tied.any():
            if u is not None:
                idle |= tied & (starts[:-1] < u[1:])
            flipped = tied & (idle != heads[1:])
            if flipped.any():
                heads[1:] ^= flipped
                firsts = heads.nonzero()[0]
                lengths = np.empty_like(firsts)
                np.subtract(firsts[1:], firsts[:-1], out=lengths[:-1])
                lengths[-1] = size - firsts[-1]
        wrong = idle != heads[1:]
        first_wrong = int(wrong.argmax())
        if wrong[first_wrong]:
            accepted = first_wrong + 1
            cut = int(np.searchsorted(firsts, accepted))
            firsts = firsts[:cut]
            lengths = lengths[:cut].copy()
            lengths[-1] = accepted - firsts[-1]

    # Check admission.  Every packet before a head has left the buffer by
    # its arrival, so the waiting count within a busy period stays below
    # its length and the waiting bytes within its bytes: only busy
    # periods longer than the peak so far, or with more bytes than the
    # buffer, can drop or raise the peak.  Those are counted exactly, with
    # the first (it meets the packets still waiting from before) and the
    # last (its queue is the state passed on).
    carried = link.queue[:-1]
    m = len(carried)
    sizes: Optional[np.ndarray] = None
    if packets_mode:
        check = lengths > link.peak
    else:
        sizes = bits_to_bytes(wire_bits[lo:lo + accepted])
        check = lengths > link.peak
        check |= np.add.reduceat(sizes, firsts) > capacity
    check[0] = check[-1] = True
    picked = check.nonzero()[0]
    spans = lengths[picked]
    ends = np.cumsum(spans)
    index = np.arange(int(ends[-1]))
    index += np.repeat(firsts[picked] - (ends - spans), spans)

    # Packets before the head of the FIFO when each checked arrival's
    # event runs, in the combined order of carried and window packets.
    begun = starts[:accepted]
    if m:
        begun = np.concatenate((carried, begun))
    slot = index + m
    at = t[index]
    gone = np.searchsorted(begun, at)
    probe = np.minimum(gone, begun.size - 1)
    tied_at = (begun[probe] == at).nonzero()[0]
    if tied_at.size:
        # A packet whose transmission began exactly at the arrival's
        # instant has left if it began in its own arrival event or in an
        # event scheduled before the arrival's.
        keys = _start_keys(link.keys, last0, heads, idle0, starts,
                           probe[tied_at])
        left = keys == -np.inf
        if u is not None:
            left |= keys < u[index[tied_at]]
        gone[tied_at[left]] += 1
    np.minimum(gone, slot, out=gone)
    queue_head = np.maximum.accumulate(gone)
    waiting = slot - queue_head
    if sizes is None:
        full = waiting >= capacity
    else:
        if m:
            sizes = np.concatenate((link.sizes, sizes))
        load = np.zeros(sizes.size + 1)
        np.cumsum(sizes, out=load[1:])
        full = load[slot] - load[queue_head] + sizes[slot] > capacity
    first_full = int(full.argmax())
    if full[first_full]:
        # Never a head but the window's first arrival: a head finds the
        # buffer empty and no packet is larger than the buffer.
        accepted = int(index[first_full])
        if accepted == 0:
            return lo
        waiting = waiting[:first_full]
        queue_head = queue_head[:first_full]

    peak = int(waiting.max()) + 1
    if peak > link.peak:
        link.peak = peak
    starts_out[lo:lo + accepted] = starts[:accepted]
    link.finish = float(finishes[accepted - 1])
    link.last_start = float(starts[accepted - 1])
    keep = int(queue_head[-1])
    end = m + accepted
    link.queue = begun[keep:end].tolist()
    link.queue.append(np.inf)
    tail = _start_keys(link.keys, last0, heads, idle0, starts,
                       np.arange(max(keep, m), end)).tolist()
    link.keys = link.keys[keep:] + [
        None if key == -np.inf else key for key in tail]
    if sizes is not None:
        link.sizes = sizes[keep:end].tolist()
        link.load = float(load[end] - load[keep])
    return lo + accepted


def _start_keys(carried: list, last0: float, heads: np.ndarray,
                idle0: bool, starts: np.ndarray,
                packets: np.ndarray) -> np.ndarray:
    """When the event starting each of ``packets`` was scheduled.

    ``packets`` index the ``carried`` queue's keys followed by the
    window; -inf marks a packet that started in its own arrival event
    (the loop's None).  A window packet that waited started when its
    predecessor's transmission ended, an event scheduled at the
    predecessor's start (``last0`` for the window's first packet).
    """
    m = len(carried)
    keys = np.empty(packets.size)
    old = packets < m
    if old.any():
        keys[old] = [-np.inf if key is None else key
                     for key in (carried[p] for p in packets[old].tolist())]
    own = ~old
    q = packets[own] - m
    before = np.where(q > 0, starts[q - 1], last0)
    before[heads[q] & ((q > 0) | idle0)] = -np.inf
    keys[own] = before
    return keys


def _restarted_sums(values: np.ndarray, firsts: np.ndarray,
                    lengths: np.ndarray) -> np.ndarray:
    """Running sums of ``values``, restarted at each of ``firsts``.

    Every sum adds left to right like the scalar loop: the runs of one
    length tier are laid out as the columns of a block, and one
    cumulative sum down the block advances them all a packet at a time.
    Tier ``k`` holds the runs longer than ``4 ** (k - 1)`` and at most
    ``4 ** k`` long, so a block is at most four times its contents.
    """
    sums = values.copy()
    runs = lengths > 1
    if not runs.any():
        return sums
    firsts = firsts[runs]
    lengths = lengths[runs]
    tiers = (np.frexp(lengths - 1)[1] + 1) // 2
    padded = np.concatenate((values, np.zeros(4 ** int(tiers.max()))))
    for tier, count in enumerate(np.bincount(tiers).tolist()):
        if not count:
            continue
        pick = tiers == tier
        rows = np.arange(4 ** tier)[:, None]
        index = firsts[pick] + rows
        block = np.cumsum(padded[index], axis=0)
        inside = rows < lengths[pick]
        sums[index[inside]] = block[inside]
    return sums


def scan_stats(times: np.ndarray, bits: np.ndarray, starts: np.ndarray,
               peak: int, elapsed: float) -> dict:
    """Queue statistics of a :func:`departure_scan` over ``elapsed`` s.

    The values :func:`repro.experiments.campaign.collect_queue_stats`
    reads off the event queue at ``elapsed``, bit for bit: every arrival
    counts, a departure is a packet that began its transmission (left the
    buffer) by ``elapsed``, and the occupancy means are the event queue's
    time-weighted sums (:func:`_occupancy_means`).
    """
    if elapsed <= 0:
        raise ConfigurationError(
            f"elapsed must be positive, got {elapsed}")
    arrivals = int(times.size)
    accepted = arrivals - int(np.count_nonzero(np.isnan(starts)))
    # Packets that waited: a dropped one (NaN start) never did, and one
    # that started at its arrival adds nothing to the sums.
    waited = starts > times
    mean_packets, mean_bytes = _occupancy_means(
        times[waited], starts[waited], bits[waited], elapsed)
    return {
        "arrivals": float(arrivals),
        "drops": float(arrivals - accepted),
        "departures": float(np.count_nonzero(starts <= elapsed)),
        "loss_fraction": (arrivals - accepted) / arrivals
        if arrivals else 0.0,
        "occupancy_mean_pkts": mean_packets,
        "occupancy_max_pkts": float(peak),
        "occupancy_mean_bytes": mean_bytes,
    }


#: Packets that waited, per slice of :func:`_occupancy_means` (bounds the
#: memory of its sort and sums whatever the stream length).
STATS_SLICE = 1 << 15


def _occupancy_means(enter: np.ndarray, leave: np.ndarray,
                     bits: np.ndarray, elapsed: float,
                     ) -> Tuple[float, float]:
    """Time-weighted mean packets and bytes in the buffer up to ``elapsed``.

    ``enter`` and ``leave`` are the arrivals and service starts of the
    packets that waited, both sorted, and ``bits`` their wire sizes.  The
    event queue updates its series at every enqueue and dequeue, adding
    ``value * (now - last_change)`` to a running sum
    (:class:`~repro.sim.monitor.TimeWeightedValue`); the final partial
    interval is added at ``elapsed``.  Here the updates are merged in
    time order and the same products summed left to right.  Updates at
    one instant may merge in another order than the kernel's, but every
    product after the first at an instant is a zero that leaves the sum
    as it is, and the value carried past the instant is the same.  A
    packet that starts at its own arrival instant is left out: nothing
    waited ahead of it, so the value is 0 on both sides of that instant
    and leaving it out only merges intervals that add zero.  The means
    therefore equal the event queue's (exactly so in bytes when the sizes
    are integral, as wire sizes are).  The merge runs a slice of
    :data:`STATS_SLICE` entries at a time, so memory stays bounded.
    """
    enter = enter[:int(np.searchsorted(enter, elapsed))]
    leave = leave[:int(np.searchsorted(leave, elapsed))]
    entering = enter.size
    leaving = leave.size
    sums = np.zeros(2)
    held = np.zeros((2, 1))
    last = 0.0
    entered = left = 0
    while entered < entering or left < leaving:
        # Every update before ``bound``, so that all updates at one
        # instant fall in one slice; up to it when more entries than a
        # slice share the instant.
        bound = (float(enter[entered + STATS_SLICE])
                 if entered + STATS_SLICE < entering else np.inf)
        side = "left"
        ins = int(np.searchsorted(enter, bound, side))
        if ins == entered:
            side = "right"
            ins = int(np.searchsorted(enter, bound, side))
        outs = int(np.searchsorted(leave, bound, side))
        instants = np.concatenate((enter[entered:ins], leave[left:outs]))
        order = np.argsort(instants, kind="stable")
        instants = instants[order]
        # The packets and bits each update adds or removes, in time
        # order; their running sums (exact: integers) are the values.
        moves = np.empty((2, order.size + 1))
        moves[:, :1] = held
        moves[0, 1:] = np.where(order < ins - entered, 1.0, -1.0)
        moves[1, 1:] = np.concatenate(
            (bits[entered:ins], -bits[left:outs]))[order]
        np.cumsum(moves, axis=1, out=moves)
        gaps = np.empty(instants.size)
        gaps[0] = instants[0] - last
        np.subtract(instants[1:], instants[:-1], out=gaps[1:])
        # Each update adds the value held since the last one times the
        # time between them; the first term carries the sum so far.
        terms = moves[:, :-1] * gaps
        terms[:, 0] += sums
        sums = np.add.accumulate(terms, axis=1)[:, -1]
        held = moves[:, -1:]
        last = float(instants[-1])
        entered, left = ins, outs
    tail = elapsed - last
    packets, load = (sums + held[:, 0] * tail) / elapsed
    return float(packets), float(bits_to_bytes(load))


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
