"""Tests for the fast-forward queue primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.queueing import fastforward

from repro.analysis.lindley import lindley_waits
from repro.errors import ConfigurationError
from repro.net.link import Interface
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queue import MODE_BYTES, MODE_PACKETS, DropTailQueue
from repro.queueing.fastforward import (
    FluidQueue,
    aggregate_batches,
    departure_scan,
    fifo_waits,
    scan_stats,
)
from repro.sim import Simulator
from tests.profiles import budget

RATE = 128e3
PROBE_BITS = 576.0


class TestFifoWaits:
    def test_matches_lindley_on_a_poisson_stream(self, rng):
        times = np.sort(rng.uniform(0.0, 50.0, size=400))
        bits = rng.choice([576.0, 4416.0], size=400)
        waits = fifo_waits(times, bits, RATE)
        gaps = np.empty_like(times)
        gaps[:-1] = np.diff(times)
        gaps[-1] = 0.0
        assert np.array_equal(waits, lindley_waits(bits / RATE, gaps))

    def test_empty_stream(self):
        assert fifo_waits([], [], RATE).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fifo_waits([0.0], [1.0, 2.0], RATE)
        with pytest.raises(ConfigurationError):
            fifo_waits([0.0, 1.0], [1.0, 2.0], 0.0)
        with pytest.raises(ConfigurationError):
            fifo_waits([1.0, 0.0], [1.0, 2.0], RATE)


class TestFluidQueueWaits:
    def test_single_packet_served_at_rate(self):
        queue = FluidQueue(RATE, 15)
        assert queue.offer(0.0, RATE) == 1  # one-second packet
        assert queue.workload_seconds == pytest.approx(1.0)
        queue.advance(0.25)
        assert queue.workload_seconds == pytest.approx(0.75)
        queue.advance(2.0)
        assert queue.workload_seconds == 0.0
        assert queue.departures == 1

    def test_workload_before_offer_is_the_lindley_wait(self, rng):
        # Per-packet offers against an uncapped-in-practice buffer must
        # reproduce the vectorized Lindley waits exactly.
        times = np.sort(rng.uniform(0.0, 30.0, size=300))
        bits = rng.choice([576.0, 4416.0], size=300)
        expected = fifo_waits(times, bits, RATE)
        queue = FluidQueue(RATE, 10_000)
        got = []
        for at, size in zip(times, bits):
            queue.advance(at)
            got.append(queue.workload_seconds)
            assert queue.offer(at, size) == 1
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
        assert queue.drops == 0
        assert queue.arrivals == 300

    def test_batch_entry_drains_like_individual_packets(self):
        # One 4-packet batch and four per-packet offers at the same
        # instant leave identical workload trajectories.
        batched = FluidQueue(RATE, 15)
        batched.offer(0.0, 4 * PROBE_BITS, packets=4)
        single = FluidQueue(RATE, 15)
        for _ in range(4):
            single.offer(0.0, PROBE_BITS)
        for t in (0.001, 0.005, 0.02, 1.0):
            batched.advance(t)
            single.advance(t)
            assert batched.workload_seconds == pytest.approx(
                single.workload_seconds)
        assert batched.departures == single.departures == 4


class TestFluidQueueDrops:
    def test_packet_capacity_excludes_in_service_packet(self):
        # Idle server: one packet goes into service, K wait, rest drop.
        queue = FluidQueue(RATE, 15, mode=MODE_PACKETS)
        assert queue.offer(0.0, 20 * PROBE_BITS, packets=20) == 16
        assert queue.drops == 4
        assert queue.waiting_packets == 15

    def test_busy_server_admits_only_capacity(self):
        queue = FluidQueue(RATE, 2, mode=MODE_PACKETS)
        queue.offer(0.0, RATE)  # one-second packet holds the server
        assert queue.offer(0.0, 5 * PROBE_BITS, packets=5) == 2
        assert queue.drops == 3

    def test_byte_capacity(self):
        queue = FluidQueue(RATE, 1000, mode=MODE_BYTES)
        queue.offer(0.0, 800.0)  # 100 B, in service: holds no buffer bytes
        # 400-byte packets: two fit in 1000 free bytes, the third drops.
        assert queue.offer(0.0, 3 * 3200.0, packets=3) == 2
        assert queue.drops == 1

    def test_oversized_packet_drops_even_when_idle(self):
        queue = FluidQueue(RATE, 100, mode=MODE_BYTES)
        assert queue.offer(0.0, 8 * 101.0) == 0
        assert queue.drops == 1
        assert queue.workload_seconds == 0.0

    def test_packet_exactly_filling_idle_server_is_accepted(self):
        queue = FluidQueue(RATE, 100, mode=MODE_BYTES)
        assert queue.offer(0.0, 8 * 100.0) == 1

    def test_server_draining_frees_buffer_slots(self):
        queue = FluidQueue(RATE, 1, mode=MODE_PACKETS)
        queue.offer(0.0, RATE * 0.5)        # serves until t=0.5
        queue.offer(0.0, RATE * 0.5)        # waits, buffer now full
        assert queue.offer(0.1, PROBE_BITS) == 0   # still full
        assert queue.offer(0.6, PROBE_BITS) == 1   # first packet departed
        assert queue.drops == 1

    def test_validation(self):
        queue = FluidQueue(RATE, 15)
        with pytest.raises(ConfigurationError):
            queue.offer(0.0, 100.0, packets=0)
        with pytest.raises(ConfigurationError):
            queue.offer(0.0, 0.0)
        with pytest.raises(ConfigurationError):
            FluidQueue(0.0, 15)
        with pytest.raises(ConfigurationError):
            FluidQueue(RATE, 0)
        with pytest.raises(ConfigurationError):
            FluidQueue(RATE, 15, mode="cells")


class TestFluidQueueStats:
    def test_occupancy_integral_of_two_packets(self):
        # Second packet waits exactly one service time (1 s at RATE bits).
        queue = FluidQueue(RATE, 15)
        queue.offer(0.0, RATE)
        queue.offer(0.0, RATE)
        queue.advance(10.0)
        stats = queue.stats(10.0)
        assert stats["occupancy_mean_pkts"] == pytest.approx(0.1)
        assert stats["occupancy_max_pkts"] == 1.0
        assert stats["departures"] == 2.0
        assert stats["loss_fraction"] == 0.0

    def test_loss_fraction(self):
        queue = FluidQueue(RATE, 1, mode=MODE_PACKETS)
        queue.offer(0.0, 4 * PROBE_BITS, packets=4)  # 2 in, 2 dropped
        stats = queue.stats(1.0)
        assert stats["arrivals"] == 4.0
        assert stats["loss_fraction"] == pytest.approx(0.5)

    def test_elapsed_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FluidQueue(RATE, 15).stats(0.0)


class TestAggregateBatches:
    PROBES = np.array([1.0, 2.0, 3.0])

    def test_conserves_bits_and_packets(self, rng):
        times = np.sort(rng.uniform(0.0, 4.0, size=200))
        bits = rng.uniform(100.0, 5000.0, size=200)
        bt, bb, bp = aggregate_batches(times, bits, self.PROBES, 0.05)
        assert bp.sum() == 200
        assert bb.sum() == pytest.approx(bits.sum())
        assert np.all(np.diff(bt) >= 0)

    def test_guarded_arrivals_stay_per_packet(self):
        times = np.array([0.99, 1.001, 2.5])
        bits = np.array([10.0, 20.0, 30.0])
        bt, bb, bp = aggregate_batches(times, bits, self.PROBES, 0.05)
        # The two arrivals near the probe at t=1 keep their own slots.
        assert 10.0 in bb and 20.0 in bb
        near = bp[np.isin(bb, [10.0, 20.0])]
        assert np.all(near == 1)

    def test_everything_protected_under_huge_guard(self):
        times = np.linspace(0.0, 4.0, 50)
        bits = np.full(50, 576.0)
        bt, bb, bp = aggregate_batches(times, bits, self.PROBES, 100.0)
        assert np.array_equal(bt, times)
        assert np.array_equal(bb, bits)
        assert np.all(bp == 1)

    def test_batches_never_span_a_probe(self):
        # Zero guard, free arrivals on both sides of the probe at t=2.
        times = np.array([1.8, 1.9, 2.1, 2.2])
        bits = np.full(4, 100.0)
        bt, bb, bp = aggregate_batches(times, bits, self.PROBES, 0.0,
                                       max_batch_packets=10)
        assert bp.tolist() == [2, 2]
        assert bt[0] < 2.0 < bt[1]

    def test_chunking_respects_max_batch_packets(self):
        times = np.linspace(4.5, 4.9, 20)  # far beyond the last probe
        bits = np.full(20, 100.0)
        _, _, bp = aggregate_batches(times, bits, self.PROBES, 0.05,
                                     max_batch_packets=8)
        assert bp.tolist() == [8, 8, 4]

    def test_batch_placed_at_mean_member_time(self):
        times = np.array([4.0, 5.0])
        bits = np.array([100.0, 300.0])
        bt, bb, bp = aggregate_batches(times, bits, self.PROBES, 0.0,
                                       max_batch_packets=8)
        assert bt.tolist() == [4.5]
        assert bb.tolist() == [400.0]
        assert bp.tolist() == [2]

    def test_no_probes_still_batches(self):
        times = np.linspace(0.0, 1.0, 12)
        bits = np.full(12, 100.0)
        _, _, bp = aggregate_batches(times, bits, np.empty(0), 0.05,
                                     max_batch_packets=5)
        assert bp.tolist() == [5, 5, 2]

    def test_empty_input(self):
        bt, bb, bp = aggregate_batches([], [], self.PROBES, 0.05)
        assert bt.size == bb.size == bp.size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            aggregate_batches([0.0], [1.0, 2.0], self.PROBES, 0.05)
        with pytest.raises(ConfigurationError):
            aggregate_batches([0.0], [1.0], self.PROBES, -1.0)
        with pytest.raises(ConfigurationError):
            aggregate_batches([0.0], [1.0], self.PROBES, 0.05,
                              max_batch_packets=0)
        with pytest.raises(ConfigurationError):
            aggregate_batches([1.0, 0.0], [1.0, 2.0], self.PROBES, 0.05)


class _Sink(Node):
    """A peer that records when each packet is delivered."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.delivered = {}

    def handle_packet(self, packet, ingress=None):
        self.delivered[packet.uid] = self.sim.now


def literal_link(times, scheduled, sizes, rate, capacity, mode):
    """The event kernel's own link: departures (NaN if dropped), queue.

    Arrival ``i`` is handed to :meth:`Interface.send` at ``times[i]`` by
    an event scheduled at ``scheduled[i]`` (itself scheduled before the
    run), so the kernel's order at equal instants is the one
    :func:`departure_scan` is told about.
    """
    sim = Simulator(seed=0)
    sink = _Sink(sim, "b")
    queue = DropTailQueue(sim, capacity, mode)
    link = Interface(sim, Node(sim, "a"), rate, 0.0, queue)
    link.attach_peer(sink)
    packets = []
    for at, armed, size in zip(times, scheduled, sizes):
        packet = Packet("a", "b", size_bytes=size)
        packets.append(packet)

        def arm(at=at, packet=packet):
            sim.call_at(at, lambda: link.send(packet))

        sim.call_at(armed, arm)
    sim.run()
    departures = np.array([sink.delivered.get(p.uid, np.nan)
                           for p in packets])
    return departures, queue


#: Dyadic sizes, rate and instants: sums are exact, so arrivals often
#: land exactly on a transmission end and the kernel's order decides.
SCAN_RATE = 1024.0
ARRIVAL = st.tuples(st.integers(0, 60), st.integers(0, 6),
                    st.sampled_from([16, 32, 48, 128]))


class TestDepartureScan:
    @budget(300)
    @given(st.lists(ARRIVAL, min_size=1, max_size=60), st.integers(1, 4),
           st.sampled_from([MODE_PACKETS, MODE_BYTES]))
    def test_matches_the_event_link(self, arrivals, slots, mode):
        arrivals = sorted(
            ((tick / 8.0, max(0, tick - lead) / 8.0, size)
             for tick, lead, size in arrivals),
            key=lambda arrival: arrival[:2])
        times = np.array([a[0] for a in arrivals])
        scheduled = np.array([a[1] for a in arrivals])
        sizes = [a[2] for a in arrivals]
        capacity = slots if mode == MODE_PACKETS else 48 * slots
        expected, queue = literal_link(times, scheduled, sizes, SCAN_RATE,
                                       capacity, mode)
        bits = 8.0 * np.array(sizes)
        starts, peak = departure_scan(times, bits, SCAN_RATE, capacity,
                                      mode, scheduled)
        assert np.array_equal(starts + bits / SCAN_RATE, expected,
                              equal_nan=True)
        stats = scan_stats(times, bits, starts, peak, 1e3)
        assert stats["arrivals"] == queue.arrivals
        assert stats["drops"] == queue.drops
        assert stats["departures"] == queue.departures
        assert stats["occupancy_max_pkts"] == \
            queue.occupancy_packets.maximum()

    def test_tie_order_decides_admission(self):
        # A 1-slot buffer: the second packet waits behind the first; the
        # third arrives exactly as the first finishes.  Scheduled after
        # that transmission began, the kernel ends it first and the third
        # packet finds a free slot; scheduled before, it finds the buffer
        # still full and drops.
        times = np.array([0.0, 0.0, 1.0])
        bits = np.full(3, SCAN_RATE)
        late, _ = departure_scan(times, bits, SCAN_RATE, 1, MODE_PACKETS,
                                 np.array([0.0, 0.0, 0.5]))
        early, _ = departure_scan(times, bits, SCAN_RATE, 1, MODE_PACKETS)
        assert late.tolist() == [0.0, 1.0, 2.0]
        assert early[:2].tolist() == [0.0, 1.0] and np.isnan(early[2])

    def test_chunks_do_not_change_the_result(self, rng, monkeypatch):
        times = np.sort(rng.uniform(0.0, 20.0, size=3000))
        bits = rng.choice([576.0, 4416.0], size=3000)
        whole = departure_scan(times, bits, RATE, 15)
        monkeypatch.setattr(fastforward, "SCAN_CHUNK", 7)
        chunked = departure_scan(times, bits, RATE, 15)
        assert np.array_equal(whole[0], chunked[0], equal_nan=True)
        assert whole[1] == chunked[1]

    def test_empty_stream(self):
        starts, peak = departure_scan([], [], RATE, 15)
        assert starts.size == 0 and peak == 0
        stats = scan_stats(np.empty(0), np.empty(0), starts, peak, 10.0)
        assert stats["arrivals"] == 0.0 and stats["loss_fraction"] == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            departure_scan([0.0], [1.0, 2.0], RATE, 15)
        with pytest.raises(ConfigurationError):
            departure_scan([0.0], [1.0], 0.0, 15)
        with pytest.raises(ConfigurationError):
            departure_scan([0.0], [1.0], RATE, 0)
        with pytest.raises(ConfigurationError):
            departure_scan([0.0], [1.0], RATE, 15, mode="cells")
        with pytest.raises(ConfigurationError):
            departure_scan([0.0], [1.0], RATE, 15, scheduled=[0.0, 1.0])
        with pytest.raises(ConfigurationError):
            scan_stats(np.zeros(1), np.ones(1), np.zeros(1), 1, 0.0)


#: Bounds small enough that a few hundred arrivals cross every path of
#: the scan (windows, failures, scalar stretches and the way back) and
#: the occupancy sums run in slices, some cut inside a burst.
SMALL_BOUNDS = {"SCAN_WINDOW_MIN": 4, "SCAN_WINDOW_MAX": 256,
                "SCAN_QUIET_MIN": 4, "SCAN_QUIET_MAX": 64, "STATS_SLICE": 3}

#: A burst: ticks since the previous one, packets sent at one instant
#: (an FTP window), ticks between the scheduling and the arrival, size.
BURST = st.tuples(st.integers(0, 12), st.integers(1, 6), st.integers(0, 6),
                  st.sampled_from([16, 32, 48, 128]))


def burst_stream(bursts):
    """Dyadic (times, scheduled, sizes) of a burst list, in kernel order."""
    times, scheduled, sizes = [], [], []
    tick = 0
    for gap, packets, lead, size in bursts:
        tick += gap
        times += [tick / 8.0] * packets
        scheduled += [max(0, tick - lead) / 8.0] * packets
        sizes += [size] * packets
    order = sorted(range(len(times)),
                   key=lambda i: (times[i], scheduled[i], i))
    return (np.array([times[i] for i in order]),
            np.array([scheduled[i] for i in order]),
            [sizes[i] for i in order])


def spy_on_paths(monkeypatch):
    """Record every window and scalar stretch the scan runs, in order."""
    events = []
    speculate = fastforward._speculate
    stretch = fastforward._scalar_stretch

    def spy_speculate(link, *args):
        lo, hi = args[-2:]
        carried = len(link.queue) - 1
        end = speculate(link, *args)
        events.append(("window", lo, hi, end, carried))
        return end

    def spy_stretch(link, *args):
        lo = args[-2]
        end = stretch(link, *args)
        events.append(("scalar", lo, end))
        return end

    monkeypatch.setattr(fastforward, "_speculate", spy_speculate)
    monkeypatch.setattr(fastforward, "_scalar_stretch", spy_stretch)
    return events


def assert_matches_event_link(times, scheduled, sizes, capacity, mode):
    expected, queue = literal_link(times, scheduled, sizes, SCAN_RATE,
                                   capacity, mode)
    bits = 8.0 * np.array(sizes)
    starts, peak = departure_scan(times, bits, SCAN_RATE, capacity, mode,
                                  scheduled)
    assert np.array_equal(starts + bits / SCAN_RATE, expected,
                          equal_nan=True)
    # The literal run ends with its last event, a delivery or an arrival.
    end = float(np.nanmax(np.append(expected, times)))
    stats = scan_stats(times, bits, starts, peak, end)
    assert stats["drops"] == queue.drops
    assert stats["departures"] == queue.departures
    assert stats["occupancy_max_pkts"] == \
        queue.occupancy_packets.maximum()
    assert stats["occupancy_mean_pkts"] == queue.occupancy_packets.mean()
    if all(float(size).is_integer() for size in sizes):
        # The event queue's byte count rounds for fractional sizes.
        assert stats["occupancy_mean_bytes"] == \
            queue.occupancy_bytes.mean()
    return starts


class TestSpeculation:
    """The speculative windows, checked against the event kernel's link.

    With the window and stretch bounds shrunk, streams of a few hundred
    arrivals (equal-instant bursts, sparse overflows, both capacity modes,
    scheduling keys) cross window boundaries, fail mid-window, resume on
    the scalar loop and return to speculation.
    """

    @budget(40)
    @given(st.lists(BURST, min_size=30, max_size=120), st.integers(2, 8),
           st.sampled_from([MODE_PACKETS, MODE_BYTES]))
    def test_small_windows_match_the_event_link(self, bursts, slots, mode):
        times, scheduled, sizes = burst_stream(bursts)
        capacity = slots if mode == MODE_PACKETS else 48 * slots
        with pytest.MonkeyPatch.context() as patch:
            for name, value in SMALL_BOUNDS.items():
                patch.setattr(fastforward, name, value)
            assert_matches_event_link(times, scheduled, sizes, capacity,
                                      mode)

    @pytest.mark.parametrize("mode", [MODE_PACKETS, MODE_BYTES])
    def test_every_path_is_taken(self, monkeypatch, mode):
        # Long quiet stretches between overloads: windows pass whole,
        # carry waiting packets across their boundaries, fail at the
        # overloads, and the scalar loop hands back after each.
        rng = np.random.default_rng(7)
        bursts = [(int(rng.integers(2, 10)), int(rng.integers(1, 4)),
                   int(rng.integers(0, 4)), int(rng.choice([16, 32, 48])))
                  for _ in range(300)]
        for at in range(40, 300, 60):
            bursts[at] = (0, 12, 0, 128)
        times, scheduled, sizes = burst_stream(bursts)
        for name, value in SMALL_BOUNDS.items():
            monkeypatch.setattr(fastforward, name, value)
        events = spy_on_paths(monkeypatch)
        capacity = 6 if mode == MODE_PACKETS else 6 * 48
        starts = assert_matches_event_link(times, scheduled, sizes,
                                           capacity, mode)
        assert np.isnan(starts).any()
        pairs = list(zip(events, events[1:]))
        carried_over = [b for a, b in pairs
                        if a[0] == b[0] == "window" and a[3] == a[2]
                        and b[4] > 0]
        mid_window = [e for e in events
                      if e[0] == "window" and e[1] < e[3] < e[2]]
        resumed = [b for a, b in pairs
                   if a[0] == "window" and a[3] < a[2]
                   and b[0] == "scalar" and b[1] == a[3]]
        returned = [b for a, b in pairs
                    if a[0] == "scalar" and a[2] < times.size
                    and b[0] == "window" and b[1] == a[2]]
        assert carried_over and mid_window and resumed and returned

    def test_drop_free_windows_pass_whole(self, monkeypatch):
        # Bursts at one instant, ties between an arrival and a
        # transmission end, scheduling keys: none may fail a window when
        # nothing drops, or the scan would fall back for nothing.
        rng = np.random.default_rng(5)
        bursts = [(int(rng.integers(2, 9)), int(rng.integers(1, 4)),
                   int(rng.integers(0, 4)), int(rng.choice([16, 32, 48])))
                  for _ in range(300)]
        times, scheduled, sizes = burst_stream(bursts)
        # A buffer the stream just fills: a count one too high drops.
        _, peak = departure_scan(times, 8.0 * np.array(sizes), SCAN_RATE,
                                 10_000, MODE_PACKETS, scheduled)
        for name, value in SMALL_BOUNDS.items():
            monkeypatch.setattr(fastforward, name, value)
        events = spy_on_paths(monkeypatch)
        starts = assert_matches_event_link(times, scheduled, sizes, peak,
                                           MODE_PACKETS)
        assert not np.isnan(starts).any()
        windows = [e for e in events if e[0] == "window"]
        assert len(windows) > 5 and all(e[3] == e[2] for e in windows)
        assert [e[0] for e in events].count("scalar") == 1

    @pytest.mark.parametrize("mode", [MODE_PACKETS, MODE_BYTES])
    def test_busy_periods_at_the_peak_are_counted(self, monkeypatch, mode):
        # Bursts to an idle link, one packet larger each time, then bursts
        # one packet over the buffer: every busy period is exactly one
        # longer than the peak before it, the longest that may raise the
        # peak or drop, so none of them may go uncounted.
        bursts = [(24, packets, 0, 16) for packets in range(1, 10)]
        bursts += ([(24, 1, 0, 16)] * 20 + [(24, 10, 0, 16)]) * 8
        times, scheduled, sizes = burst_stream(bursts)
        for name, value in SMALL_BOUNDS.items():
            monkeypatch.setattr(fastforward, name, value)
        capacity = 7 if mode == MODE_PACKETS else 7 * 16
        starts = assert_matches_event_link(times, scheduled, sizes,
                                           capacity, mode)
        assert np.isnan(starts).sum() == 1 + 8 * 2

    def test_non_integral_bytes_take_the_scalar_loop(self, monkeypatch):
        # Prefix sums of bytes are exact only for integral sizes; the
        # event queue's running byte count rounds otherwise.
        rng = np.random.default_rng(11)
        bursts = [(int(rng.integers(0, 6)), int(rng.integers(1, 4)), 0,
                   16) for _ in range(200)]
        times, scheduled, sizes = burst_stream(bursts)
        sizes = [size + 0.1 * int(rng.integers(1, 9)) for size in sizes]
        for name, value in SMALL_BOUNDS.items():
            monkeypatch.setattr(fastforward, name, value)
        events = spy_on_paths(monkeypatch)
        starts = assert_matches_event_link(times, scheduled, sizes, 100.0,
                                           MODE_BYTES)
        assert np.isnan(starts).any()
        assert [e[0] for e in events] == ["scalar"]
