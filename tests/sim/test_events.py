"""Unit tests for the event queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue


def make_action(log, tag):
    return lambda: log.append(tag)


class TestEventQueue:
    def test_pop_returns_earliest(self):
        queue = EventQueue()
        log = []
        queue.push(2.0, make_action(log, "b"))
        queue.push(1.0, make_action(log, "a"))
        event = queue.pop()
        assert event is not None
        assert event.time == 1.0

    def test_fifo_within_same_time(self):
        queue = EventQueue()
        log = []
        queue.push(1.0, make_action(log, "first"))
        queue.push(1.0, make_action(log, "second"))
        first = queue.pop()
        second = queue.pop()
        first.action()
        second.action()
        assert log == ["first", "second"]

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        log = []
        queue.push(1.0, make_action(log, "low"), priority=5)
        queue.push(1.0, make_action(log, "high"), priority=-5)
        queue.pop().action()
        queue.pop().action()
        assert log == ["high", "low"]

    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        log = []
        handle = queue.push(1.0, make_action(log, "cancelled"))
        queue.push(2.0, make_action(log, "kept"))
        handle.cancel()
        event = queue.pop()
        assert event.time == 2.0

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        handle.cancel()
        assert len(queue) == 1

    def test_bool_reflects_live_events(self):
        queue = EventQueue()
        assert not queue
        handle = queue.push(1.0, lambda: None)
        assert queue
        handle.cancel()
        assert not queue

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(3.0, lambda: None)
        handle.cancel()
        assert queue.peek_time() == 3.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None

    def test_sequence_numbers_monotonic(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert second.sequence > first.sequence


class TestLiveCounter:
    """The O(1) live-event counter must agree with a heap scan throughout.

    Regression for the O(n)-per-call ``__len__``/``__bool__``: the count is
    now maintained incrementally, so every mutation path (push, pop, lazy
    cancellation, cancel-after-pop, double cancel, clear) has to keep it
    exact.
    """

    def heap_scan(self, queue):
        # Heap entries are (time, priority, sequence, event) tuples.
        return sum(1 for entry in queue._heap if not entry[3].cancelled)

    def test_counter_tracks_push_pop_cancel(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(10)]
        assert len(queue) == self.heap_scan(queue) == 10
        handles[3].cancel()
        handles[7].cancel()
        assert len(queue) == self.heap_scan(queue) == 8
        assert queue.pop().time == 0.0
        assert len(queue) == self.heap_scan(queue) == 7
        # Popping past the cancelled events must not double-count them.
        while queue.pop() is not None:
            assert len(queue) == self.heap_scan(queue)
        assert len(queue) == 0
        assert not queue

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is handle
        handle.cancel()  # event already fired; count must stay at 1
        assert len(queue) == 1

    def test_cancel_after_clear_does_not_corrupt_count(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.clear()
        handle.cancel()
        assert len(queue) == 0
        queue.push(2.0, lambda: None)
        assert len(queue) == 1

    def test_len_and_bool_do_not_scan_heap(self):
        # Regression for the O(n)-per-call implementation: __len__ and
        # __bool__ must read the maintained counter, never iterate the
        # heap (Simulator.pending_events is called per monitoring tick).
        queue = EventQueue()
        for i in range(5):
            queue.push(float(i), lambda: None)

        class IterationDetector(list):
            iterated = False

            def __iter__(self):
                self.iterated = True
                return super().__iter__()

        queue._heap = IterationDetector(queue._heap)
        assert len(queue) == 5
        assert queue
        assert not queue._heap.iterated

    def test_peek_time_keeps_count(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        handle.cancel()
        assert queue.peek_time() == 2.0  # drops the cancelled head lazily
        assert len(queue) == self.heap_scan(queue) == 1


class TestEvent:
    def test_ordering_by_time_then_priority_then_sequence(self):
        early = Event(1.0, 0, 0, lambda: None)
        late = Event(2.0, 0, 1, lambda: None)
        assert early < late
        high = Event(1.0, -1, 2, lambda: None)
        assert high < early

    def test_cancel_sets_flag(self):
        event = Event(1.0, 0, 0, lambda: None)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled


#: Few distinct times, so ties on time (``-0.0`` ties ``0.0``) are common and
#: the priority and sequence tie-breakers are exercised.
TIMES = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.0 + 2.0 ** -52, 3.0])
OPERATION = st.one_of(
    st.tuples(st.just("push"), TIMES, st.sampled_from([-1, 0, 1])),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek")),
)


class TestHeapOrder:
    """Pops follow ``(time, priority, sequence)`` over the live events."""

    @staticmethod
    def key(event):
        return (event.time, event.priority, event.sequence)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPERATION, max_size=80))
    def test_interleaved_push_cancel_pop(self, operations):
        queue = EventQueue()
        handles = []
        live = []
        for operation in operations:
            kind = operation[0]
            if kind == "push":
                _, time, priority = operation
                handle = queue.push(time, lambda: None, priority=priority)
                handles.append(handle)
                live.append(handle)
            elif kind == "cancel" and handles:
                # Any handle: live, already popped or already cancelled.
                handle = handles[operation[1] % len(handles)]
                handle.cancel()
                if handle in live:
                    live.remove(handle)
            elif kind == "pop":
                popped = queue.pop()
                if not live:
                    assert popped is None
                else:
                    expected = min(live, key=self.key)
                    assert popped is expected
                    assert not any(other < popped for other in live)
                    live.remove(popped)
            elif kind == "peek":
                expected_time = (min(live, key=self.key).time if live
                                 else None)
                assert queue.peek_time() == expected_time
            assert len(queue) == len(live)
            assert bool(queue) == bool(live)
        drained = []
        while (event := queue.pop()) is not None:
            drained.append(event)
        expected = sorted(live, key=self.key)
        assert len(drained) == len(expected)
        assert all(got is want for got, want in zip(drained, expected))
        assert len(queue) == 0
