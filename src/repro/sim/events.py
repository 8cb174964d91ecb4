"""Event objects and the pending-event queue of the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
a monotonically increasing counter assigned at scheduling time, which makes
the execution order of simultaneous events deterministic (FIFO within the
same time and priority) and therefore makes whole simulations reproducible
from a seed.

The heap does not hold bare events: each entry is a
``(time, priority, sequence, event)`` tuple, so every sift compares plain
tuples of floats and ints in C instead of calling a Python ``__lt__``.  The
sequence number is unique per queue, so a comparison never reaches the event
itself, and tuple order equals :meth:`Event.__lt__` order (``-0.0`` and
``0.0`` tie in both).  The tuple is built once per push; ``Event`` still
carries every field, and lazy cancellation still reads ``event.cancelled``
off the entry.

``Event`` is a hand-written ``__slots__`` class rather than a dataclass: the
kernel creates one instance per scheduled callback, so field access is on
the hot path.  Its comparison methods order events by the same key the heap
uses, for callers that sort or compare handles directly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, Optional

#: Default event priority.  Lower values run first at equal timestamps.
DEFAULT_PRIORITY = 0


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Tie-breaker among events scheduled for the same time; lower runs
        first.
    sequence:
        Scheduling-order counter; final tie-breaker, guarantees determinism.
    action:
        Zero-argument callable invoked when the event fires.
    label:
        Optional human-readable tag used in error messages and tracing.
    """

    __slots__ = ("time", "priority", "sequence", "action", "label",
                 "cancelled", "_owner")

    def __init__(self, time: float, priority: int, sequence: int,
                 action: Callable[[], Any], label: str = "") -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        #: Queue the event is pending in; cleared once popped, cancelled, or
        #: dropped, so cancellation bookkeeping happens exactly once.
        self._owner: Optional["EventQueue"] = None

    def __lt__(self, other: "Event") -> bool:
        # Short-circuit on time; ties fall through to priority then the
        # deterministic sequence number (the heap-entry key order).
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time == other.time and self.priority == other.priority
                and self.sequence == other.sequence)

    # Ordered-and-mutable, like the dataclass(order=True) it replaces.
    __hash__ = None  # type: ignore[assignment]

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped."""
        if self.cancelled:
            return
        self.cancelled = True
        owner, self._owner = self._owner, None
        if owner is not None:
            owner._notify_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"sequence={self.sequence!r}, label={self.label!r}{state})")


class EventQueue:
    """A binary-heap pending-event set with lazy cancellation.

    Cancelled events stay in the heap and are discarded when popped; this
    keeps :meth:`cancel` O(1) at the cost of transient heap growth, which is
    the right trade-off for timer-heavy network simulations.  A live-event
    counter is maintained across ``push``/``pop``/``cancel``/``clear`` so
    ``len(queue)`` (and :meth:`Simulator.pending_events`) is O(1) instead of
    a per-call heap scan.

    Heap entries are ``(time, priority, sequence, event)`` tuples (see the
    module docstring); :class:`~repro.sim.kernel.Simulator` pushes and pops
    the same shape.
    """

    __slots__ = ("_heap", "_counter", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter: Iterator[int] = itertools.count()
        self._live: int = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def _notify_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`, exactly once."""
        self._live -= 1

    def push(self, time: float, action: Callable[[], Any],
             priority: int = DEFAULT_PRIORITY, label: str = "") -> Event:
        """Add an event and return a handle that supports ``cancel()``."""
        sequence = next(self._counter)
        event = Event(time, priority, sequence, action, label)
        event._owner = self
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                event._owner = None
                self._live -= 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._owner = None
        self._heap.clear()
        self._live = 0
