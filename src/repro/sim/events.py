"""A discrete-event kernel: typed events over one simulated clock.

The platform models book *work* onto :class:`~repro.sim.engine.Resource`
timelines — occupancy emerges from FIFO contention and no callbacks are
needed.  The serving layer has the opposite problem: many independent
*control* processes (an arrival stream, batcher deadline timers, batch
completions, autoscale/rebalance epochs, cluster migrations) must
interleave on one clock in a well-defined order.  Hand-interleaving
them in a master loop works until the next event source arrives;
:class:`EventLoop` makes each one a first-class, pluggable schedule.

Design:

* **Typed events.**  Every occurrence is a frozen dataclass carrying
  its simulated ``time``: :class:`Arrival`, :class:`BatchDeadline`,
  :class:`Completion`, :class:`EpochTick`, :class:`DataMovement`,
  :class:`StreamEnd`.  Payloads are opaque to the kernel — the serving
  layer attaches requests, migrations, retirement counts.
* **Deterministic order.**  The heap key is ``(time, rank, seq)``:
  simulated time first, then a per-type *rank* that pins the order of
  same-instant events, then schedule order (``seq``) as the final
  tie-break.  Two runs that schedule the same events therefore process
  them in exactly the same order — the foundation of the serving
  stack's bit-reproducibility guarantees.
* **Lazy invalidation.**  Events cannot be cancelled; a source whose
  timer became stale (e.g. the batcher's deadline moved because a new
  request joined the batch) tags events with a generation counter and
  ignores stale ones on delivery.  This keeps the kernel trivial and
  the sources honest about their own state.

The same-instant ranks encode the serving loop's invariants: a cluster
migration commits its routing flip before any batch dispatched at the
same instant routes, due batch deadlines close *before* an arrival at
the same timestamp is offered (a timeout at exactly the next arrival's
time fires first), completed work retires before the new arrival
observes queue depth, and epoch evaluation sees a settled system.
The one exception is :data:`AFTER_ARRIVALS`: a *greedy* batcher closes
strictly after its arrival instant, so its deadline timers are
scheduled with a rank that sorts behind same-time arrivals.

The kernel and the resource timelines compose: handlers book work on
``Resource``/``ResourcePool``/:class:`~repro.serving.device.ShardDevice`
timelines and schedule a :class:`Completion` at the booked end time —
occupancy stays in the resource layer, control flow in the event layer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, ClassVar


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped occurrence on the simulated clock.

    ``RANK`` orders same-instant events of different types (lower fires
    first); :meth:`EventLoop.schedule` can override it per event.
    """

    time: float
    RANK: ClassVar[int] = 100


@dataclass(frozen=True, slots=True)
class BatchDeadline(Event):
    """A batcher's close deadline timer.

    ``generation`` implements lazy invalidation: the scheduler bumps
    its generation whenever the queued batch changes, and the handler
    drops timers whose generation is stale.
    """

    RANK: ClassVar[int] = 10
    generation: int = 0


@dataclass(frozen=True, slots=True)
class Completion(Event):
    """Previously booked work finished (e.g. a dispatched batch's
    results landed); ``payload`` identifies what completed."""

    RANK: ClassVar[int] = 20
    payload: Any = None


@dataclass(frozen=True, slots=True)
class DataMovement(Event):
    """A data migration finished moving; ``payload`` carries the
    migration record.  Fires before every other same-instant event —
    batch deadlines included — so routing-table flips are atomic:
    everything dispatched from this instant on sees the new
    placement."""

    RANK: ClassVar[int] = 5
    payload: Any = None


@dataclass(frozen=True, slots=True)
class FlashMaintenance(Event):
    """Background flash work became due (read-disturb refresh / GC).

    ``payload`` identifies the device and the blocks to relocate.  The
    rank places maintenance *after* same-instant completions (the reads
    that crossed the disturb threshold retire first) but *before* epoch
    evaluation and new arrivals — the GC pause is booked on the device
    before the epoch controllers or a same-instant arrival observe its
    timeline, exactly as a device-internal scheduler would slot it.
    """

    RANK: ClassVar[int] = 25
    payload: Any = None


@dataclass(frozen=True, slots=True)
class EpochTick(Event):
    """A periodic evaluation boundary (autoscaler / rebalancer)."""

    RANK: ClassVar[int] = 30


@dataclass(frozen=True, slots=True)
class Arrival(Event):
    """External work entered the system; ``payload`` is the request."""

    RANK: ClassVar[int] = 40
    payload: Any = None


@dataclass(frozen=True, slots=True)
class StreamEnd(Event):
    """The arrival stream is exhausted (fires after the last arrival)."""

    RANK: ClassVar[int] = 60


#: Schedule rank for timers that must sort *behind* same-instant
#: arrivals (the greedy batcher's zero-wait close: requests arriving at
#: exactly the batch's instant join it before it closes).
AFTER_ARRIVALS = 50


class EventLoop:
    """A heap-backed discrete-event loop with typed subscriptions.

    Handlers subscribe per event *type* and are invoked in subscription
    order; an event popped with no subscriber is a wiring bug and
    raises.  Scheduling is allowed at or after the current ``now``
    (events never travel into the past), including from inside a
    handler — same-time follow-ups are ordered by rank, then by
    schedule order.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.processed = 0
        self.counts: dict[str, int] = {}
        """Dispatched events per type name — the kernel's own telemetry.
        Maintained unconditionally (one dict update per event) so every
        run can report its event mix; the serving layer folds these
        into ``ServingReport.counters`` as ``loop_events_*``."""

        self.observer: Callable[[Event], None] | None = None
        """Optional dispatch hook, invoked with each event *before* its
        handlers (the clock already reads the event's time).  This is
        the tracing tap: observers must only record — scheduling or
        mutating from one would interleave with handler order."""

        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._handlers: dict[type, list[Callable[[Event], None]]] = {}
        self._stopped = False

    def __len__(self) -> int:
        return len(self._heap)

    def subscribe(
        self, event_type: type, handler: Callable[[Event], None]
    ) -> None:
        """Deliver every event of exactly ``event_type`` to ``handler``."""
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"{event_type!r} is not an Event type")
        self._handlers.setdefault(event_type, []).append(handler)

    def schedule(self, event: Event, rank: int | None = None) -> Event:
        """Enqueue ``event``; returns it (for handle-keeping).

        ``rank`` overrides the event type's default same-instant rank
        (see :data:`AFTER_ARRIVALS`).
        """
        if event.time < self.now:
            raise ValueError(
                f"cannot schedule {type(event).__name__} at {event.time!r}: "
                f"the clock is already at {self.now!r}"
            )
        key_rank = event.RANK if rank is None else rank
        heapq.heappush(self._heap, (event.time, key_rank, self._seq, event))
        self._seq += 1
        return event

    def stop(self) -> None:
        """Stop after the current event's handlers return."""
        self._stopped = True

    def run(self, until: float | None = None) -> int:
        """Process events in ``(time, rank, seq)`` order.

        Runs until the heap empties, :meth:`stop` is called, or the
        next event lies beyond ``until`` (which is left pending, so a
        later ``run`` resumes it).  Returns the number of events
        processed by this call.
        """
        processed = 0
        self._stopped = False
        while self._heap and not self._stopped:
            time, _, _, event = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self.now = time
            event_type = type(event)
            name = event_type.__name__
            self.counts[name] = self.counts.get(name, 0) + 1
            if self.observer is not None:
                self.observer(event)
            handlers = self._handlers.get(event_type)
            if not handlers:
                raise LookupError(f"no handler subscribed for {name}")
            for handler in handlers:
                handler(event)
            processed += 1
            self.processed += 1
        if until is not None and until > self.now and not self._stopped:
            self.now = until
        return processed
