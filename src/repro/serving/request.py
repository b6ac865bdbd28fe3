"""The unit of serving work: one query request and its lifecycle.

A request is born at its (simulated) arrival time, then either

* is **shed** by the admission controller (the system is over
  capacity),
* **hits** the result cache (answered immediately at cache latency),
* is **coalesced** onto an identical in-flight query: it piggybacks on
  the leader's batch and completes when the leader's results arrive —
  no second search is performed, or
* waits in the dynamic batcher, is dispatched inside a batch to one or
  more shard devices, and **completes** when its batch's results are
  back.

Every transition stamps a simulated-clock timestamp so the metrics
collector can decompose end-to-end latency into queueing wait and
service time.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np


#: Request outcomes.
PENDING = "pending"
COMPLETED = "completed"
CACHE_HIT = "cache_hit"
COALESCED = "coalesced"
SHED = "shed"


@dataclass
class Request:
    """One search request travelling through the serving frontend.

    ``query_id`` indexes the finite query pool (the unit of popularity
    skew and the cache key); the frontend resolves it to the actual
    query vector at dispatch time.
    """

    request_id: int
    query_id: int
    arrival_s: float
    k: int = 10

    priority: int = 0
    """Admission/scheduling class; higher values are more urgent.
    Priority-aware admission sheds the lowest class first, and the
    ``slo`` batch policy closes batches for the most urgent member."""

    deadline_s: float | None = None
    """Absolute completion deadline on the simulated clock (``None`` =
    best-effort).  The ``slo`` batch policy closes a batch before its
    most urgent member's predicted completion would breach this."""

    batched_s: float | None = None
    """When the batch containing this request closed."""

    start_s: float | None = None
    """When a shard device began serving the batch."""

    completion_s: float | None = None
    """When results were available to the client."""

    outcome: str = PENDING
    result_ids: np.ndarray | None = field(default=None, repr=False)
    result_dists: np.ndarray | None = field(default=None, repr=False)

    @property
    def latency_s(self) -> float:
        """End-to-end latency (arrival to completion)."""
        if self.completion_s is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.completion_s - self.arrival_s

    @property
    def wait_s(self) -> float:
        """Time spent queued in the batcher before the batch closed."""
        if self.batched_s is None:
            return 0.0
        return self.batched_s - self.arrival_s

    def __deepcopy__(self, memo: dict) -> "Request":
        # Every field but the two result arrays holds an immutable
        # scalar or string, so a shallow copy with copied arrays is a
        # deep copy.  Generic deepcopy would walk every field of every
        # request a snapshot or restore copies (the live ones: queued,
        # in flight or not yet arrived; retired ones are shared by
        # reference) and of every request a twin fork replays.
        clone = copy.copy(self)
        clone.result_ids = copy.deepcopy(self.result_ids, memo)
        clone.result_dists = copy.deepcopy(self.result_dists, memo)
        return clone

    @property
    def done(self) -> bool:
        return self.outcome in (COMPLETED, CACHE_HIT, COALESCED)

    @property
    def slo_met(self) -> bool | None:
        """Whether the deadline was met; ``None`` when no deadline set.

        A shed request with a deadline counts as a miss (the client
        never got an answer, let alone a timely one).
        """
        if self.deadline_s is None:
            return None
        if not self.done or self.completion_s is None:
            return False
        return self.completion_s <= self.deadline_s
