"""Dynamic batching: turning an arrival stream into device batches.

The paper's throughput results (Figs. 13 and 19) are a function of
batch size: SearSSD needs large batches to fill its LUN-level
parallelism, but an online frontend cannot wait forever for a batch to
fill.  The classic compromise is the *max-batch-size / max-wait-time*
policy (as in Triton/TensorFlow Serving dynamic batching): a batch
closes as soon as it reaches ``max_batch_size`` requests **or** its
oldest request has waited ``max_wait_s``, whichever comes first.

The ``slo`` mode replaces the fixed wait with a *deadline-driven*
close: given a completion predictor (drain-time prediction from the
shard devices' FIFO state plus a calibrated per-size service model —
see :mod:`repro.serving.slo`), the batch stays open exactly as long as
its most urgent member can still meet its deadline, and closes the
moment waiting longer would breach it.  Loose deadlines fill batches;
tight ones dispatch early — the policy adapts per batch instead of
using one global wait.

:class:`DynamicBatcher` implements these policies over simulated time.
It is a passive state machine — the event loop feeds it arrivals
(:meth:`offer`) and deadline expirations (:meth:`poll`) and dispatches
whatever batches it closes — so the same batcher runs under any
arrival process, backend or clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.serving.request import Request

#: Policy modes.
BATCH = "batch"      # size + wait-time triggers (the default)
GREEDY = "greedy"    # dispatch without artificial wait (simultaneous
                     # arrivals share a batch)
FIXED = "fixed"      # size trigger only (offline-style fixed batches)
SLO = "slo"          # size + deadline-driven close (predicted breach)

POLICY_MODES = (BATCH, GREEDY, FIXED, SLO)

#: ``predictor(batch_size, close_time) -> predicted completion`` of a
#: batch of that size closed at that time, or ``None`` while the
#: service model is uncalibrated.
CompletionPredictor = Callable[[int, float], "float | None"]


@dataclass(frozen=True)
class BatchPolicy:
    """How the frontend forms batches.

    ``batch``  — close at ``max_batch_size`` or when the oldest queued
    request has waited ``max_wait_s`` (timeout closes *partial*
    batches).
    ``greedy`` — dispatch without artificial wait: a batch closes the
    moment the simulated clock moves past its arrival instant, so
    requests arriving at exactly the same time share one batch and
    everything else is a batch of one; the no-batching baseline.
    ``fixed``  — close only on size; stragglers flush at end of stream.
    ``slo``    — close at ``max_batch_size``, or when the *predicted*
    completion of the most urgent queued request would breach its
    deadline if the batch waited any longer (``max_wait_s`` stays as a
    staleness cap, and is the fallback while the predictor is
    uncalibrated or no member carries a deadline).
    """

    max_batch_size: int = 32
    max_wait_s: float = 2e-3
    mode: str = BATCH

    slo_margin_s: float = 0.0
    """``slo`` mode: close this much earlier than the predicted breach,
    absorbing service-model error (a safety margin on the deadline)."""

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.slo_margin_s < 0:
            raise ValueError("slo_margin_s must be >= 0")
        if self.mode not in POLICY_MODES:
            raise ValueError(
                f"unknown policy mode {self.mode!r}; expected one of {POLICY_MODES}"
            )


class DynamicBatcher:
    """Accumulates requests into batches under a :class:`BatchPolicy`.

    The batcher holds plain data only (policy, queue, counters), so a
    snapshot can copy it wholesale; ``slo`` mode's completion predictor
    is passed to :meth:`deadline` at each call instead of stored.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self.pending: list[Request] = []
        self.batches_closed = 0
        self.timeout_closes = 0
        """Batches closed by the wait-time/deadline trigger (partial
        batches)."""

    def __len__(self) -> int:
        return len(self.pending)

    def deadline(
        self, predictor: CompletionPredictor | None = None
    ) -> float | None:
        """Simulated time at which the queued batch must close.

        ``None`` when nothing is queued or the policy has no time
        trigger (``fixed`` mode).  ``greedy`` returns the oldest
        arrival itself (zero wait); ``slo`` returns the latest close
        time at which the most urgent member's predicted completion
        still meets its deadline, capped by ``max_wait_s`` and floored
        at the newest member's arrival (a batch cannot close before a
        member it contains arrived).

        ``predictor`` (required by ``slo`` mode, ignored otherwise)
        maps ``(batch_size, close_time)`` to the predicted completion
        time of a batch closed then — the frontend supplies drain-time
        prediction over its shard devices.
        """
        if not self.pending or self.policy.mode == FIXED:
            return None
        if self.policy.mode == GREEDY:
            return self.pending[0].arrival_s
        fallback = self.pending[0].arrival_s + self.policy.max_wait_s
        if self.policy.mode != SLO:
            return fallback
        if predictor is None:
            raise ValueError("slo mode needs a completion predictor")
        return max(
            min(fallback, self._slo_close_by(fallback, predictor)),
            self.pending[-1].arrival_s,
        )

    def _slo_close_by(
        self, fallback: float, predictor: CompletionPredictor
    ) -> float:
        """Latest close time meeting the most urgent member's deadline."""
        deadlines = [
            r.deadline_s for r in self.pending if r.deadline_s is not None
        ]
        if not deadlines:
            return fallback
        target = min(deadlines) - self.policy.slo_margin_s
        n = len(self.pending)
        # Latest candidate close: the deadline minus the *unloaded*
        # service time.  predictor(n, t) is non-decreasing in t and
        # >= t + unloaded service, so no later close can work; and if
        # even this close is predicted to breach, the devices are
        # drain-limited — every close time predicts the same (or a
        # later) completion, so close immediately to minimise lateness.
        predicted = predictor(n, target)
        if predicted is None:
            return fallback
        close_by = target - (predicted - target)
        if close_by < target and predictor(n, close_by) > target:
            return float("-inf")  # infeasible: the floor clamps to "now"
        return close_by

    def expired(self, now: float, deadline: float | None = None) -> bool:
        """Whether the queued batch's deadline has passed at ``now``.

        ``greedy`` expires *strictly* after its arrival instant, so
        requests arriving at exactly the same simulated time join the
        batch before it closes; the timed modes expire inclusively
        (a timeout at exactly the next arrival's timestamp fires
        before that arrival is offered).  Pass ``deadline`` when a
        :meth:`deadline` value is already in hand — in ``slo`` mode
        each computation runs the completion predictor over the device
        chains, so the event loop computes it once per event.  Without
        ``deadline``, ``slo`` mode raises: no predictor is at hand here.
        """
        if deadline is None:
            deadline = self.deadline()
        if deadline is None:
            return False
        if self.policy.mode == GREEDY:
            return deadline < now
        return deadline <= now

    def offer(self, request: Request) -> list[Request] | None:
        """Queue an arrival; returns a batch if this arrival closed one.

        A batch closes here when it reaches ``policy.max_batch_size``;
        the time/deadline triggers fire through :meth:`poll`.
        """
        self.pending.append(request)
        if len(self.pending) >= self.policy.max_batch_size:
            return self._close()
        return None

    def evict(self, request: Request) -> None:
        """Drop a queued request (priority admission sheds it in favour
        of a more urgent arrival)."""
        self.pending.remove(request)

    def poll(
        self, now: float, deadline: float | None = None
    ) -> list[Request] | None:
        """Close the queued batch if its deadline has expired at ``now``.

        This is the time trigger: it fires on *partial* batches — under
        light load most batches close this way.  Greedy closes are not
        counted as timeouts (zero wait is the policy, not a timer
        expiring).  ``deadline`` short-circuits recomputation as in
        :meth:`expired`.
        """
        if not self.expired(now, deadline):
            return None
        if self.policy.mode != GREEDY:
            self.timeout_closes += 1
        return self._close()

    def flush(self) -> list[Request] | None:
        """Close whatever is queued (end of stream)."""
        if not self.pending:
            return None
        return self._close()

    def _close(self) -> list[Request]:
        size = min(len(self.pending), self.policy.max_batch_size)
        batch, self.pending = self.pending[:size], self.pending[size:]
        self.batches_closed += 1
        return batch
