"""Shard device timelines: blocking or pipelined batch service.

The original frontend kept one ``free_at`` scalar per shard — a device
served one batch at a time, start to finish.  But the platform models
now report *phase timelines* (:class:`~repro.sim.stats.PhaseSegment`),
and the stages of consecutive batches occupy different hardware: while
batch N sits in the FPGA sorter and its results stream out over PCIe,
the NAND array and MAC groups are idle — exactly when batch N+1's
read/MAC work could run (the paper's Fig. 19 sub-batching argument,
applied online).

:class:`ShardDevice` models that: each pipeline resource named by a
batch's :meth:`~repro.sim.stats.SimResult.pipeline_stages` is a FIFO
queue — a :class:`~repro.sim.engine.Resource` from the simulation
core, the same serial-server primitive the platform models book their
trace work on.  A batch walks its stage chain in order; each stage
starts no earlier than (a) the previous stage of the *same* batch
finishing and (b) the resource draining the previous batch's stage.
With ``pipelined=False`` the device collapses to a single serial
resource (one batch at a time), which is the blocking baseline the
benchmarks compare against.

Devices also serve *non-query* work: :meth:`book` occupies a named
stage FIFO for a fixed duration, which is how partitioned-mode
rebalancing charges a cluster migration's data movement to the source
and destination devices — the migration read/write contends with query
batches on the same entry-stage FIFO instead of being free.
"""

from __future__ import annotations

from repro.obs.trace import Tracer
from repro.obs.windows import WindowedMetrics
from repro.sim.engine import Resource
from repro.sim.stats import SimResult

#: Stage name non-query work books on when a device has never served a
#: batch (no entry stage is known yet).
MIGRATION_STAGE = "migration"


class ShardDevice:
    """Occupancy state of one shard device across a serving run.

    The device holds plain data only, so a snapshot copies it
    wholesale.  ``index`` is its position in the pool: its trace lanes
    render under process ``index + 1`` (pid 0 is the frontend) of the
    span tracer that :meth:`serve` and :meth:`book` receive per call.
    ``windows``, when set, receives each *clipped* busy increment (the
    disjoint intervals whose union is ``busy_s``) as the
    ``shard<index>`` utilization series.
    """

    def __init__(
        self,
        pipelined: bool = True,
        index: int = 0,
        windows: WindowedMetrics | None = None,
    ) -> None:
        self.pipelined = pipelined
        self.index = index
        self.windows = windows
        self._stages: dict[str, Resource] = {}
        self._serial = Resource("device")
        """The whole-device timeline used in blocking mode."""

        self._entry_resource: str | None = None
        self._predict_scratch: dict[str, float] = {}
        """Persistent scratch for :meth:`predict`'s simulated per-stage
        frees — cleared (not rebuilt) per call, so the slo policy's
        every-queue-event dry-runs allocate nothing in steady state."""

        self._drain_at = 0.0
        self._occupied_until = 0.0
        self.busy_s = 0.0
        """Union of this device's service intervals: time with at least
        one batch (or migration) in flight.  Overlapped pipeline stages
        count once, so ``busy_s / horizon`` is a true utilization."""

        self.batches_served = 0

    @property
    def drain_at(self) -> float:
        """When the device is fully empty (last stage of last batch)."""
        return self._drain_at

    @property
    def stage_busy(self) -> dict[str, float]:
        """Busy seconds per pipeline stage resource (blocking devices
        report a single ``"device"`` entry)."""
        if not self.pipelined:
            return {self._serial.name: self._serial.busy_time}
        return {name: r.busy_time for name, r in self._stages.items()}

    def _stage(self, name: str) -> Resource:
        stage = self._stages.get(name)
        if stage is None:
            stage = Resource(name)
            self._stages[name] = stage
        return stage

    def earliest_start(
        self, at: float, entry_resource: str | None = None
    ) -> float:
        """Earliest time a batch arriving at ``at`` could begin service.

        Pipelined devices admit a new batch as soon as its *entry*
        stage frees up; blocking devices only when fully drained.
        ``entry_resource`` names the first stage of the candidate
        batch's chain when the caller knows it; otherwise the most
        recently served chain's entry stage is assumed (stage chains
        are homogeneous across batches on one platform, but a
        heterogeneous history — e.g. a spill changing the front stage —
        must read the *current* chain's FIFO, not the first-ever one).
        """
        if not self.pipelined:
            return max(at, self._drain_at)
        if entry_resource is None:
            entry_resource = self._entry_resource
        if entry_resource is None:
            return at
        stage = self._stages.get(entry_resource)
        return at if stage is None else stage.peek(at)

    def serve(
        self, result: SimResult, at: float, tracer: Tracer | None = None
    ) -> tuple[float, float]:
        """Book one batch onto the device; returns ``(start, completion)``.

        ``start`` is when the first stage begins executing, ``completion``
        when the last stage ends.  An unloaded device reproduces the
        batch's ``sim_time_s`` exactly in either mode.  ``tracer``
        (observe-only) records each stage's occupancy span.
        """
        if not self.pipelined:
            start, completion = self._serial.acquire(at, result.sim_time_s)
            if tracer is not None and tracer.enabled:
                pid = self.index + 1
                tracer.complete(
                    "batch", "stage", start, completion,
                    pid=pid, tid=tracer.thread(pid, self._serial.name),
                )
            self._drain_at = completion
            self._book_busy(start, completion)
            self.batches_served += 1
            return start, completion

        chain = result.pipeline_stages()
        # pipeline_stages() is never empty (opaque results collapse to
        # one "device" stage).  The entry resource tracks the *latest*
        # chain: earliest_start must read the FIFO a new batch would
        # actually queue on, not the first-ever batch's front stage.
        self._entry_resource = chain[0][0]
        start, t = self._acquire_chain(chain, at, tracer)
        self._drain_at = max(self._drain_at, t)
        self._book_busy(start, t)
        self.batches_served += 1
        return start, t

    def book(
        self,
        at: float,
        duration: float,
        resource: str | None = None,
        label: str = "data movement",
        category: str = "movement",
        tracer: Tracer | None = None,
    ) -> tuple[float, float]:
        """Occupy one stage FIFO with non-query work (data movement,
        flash maintenance).

        A cluster migration's read (source device) or write
        (destination device) queues behind — and delays — query batches
        on the named stage; blocking devices serialize it with whole
        batches.  ``resource`` defaults to the device's current entry
        stage (falling back to :data:`MIGRATION_STAGE` on a device that
        has never served).  ``label``/``category`` name the span
        ``tracer`` records, so migrations and GC refreshes render as
        distinct lanes.  Returns the booked ``(start, end)``.
        """
        if duration < 0:
            raise ValueError(f"negative booking duration {duration!r}")
        if not self.pipelined:
            name = self._serial.name
            start, end = self._serial.acquire(at, duration)
        else:
            name = resource or self._entry_resource or MIGRATION_STAGE
            start, end = self._stage(name).acquire(at, duration)
        if tracer is not None and tracer.enabled:
            pid = self.index + 1
            tracer.complete(
                label, category, start, end,
                pid=pid, tid=tracer.thread(pid, name),
            )
        self._drain_at = max(self._drain_at, end)
        self._book_busy(start, end)
        return start, end

    def predict(
        self, chain: list[tuple[str, float]], at: float
    ) -> tuple[float, float]:
        """Dry-run a ``(resource, duration)`` chain against the current
        FIFO state without booking it; returns ``(start, completion)``.

        This is the drain-time prediction behind the ``slo`` batch
        policy: given a :class:`~repro.serving.slo.ServiceModel`
        estimate of a candidate batch's stage chain, it answers "when
        would this batch complete if closed at ``at``" from the same
        state :meth:`serve` will book it into.  Works on a
        never-dispatched device too: with no FIFO backlog the chain
        starts at ``at`` and the prediction is its unloaded makespan.
        """
        if not chain:
            raise ValueError("need a non-empty stage chain")
        if not self.pipelined:
            start = max(at, self._drain_at)
            return start, start + sum(d for _, d in chain)
        # Simulated per-stage frees live in a persistent scratch dict
        # seeded lazily from each touched stage's real FIFO — only the
        # chain's own resources are consulted, and nothing is rebuilt
        # per call.
        free = self._predict_scratch
        free.clear()
        stages = self._stages
        t = at
        start: float | None = None
        for resource, duration in chain:
            stage_free = free.get(resource)
            if stage_free is None:
                stage = stages.get(resource)
                stage_free = 0.0 if stage is None else stage.next_free
            stage_start = max(t, stage_free)
            stage_end = stage_start + duration
            free[resource] = stage_end
            if start is None:
                start = stage_start
            t = stage_end
        return start, t

    def _acquire_chain(
        self,
        chain: list[tuple[str, float]],
        at: float,
        tracer: Tracer | None,
    ) -> tuple[float, float]:
        """Queue a stage chain through the per-resource FIFOs; returns
        ``(start, completion)``."""
        t = at
        start: float | None = None
        trace = tracer is not None and tracer.enabled
        pid = self.index + 1
        for resource, duration in chain:
            stage_start, stage_end = self._stage(resource).acquire(t, duration)
            if trace:
                tracer.complete(
                    resource, "stage", stage_start, stage_end,
                    pid=pid, tid=tracer.thread(pid, resource),
                )
            if start is None:
                start = stage_start
            t = stage_end
        return start, t

    def _book_busy(self, start: float, completion: float) -> None:
        """Accumulate the union of service intervals.

        Batches are served in dispatch order, so interval starts are
        monotone and the union reduces to clipping each interval at
        the previous high-water mark.
        """
        if completion > self._occupied_until:
            clipped_start = max(start, self._occupied_until)
            self.busy_s += completion - clipped_start
            self._occupied_until = completion
            if self.windows is not None:
                self.windows.add_interval(
                    f"shard{self.index}", clipped_start, completion
                )
