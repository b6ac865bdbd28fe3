"""Event counters and the platform-independent simulation result record.

Besides the scalar makespan, every platform model emits a **phase
timeline**: ordered :class:`PhaseSegment` occupancy records saying
which pipeline resource (host link, search engine, sorter, ...) was
doing what during which slice of the batch.  The serving layer's
pipelined shard devices replay these segments onto per-resource FIFO
queues, so batch N+1 can occupy a device's front stages while batch N
drains its tail stages (the online analogue of the paper's Fig. 19
sub-batching).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

#: Relative tolerance for timeline validation (floating-point slack).
_TIMELINE_EPS = 1e-9


class Counters(Counter):
    """Named event counters shared by all platform models.

    A thin subclass of :class:`collections.Counter` so counters merge
    with ``+`` and missing keys read as zero.  Canonical keys used
    throughout the codebase:

    ``page_reads``        NAND page-buffer loads
    ``multiplane_reads``  page loads merged into multi-plane operations
    ``distance_computations``  query/vertex distance evaluations
    ``dram_accesses``     SSD-internal or host DRAM accesses
    ``pcie_bytes``        bytes crossing a host PCIe link
    ``internal_bytes``    bytes crossing SSD-internal buses
    ``ecc_hard_decodes`` / ``ecc_soft_decodes``  LDPC decode events
    ``speculative_page_reads`` / ``speculative_hits``  prefetch activity
    ``sorted_elements``   elements pushed through the bitonic sorter
    """

    def merged(self, other: "Counters") -> "Counters":
        out = Counters(self)
        out.update(other)
        return out


@dataclass(frozen=True, slots=True)
class PhaseSegment:
    """One occupancy interval on one pipeline resource.

    ``stage`` labels the work ("search", "sort", "host_in", ...);
    ``resource`` names the serial unit it occupies ("engine",
    "sorter", "host_out", ...).  Segments on the same resource must
    never overlap — that is the contract :meth:`SimResult.validate_timeline`
    enforces, and what lets the serving layer treat each resource as a
    FIFO queue when pipelining batches through a device.
    """

    stage: str
    start: float
    end: float
    resource: str = "device"

    @property
    def duration(self) -> float:
        return self.end - self.start


def serial_timeline(
    stages: "list[tuple[str, str, float]]", start: float = 0.0
) -> "list[PhaseSegment]":
    """Chain ``(stage, resource, duration)`` triples into segments.

    Zero-duration stages are dropped; each remaining stage begins where
    the previous one ended.  This is the emission helper for the
    analytical models, whose batch makespan is already a serial sum of
    stage times.
    """
    out: list[PhaseSegment] = []
    t = start
    for stage, resource, duration in stages:
        if duration <= 0.0:
            continue
        out.append(PhaseSegment(stage=stage, start=t, end=t + duration,
                                resource=resource))
        t += duration
    return out


@dataclass
class SimResult:
    """Outcome of simulating one batch of queries on one platform.

    Attributes
    ----------
    platform:
        Platform label (``"cpu"``, ``"gpu"``, ``"smartssd"``, ``"ds-c"``,
        ``"ds-cp"``, ``"ndsearch"``, ``"cpu-t"``).
    algorithm / dataset:
        Workload labels for reporting.
    batch_size:
        Number of queries in the simulated batch.
    sim_time_s:
        Simulated wall-clock makespan of the batch in seconds.
    counters:
        Event counts accumulated while replaying the trace.
    component_busy_s:
        Busy seconds per named component, for execution-time breakdowns
        (paper Figs. 1 and 17).
    energy_j / power_w:
        Filled in by :class:`repro.sim.energy.EnergyModel`.
    timeline:
        Ordered :class:`PhaseSegment` occupancy records for the batch,
        relative to the batch's own start (``t=0``).  Empty timelines
        mean "opaque device": consumers fall back to ``sim_time_s`` as
        a single monolithic stage.
    """

    platform: str
    algorithm: str
    dataset: str
    batch_size: int
    sim_time_s: float
    counters: Counters = field(default_factory=Counters)
    component_busy_s: dict[str, float] = field(default_factory=dict)
    energy_j: float = 0.0
    power_w: float = 0.0
    timeline: list[PhaseSegment] = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Queries per second (the paper's throughput metric)."""
        if self.sim_time_s <= 0:
            return 0.0
        return self.batch_size / self.sim_time_s

    @property
    def qps_per_watt(self) -> float:
        """Energy efficiency (paper Fig. 20 metric)."""
        if self.power_w <= 0:
            return 0.0
        return self.qps / self.power_w

    def speedup_over(self, baseline: "SimResult") -> float:
        """Throughput speedup of this result relative to ``baseline``."""
        if self.qps <= 0:
            return 0.0
        return self.qps / baseline.qps

    def breakdown_fractions(self) -> dict[str, float]:
        """Per-component share of the accounted busy time (sums to 1)."""
        total = sum(self.component_busy_s.values())
        if total <= 0:
            return {k: 0.0 for k in self.component_busy_s}
        return {k: v / total for k, v in self.component_busy_s.items()}

    # ---- phase timeline --------------------------------------------------
    def pipeline_stages(self) -> list[tuple[str, float]]:
        """The timeline collapsed to ordered ``(resource, duration)`` runs.

        Consecutive segments on the same resource merge into one run
        whose duration spans from the run's first start to its last end
        (internal gaps included — the resource is held across them).
        An empty timeline yields a single opaque ``("device",
        sim_time_s)`` stage, which reproduces blocking one-batch-at-a-
        time service.
        """
        if not self.timeline:
            return [("device", self.sim_time_s)]
        runs: list[tuple[str, float]] = []
        run_resource: str | None = None
        run_start = run_end = 0.0
        for seg in self.timeline:
            if seg.resource != run_resource:
                if run_resource is not None:
                    runs.append((run_resource, run_end - run_start))
                run_resource, run_start = seg.resource, seg.start
            run_end = seg.end
        runs.append((run_resource, run_end - run_start))
        return runs

    def validate_timeline(self) -> None:
        """Enforce the phase-timeline contract; raises ``ValueError``.

        * segments are ordered by start time (monotone),
        * every segment has non-negative duration and lies within
          ``[0, sim_time_s]``,
        * segments sharing a resource never overlap.
        """
        tol = _TIMELINE_EPS * max(self.sim_time_s, 1e-30)
        last_start = 0.0
        resource_free: dict[str, float] = {}
        for seg in self.timeline:
            if seg.end < seg.start:
                raise ValueError(f"segment {seg} has negative duration")
            if seg.start < -tol or seg.end > self.sim_time_s + tol:
                raise ValueError(
                    f"segment {seg} outside [0, {self.sim_time_s}]"
                )
            if seg.start < last_start - tol:
                raise ValueError(
                    f"timeline not monotone: {seg} starts before {last_start}"
                )
            last_start = seg.start
            free = resource_free.get(seg.resource, 0.0)
            if seg.start < free - tol:
                raise ValueError(
                    f"resource {seg.resource!r} double-booked: {seg} "
                    f"overlaps work until {free}"
                )
            resource_free[seg.resource] = seg.end
