"""Serving telemetry: QPS, latency percentiles, utilization, energy.

The offline experiments report batch makespans; an online system is
judged on different axes — sustained throughput, *tail* latency
(p95/p99, where queueing and burstiness live), queue depth, cache
effectiveness, shed rate and per-shard utilization.  The collector
accumulates per-request and per-batch observations during a frontend
run and condenses them into a :class:`ServingReport`.

Energy reuses the per-batch :class:`~repro.sim.stats.SimResult` energy
attached by :class:`~repro.sim.energy.EnergyModel`, so serving runs
report the same QPS/W currency as the paper's Fig. 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import format_table
from repro.serving.request import CACHE_HIT, COMPLETED, SHED, Request
from repro.sim.stats import Counters, SimResult


@dataclass
class ServingReport:
    """Summary of one serving run (all times in seconds)."""

    offered: int
    completed: int
    cache_hits: int
    coalesced: int
    shed: int
    horizon_s: float
    qps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    mean_batch_size: float
    timeout_close_fraction: float
    cache_hit_rate: float
    shed_rate: float
    mean_queue_depth: float
    max_queue_depth: int
    shard_utilization: tuple[float, ...]
    energy_j: float
    counters: Counters = field(default_factory=Counters)
    shard_probe_counts: tuple[int, ...] = ()
    """Queries routed to each shard (selective probing: a query counts
    only on the shards it probed; broadcast counts it on every shard)."""

    mean_probes_per_query: float = 0.0
    """Average shards probed per dispatched query (replicated = 1,
    partitioned broadcast = num_shards, selective = nprobe)."""

    deadline_total: int = 0
    """Requests that carried a deadline (served or shed)."""

    deadline_misses: int = 0
    """Deadline-carrying requests that completed late or were shed."""

    deadline_miss_rate: float = 0.0
    """``deadline_misses / deadline_total`` (0 when no deadlines)."""

    goodput_qps: float = 0.0
    """Deadline-carrying requests answered *on time* per second — the
    SLO currency of throughput (late answers do not count)."""

    priority_stats: dict[int, dict[str, float]] = field(default_factory=dict)
    """Per priority class: ``offered`` / ``served`` / ``shed`` counts,
    ``met`` deadlines, and ``attainment`` (met / served-with-deadline;
    1.0 when the class carries no deadlines)."""

    scale_events: tuple[dict, ...] = ()
    """Autoscaler decisions (``ScaleEvent.to_dict()`` records), empty
    for static pools."""

    replicas_final: int = 0
    """Active replicas when the run ended (static pools: shard count)."""

    rebalance_events: tuple[dict, ...] = ()
    """Cluster migrations (``Migration.to_dict()`` records), empty for
    static placements."""

    cluster_map_final: tuple[int, ...] = ()
    """Cluster → shard-device placement when the run ended
    (partitioned pools with rebalancing; empty otherwise)."""

    timeseries: dict | None = None
    """Windowed metrics time series
    (:meth:`~repro.obs.windows.WindowedMetrics.series` output) when the
    run closed metrics on event-time windows
    (``ServingConfig.metrics_window_s``); ``None`` otherwise.  Each
    window row carries arrivals/completions/shed/cache-hit counters,
    queue-depth and batch-size gauges, within-window latency
    percentiles (p50/p95/p99) and per-device utilization."""

    flash: dict | None = None
    """Stateful-flash summary when the run served through
    ``ServingConfig.flash``: aggregate page reads, ECC soft decodes,
    refreshes (GC pauses), erase counts, write amplification and the
    per-device :meth:`~repro.serving.storage.FlashBackedStore.summary`
    records; ``None`` with flash off."""

    twin: dict | None = None
    """Digital-twin bookkeeping when the run was driven by a
    :class:`~repro.serving.twin.ServingTwin` (window width, windows
    simulated, checkpoints, what-if cache hits/misses, restores);
    ``None`` for plain runs.  Attached post-hoc by the twin — what-if
    fork reports never carry it, so a null what-if stays byte-identical
    to a from-scratch run."""

    @property
    def served(self) -> int:
        """Requests answered (searched, coalesced or from cache)."""
        return self.completed + self.cache_hits + self.coalesced

    @property
    def qps_per_watt(self) -> float:
        if self.energy_j <= 0 or self.horizon_s <= 0:
            return 0.0
        return self.qps / (self.energy_j / self.horizon_s)

    def to_dict(self) -> dict:
        """A JSON-safe dict of the full report surface.

        Round-trippable: ``ServingReport.from_dict(json.loads(
        json.dumps(report.to_dict())))`` reconstructs an equal report.
        This is the one serialization path shared by the sweep JSON,
        the CLI's ``--report-json`` and the e2e benchmark's report
        digests — ad-hoc dict assembly drifts, this does not.

        Derived conveniences (``served``, ``qps_per_watt``) are
        included for consumers and ignored by :meth:`from_dict`.
        """

        def _num(value):
            # numpy scalars -> native (json.dumps chokes on np.int64).
            return value.item() if hasattr(value, "item") else value

        return {
            "offered": self.offered,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "shed": self.shed,
            "served": self.served,
            "horizon_s": self.horizon_s,
            "qps": self.qps,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "mean_batch_size": self.mean_batch_size,
            "timeout_close_fraction": self.timeout_close_fraction,
            "cache_hit_rate": self.cache_hit_rate,
            "shed_rate": self.shed_rate,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "shard_utilization": [float(u) for u in self.shard_utilization],
            "energy_j": self.energy_j,
            "qps_per_watt": self.qps_per_watt,
            "counters": {
                str(key): _num(value)
                for key, value in sorted(self.counters.items())
            },
            "shard_probe_counts": [int(c) for c in self.shard_probe_counts],
            "mean_probes_per_query": self.mean_probes_per_query,
            "deadline_total": self.deadline_total,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "goodput_qps": self.goodput_qps,
            "priority_stats": {
                str(priority): {k: float(v) for k, v in stats.items()}
                for priority, stats in sorted(self.priority_stats.items())
            },
            "scale_events": [dict(e) for e in self.scale_events],
            "replicas_final": self.replicas_final,
            "rebalance_events": [dict(e) for e in self.rebalance_events],
            "cluster_map_final": [int(s) for s in self.cluster_map_final],
            "timeseries": self.timeseries,
            "flash": self.flash,
            "twin": self.twin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServingReport":
        """Rebuild a report from :meth:`to_dict` output (or its JSON)."""
        d = dict(data)
        for derived in ("served", "qps_per_watt"):
            d.pop(derived, None)
        d["shard_utilization"] = tuple(
            float(u) for u in d["shard_utilization"]
        )
        d["counters"] = Counters(
            {str(k): v for k, v in d["counters"].items()}
        )
        d["shard_probe_counts"] = tuple(
            int(c) for c in d["shard_probe_counts"]
        )
        d["priority_stats"] = {
            int(priority): {k: float(v) for k, v in stats.items()}
            for priority, stats in d["priority_stats"].items()
        }
        d["scale_events"] = tuple(dict(e) for e in d["scale_events"])
        d["rebalance_events"] = tuple(dict(e) for e in d["rebalance_events"])
        d["cluster_map_final"] = tuple(
            int(s) for s in d["cluster_map_final"]
        )
        d.setdefault("flash", None)  # reports predating stateful flash
        d.setdefault("twin", None)  # reports predating the digital twin
        return cls(**d)

    def format(self, title: str = "serving summary") -> str:
        """An aligned two-column report table."""
        rows = [
            ["offered", self.offered],
            ["served", self.served],
            ["  searched", self.completed],
            ["  cache hits", self.cache_hits],
            ["  coalesced", self.coalesced],
            ["shed", self.shed],
            ["QPS", f"{self.qps:,.0f}"],
            ["p50 latency", f"{self.latency_p50_s * 1e3:.3f} ms"],
            ["p95 latency", f"{self.latency_p95_s * 1e3:.3f} ms"],
            ["p99 latency", f"{self.latency_p99_s * 1e3:.3f} ms"],
            ["mean latency", f"{self.latency_mean_s * 1e3:.3f} ms"],
            ["mean batch size", f"{self.mean_batch_size:.1f}"],
            ["timeout closes", f"{self.timeout_close_fraction:.0%}"],
            ["cache hit rate", f"{self.cache_hit_rate:.1%}"],
            ["shed rate", f"{self.shed_rate:.1%}"],
            ["mean queue depth", f"{self.mean_queue_depth:.1f}"],
            ["max queue depth", self.max_queue_depth],
            [
                "shard utilization",
                " ".join(f"{u:.0%}" for u in self.shard_utilization),
            ],
            [
                "shard probes",
                " ".join(str(c) for c in self.shard_probe_counts),
            ],
            ["probed shards/query", f"{self.mean_probes_per_query:.2f}"],
            ["energy", f"{self.energy_j:.3g} J"],
        ]
        if self.deadline_total:
            rows.extend(
                [
                    ["deadline misses",
                     f"{self.deadline_misses}/{self.deadline_total} "
                     f"({self.deadline_miss_rate:.1%})"],
                    ["goodput", f"{self.goodput_qps:,.0f} QPS on time"],
                ]
            )
            for priority in sorted(self.priority_stats, reverse=True):
                stats = self.priority_stats[priority]
                rows.append(
                    [
                        f"  priority {priority}",
                        f"attainment {stats['attainment']:.1%} "
                        f"(served {stats['served']:.0f}, "
                        f"shed {stats['shed']:.0f})",
                    ]
                )
        if self.scale_events:
            peak = max(e["replicas_after"] for e in self.scale_events)
            rows.append(
                [
                    "autoscaling",
                    f"{len(self.scale_events)} events, peak {peak}, "
                    f"final {self.replicas_final} replicas",
                ]
            )
        if self.rebalance_events:
            moved = sum(e["bytes"] for e in self.rebalance_events)
            rows.append(
                [
                    "rebalancing",
                    f"{len(self.rebalance_events)} migrations, "
                    f"{moved / 1e6:.2f} MB moved",
                ]
            )
        if self.flash is not None:
            rows.append(
                [
                    "flash",
                    f"{self.flash['refreshes']} refreshes, "
                    f"{self.flash['total_erases']} erases, "
                    f"WA {self.flash['write_amplification']:.2f}, "
                    f"{self.flash['ecc_soft_decodes']} ECC soft decodes",
                ]
            )
        if self.twin is not None:
            rows.append(
                [
                    "twin",
                    f"{self.twin['windows_simulated']} windows, "
                    f"{self.twin['checkpoints']} checkpoints, "
                    f"cache {self.twin['cache_hits']}/"
                    f"{self.twin['cache_hits'] + self.twin['cache_misses']} "
                    f"hit, {self.twin['restores']} restores",
                ]
            )
        return format_table(["metric", "value"], rows, title=title)


class MetricsCollector:
    """Accumulates observations during a frontend run."""

    def __init__(self, num_shards: int, windows=None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.windows = windows
        """Optional :class:`~repro.obs.windows.WindowedMetrics` whose
        series lands in ``ServingReport.timeseries``.  The collector
        feeds it the arrival, batch and outcome counts itself; devices
        and the flash glue add utilization and flash counters."""
        self.latencies_s: list[float] = []
        self.cache_hits = 0
        self.coalesced = 0
        self.completed = 0
        self.shed = 0
        self.batch_sizes: list[int] = []
        self.queue_depths: list[int] = []
        self.shard_busy_s = [0.0] * num_shards
        self.shard_batches = [0] * num_shards
        self.shard_query_probes = [0] * num_shards
        self.energy_j = 0.0
        self.counters = Counters()
        self.first_arrival_s: float | None = None
        self.last_completion_s = 0.0
        self.timeout_closes = 0
        self.deadline_total = 0
        self.deadline_misses = 0
        self.deadline_met = 0
        # priority -> [offered, served, shed, with_deadline, met,
        #              shed_with_deadline]
        self.priority_counts: dict[int, list[int]] = {}
        self.scale_events: list[dict] = []
        self.replicas_final = num_shards
        self.rebalance_events: list[dict] = []
        self.cluster_map_final: tuple[int, ...] = ()
        self.flash: dict | None = None

    # ---- observations ---------------------------------------------------
    def observe_arrival(self, request: Request, queue_depth: int) -> None:
        """An arrival, with the system depth it found (queued + in
        service)."""
        if self.first_arrival_s is None:
            self.first_arrival_s = request.arrival_s
        self.queue_depths.append(queue_depth)
        self._priority(request.priority)[0] += 1
        if self.windows is not None:
            self.windows.inc("arrivals", request.arrival_s)
            self.windows.sample(
                "queue_depth", request.arrival_s, float(queue_depth)
            )

    def _priority(self, priority: int) -> list[int]:
        return self.priority_counts.setdefault(priority, [0, 0, 0, 0, 0, 0])

    def observe_outcome(self, request: Request, at: float) -> None:
        """``request`` reached its terminal outcome at time ``at``.

        The one path for every terminal outcome: searched
        (``COMPLETED``), answered from the cache, coalesced onto a
        leader, or shed (a preempted victim is shed too).  Served
        requests add a latency sample; a deadline-carrying request that
        was shed or answered late counts as a deadline miss.  The
        windowed series, when on, gets the same counts in the window
        holding ``at``.
        """
        counts = self._priority(request.priority)
        outcome = request.outcome
        if outcome == SHED:
            self.shed += 1
            counts[2] += 1
            counter = "shed"
        else:
            if outcome == COMPLETED:
                self.completed += 1
                counter = "completions"
            elif outcome == CACHE_HIT:
                self.cache_hits += 1
                counter = "cache_hits"
            else:
                self.coalesced += 1
                counter = "coalesced"
            self.latencies_s.append(request.latency_s)
            self.last_completion_s = max(
                self.last_completion_s, request.completion_s
            )
            counts[1] += 1
        met = request.slo_met  # a shed request's deadline is missed
        if met is not None:
            self.deadline_total += 1
            counts[3] += 1
            if met:
                self.deadline_met += 1
                counts[4] += 1
            else:
                self.deadline_misses += 1
                if outcome == SHED:
                    counts[5] += 1
        windows = self.windows
        if windows is not None:
            windows.inc(counter, at)
            if outcome != SHED:
                windows.observe("latency_s", at, request.latency_s)
            if met is False:
                windows.inc("deadline_misses", at)

    def observe_batch(
        self, size: int, at: float, timeout_closed: bool = False
    ) -> None:
        """One logical batch of ``size`` closed by the batcher at ``at``."""
        self.batch_sizes.append(size)
        if timeout_closed:
            self.timeout_closes += 1
        if self.windows is not None:
            self.windows.sample("batch_size", at, float(size))

    def observe_shard_service(self, shard: int, result: SimResult) -> None:
        """One shard device serving (its slice of) a batch.

        A replicated-mode batch lands on one shard; a partitioned-mode
        batch fans out and produces one observation per shard.  Busy
        time is *not* accumulated here: with pipelined devices,
        consecutive batches overlap, so summing per-batch makespans
        would double-count — the frontend reports true device
        occupancy via :meth:`set_shard_busy` instead.
        """
        self.shard_batches[shard] += 1
        self.energy_j += result.energy_j
        self.counters.update(result.counters)

    def observe_probes(self, shard: int, n_queries: int) -> None:
        """``n_queries`` of a dispatched batch were routed to ``shard``.

        The per-query currency of routing work: a replicated batch
        books its whole batch on one shard, a partitioned broadcast on
        every shard, selective probing only on the ``nprobe`` shards
        each query chose — so ``sum(shard_query_probes)`` divided by
        the dispatched query count is the effective probes-per-query.
        """
        self.shard_query_probes[shard] += n_queries

    def ensure_shards(self, num_shards: int) -> None:
        """Grow the per-shard series (autoscaler added replicas)."""
        while self.num_shards < num_shards:
            self.shard_busy_s.append(0.0)
            self.shard_batches.append(0)
            self.shard_query_probes.append(0)
            self.num_shards += 1

    def set_shard_busy(self, busy_s: list[float]) -> None:
        """Authoritative per-shard occupancy (union of service intervals)."""
        self.ensure_shards(len(busy_s))
        if len(busy_s) != self.num_shards:
            raise ValueError(
                f"expected {self.num_shards} busy values, got {len(busy_s)}"
            )
        self.shard_busy_s = list(busy_s)

    def set_scaling(self, events: list[dict], replicas_final: int) -> None:
        """Record the autoscaler's decisions for the report."""
        self.scale_events = list(events)
        self.replicas_final = replicas_final

    def set_rebalance(
        self, events: list[dict], cluster_map: list[int]
    ) -> None:
        """Record the rebalancer's migrations and the final placement."""
        self.rebalance_events = list(events)
        self.cluster_map_final = tuple(int(s) for s in cluster_map)

    def set_flash(self, summary: dict) -> None:
        """Record the flash substrate's end-of-run summary."""
        self.flash = summary

    def set_event_counts(self, counts: dict[str, int]) -> None:
        """Fold the kernel's per-type dispatch counts into the counters.

        Keys land as ``loop_events_<EventType>`` plus a
        ``loop_events_total`` sum — the run's event mix.  Additive,
        like every counter: a collector reused across runs accumulates.
        """
        total = 0
        for name in sorted(counts):
            n = int(counts[name])
            self.counters[f"loop_events_{name}"] += n
            total += n
        self.counters["loop_events_total"] += total

    # ---- reduction ------------------------------------------------------
    def report(self) -> ServingReport:
        lat = np.asarray(self.latencies_s, dtype=np.float64)
        served = self.completed + self.cache_hits + self.coalesced
        offered = served + self.shed
        start = self.first_arrival_s or 0.0
        horizon = max(self.last_completion_s - start, 0.0)
        p50 = p95 = p99 = mean = 0.0
        if lat.size:
            p50, p95, p99 = (
                float(np.percentile(lat, q)) for q in (50.0, 95.0, 99.0)
            )
            mean = float(lat.mean())
        n_batches = len(self.batch_sizes)
        dispatched = sum(self.batch_sizes)
        total_probes = sum(self.shard_query_probes)
        priority_stats = {}
        for priority, counts in self.priority_counts.items():
            (
                p_offered, p_served, p_shed, p_deadline, p_met,
                p_shed_deadline,
            ) = counts
            served_with_deadline = p_deadline - p_shed_deadline
            priority_stats[priority] = {
                "offered": float(p_offered),
                "served": float(p_served),
                "shed": float(p_shed),
                "with_deadline": float(p_deadline),
                "met": float(p_met),
                # Attainment over *admitted* (served) requests with a
                # deadline; shed requests are reported separately.  A
                # class whose deadline-carrying requests were ALL shed
                # attains nothing (not a vacuous 100%); only a class
                # with no deadlines at all trivially attains.
                "attainment": (
                    p_met / served_with_deadline
                    if served_with_deadline > 0
                    else (1.0 if p_deadline == 0 else 0.0)
                ),
            }
        return ServingReport(
            offered=offered,
            completed=self.completed,
            cache_hits=self.cache_hits,
            coalesced=self.coalesced,
            shed=self.shed,
            horizon_s=horizon,
            qps=served / horizon if horizon > 0 else 0.0,
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            latency_mean_s=mean,
            mean_batch_size=(
                float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0
            ),
            timeout_close_fraction=(
                self.timeout_closes / n_batches if n_batches else 0.0
            ),
            cache_hit_rate=self.cache_hits / served if served else 0.0,
            shed_rate=self.shed / offered if offered else 0.0,
            mean_queue_depth=(
                float(np.mean(self.queue_depths)) if self.queue_depths else 0.0
            ),
            max_queue_depth=max(self.queue_depths, default=0),
            shard_utilization=tuple(
                busy / horizon if horizon > 0 else 0.0
                for busy in self.shard_busy_s
            ),
            energy_j=self.energy_j,
            counters=self.counters,
            shard_probe_counts=tuple(self.shard_query_probes),
            mean_probes_per_query=(
                total_probes / dispatched if dispatched else 0.0
            ),
            deadline_total=self.deadline_total,
            deadline_misses=self.deadline_misses,
            deadline_miss_rate=(
                self.deadline_misses / self.deadline_total
                if self.deadline_total
                else 0.0
            ),
            goodput_qps=self.deadline_met / horizon if horizon > 0 else 0.0,
            priority_stats=priority_stats,
            scale_events=tuple(self.scale_events),
            replicas_final=self.replicas_final,
            rebalance_events=tuple(self.rebalance_events),
            cluster_map_final=self.cluster_map_final,
            timeseries=(
                self.windows.series() if self.windows is not None else None
            ),
            flash=self.flash,
        )
