"""The serving frontend: composable handlers over the event kernel.

This is the orchestrator-over-simulator layer: requests arrive on a
simulated clock, flow through admission control, the result cache, the
request coalescer and the dynamic batcher, and closed batches are
served by shard devices whose *stage occupancy* comes from the
trace-driven platform simulators (the phase timeline each
:class:`~repro.sim.stats.SimResult` carries).  Nothing waits on the
wall clock, so a minute of simulated heavy traffic runs in seconds and
every run is exactly reproducible.

Control flow runs on the discrete-event kernel
(:class:`~repro.sim.events.EventLoop`): each concern is an event
source/subscriber instead of an inlined branch of a master loop —

* **Arrivals** — the request stream is scheduled up front; the arrival
  handler runs coalescing, the cache, admission and the batcher offer.
* **Batch deadlines** — the batcher's close deadline is a
  :class:`~repro.sim.events.BatchDeadline` timer with lazy
  invalidation: any change to the queued batch bumps a generation
  counter, stale timers no-op on delivery.  A deadline expiring at
  ``t`` closes its batch before an arrival at ``t`` is offered; the
  greedy policy's zero-wait timer rides
  :data:`~repro.sim.events.AFTER_ARRIVALS`, so same-instant arrivals
  join the batch first.
* **Dispatch** — a closed batch becomes
  :class:`~repro.serving.sharding.ShardJob` sub-batches (one holding
  every row in a replicated pool, one per probed cluster in a
  partitioned pool), and one job loop books them on the
  :class:`~repro.serving.device.ShardDevice` pipelines: a batch closed
  at ``t`` enters a device's first stage no earlier than
  ``max(t, entry-stage free)`` and each stage queues FIFO per resource
  (``pipelined=False`` restores one batch at a time).  Replicated
  pools pick the replica that can start earliest; partitioned pools
  fan out to IVF clusters (all of them, or each query's ``nprobe``
  nearest) and a query completes at the slowest of *its* clusters.
* **Completions** — every dispatch schedules
  :class:`~repro.sim.events.Completion` events at the batch's join
  times; the handler retires in-service counts and coalescer entries
  at their exact simulated moment.
* **Epochs** — the autoscaler (replicated pools: grown replicas share
  the corpus index, shrunk ones leave the rotation while their devices
  drain) or the rebalancer (partitioned pools: migrate IVF clusters
  from hot to cold devices) evaluates on
  :class:`~repro.sim.events.EpochTick` boundaries anchored at the
  first arrival.
* **Data movement** — a cluster migration books its read/write on the
  source/destination device timelines (it queues behind, and delays,
  query batches) and commits the routing flip when its
  :class:`~repro.sim.events.DataMovement` event fires.
* **Stateful flash** — with ``ServingConfig.flash`` each device owns a
  flash store (:mod:`repro.serving.storage`).  The device runs a
  sub-batch's page reads through it and hands back the blocks due for
  refresh; the frontend only schedules their
  :class:`~repro.sim.events.FlashMaintenance` event, whose handler has
  the device refresh them and book the GC pause.
* **Stream end** — a :class:`~repro.sim.events.StreamEnd` event after
  the last arrival flushes stragglers at the pending deadline's real
  time and stops the epoch clocks.
* **Observability** — strictly observe-only taps
  (:mod:`repro.obs`): an optional span tracer, event-time metrics
  windows (``ServingConfig.metrics_window_s``), one ``_retire`` that
  every terminal outcome passes through, and the kernel's
  per-event-type dispatch counts (``report.counters``).  None of it
  feeds back into scheduling — the parity digests pin traced ==
  untraced.

Ordering rules the handlers keep:

* Identical in-flight queries coalesce
  (:class:`~repro.serving.coalesce.Coalescer`) *before* admission and
  the cache: followers are answered work, not queue load, so they are
  never shed, and while a search is in flight repeats complete with it
  rather than reading its future results out of the dispatch-time
  cache write.
* The result cache precedes admission: a hit is answered from host
  DRAM, so it neither consumes admission capacity nor can be shed.
* Admission counts the whole system (queued plus dispatched but
  incomplete), and with ``priority_admission=True`` a rejected arrival
  more urgent than the least urgent queued request preempts it.
* Under the ``slo`` batch policy the close deadline comes from
  drain-time prediction: a :class:`~repro.serving.slo.ServiceModel`
  estimates a candidate batch's stage chain and the devices dry-run
  it (:meth:`~repro.serving.device.ShardDevice.predict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import NullTracer, Tracer
from repro.obs.windows import WindowedMetrics
from repro.serving.admission import AdmissionController, select_victim
from repro.serving.autoscale import AutoscalePolicy, Autoscaler
from repro.serving.batcher import GREEDY, SLO, BatchPolicy, DynamicBatcher
from repro.serving.cache import ResultCache
from repro.serving.coalesce import Coalescer
from repro.serving.device import ShardDevice
from repro.serving.metrics import MetricsCollector, ServingReport
from repro.serving.rebalance import Migration, RebalancePolicy, Rebalancer
from repro.serving.request import CACHE_HIT, COMPLETED, PENDING, SHED, Request
from repro.serving.sharding import (
    PARTITIONED,
    REPLICATED,
    ShardJob,
    ShardRouter,
)
from repro.serving.slo import ServiceModel
from repro.serving.storage import FlashConfig, flash_summary
from repro.sim.events import (
    AFTER_ARRIVALS,
    Arrival,
    BatchDeadline,
    Completion,
    DataMovement,
    EpochTick,
    EventLoop,
    FlashMaintenance,
    StreamEnd,
)
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    Snapshot,
    capture_loop,
    chain_digest,
    clone_state,
    restore_loop,
    state_digest,
)


@dataclass(frozen=True)
class ServingConfig:
    """Frontend knobs (the batch policy rides in ``policy``)."""

    policy: BatchPolicy = field(default_factory=BatchPolicy)
    cache_capacity: int = 1024
    cache_hit_latency_s: float = 20e-6
    """Host hash-map lookup + response serialisation for a cache hit."""

    admission_capacity: int | None = None
    """Max requests in the system (queued + in service); None = unbounded."""

    pipelined: bool = True
    """Overlap consecutive batches on a shard's pipeline stages; False
    restores the blocking one-batch-at-a-time device."""

    coalesce: bool = True
    """Piggyback identical in-flight queries on the leader's batch."""

    nprobe: int | None = None
    """Partitioned mode only: route each query to its ``nprobe``
    nearest clusters (IVF nprobe at the device-pool level) instead of
    broadcasting.  ``None`` keeps the broadcast fan-out;
    ``nprobe = num_clusters`` reproduces broadcast results exactly."""

    priority_admission: bool = False
    """Shed lowest-priority / latest-deadline work first: a rejected
    arrival preempts a strictly less urgent queued request instead of
    being shed itself (see :mod:`repro.serving.admission`)."""

    autoscale: AutoscalePolicy | None = None
    """Replicated mode only: grow/shrink the active replica pool every
    ``interval_s`` epoch from windowed utilization and queue depth
    (see :mod:`repro.serving.autoscale`).  ``None`` keeps the pool
    static."""

    rebalance: RebalancePolicy | None = None
    """Partitioned mode only: migrate IVF clusters from hot to cold
    shard devices every ``interval_s`` epoch when windowed utilization
    skew exceeds the policy threshold (see
    :mod:`repro.serving.rebalance`).  ``None`` keeps the placement
    static."""

    flash: FlashConfig | None = None
    """Serve through stateful NAND: every shard device owns a live
    flash store (FTL + ECC + timing, :mod:`repro.serving.storage`).
    Cluster reads accumulate read-disturb and schedule
    :class:`~repro.sim.events.FlashMaintenance` refreshes whose GC
    pauses are booked on the device FIFOs, ECC retry storms stretch
    completions, and rebalance migrations charge program/erase through
    the FTL.  ``None`` (the default) keeps the stateless analytic
    storage pricing — runs are byte-identical to the pinned parity
    digests."""

    metrics_window_s: float | None = None
    """Close metrics on simulated event-time windows of this width
    (:class:`~repro.obs.windows.WindowedMetrics`): the report gains a
    ``timeseries`` surface — per-window arrivals/completions/sheds,
    queue depth, batch sizes, latency percentiles and per-device
    utilization.  ``None`` (the default) keeps the scalar-only report.
    Observe-only: enabling windows never changes a run's behavior."""


def check_deployment(
    config: ServingConfig, mode: str, num_shards: int, num_clusters: int
) -> None:
    """Reject a :class:`ServingConfig` the deployment cannot serve.

    Checks only what the configuration and the pool's shape decide, so
    a :class:`~repro.serving.scenario.Scenario` rejects a bad recipe
    when it is constructed, before any router is built.
    """
    if config.nprobe is not None:
        if mode != PARTITIONED:
            raise ValueError("nprobe requires a partitioned pool")
        if not 1 <= config.nprobe <= num_clusters:
            raise ValueError(
                f"nprobe must be in [1, {num_clusters}], got {config.nprobe}"
            )
    if config.autoscale is not None:
        if mode != REPLICATED:
            raise ValueError(
                "autoscaling requires a replicated pool (partitioned "
                "pools rebalance by data movement instead — see "
                "ServingConfig.rebalance)"
            )
        if num_shards > config.autoscale.max_replicas:
            raise ValueError(
                f"the pool has {num_shards} replicas but the autoscale "
                f"policy caps it at {config.autoscale.max_replicas}; raise "
                f"max_replicas or build a smaller pool"
            )
    if config.rebalance is not None and mode != PARTITIONED:
        raise ValueError(
            "rebalancing requires a partitioned pool (replicated pools "
            "autoscale instead — see ServingConfig.autoscale)"
        )


class ServingFrontend:
    """Runs a request stream against a shard router, collecting metrics."""

    def __init__(
        self,
        router: ShardRouter,
        config: ServingConfig | None = None,
        tracer: Tracer | None = None,
    ):
        self.router = router
        self.config = config or ServingConfig()
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        """Span sink for request/batch/stage/migration lifecycles.  The
        default :class:`~repro.obs.trace.NullTracer` records nothing;
        pass a :class:`~repro.obs.trace.SpanTracer` to export a Chrome
        trace.  Strictly observe-only either way — the parity suite
        pins that a traced run is byte-identical to an untraced one."""

        self.windows: WindowedMetrics | None = (
            WindowedMetrics(self.config.metrics_window_s)
            if self.config.metrics_window_s is not None
            else None
        )
        check_deployment(
            self.config, router.mode, router.num_shards, router.num_clusters
        )
        if self.config.nprobe is not None and router.centroids is None:
            raise ValueError(
                "nprobe requires a router built with routing centroids"
            )
        self.service_model = ServiceModel()
        self.batcher = DynamicBatcher(self.config.policy)
        self.cache = ResultCache(self.config.cache_capacity)
        self.admission = AdmissionController(self.config.admission_capacity)
        self.metrics = MetricsCollector(router.num_shards, windows=self.windows)
        self.devices = [
            self._make_device(i) for i in range(router.num_shards)
        ]
        self.autoscaler: Autoscaler | None = None
        self._active = router.num_shards
        if self.config.autoscale is not None:
            self.autoscaler = Autoscaler(self.config.autoscale)
            self._scale_to(
                max(router.num_shards, self.config.autoscale.min_replicas)
            )
        self.rebalancer: Rebalancer | None = None
        if self.config.rebalance is not None:
            self.rebalancer = Rebalancer(
                self.config.rebalance, router.num_shards, router.num_clusters
            )
        self._in_service_total = 0
        self.coalescer = Coalescer()
        # Per-run event-loop state (populated by stream_begin()).
        self._loop: EventLoop | None = None
        self._timer_gen = 0
        self._draining = False
        self._epoch_armed = False
        self._last_arrival_s = 0.0
        self._batch_seq = 0
        self._kernel_tid = 0
        self._arrival_queue: list[Request] = []
        self._arrival_next = 0
        self._arrival_pending = False
        """Whether an Arrival event is in the heap whose handler will
        chain the rest of ``_arrival_queue`` (see stream_extend)."""
        self._retired_prefix: tuple[int, str] = (0, "")
        """``(n, chain)``: the first ``n`` queued arrivals are retired,
        and ``chain`` is their :func:`~repro.sim.snapshot.chain_digest`.
        Extended by :meth:`snapshot` only (see there)."""

    def _make_device(self, index: int) -> ShardDevice:
        """Build shard device ``index`` and name its trace process.

        With flash on, the device's store comes with the corpus
        placement it holds programmed: a partitioned device the
        footprint of every cluster it owns, a replica the full corpus
        as one whole-corpus "cluster" keyed 0 (for a replica the
        autoscaler grows, that write is its provisioning cost).  The
        programs seed the host side of the write-amplification ledger,
        so a run that never refreshes reports WA exactly 1.0.
        """
        self._name_device_process(index)
        device = ShardDevice(
            self.config.pipelined, index, self.windows, self.config.flash
        )
        router = self.router
        owned = [0]
        if router.mode == PARTITIONED:
            owned = [
                c for c, s in enumerate(router.cluster_shard) if s == index
            ]
        for cluster in owned:
            device.receive_cluster(
                cluster, router.backends[cluster].profile.footprint_bytes
            )
        return device

    def _name_device_process(self, index: int) -> None:
        if self.tracer.enabled:
            # pid 0 is the frontend process
            self.tracer.process(index + 1, f"shard {index}")

    def run(
        self, requests: list[Request], query_pool: np.ndarray
    ) -> ServingReport:
        """Serve a request stream drawn from ``query_pool``.

        ``query_pool`` is the (pool_size, dim) array the requests'
        ``query_id`` fields index into.  Requests are mutated in place
        (timestamps, outcomes, results) and summarised in the returned
        report.

        The stream becomes a schedule of typed events on a fresh
        :class:`~repro.sim.events.EventLoop`; every other concern
        (deadlines, completions, epochs, migrations) schedules its own
        events as the run unfolds, and the loop drains them in
        deterministic ``(time, rank, seq)`` order.

        ``run`` is the one-shot composition of the streaming primitives
        (:meth:`stream_begin` → :meth:`stream_extend` →
        :meth:`stream_finish`); the twin
        (:mod:`repro.serving.twin`) drives them incrementally instead,
        with :meth:`stream_step` and :meth:`snapshot` between windows.
        """
        calibrate_k = max(r.k for r in requests) if requests else None
        self.stream_begin(query_pool, calibrate_k=calibrate_k)
        self.stream_extend(requests)
        return self.stream_finish()

    # ---- streaming session ----------------------------------------------
    def stream_begin(
        self, query_pool: np.ndarray, calibrate_k: int | None = None
    ) -> None:
        """Open a streaming session: fresh event loop, subscriptions,
        tracer wiring and an empty arrival queue.

        ``calibrate_k`` primes the ``slo`` service model before the
        first arrival (pass the stream's widest ``k``); ``None`` skips
        calibration — a restored session inherits its snapshot's
        already-calibrated model.
        """
        self._pool = np.ascontiguousarray(query_pool, dtype=np.float32)
        if (
            self.config.policy.mode == SLO
            and not self.service_model.calibrated
            and calibrate_k is not None
        ):
            self._calibrate(self._pool, calibrate_k)
        loop = EventLoop()
        self._loop = loop
        self._timer_gen += 1
        self._draining = False
        self._epoch_armed = False
        if self.tracer.enabled:
            self.tracer.process(0, "serving.frontend")
            self._kernel_tid = self.tracer.thread(0, "kernel")
            loop.observer = self._trace_kernel_event
        loop.subscribe(Arrival, self._on_arrival)
        loop.subscribe(BatchDeadline, self._on_batch_deadline)
        loop.subscribe(Completion, self._on_completion)
        loop.subscribe(EpochTick, self._on_epoch_tick)
        loop.subscribe(DataMovement, self._on_data_movement)
        loop.subscribe(FlashMaintenance, self._on_flash_maintenance)
        loop.subscribe(StreamEnd, self._on_stream_end)
        self._arrival_queue = []
        self._arrival_next = 0
        self._arrival_pending = False
        self._retired_prefix = (0, "")
        self._last_arrival_s = 0.0

    def stream_extend(self, requests: list[Request]) -> None:
        """Append arrivals to the open session's stream.

        Chained arrival injection: only the head of the (sorted)
        stream sits in the heap; each arrival's handler injects its
        successor.  Arrivals are the only rank-40 events, so chaining
        preserves their relative order exactly while keeping the heap
        at O(in-flight timers) instead of O(total requests) — per-push
        sift cost no longer scales with stream length.  If the chain
        has dried (every queued arrival was delivered), extending
        re-primes it.

        Arrivals stream forward only: the new batch must not start
        before the last already-queued arrival, nor before the loop's
        current clock.

        A fed request starts its lifecycle afresh: one that carries an
        outcome from an earlier run (the same objects fed again, or a
        twin fork's copies of requests the base run served) is reset to
        ``PENDING`` with no stamps or results.  An outcome then always
        means "retired in this session", which :meth:`snapshot` relies
        on to share retired requests.
        """
        ordered = sorted(requests, key=lambda r: r.arrival_s)
        if not ordered:
            return
        loop = self._loop
        if (
            self._arrival_queue
            and ordered[0].arrival_s < self._arrival_queue[-1].arrival_s
        ):
            raise ValueError(
                f"arrival at {ordered[0].arrival_s!r} precedes the queued "
                f"stream's last arrival at "
                f"{self._arrival_queue[-1].arrival_s!r}"
            )
        if ordered[0].arrival_s < loop.now:
            raise ValueError(
                f"arrival at {ordered[0].arrival_s!r} is in the past: "
                f"the clock is already at {loop.now!r}"
            )
        for request in ordered:
            if request.outcome != PENDING:
                request.outcome = PENDING
                request.batched_s = request.start_s = None
                request.completion_s = None
                request.result_ids = request.result_dists = None
        self._arrival_queue.extend(ordered)
        self._last_arrival_s = self._arrival_queue[-1].arrival_s
        if not self._arrival_pending:
            head = self._arrival_queue[self._arrival_next]
            self._arrival_next += 1
            self._arrival_pending = True
            loop.schedule(Arrival(time=head.arrival_s, payload=head))

    def stream_step(self, until: float) -> int:
        """Drain events up to simulated time ``until`` (inclusive);
        returns the number processed.  Events beyond ``until`` stay
        pending — a window boundary, not an end."""
        return self._loop.run(until)

    def stream_finish(self) -> ServingReport:
        """Close the session: flush stragglers via ``StreamEnd``, drain
        the loop, and fold the final counters into the report."""
        loop = self._loop
        # max() covers a session stepped past its last arrival: the
        # clock may already stand beyond it, and events never travel
        # into the past.
        loop.schedule(StreamEnd(time=max(self._last_arrival_s, loop.now)))
        loop.run()
        # Kernel-level observability: per-event-type dispatch counts
        # fold into the report's counters (loop_events_*).
        self.metrics.set_event_counts(loop.counts)
        # Utilization comes from true device occupancy (overlapped
        # pipeline stages count once), not summed batch makespans.
        self.metrics.set_shard_busy([d.busy_s for d in self.devices])
        if self.autoscaler is not None:
            self.metrics.set_scaling(
                [event.to_dict() for event in self.autoscaler.events],
                self._active,
            )
        if self.rebalancer is not None:
            self.metrics.set_rebalance(
                [m.to_dict() for m in self.rebalancer.migrations],
                list(self.router.cluster_shard),
            )
        if self.config.flash is not None:
            self.metrics.set_flash(
                flash_summary([d.store for d in self.devices])
            )
        return self.metrics.report()

    @property
    def stream_requests(self) -> list[Request]:
        """The session's arrival stream in time order, including every
        already-delivered request.  A restored session holds the very
        objects its snapshot's session had retired when it was captured
        (they are final, so the two share them) and its own copies of
        the rest; digest this list, not the originally fed one."""
        return list(self._arrival_queue)

    # ---- snapshot / restore ----------------------------------------------
    # State by default: every instance attribute is captured except
    # the wiring named in _WIRING.  Components hold plain data only (the
    # batcher's predictor, the coalescer's metrics tap and the tracer
    # are passed per call), and state_digest rejects callables, so
    # wiring left in session state fails the snapshot loudly.  The
    # router's mutable placement is captured separately and the loop's
    # state through capture_loop.  Immutable build artifacts (the query
    # pool, backend indexes, global-ID maps, centroids) are shared by
    # reference: they never change under serving, so copying them would
    # only burn memory without buying isolation.
    _WIRING = frozenset(
        {"router", "config", "tracer", "_loop", "_pool", "_kernel_tid"}
    )

    def _snapshot_shared(self) -> list:
        """Objects referenced, never copied, by snapshot state."""
        shared: list = [self._pool]
        shared.extend(self.router.backends)
        if self.router.global_ids is not None:
            shared.append(self.router.global_ids)
        if self.router.centroids is not None:
            shared.append(self.router.centroids)
        return shared

    def _extend_retired_prefix(self) -> int:
        """Fold arrivals retired since the last capture into
        ``_retired_prefix``; returns its new length ``n``.

        Retirement is monotone and a retired request is final, so the
        longest all-retired prefix only grows and each request is
        hashed once per session, at the first capture that finds it
        retired.  Sessions that never snapshot never pay for it.
        """
        n, chain = self._retired_prefix
        queue = self._arrival_queue
        end = n
        while end < self._arrival_next and queue[end].outcome != PENDING:
            end += 1
        if end > n:
            self._retired_prefix = (end, chain_digest(chain, queue[n:end]))
        return end

    def snapshot(self, kind: str = "window") -> Snapshot:
        """Freeze the open streaming session's full simulation state.

        Captures the event loop (clock, heap, seq/dispatch counters),
        the router's mutable placement (replica count / cluster→shard
        map) and the session: every attribute not declared wiring —
        batcher queue, coalescer tables, cache, admission ledger,
        service model, windowed metrics, collector, devices (stage FIFOs
        and flash stores), epoch controllers and the frontend's own
        counters.  It is one :func:`~repro.sim.snapshot.clone_state`
        pass, so objects shared across those structures (a request in
        the batcher *and* in a pending heap event, the windowed metrics
        behind the collector and every device) stay shared in the
        copy.  The result is immutable and restorable any number of
        times.

        Retired requests are history: nothing the simulation reads
        changes them after ``_retire``.  The longest all-retired prefix
        of the arrival queue (``_retired_prefix``) is therefore shared
        by reference, not copied, and enters the digest as its length
        and chained hash, so a capture costs O(live state), not
        O(requests so far).  Only the queue past it is copied and hashed
        per capture.
        """
        router = self.router
        retired = self._arrival_queue[: self._extend_retired_prefix()]
        state = clone_state(
            {
                "mode": router.mode,
                "loop": capture_loop(self._loop),
                "router": {
                    "num_backends": len(router.backends),
                    "cluster_shard": (
                        [int(s) for s in router.cluster_shard]
                        if router.cluster_shard is not None
                        else None
                    ),
                },
                "session": {
                    key: value
                    for key, value in vars(self).items()
                    if key not in self._WIRING
                },
            },
            shared=[*self._snapshot_shared(), *retired],
        )
        # The batch span counter only advances when a tracer is
        # attached.  It is captured (a resumed traced session keeps its
        # span IDs unique) but excluded from the content address, so
        # attaching observability never changes a snapshot digest — or
        # a twin cache key derived from one.  The retired prefix enters
        # through _retired_prefix, its (length, chain) pair, so the view
        # keeps only the queue past it.
        session = state["session"]
        digest_view = dict(state)
        digest_view["session"] = {
            key: value
            for key, value in session.items()
            if key != "_batch_seq"
        }
        digest_view["session"]["_arrival_queue"] = (
            session["_arrival_queue"][len(retired):]
        )
        return Snapshot(
            version=SNAPSHOT_VERSION,
            kind=kind,
            time=self._loop.now,
            state=state,
            digest=state_digest(digest_view),
        )

    def restore(self, snapshot: Snapshot, query_pool: np.ndarray) -> None:
        """Load a :meth:`snapshot` into this frontend and leave the
        session open (continue with :meth:`stream_extend` /
        :meth:`stream_step` / :meth:`stream_finish`).

        The frontend must be built over an equivalent deployment: same
        router mode and cluster count, same flash and metrics-window
        opt-ins, and the same ``query_pool`` content.  Running the
        restored session forward is byte-identical to the run the
        snapshot was taken from — the twin's what-if forks then apply
        their deltas (config changes only affect *future* decisions)
        before replaying the suffix.  The snapshot itself is never
        mutated: restoring deep-copies again, so repeated restores
        from one checkpoint are independent.  The one exception is the
        snapshot's retired requests, which every restore shares with
        the captured session rather than copying (see :meth:`snapshot`);
        the restored session also inherits their ``_retired_prefix``.
        """
        if snapshot.version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {snapshot.version} != "
                f"supported {SNAPSHOT_VERSION}"
            )
        frozen = snapshot.state
        if frozen["mode"] != self.router.mode:
            raise ValueError(
                f"snapshot router mode {frozen['mode']!r} != "
                f"this router's {self.router.mode!r}"
            )
        flash_on = frozen["session"]["devices"][0].store is not None
        if flash_on != (self.devices[0].store is not None):
            raise ValueError(
                "flash configuration mismatch: snapshot and frontend "
                "must both (or neither) serve through stateful flash"
            )
        if (frozen["session"]["windows"] is None) != (self.windows is None):
            raise ValueError(
                "metrics-window configuration mismatch: snapshot and "
                "frontend must agree on ServingConfig.metrics_window_s"
            )
        # Fresh loop + subscriptions + tracer wiring, then overwrite
        # the loop's state with the captured clock/heap/counters.
        self.stream_begin(query_pool)
        retired_n, _ = frozen["session"]["_retired_prefix"]
        retired = frozen["session"]["_arrival_queue"][:retired_n]
        state = clone_state(
            frozen, shared=[*self._snapshot_shared(), *retired]
        )
        restore_loop(self._loop, state["loop"])
        vars(self).update(state["session"])
        router_state = state["router"]
        if self.router.mode == REPLICATED:
            self._scale_to(router_state["num_backends"])
        elif len(self.router.backends) != router_state["num_backends"]:
            raise ValueError(
                f"snapshot has {router_state['num_backends']} clusters; "
                f"this router has {len(self.router.backends)}"
            )
        if router_state["cluster_shard"] is not None:
            for cluster, shard in enumerate(router_state["cluster_shard"]):
                self.router.cluster_shard[cluster] = shard
        for device in self.devices:
            self._name_device_process(device.index)

    # ---- event handlers --------------------------------------------------
    def _on_arrival(self, event: Arrival) -> None:
        request: Request = event.payload
        now = event.time
        nxt = self._arrival_next
        if nxt < len(self._arrival_queue):
            self._arrival_next = nxt + 1
            successor = self._arrival_queue[nxt]
            self._loop.schedule(
                Arrival(time=successor.arrival_s, payload=successor)
            )
        else:
            # Chain dried: stream_extend must re-prime on new arrivals.
            self._arrival_pending = False
        if not self._epoch_armed:
            self._arm_epochs(now)
        depth = len(self.batcher) + self._in_service_total
        self.metrics.observe_arrival(request, depth)
        if self.tracer.enabled:
            self.tracer.async_begin(
                "request", "request", request.request_id, now,
                args={
                    "query_id": request.query_id,
                    "k": request.k,
                    "priority": request.priority,
                },
            )
            self.tracer.counter("queue", now, {"depth": depth})
        if self.autoscaler is not None:
            self.autoscaler.observe_depth(depth)
        # Coalescing precedes admission and the cache: a follower
        # adds no queue load (so it is never shed), and while its
        # query's search is in flight the causally-correct answer
        # is to complete *with* it, not to read its future results
        # out of the dispatch-time cache write.
        if self.config.coalesce and self.coalescer.try_coalesce(
            request, now, self._retire
        ):
            return
        # The cache precedes admission: a hit is answered from host
        # DRAM and never enters the system, so it cannot be shed
        # (and must not preempt queued work to be answered).
        cached = self.cache.lookup(request.query_id, request.k)
        if cached is not None:
            request.result_ids, request.result_dists = cached
            request.completion_s = now + self.config.cache_hit_latency_s
            request.outcome = CACHE_HIT
            self._retire(request, request.completion_s)
            return
        if not self.admission.admit(depth):
            if not self._try_preempt(request):
                request.outcome = SHED
                self._retire(request, now)
                return
        if self.config.coalesce:
            self.coalescer.note_queued(request)
        batch = self.batcher.offer(request)
        if batch is not None:
            self._dispatch(batch, close_time=now)
        # The queued batch changed: invalidate the standing deadline
        # timer and schedule a fresh one.  An urgent arrival can make
        # the slo deadline immediately due (or, with max_wait_s=0, its
        # own wait expires at arrival) — the new timer then fires at
        # this same instant, before the next arrival.
        self._refresh_deadline_timer()

    def _on_batch_deadline(self, event: BatchDeadline) -> None:
        if event.generation != self._timer_gen or self._draining:
            return  # stale timer: the batch it was armed for changed
        deadline = self.batcher.deadline(self.predict_completion)
        if deadline is None:
            return
        now = self._loop.now
        if self.batcher.policy.mode == GREEDY:
            # Same-instant arrivals have already been delivered (the
            # timer rides AFTER_ARRIVALS), so the batch is complete;
            # zero wait is the policy, not a timer expiring, so this
            # close does not count as a timeout.
            batch = self.batcher.flush()
            if batch is not None:
                self._dispatch(batch, close_time=deadline)
        elif not self.batcher.expired(now, deadline):
            # The deadline moved later than this timer (defensive —
            # reachable only if device state shifted under an armed
            # slo timer without a generation bump).
            self._refresh_deadline_timer()
            return
        else:
            batch = self.batcher.poll(now, deadline)
            if batch is not None:
                self._dispatch(
                    batch, close_time=deadline, timeout_closed=True
                )
        self._refresh_deadline_timer()

    def _on_completion(self, event: Completion) -> None:
        self._in_service_total -= event.payload
        # Results that have landed are no longer coalescing targets —
        # from now on the cache answers repeats of these queries.
        self.coalescer.retire(self._loop.now)

    def _on_epoch_tick(self, event: EpochTick) -> None:
        if self._draining:
            return  # the stream ended; let the epoch clock stop
        now = event.time
        if self.autoscaler is not None:
            self._scale_to(
                self.autoscaler.decide(
                    now, self._active, [d.busy_s for d in self.devices]
                )
            )
            if self.windows is not None:
                self.windows.sample("replicas", now, float(self._active))
            if self.tracer.enabled:
                self.tracer.counter("replicas", now, {"active": self._active})
            self._loop.schedule(EpochTick(time=self.autoscaler.epoch_end))
        elif self.rebalancer is not None:
            proposals = self.rebalancer.decide(
                now, [d.busy_s for d in self.devices],
                self.router.cluster_shard,
            )
            for proposal in proposals:
                self._start_migration(proposal, now)
            self._loop.schedule(EpochTick(time=self.rebalancer.epoch_end))

    def _on_data_movement(self, event: DataMovement) -> None:
        migration: Migration = event.payload
        # The atomic commit point: DataMovement outranks every other
        # same-instant event (repro.sim.events), so even a batch whose
        # deadline expires at exactly complete_s books the cluster's
        # work on the destination device.
        self.router.reassign_cluster(migration.cluster, migration.dest)
        self.rebalancer.finish(migration)
        # Flash programs and erases commit with the routing flip.
        self.devices[migration.dest].receive_cluster(
            migration.cluster, migration.bytes
        )
        self.devices[migration.source].release_cluster(migration.cluster)
        if self.tracer.enabled:
            self.tracer.async_end(
                "migration", "migration", migration.cluster, event.time
            )

    def _on_flash_maintenance(self, event: FlashMaintenance) -> None:
        # The GC pause queues on the entry stage, like a migration.
        shard, triples = event.payload
        self.devices[shard].refresh(
            event.time, triples, self.service_model.entry_resource,
            self.tracer,
        )

    def _on_stream_end(self, event: StreamEnd) -> None:
        # End of stream: let a pending deadline close at its real time,
        # then flush stragglers (fixed mode has no deadline).  Closing
        # here rather than at the timer keeps end-of-stream flushes out
        # of the timeout statistics, exactly like an operator draining
        # a frontend.
        self._draining = True
        deadline = self.batcher.deadline(self.predict_completion)
        flush_time = deadline if deadline is not None else self._last_arrival_s
        batch = self.batcher.flush()
        if batch is not None:
            self._dispatch(
                batch, close_time=max(flush_time, self._last_arrival_s)
            )
        self._timer_gen += 1  # no timers survive the flush

    # ---- observability taps ---------------------------------------------
    # Strictly observe-only: every hook reads values the run already
    # computed.  Nothing here may touch batcher, router, device or
    # admission state — that invariant is what lets the parity suite
    # pin traced runs to the same digests as untraced ones.
    def _retire(self, request: Request, at: float, **trace_args) -> None:
        """``request`` reached its terminal outcome at ``at``: the one
        place outcomes reach the collector (and its windows) and close
        the request's trace span."""
        self.metrics.observe_outcome(request, at)
        if self.tracer.enabled:
            self.tracer.async_end(
                "request", "request", request.request_id, at,
                args={"outcome": request.outcome, **trace_args},
            )

    def _trace_kernel_event(self, event) -> None:
        """Kernel dispatch tap: control events become trace instants.

        Arrivals and completions are omitted — the request spans and
        batch spans already carry them — so the kernel lane shows the
        *control* stream: deadline timers, epoch ticks, migration
        commits, stream end.
        """
        if isinstance(event, BatchDeadline):
            args = {"generation": event.generation}
        elif isinstance(event, DataMovement):
            migration: Migration = event.payload
            args = {
                "cluster": migration.cluster,
                "source": migration.source,
                "dest": migration.dest,
            }
        elif isinstance(event, FlashMaintenance):
            shard, triples = event.payload
            args = {"device": shard, "blocks": len(triples)}
        elif isinstance(event, (EpochTick, StreamEnd)):
            args = None
        else:
            return
        self.tracer.instant(
            type(event).__name__, "kernel", event.time,
            tid=self._kernel_tid, args=args,
        )

    # ---- epoch controllers ----------------------------------------------
    def _arm_epochs(self, now: float) -> None:
        """Anchor the epoch grid at the first arrival and start the
        tick chain (autoscaler and rebalancer are mutually exclusive
        by mode validation)."""
        self._epoch_armed = True
        if self.autoscaler is not None:
            busy = [d.busy_s for d in self.devices]
            self.autoscaler.decide(now, self._active, busy)
            self._loop.schedule(EpochTick(time=self.autoscaler.epoch_end))
        elif self.rebalancer is not None:
            self.rebalancer.arm(now, [d.busy_s for d in self.devices])
            self._loop.schedule(EpochTick(time=self.rebalancer.epoch_end))

    def enable_rebalance(self, policy: RebalancePolicy) -> None:
        """Switch hot-cluster migration on mid-session in a partitioned
        pool (a what-if fork restored from a snapshot that carried no
        rebalancer).  Once the epoch grid is anchored the first-arrival
        hook will not fire again, so the new controller arms here."""
        self.rebalancer = Rebalancer(
            policy, self.router.num_shards, self.router.num_clusters
        )
        if self._epoch_armed:
            self._arm_epochs(self._loop.now)

    def add_replicas(self, count: int) -> None:
        """Grow a replicated pool by ``count`` active replicas now."""
        if self.router.mode != REPLICATED:
            raise ValueError("add_replicas requires a replicated router")
        self._scale_to(self._active + count)

    def _scale_to(self, replicas: int) -> None:
        """Set the active replica count.  The router pool tracks it
        exactly: growth adds shared-index replicas (and devices, when
        the pool is larger than ever before), shrink removes them from
        the rotation (their devices stay, draining, for occupancy
        accounting)."""
        while self.router.num_shards < replicas:
            self.router.add_replica()
        while self.router.num_shards > replicas:
            self.router.remove_replica()
        while len(self.devices) < replicas:
            self.devices.append(self._make_device(len(self.devices)))
        self.metrics.ensure_shards(len(self.devices))
        self._active = replicas

    def _start_migration(self, proposal, now: float) -> None:
        """Book a cluster migration's data movement and schedule its
        commit.

        The read occupies the source device, the write the destination
        device — both on the platform's entry-stage FIFO, so the
        movement queues behind (and delays) query batches instead of
        being free.  The cluster keeps routing to the source until the
        :class:`~repro.sim.events.DataMovement` event commits the flip.
        """
        policy = self.config.rebalance
        moved_bytes = int(
            self.router.backends[proposal.cluster].profile.footprint_bytes
        )
        duration = moved_bytes / (policy.migration_gbps * 1e9)
        stage = self.service_model.entry_resource
        _, read_done = self.devices[proposal.source].book(
            now, duration, resource=stage, tracer=self.tracer
        )
        # NAND programs can be slower than the link: the destination
        # write cannot finish before its pages are programmed.
        dest = self.devices[proposal.dest]
        _, write_done = dest.book(
            now, max(duration, dest.program_floor_s(moved_bytes)),
            resource=stage, tracer=self.tracer,
        )
        migration = Migration(
            cluster=proposal.cluster,
            source=proposal.source,
            dest=proposal.dest,
            decided_s=now,
            complete_s=max(read_done, write_done),
            bytes=moved_bytes,
            vectors=int(self.router.global_ids[proposal.cluster].size),
            utilization_gap=proposal.utilization_gap,
        )
        self.rebalancer.begin(migration)
        if self.tracer.enabled:
            self.tracer.async_begin(
                "migration", "migration", migration.cluster,
                migration.decided_s,
                args={
                    "source": migration.source,
                    "dest": migration.dest,
                    "bytes": migration.bytes,
                    "vectors": migration.vectors,
                },
            )
        self._loop.schedule(
            DataMovement(time=migration.complete_s, payload=migration)
        )

    # ---- batcher timers --------------------------------------------------
    def _refresh_deadline_timer(self) -> None:
        """Re-arm the batch deadline timer for the current queue.

        Bumps the generation (invalidating any standing timer) and, if
        a batch is queued under a timed policy, schedules its close.
        Greedy timers ride :data:`~repro.sim.events.AFTER_ARRIVALS` so
        requests arriving at exactly the leader's instant join the
        batch before it closes.
        """
        self._timer_gen += 1
        deadline = self.batcher.deadline(self.predict_completion)
        if deadline is None:
            return
        rank = (
            AFTER_ARRIVALS if self.batcher.policy.mode == GREEDY else None
        )
        self._loop.schedule(
            BatchDeadline(
                time=max(deadline, self._loop.now),
                generation=self._timer_gen,
            ),
            rank=rank,
        )

    # ---- shared internals ------------------------------------------------
    def _calibrate(self, pool: np.ndarray, k: int) -> None:
        """Prime the service model with offline probe batches.

        The ``slo`` policy's first closes would otherwise run on an
        uncalibrated predictor and fall back to ``max_wait_s`` — one
        probe at each extreme batch size anchors the affine fit before
        the first request arrives (the timing-model equivalent of a
        deployment's warm-up calibration).  Probes price timing only:
        nothing is booked on the devices and no metrics are recorded.
        """
        sizes = sorted({1, self.config.policy.max_batch_size})
        # Distinct backend objects, first-occurrence order (replicated
        # pools alias one backend across shards; probe each just once).
        backends: list = []
        for b in self.router.backends:
            if not any(b is have for have in backends):
                backends.append(b)
        for size in sizes:
            queries = pool[np.arange(size) % pool.shape[0]]
            for backend in backends:
                _, _, result = backend.search_batch(queries, k)
                self.service_model.observe(size, result.pipeline_stages())

    def _try_preempt(self, request: Request) -> bool:
        """Admit a rejected arrival by shedding a less urgent queued
        request; returns whether a victim was preempted."""
        if not self.config.priority_admission:
            return False
        candidates = self.batcher.pending
        if self.config.coalesce:
            # A leader with followers must dispatch; shedding it would
            # leave its coalesced followers unresolved.
            candidates = [
                r for r in candidates if not self.coalescer.has_followers(r)
            ]
        victim = select_victim(candidates, request)
        if victim is None:
            return False
        self.batcher.evict(victim)
        if self.config.coalesce:
            self.coalescer.forget_queued(victim)
        victim.outcome = SHED
        self._retire(victim, self._loop.now, preempted=True)
        self.admission.preempt()
        return True

    def predict_completion(self, batch_size: int, at: float) -> float | None:
        """Drain-time prediction: when a batch of ``batch_size`` closed
        at ``at`` would complete, or ``None`` until the service model
        has observed a batch.

        The prediction mirrors the dispatch rule: replicated pools
        predict on the replica :meth:`_pick_replica` chooses (not the
        one with the soonest predicted *completion*); partitioned
        broadcast joins on the slowest device.
        Selective probing is approximated: each device's load is
        estimated at the *expected* per-device sub-batch size
        (``n * nprobe / num_shards`` — the exact per-cluster regrouping
        is only known after routing) and the join still spans the
        pool, since a typical batch's per-query probe sets union to
        nearly every device.
        """
        if self.config.nprobe is not None:
            batch_size = max(
                1,
                round(batch_size * self.config.nprobe / self.router.num_shards),
            )
        chain = self.service_model.estimate_chain(batch_size)
        if chain is None:
            return None
        devices = self.devices
        if self.router.mode == REPLICATED:
            devices = [devices[self._pick_replica(at)]]
        return max(device.predict(chain, at)[1] for device in devices)

    def _pick_replica(self, at: float) -> int:
        """The active replica a batch closed at ``at`` goes to: the one
        that can start earliest, then drain earliest (replicas the
        autoscaler shrank away take no traffic)."""
        devices = self.devices
        return min(
            range(self._active),
            key=lambda s: (devices[s].earliest_start(at), devices[s].drain_at),
        )

    def _dispatch(
        self,
        batch: list[Request],
        close_time: float,
        timeout_closed: bool = False,
    ) -> None:
        pool = self._pool
        queries = pool[[r.query_id for r in batch]]
        # The batcher does not group by k; search at the batch's widest
        # k and trim per request below.
        k = max(r.k for r in batch)
        n = len(batch)
        self.metrics.observe_batch(n, close_time, timeout_closed)
        batch_span = None
        if self.tracer.enabled:
            batch_span = self._batch_seq
            self._batch_seq += 1
            self.tracer.async_begin(
                "batch", "batch", batch_span, close_time,
                args={"size": n, "timeout": timeout_closed},
            )

        if self.router.mode == REPLICATED:
            # The whole batch goes to one active replica.
            shard = self._pick_replica(close_time)
            ids, dists, result = self.router.search_on(shard, queries, k)
            jobs = [ShardJob(shard, np.arange(n), result, cluster=0)]
        else:
            # PARTITIONED: fan out per IVF cluster (all clusters for
            # broadcast, each query's nprobe nearest otherwise).
            ids, dists, jobs = self.router.search_probed(
                queries, k, self.config.nprobe
            )
        # Every job's sub-batch books on its device's timeline, and a
        # query joins on the slowest of *its* jobs: the one replica, the
        # whole pool under broadcast, or the clusters it probed.  A
        # device never starts a job before close_time.
        starts = np.full(n, close_time)
        completions = np.full(n, close_time)
        for job in jobs:
            rows = int(job.rows.size)
            device = self.devices[job.shard]
            shard_start, shard_done = device.serve(
                job.result, close_time, self.tracer
            )
            # With flash on, ECC stalls push the sub-batch's completion
            # and blocks past the disturb threshold come back due.
            shard_done, due = device.read_flash(
                job.cluster, job.result, rows, shard_done,
                self.service_model.entry_resource, self.tracer,
            )
            if due:
                at = max(shard_done, self._loop.now)
                self._loop.schedule(
                    FlashMaintenance(time=at, payload=(job.shard, due))
                )
            self.service_model.observe(rows, job.result.pipeline_stages())
            self.metrics.observe_shard_service(job.shard, job.result)
            self.metrics.observe_probes(job.shard, rows)
            if self.rebalancer is not None:
                self.rebalancer.observe_cluster_queries(job.cluster, rows)
            starts[job.rows] = np.maximum(starts[job.rows], shard_start)
            completions[job.rows] = np.maximum(
                completions[job.rows], shard_done
            )

        if batch_span is not None:
            self.tracer.async_end(
                "batch", "batch", batch_span, float(completions.max())
            )
        # One completion event per distinct join time: replicated and
        # broadcast batches collapse to a single event, selective
        # probing adds one per fan-out join group.
        for value, count in zip(*np.unique(completions, return_counts=True)):
            at = max(float(value), self._loop.now)
            self._loop.schedule(Completion(time=at, payload=int(count)))
        self._in_service_total += len(batch)

        for i, request in enumerate(batch):
            completion = float(completions[i])
            request.batched_s = close_time
            request.start_s = float(starts[i])
            request.completion_s = completion
            request.outcome = COMPLETED
            # Copies, not views: a view would pin the whole (n, k)
            # batch array in memory for as long as any single row
            # lives, and a client mutating its result row in place
            # would write through into the shared buffer the coalescer
            # resolves followers from.
            request.result_ids = ids[i, : request.k].copy()
            request.result_dists = dists[i, : request.k].copy()
            self.cache.store(
                request.query_id, request.k, request.result_ids,
                request.result_dists,
            )
            self._retire(request, completion, batched_s=close_time)
            if self.config.coalesce:
                self.coalescer.on_dispatch(
                    request, ids[i].copy(), dists[i].copy(), k, completion,
                    self._retire,
                )
