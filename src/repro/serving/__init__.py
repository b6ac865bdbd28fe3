"""repro.serving — online serving over the NDSearch simulators.

The offline experiments answer "how fast is one batch"; this package
answers the production question: what QPS and *tail latency* does an
NDSearch deployment sustain against live traffic?  It is a
discrete-event serving simulation layered over the repo's trace-driven
platform models:

* :mod:`repro.serving.arrivals` — request streams (Poisson, bursty
  MMPP, trace replay) with Zipfian query popularity.
* :mod:`repro.serving.batcher` — dynamic batching
  (max-batch-size / max-wait-time, greedy, fixed and SLO deadline-
  driven policies).
* :mod:`repro.serving.slo` — the calibrated per-size service model
  behind the ``slo`` policy's drain-time prediction.
* :mod:`repro.serving.autoscale` — epoch-based replica autoscaling
  from windowed utilization and queue-depth signals.
* :mod:`repro.serving.rebalance` — partitioned-pool rebalancing:
  IVF-cluster migrations between shard devices under load skew, with
  the data movement booked on the device timelines.
* :mod:`repro.serving.sharding` — replicated and IVF-partitioned
  device pools with shard-aware top-k merging and selective shard
  probing (IVF ``nprobe`` at the device-pool level).
* :mod:`repro.serving.cache` — an LRU result cache exploiting query
  skew.
* :mod:`repro.serving.admission` — bounded queues and load shedding.
* :mod:`repro.serving.metrics` — QPS, p50/p95/p99 latency, queue
  depth, hit rate, per-shard utilization, energy.
* :mod:`repro.serving.backends` — any platform registered in
  :mod:`repro.platform` (NDSearch, CPU/CPU-T/GPU/SmartSSD, DS-c/DS-cp)
  behind one interface, so serving comparisons are apples-to-apples.
* :mod:`repro.serving.device` — pipelined shard devices: consecutive
  batches overlap on a device's phase-timeline stages; with flash on,
  each device owns its flash store and does its flash work.
* :mod:`repro.serving.storage` — stateful flash under serving: a
  device's live FTL + ECC, so reads accumulate disturb, GC refresh
  pauses inject tail latency and migrations charge program/erase
  (opt-in via ``ServingConfig.flash``).
* :mod:`repro.serving.frontend` — composable handlers over the
  discrete-event kernel (:mod:`repro.sim.events`) tying it together,
  including coalescing of identical in-flight queries.
* :mod:`repro.serving.twin` — the digital twin: incremental
  re-simulation over deterministic window snapshots
  (:mod:`repro.sim.snapshot`), answering what-if queries by replaying
  only the changed suffix, memoized in a content-addressed cache.

Typical use::

    from repro.serving import (
        BatchPolicy, PoissonArrivals, QueryStream, ServingConfig,
        ServingFrontend, build_router,
    )

    router = build_router(vectors, num_shards=4, config=config)
    stream = QueryStream(PoissonArrivals(200.0), pool_size=len(pool),
                         n_requests=2000)
    frontend = ServingFrontend(router, ServingConfig(BatchPolicy(32, 2e-3)))
    report = frontend.run(stream.generate(), pool)
    print(report.format())

Or from the shell::

    python -m repro.serving --rate 200 --shards 4 --policy batch

Everything runs on a simulated clock — service times come from the
SearSSD/baseline timing models — so runs are fast and deterministic.
"""

from repro.serving.admission import AdmissionController
from repro.serving.arrivals import (
    MMPPArrivals,
    PoissonArrivals,
    QueryStream,
    TraceReplayArrivals,
)
from repro.serving.autoscale import AutoscalePolicy, Autoscaler, ScaleEvent
from repro.serving.backends import (
    PlatformBackend,
    SearchBackend,
    make_backend,
)
from repro.serving.batcher import BatchPolicy, DynamicBatcher
from repro.serving.cache import LRUCache, ResultCache
from repro.serving.device import ShardDevice
from repro.serving.frontend import ServingConfig, ServingFrontend
from repro.serving.metrics import MetricsCollector, ServingReport
from repro.serving.rebalance import (
    Migration,
    RebalancePolicy,
    Rebalancer,
)
from repro.serving.request import Request
from repro.serving.sharding import ShardJob, ShardRouter, build_router
from repro.serving.slo import ServiceModel
from repro.serving.storage import FlashBackedStore, FlashConfig
from repro.serving.twin import ServingTwin, TwinCache

__all__ = [
    "AdmissionController",
    "AutoscalePolicy",
    "Autoscaler",
    "BatchPolicy",
    "DynamicBatcher",
    "FlashBackedStore",
    "FlashConfig",
    "LRUCache",
    "MMPPArrivals",
    "MetricsCollector",
    "Migration",
    "PlatformBackend",
    "PoissonArrivals",
    "QueryStream",
    "RebalancePolicy",
    "Rebalancer",
    "Request",
    "ResultCache",
    "ScaleEvent",
    "SearchBackend",
    "ServiceModel",
    "ServingConfig",
    "ServingFrontend",
    "ServingReport",
    "ServingTwin",
    "ShardDevice",
    "ShardJob",
    "ShardRouter",
    "TraceReplayArrivals",
    "TwinCache",
    "build_router",
    "make_backend",
]
