"""Serving sweep: batch policy x shard count x arrival rate, plus the
pipelined-vs-blocking device comparison.

The online analogue of Figs. 13/19: the same frontend, stream seed and
corpus across every cell, varying only the batching policy, the size of
the replicated device pool and the offered load.  Expected shape:

* batching beats greedy dispatch at high load (larger batches fill the
  LUN-level parallelism — the Fig. 19 effect, now under queueing);
* adding shards lifts sustained throughput once one device saturates;
* p99 grows with offered load at fixed capacity;
* pipelined shard devices (phase-timeline stage overlap) sustain at
  least blocking throughput everywhere, and strictly more on an
  I/O-bound platform under bursty arrivals, where batch N+1's SSD
  reads overlap batch N's in-core drain;
* selective shard probing (partitioned mode, IVF nprobe at the device
  pool) cuts per-query device work proportionally to nprobe while
  recall falls gracefully toward — and matches exactly at
  nprobe = num_shards — the broadcast result;
* with ``--slo``: deadline-driven batch closing (the ``slo`` policy's
  drain-time prediction) misses fewer deadlines than a fixed max-wait
  at every deadline, miss rate falls monotonically as the deadline
  loosens, and high-priority attainment stays >= 95%;
* with ``--autoscale``: offered load above a static replica's capacity
  — the autoscaled pool grows, sheds less and holds a lower p99 than
  the static pool;
* with ``--rebalance``: skewed Zipfian load on a partitioned pool
  saturates the devices owning the popular clusters — migrating hot
  IVF clusters to cold devices (data movement booked on both device
  timelines) holds a lower p99 and a higher goodput than the static
  placement;
* with ``--flash``: the same skewed cell served through a live FTL
  under every device — read disturb accumulates on the Zipfian-hot
  clusters' blocks, refresh GC pauses inflate p99, relocation writes
  amplify beyond the host's, and per-cluster erase counts skew with
  popularity.

Besides the human-readable table, the sweep persists
``benchmarks/results/serving_sweep.json`` for the perf-trajectory
tooling (CI runs with every flag so the artifact carries the full
sweep).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table
from repro.ann import BruteForceIndex, recall_at_k
from repro.core.config import NDSearchConfig
from repro.data.synthetic import clustered_gaussian, split_queries
from repro.obs import SpanTracer
import json

from repro.serving import (
    AutoscalePolicy,
    BatchPolicy,
    FlashConfig,
    MMPPArrivals,
    PoissonArrivals,
    QueryStream,
    RebalancePolicy,
    ServingConfig,
    ServingFrontend,
    ServingTwin,
    build_router,
)
from repro.serving.sharding import PARTITIONED
from repro.sim.pool import run_rows

POLICIES = ("batch", "greedy")
SHARDS = (1, 4)
RATES = (500.0, 20000.0)

#: Bursty-arrival rates for the pipelined-vs-blocking comparison.
PIPELINE_RATES = (10000.0, 40000.0)

#: Shard count and offered rate for the broadcast-vs-selective rows.
PARTITION_SHARDS = 4
PARTITION_RATE = 2000.0

#: High-priority deadlines for the SLO sweep (--slo); the best-effort
#: class gets 4x the budget.  Monotone loosening: the deadline-miss
#: rate must be non-increasing left to right.
SLO_DEADLINES_MS = (2.0, 4.0, 8.0, 16.0)
SLO_RATE = 4000.0
SLO_HIGH_FRAC = 0.25
SLO_MARGIN_S = 3e-4

#: Offered load / pool bounds for the static-vs-autoscaled comparison
#: (--autoscale): far above one replica's capacity with small batches,
#: so the static pool's in-service backlog fills the admission bound.
AUTOSCALE_RATE = 25000.0
AUTOSCALE_MAX_REPLICAS = 4
AUTOSCALE_CAPACITY = 48

#: Skewed partitioned workload for the static-vs-rebalanced comparison
#: (--rebalance): Zipfian popularity + nprobe=1 routing concentrates
#: load on the devices owning the hot clusters.
REBALANCE_RATE = 16000.0
REBALANCE_ZIPF = 1.2
REBALANCE_SHARDS = 4
REBALANCE_CLUSTERS_PER_SHARD = 2
REBALANCE_SLO_S = 4e-3
REBALANCE_POLICY = RebalancePolicy(
    interval_s=2e-3, skew_threshold=0.25, migration_gbps=1.0
)

#: Stateful-flash comparison (--flash): the rebalance sweep's skewed
#: workload, served with and without a live FTL under every device.
#: The disturb threshold is scaled down so refreshes fire at benchmark
#: read volumes the way the real threshold fires at production ones;
#: the 5% hard-decode failure rate is the paper's mid-late-lifetime
#: regime (Fig. 18b sweeps up to 30%).
FLASH_THRESHOLD = 200
FLASH_ECC_PROB = 0.05

#: Event-time window for the observability rerun's metrics time series.
OBS_WINDOW_S = 1e-3

#: Checkpoint window for the incremental what-if rows: the broadcast
#: partitioned cell is fed to a ServingTwin once per process, and all
#: routing what-ifs fork from its checkpoints instead of re-simulating
#: the shared warm prefix.  Rows carry only deterministic fields (no
#: wall clocks), keeping the pooled sweep payload byte-identical to
#: the serial one; the wall-clock speedup gate is the tier-1 test
#: ``test_serving_twin.py::test_null_whatif_beats_scratch_by_5x``.
TWIN_WINDOW_S = 20e-3

CORPUS, DIM, POOL, REQUESTS, K = 800, 16, 128, 400, 10


def _run_cell(
    router, pool, *, arrivals, policy, pipelined, coalesce, zipf=0.0,
    nprobe=None, priorities=(0,), weights=None, slo=None, admission=None,
    autoscale=None, rebalance=None, flash=None, metrics_window_s=None,
    tracer=None,
):
    stream = QueryStream(
        arrivals,
        pool_size=POOL,
        n_requests=REQUESTS,
        k=K,
        zipf_exponent=zipf,
        seed=33,
        priorities=priorities,
        priority_weights=weights,
        slo_s=slo,
    )
    frontend = ServingFrontend(
        router,
        ServingConfig(
            policy=policy,
            cache_capacity=0,  # no cache noise in the sweeps
            pipelined=pipelined,
            coalesce=coalesce,
            nprobe=nprobe,
            admission_capacity=admission,
            autoscale=autoscale,
            rebalance=rebalance,
            flash=flash,
            metrics_window_s=metrics_window_s,
        ),
        tracer=tracer,
    )
    return frontend.run(stream.generate(), pool)


# ---- per-process warm state (shared by serial and pooled rows) ---------
# Every sweep row is a pure function of its spec: the corpus, query
# pool and routers are deterministic builds from pinned seeds, and the
# router build cache (repro.serving.sharding) makes repeated builds of
# the same spec nearly free — so a warm worker that owns a config
# family reuses its indexes across all the rows keyed to it.


@lru_cache(maxsize=1)
def _dataset():
    vectors = clustered_gaussian(CORPUS, DIM, seed=31)
    pool = split_queries(vectors, POOL, seed=32)
    return vectors, pool


def _replicated_router(shards: int):
    vectors, _ = _dataset()
    return build_router(
        vectors, num_shards=shards, config=NDSearchConfig.scaled()
    )


def _partitioned_router(clusters_per_shard: int | None = None):
    vectors, _ = _dataset()
    kwargs = {}
    if clusters_per_shard is not None:
        kwargs["clusters_per_shard"] = clusters_per_shard
    return build_router(
        vectors,
        num_shards=PARTITION_SHARDS,
        config=NDSearchConfig.scaled(),
        mode=PARTITIONED,
        seed=35,
        **kwargs,
    )


def _cpu_spill_router():
    # The CPU host with a spilling DRAM (the billion-scale analogue:
    # the corpus does not fit, every access reads the SSD) has the
    # fattest front stage, so it shows the pipeline overlap most
    # clearly.
    vectors, _ = _dataset()
    config = NDSearchConfig.scaled()
    spill_config = replace(
        config, host=replace(config.host, dram_capacity_bytes=16 * 1024)
    )
    return build_router(
        vectors, num_shards=2, config=spill_config, platform="cpu"
    )


@lru_cache(maxsize=1)
def _partition_reference():
    """Exact ground truth + the replicated pool's offline results (the
    "no partitioning" reference a deployment would compare to)."""
    vectors, pool = _dataset()
    gt, _ = BruteForceIndex(vectors).search_batch(pool, K)
    replicated_ids, _, _ = _replicated_router(1).search_all(pool, K)
    return gt, replicated_ids, recall_at_k(replicated_ids, gt, K)


# ---- sweep rows: one pure function per cell family ---------------------


def _sweep_row(policy: str, shards: int, rate: float) -> dict:
    _, pool = _dataset()
    report = _run_cell(
        _replicated_router(shards),
        pool,
        arrivals=PoissonArrivals(rate),
        policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3, mode=policy),
        pipelined=True,
        coalesce=False,  # uniform pool: nothing to coalesce
    )
    return {
        "policy": policy,
        "shards": shards,
        "rate": rate,
        "qps": report.qps,
        "p50_ms": report.latency_p50_s * 1e3,
        "p99_ms": report.latency_p99_s * 1e3,
        "mean_batch": report.mean_batch_size,
        "util": float(np.mean(report.shard_utilization)),
    }


def _pipeline_row(platform: str, rate: float) -> dict:
    _, pool = _dataset()
    router = (
        _cpu_spill_router() if platform == "cpu" else _replicated_router(1)
    )
    cells = {}
    for mode, pipelined in (("blocking", False), ("pipelined", True)):
        cells[mode] = _run_cell(
            router,
            pool,
            arrivals=MMPPArrivals(rate),
            policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3),
            pipelined=pipelined,
            coalesce=False,
        )
    return {
        "platform": platform,
        "arrivals": "mmpp",
        "rate": rate,
        "qps_blocking": cells["blocking"].qps,
        "qps_pipelined": cells["pipelined"].qps,
        "p99_ms_blocking": cells["blocking"].latency_p99_s * 1e3,
        "p99_ms_pipelined": cells["pipelined"].latency_p99_s * 1e3,
        "qps_gain": (
            cells["pipelined"].qps / cells["blocking"].qps - 1.0
            if cells["blocking"].qps > 0
            else 0.0
        ),
    }


def _partitioned_row(nprobe: int | None) -> dict:
    # IVF nprobe lifted to the device pool: each query fans out only to
    # the nprobe shards whose k-means centroids are nearest.  Recall is
    # measured offline on the query pool, against exact ground truth
    # and against the replicated pool's results.
    _, pool = _dataset()
    part_router = _partitioned_router()
    gt, replicated_ids, recall_replicated = _partition_reference()
    if nprobe is None:
        ids, _, _ = part_router.search_all(pool, K)
    else:
        ids, _, _ = part_router.search_probed(pool, K, nprobe)
    report = _run_cell(
        part_router,
        pool,
        arrivals=PoissonArrivals(PARTITION_RATE),
        policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3),
        pipelined=True,
        coalesce=False,
        nprobe=nprobe,
    )
    return {
        "routing": "broadcast" if nprobe is None else f"nprobe={nprobe}",
        "nprobe": PARTITION_SHARDS if nprobe is None else nprobe,
        "qps": report.qps,
        "p50_ms": report.latency_p50_s * 1e3,
        "p99_ms": report.latency_p99_s * 1e3,
        "probes_per_query": report.mean_probes_per_query,
        "shard_probes": list(report.shard_probe_counts),
        "energy_j": report.energy_j,
        "recall": recall_at_k(ids, gt, K),
        "recall_vs_replicated": recall_at_k(ids, replicated_ids, K),
        "recall_replicated_baseline": recall_replicated,
    }


def _coalesce_row(coalesce: bool) -> dict:
    _, pool = _dataset()
    report = _run_cell(
        _replicated_router(1),
        pool,
        arrivals=MMPPArrivals(20000.0),
        policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3),
        pipelined=True,
        coalesce=coalesce,
        zipf=1.1,
    )
    return {
        "coalesce": coalesce,
        "searched": report.completed,
        "coalesced": report.coalesced,
        "qps": report.qps,
        "p99_ms": report.latency_p99_s * 1e3,
    }


def _observability_row() -> dict:
    # The (batch, 1 shard, high-rate) cell again, now with the span
    # tracer and event-time metrics windows attached.  The hooks are
    # observe-only, so every outcome must match the untraced cell
    # exactly (asserted in the bench test); the full report travels
    # through :meth:`ServingReport.to_dict` and the Chrome trace is
    # persisted as a separate CI artifact by the bench test.
    _, pool = _dataset()
    tracer = SpanTracer()
    obs_report = _run_cell(
        _replicated_router(1),
        pool,
        arrivals=PoissonArrivals(RATES[-1]),
        policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3, mode="batch"),
        pipelined=True,
        coalesce=False,
        metrics_window_s=OBS_WINDOW_S,
        tracer=tracer,
    )
    return {
        "report": obs_report.to_dict(),
        "trace": tracer.to_json(),
        "trace_events": len(tracer),
    }


def _slo_row(deadline_ms: float) -> dict:
    # Two priority classes share the stream (the high class carries the
    # tight deadline, the best-effort class 4x the budget); each
    # deadline runs under the slo policy (drain-time-predicted closes)
    # and under the classic max-wait policy, same stream and pool.
    _, pool = _dataset()
    slo_spec = {1: deadline_ms * 1e-3, 0: 4 * deadline_ms * 1e-3}
    cells = {}
    for mode in ("slo", "batch"):
        # The margin absorbs service-model error (per-query trace
        # variance around the affine fit); it only means anything to
        # the slo policy.
        cells[mode] = _run_cell(
            _replicated_router(1),
            pool,
            arrivals=PoissonArrivals(SLO_RATE),
            policy=BatchPolicy(
                max_batch_size=32, max_wait_s=20e-3, mode=mode,
                slo_margin_s=SLO_MARGIN_S if mode == "slo" else 0.0,
            ),
            pipelined=True,
            coalesce=False,
            priorities=(0, 1),
            weights=(1.0 - SLO_HIGH_FRAC, SLO_HIGH_FRAC),
            slo=slo_spec,
        )
    slo_report, batch_report = cells["slo"], cells["batch"]
    return {
        "deadline_ms": deadline_ms,
        "miss_rate_slo": slo_report.deadline_miss_rate,
        "miss_rate_max_wait": batch_report.deadline_miss_rate,
        "attainment_high_slo": slo_report.priority_stats[1]["attainment"],
        "attainment_high_max_wait":
            batch_report.priority_stats[1]["attainment"],
        "high_served_slo": slo_report.priority_stats[1]["served"],
        "high_shed_slo": slo_report.priority_stats[1]["shed"],
        "goodput_slo": slo_report.goodput_qps,
        "goodput_max_wait": batch_report.goodput_qps,
        "p99_ms_slo": slo_report.latency_p99_s * 1e3,
        "p99_ms_max_wait": batch_report.latency_p99_s * 1e3,
        "mean_batch_slo": slo_report.mean_batch_size,
        "mean_batch_max_wait": batch_report.mean_batch_size,
    }


def _autoscale_row(scaled: bool) -> dict:
    _, pool = _dataset()
    policy = (
        AutoscalePolicy(
            min_replicas=1,
            max_replicas=AUTOSCALE_MAX_REPLICAS,
            interval_s=2e-3,
            high_utilization=0.7,
            high_queue_depth=8.0,
        )
        if scaled
        else None
    )
    report = _run_cell(
        _replicated_router(1),
        pool,
        arrivals=PoissonArrivals(AUTOSCALE_RATE),
        policy=BatchPolicy(max_batch_size=4, max_wait_s=2e-3),
        pipelined=True,
        coalesce=False,
        admission=AUTOSCALE_CAPACITY,
        autoscale=policy,
    )
    return {
        "pool": "autoscaled" if scaled else "static",
        "qps": report.qps,
        "shed": report.shed,
        "shed_rate": report.shed_rate,
        "p99_ms": report.latency_p99_s * 1e3,
        "mean_queue_depth": report.mean_queue_depth,
        "scale_events": list(report.scale_events),
        "replicas_final": report.replicas_final,
    }


def _rebalance_row(moved: bool) -> dict:
    # A skewed Zipfian stream routed with nprobe=1 piles onto the
    # devices owning the popular clusters; the rebalancer migrates hot
    # clusters to cold devices.  Each run builds a fresh pool:
    # migration mutates the cluster placement.
    _, pool = _dataset()
    router = _partitioned_router(
        clusters_per_shard=REBALANCE_CLUSTERS_PER_SHARD
    )
    report = _run_cell(
        router,
        pool,
        arrivals=PoissonArrivals(REBALANCE_RATE),
        policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
        pipelined=True,
        coalesce=False,
        zipf=REBALANCE_ZIPF,
        nprobe=1,
        slo=REBALANCE_SLO_S,
        rebalance=REBALANCE_POLICY if moved else None,
    )
    return {
        "placement": "rebalanced" if moved else "static",
        "qps": report.qps,
        "goodput": report.goodput_qps,
        "p50_ms": report.latency_p50_s * 1e3,
        "p99_ms": report.latency_p99_s * 1e3,
        "miss_rate": report.deadline_miss_rate,
        "util": list(report.shard_utilization),
        "max_util": max(report.shard_utilization),
        "migrations": list(report.rebalance_events),
        "bytes_moved": sum(e["bytes"] for e in report.rebalance_events),
        "cluster_map_final": list(report.cluster_map_final),
    }


def _flash_row(enabled: bool) -> dict:
    # The rebalance sweep's skewed workload again (partitioned pool,
    # Zipfian stream, nprobe=1), now with a live FTL + ECC under every
    # device: cluster reads accumulate read disturb, hot blocks cross
    # the threshold and refresh (a GC pause booked on the device), and
    # LDPC retry storms jitter individual reads.  The flash-off leg is
    # the same cell with ``flash=None`` — the parity baseline.
    _, pool = _dataset()
    router = _partitioned_router(
        clusters_per_shard=REBALANCE_CLUSTERS_PER_SHARD
    )
    report = _run_cell(
        router,
        pool,
        arrivals=PoissonArrivals(REBALANCE_RATE),
        policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
        pipelined=True,
        coalesce=False,
        zipf=REBALANCE_ZIPF,
        nprobe=1,
        slo=REBALANCE_SLO_S,
        flash=FlashConfig(
            read_disturb_threshold=FLASH_THRESHOLD,
            ecc_hard_failure_prob=FLASH_ECC_PROB,
        )
        if enabled
        else None,
    )
    row = {
        "storage": "flash" if enabled else "ideal",
        "qps": report.qps,
        "p50_ms": report.latency_p50_s * 1e3,
        "p99_ms": report.latency_p99_s * 1e3,
        "miss_rate": report.deadline_miss_rate,
    }
    if report.flash is not None:
        row.update(
            page_reads=report.flash["page_reads"],
            ecc_soft_decodes=report.flash["ecc_soft_decodes"],
            refreshes=report.flash["refreshes"],
            total_erases=report.flash["total_erases"],
            write_amplification=report.flash["write_amplification"],
            cluster_page_reads=report.flash["cluster_page_reads"],
            cluster_erases=report.flash["cluster_erases"],
        )
    return row


@lru_cache(maxsize=1)
def _twin_base():
    """The shared warm prefix: the broadcast partitioned cell fed to a
    twin window by window.  Built once per process; every what-if row
    forks from its checkpoints (warm-worker affinity keys the twin
    rows to the ``partitioned`` family, so pooled runs share it too).
    """
    _, pool = _dataset()
    twin = ServingTwin(
        _partitioned_router,
        ServingConfig(
            policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3),
            cache_capacity=0,
            coalesce=False,
        ),
        pool,
        window_s=TWIN_WINDOW_S,
        calibrate_k=K,
    )
    twin.ingest(
        QueryStream(
            PoissonArrivals(PARTITION_RATE),
            pool_size=POOL,
            n_requests=REQUESTS,
            k=K,
            zipf_exponent=0.0,
            seed=33,
        ).generate()
    )
    return twin, twin.finish()


def _twin_row(nprobe) -> dict:
    # One what-if fork off the shared warm prefix: re-simulate only
    # the final window under the routing delta.  The no-delta fork
    # ("base") is compared byte for byte against a from-scratch run of
    # the same cell — the determinism contract that makes answering
    # what-ifs from checkpoints (and caching the answers) honest.
    twin, base_report = _twin_base()
    answer = twin.whatif() if nprobe == "keep" else twin.whatif(nprobe=nprobe)
    row = {
        "routing": "base" if nprobe == "keep" else f"nprobe={nprobe}",
        "qps": answer.qps,
        "p50_ms": answer.latency_p50_s * 1e3,
        "p99_ms": answer.latency_p99_s * 1e3,
        "searched": answer.completed,
        "probes_per_query": answer.mean_probes_per_query,
        "cache_entries": len(twin.cache),
        "checkpoints": len(twin.checkpoints),
    }
    if nprobe == "keep":
        _, pool = _dataset()
        scratch = _run_cell(
            _partitioned_router(),
            pool,
            arrivals=PoissonArrivals(PARTITION_RATE),
            policy=BatchPolicy(max_batch_size=32, max_wait_s=2e-3),
            pipelined=True,
            coalesce=False,
        )
        row["identical"] = (
            json.dumps(answer.to_dict(), sort_keys=True)
            == json.dumps(scratch.to_dict(), sort_keys=True)
        )
        row["base_matches_live"] = (
            json.dumps(
                {k: v for k, v in base_report.to_dict().items() if k != "twin"},
                sort_keys=True,
            )
            == json.dumps(
                {k: v for k, v in scratch.to_dict().items() if k != "twin"},
                sort_keys=True,
            )
        )
    return row


_SECTION_ROWS = {
    "sweep": _sweep_row,
    "pipeline": _pipeline_row,
    "partitioned": _partitioned_row,
    "coalescing": _coalesce_row,
    "observability": _observability_row,
    "slo": _slo_row,
    "autoscale": _autoscale_row,
    "rebalance": _rebalance_row,
    "flash": _flash_row,
    "twin": _twin_row,
}


def bench_row(section: str, spec: dict) -> dict:
    """Pool task: run one sweep row (a pure function of its spec)."""
    return _SECTION_ROWS[section](**spec)


def _row_specs(
    slo: bool, autoscale: bool, rebalance: bool, flash: bool
) -> list[tuple[str, str, dict]]:
    """The sweep matrix as ``(affinity_key, section, spec)`` rows, in
    the order the sections assemble.

    The affinity key names the router family a row needs, so a warm
    worker that owns e.g. the partitioned indexes serves every row
    built on them.
    """
    rows: list[tuple[str, str, dict]] = []
    for policy_mode in POLICIES:
        for shards in SHARDS:
            for rate in RATES:
                rows.append((
                    f"replicated-x{shards}", "sweep",
                    {"policy": policy_mode, "shards": shards, "rate": rate},
                ))
    for platform in ("cpu", "ndsearch"):
        key = "cpu-spill" if platform == "cpu" else "replicated-x1"
        for rate in PIPELINE_RATES:
            rows.append(
                (key, "pipeline", {"platform": platform, "rate": rate})
            )
    for nprobe in (None, 1, 2, PARTITION_SHARDS):
        rows.append(("partitioned", "partitioned", {"nprobe": nprobe}))
    for coalesce in (False, True):
        rows.append(("replicated-x1", "coalescing", {"coalesce": coalesce}))
    rows.append(("replicated-x1", "observability", {}))
    for nprobe in ("keep", 1, 2):
        rows.append(("partitioned", "twin", {"nprobe": nprobe}))
    if slo:
        for deadline_ms in SLO_DEADLINES_MS:
            rows.append(
                ("replicated-x1", "slo", {"deadline_ms": deadline_ms})
            )
    if autoscale:
        for scaled in (False, True):
            rows.append(("replicated-x1", "autoscale", {"scaled": scaled}))
    if rebalance:
        for moved in (False, True):
            rows.append(("partitioned", "rebalance", {"moved": moved}))
    if flash:
        for enabled in (False, True):
            rows.append(("partitioned", "flash", {"enabled": enabled}))
    return rows


def collect(
    slo: bool = False, autoscale: bool = False, rebalance: bool = False,
    flash: bool = False, workers: int = 0,
) -> dict:
    """Run the sweep matrix; pooled over ``workers`` warm subprocesses
    when positive, serially in-process otherwise.

    Either way the rows are the same pure functions of the same specs
    and the results merge in row order, so the pooled payload is
    byte-identical to the serial one.
    """
    specs = _row_specs(slo, autoscale, rebalance, flash)
    outputs = run_rows(
        [
            (key, "bench_serving:bench_row", {"section": section, "spec": spec})
            for key, section, spec in specs
        ],
        workers,
        path=[Path(__file__).resolve().parent],
    )
    results: dict = {
        "sweep": [],
        "pipeline": [],
        "partitioned": [],
        "coalescing": [],
        "observability": None,
        "twin": [],
    }
    for (_, section, _spec), output in zip(specs, outputs):
        if section == "observability":
            results["observability"] = output
        else:
            results.setdefault(section, []).append(output)
    return results


def run(results: dict | None = None) -> str:
    results = results or collect()
    sweep_table = format_table(
        ["policy", "shards", "rate", "QPS", "p50 ms", "p99 ms", "batch", "util"],
        [
            [
                r["policy"],
                r["shards"],
                f"{r['rate']:g}",
                f"{r['qps']:,.0f}",
                f"{r['p50_ms']:.3f}",
                f"{r['p99_ms']:.3f}",
                f"{r['mean_batch']:.1f}",
                f"{r['util']:.0%}",
            ]
            for r in results["sweep"]
        ],
        title="serving sweep: policy x shards x arrival rate (replicated)",
    )
    pipeline_table = format_table(
        ["platform", "rate", "QPS blk", "QPS pipe", "p99 blk", "p99 pipe", "gain"],
        [
            [
                r["platform"],
                f"{r['rate']:g}",
                f"{r['qps_blocking']:,.0f}",
                f"{r['qps_pipelined']:,.0f}",
                f"{r['p99_ms_blocking']:.3f}",
                f"{r['p99_ms_pipelined']:.3f}",
                f"{r['qps_gain']:+.1%}",
            ]
            for r in results["pipeline"]
        ],
        title="pipelined vs blocking shard devices (bursty MMPP arrivals)",
    )
    partition_table = format_table(
        ["routing", "QPS", "p50 ms", "p99 ms", "probes/q", "energy J",
         "recall", "vs repl"],
        [
            [
                r["routing"],
                f"{r['qps']:,.0f}",
                f"{r['p50_ms']:.3f}",
                f"{r['p99_ms']:.3f}",
                f"{r['probes_per_query']:.2f}",
                f"{r['energy_j']:.3g}",
                f"{r['recall']:.4f}",
                f"{r['recall_vs_replicated']:.4f}",
            ]
            for r in results["partitioned"]
        ],
        title=(
            f"partitioned x{PARTITION_SHARDS}: broadcast vs selective probing "
            f"(replicated baseline recall "
            f"{results['partitioned'][0]['recall_replicated_baseline']:.4f})"
        ),
    )
    tables = [sweep_table, pipeline_table, partition_table]
    if results.get("twin"):
        tables.append(
            format_table(
                ["fork", "QPS", "p50 ms", "p99 ms", "probes/q", "searched",
                 "note"],
                [
                    [
                        r["routing"],
                        f"{r['qps']:,.0f}",
                        f"{r['p50_ms']:.3f}",
                        f"{r['p99_ms']:.3f}",
                        f"{r['probes_per_query']:.2f}",
                        r["searched"],
                        (
                            "byte-identical to scratch"
                            if r.get("identical")
                            else "final window re-routed"
                        ),
                    ]
                    for r in results["twin"]
                ],
                title=(
                    f"incremental what-if forks off one warm prefix "
                    f"(twin, {TWIN_WINDOW_S * 1e3:g} ms checkpoints, "
                    f"{results['twin'][0]['checkpoints']} snapshots)"
                ),
            )
        )
    if "slo" in results:
        tables.append(
            format_table(
                ["deadline ms", "miss slo", "miss wait", "hi attain slo",
                 "hi attain wait", "goodput slo", "p99 slo", "p99 wait",
                 "batch slo"],
                [
                    [
                        f"{r['deadline_ms']:g}",
                        f"{r['miss_rate_slo']:.1%}",
                        f"{r['miss_rate_max_wait']:.1%}",
                        f"{r['attainment_high_slo']:.1%}",
                        f"{r['attainment_high_max_wait']:.1%}",
                        f"{r['goodput_slo']:,.0f}",
                        f"{r['p99_ms_slo']:.3f}",
                        f"{r['p99_ms_max_wait']:.3f}",
                        f"{r['mean_batch_slo']:.1f}",
                    ]
                    for r in results["slo"]
                ],
                title=(
                    f"slo policy vs max-wait @ {SLO_RATE:g} QPS "
                    f"(high-priority deadline sweep, best-effort = 4x)"
                ),
            )
        )
    if "rebalance" in results:
        tables.append(
            format_table(
                ["placement", "QPS", "goodput", "p99 ms", "miss", "max util",
                 "migr", "MB moved"],
                [
                    [
                        r["placement"],
                        f"{r['qps']:,.0f}",
                        f"{r['goodput']:,.0f}",
                        f"{r['p99_ms']:.3f}",
                        f"{r['miss_rate']:.1%}",
                        f"{r['max_util']:.0%}",
                        len(r["migrations"]),
                        f"{r['bytes_moved'] / 1e6:.2f}",
                    ]
                    for r in results["rebalance"]
                ],
                title=(
                    f"static vs rebalanced partitioned x{REBALANCE_SHARDS} "
                    f"@ {REBALANCE_RATE:g} QPS (zipf {REBALANCE_ZIPF:g}, "
                    f"nprobe 1, "
                    f"{REBALANCE_CLUSTERS_PER_SHARD} clusters/shard)"
                ),
            )
        )
    if "flash" in results:
        tables.append(_flash_table(results["flash"]))
    if "autoscale" in results:
        tables.append(
            format_table(
                ["pool", "QPS", "shed", "shed rate", "p99 ms", "queue",
                 "events", "replicas"],
                [
                    [
                        r["pool"],
                        f"{r['qps']:,.0f}",
                        r["shed"],
                        f"{r['shed_rate']:.1%}",
                        f"{r['p99_ms']:.3f}",
                        f"{r['mean_queue_depth']:.1f}",
                        len(r["scale_events"]),
                        r["replicas_final"],
                    ]
                    for r in results["autoscale"]
                ],
                title=(
                    f"static vs autoscaled pool @ {AUTOSCALE_RATE:g} QPS "
                    f"(capacity {AUTOSCALE_CAPACITY}, "
                    f"max {AUTOSCALE_MAX_REPLICAS} replicas)"
                ),
            )
        )
    return "\n\n".join(tables)


def _flash_table(rows: list[dict]) -> str:
    return format_table(
        ["storage", "QPS", "p50 ms", "p99 ms", "miss", "refresh",
         "erases", "WA", "ECC soft"],
        [
            [
                r["storage"],
                f"{r['qps']:,.0f}",
                f"{r['p50_ms']:.3f}",
                f"{r['p99_ms']:.3f}",
                f"{r['miss_rate']:.1%}",
                r.get("refreshes", "-"),
                r.get("total_erases", "-"),
                f"{r['write_amplification']:.2f}"
                if "write_amplification" in r
                else "-",
                r.get("ecc_soft_decodes", "-"),
            ]
            for r in rows
        ],
        title=(
            f"ideal vs stateful flash, partitioned "
            f"x{REBALANCE_SHARDS} @ {REBALANCE_RATE:g} QPS "
            f"(zipf {REBALANCE_ZIPF:g}, nprobe 1, disturb "
            f"threshold {FLASH_THRESHOLD})"
        ),
    )


def check_flash_rows(rows: list[dict]) -> None:
    """The --flash acceptance assertions, shared by the pytest sweep
    and the standalone tier-1 runner: the same skewed cell through a
    live FTL pays for its reads — GC refresh pauses inflate the tail,
    hot clusters wear their blocks harder than cold ones, and
    relocation writes amplify beyond the host's."""
    ideal, stateful = rows
    assert ideal["storage"] == "ideal"
    assert stateful["storage"] == "flash"
    assert "refreshes" not in ideal  # flash-off leg carries no state
    assert stateful["refreshes"] > 0, stateful
    assert stateful["p99_ms"] > ideal["p99_ms"], (ideal, stateful)
    assert stateful["ecc_soft_decodes"] > 0
    assert stateful["write_amplification"] > 1.0, stateful
    reads = stateful["cluster_page_reads"]
    erases = stateful["cluster_erases"]
    hot = max(reads, key=reads.get)
    cold = min(reads, key=reads.get)
    # Zipfian skew shows up as wear skew: the most-read cluster
    # erased its blocks more than the least-read one.
    assert reads[hot] > reads[cold]
    assert erases.get(hot, 0) > erases.get(cold, 0), (reads, erases)


def test_bench_serving(benchmark, record_table, record_json, request):
    slo = request.config.getoption("--slo")
    autoscale = request.config.getoption("--autoscale")
    rebalance = request.config.getoption("--rebalance")
    flash = request.config.getoption("--flash")
    workers = request.config.getoption("--workers")
    results = benchmark.pedantic(
        lambda: collect(
            slo=slo, autoscale=autoscale, rebalance=rebalance,
            flash=flash, workers=workers,
        ),
        rounds=1, iterations=1,
    )
    # The Chrome trace goes to its own artifact (it is a standalone
    # Perfetto-loadable file, and it would bloat the sweep JSON).
    trace = results["observability"].pop("trace")
    record_json("serving_trace", trace)
    record_table("serving_sweep", run(results))
    record_json("serving_sweep", results)
    rows = results["sweep"]

    def cell(policy, shards, rate):
        return next(
            r
            for r in rows
            if r["policy"] == policy and r["shards"] == shards and r["rate"] == rate
        )

    hi = RATES[-1]
    # Batching forms real batches under load; greedy stays near 1.
    assert cell("batch", 1, hi)["mean_batch"] > 2.0
    assert cell("greedy", 1, hi)["mean_batch"] == 1.0
    # Batching sustains at least greedy's throughput at high load.
    assert cell("batch", 1, hi)["qps"] >= 0.95 * cell("greedy", 1, hi)["qps"]
    # More shards never hurt sustained throughput under overload.
    assert cell("batch", 4, hi)["qps"] >= cell("batch", 1, hi)["qps"]
    # Load fills batches and devices: both grow with the offered rate.
    assert cell("batch", 1, hi)["mean_batch"] > cell("batch", 1, RATES[0])["mean_batch"]
    assert cell("batch", 1, hi)["util"] > cell("batch", 1, RATES[0])["util"]
    # Spreading the same load over 4 replicas relaxes per-device pressure.
    assert cell("batch", 4, hi)["util"] <= cell("batch", 1, hi)["util"]

    # Pipelining never hurts, and strictly wins (QPS up, p99 not worse)
    # on at least one bursty configuration.
    for r in results["pipeline"]:
        assert r["qps_pipelined"] >= r["qps_blocking"] * (1 - 1e-9), r
    assert any(
        r["qps_pipelined"] > r["qps_blocking"]
        and r["p99_ms_pipelined"] <= r["p99_ms_blocking"] * (1 + 1e-9)
        for r in results["pipeline"]
    ), results["pipeline"]

    # Selective probing: nprobe = num_shards reproduces broadcast
    # exactly; smaller nprobe strictly reduces per-query device work
    # while recall degrades gracefully and monotonically.
    part = {r["routing"]: r for r in results["partitioned"]}
    broadcast = part["broadcast"]
    full = part[f"nprobe={PARTITION_SHARDS}"]
    assert full["qps"] == broadcast["qps"]
    assert full["p99_ms"] == broadcast["p99_ms"]
    assert full["recall"] == broadcast["recall"]
    assert broadcast["probes_per_query"] == PARTITION_SHARDS
    assert part["nprobe=1"]["probes_per_query"] == 1.0
    assert part["nprobe=1"]["energy_j"] < broadcast["energy_j"]
    by_nprobe = sorted(
        (r for r in results["partitioned"] if r["routing"] != "broadcast"),
        key=lambda r: r["nprobe"],
    )
    for lo, hi in zip(by_nprobe[:-1], by_nprobe[1:]):
        assert lo["recall_vs_replicated"] <= hi["recall_vs_replicated"] + 1e-9
        assert lo["probes_per_query"] < hi["probes_per_query"]

    # Coalescing piggybacks duplicate in-flight queries: fewer searches
    # for the same served count.
    off, on = results["coalescing"]
    assert on["coalesced"] > 0
    assert on["searched"] < off["searched"]

    # Observability rerun: tracing + windowed metrics change nothing
    # about the run itself (observe-only hooks), the trace is a valid
    # Chrome trace-event payload, and the time series tallies with the
    # report it came from.
    obs = results["observability"]["report"]
    untraced = cell("batch", 1, RATES[-1])
    assert obs["qps"] == untraced["qps"]
    assert obs["latency_p99_s"] * 1e3 == untraced["p99_ms"]
    assert obs["counters"]["loop_events_total"] > 0
    assert obs["counters"]["loop_events_Arrival"] == REQUESTS
    series = obs["timeseries"]
    assert series["window_s"] == OBS_WINDOW_S
    windows = series["windows"]
    assert sum(w["counters"]["completions"] for w in windows) == obs["completed"]
    assert sum(w["counters"]["arrivals"] for w in windows) == REQUESTS
    assert results["observability"]["trace_events"] == len(trace["traceEvents"])
    assert trace["traceEvents"], "traced run recorded no events"
    for event in trace["traceEvents"]:
        assert "ph" in event and "name" in event

    # Incremental what-if forks (twin): the no-delta fork off the last
    # checkpoint reproduces the from-scratch broadcast cell byte for
    # byte, the base (windowed, checkpointed) run matches the live run
    # modulo the twin counters, and re-routed forks actually change
    # the suffix's routing without touching the shared prefix.
    twin_rows = {r["routing"]: r for r in results["twin"]}
    assert twin_rows["base"]["identical"], twin_rows["base"]
    assert twin_rows["base"]["base_matches_live"], twin_rows["base"]
    assert twin_rows["base"]["checkpoints"] > 1
    assert (
        twin_rows["nprobe=1"]["probes_per_query"]
        < twin_rows["base"]["probes_per_query"]
    )
    assert (
        twin_rows["nprobe=1"]["probes_per_query"]
        < twin_rows["nprobe=2"]["probes_per_query"]
    )

    # SLO sweep (--slo): loosening the deadline never raises the miss
    # rate, the slo policy keeps >= 95% high-priority attainment, and
    # it never misses more than the fixed max-wait policy it replaces.
    if "slo" in results:
        slo_rows = results["slo"]
        for tight, loose in zip(slo_rows[:-1], slo_rows[1:]):
            assert loose["miss_rate_slo"] <= tight["miss_rate_slo"] + 1e-9, (
                tight, loose,
            )
        for r in slo_rows:
            # Attainment must be earned, not vacuous: the high class
            # actually gets served, and nearly all of it on time.
            assert r["high_served_slo"] > 0, r
            assert r["high_shed_slo"] == 0, r
            assert r["attainment_high_slo"] >= 0.95, r
            assert r["miss_rate_slo"] <= r["miss_rate_max_wait"] + 1e-9, r

    # Autoscaling (--autoscale): above a static replica's capacity the
    # scaled pool sheds less and holds a lower p99.
    if "autoscale" in results:
        static, scaled = results["autoscale"]
        assert static["pool"] == "static" and scaled["pool"] == "autoscaled"
        assert static["shed"] > 0
        assert scaled["shed"] < static["shed"]
        assert scaled["p99_ms"] < static["p99_ms"]
        assert scaled["scale_events"]
        assert scaled["replicas_final"] > 1

    # Rebalancing (--rebalance): under skewed Zipfian load the
    # migrated placement beats the static one on tail latency and
    # on-time throughput, by unloading the hottest device.
    if "rebalance" in results:
        static, moved = results["rebalance"]
        assert static["placement"] == "static"
        assert moved["placement"] == "rebalanced"
        assert moved["migrations"], "skew never triggered a migration"
        assert moved["bytes_moved"] > 0
        assert moved["p99_ms"] < static["p99_ms"], (static, moved)
        assert moved["goodput"] > static["goodput"], (static, moved)
        assert moved["max_util"] < static["max_util"]
        # The log replays onto the final placement (atomic commits).
        placement = [
            c % REBALANCE_SHARDS
            for c in range(REBALANCE_SHARDS * REBALANCE_CLUSTERS_PER_SHARD)
        ]
        for event in moved["migrations"]:
            assert placement[event["cluster"]] == event["source"]
            placement[event["cluster"]] = event["dest"]
        assert placement == moved["cluster_map_final"]

    # Stateful flash (--flash): GC pauses shape the tail, wear skew
    # follows read skew — the same assertions the standalone tier-1
    # runner (`python benchmarks/bench_serving.py`) enforces.
    if "flash" in results:
        check_flash_rows(results["flash"])


def main(argv: list[str] | None = None) -> int:
    """Standalone flash sweep for tier-1 CI (no pytest-benchmark
    needed): run the ideal-vs-stateful-flash rows, assert the
    acceptance shape (GC-pause p99 inflation, erase skew following
    read skew, WA > 1) and write the wear/GC stats JSON artifact."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Run the ideal-vs-stateful-flash serving rows and "
                    "write the wear/GC stats.",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent / "results" / "flash_wear.json",
        help="wear/GC stats output path "
             "(default benchmarks/results/flash_wear.json)",
    )
    args = parser.parse_args(argv)
    rows = [_flash_row(enabled=False), _flash_row(enabled=True)]
    print(_flash_table(rows))
    check_flash_rows(rows)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"\nOK: GC pauses inflate p99, erase skew follows read skew; "
          f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
