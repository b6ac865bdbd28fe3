"""Serving sweep: batch policy x shard count x arrival rate, plus the
pipelined-vs-blocking device comparison.

The online analogue of Figs. 13/19: the same frontend, stream seed and
corpus across every cell, varying only the batching policy, the size of
the replicated device pool and the offered load.  Every cell is a
:data:`repro.serving.scenario.SCENARIOS` entry or a
``dataclasses.replace`` of one.  Expected shape:

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
* deadline-driven batch closing (the ``slo`` policy's drain-time
  prediction) misses fewer deadlines than a fixed max-wait at every
  deadline, miss rate falls monotonically as the deadline loosens,
  and high-priority attainment stays >= 95%;
* offered load above a static replica's capacity — the autoscaled
  pool grows, sheds less and holds a lower p99 than the static pool;
* skewed Zipfian load on a partitioned pool saturates the devices
  owning the popular clusters — migrating hot IVF clusters to cold
  devices (data movement booked on both device timelines) holds a
  lower p99 and a higher goodput than the static placement;
* the same skewed cell served through a live FTL under every device —
  read disturb accumulates on the Zipfian-hot clusters' blocks,
  refresh GC pauses inflate p99, relocation writes amplify beyond the
  host's, and per-cluster erase counts skew with popularity.

Besides the human-readable table, the sweep persists
``benchmarks/results/serving_sweep.json``, which CI uploads.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table
from repro.ann import BruteForceIndex, recall_at_k
from repro.obs import SpanTracer
from repro.serving import (
    BatchPolicy,
    MMPPArrivals,
    PoissonArrivals,
    RebalancePolicy,
    ServingTwin,
)
from repro.serving.scenario import SCENARIOS

POLICIES = ("batch", "greedy")
SHARDS = (1, 4)
RATES = (500.0, 20000.0)

#: Bursty-arrival rates for the pipelined-vs-blocking comparison.
PIPELINE_RATES = (10000.0, 40000.0)

#: High-priority deadlines for the SLO sweep; the best-effort class
#: gets 4x the budget.  Monotone loosening: the deadline-miss rate must
#: be non-increasing left to right.
SLO_DEADLINES_MS = (2.0, 4.0, 8.0, 16.0)

REBALANCE_POLICY = RebalancePolicy(
    interval_s=2e-3, skew_threshold=0.25, migration_gbps=1.0
)

#: Event-time window for the observability rerun's metrics time series.
OBS_WINDOW_S = 1e-3

#: Checkpoint window for the incremental what-if rows: the broadcast
#: partitioned cell is fed to a ServingTwin once per process, and all
#: routing what-ifs fork from its checkpoints instead of re-simulating
#: the shared warm prefix.  Rows carry only deterministic fields (no
#: wall clocks); the wall-clock speedup gate is the tier-1 test
#: ``test_serving_twin.py::test_null_whatif_beats_scratch_by_5x``.
TWIN_WINDOW_S = 20e-3

#: The registry cells the sections vary (see repro.serving.scenario).
HI = SCENARIOS["batch-x1-hi"]
PARTITIONED = SCENARIOS["partitioned-broadcast"]
SKEWED = SCENARIOS["partitioned-skewed-flash"]
AUTOSCALED = SCENARIOS["autoscale-overload"]


def _serving(scenario, **changes):
    """``scenario`` with the given ``ServingConfig`` fields changed."""
    return replace(scenario, serving=replace(scenario.serving, **changes))


@lru_cache(maxsize=1)
def _partition_reference():
    """Exact ground truth + the replicated pool's offline results (the
    "no partitioning" reference a deployment would compare to)."""
    vectors, pool = HI.vectors_and_pool()
    gt, _ = BruteForceIndex(vectors).search_batch(pool, HI.k)
    replicated_ids, _, _ = HI.router().search_all(pool, HI.k)
    return gt, replicated_ids, recall_at_k(replicated_ids, gt, HI.k)


# ---- sweep rows: one pure function per cell family ---------------------
# Every sweep row is a pure function of its arguments: the corpus,
# query pool and routers are deterministic builds from pinned seeds,
# and the router build cache (repro.serving.sharding) makes repeated
# builds of the same spec nearly free across rows.


def _sweep_row(policy: str, shards: int, rate: float) -> dict:
    report, _ = replace(
        _serving(HI, policy=BatchPolicy(mode=policy)),
        num_shards=shards,
        arrivals=PoissonArrivals(rate),
    ).run()
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
    # The CPU host with a spilling DRAM (the billion-scale analogue:
    # the corpus does not fit, every access reads the SSD) has the
    # fattest front stage, so it shows the pipeline overlap most
    # clearly.
    name = (
        "cpu-spill-pipelined-bursty" if platform == "cpu"
        else "pipelined-x1-bursty"
    )
    cell = replace(SCENARIOS[name], arrivals=MMPPArrivals(rate))
    blocking, _ = _serving(cell, pipelined=False).run()
    pipelined, _ = cell.run()
    return {
        "platform": platform,
        "arrivals": "mmpp",
        "rate": rate,
        "qps_blocking": blocking.qps,
        "qps_pipelined": pipelined.qps,
        "p99_ms_blocking": blocking.latency_p99_s * 1e3,
        "p99_ms_pipelined": pipelined.latency_p99_s * 1e3,
        "qps_gain": (
            pipelined.qps / blocking.qps - 1.0 if blocking.qps > 0 else 0.0
        ),
    }


def _partitioned_row(nprobe: int | None) -> dict:
    # IVF nprobe lifted to the device pool: each query fans out only to
    # the nprobe shards whose k-means centroids are nearest.  Recall is
    # measured offline on the query pool, against exact ground truth
    # and against the replicated pool's results.
    cell = _serving(PARTITIONED, nprobe=nprobe)
    _, pool = cell.vectors_and_pool()
    router = cell.router()
    gt, replicated_ids, recall_replicated = _partition_reference()
    if nprobe is None:
        ids, _, _ = router.search_all(pool, cell.k)
    else:
        ids, _, _ = router.search_probed(pool, cell.k, nprobe)
    report, _ = cell.run()
    return {
        "routing": "broadcast" if nprobe is None else f"nprobe={nprobe}",
        "nprobe": cell.num_shards if nprobe is None else nprobe,
        "qps": report.qps,
        "p50_ms": report.latency_p50_s * 1e3,
        "p99_ms": report.latency_p99_s * 1e3,
        "probes_per_query": report.mean_probes_per_query,
        "shard_probes": list(report.shard_probe_counts),
        "energy_j": report.energy_j,
        "recall": recall_at_k(ids, gt, cell.k),
        "recall_vs_replicated": recall_at_k(ids, replicated_ids, cell.k),
        "recall_replicated_baseline": recall_replicated,
    }


def _coalesce_row(coalesce: bool) -> dict:
    report, _ = _serving(
        SCENARIOS["coalesce-zipf-bursty"], coalesce=coalesce
    ).run()
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
    tracer = SpanTracer()
    report, _ = _serving(HI, metrics_window_s=OBS_WINDOW_S).run(tracer)
    return {
        "report": report.to_dict(),
        "trace": tracer.to_json(),
        "trace_events": len(tracer),
    }


def _slo_row(deadline_ms: float) -> dict:
    # Two priority classes share the stream (the high class carries the
    # tight deadline, the best-effort class 4x the budget); each
    # deadline runs under the slo policy (drain-time-predicted closes,
    # with a margin absorbing service-model error) and under the
    # classic max-wait policy, same stream and pool.
    slo_s = {1: deadline_ms * 1e-3, 0: 4 * deadline_ms * 1e-3}
    slo_report, _ = replace(SCENARIOS["slo-deadline-4ms"], slo_s=slo_s).run()
    batch_report, _ = replace(
        SCENARIOS["maxwait-deadline-4ms"], slo_s=slo_s
    ).run()
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
    report, _ = (AUTOSCALED if scaled else SCENARIOS["static-overload"]).run()
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
    # The skewed cell on ideal storage; the rebalancer migrates hot
    # clusters to cold devices.  Every run builds a fresh pool:
    # migration mutates the cluster placement.
    report, _ = _serving(
        SKEWED, flash=None, rebalance=REBALANCE_POLICY if moved else None
    ).run()
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
    # The skewed cell with a live FTL + ECC under every device: cluster
    # reads accumulate read disturb, hot blocks cross the threshold and
    # refresh (a GC pause booked on the device), and LDPC retry storms
    # jitter individual reads.  The flash-off leg is the same cell with
    # ``flash=None`` — the parity baseline.
    report, _ = (SKEWED if enabled else _serving(SKEWED, flash=None)).run()
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
    forks from its checkpoints.
    """
    _, pool = PARTITIONED.vectors_and_pool()
    twin = ServingTwin(
        PARTITIONED.router,
        PARTITIONED.serving,
        pool,
        window_s=TWIN_WINDOW_S,
        calibrate_k=PARTITIONED.k,
    )
    twin.ingest(PARTITIONED.requests())
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
        scratch, _ = PARTITIONED.run()

        def payload(report):
            fields = report.to_dict()
            fields.pop("twin", None)
            return json.dumps(fields, sort_keys=True)

        row["identical"] = (
            json.dumps(answer.to_dict(), sort_keys=True)
            == json.dumps(scratch.to_dict(), sort_keys=True)
        )
        row["base_matches_live"] = payload(base_report) == payload(scratch)
    return row


def collect() -> dict:
    """Run the sweep matrix in-process, one section after another.

    The payload is round-tripped through JSON before it is returned,
    so the assertions and the written files see JSON types (tuples as
    lists, dict keys as strings): ``json.dumps(sort_keys=True)`` orders
    int keys numerically but string keys lexically.
    """
    results = {
        "sweep": [
            _sweep_row(policy, shards, rate)
            for policy in POLICIES for shards in SHARDS for rate in RATES
        ],
        "pipeline": [
            _pipeline_row(platform, rate)
            for platform in ("cpu", "ndsearch") for rate in PIPELINE_RATES
        ],
        "partitioned": [
            _partitioned_row(nprobe)
            for nprobe in (None, 1, 2, PARTITIONED.num_shards)
        ],
        "coalescing": [_coalesce_row(coalesce) for coalesce in (False, True)],
        "observability": _observability_row(),
        "twin": [_twin_row(nprobe) for nprobe in ("keep", 1, 2)],
        "slo": [_slo_row(deadline_ms) for deadline_ms in SLO_DEADLINES_MS],
        "autoscale": [_autoscale_row(scaled) for scaled in (False, True)],
        "rebalance": [_rebalance_row(moved) for moved in (False, True)],
        "flash": [_flash_row(enabled) for enabled in (False, True)],
    }
    return json.loads(json.dumps(results))


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
            f"partitioned x{PARTITIONED.num_shards}: broadcast vs selective "
            f"probing (replicated baseline recall "
            f"{results['partitioned'][0]['recall_replicated_baseline']:.4f})"
        ),
    )
    twin_table = format_table(
        ["fork", "QPS", "p50 ms", "p99 ms", "probes/q", "searched", "note"],
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
    slo_table = format_table(
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
            f"slo policy vs max-wait @ "
            f"{SCENARIOS['slo-deadline-4ms'].arrivals.rate_qps:g} QPS "
            f"(high-priority deadline sweep, best-effort = 4x)"
        ),
    )
    rebalance_table = format_table(
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
            f"static vs rebalanced partitioned x{SKEWED.num_shards} "
            f"@ {SKEWED.arrivals.rate_qps:g} QPS (zipf "
            f"{SKEWED.zipf_exponent:g}, nprobe 1, "
            f"{SKEWED.clusters_per_shard} clusters/shard)"
        ),
    )
    autoscale_table = format_table(
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
            f"static vs autoscaled pool @ "
            f"{AUTOSCALED.arrivals.rate_qps:g} QPS (capacity "
            f"{AUTOSCALED.serving.admission_capacity}, max "
            f"{AUTOSCALED.serving.autoscale.max_replicas} replicas)"
        ),
    )
    return "\n\n".join([
        sweep_table, pipeline_table, partition_table, twin_table,
        slo_table, rebalance_table, _flash_table(results["flash"]),
        autoscale_table,
    ])


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
            f"x{SKEWED.num_shards} @ {SKEWED.arrivals.rate_qps:g} QPS "
            f"(zipf {SKEWED.zipf_exponent:g}, nprobe 1, disturb "
            f"threshold {SKEWED.serving.flash.read_disturb_threshold})"
        ),
    )


def check_flash_rows(rows: list[dict]) -> None:
    """The flash acceptance assertions, shared by the pytest sweep
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


def test_bench_serving(benchmark, record_table, record_json):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)
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
    full = part[f"nprobe={PARTITIONED.num_shards}"]
    assert full["qps"] == broadcast["qps"]
    assert full["p99_ms"] == broadcast["p99_ms"]
    assert full["recall"] == broadcast["recall"]
    assert broadcast["probes_per_query"] == PARTITIONED.num_shards
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
    assert obs["counters"]["loop_events_Arrival"] == HI.n_requests
    series = obs["timeseries"]
    assert series["window_s"] == OBS_WINDOW_S
    windows = series["windows"]
    assert sum(w["counters"]["completions"] for w in windows) == obs["completed"]
    assert sum(w["counters"]["arrivals"] for w in windows) == HI.n_requests
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

    # SLO sweep: loosening the deadline never raises the miss rate, the
    # slo policy keeps >= 95% high-priority attainment, and it never
    # misses more than the fixed max-wait policy it replaces.
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

    # Autoscaling: above a static replica's capacity the scaled pool
    # sheds less and holds a lower p99.
    static, scaled = results["autoscale"]
    assert static["pool"] == "static" and scaled["pool"] == "autoscaled"
    assert static["shed"] > 0
    assert scaled["shed"] < static["shed"]
    assert scaled["p99_ms"] < static["p99_ms"]
    assert scaled["scale_events"]
    assert scaled["replicas_final"] > 1

    # Rebalancing: under skewed Zipfian load the migrated placement
    # beats the static one on tail latency and on-time throughput, by
    # unloading the hottest device.
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
        c % SKEWED.num_shards
        for c in range(SKEWED.num_shards * SKEWED.clusters_per_shard)
    ]
    for event in moved["migrations"]:
        assert placement[event["cluster"]] == event["source"]
        placement[event["cluster"]] = event["dest"]
    assert placement == moved["cluster_map_final"]

    # Stateful flash: GC pauses shape the tail, wear skew follows read
    # skew — the same assertions the standalone tier-1 runner
    # (`python benchmarks/bench_serving.py`) enforces.
    check_flash_rows(results["flash"])


def main(argv: list[str] | None = None) -> int:
    """Standalone flash rows for tier-1 CI (no pytest-benchmark
    needed): run the ideal-vs-stateful-flash rows, assert the
    acceptance shape (GC-pause p99 inflation, erase skew following
    read skew, WA > 1) and write the wear/GC stats JSON artifact."""
    import argparse

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
