"""Demo CLI for the online serving subsystem.

Serve a synthetic workload end-to-end and print the serving report::

    python -m repro.serving --rate 200 --shards 4 --policy batch
    python -m repro.serving --rate 2000 --shards 8 --arrivals mmpp \\
        --mode partitioned --backend ndsearch

Observability (see :mod:`repro.obs`): ``--trace out.json`` records the
run's request/batch/stage spans as a Chrome trace-event file,
``--metrics-window-ms 5`` closes windowed metrics on 5 ms event-time
windows, and ``--report-json report.json`` dumps the full report.

Digital-twin mode (see :mod:`repro.serving.twin`): ``--emit-arrivals
trace.jsonl`` writes the generated arrival stream as JSONL, and
``--follow trace.jsonl`` replays it incrementally — checkpointing
every ``--window-ms`` — then answers ``--whatif`` queries ("replay the
last windows with nprobe=1 / +2 replicas / rebalancing on") by
restoring the newest unaffected checkpoint and re-simulating only the
changed suffix::

    repro-serve --emit-arrivals trace.jsonl --rate 2000 --requests 400
    repro-serve --follow trace.jsonl --mode partitioned --window-ms 20 \\
        --whatif nprobe=1 --whatif nprobe=2 --twin-selftest \\
        --twin-report twin.json

The run finishes with a parity check: the same query pool is searched
through the sharded pool and through one unsharded NDSearch system,
and their recall against exact ground truth is compared (replicated
sharding must match to 1e-6 — routing must never change results).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import platform as platform_registry
from repro.ann import BruteForceIndex, HNSWIndex, HNSWParams, recall_at_k
from repro.core import NDSearch, NDSearchConfig
from repro.data.synthetic import clustered_gaussian, split_queries
from repro.obs import SpanTracer
from repro.serving.arrivals import MMPPArrivals, PoissonArrivals, QueryStream
from repro.serving.autoscale import AutoscalePolicy
from repro.serving.batcher import POLICY_MODES, BatchPolicy
from repro.serving.frontend import ServingConfig, ServingFrontend
from repro.serving.rebalance import RebalancePolicy
from repro.serving.request import Request
from repro.serving.sharding import REPLICATED, SHARD_MODES, build_router
from repro.serving.storage import FlashConfig
from repro.serving.twin import ServingTwin


# ---- digital-twin helpers ------------------------------------------------

def _write_arrivals(path: str, requests: list[Request]) -> None:
    """Write an arrival stream as JSONL (the ``--follow`` input)."""
    with open(path, "w", encoding="utf-8") as handle:
        for request in requests:
            handle.write(
                json.dumps(
                    {
                        "request_id": request.request_id,
                        "query_id": request.query_id,
                        "arrival_s": request.arrival_s,
                        "k": request.k,
                        "priority": request.priority,
                        "deadline_s": request.deadline_s,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def _load_arrivals(path: str) -> list[Request]:
    """Load a JSONL arrival stream into fresh, unserved requests."""
    requests = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            requests.append(
                Request(
                    request_id=int(row["request_id"]),
                    query_id=int(row["query_id"]),
                    arrival_s=float(row["arrival_s"]),
                    k=int(row.get("k", 10)),
                    priority=int(row.get("priority", 0)),
                    deadline_s=(
                        float(row["deadline_s"])
                        if row.get("deadline_s") is not None
                        else None
                    ),
                )
            )
    requests.sort(key=lambda r: r.arrival_s)
    return requests


def _parse_whatif(spec: str) -> dict:
    """Parse one ``--whatif`` spec into :meth:`ServingTwin.whatif` kwargs.

    Comma-separated ``key=value`` pairs: ``nprobe=<int|broadcast>``,
    ``add_replicas=<int>``, ``rebalance=on``, ``last_windows=<int>``.
    """
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ValueError(f"--whatif {spec!r}: expected key=value pairs")
        if key == "nprobe":
            kwargs["nprobe"] = (
                None if value in ("none", "broadcast") else int(value)
            )
        elif key == "add_replicas":
            kwargs["add_replicas"] = int(value)
        elif key == "last_windows":
            kwargs["last_windows"] = int(value)
        elif key == "rebalance":
            if value in ("on", "true", "1"):
                kwargs["rebalance"] = RebalancePolicy()
            elif value not in ("off", "false", "0"):
                raise ValueError(
                    f"--whatif {spec!r}: rebalance must be on or off"
                )
        else:
            raise ValueError(f"--whatif {spec!r}: unknown key {key!r}")
    return kwargs


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def _twin_selftest(
    twin: ServingTwin,
    serving_config: ServingConfig,
    router_factory,
    pool,
    arrivals_path: str,
    whatifs: list[tuple[str, dict]],
) -> list[str]:
    """The determinism contract the CI twin step gates on.

    A no-delta what-if must be byte-identical to a from-scratch replay
    of the whole stream, and repeating every query (the null one
    included) must hit the content-addressed cache with the identical
    answer.  Returns the list of violations (empty = pass).
    """
    failures: list[str] = []
    null_answer = twin.whatif()
    scratch = ServingFrontend(router_factory(), serving_config).run(
        _load_arrivals(arrivals_path), pool
    )
    if _report_bytes(null_answer) != _report_bytes(scratch):
        failures.append(
            "no-delta what-if is not byte-identical to a from-scratch "
            "replay"
        )
    for spec, kwargs in [("<no delta>", {})] + whatifs:
        first = twin.whatif(**kwargs)
        hits_before = twin.cache.hits
        second = twin.whatif(**kwargs)
        if twin.cache.hits != hits_before + 1:
            failures.append(f"repeating --whatif {spec!r} missed the cache")
        if _report_bytes(first) != _report_bytes(second):
            failures.append(
                f"cached answer for --whatif {spec!r} differs from the "
                f"simulated one"
            )
    return failures


def _run_follow(args, parser, serving_config, router_factory, pool, tracer):
    """``--follow``: incremental ingest, windowed checkpoints, what-ifs."""
    window_s = args.window_ms * 1e-3
    if window_s <= 0.0:
        parser.error("--window-ms must be positive")
    arrivals = _load_arrivals(args.follow)
    if not arrivals:
        parser.error(f"--follow {args.follow}: no arrivals")
    if max(r.query_id for r in arrivals) >= pool.shape[0]:
        parser.error(
            f"--follow {args.follow}: query_id exceeds --pool "
            f"{pool.shape[0]}"
        )
    try:
        whatifs = [(spec, _parse_whatif(spec)) for spec in args.whatif]
    except ValueError as exc:
        parser.error(str(exc))
    twin = ServingTwin(
        router_factory,
        serving_config,
        pool,
        window_s=window_s,
        tracer=tracer,
        calibrate_k=max(r.k for r in arrivals),
    )
    twin.ingest(arrivals)
    report = twin.finish()
    if tracer is not None:
        tracer.write(args.trace)
        print(f"trace: {len(tracer)} events -> {args.trace}")
    print()
    print(report.format(title=f"twin: followed {args.follow}"))
    stats = report.twin
    print(
        f"\ntwin: {stats['windows_simulated']} windows of "
        f"{args.window_ms:g} ms, {stats['checkpoints']} checkpoints"
    )
    answers = []
    for spec, kwargs in whatifs:
        answer = twin.whatif(**kwargs)
        answers.append((spec, answer))
        print(
            f"  whatif {spec:<28} completed {answer.completed:>5}  "
            f"QPS {answer.qps:>10,.0f}  "
            f"p99 {answer.latency_p99_s * 1e3:8.3f} ms  "
            f"shed {answer.shed_rate:.1%}"
        )
    exit_code = 0
    if args.twin_selftest:
        failures = _twin_selftest(
            twin, serving_config, router_factory, pool, args.follow,
            whatifs,
        )
        if failures:
            print(f"\nFAIL: twin self-test ({len(failures)} violation(s)):",
                  file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            exit_code = 1
        else:
            print(
                f"\nOK: twin self-test passed — null what-if byte-identical "
                f"to from-scratch, {twin.cache.hits} cache hit(s) / "
                f"{twin.cache.misses} miss(es), {twin.restores} restore(s)"
            )
    if args.twin_report:
        payload = {
            "base": report.to_dict(),
            "twin": twin.stats(),
            "whatifs": [
                {"spec": spec, "report": answer.to_dict()}
                for spec, answer in answers
            ],
        }
        with open(args.twin_report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"twin report: {args.twin_report}")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Online serving demo over the NDSearch simulators.",
    )
    parser.add_argument("--rate", type=float, default=200.0,
                        help="mean arrival rate in QPS (default 200)")
    parser.add_argument("--requests", type=int, default=1500,
                        help="stream length (default 1500)")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard device count (default 4)")
    parser.add_argument("--policy", choices=POLICY_MODES, default="batch",
                        help="batching policy (default batch; 'slo' closes "
                             "on predicted deadline breach)")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="max batch size (default 32)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="max batching wait in ms (default 2)")
    parser.add_argument("--slo-ms", type=float, default=None,
                        help="completion deadline in ms attached to every "
                             "request (default: no deadlines)")
    parser.add_argument("--tight-slo-ms", type=float, default=None,
                        help="deadline for the high-priority class; "
                             "implies two priority classes (see --high-frac)")
    parser.add_argument("--high-frac", type=float, default=0.2,
                        help="fraction of requests in the high-priority "
                             "class when --tight-slo-ms is set (default 0.2)")
    parser.add_argument("--slo-margin-ms", type=float, default=0.0,
                        help="slo policy: close this much earlier than the "
                             "predicted breach (absorbs model error)")
    parser.add_argument("--priority-admission", action="store_true",
                        help="shed lowest-priority/latest-deadline work "
                             "first instead of arrival order")
    parser.add_argument("--autoscale", action="store_true",
                        help="autoscale the replicated pool between epochs "
                             "(replicated mode only)")
    parser.add_argument("--autoscale-max", type=int, default=8,
                        help="autoscaler replica ceiling (default 8)")
    parser.add_argument("--autoscale-interval-ms", type=float, default=50.0,
                        help="autoscaler epoch length in ms (default 50)")
    parser.add_argument("--mode", choices=SHARD_MODES, default=REPLICATED,
                        help="shard layout (default replicated)")
    parser.add_argument("--nprobe", type=int, default=None,
                        help="partitioned mode: probe only the nprobe "
                             "nearest clusters per query "
                             "(default: broadcast to all)")
    parser.add_argument("--clusters-per-shard", type=int, default=1,
                        help="partitioned mode: IVF clusters per shard "
                             "device (default 1; >1 gives the rebalancer "
                             "migration granularity)")
    parser.add_argument("--rebalance", action="store_true",
                        help="migrate hot IVF clusters to cold shard "
                             "devices between epochs (partitioned mode "
                             "only)")
    parser.add_argument("--rebalance-interval-ms", type=float, default=2.0,
                        help="rebalancer epoch length in ms (default 2)")
    parser.add_argument("--rebalance-skew", type=float, default=0.25,
                        help="hot-minus-cold windowed utilization gap "
                             "that triggers a migration (default 0.25)")
    parser.add_argument("--migration-gbps", type=float, default=1.0,
                        help="cluster data-movement bandwidth in GB/s "
                             "(default 1)")
    parser.add_argument("--flash", action="store_true",
                        help="serve through a live FTL + ECC under every "
                             "device: reads accumulate disturb, GC refresh "
                             "pauses shape the tail, migrations charge "
                             "program/erase")
    parser.add_argument("--flash-threshold", type=int, default=None,
                        help="read-disturb refresh threshold in page reads "
                             "per block (default: the FlashConfig default; "
                             "lower it to see refreshes at demo volumes)")
    parser.add_argument("--backend", default="ndsearch",
                        choices=platform_registry.available(),
                        help="platform behind the frontend (default ndsearch)")
    parser.add_argument("--blocking-devices", action="store_true",
                        help="disable pipelined shard stages "
                             "(one batch at a time per device)")
    parser.add_argument("--no-coalesce", action="store_true",
                        help="disable coalescing of identical "
                             "in-flight queries")
    parser.add_argument("--arrivals", choices=("poisson", "mmpp"),
                        default="poisson", help="arrival process")
    parser.add_argument("--zipf", type=float, default=1.0,
                        help="query popularity skew exponent (default 1.0)")
    parser.add_argument("--cache", type=int, default=512,
                        help="result-cache entries, 0 disables (default 512)")
    parser.add_argument("--admission", type=int, default=None,
                        help="max in-system requests (default unbounded)")
    parser.add_argument("--corpus", type=int, default=2000,
                        help="synthetic corpus size (default 2000)")
    parser.add_argument("--dim", type=int, default=32,
                        help="vector dimensionality (default 32)")
    parser.add_argument("--pool", type=int, default=256,
                        help="distinct queries in the pool (default 256)")
    parser.add_argument("--k", type=int, default=10,
                        help="results per query (default 10)")
    parser.add_argument("--seed", type=int, default=7, help="stream seed")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record request/batch/stage spans and write a "
                             "Chrome trace-event JSON file (load it in "
                             "Perfetto or chrome://tracing)")
    parser.add_argument("--metrics-window-ms", type=float, default=None,
                        help="close windowed metrics (queue depth, per-device "
                             "utilization, p99, shed rate) on this event-time "
                             "window and include the time series in the "
                             "report")
    parser.add_argument("--report-json", metavar="PATH", default=None,
                        help="write the full serving report as JSON")
    parser.add_argument("--emit-arrivals", metavar="PATH", default=None,
                        help="write the generated arrival stream as JSONL "
                             "(one request per line) and exit — the input "
                             "format --follow replays")
    parser.add_argument("--follow", metavar="PATH", default=None,
                        help="digital-twin mode: ingest a JSONL arrival "
                             "stream incrementally, checkpoint the full "
                             "simulation state every --window-ms, and "
                             "answer --whatif queries by re-simulating "
                             "only the changed suffix")
    parser.add_argument("--window-ms", type=float, default=50.0,
                        help="twin checkpoint window in ms (default 50)")
    parser.add_argument("--whatif", action="append", default=[],
                        metavar="SPEC",
                        help="what-if query against the twin: comma-"
                             "separated key=value pairs among nprobe=N|"
                             "broadcast, add_replicas=N, rebalance=on, "
                             "last_windows=N (repeatable)")
    parser.add_argument("--twin-report", metavar="PATH", default=None,
                        help="write the twin's base report, cache counters "
                             "and what-if answers as JSON")
    parser.add_argument("--twin-selftest", action="store_true",
                        help="assert the twin contract: a no-delta what-if "
                             "is byte-identical to a from-scratch replay "
                             "and repeated what-ifs hit the content-"
                             "addressed cache (exit 1 otherwise)")
    args = parser.parse_args(argv)
    if args.follow and args.emit_arrivals:
        parser.error("--follow and --emit-arrivals are mutually exclusive")
    if (args.whatif or args.twin_report or args.twin_selftest) \
            and not args.follow:
        parser.error("--whatif/--twin-report/--twin-selftest need --follow")
    if args.nprobe is not None and args.mode == REPLICATED:
        parser.error("--nprobe requires --mode partitioned")
    if args.autoscale and args.mode != REPLICATED:
        parser.error("--autoscale requires --mode replicated")
    if args.rebalance and args.mode == REPLICATED:
        parser.error("--rebalance requires --mode partitioned")
    if args.clusters_per_shard > 1 and args.mode == REPLICATED:
        parser.error("--clusters-per-shard requires --mode partitioned")
    if args.policy == "slo" and args.slo_ms is None and args.tight_slo_ms is None:
        parser.error("--policy slo needs --slo-ms and/or --tight-slo-ms")
    if args.flash_threshold is not None and not args.flash:
        parser.error("--flash-threshold requires --flash")

    # Priority classes: one best-effort/base class, plus a high class
    # when a tight SLO is requested.
    priorities: tuple[int, ...] = (0,)
    weights = None
    slo_s: float | dict[int, float] | None = (
        args.slo_ms * 1e-3 if args.slo_ms is not None else None
    )
    if args.tight_slo_ms is not None:
        if not 0.0 < args.high_frac < 1.0:
            parser.error("--high-frac must be in (0, 1)")
        priorities = (0, 1)
        weights = (1.0 - args.high_frac, args.high_frac)
        slo_s = {1: args.tight_slo_ms * 1e-3}
        if args.slo_ms is not None:
            slo_s[0] = args.slo_ms * 1e-3

    routing = ""
    if args.mode != REPLICATED:
        routing = (
            f", nprobe {args.nprobe}" if args.nprobe is not None
            else ", broadcast"
        )
    print(
        f"corpus {args.corpus} x {args.dim}, pool {args.pool} queries, "
        f"{args.shards} x {args.backend} shard(s) [{args.mode}{routing}]"
    )
    vectors = clustered_gaussian(args.corpus, args.dim, seed=args.seed)
    pool = split_queries(vectors, args.pool, seed=args.seed + 1)
    config = NDSearchConfig.scaled()

    arrivals = (
        PoissonArrivals(args.rate)
        if args.arrivals == "poisson"
        else MMPPArrivals(args.rate)
    )
    stream = QueryStream(
        arrivals,
        pool_size=args.pool,
        n_requests=args.requests,
        k=args.k,
        zipf_exponent=args.zipf,
        seed=args.seed,
        priorities=priorities,
        priority_weights=weights,
        slo_s=slo_s,
    )
    if args.emit_arrivals:
        requests = stream.generate()
        _write_arrivals(args.emit_arrivals, requests)
        print(f"arrivals: {len(requests)} requests -> {args.emit_arrivals}")
        return 0

    print("building shard pool ...")

    def router_factory():
        return build_router(
            vectors,
            num_shards=args.shards,
            config=config,
            mode=args.mode,
            platform=args.backend,
            seed=args.seed,
            clusters_per_shard=args.clusters_per_shard,
        )

    router = router_factory()
    policy = BatchPolicy(
        max_batch_size=args.batch_size,
        max_wait_s=args.max_wait_ms * 1e-3,
        mode=args.policy,
        slo_margin_s=args.slo_margin_ms * 1e-3,
    )
    autoscale = (
        AutoscalePolicy(
            max_replicas=args.autoscale_max,
            interval_s=args.autoscale_interval_ms * 1e-3,
        )
        if args.autoscale
        else None
    )
    rebalance = (
        RebalancePolicy(
            interval_s=args.rebalance_interval_ms * 1e-3,
            skew_threshold=args.rebalance_skew,
            migration_gbps=args.migration_gbps,
        )
        if args.rebalance
        else None
    )
    flash = None
    if args.flash:
        flash = (
            FlashConfig(read_disturb_threshold=args.flash_threshold)
            if args.flash_threshold is not None
            else FlashConfig()
        )
    tracer = SpanTracer() if args.trace else None
    serving_config = ServingConfig(
        policy=policy,
        cache_capacity=args.cache,
        admission_capacity=args.admission,
        pipelined=not args.blocking_devices,
        coalesce=not args.no_coalesce,
        nprobe=args.nprobe,
        priority_admission=args.priority_admission,
        autoscale=autoscale,
        rebalance=rebalance,
        flash=flash,
        metrics_window_s=(
            args.metrics_window_ms * 1e-3
            if args.metrics_window_ms is not None
            else None
        ),
    )
    if args.follow:
        return _run_follow(
            args, parser, serving_config, router_factory, pool, tracer
        )
    frontend = ServingFrontend(router, serving_config, tracer=tracer)
    print(
        f"serving {args.requests} requests at {args.rate:g} QPS "
        f"({args.arrivals}, zipf {args.zipf:g}) ..."
    )
    report = frontend.run(stream.generate(), pool)
    if tracer is not None:
        tracer.write(args.trace)
        print(f"trace: {len(tracer)} events -> {args.trace}")
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report: {args.report_json}")
    if report.timeseries is not None:
        windows = report.timeseries["windows"]
        print(
            f"metrics: {len(windows)} windows of "
            f"{report.timeseries['window_s'] * 1e3:g} ms"
        )
    title = (
        f"serving: {args.backend} x{args.shards} {args.mode}, "
        f"policy={args.policy}"
    )
    print()
    print(report.format(title=title))
    print()
    print(
        f"QPS {report.qps:,.0f} | p50 {report.latency_p50_s * 1e3:.3f} ms | "
        f"p95 {report.latency_p95_s * 1e3:.3f} ms | "
        f"p99 {report.latency_p99_s * 1e3:.3f} ms | "
        f"cache hit rate {report.cache_hit_rate:.1%}"
    )
    if report.deadline_total:
        print(
            f"SLO: {report.deadline_total - report.deadline_misses}"
            f"/{report.deadline_total} deadlines met "
            f"(miss rate {report.deadline_miss_rate:.1%}, "
            f"goodput {report.goodput_qps:,.0f} QPS on time)"
        )
        for priority in sorted(report.priority_stats, reverse=True):
            stats = report.priority_stats[priority]
            print(
                f"  priority {priority}: attainment {stats['attainment']:.1%} "
                f"({stats['served']:.0f} served, {stats['shed']:.0f} shed)"
            )
    if args.autoscale:
        print(
            f"autoscaling: {len(report.scale_events)} scale events, "
            f"final {report.replicas_final} replicas"
        )
        for event in report.scale_events:
            print(
                f"  t={event['time_s'] * 1e3:8.2f} ms  "
                f"{event['replicas_before']} -> {event['replicas_after']} "
                f"({event['reason']}: util {event['utilization']:.0%}, "
                f"queue {event['queue_depth']:.1f})"
            )
    if args.rebalance:
        moved = sum(e["bytes"] for e in report.rebalance_events)
        print(
            f"rebalancing: {len(report.rebalance_events)} migrations, "
            f"{moved / 1e6:.2f} MB moved; final placement "
            f"{list(report.cluster_map_final)}"
        )
        for event in report.rebalance_events:
            print(
                f"  t={event['decided_s'] * 1e3:8.2f} ms  cluster "
                f"{event['cluster']}: shard {event['source']} -> "
                f"{event['dest']} ({event['vectors']} vectors, gap "
                f"{event['utilization_gap']:.0%}, lands "
                f"{event['complete_s'] * 1e3:.2f} ms)"
            )

    if args.flash and report.flash is not None:
        summary = report.flash
        print(
            f"flash: {summary['page_reads']} page reads, "
            f"{summary['refreshes']} refreshes, "
            f"{summary['total_erases']:.0f} erases, "
            f"WA {summary['write_amplification']:.2f} "
            f"({summary['nand_pages_written']} NAND / "
            f"{summary['host_pages_written']} host pages), "
            f"{summary['ecc_soft_decodes']} ECC soft decodes"
        )
        reads = summary["cluster_page_reads"]
        erases = summary["cluster_erases"]
        for cluster in sorted(reads, key=int):
            print(
                f"  cluster {cluster}: {reads[cluster]} page reads, "
                f"{erases.get(cluster, 0)} erases"
            )

    # ---- parity check: sharded vs. unsharded results --------------------
    print("\nparity check: sharded pool vs. unsharded NDSearch ...")
    sharded_ids, _, _ = router.search_all(pool, args.k)
    system = NDSearch(
        index=HNSWIndex(vectors, HNSWParams(M=8, ef_construction=48)),
        config=config,
    )
    unsharded_ids, _, _ = system.search_batch(pool, args.k)
    gt, _ = BruteForceIndex(vectors).search_batch(pool, args.k)
    recall_sharded = recall_at_k(sharded_ids, gt, args.k)
    recall_unsharded = recall_at_k(unsharded_ids, gt, args.k)
    diff = abs(recall_sharded - recall_unsharded)
    print(
        f"recall@{args.k}: sharded {recall_sharded:.4f}, "
        f"unsharded {recall_unsharded:.4f}, |diff| {diff:.2e}"
    )
    if args.mode == REPLICATED:
        if diff > 1e-6:
            print("FAIL: replicated sharding changed results", file=sys.stderr)
            return 1
        print("OK: replicated sharding matches unsharded recall to 1e-6")
    else:
        print("note: partitioned recall may differ (per-shard graphs)")
        # Recall-vs-nprobe: what selective probing trades away, per
        # step, against the broadcast (= nprobe = num_clusters) result.
        print("\nrecall vs nprobe (selective cluster probing):")
        for nprobe in range(1, router.num_clusters + 1):
            probe_ids, _, jobs = router.search_probed(pool, args.k, nprobe)
            probe_recall = recall_at_k(probe_ids, gt, args.k)
            probed = sum(int(job.rows.size) for job in jobs)
            print(
                f"  nprobe {nprobe}: recall@{args.k} {probe_recall:.4f} "
                f"({probed / pool.shape[0]:.2f} shards probed/query; "
                f"broadcast recall {recall_sharded:.4f}, "
                f"replicated baseline {recall_unsharded:.4f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
