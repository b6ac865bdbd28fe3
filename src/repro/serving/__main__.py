"""Demo CLI for the online serving subsystem.

A run is one :class:`~repro.serving.scenario.Scenario`: ``--scenario
NAME`` starts from a :data:`~repro.serving.scenario.SCENARIOS` entry
(without it, from :data:`DEMO`), and each repeatable ``--set
PATH=VALUE`` overrides one field, dotted through the nested configs.
``VALUE`` is JSON, or a plain string when it is not JSON; a JSON object
builds a whole config (``{}`` gives its defaults, ``null`` turns an
optional one off).  Serve it end-to-end and print the serving report::

    python -m repro.serving --set arrivals.rate_qps=2000 --set num_shards=8
    python -m repro.serving --set mode=partitioned --set serving.nprobe=2 \\
        --set 'arrivals={"type": "MMPPArrivals", "rate_qps": 2000}'
    python -m repro.serving --scenario slo-deadline-4ms \\
        --set serving.priority_admission=true

An invalid recipe (slo batching without deadlines, ``nprobe`` on a
replicated pool, ...) is rejected when the scenario is constructed,
with a message naming the field.  Observability (see
:mod:`repro.obs`): ``--trace out.json`` records the run's
request/batch/stage spans as a Chrome trace-event file, ``--set
serving.metrics_window_s=0.005`` closes windowed metrics on 5 ms
event-time windows, and ``--report-json report.json`` dumps the full
report.

Digital-twin mode (see :mod:`repro.serving.twin`): ``--emit-arrivals
trace.jsonl`` writes the generated arrival stream as JSONL, and
``--follow trace.jsonl`` replays it incrementally — checkpointing
every ``--window-ms`` — then answers ``--whatif`` queries ("replay the
last windows with nprobe=1 / +2 replicas / rebalancing on") by
restoring the newest unaffected checkpoint and re-simulating only the
changed suffix::

    repro-serve --emit-arrivals trace.jsonl --set arrivals.rate_qps=2000 \\
        --set n_requests=400
    repro-serve --follow trace.jsonl --set mode=partitioned --window-ms 20 \\
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

from repro.ann import BruteForceIndex, HNSWIndex, HNSWParams, recall_at_k
from repro.core import NDSearch
from repro.obs import SpanTracer
from repro.serving.arrivals import PoissonArrivals
from repro.serving.frontend import ServingConfig
from repro.serving.rebalance import RebalancePolicy
from repro.serving.request import Request
from repro.serving.scenario import SCENARIOS, Scenario, with_settings
from repro.serving.sharding import REPLICATED
from repro.serving.twin import ServingTwin

#: The run without ``--scenario``: a 2000 x 32 corpus on 4 replicated
#: shards, 1500 Zipf-1.0 requests at 200 QPS through a 512-entry
#: result cache.  Not a :data:`SCENARIOS` entry, whose digests the
#: surface goldens pin.
DEMO = Scenario(
    corpus_size=2000, dim=32, corpus_seed=7, pool_size=256, pool_seed=8,
    num_shards=4, router_seed=7, arrivals=PoissonArrivals(200.0),
    n_requests=1500, zipf_exponent=1.0, stream_seed=7,
    serving=ServingConfig(cache_capacity=512),
)


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
    scenario: Scenario,
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
    scratch = scenario.frontend().run(_load_arrivals(arrivals_path), pool)
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


def _run_follow(args, parser, scenario, pool, tracer):
    """``--follow``: incremental ingest, windowed checkpoints, what-ifs."""
    window_s = args.window_ms * 1e-3
    if window_s <= 0.0:
        parser.error("--window-ms must be positive")
    arrivals = _load_arrivals(args.follow)
    if not arrivals:
        parser.error(f"--follow {args.follow}: no arrivals")
    if max(r.query_id for r in arrivals) >= pool.shape[0]:
        parser.error(
            f"--follow {args.follow}: query_id exceeds pool_size "
            f"{pool.shape[0]}"
        )
    try:
        whatifs = [(spec, _parse_whatif(spec)) for spec in args.whatif]
    except ValueError as exc:
        parser.error(str(exc))
    twin = ServingTwin(
        scenario.router,
        scenario.serving,
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
            twin, scenario, pool, args.follow, whatifs
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
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default=None,
                        help="start from this registry recipe (default: "
                             "the 2000 x 32 demo, 4 replicated shards, "
                             "200 QPS)")
    parser.add_argument("--set", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="override a Scenario field, dotted through "
                             "nested configs (serving.policy.mode=slo); "
                             "VALUE is JSON or a plain string, a JSON "
                             "object builds a config (repeatable)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record request/batch/stage spans and write a "
                             "Chrome trace-event JSON file (load it in "
                             "Perfetto or chrome://tracing)")
    parser.add_argument("--report-json", metavar="PATH", default=None,
                        help="write the full serving report as JSON")
    outputs = parser.add_mutually_exclusive_group()
    outputs.add_argument("--emit-arrivals", metavar="PATH", default=None,
                         help="write the generated arrival stream as JSONL "
                              "(one request per line) and exit — the input "
                              "format --follow replays")
    outputs.add_argument("--follow", metavar="PATH", default=None,
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
    if (args.whatif or args.twin_report or args.twin_selftest) \
            and not args.follow:
        parser.error("--whatif/--twin-report/--twin-selftest need --follow")
    try:
        scenario = with_settings(
            SCENARIOS[args.scenario] if args.scenario else DEMO, args.set
        )
    except ValueError as exc:
        parser.error(str(exc))

    serving = scenario.serving
    routing = ""
    if scenario.mode != REPLICATED:
        routing = (
            f", nprobe {serving.nprobe}" if serving.nprobe is not None
            else ", broadcast"
        )
    print(
        f"corpus {scenario.corpus_size} x {scenario.dim}, pool "
        f"{scenario.pool_size} queries, {scenario.num_shards} x "
        f"{scenario.platform} shard(s) [{scenario.mode}{routing}]"
    )
    if args.emit_arrivals:
        requests = scenario.requests()
        _write_arrivals(args.emit_arrivals, requests)
        print(f"arrivals: {len(requests)} requests -> {args.emit_arrivals}")
        return 0

    print("building shard pool ...")
    vectors, pool = scenario.vectors_and_pool()
    tracer = SpanTracer() if args.trace else None
    if args.follow:
        return _run_follow(args, parser, scenario, pool, tracer)
    frontend = scenario.frontend(tracer)
    router = frontend.router
    arrivals = type(scenario.arrivals).__name__.removesuffix("Arrivals")
    print(
        f"serving {scenario.n_requests} requests at "
        f"{scenario.arrivals.rate_qps:g} QPS ({arrivals.lower()}, zipf "
        f"{scenario.zipf_exponent:g}) ..."
    )
    report = frontend.run(scenario.requests(), pool)
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
        f"serving: {scenario.platform} x{scenario.num_shards} "
        f"{scenario.mode}, policy={serving.policy.mode}"
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
    if serving.autoscale is not None:
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
    if serving.rebalance is not None:
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

    if report.flash is not None:
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
    sharded_ids, _, _ = router.search_all(pool, scenario.k)
    system = NDSearch(
        index=HNSWIndex(vectors, HNSWParams(M=8, ef_construction=48)),
        config=scenario.config,
    )
    unsharded_ids, _, _ = system.search_batch(pool, scenario.k)
    gt, _ = BruteForceIndex(vectors).search_batch(pool, scenario.k)
    recall_sharded = recall_at_k(sharded_ids, gt, scenario.k)
    recall_unsharded = recall_at_k(unsharded_ids, gt, scenario.k)
    diff = abs(recall_sharded - recall_unsharded)
    print(
        f"recall@{scenario.k}: sharded {recall_sharded:.4f}, "
        f"unsharded {recall_unsharded:.4f}, |diff| {diff:.2e}"
    )
    if scenario.mode == REPLICATED:
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
            probe_ids, _, jobs = router.search_probed(pool, scenario.k, nprobe)
            probe_recall = recall_at_k(probe_ids, gt, scenario.k)
            probed = sum(int(job.rows.size) for job in jobs)
            print(
                f"  nprobe {nprobe}: recall@{scenario.k} {probe_recall:.4f} "
                f"({probed / pool.shape[0]:.2f} shards probed/query; "
                f"broadcast recall {recall_sharded:.4f}, "
                f"replicated baseline {recall_unsharded:.4f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
