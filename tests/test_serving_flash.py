"""Stateful flash under serving (``ServingConfig.flash``).

The online stack routed through a live FTL: cluster reads translate
through the mapping and accumulate read disturb, crossing the threshold
schedules a :class:`~repro.sim.events.FlashMaintenance` refresh whose
GC pause is booked on the device like a migration, rebalance data
movement charges program/erase through the FTL, and LDPC retry storms
jitter individual reads.  All of it is opt-in: ``flash=None`` (the
default) is the parity baseline pinned in ``test_serving_parity.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import NDSearchConfig
from repro.data.synthetic import clustered_gaussian, split_queries
from repro.obs import SpanTracer
from repro.serving import (
    BatchPolicy,
    FlashConfig,
    PoissonArrivals,
    QueryStream,
    RebalancePolicy,
    ServingConfig,
    ServingFrontend,
    build_router,
)
from repro.serving.sharding import PARTITIONED

CORPUS, DIM, POOL, REQUESTS, K = 800, 16, 128, 400, 10

#: Disturb threshold scaled down so the test's read volume trips
#: refreshes the way production volumes trip the real threshold.
FLASH = FlashConfig(read_disturb_threshold=200, ecc_hard_failure_prob=0.05)


@pytest.fixture(scope="module")
def corpus_and_pool():
    vectors = clustered_gaussian(CORPUS, DIM, seed=31)
    pool = split_queries(vectors, POOL, seed=32)
    return vectors, pool


def _run(vectors, pool, *, flash, tracer=None, rebalance=None, zipf=1.2,
         rate=16000.0, n_requests=REQUESTS):
    # The bench_serving --flash cell: a partitioned pool under skewed
    # Zipfian load with nprobe=1, so the hot clusters' blocks see
    # disproportionate disturb.  A fresh router per run — flash wear
    # is mutable state and rebalance mutates placement.
    router = build_router(
        vectors, num_shards=4, config=NDSearchConfig.scaled(),
        mode=PARTITIONED, seed=35, clusters_per_shard=2,
    )
    stream = QueryStream(
        PoissonArrivals(rate),
        pool_size=POOL,
        n_requests=n_requests,
        k=K,
        zipf_exponent=zipf,
        seed=33,
        slo_s=4e-3,
    )
    frontend = ServingFrontend(
        router,
        ServingConfig(
            policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
            cache_capacity=0,
            coalesce=False,
            nprobe=1,
            rebalance=rebalance,
            flash=flash,
        ),
        tracer=tracer,
    )
    report = frontend.run(stream.generate(), pool)
    return report, frontend


class TestDeterminism:
    def test_same_seed_same_config_byte_identical(self, corpus_and_pool):
        """Satellite 1: flash-on runs are exactly reproducible — the
        full report (flash wear summary included) serializes to the
        same bytes across two independent runs."""
        vectors, pool = corpus_and_pool
        payloads = []
        for _ in range(2):
            report, _ = _run(vectors, pool, flash=FLASH)
            payloads.append(
                json.dumps(report.to_dict(), sort_keys=True).encode()
            )
        assert payloads[0] == payloads[1]


class TestGCPausesShapeTail:
    def test_refreshes_fire_and_inflate_p99(self, corpus_and_pool):
        vectors, pool = corpus_and_pool
        ideal, _ = _run(vectors, pool, flash=None)
        stateful, _ = _run(vectors, pool, flash=FLASH)
        assert ideal.flash is None
        assert stateful.flash is not None
        assert stateful.flash["refreshes"] > 0
        assert stateful.flash["ecc_soft_decodes"] > 0
        # Same stream, same placement: the only difference is the FTL
        # charging for its reads — and the tail pays for it.
        assert stateful.latency_p99_s > ideal.latency_p99_s

    def test_pauses_are_booked_device_time(self, corpus_and_pool):
        """Satellite 3: a refresh is not a latency fudge — it occupies
        the device's entry-stage FIFO (visible in ``stage_busy``), so
        queued batches drain later."""
        vectors, pool = corpus_and_pool
        _, plain = _run(vectors, pool, flash=None)
        _, flashed = _run(vectors, pool, flash=FLASH)
        plain_busy = sum(
            sum(d.stage_busy.values()) for d in plain.devices
        )
        flash_busy = sum(
            sum(d.stage_busy.values()) for d in flashed.devices
        )
        assert flash_busy > plain_busy

    def test_wear_skew_follows_popularity(self, corpus_and_pool):
        """Zipfian-hot clusters wear their blocks: the most-read
        cluster accumulates at least as many erases as any other and
        strictly more than the least-read one."""
        vectors, pool = corpus_and_pool
        report, _ = _run(vectors, pool, flash=FLASH)
        reads = report.flash["cluster_page_reads"]
        erases = report.flash["cluster_erases"]
        hot = max(reads, key=reads.get)
        cold = min(reads, key=reads.get)
        assert reads[hot] > reads[cold]
        assert erases.get(hot, 0) > erases.get(cold, 0), (reads, erases)
        # Relocation writes amplify beyond the host's own programs.
        assert report.flash["write_amplification"] > 1.0

    def test_migration_charges_program_erase(self, corpus_and_pool):
        """Rebalance data movement is honest about write amplification:
        migrating a cluster programs its pages on the destination FTL
        and erases its blocks on the source, so nand writes grow beyond
        the no-migration run's."""
        vectors, pool = corpus_and_pool
        static, _ = _run(vectors, pool, flash=FLASH)
        moved, _ = _run(
            vectors, pool, flash=FLASH,
            rebalance=RebalancePolicy(
                interval_s=2e-3, skew_threshold=0.25, migration_gbps=1.0
            ),
        )
        assert moved.rebalance_events, "skew never triggered a migration"
        assert (
            moved.flash["nand_pages_written"]
            > static.flash["nand_pages_written"]
        )
        assert moved.flash["total_erases"] > static.flash["total_erases"]


class TestObservability:
    def test_trace_carries_flash_lanes(self, corpus_and_pool):
        """Refreshes and ECC retries render as their own trace spans
        (distinct from query stages and migrations), and the kernel
        telemetry counts the FlashMaintenance events."""
        vectors, pool = corpus_and_pool
        tracer = SpanTracer()
        report, _ = _run(vectors, pool, flash=FLASH, tracer=tracer)
        payload = tracer.to_json()
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "flash refresh" in names
        assert "ecc retry" in names
        assert report.counters["loop_events_FlashMaintenance"] > 0
        assert (
            report.counters["loop_events_FlashMaintenance"]
            <= report.flash["refreshes"]
        )


class TestBusyWithinHorizon:
    @pytest.mark.xfail(
        strict=True,
        reason="known defect: booked device work ends after the last "
               "request completes. At 800 requests and 20,000/s, shard 3 "
               "reads utilization 1.1216: the horizon (first arrival to "
               "last completion) is 0.0880 s, the union of the shard's "
               "busy intervals is 0.0988 s and its last booking ends at "
               "0.0994 s. Its 206 bookings have monotone starts and do "
               "not overlap, so ShardDevice._book_busy's monotonicity "
               "assumption holds; the horizon does not count work that "
               "ends after the last completion. The fix changes reported "
               "output and belongs in its own change.",
    )
    def test_shard_utilization_at_most_one(self, corpus_and_pool):
        """Per-device busy time never exceeds the report's horizon."""
        vectors, pool = corpus_and_pool
        report, _ = _run(
            vectors, pool, flash=FLASH, rate=20000.0, n_requests=800
        )
        assert all(u <= 1.0 for u in report.shard_utilization), (
            report.shard_utilization
        )
