"""End-to-end frontend runs: invariants, admission, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NDSearchConfig
from repro.serving import (
    BatchPolicy,
    PoissonArrivals,
    QueryStream,
    ServingConfig,
    ServingFrontend,
    build_router,
)
from repro.serving.request import COMPLETED, SHED, Request
from repro.serving.sharding import PARTITIONED


@pytest.fixture(scope="module")
def config():
    return NDSearchConfig.scaled()


@pytest.fixture(scope="module")
def pool(small_vectors):
    return np.ascontiguousarray(small_vectors[:24] + 0.02)


def make_stream(pool, n=120, rate=400.0, seed=9, zipf=0.0):
    return QueryStream(
        PoissonArrivals(rate),
        pool_size=pool.shape[0],
        n_requests=n,
        k=5,
        zipf_exponent=zipf,
        seed=seed,
    ).generate()


class TestEndToEnd:
    def test_report_invariants(self, small_vectors, pool, config):
        router = build_router(small_vectors, num_shards=2, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3)),
        )
        requests = make_stream(pool)
        report = frontend.run(requests, pool)

        assert report.offered == len(requests)
        assert report.served + report.shed == report.offered
        assert report.shed == 0
        assert report.qps > 0
        assert (
            report.latency_p50_s
            <= report.latency_p95_s
            <= report.latency_p99_s
        )
        assert 0.0 < report.mean_batch_size <= 8.0
        assert len(report.shard_utilization) == 2
        assert report.energy_j > 0
        for request in requests:
            if request.outcome == COMPLETED:
                assert request.completion_s >= request.arrival_s
                assert request.start_s >= request.batched_s >= request.arrival_s
                assert request.result_ids is not None
                assert request.result_ids.shape == (5,)

    def test_deterministic_runs(self, small_vectors, pool, config):
        def run():
            router = build_router(small_vectors, num_shards=2, config=config)
            frontend = ServingFrontend(
                router,
                ServingConfig(policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3)),
            )
            return frontend.run(make_stream(pool), pool)

        a, b = run(), run()
        assert a.qps == b.qps
        assert a.latency_p99_s == b.latency_p99_s
        assert a.cache_hits == b.cache_hits
        assert a.shard_utilization == b.shard_utilization

    def test_partitioned_mode_end_to_end(self, small_vectors, pool, config):
        router = build_router(
            small_vectors, num_shards=2, config=config, mode=PARTITIONED, seed=4
        )
        frontend = ServingFrontend(
            router,
            ServingConfig(policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3)),
        )
        report = frontend.run(make_stream(pool, n=60), pool)
        assert report.served == 60
        # Broadcast: both shards serve every batch.
        assert frontend.metrics.shard_batches[0] == frontend.metrics.shard_batches[1]
        assert all(u > 0 for u in report.shard_utilization)

    def test_partitioned_selective_full_probe_matches_broadcast(
        self, small_vectors, pool, config
    ):
        """nprobe = num_shards reproduces the broadcast run exactly."""
        router = build_router(
            small_vectors, num_shards=2, config=config, mode=PARTITIONED, seed=4
        )

        def run(nprobe):
            requests = make_stream(pool, n=60)
            frontend = ServingFrontend(
                router,
                ServingConfig(
                    policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3),
                    nprobe=nprobe,
                ),
            )
            return frontend.run(requests, pool), requests

        bcast_report, bcast_requests = run(None)
        probe_report, probe_requests = run(2)
        assert probe_report.qps == bcast_report.qps
        assert probe_report.latency_p99_s == bcast_report.latency_p99_s
        assert probe_report.energy_j == bcast_report.energy_j
        assert probe_report.shard_utilization == bcast_report.shard_utilization
        assert probe_report.mean_probes_per_query == 2.0
        for a, b in zip(bcast_requests, probe_requests):
            assert a.outcome == b.outcome
            assert a.completion_s == b.completion_s
            if a.result_ids is not None:
                np.testing.assert_array_equal(a.result_ids, b.result_ids)
                np.testing.assert_array_equal(a.result_dists, b.result_dists)

    def test_selective_probing_leaves_unprobed_shards_idle(
        self, small_vectors, config
    ):
        """nprobe=1 books device time only on the shards queries probed."""
        router = build_router(
            small_vectors, num_shards=4, config=config, mode=PARTITIONED, seed=4
        )
        # A tight pool drawn from one shard's sub-corpus: with nprobe=1
        # every query routes to a strict subset of the pool.
        members = router.global_ids[0][:12]
        tight_pool = np.ascontiguousarray(small_vectors[members] + 0.01)
        assignment = router.probe(tight_pool, 1)
        probed = set(int(s) for s in np.unique(assignment))
        assert len(probed) < router.num_shards  # precondition: some idle
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3),
                cache_capacity=0,
                coalesce=False,
                nprobe=1,
            ),
        )
        report = frontend.run(make_stream(tight_pool, n=60), tight_pool)
        assert report.completed == 60
        assert report.mean_probes_per_query == 1.0
        for shard in range(router.num_shards):
            if shard not in probed:
                assert frontend.devices[shard].busy_s == 0.0
                assert frontend.devices[shard].batches_served == 0
                assert frontend.metrics.shard_batches[shard] == 0
                assert report.shard_probe_counts[shard] == 0
                assert report.shard_utilization[shard] == 0.0

    def test_selective_probing_returns_valid_global_ids(
        self, small_vectors, pool, config
    ):
        router = build_router(
            small_vectors, num_shards=4, config=config, mode=PARTITIONED, seed=4
        )
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3),
                cache_capacity=0,
                coalesce=False,
                nprobe=2,
            ),
        )
        requests = make_stream(pool, n=60)
        report = frontend.run(requests, pool)
        assert report.completed == 60
        for request in requests:
            assert request.result_ids is not None
            valid = request.result_ids >= 0
            assert valid.any()
            assert request.result_ids[valid].max() < small_vectors.shape[0]
            # A query's completion joins only its own probed shards, so
            # it is still a real fan-out join time.
            assert request.completion_s >= request.batched_s

    def test_nprobe_validation(self, small_vectors, pool, config):
        replicated = build_router(small_vectors, num_shards=2, config=config)
        with pytest.raises(ValueError):
            ServingFrontend(replicated, ServingConfig(nprobe=1))
        partitioned = build_router(
            small_vectors, num_shards=2, config=config, mode=PARTITIONED, seed=4
        )
        with pytest.raises(ValueError):
            ServingFrontend(partitioned, ServingConfig(nprobe=3))
        with pytest.raises(ValueError):
            ServingFrontend(partitioned, ServingConfig(nprobe=0))
        # A partitioned router assembled without routing centroids must
        # fail at construction, not mid-run on the first dispatch.
        from repro.serving import ShardRouter

        centroidless = ShardRouter(
            backends=list(partitioned.backends),
            mode=PARTITIONED,
            global_ids=partitioned.global_ids,
        )
        with pytest.raises(ValueError):
            ServingFrontend(centroidless, ServingConfig(nprobe=1))

    def test_greedy_policy_batch_of_one(self, small_vectors, pool, config):
        router = build_router(small_vectors, num_shards=1, config=config)
        frontend = ServingFrontend(
            router, ServingConfig(policy=BatchPolicy(mode="greedy"), cache_capacity=0)
        )
        report = frontend.run(make_stream(pool, n=40), pool)
        assert report.mean_batch_size == 1.0
        assert report.completed == 40
        assert report.cache_hits == 0


class TestAdmission:
    def test_overload_sheds_and_books_balance(self, small_vectors, pool, config):
        router = build_router(small_vectors, num_shards=1, config=config)
        # Fixed batches of 64 never fill from 80 requests, so the queue
        # grows until admission (capacity 10) starts shedding.
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(max_batch_size=64, max_wait_s=0.0, mode="fixed"),
                cache_capacity=0,
                admission_capacity=10,
            ),
        )
        requests = make_stream(pool, n=80, rate=10000.0)
        report = frontend.run(requests, pool)
        assert report.shed > 0
        assert report.served + report.shed == 80
        assert report.shed_rate == pytest.approx(report.shed / 80)
        shed_requests = [r for r in requests if r.outcome == SHED]
        assert len(shed_requests) == report.shed
        assert all(r.completion_s is None for r in shed_requests)

    def test_unbounded_never_sheds(self, small_vectors, pool, config):
        router = build_router(small_vectors, num_shards=1, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(policy=BatchPolicy(max_batch_size=4, max_wait_s=1e-3)),
        )
        report = frontend.run(make_stream(pool, n=60, rate=50000.0), pool)
        assert report.shed == 0
        assert report.served == 60


@pytest.mark.slow
class TestSoak:
    """Long-stream soak (excluded from the default tier-1 run)."""

    def test_long_bursty_stream_stays_consistent(self, small_vectors, pool, config):
        from repro.serving import MMPPArrivals

        router = build_router(small_vectors, num_shards=2, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
                cache_capacity=64,
                admission_capacity=512,
            ),
        )
        stream = QueryStream(
            MMPPArrivals(5000.0),
            pool_size=pool.shape[0],
            n_requests=3000,
            k=5,
            zipf_exponent=1.0,
            seed=23,
        ).generate()
        report = frontend.run(stream, pool)
        assert report.served + report.shed == 3000
        assert report.cache_hits > 0
        assert report.latency_p50_s <= report.latency_p99_s
        assert report.qps > 0


class TestMixedK:
    def test_mixed_k_requests_in_one_batch(self, small_vectors, pool, config):
        """Each request gets exactly its own k results and cache key."""
        router = build_router(small_vectors, num_shards=1, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(policy=BatchPolicy(max_batch_size=4, max_wait_s=1e-3)),
        )
        requests = make_stream(pool, n=12)
        for i, request in enumerate(requests):
            request.k = 3 if i % 2 else 7
        frontend.run(requests, pool)
        for i, request in enumerate(requests):
            want = 3 if i % 2 else 7
            if request.outcome == COMPLETED:
                assert request.result_ids.shape == (want,)
                assert frontend.cache.lookup(request.query_id, want) is not None
            elif request.outcome == "cache_hit":
                assert request.result_ids.shape == (want,)

    def test_dispatched_results_are_copies_not_batch_views(
        self, small_vectors, pool, config
    ):
        """Regression: result rows must own their data.  Views into the
        batch's (n, k) arrays pinned the whole batch in memory and let
        a client mutating one request's results write through into the
        shared buffer other requests and the coalescer read from."""
        router = build_router(small_vectors, num_shards=1, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(policy=BatchPolicy(max_batch_size=4, max_wait_s=1e-3)),
        )
        requests = make_stream(pool, n=8, rate=100000.0)
        frontend.run(requests, pool)
        completed = [r for r in requests if r.outcome == COMPLETED]
        assert len(completed) >= 2
        # Each result owns its buffer (no view keeping the batch alive).
        for request in completed:
            assert request.result_ids.base is None
            assert request.result_dists.base is None
        victim, sibling = completed[0], completed[1]
        cached_before = frontend.cache.lookup(victim.query_id, victim.k)
        sibling_before = sibling.result_ids.copy()
        victim.result_ids[:] = -123
        victim.result_dists[:] = -1.0
        # Neither the cache nor a sibling request from the same batch
        # sees the mutation.
        cached_after = frontend.cache.lookup(victim.query_id, victim.k)
        np.testing.assert_array_equal(cached_before[0], cached_after[0])
        assert (cached_after[0] != -123).all()
        np.testing.assert_array_equal(sibling.result_ids, sibling_before)

    def test_mutating_results_cannot_corrupt_coalesced_followers(
        self, small_vectors, pool, config
    ):
        """A follower resolving against an in-flight entry must not see
        a client's in-place mutation of the leader's results."""
        router = build_router(small_vectors, num_shards=1, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(max_batch_size=1),
                cache_capacity=0,
                coalesce=True,
            ),
        )
        leader = Request(0, 3, 0.0, k=5)
        requests = [leader, Request(1, 3, 1e-7, k=5)]
        # Run manually: dispatch happens while processing the leader,
        # so mutate its results "from the client side" in between by
        # replaying the run and mutating afterwards — the follower
        # already resolved from the coalescer's private copy.
        frontend.run(requests, pool)
        follower = requests[1]
        assert follower.outcome == "coalesced"
        follower_before = follower.result_ids.copy()
        leader.result_ids[:] = -99
        np.testing.assert_array_equal(follower.result_ids, follower_before)
        assert (follower.result_ids != -99).all()

    def test_cache_hit_result_is_isolated(self, small_vectors, pool, config):
        """Mutating a returned result must not corrupt the cache."""
        router = build_router(small_vectors, num_shards=1, config=config)
        frontend = ServingFrontend(
            router, ServingConfig(policy=BatchPolicy(max_batch_size=1))
        )
        requests = make_stream(pool, n=2, zipf=0.0)
        requests[1].query_id = requests[0].query_id  # force a repeat
        frontend.run(requests, pool)
        assert requests[1].outcome == "cache_hit"
        requests[1].result_ids[:] = -99
        fresh = frontend.cache.lookup(requests[0].query_id, 5)
        assert fresh is not None and (fresh[0] != -99).all()

class TestReportSerialization:
    """ServingReport.to_dict / from_dict round-trip (the JSON surface
    the CLI's --report-json and the bench sweep artifacts persist)."""

    def _report(self, small_vectors, pool, config, **extra):
        router = build_router(small_vectors, num_shards=2, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3),
                **extra,
            ),
        )
        return frontend.run(make_stream(pool), pool)

    def test_to_dict_is_json_safe(self, small_vectors, pool, config):
        import json

        report = self._report(
            small_vectors, pool, config, metrics_window_s=1e-3
        )
        payload = report.to_dict()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == json.loads(text)
        # Derived conveniences ride along for consumers.
        assert payload["served"] == report.served
        assert payload["counters"]["loop_events_total"] > 0
        assert payload["timeseries"]["windows"]

    def test_round_trip_restores_the_report(
        self, small_vectors, pool, config
    ):
        import json

        from repro.serving.metrics import ServingReport

        report = self._report(
            small_vectors, pool, config, metrics_window_s=1e-3
        )
        wire = json.loads(json.dumps(report.to_dict()))
        restored = ServingReport.from_dict(wire)
        assert restored == report
        assert restored.to_dict() == report.to_dict()
        # Restored reports still compute and format.
        assert restored.served == report.served
        assert restored.format()


class TestWindowedCounters:
    def test_window_counters_sum_to_report_scalars(self):
        """Every terminal outcome feeds the windowed series once.

        A windowed run with cache hits, coalesced followers, sheds and
        (mostly missed) deadlines: each window counter summed over the
        windows equals the report's scalar of the same name.
        """
        from dataclasses import replace

        from repro.serving.scenario import SCENARIOS

        cell = SCENARIOS["coalesce-zipf-bursty"]
        scenario = replace(
            cell,
            slo_s=1e-5,
            serving=replace(
                cell.serving,
                cache_capacity=64,
                admission_capacity=4,
                metrics_window_s=1e-3,
            ),
        )
        report, _ = scenario.run()
        assert report.cache_hits and report.coalesced and report.shed
        assert report.deadline_misses
        windows = report.timeseries["windows"]
        expected = {
            "arrivals": report.offered,
            "completions": report.completed,
            "cache_hits": report.cache_hits,
            "coalesced": report.coalesced,
            "shed": report.shed,
            "deadline_misses": report.deadline_misses,
        }
        got = {
            name: sum(w["counters"].get(name, 0.0) for w in windows)
            for name in expected
        }
        assert got == expected
