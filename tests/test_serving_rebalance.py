"""Partitioned-pool rebalancing: policy, migrations, determinism."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.serving import (
    RebalancePolicy,
    Rebalancer,
    ServingConfig,
    ServingFrontend,
)
from repro.serving.request import COMPLETED
from repro.serving.scenario import SCENARIOS

#: The skewed partitioned cell: a Zipfian stream routed with nprobe=1
#: over 4 devices x 2 clusters, so the devices owning the popular
#: clusters run hot.
SKEWED = SCENARIOS["partitioned-skewed-flash"]


def run_partitioned(rebalance):
    """Serve the skewed cell on ideal storage under ``rebalance``."""
    scenario = replace(
        SKEWED,
        serving=replace(SKEWED.serving, flash=None, rebalance=rebalance),
    )
    _, pool = scenario.vectors_and_pool()
    frontend = scenario.frontend()
    requests = scenario.requests()
    report = frontend.run(requests, pool)
    return report, requests, frontend


REBALANCE = RebalancePolicy(
    interval_s=2e-3, skew_threshold=0.25, migration_gbps=1.0
)


class TestPolicyValidation:
    def test_policy_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RebalancePolicy(interval_s=0.0)
        with pytest.raises(ValueError):
            RebalancePolicy(skew_threshold=0.0)
        with pytest.raises(ValueError):
            RebalancePolicy(migration_gbps=0.0)
        with pytest.raises(ValueError):
            RebalancePolicy(max_concurrent=0)
        with pytest.raises(ValueError):
            RebalancePolicy(min_window_queries=-1)

    def test_rebalancer_needs_two_devices(self):
        with pytest.raises(ValueError):
            Rebalancer(REBALANCE, num_shards=1, num_clusters=2)

    def test_rebalance_requires_partitioned_mode(self):
        replicated = replace(SCENARIOS["batch-x1-hi"], num_shards=2).router()
        with pytest.raises(ValueError):
            ServingFrontend(
                replicated, ServingConfig(rebalance=REBALANCE)
            )


class TestDecisions:
    """Unit-level decision logic on synthetic signals."""

    def _armed(self, num_shards=2, num_clusters=4):
        r = Rebalancer(REBALANCE, num_shards, num_clusters)
        r.arm(0.0, [0.0] * num_shards)
        return r

    def test_skew_triggers_gap_minimising_migration(self):
        r = self._armed()
        cluster_shard = np.array([0, 0, 1, 1])
        # Shard 0 is hot; cluster 1 carries most of its load, but
        # moving cluster 0 (1/4 of the load) closes the gap best:
        # gap 1.0, load(c0) = 0.25 -> residual 0.5; load(c1) = 0.75
        # -> residual |1.0 - 1.5| = 0.5... tie broken by lower id.
        for cluster, n in ((0, 10), (1, 30)):
            r.observe_cluster_queries(cluster, n)
        window = REBALANCE.interval_s
        proposals = r.decide(window, [window, 0.0], cluster_shard)
        assert len(proposals) == 1
        p = proposals[0]
        assert (p.source, p.dest) == (0, 1)
        assert p.cluster == 0  # residual tie -> deterministic lowest id
        assert p.utilization_gap == pytest.approx(1.0)

    def test_gap_minimising_cluster_wins_among_several(self):
        r = self._armed(num_shards=2, num_clusters=4)
        cluster_shard = np.array([0, 0, 0, 1])
        # Shard 0 at util 1.0 vs 0.0: cluster loads 0.1 / 0.5 / 0.4
        # leave residual gaps 0.8 / 0.0 / 0.2 -> cluster 1 moves.
        for cluster, n in ((0, 2), (1, 10), (2, 8)):
            r.observe_cluster_queries(cluster, n)
        window = REBALANCE.interval_s
        proposals = r.decide(window, [window, 0.0], cluster_shard)
        assert proposals[0].cluster == 1

    def test_quiet_window_and_low_skew_do_nothing(self):
        r = self._armed()
        cluster_shard = np.array([0, 0, 1, 1])
        window = REBALANCE.interval_s
        # Deep skew but almost no queries: signal untrusted.
        r.observe_cluster_queries(0, REBALANCE.min_window_queries - 1)
        assert r.decide(window, [window, 0.0], cluster_shard) == []
        # Plenty of queries but balanced load (busy_s is cumulative:
        # both devices add half a window since the last epoch):
        # nothing to fix.
        for cluster in (0, 1, 2, 3):
            r.observe_cluster_queries(cluster, 10)
        assert (
            r.decide(
                2 * window, [1.5 * window, 0.5 * window], cluster_shard
            )
            == []
        )

    def test_single_cluster_source_never_migrates(self):
        r = self._armed(num_shards=2, num_clusters=2)
        cluster_shard = np.array([0, 1])
        r.observe_cluster_queries(0, 100)
        window = REBALANCE.interval_s
        assert r.decide(window, [window, 0.0], cluster_shard) == []

    def test_max_concurrent_caps_inflight(self):
        from repro.serving.rebalance import Migration

        r = self._armed()
        cluster_shard = np.array([0, 0, 1, 1])
        r.begin(
            Migration(
                cluster=2, source=1, dest=0, decided_s=0.0, complete_s=1.0,
                bytes=10, vectors=1, utilization_gap=0.5,
            )
        )
        for cluster in (0, 1):
            r.observe_cluster_queries(cluster, 20)
        window = REBALANCE.interval_s
        assert r.decide(window, [window, 0.0], cluster_shard) == []
        r.finish(r.migrations[0])
        for cluster in (0, 1):
            r.observe_cluster_queries(cluster, 20)
        assert r.decide(2 * window, [2 * window, 0.0], cluster_shard)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def runs(self):
        static = run_partitioned(None)
        rebalanced = run_partitioned(REBALANCE)
        return static, rebalanced

    def test_migrations_happen_and_are_recorded(self, runs):
        (_, _, _), (report, _, frontend) = runs
        assert report.rebalance_events
        assert len(report.cluster_map_final) == 8
        for event in report.rebalance_events:
            assert event["complete_s"] > event["decided_s"]
            assert event["bytes"] > 0
            assert event["vectors"] > 0
            assert event["source"] != event["dest"]
            assert event["utilization_gap"] > REBALANCE.skew_threshold
        # Replaying the migration log over the initial round-robin
        # placement reproduces the final map (flips really committed).
        placement = [c % 4 for c in range(8)]
        for event in report.rebalance_events:
            assert placement[event["cluster"]] == event["source"]
            placement[event["cluster"]] = event["dest"]
        assert tuple(placement) == report.cluster_map_final
        assert frontend.rebalancer.migrations

    def test_migration_never_changes_results(self, runs):
        """Placement moves timing, not data: every request's top-k is
        identical with and without rebalancing."""
        (_, static_requests, _), (_, reb_requests, _) = runs
        assert len(static_requests) == len(reb_requests)
        for a, b in zip(static_requests, reb_requests):
            assert a.outcome == b.outcome == COMPLETED
            np.testing.assert_array_equal(a.result_ids, b.result_ids)
            np.testing.assert_array_equal(a.result_dists, b.result_dists)

    def test_rebalanced_pool_beats_static_under_skew(self, runs):
        """The acceptance shape: under skewed Zipfian load the
        rebalanced pool holds a lower p99 and a higher goodput than
        the static placement."""
        (static, _, _), (rebalanced, _, _) = runs
        assert rebalanced.latency_p99_s < static.latency_p99_s
        assert rebalanced.goodput_qps > static.goodput_qps
        # The win comes from balance: the static pool's hottest device
        # is strictly hotter than the rebalanced pool's hottest.
        assert max(rebalanced.shard_utilization) < max(
            static.shard_utilization
        )

    def test_migration_cost_is_booked_on_both_devices(self):
        """Data movement occupies the source and destination timelines:
        with an absurdly slow migration link, serving gets slower, not
        faster (the cost is real, not free)."""
        free_ish = run_partitioned(
            RebalancePolicy(
                interval_s=2e-3, skew_threshold=0.25, migration_gbps=1000.0,
            ),
        )[0]
        expensive = run_partitioned(
            RebalancePolicy(
                interval_s=2e-3, skew_threshold=0.25, migration_gbps=1e-3,
            ),
        )[0]
        assert expensive.latency_p99_s > free_ish.latency_p99_s


class TestDeterminism:
    """Same seed + config twice -> byte-identical reports (the event
    kernel's (time, rank, seq) order leaves nothing to chance), under
    the stateful controllers too (autoscale, rebalance)."""

    @staticmethod
    def _digest(report, requests) -> str:
        h = hashlib.sha256()
        for r in requests:
            h.update(
                repr(
                    (r.request_id, r.outcome, r.batched_s, r.start_s,
                     r.completion_s)
                ).encode()
            )
            if r.result_ids is not None:
                h.update(r.result_ids.tobytes())
        h.update(repr(report).encode())
        return h.hexdigest()

    def test_rebalanced_run_is_bit_reproducible(self):
        def once():
            report, requests, _ = run_partitioned(REBALANCE)
            return self._digest(report, requests)

        assert once() == once()

    def test_autoscaled_run_is_bit_reproducible(self):
        def once():
            return self._digest(*SCENARIOS["autoscale-overload"].run())

        assert once() == once()
