"""SLO-aware serving: service model, slo batch policy, priority
admission and autoscaling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NDSearchConfig
from repro.serving import (
    AutoscalePolicy,
    BatchPolicy,
    PoissonArrivals,
    QueryStream,
    ServiceModel,
    ServingConfig,
    ServingFrontend,
    ShardDevice,
    build_router,
)
from repro.serving.admission import select_victim, urgency_key
from repro.serving.autoscale import Autoscaler
from repro.serving.batcher import DynamicBatcher
from repro.serving.request import COMPLETED, SHED, Request
from repro.serving.sharding import PARTITIONED
from repro.sim.stats import SimResult, serial_timeline


@pytest.fixture(scope="module")
def config():
    return NDSearchConfig.scaled()


@pytest.fixture(scope="module")
def pool(small_vectors):
    return np.ascontiguousarray(small_vectors[:24] + 0.02)


def slo_stream(pool, *, n=200, rate=3000.0, slo=None, seed=11,
               priorities=(0,), weights=None):
    return QueryStream(
        PoissonArrivals(rate),
        pool_size=pool.shape[0],
        n_requests=n,
        k=5,
        zipf_exponent=0.0,
        seed=seed,
        priorities=priorities,
        priority_weights=weights,
        slo_s=slo,
    ).generate()


class TestServiceModel:
    def test_uncalibrated_returns_none(self):
        model = ServiceModel()
        assert not model.calibrated
        assert model.estimate_chain(8) is None
        assert model.estimate(8) is None

    def test_affine_fit_recovers_per_resource_model(self):
        """duration = a + b*n per resource is recovered exactly from
        exact affine observations."""
        model = ServiceModel()
        for n in (2, 8, 16, 32):
            model.observe(
                n,
                [("read", 1e-3 + 2e-5 * n), ("mac", 5e-4 + 1e-5 * n)],
            )
        chain = model.estimate_chain(24)
        assert [r for r, _ in chain] == ["read", "mac"]
        assert chain[0][1] == pytest.approx(1e-3 + 2e-5 * 24, rel=1e-9)
        assert chain[1][1] == pytest.approx(5e-4 + 1e-5 * 24, rel=1e-9)
        assert model.estimate(24) == pytest.approx(
            1e-3 + 2e-5 * 24 + 5e-4 + 1e-5 * 24, rel=1e-9
        )

    def test_single_size_scales_proportionally(self):
        """One observed size: proportional scaling (over-predicting
        small batches, the safe direction for deadline closes)."""
        model = ServiceModel()
        model.observe(10, [("device", 1e-2)])
        assert model.estimate(10) == pytest.approx(1e-2)
        assert model.estimate(20) == pytest.approx(2e-2)
        assert model.estimate(5) == pytest.approx(5e-3)

    def test_estimates_never_negative(self):
        """A fitted negative intercept cannot produce a negative
        stage estimate for tiny batches."""
        model = ServiceModel()
        model.observe(10, [("device", 1e-3)])
        model.observe(100, [("device", 1e-1)])
        assert model.estimate(1) >= 0.0

    def test_rejects_degenerate_batches(self):
        with pytest.raises(ValueError):
            ServiceModel().observe(0, [("device", 1.0)])


class TestUrgency:
    def test_priority_dominates_then_deadline(self):
        low = Request(0, 0, 0.0, priority=0, deadline_s=1.0)
        high_late = Request(1, 0, 0.0, priority=1, deadline_s=9.0)
        high_soon = Request(2, 0, 0.0, priority=1, deadline_s=2.0)
        best_effort = Request(3, 0, 0.0, priority=1)
        order = sorted(
            [low, high_late, high_soon, best_effort], key=urgency_key
        )
        assert order[0] is low             # lowest priority: least urgent
        assert order[1] is best_effort     # no deadline: last in class
        assert order[2] is high_late
        assert order[3] is high_soon

    def test_select_victim_requires_strictly_less_urgent(self):
        queued = [
            Request(0, 0, 0.0, priority=1, deadline_s=1.0),
            Request(1, 0, 0.0, priority=0, deadline_s=5.0),
        ]
        incoming = Request(2, 0, 0.1, priority=1, deadline_s=0.5)
        assert select_victim(queued, incoming) is queued[1]
        # An equal-urgency arrival does not churn the queue.
        peer = Request(3, 0, 0.1, priority=0, deadline_s=5.0)
        assert select_victim([queued[1]], peer) is None
        assert select_victim([], incoming) is None


def _stage_result(duration, batch=4):
    timeline = serial_timeline([("work", "engine", duration)])
    return SimResult("x", "hnsw", "synthetic", batch, duration,
                     timeline=timeline)


def _chain_result(stages, batch=4):
    timeline = serial_timeline(stages)
    return SimResult("x", "hnsw", "synthetic", batch, timeline[-1].end,
                     timeline=timeline)


class TestSloBatcher:
    def _predictor(self, service_per_batch):
        """Unqueued predictor: completion = close + flat service."""
        return lambda n, at: at + service_per_batch

    def test_requires_predictor(self):
        # The batcher stores no predictor; slo mode asks for one at
        # the point of use.
        batcher = DynamicBatcher(BatchPolicy(mode="slo"))
        batcher.offer(Request(0, 0, 1.0, deadline_s=2.0))
        with pytest.raises(ValueError, match="predictor"):
            batcher.deadline()
        with pytest.raises(ValueError, match="predictor"):
            batcher.expired(1.0)

    def test_loose_deadline_caps_at_max_wait(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=2e-3, mode="slo")
        )
        batcher.offer(Request(0, 0, 1.0, deadline_s=2.0))
        # Plenty of slack: the staleness cap (arrival + max_wait) rules.
        assert batcher.deadline(self._predictor(1e-3)) == pytest.approx(1.002)

    def test_tight_deadline_closes_before_predicted_breach(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=10e-3, mode="slo")
        )
        batcher.offer(Request(0, 0, 1.0, deadline_s=1.005))
        # Latest close meeting the deadline: 1.005 - 0.002 service.
        deadline = batcher.deadline(self._predictor(2e-3))
        assert deadline == pytest.approx(1.003)
        assert not batcher.expired(1.0025, deadline)
        assert batcher.expired(1.003, deadline)

    def test_margin_closes_earlier(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=10e-3, mode="slo",
                        slo_margin_s=1e-3)
        )
        batcher.offer(Request(0, 0, 1.0, deadline_s=1.005))
        assert batcher.deadline(self._predictor(2e-3)) == pytest.approx(1.002)

    def test_most_urgent_member_drives_the_close(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=10e-3, mode="slo")
        )
        predictor = self._predictor(2e-3)
        batcher.offer(Request(0, 0, 1.0, deadline_s=1.009))
        assert batcher.deadline(predictor) == pytest.approx(1.007)
        batcher.offer(Request(1, 1, 1.001, deadline_s=1.004))
        # The new, tighter member pulls the close earlier.
        assert batcher.deadline(predictor) == pytest.approx(1.002)

    def test_infeasible_deadline_floors_at_newest_arrival(self):
        """A deadline that cannot be met even by closing now closes
        immediately (floored at the newest member's arrival)."""
        drain_until = 5.0

        def queued_predictor(n, at):
            return max(at, drain_until) + 2e-3

        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=10e-3, mode="slo")
        )
        batcher.offer(Request(0, 0, 1.0, deadline_s=1.004))
        deadline = batcher.deadline(queued_predictor)
        assert deadline == pytest.approx(1.0)
        assert batcher.expired(1.0, deadline)

    def test_deadline_free_members_fall_back_to_max_wait(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=2e-3, mode="slo")
        )
        batcher.offer(Request(0, 0, 1.0))
        assert batcher.deadline(self._predictor(1e-3)) == pytest.approx(1.002)

    def test_uncalibrated_predictor_falls_back_to_max_wait(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=2e-3, mode="slo")
        )
        batcher.offer(Request(0, 0, 1.0, deadline_s=1.0005))
        assert batcher.deadline(lambda n, at: None) == pytest.approx(1.002)


class TestSloServing:
    def run_policy(self, router, pool, policy, *, n=250, rate=4000.0,
                   slo=6e-3, priority_admission=False, capacity=None):
        requests = slo_stream(pool, n=n, rate=rate, slo=slo)
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=policy,
                cache_capacity=0,
                coalesce=False,
                admission_capacity=capacity,
                priority_admission=priority_admission,
            ),
        )
        return frontend.run(requests, pool), requests

    def test_slo_policy_meets_deadlines_a_long_wait_would_miss(
        self, small_vectors, pool, config
    ):
        """Against a max-wait policy whose wait alone exceeds the
        deadline, the slo policy closes early enough to meet it."""
        router = build_router(small_vectors, num_shards=1, config=config)
        lazy = BatchPolicy(max_batch_size=64, max_wait_s=20e-3)
        slo = BatchPolicy(max_batch_size=64, max_wait_s=20e-3, mode="slo")
        lazy_report, _ = self.run_policy(router, pool, lazy)
        slo_report, slo_requests = self.run_policy(router, pool, slo)
        assert slo_report.deadline_total == lazy_report.deadline_total > 0
        assert slo_report.deadline_miss_rate < lazy_report.deadline_miss_rate
        assert slo_report.goodput_qps > lazy_report.goodput_qps
        # The adaptive close still batches where slack allows: the
        # calibration batches aside, batch sizes stay above greedy.
        assert slo_report.mean_batch_size >= 1.0
        # Reported attainment matches the per-request ground truth.
        met = sum(
            1 for r in slo_requests
            if r.done and r.completion_s <= r.deadline_s
        )
        assert slo_report.deadline_total - slo_report.deadline_misses == met

    def test_slo_deadline_metrics_report_consistency(
        self, small_vectors, pool, config
    ):
        router = build_router(small_vectors, num_shards=1, config=config)
        report, requests = self.run_policy(
            router, pool,
            BatchPolicy(max_batch_size=16, max_wait_s=4e-3, mode="slo"),
        )
        assert report.deadline_total == len(requests)
        assert 0.0 <= report.deadline_miss_rate <= 1.0
        stats = report.priority_stats[0]
        assert stats["offered"] == len(requests)
        assert stats["met"] == report.deadline_total - report.deadline_misses

    def test_slo_policy_works_partitioned(self, small_vectors, pool, config):
        """Drain prediction joins on the slowest shard in partitioned
        mode; the policy must run there too."""
        router = build_router(
            small_vectors, num_shards=2, config=config, mode=PARTITIONED,
            seed=4,
        )
        report, _ = self.run_policy(
            router, pool,
            BatchPolicy(max_batch_size=16, max_wait_s=4e-3, mode="slo"),
            n=120,
        )
        assert report.served == 120
        assert report.deadline_total == 120

    def test_slo_policy_still_batches_with_selective_probing(
        self, small_vectors, pool, config
    ):
        """Under nprobe the predictor estimates the *expected*
        sub-batch chain instead of pricing a full-size batch on every
        shard — a pessimistic full-pool prediction would declare every
        deadline infeasible and collapse batches toward size one."""
        router = build_router(
            small_vectors, num_shards=4, config=config, mode=PARTITIONED,
            seed=4,
        )
        requests = slo_stream(pool, n=160, rate=4000.0, slo=6e-3)
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(
                    max_batch_size=16, max_wait_s=4e-3, mode="slo"
                ),
                cache_capacity=0,
                coalesce=False,
                nprobe=2,
            ),
        )
        report = frontend.run(requests, pool)
        assert report.served == 160
        assert report.mean_batch_size > 2.0
        assert report.deadline_miss_rate <= 0.05

    def test_all_shed_class_attains_nothing(self):
        """A class whose deadline-carrying requests were all shed must
        report 0 attainment, not a vacuous 100%."""
        from repro.serving.metrics import MetricsCollector

        collector = MetricsCollector(1)
        request = Request(0, 0, 0.0, priority=1, deadline_s=1e-3)
        collector.observe_arrival(request, 0)
        request.outcome = SHED
        collector.observe_outcome(request, 0.0)
        report = collector.report()
        assert report.priority_stats[1]["attainment"] == 0.0
        assert report.deadline_miss_rate == 1.0


class TestPriorityAdmission:
    def overload(self, router, pool, *, priority_admission):
        requests = slo_stream(
            pool, n=240, rate=60000.0, slo={1: 8e-3},
            priorities=(0, 1), weights=(0.7, 0.3), seed=13,
        )
        frontend = ServingFrontend(
            router,
            ServingConfig(
                policy=BatchPolicy(max_batch_size=8, max_wait_s=2e-3),
                cache_capacity=0,
                coalesce=False,
                admission_capacity=12,
                priority_admission=priority_admission,
            ),
        )
        report = frontend.run(requests, pool)
        return report, requests, frontend

    def test_preemption_sheds_lowest_priority_first(
        self, small_vectors, pool, config
    ):
        router = build_router(small_vectors, num_shards=1, config=config)
        fifo_report, fifo_requests, _ = self.overload(
            router, pool, priority_admission=False
        )
        prio_report, prio_requests, frontend = self.overload(
            router, pool, priority_admission=True
        )
        assert fifo_report.shed > 0 and prio_report.shed > 0
        shed_high_fifo = sum(
            1 for r in fifo_requests if r.outcome == SHED and r.priority == 1
        )
        shed_high_prio = sum(
            1 for r in prio_requests if r.outcome == SHED and r.priority == 1
        )
        # Priority admission protects the high class under overload.
        assert shed_high_prio < shed_high_fifo
        assert frontend.admission.preemptions > 0
        # Books balance: preemption swaps, never loses, requests.
        assert prio_report.served + prio_report.shed == 240
        done = [r for r in prio_requests if r.done]
        shed = [r for r in prio_requests if r.outcome == SHED]
        assert len(done) == prio_report.served
        assert len(shed) == prio_report.shed
        high = prio_report.priority_stats[1]
        low = prio_report.priority_stats[0]
        assert high["shed"] / high["offered"] < low["shed"] / low["offered"]

    def test_preemption_disabled_without_flag(
        self, small_vectors, pool, config
    ):
        router = build_router(small_vectors, num_shards=1, config=config)
        _, _, frontend = self.overload(router, pool, priority_admission=False)
        assert frontend.admission.preemptions == 0


class TestAutoscaler:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(interval_s=0.0)
        with pytest.raises(ValueError):
            AutoscalePolicy(low_utilization=0.9, high_utilization=0.8)
        with pytest.raises(ValueError):
            AutoscalePolicy(low_queue_depth=20.0, high_queue_depth=10.0)

    def test_scales_up_on_saturation_and_down_when_idle(self):
        policy = AutoscalePolicy(
            min_replicas=1, max_replicas=4, interval_s=1.0,
            high_utilization=0.8, low_utilization=0.2,
            high_queue_depth=10.0, low_queue_depth=1.0,
        )
        scaler = Autoscaler(policy)
        assert scaler.decide(0.0, 1, [0.0]) == 1  # first call arms the epoch
        # A saturated epoch (busy delta == window) scales up.
        assert scaler.decide(1.0, 1, [1.0]) == 2
        assert scaler.events[-1].reason == "high utilization"
        # A deep queue scales up even at modest utilization.
        for _ in range(40):
            scaler.observe_depth(50)
        assert scaler.decide(2.0, 2, [1.3, 0.3]) == 3
        assert scaler.events[-1].reason == "deep queue"
        # Idle epochs walk back down one step per epoch.
        assert scaler.decide(3.0, 3, [1.3, 0.3, 0.0]) == 2
        assert scaler.events[-1].reason == "idle capacity"
        assert scaler.decide(4.0, 2, [1.3, 0.3, 0.0]) == 1
        # Floor: never below min_replicas.
        assert scaler.decide(5.0, 1, [1.3, 0.3, 0.0]) == 1

    def test_multi_epoch_catch_up_with_scale_up_does_not_crash(self):
        """Regression: a catch-up spanning several epochs whose first
        evaluation scales up used to index busy_s past its end (the
        frontend grows the device list only after decide() returns)."""
        policy = AutoscalePolicy(min_replicas=1, max_replicas=4,
                                 interval_s=0.05)
        scaler = Autoscaler(policy)
        scaler.decide(0.0, 1, [0.0])
        active = scaler.decide(1.0, 1, [0.10])  # 20 epochs at once
        assert 1 <= active <= 4
        # Committed busy spreads across the epochs it spans (carry):
        # the first saturated epoch scales up; the second spends the
        # carried 0.05 s over the now-2-replica pool (util 0.5, inside
        # the hysteresis band), and only then does the idle tail walk
        # back down — no phantom oscillation.
        ups = [e for e in scaler.events if e.replicas_after > e.replicas_before]
        assert len(ups) == 1
        assert ups[0].utilization == 1.0
        downs = [e for e in scaler.events if e.replicas_after < e.replicas_before]
        assert all(e.time_s > ups[0].time_s for e in downs)
        assert active == 1  # idle tail returns the pool to the floor

    def test_predictor_mirrors_the_dispatch_rule(self, small_vectors, config):
        """Regression: replicated prediction must price the device
        dispatch will pick (earliest entry/drain), not the device with
        the soonest predicted completion — an optimistic min() held
        batches open past deadlines the real dispatch then missed."""
        router = build_router(small_vectors, num_shards=2, config=config)
        frontend = ServingFrontend(
            router,
            ServingConfig(policy=BatchPolicy(max_batch_size=8)),
        )
        # Device A: entry frees late (t=5) but drains by 9.
        # Device B: entry frees early (t=2) but drains at 13.
        frontend.devices[0].serve(
            _chain_result([("s", "entry", 5.0), ("t", "out", 4.0)]), 0.0
        )
        frontend.devices[1].serve(
            _chain_result([("s", "entry", 2.0), ("t", "out", 11.0)]), 0.0
        )
        for n in (4, 8):  # constant chain: the fit is size-independent
            frontend.service_model.observe(n, [("entry", 1.0), ("out", 3.0)])
        # Dispatch key (earliest_start, drain_at) picks B: (2, 13) < (5, 9).
        # B runs entry[2,3] then out[max(3,13)=13,16] -> completes 16.
        # The old min-completion prediction reported A's 12 instead.
        assert frontend.predict_completion(4, 0.0) == pytest.approx(16.0)

    def test_long_gap_steps_one_epoch_at_a_time(self):
        policy = AutoscalePolicy(min_replicas=1, max_replicas=8,
                                 interval_s=1.0)
        scaler = Autoscaler(policy)
        scaler.decide(0.0, 4, [0.0] * 4)
        # Ten idle epochs elapse at once: sheds one replica per epoch.
        assert scaler.decide(10.0, 4, [0.0] * 4) == 1
        assert len(scaler.events) == 3

    def test_autoscaling_requires_replicated_mode(
        self, small_vectors, config
    ):
        router = build_router(
            small_vectors, num_shards=2, config=config, mode=PARTITIONED,
            seed=4,
        )
        with pytest.raises(ValueError):
            ServingFrontend(
                router, ServingConfig(autoscale=AutoscalePolicy())
            )

    def test_autoscale_rejects_a_pool_larger_than_its_ceiling(
        self, small_vectors, config
    ):
        """An explicitly built pool must not be silently clamped below
        its size — replicas the dispatcher would never use."""
        router = build_router(small_vectors, num_shards=3, config=config)
        with pytest.raises(ValueError):
            ServingFrontend(
                router,
                ServingConfig(autoscale=AutoscalePolicy(max_replicas=2)),
            )

    def test_autoscaled_run_sheds_less_and_holds_the_tail(
        self, small_vectors, pool, config
    ):
        """Offered load above one replica's capacity: the autoscaled
        pool grows, sheds less and holds a lower p99 than the static
        single replica (the acceptance shape of the benchmark sweep)."""
        router_static = build_router(small_vectors, num_shards=1, config=config)

        def run(autoscale):
            router = build_router(small_vectors, num_shards=1, config=config)
            requests = slo_stream(pool, n=400, rate=25000.0, seed=21)
            # Small batches at this rate close faster than one device
            # drains them, so the static pool's in-service backlog — not
            # the batcher queue — is what fills the admission bound.
            frontend = ServingFrontend(
                router,
                ServingConfig(
                    policy=BatchPolicy(max_batch_size=4, max_wait_s=2e-3),
                    cache_capacity=0,
                    coalesce=False,
                    admission_capacity=48,
                    autoscale=autoscale,
                ),
            )
            return frontend.run(requests, pool), frontend

        static_report, _ = run(None)
        scaled_report, frontend = run(
            AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_s=2e-3,
                high_utilization=0.7, high_queue_depth=8.0,
            )
        )
        assert static_report.shed > 0
        assert scaled_report.shed < static_report.shed
        assert scaled_report.latency_p99_s < static_report.latency_p99_s
        assert scaled_report.scale_events, "overload must trigger scaling"
        assert scaled_report.replicas_final > 1
        assert frontend.router.num_shards == len(frontend.devices)
        # Replicas share the index: results identical to static serving
        # (spot-check recall parity is covered by the sweep; here the
        # books must balance).
        assert scaled_report.served + scaled_report.shed == 400
        assert len(scaled_report.shard_utilization) == len(frontend.devices)
        assert router_static.num_shards == 1  # untouched control

    def test_scale_events_are_json_friendly(self):
        import json

        policy = AutoscalePolicy(interval_s=1.0)
        scaler = Autoscaler(policy)
        scaler.decide(0.0, 1, [0.0])
        scaler.decide(1.0, 1, [1.0])
        payload = [e.to_dict() for e in scaler.events]
        assert json.loads(json.dumps(payload)) == payload


class TestStreamSloGeneration:
    def test_priorities_and_deadlines(self, pool):
        requests = slo_stream(
            pool, n=300, slo={1: 5e-3}, priorities=(0, 1),
            weights=(0.5, 0.5),
        )
        assert {r.priority for r in requests} == {0, 1}
        for r in requests:
            if r.priority == 1:
                assert r.deadline_s == pytest.approx(r.arrival_s + 5e-3)
            else:
                assert r.deadline_s is None

    def test_scalar_slo_applies_to_all(self, pool):
        requests = slo_stream(pool, n=50, slo=2e-3)
        assert all(
            r.deadline_s == pytest.approx(r.arrival_s + 2e-3)
            for r in requests
        )

    def test_validation(self, pool):
        with pytest.raises(ValueError):
            slo_stream(pool, n=10, priorities=())
        with pytest.raises(ValueError):
            slo_stream(pool, n=10, priorities=(0, 1), weights=(1.0,))
        with pytest.raises(ValueError):
            slo_stream(pool, n=10, slo=-1.0)
        with pytest.raises(ValueError):
            slo_stream(pool, n=10, priorities=(0, 1), weights=(0.0, 0.0))

    def test_slo_met_property(self):
        request = Request(0, 0, 1.0, deadline_s=1.01)
        assert request.slo_met is False  # not done yet counts as a miss
        request.outcome = COMPLETED
        request.completion_s = 1.005
        assert request.slo_met is True
        request.completion_s = 1.02
        assert request.slo_met is False
        assert Request(1, 0, 1.0).slo_met is None