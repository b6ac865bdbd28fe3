"""Snapshot/restore parity and the serving digital twin.

The incremental re-simulation machinery (PR 10) rests on one claim:
freezing a running serving simulation at a window boundary
(:meth:`ServingFrontend.snapshot`) and resuming it in a *fresh*
frontend (:meth:`ServingFrontend.restore`) is byte-identical to never
having paused.  This suite holds that claim to the same standard as
the event-kernel refactor before it — the 15 pinned legacy-loop
digests in :mod:`test_serving_parity` — by driving every pinned
configuration through snapshot-at-midpoint → restore → finish, plain
and with the full :mod:`repro.obs` instrumentation attached.

The edge cases the window grid does not guarantee are pinned
explicitly: a checkpoint taken while a cluster migration's
``DataMovement`` is still in the event heap, and one taken with a
``FlashMaintenance`` refresh pending.  Both must resume to the same
report as an uninterrupted run.

On top of restore parity, :class:`~repro.serving.twin.ServingTwin` is
checked for the properties the CI twin step asserts: a no-delta
what-if reproduces the from-scratch report byte for byte, repeated
what-ifs hit the content-addressed cache, fork reports never leak twin
bookkeeping, and the base report round-trips its ``twin`` summary
through ``to_dict``/``from_dict``/``format``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import NDSearchConfig
from repro.obs import SpanTracer
from repro.serving import (
    AutoscalePolicy,
    BatchPolicy,
    FlashConfig,
    PoissonArrivals,
    QueryStream,
    RebalancePolicy,
    ServingConfig,
    ServingFrontend,
    build_router,
)
from repro.serving.metrics import ServingReport
from repro.serving.request import Request
from repro.serving.sharding import PARTITIONED
from repro.serving.twin import ServingTwin, TwinCache, config_digest
from repro.sim.events import DataMovement, FlashMaintenance
from repro.sim.snapshot import SNAPSHOT_VERSION, state_digest

from test_serving_parity import (
    CASES,
    CORPUS,
    DIM,
    GOLDEN,
    K,
    POOL,
    REQUESTS,
    STREAM_SEED,
    _SLO_KWARGS,
    _digest,
    _run_case,
    _stream,
)


@pytest.fixture(scope="module")
def corpus_and_pool():
    from repro.data.synthetic import clustered_gaussian, split_queries

    vectors = clustered_gaussian(CORPUS, DIM, seed=31)
    pool = split_queries(vectors, POOL, seed=32)
    return vectors, pool


def _fresh_routers(vectors):
    """A fresh router wrapper per leg.

    The snapshot legs must not share mutable router state (autoscaling
    adds/removes replicas on its router); ``build_router`` memoizes the
    expensive immutable artifacts by content, so fresh wrappers are
    cheap.
    """
    config = NDSearchConfig.scaled()
    spill = dataclasses.replace(
        config, host=dataclasses.replace(
            config.host, dram_capacity_bytes=16 * 1024
        )
    )
    return {
        "x1": build_router(vectors, num_shards=1, config=config),
        "x4": build_router(vectors, num_shards=4, config=config),
        "part4": build_router(
            vectors, num_shards=4, config=config, mode=PARTITIONED, seed=35
        ),
        "cpu2": build_router(
            vectors, num_shards=2, config=spill, platform="cpu"
        ),
        "overload": build_router(vectors, num_shards=1, config=config),
    }


def _poisson_stream(rate=2000.0, zipf=0.0):
    return QueryStream(
        PoissonArrivals(rate), pool_size=POOL, n_requests=REQUESTS, k=K,
        zipf_exponent=zipf, seed=STREAM_SEED,
    ).generate()


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


_BATCH_CFG = dict(cache_capacity=0, coalesce=False)


def _policy():
    return BatchPolicy(max_batch_size=32, max_wait_s=2e-3)


# ---- snapshot → restore → run parity vs the pinned digests ---------------

class TestSnapshotRestoreParity:
    """Every pinned configuration, paused at its midpoint and resumed
    in a fresh frontend, must still hit the legacy-loop digest."""

    @pytest.mark.parametrize(
        "traced", (False, True), ids=("plain", "traced")
    )
    @pytest.mark.parametrize("name", CASES)
    def test_restore_hits_golden_digest(
        self, name, traced, corpus_and_pool
    ):
        vectors, pool = corpus_and_pool
        tracer = SpanTracer() if traced else None
        window = 1e-3 if traced else None
        frontend, requests = _run_case(
            name, _fresh_routers(vectors), pool,
            tracer=tracer, metrics_window_s=window, build_only=True,
        )
        frontend.stream_begin(
            pool, calibrate_k=max(r.k for r in requests)
        )
        frontend.stream_extend(requests)
        t_mid = requests[len(requests) // 2].arrival_s
        frontend.stream_step(t_mid)
        snapshot = frontend.snapshot()
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.time == t_mid

        resumed_tracer = SpanTracer() if traced else None
        resumed, _ = _run_case(
            name, _fresh_routers(vectors), pool,
            tracer=resumed_tracer, metrics_window_s=window,
            build_only=True,
        )
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        got = _digest(report, resumed.stream_requests)
        assert got == GOLDEN[name], (
            f"snapshot→restore→run diverged from the pinned report for "
            f"{name!r}"
            + (" with instrumentation attached" if traced else "")
        )

    def test_snapshot_digest_is_tracer_blind(self, corpus_and_pool):
        # The captured state excludes the span tracer (observe-only by
        # construction), so a traced run and a plain run frozen at the
        # same point produce the same content address.  Windowed
        # metrics, by contrast, ARE simulation state — restore refuses
        # a windows-enabled snapshot into a windows-less frontend —
        # so both legs here run without them.
        vectors, pool = corpus_and_pool
        digests = []
        for tracer in (None, SpanTracer()):
            frontend, requests = _run_case(
                "batch-x4-lo", _fresh_routers(vectors), pool,
                tracer=tracer, build_only=True,
            )
            frontend.stream_begin(
                pool, calibrate_k=max(r.k for r in requests)
            )
            frontend.stream_extend(requests)
            frontend.stream_step(requests[len(requests) // 2].arrival_s)
            digests.append(frontend.snapshot().digest)
        assert digests[0] == digests[1]

    def test_snapshot_is_restorable_twice(self, corpus_and_pool):
        # Restoring deep-copies again: two forks of one checkpoint must
        # not share mutable state, so both reach the pinned digest.
        vectors, pool = corpus_and_pool
        frontend, requests = _run_case(
            "partitioned-nprobe2", _fresh_routers(vectors), pool,
            build_only=True,
        )
        frontend.stream_begin(pool, calibrate_k=max(r.k for r in requests))
        frontend.stream_extend(requests)
        frontend.stream_step(requests[len(requests) // 2].arrival_s)
        snapshot = frontend.snapshot()
        for _ in range(2):
            fork, _ = _run_case(
                "partitioned-nprobe2", _fresh_routers(vectors), pool,
                build_only=True,
            )
            fork.restore(snapshot, pool)
            report = fork.stream_finish()
            assert (
                _digest(report, fork.stream_requests)
                == GOLDEN["partitioned-nprobe2"]
            )

    def test_request_deepcopy_is_deep(self):
        # Request.__deepcopy__ copies only the result arrays and keeps
        # the other fields by reference, which is a deep copy only while
        # those fields hold immutable values.  A new field must be added
        # here, and copied there too if it can hold a mutable value.
        scalar_fields = {
            "request_id", "query_id", "arrival_s", "k", "priority",
            "deadline_s", "batched_s", "start_s", "completion_s", "outcome",
        }
        array_fields = {"result_ids", "result_dists"}
        names = {f.name for f in dataclasses.fields(Request)}
        assert names == scalar_fields | array_fields
        ids = np.arange(4, dtype=np.int64)
        leader = Request(1, 7, 0.5, deadline_s=1.0, result_ids=ids,
                         result_dists=np.ones(4, dtype=np.float32))
        follower = Request(2, 7, 0.6, result_ids=ids)
        leader_copy, follower_copy = copy.deepcopy([leader, follower])
        for original, clone in ((leader, leader_copy), (follower, follower_copy)):
            for name in scalar_fields:
                assert getattr(clone, name) == getattr(original, name)
        for name in array_fields:
            assert getattr(leader_copy, name) is not getattr(leader, name)
            assert np.array_equal(getattr(leader_copy, name),
                                  getattr(leader, name))
        # Identity sharing inside one copy survives, as deepcopy's memo
        # promises: both copies point at one copied array.
        assert follower_copy.result_ids is leader_copy.result_ids
        leader_copy.result_ids[0] = 99
        leader_copy.completion_s = 2.0
        assert leader.result_ids[0] == 0 and leader.completion_s is None

    def test_restore_rejects_version_and_mode_mismatch(
        self, corpus_and_pool
    ):
        vectors, pool = corpus_and_pool
        frontend, requests = _run_case(
            "batch-x4-lo", _fresh_routers(vectors), pool, build_only=True
        )
        frontend.stream_begin(pool, calibrate_k=max(r.k for r in requests))
        frontend.stream_extend(requests)
        frontend.stream_step(requests[10].arrival_s)
        snapshot = frontend.snapshot()

        stale = dataclasses.replace(snapshot, version=SNAPSHOT_VERSION + 1)
        target, _ = _run_case(
            "batch-x4-lo", _fresh_routers(vectors), pool, build_only=True
        )
        with pytest.raises(ValueError, match="version"):
            target.restore(stale, pool)

        partitioned, _ = _run_case(
            "partitioned-broadcast", _fresh_routers(vectors), pool,
            build_only=True,
        )
        with pytest.raises(ValueError, match="mode"):
            partitioned.restore(snapshot, pool)


# ---- checkpoints inside multi-event transactions -------------------------

class TestMidFlightCheckpoints:
    """A snapshot taken while a migration or a flash refresh is still
    in the event heap must resume byte-identically."""

    def test_mid_migration_checkpoint(self, corpus_and_pool):
        vectors, pool = corpus_and_pool
        # The rebalance suite's trigger shape — cluster-routed
        # (nprobe=1) skewed traffic over a 4×2-cluster partitioned
        # pool — with glacial migration bandwidth, so a triggered
        # migration stays in flight long enough for the step scan to
        # catch it mid-transfer.
        config = ServingConfig(
            policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
            nprobe=1,
            rebalance=RebalancePolicy(
                interval_s=2e-3, skew_threshold=0.05,
                min_window_queries=1, migration_gbps=1e-3,
            ),
            **_BATCH_CFG,
        )

        def factory():
            return build_router(
                vectors, num_shards=4, config=NDSearchConfig.scaled(),
                mode=PARTITIONED, seed=35, clusters_per_shard=2,
            )

        ref_requests = _poisson_stream(rate=16000.0, zipf=1.2)
        reference = ServingFrontend(factory(), config).run(
            ref_requests, pool
        )

        live = ServingFrontend(factory(), config)
        requests = _poisson_stream(rate=16000.0, zipf=1.2)
        live.stream_begin(pool)
        live.stream_extend(requests)
        snapshot = None
        for request in requests:
            live.stream_step(request.arrival_s)
            in_heap = any(
                isinstance(entry[-1], DataMovement)
                for entry in live._loop._heap
            )
            if in_heap or live.rebalancer._inflight:
                snapshot = live.snapshot(kind="mid-migration")
                break
        assert snapshot is not None, (
            "scan never caught an in-flight migration — the config no "
            "longer triggers rebalancing, so this edge case is untested"
        )

        resumed = ServingFrontend(factory(), config)
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        assert _digest(report, resumed.stream_requests) == _digest(
            reference, ref_requests
        )

    def test_mid_flash_maintenance_checkpoint(self, corpus_and_pool):
        vectors, pool = corpus_and_pool
        # The serving-flash test preset: a disturb threshold low enough
        # that refreshes fire at benchmark request counts.
        config = ServingConfig(
            policy=_policy(),
            flash=FlashConfig(
                read_disturb_threshold=200, ecc_hard_failure_prob=0.05
            ),
            **_BATCH_CFG,
        )

        def factory():
            return build_router(
                vectors, num_shards=2, config=NDSearchConfig.scaled()
            )

        ref_requests = _poisson_stream(zipf=1.1)
        reference = ServingFrontend(factory(), config).run(
            ref_requests, pool
        )

        live = ServingFrontend(factory(), config)
        requests = _poisson_stream(zipf=1.1)
        live.stream_begin(pool)
        live.stream_extend(requests)
        snapshot = None
        for request in requests:
            live.stream_step(request.arrival_s)
            if any(
                isinstance(entry[-1], FlashMaintenance)
                for entry in live._loop._heap
            ):
                snapshot = live.snapshot(kind="mid-maintenance")
                break
        assert snapshot is not None, (
            "scan never caught a pending FlashMaintenance — the flash "
            "config no longer refreshes, so this edge case is untested"
        )

        resumed = ServingFrontend(factory(), config)
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        assert _digest(report, resumed.stream_requests) == _digest(
            reference, ref_requests
        )


# ---- the generic capture covers the whole session ------------------------

class TestSnapshotCoversSession:
    """Snapshot captures every frontend attribute not declared wiring.

    Two frontends between them switch on every stateful component: a
    partitioned pool with flash, rebalancing, metrics windows,
    coalescing, the cache and a span tracer, and a replicated pool with
    autoscaling, the slo policy and priority admission.  Each is frozen
    mid-stream.  The capture must hash (``state_digest`` rejects a
    callable, so wiring left in session state fails here), its session
    keys must be exactly the frontend's attributes minus
    ``_WIRING``, and restore-then-finish must be byte-identical to the
    uninterrupted run.
    """

    def _check(self, factory, config, make_requests, pool, traced=False):
        def tracer():
            return SpanTracer() if traced else None

        ref_requests = make_requests()
        reference = ServingFrontend(factory(), config, tracer=tracer()).run(
            ref_requests, pool
        )

        live = ServingFrontend(factory(), config, tracer=tracer())
        requests = make_requests()
        live.stream_begin(pool, calibrate_k=max(r.k for r in requests))
        live.stream_extend(requests)
        live.stream_step(requests[len(requests) // 2].arrival_s)
        snapshot = live.snapshot()
        state_digest(snapshot.state)  # the full capture, _batch_seq too
        session = snapshot.state["session"]
        assert set(vars(live)) - ServingFrontend._WIRING == set(session)
        assert not ServingFrontend._WIRING & set(session)

        resumed = ServingFrontend(factory(), config, tracer=tracer())
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        assert _report_bytes(report) == _report_bytes(reference)
        assert _digest(report, resumed.stream_requests) == _digest(
            reference, ref_requests
        )
        return reference, resumed

    def test_partitioned_flash_rebalance_windows_traced(
        self, corpus_and_pool
    ):
        vectors, pool = corpus_and_pool
        config = ServingConfig(
            policy=BatchPolicy(max_batch_size=16, max_wait_s=2e-3),
            nprobe=1,
            cache_capacity=64,
            coalesce=True,
            rebalance=RebalancePolicy(
                interval_s=2e-3, skew_threshold=0.05, min_window_queries=1,
            ),
            flash=FlashConfig(
                read_disturb_threshold=200, ecc_hard_failure_prob=0.05
            ),
            metrics_window_s=1e-3,
        )

        def factory():
            return build_router(
                vectors, num_shards=4, config=NDSearchConfig.scaled(),
                mode=PARTITIONED, seed=35, clusters_per_shard=2,
            )

        reference, _ = self._check(
            factory, config,
            lambda: _poisson_stream(rate=16000.0, zipf=1.2), pool,
            traced=True,
        )
        # Every component the guard claims to cover did work.
        assert reference.rebalance_events
        assert reference.flash["refreshes"] > 0
        assert reference.coalesced > 0 and reference.cache_hits > 0
        assert reference.timeseries is not None

    def test_replicated_autoscale_slo_priority(self, corpus_and_pool):
        vectors, pool = corpus_and_pool
        config = ServingConfig(
            policy=BatchPolicy(
                max_batch_size=4, max_wait_s=20e-3, mode="slo",
                slo_margin_s=3e-4,
            ),
            cache_capacity=0,
            coalesce=False,
            admission_capacity=48,
            priority_admission=True,
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_s=2e-3,
                high_utilization=0.7, high_queue_depth=8.0,
            ),
        )

        def factory():
            return build_router(
                vectors, num_shards=1, config=NDSearchConfig.scaled()
            )

        reference, resumed = self._check(
            factory, config,
            lambda: _stream(PoissonArrivals(25000.0), **_SLO_KWARGS), pool,
        )
        assert reference.scale_events
        assert resumed.admission.preemptions > 0
        assert reference.deadline_total > 0


# ---- the digital twin ----------------------------------------------------

@pytest.fixture(scope="module")
def twin_run(corpus_and_pool):
    """One shared twin session over the replicated x4 pool: feed,
    advance, two null what-ifs, a scratch fallback, then finish."""
    vectors, pool = corpus_and_pool
    config = ServingConfig(policy=_policy(), **_BATCH_CFG)

    def factory():
        return build_router(
            vectors, num_shards=4, config=NDSearchConfig.scaled()
        )

    tracer = SpanTracer()
    twin = ServingTwin(factory, config, pool, window_s=0.05, tracer=tracer)
    requests = _poisson_stream()
    twin.feed(requests)
    checkpoints = twin.advance(requests[-1].arrival_s)
    null_first = twin.whatif()
    null_second = twin.whatif()
    hits_after_nulls = twin.cache.hits
    scratch = twin.whatif(last_windows=checkpoints + 5)
    reference = ServingFrontend(factory(), config).run(
        _poisson_stream(), pool
    )
    base = twin.finish()
    return SimpleNamespace(
        twin=twin, tracer=tracer, checkpoints=checkpoints,
        null_first=null_first, null_second=null_second,
        hits_after_nulls=hits_after_nulls, scratch=scratch,
        reference=reference, base=base,
    )


class TestServingTwin:
    def test_windows_checkpointed(self, twin_run):
        assert twin_run.checkpoints >= 2
        assert len(twin_run.twin.checkpoints) == twin_run.checkpoints
        indexes = [c.index for c in twin_run.twin.checkpoints]
        assert indexes == list(range(1, twin_run.checkpoints + 1))

    def test_null_whatif_is_byte_identical_to_scratch(self, twin_run):
        assert _report_bytes(twin_run.null_first) == _report_bytes(
            twin_run.reference
        )

    def test_repeat_whatif_hits_cache(self, twin_run):
        assert twin_run.hits_after_nulls == 1
        assert _report_bytes(twin_run.null_second) == _report_bytes(
            twin_run.null_first
        )

    def test_scratch_fallback_matches_scratch(self, twin_run):
        # Asking for more history than there are checkpoints replays
        # from scratch — and still reproduces the reference bytes.
        assert _report_bytes(twin_run.scratch) == _report_bytes(
            twin_run.reference
        )

    def test_fork_reports_never_carry_twin_stats(self, twin_run):
        assert twin_run.null_first.twin is None
        assert twin_run.null_second.twin is None
        assert twin_run.scratch.twin is None

    def test_base_report_identical_modulo_twin_field(self, twin_run):
        base = dict(twin_run.base.to_dict())
        ref = dict(twin_run.reference.to_dict())
        assert base.pop("twin") is not None
        ref.pop("twin")
        assert json.dumps(base, sort_keys=True) == json.dumps(
            ref, sort_keys=True
        )

    def test_base_report_twin_stats(self, twin_run):
        stats = twin_run.base.twin
        assert stats["checkpoints"] == twin_run.checkpoints
        assert stats["windows_simulated"] == twin_run.checkpoints
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 2
        assert stats["restores"] == 1
        assert stats["window_s"] == 0.05

    def test_twin_observability_rides_the_tracer(self, twin_run):
        names = [e["name"] for e in twin_run.tracer.events()]
        assert names.count("twin.checkpoint") == twin_run.checkpoints
        assert "twin.restore" in names
        assert "twin.cache_hit" in names

    def test_whatif_deltas_change_the_answer(
        self, twin_run, corpus_and_pool
    ):
        grown = twin_run.twin.whatif(add_replicas=2)
        assert _report_bytes(grown) != _report_bytes(twin_run.null_first)
        assert len(grown.shard_utilization) == 6
        assert grown.twin is None

    def test_whatif_validations(self, corpus_and_pool):
        vectors, pool = corpus_and_pool

        def replicated():
            return build_router(
                vectors, num_shards=2, config=NDSearchConfig.scaled()
            )

        def partitioned():
            return build_router(
                vectors, num_shards=4, config=NDSearchConfig.scaled(),
                mode=PARTITIONED, seed=35,
            )

        config = ServingConfig(policy=_policy(), **_BATCH_CFG)
        with pytest.raises(ValueError, match="window_s"):
            ServingTwin(replicated, config, pool, window_s=0.0)

        twin = ServingTwin(replicated, config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="last_windows"):
            twin.whatif(last_windows=0)

        part_twin = ServingTwin(partitioned, config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="replicated"):
            part_twin.whatif(add_replicas=1)

        scaled_config = ServingConfig(
            policy=_policy(),
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_s=2e-3,
                high_utilization=0.7, high_queue_depth=8.0,
            ),
            **_BATCH_CFG,
        )
        scaled = ServingTwin(replicated, scaled_config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="autoscaler"):
            scaled.whatif(add_replicas=1)

    def test_cache_key_covers_the_causal_inputs(self, corpus_and_pool):
        config = ServingConfig(policy=_policy(), **_BATCH_CFG)
        suffix = _poisson_stream()[:5]
        base = TwinCache.key(config, "d" * 64, 3, suffix)
        assert TwinCache.key(config, "d" * 64, 3, suffix) == base
        other_config = dataclasses.replace(config, nprobe=1)
        assert TwinCache.key(other_config, "d" * 64, 3, suffix) != base
        assert TwinCache.key(config, "e" * 64, 3, suffix) != base
        assert TwinCache.key(config, "d" * 64, 4, suffix) != base
        assert TwinCache.key(config, "d" * 64, 3, suffix[:-1]) != base

    def test_config_digest_is_repr_stable(self):
        a = ServingConfig(policy=_policy(), **_BATCH_CFG)
        b = ServingConfig(policy=_policy(), **_BATCH_CFG)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(
            dataclasses.replace(a, nprobe=2)
        )


# ---- the twin's wall-clock speedup gate -----------------------------------

#: A no-delta what-if restores the last checkpoint and re-simulates only
#: the final window, so it must answer at least this much faster than a
#: from-scratch run of the same stream.
TWIN_SPEEDUP_MIN = 5.0
TWIN_WINDOW_S = 2e-3
#: Timed repeats per side; the fastest counts, so one descheduled round
#: on a shared host does not decide the gate.
TWIN_ROUNDS = 2


def _price_afresh(router):
    """Drop the router's priced SearSSD batches; compiled traces stay.

    The backends come from the shared build cache, so without this a
    repeated run would read every batch price back from the previous
    run's memo instead of pricing it the way a changed input would.
    """
    for backend in router.backends:
        backend.model.system._model._batches.clear()


def _best_wall(run, reset=lambda: None):
    """Fastest of :data:`TWIN_ROUNDS` timed calls of ``run`` (each
    after an untimed ``reset``), and the last call's result."""
    walls = []
    for _ in range(TWIN_ROUNDS):
        reset()
        t0 = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - t0)
    return min(walls), result


def test_null_whatif_beats_scratch_by_5x(corpus_and_pool):
    """Partitioned x4 with ``nprobe=1``, 800 requests at 20,000/s and
    2 ms checkpoints: the no-delta what-if is byte-identical to the
    from-scratch report and at least :data:`TWIN_SPEEDUP_MIN` x faster."""
    vectors, pool = corpus_and_pool
    config = ServingConfig(policy=_policy(), nprobe=1, **_BATCH_CFG)

    def factory():
        return build_router(
            vectors, num_shards=4, config=NDSearchConfig.scaled(),
            mode=PARTITIONED, seed=35,
        )

    def stream():
        return QueryStream(
            PoissonArrivals(20000.0), pool_size=POOL, n_requests=800, k=K,
            seed=STREAM_SEED,
        ).generate()

    def scratch():
        router = factory()
        _price_afresh(router)
        return ServingFrontend(router, config).run(stream(), pool)

    twin = ServingTwin(
        factory, config, pool, window_s=TWIN_WINDOW_S, calibrate_k=K
    )
    twin.ingest(stream())
    twin.finish()

    def reset_twin():
        twin.cache = TwinCache()
        _price_afresh(twin.frontend.router)

    whatif_s, answer = _best_wall(twin.whatif, reset_twin)
    scratch_s, reference = _best_wall(scratch)
    assert _report_bytes(answer) == _report_bytes(reference)
    speedup = scratch_s / whatif_s
    assert speedup >= TWIN_SPEEDUP_MIN, (
        f"no-delta what-if is only {speedup:.1f}x faster than from-scratch "
        f"(need >= {TWIN_SPEEDUP_MIN:g}x): {whatif_s:.4f}s vs "
        f"{scratch_s:.4f}s"
    )


# ---- ServingReport.twin round-trip (satellite: report surface) -----------

class TestReportTwinRoundTrip:
    def test_twin_field_round_trips(self, twin_run):
        payload = twin_run.base.to_dict()
        clone = ServingReport.from_dict(json.loads(json.dumps(payload)))
        assert clone.twin == twin_run.base.twin
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )
        assert "twin" in twin_run.base.format()
        assert str(twin_run.checkpoints) in twin_run.base.format()

    def test_pre_twin_payloads_still_load(self, twin_run):
        legacy = dict(twin_run.reference.to_dict())
        legacy.pop("twin")
        report = ServingReport.from_dict(legacy)
        assert report.twin is None
        assert "twin" not in report.format()
