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

Snapshots share retired requests with the live run instead of copying
them, so the suite also pins what makes that sound: no request changes
after it is retired, a capture shares exactly its all-retired prefix,
and its digest does not depend on which earlier windows were captured.

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
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import SpanTracer
from repro.serving import (
    PoissonArrivals,
    RebalancePolicy,
    ServingConfig,
    ServingFrontend,
)
from repro.serving.metrics import ServingReport
from repro.serving.request import PENDING, Request
from repro.serving.scenario import SCENARIOS
from repro.serving.twin import ServingTwin, TwinCache, config_digest
from repro.sim.events import DataMovement, FlashMaintenance
from repro.sim.snapshot import SNAPSHOT_VERSION, state_digest

from test_serving_parity import GOLDEN, _digest
from test_serving_surface import EVERYTHING_ON

#: The skewed partitioned cell the flash and rebalance suites serve.
SKEWED = SCENARIOS["partitioned-skewed-flash"]

#: The replicated x4 pool at 2,000 QPS: the twin suite's base session.
TWIN_CELL = replace(
    SCENARIOS["batch-x4-lo"], arrivals=PoissonArrivals(2000.0)
)


@pytest.fixture(scope="module")
def pool():
    return TWIN_CELL.vectors_and_pool()[1]


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def _paused(scenario, pool, tracer=None, at=None):
    """A frontend over ``scenario`` stepped to the arrival of request
    number ``at`` (default: the midpoint), and its requests."""
    frontend = scenario.frontend(tracer)
    requests = scenario.requests()
    frontend.stream_begin(pool, calibrate_k=max(r.k for r in requests))
    frontend.stream_extend(requests)
    at = len(requests) // 2 if at is None else at
    frontend.stream_step(requests[at].arrival_s)
    return frontend, requests


# ---- snapshot → restore → run parity vs the pinned digests ---------------

class TestSnapshotRestoreParity:
    """Every pinned configuration, paused at its midpoint and resumed
    in a fresh frontend, must still hit the legacy-loop digest."""

    @pytest.mark.parametrize(
        "traced", (False, True), ids=("plain", "traced")
    )
    @pytest.mark.parametrize(
        "name", [name for name in SCENARIOS if name in GOLDEN]
    )
    def test_restore_hits_golden_digest(self, name, traced, pool):
        scenario = SCENARIOS[name]
        if traced:
            scenario = replace(
                scenario,
                serving=replace(scenario.serving, metrics_window_s=1e-3),
            )
        frontend, requests = _paused(
            scenario, pool, SpanTracer() if traced else None
        )
        snapshot = frontend.snapshot()
        assert snapshot.version == SNAPSHOT_VERSION
        assert snapshot.time == requests[len(requests) // 2].arrival_s

        resumed = scenario.frontend(SpanTracer() if traced else None)
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        got = _digest(report, resumed.stream_requests)
        assert got == GOLDEN[name], (
            f"snapshot→restore→run diverged from the pinned report for "
            f"{name!r}"
            + (" with instrumentation attached" if traced else "")
        )

    def test_snapshot_digest_is_tracer_blind(self, pool):
        # The captured state excludes the span tracer (observe-only by
        # construction), so a traced run and a plain run frozen at the
        # same point produce the same content address.  Windowed
        # metrics, by contrast, ARE simulation state — restore refuses
        # a windows-enabled snapshot into a windows-less frontend —
        # so both legs here run without them.
        digests = [
            _paused(SCENARIOS["batch-x4-lo"], pool, tracer)[0]
            .snapshot().digest
            for tracer in (None, SpanTracer())
        ]
        assert digests[0] == digests[1]

    def test_snapshot_is_restorable_twice(self, pool):
        # Restoring deep-copies again: two forks of one checkpoint must
        # not share mutable state, so both reach the pinned digest.
        scenario = SCENARIOS["partitioned-nprobe2"]
        snapshot = _paused(scenario, pool)[0].snapshot()
        for _ in range(2):
            fork = scenario.frontend()
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

    def test_restore_rejects_version_and_mode_mismatch(self, pool):
        replicated = SCENARIOS["batch-x4-lo"]
        snapshot = _paused(replicated, pool, at=10)[0].snapshot()

        stale = replace(snapshot, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(ValueError, match="version"):
            replicated.frontend().restore(stale, pool)

        partitioned = SCENARIOS["partitioned-broadcast"].frontend()
        with pytest.raises(ValueError, match="mode"):
            partitioned.restore(snapshot, pool)

    @staticmethod
    def _assert_opt_in_guarded(pool, on, off, match):
        """A snapshot of ``on`` refuses to restore into ``off`` and the
        reverse, before the target frontend is touched."""
        for source, target in ((on, off), (off, on)):
            snapshot = _paused(source, pool, at=10)[0].snapshot()
            frontend = target.frontend()
            with pytest.raises(ValueError, match=match):
                frontend.restore(snapshot, pool)
            assert frontend._loop is None

    def test_restore_rejects_flash_mismatch(self, pool):
        # The flash opt-in is read off the devices' stores.
        off = replace(TWIN_CELL, num_shards=2)
        on = replace(
            off, serving=replace(off.serving, flash=SKEWED.serving.flash)
        )
        self._assert_opt_in_guarded(pool, on, off, "flash configuration")

    def test_restore_rejects_metrics_window_mismatch(self, pool):
        off = TWIN_CELL
        on = replace(
            off, serving=replace(off.serving, metrics_window_s=1e-3)
        )
        self._assert_opt_in_guarded(pool, on, off, "metrics-window")


# ---- checkpoints inside multi-event transactions -------------------------

class TestMidFlightCheckpoints:
    """A snapshot taken while a migration or a flash refresh is still
    in the event heap must resume byte-identically."""

    @staticmethod
    def _resume_from_first(scenario, pool, caught, kind):
        """Step ``scenario`` arrival by arrival, snapshot the first time
        ``caught(frontend)`` holds, and check that resuming from there
        reproduces the uninterrupted run."""
        reference, ref_requests = scenario.run()
        live = scenario.frontend()
        requests = scenario.requests()
        live.stream_begin(pool)
        live.stream_extend(requests)
        snapshot = None
        for request in requests:
            live.stream_step(request.arrival_s)
            if caught(live):
                snapshot = live.snapshot(kind=kind)
                break
        assert snapshot is not None, (
            f"scan never caught a {kind} checkpoint — the config no "
            f"longer triggers it, so this edge case is untested"
        )

        resumed = scenario.frontend()
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        assert _digest(report, resumed.stream_requests) == _digest(
            reference, ref_requests
        )

    @staticmethod
    def _in_heap(frontend, event_type):
        return any(
            isinstance(entry[-1], event_type)
            for entry in frontend._loop._heap
        )

    def test_mid_migration_checkpoint(self, pool):
        # The rebalance suite's trigger shape — cluster-routed
        # (nprobe=1) skewed traffic over a 4×2-cluster partitioned
        # pool — with glacial migration bandwidth, so a triggered
        # migration stays in flight long enough for the step scan to
        # catch it mid-transfer.
        scenario = replace(
            SKEWED,
            slo_s=None,
            serving=replace(
                SKEWED.serving,
                flash=None,
                rebalance=RebalancePolicy(
                    interval_s=2e-3, skew_threshold=0.05,
                    min_window_queries=1, migration_gbps=1e-3,
                ),
            ),
        )
        self._resume_from_first(
            scenario, pool,
            lambda live: self._in_heap(live, DataMovement)
            or live.rebalancer._inflight,
            "mid-migration",
        )

    def test_mid_flash_maintenance_checkpoint(self, pool):
        # The skewed cell's flash preset: a disturb threshold low enough
        # that refreshes fire at benchmark request counts.
        scenario = replace(
            TWIN_CELL,
            num_shards=2,
            zipf_exponent=1.1,
            serving=replace(TWIN_CELL.serving, flash=SKEWED.serving.flash),
        )
        self._resume_from_first(
            scenario, pool,
            lambda live: self._in_heap(live, FlashMaintenance),
            "mid-maintenance",
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

    def _check(self, scenario, pool, traced=False):
        def tracer():
            return SpanTracer() if traced else None

        reference, ref_requests = scenario.run(tracer())
        live, _ = _paused(scenario, pool, tracer())
        snapshot = live.snapshot()
        state_digest(snapshot.state)  # the full capture, _batch_seq too
        session = snapshot.state["session"]
        assert set(vars(live)) - ServingFrontend._WIRING == set(session)
        assert not ServingFrontend._WIRING & set(session)

        resumed = scenario.frontend(tracer())
        resumed.restore(snapshot, pool)
        report = resumed.stream_finish()
        assert _report_bytes(report) == _report_bytes(reference)
        assert _digest(report, resumed.stream_requests) == _digest(
            reference, ref_requests
        )
        return reference, resumed

    def test_partitioned_flash_rebalance_windows_traced(self, pool):
        scenario = EVERYTHING_ON["everything-partitioned"]
        reference, _ = self._check(scenario, pool, traced=True)
        # Every component the guard claims to cover did work.
        assert reference.rebalance_events
        assert reference.flash["refreshes"] > 0
        assert reference.coalesced > 0 and reference.cache_hits > 0
        assert reference.timeseries is not None

    def test_replicated_autoscale_slo_priority(self, pool):
        # The autoscaled overload cell with the two-class deadline
        # stream, the slo policy and priority admission.
        scenario = EVERYTHING_ON["everything-replicated"]
        reference, resumed = self._check(scenario, pool)
        assert reference.scale_events
        assert resumed.admission.preemptions > 0
        assert reference.deadline_total > 0


# ---- retired requests are history, shared by reference -------------------

def _stamps(request):
    """Everything about ``request`` a snapshot's retired prefix pins."""
    return (
        (request.request_id, request.outcome, request.batched_s,
         request.start_s, request.completion_s),
        None if request.result_ids is None else request.result_ids.tobytes(),
        None if request.result_dists is None else request.result_dists.tobytes(),
    )


@pytest.mark.parametrize("name", [*SCENARIOS, *EVERYTHING_ON])
def test_retired_requests_are_final(name, monkeypatch):
    """Nothing changes a request after ``_retire``: the invariant that
    lets snapshots share retired requests instead of copying them."""
    scenario = {**SCENARIOS, **EVERYTHING_ON}[name]
    at_retire = {}
    retire = ServingFrontend._retire

    def tap(self, request, at, **trace_args):
        assert request.request_id not in at_retire, "retired twice"
        at_retire[request.request_id] = (request, _stamps(request))
        retire(self, request, at, **trace_args)

    monkeypatch.setattr(ServingFrontend, "_retire", tap)
    _, requests = scenario.run()
    assert len(at_retire) == len(requests)
    for request, stamps in at_retire.values():
        assert _stamps(request) == stamps, (
            f"request {request.request_id} changed after it was retired"
        )


class TestRetiredRequestsShared:
    def test_retired_prefix_is_live_objects_the_rest_copies(self, twin_run):
        live = twin_run.twin.frontend._arrival_queue
        prefixes = []
        for checkpoint in twin_run.twin.checkpoints:
            session = checkpoint.snapshot.state["session"]
            n, _ = session["_retired_prefix"]
            queue = session["_arrival_queue"]
            assert all(a is b for a, b in zip(queue[:n], live))
            assert all(a is not b for a, b in zip(queue[n:], live[n:]))
            assert all(r.outcome != PENDING for r in queue[:n])
            prefixes.append(n)
        assert prefixes == sorted(prefixes) and prefixes[-1] > 0
        # A restore shares the same objects again.
        checkpoint = twin_run.twin.checkpoints[-1]
        fork = TWIN_CELL.frontend()
        fork.restore(checkpoint.snapshot, twin_run.twin._pool)
        n, _ = fork._retired_prefix
        assert all(a is b for a, b in zip(fork._arrival_queue[:n], live))
        assert fork._arrival_queue[n] is not live[n]

    def test_digest_is_capture_schedule_blind(self, pool):
        # Folding the retired prefix at every window boundary or only
        # at the last one must give the same content address.
        def last_digest(capture_every: bool):
            frontend = TWIN_CELL.frontend()
            requests = TWIN_CELL.requests()
            frontend.stream_begin(pool)
            frontend.stream_extend(requests)
            boundaries = np.linspace(0.0, requests[-1].arrival_s, 12)[1:]
            for boundary in boundaries[:-1]:
                frontend.stream_step(boundary)
                if capture_every:
                    frontend.snapshot()
            frontend.stream_step(boundaries[-1])
            return frontend.snapshot()

        every, last = last_digest(True), last_digest(False)
        assert every.state["session"]["_retired_prefix"][0] > 0
        assert every.digest == last.digest

    def test_client_writes_after_capture_leave_restore_exact(self, pool):
        # A client may write into its answered requests' result arrays
        # (test_serving_frontend pins that contract).  Snapshots share
        # those requests, so such writes must not reach the simulation:
        # the restored run finishes byte-identical to the live one.  The
        # cell caches and coalesces, the two places a result array
        # could leak into later answers.
        scenario = EVERYTHING_ON["everything-partitioned"]
        reference, _ = scenario.run()
        live, _ = _paused(scenario, pool)
        snapshot = live.snapshot()
        n, _ = snapshot.state["session"]["_retired_prefix"]
        answered = [
            r for r in live.stream_requests[:n] if r.result_ids is not None
        ]
        assert answered
        for request in answered:
            request.result_ids[:] = -7
            request.result_dists[:] = -1.0
        fork = scenario.frontend()
        fork.restore(snapshot, pool)
        report = fork.stream_finish()
        live_report = live.stream_finish()
        assert _report_bytes(report) == _report_bytes(reference)
        assert _report_bytes(live_report) == _report_bytes(reference)
        assert _digest(report, fork.stream_requests) == _digest(
            live_report, live.stream_requests
        )

    def test_replayed_request_objects_start_afresh(self, pool):
        # Feeding request objects a previous run already served (as a
        # twin fork replays its copies of served requests) resets them,
        # so a capture shares only what this session retired and its
        # digest equals that of a session fed fresh requests.
        scenario = TWIN_CELL
        _, served = scenario.run()
        at = len(served) // 2

        def paused_snapshot(requests):
            frontend = scenario.frontend()
            frontend.stream_begin(pool)
            frontend.stream_extend(requests)
            frontend.stream_step(requests[at].arrival_s)
            return frontend.snapshot()

        replayed = paused_snapshot(served)
        fresh = paused_snapshot(scenario.requests())
        assert replayed.digest == fresh.digest
        assert all(r.outcome == PENDING for r in served[at + 1:])


# ---- the digital twin ----------------------------------------------------

@pytest.fixture(scope="module")
def twin_run(pool):
    """One shared twin session over the replicated x4 pool: feed,
    advance, two null what-ifs, a scratch fallback, then finish."""
    tracer = SpanTracer()
    twin = ServingTwin(
        TWIN_CELL.router, TWIN_CELL.serving, pool, window_s=0.05,
        tracer=tracer,
    )
    requests = TWIN_CELL.requests()
    twin.feed(requests)
    checkpoints = twin.advance(requests[-1].arrival_s)
    null_first = twin.whatif()
    null_second = twin.whatif()
    hits_after_nulls = twin.cache.hits
    scratch = twin.whatif(last_windows=checkpoints + 5)
    reference, _ = TWIN_CELL.run()
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

    def test_whatif_deltas_change_the_answer(self, twin_run):
        grown = twin_run.twin.whatif(add_replicas=2)
        assert _report_bytes(grown) != _report_bytes(twin_run.null_first)
        assert len(grown.shard_utilization) == 6
        assert grown.twin is None

    def test_whatif_validations(self, pool):
        replicated = replace(TWIN_CELL, num_shards=2).router
        partitioned = SCENARIOS["partitioned-broadcast"].router
        config = TWIN_CELL.serving
        with pytest.raises(ValueError, match="window_s"):
            ServingTwin(replicated, config, pool, window_s=0.0)

        twin = ServingTwin(replicated, config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="last_windows"):
            twin.whatif(last_windows=0)

        part_twin = ServingTwin(partitioned, config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="replicated"):
            part_twin.whatif(add_replicas=1)

        scaled_config = replace(
            config, autoscale=SCENARIOS["autoscale-overload"].serving.autoscale
        )
        scaled = ServingTwin(replicated, scaled_config, pool, window_s=0.05)
        with pytest.raises(ValueError, match="autoscaler"):
            scaled.whatif(add_replicas=1)

    def test_replica_growth_is_its_own_cache_entry(self, pool):
        twin = ServingTwin(
            TWIN_CELL.router, TWIN_CELL.serving, pool, window_s=0.05
        )
        requests = TWIN_CELL.requests()
        twin.feed(requests)
        twin.advance(requests[-1].arrival_s)
        one = _report_bytes(twin.whatif(add_replicas=1))
        two = _report_bytes(twin.whatif(add_replicas=2))
        assert (twin.cache.hits, twin.cache.misses) == (0, 2)
        assert one != two
        assert _report_bytes(twin.whatif(add_replicas=1)) == one
        assert _report_bytes(twin.whatif(add_replicas=2)) == two
        assert (twin.cache.hits, twin.cache.misses) == (2, 2)

    def test_cache_key_covers_the_causal_inputs(self):
        config = TWIN_CELL.serving
        suffix = TWIN_CELL.requests()[:5]
        base = TwinCache.key(config, 0, "d" * 64, 3, suffix)
        assert TwinCache.key(config, 0, "d" * 64, 3, suffix) == base
        other_config = replace(config, nprobe=1)
        assert TwinCache.key(other_config, 0, "d" * 64, 3, suffix) != base
        assert TwinCache.key(config, 1, "d" * 64, 3, suffix) != base
        assert TwinCache.key(config, 0, "e" * 64, 3, suffix) != base
        assert TwinCache.key(config, 0, "d" * 64, 4, suffix) != base
        assert TwinCache.key(config, 0, "d" * 64, 3, suffix[:-1]) != base

    def test_config_digest_is_repr_stable(self):
        a = ServingConfig(cache_capacity=0, coalesce=False)
        b = ServingConfig(cache_capacity=0, coalesce=False)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(replace(a, nprobe=2))


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


def test_null_whatif_beats_scratch_by_5x(pool):
    """Partitioned x4 with ``nprobe=1``, 800 requests at 20,000/s and
    2 ms checkpoints: the no-delta what-if is byte-identical to the
    from-scratch report and at least :data:`TWIN_SPEEDUP_MIN` x faster."""
    scenario = replace(
        SCENARIOS["partitioned-nprobe1"],
        arrivals=PoissonArrivals(20000.0),
        n_requests=800,
    )

    def scratch():
        frontend = scenario.frontend()
        _price_afresh(frontend.router)
        return frontend.run(scenario.requests(), pool)

    twin = ServingTwin(
        scenario.router, scenario.serving, pool, window_s=TWIN_WINDOW_S,
        calibrate_k=scenario.k,
    )
    twin.ingest(scenario.requests())
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
