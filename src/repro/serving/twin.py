"""The serving digital twin: incremental re-simulation with what-if forks.

A :class:`ServingTwin` shadows a live deployment on the simulated
clock: arrivals are fed in as they appear (:meth:`ServingTwin.feed`),
the base simulation advances window by window
(:meth:`ServingTwin.advance`; :meth:`ServingTwin.ingest` does both for
a recorded arrival log), and every closed window is checkpointed
as a deterministic :class:`~repro.sim.snapshot.Snapshot`.  What-if
queries — "replay the last K windows with ``nprobe=3`` / +2 replicas /
rebalancing on" — fork from the newest checkpoint whose prefix the
change cannot affect and re-simulate only the changed suffix
(:meth:`ServingTwin.whatif`), so a question about the recent past costs
O(changed suffix), not O(full run).

Answers are memoized in a content-addressed cache
(:class:`TwinCache`): the key hashes the fork's canonical
configuration (delta included), its replica growth, the restored
snapshot's state digest, its window index and the replayed arrival
suffix — the full causal input of the answer.  Repeated and
overlapping queries hit instead of re-simulating; the determinism
contract (a restored run is byte-identical to a from-scratch run,
pinned by the parity suite) is what makes serving a cached report
honest.

Config deltas only steer *future* decisions (routing, batching,
scaling), never recorded history, so any delta may fork from any
checkpoint; ``last_windows`` chooses how much history the caller wants
re-simulated under the new config.  A what-if with no delta replaying
from the last checkpoint must reproduce the from-scratch report byte
for byte — the self-test the CI twin step asserts.

Observability rides the span tracer only (``twin.checkpoint`` /
``twin.restore`` / ``twin.cache_hit`` instants in the ``twin``
category): twin bookkeeping must never leak into the base run's
windowed metrics, or the null what-if would stop being byte-identical.
The aggregate counters land post-hoc on ``ServingReport.twin`` when
:meth:`ServingTwin.finish` closes the base run.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from typing import Callable

import numpy as np

from repro.obs.trace import NullTracer, Tracer
from repro.serving.frontend import (
    ServingConfig,
    ServingFrontend,
    check_deployment,
)
from repro.serving.metrics import ServingReport
from repro.serving.rebalance import RebalancePolicy
from repro.serving.request import Request
from repro.serving.sharding import REPLICATED, ShardRouter
from repro.sim.snapshot import Snapshot


def config_digest(config: ServingConfig) -> str:
    """Canonical hash of a serving configuration.

    ``ServingConfig`` and every nested policy are dataclasses whose
    generated ``repr`` is a pure function of their field values, so the
    repr is a canonical serialization.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()


def _suffix_digest(requests: list[Request]) -> str:
    """Hash of an arrival suffix's *identity* (not its outcomes)."""
    h = hashlib.sha256()
    for r in requests:
        h.update(
            repr(
                (r.request_id, r.query_id, r.arrival_s, r.k, r.priority,
                 r.deadline_s)
            ).encode()
        )
    return h.hexdigest()


class TwinCache:
    """Content-addressed memo of what-if answers.

    Keys are :meth:`key` digests — (config, replica growth, snapshot
    state, window index, arrival suffix) — and values are
    ``ServingReport.to_dict`` payloads: plain data, safe to hold across
    forks.  Replica growth is hashed beside the config because it is a
    structural delta, not a ``ServingConfig`` field.
    """

    def __init__(self) -> None:
        self._entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(
        config: ServingConfig,
        add_replicas: int,
        snapshot_digest: str,
        window_index: int,
        suffix: list[Request],
    ) -> str:
        h = hashlib.sha256()
        h.update(config_digest(config).encode())
        h.update(repr(add_replicas).encode())
        h.update(snapshot_digest.encode())
        h.update(repr(window_index).encode())
        h.update(_suffix_digest(suffix).encode())
        return h.hexdigest()

    def lookup(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, key: str, report: ServingReport) -> None:
        self._entries[key] = report.to_dict()


def whatif_config(
    config: ServingConfig,
    mode: str,
    num_shards: int,
    num_clusters: int,
    *,
    last_windows: int = 1,
    nprobe: int | None | str = "keep",
    add_replicas: int = 0,
    rebalance: RebalancePolicy | None = None,
) -> ServingConfig:
    """The fork's config for a :meth:`ServingTwin.whatif` delta.

    Raises ``ValueError`` naming the field when the deployment (its
    ``mode`` and shape, as :func:`check_deployment` takes them) cannot
    serve the delta, so a caller can reject a what-if before it
    replays anything.
    """
    if last_windows < 1:
        raise ValueError(f"last_windows must be >= 1, got {last_windows}")
    fork_config = config
    if nprobe != "keep":
        fork_config = dataclasses.replace(fork_config, nprobe=nprobe)
    if rebalance is not None:
        fork_config = dataclasses.replace(fork_config, rebalance=rebalance)
    if add_replicas:
        if add_replicas < 0:
            raise ValueError("add_replicas must be >= 0")
        if mode != REPLICATED:
            raise ValueError("add_replicas requires a replicated pool")
        if config.autoscale is not None:
            raise ValueError(
                "add_replicas conflicts with an autoscaler: the "
                "autoscaler owns the replica count"
            )
    check_deployment(fork_config, mode, num_shards, num_clusters)
    return fork_config


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """One closed window boundary: its snapshot plus how much of the
    master arrival log the base run had consumed when it was taken."""

    index: int
    time: float
    snapshot: Snapshot
    consumed: int


class ServingTwin:
    """Incremental re-simulation over a router factory.

    ``router_factory`` must build an *equivalent* router on every call
    (same corpus, mode, placement); :func:`~repro.serving.sharding.build_router`
    memoizes construction artifacts by content, so repeated calls share
    the immutable indexes and only rebuild the mutable wrappers — which
    is exactly what a fork needs (what-ifs mutate replica counts and
    cluster placement).
    """

    def __init__(
        self,
        router_factory: Callable[[], ShardRouter],
        config: ServingConfig,
        query_pool: np.ndarray,
        window_s: float,
        tracer: Tracer | None = None,
        calibrate_k: int | None = None,
    ) -> None:
        if window_s <= 0.0:
            raise ValueError(f"window_s must be positive, got {window_s!r}")
        self.router_factory = router_factory
        self.config = config
        self.window_s = window_s
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self._pool = np.ascontiguousarray(query_pool, dtype=np.float32)
        self._calibrate_k = calibrate_k
        router = router_factory()
        self._deployment = (router.mode, router.num_shards, router.num_clusters)
        self.frontend = ServingFrontend(router, config, tracer=tracer)
        self.frontend.stream_begin(self._pool, calibrate_k=calibrate_k)
        self.checkpoints: list[Checkpoint] = []
        self.cache = TwinCache()
        self._master_log: list[Request] = []
        self._next_window = 1
        self.restores = 0
        self._finished = False

    # ---- the base (live) simulation -------------------------------------
    def feed(self, requests: list[Request]) -> None:
        """Ingest newly observed arrivals (time-ordered append)."""
        ordered = sorted(requests, key=lambda r: r.arrival_s)
        self.frontend.stream_extend(ordered)
        self._master_log.extend(ordered)

    def advance(self, to_time: float) -> int:
        """Run the base simulation forward, checkpointing every crossed
        ``window_s`` boundary; returns the number of checkpoints taken."""
        taken = 0
        while self._next_window * self.window_s <= to_time:
            boundary = self._next_window * self.window_s
            self.frontend.stream_step(boundary)
            snapshot = self.frontend.snapshot()
            self.checkpoints.append(
                Checkpoint(
                    index=self._next_window,
                    time=boundary,
                    snapshot=snapshot,
                    consumed=len(self._master_log),
                )
            )
            if self.tracer.enabled:
                self.tracer.instant(
                    "twin.checkpoint", "twin", boundary,
                    args={
                        "window": self._next_window,
                        "digest": snapshot.digest[:12],
                    },
                )
            self._next_window += 1
            taken += 1
        return taken

    def ingest(self, arrivals: list[Request]) -> None:
        """Feed a time-ordered arrival log window by window, as a live
        follower would: each window's arrivals, then :meth:`advance` to
        its boundary, then the tail after the last whole window.

        The clock never passes the newest arrival: :meth:`finish`
        flushes the final straggler batch via ``StreamEnd``, and byte
        parity with a from-scratch run requires the clock not to
        overtake the stream.
        """
        if not arrivals:
            return
        last_arrival = arrivals[-1].arrival_s
        fed = 0
        while self._next_window * self.window_s <= last_arrival:
            boundary = self._next_window * self.window_s
            cut = fed
            while cut < len(arrivals) and arrivals[cut].arrival_s <= boundary:
                cut += 1
            self.feed(arrivals[fed:cut])
            fed = cut
            self.advance(boundary)
        self.feed(arrivals[fed:])

    def finish(self) -> ServingReport:
        """Close the base run; its report carries the twin counters."""
        report = self.frontend.stream_finish()
        self._finished = True
        report.twin = self.stats()
        return report

    def stats(self) -> dict:
        """The twin's own bookkeeping (``ServingReport.twin``)."""
        return {
            "window_s": self.window_s,
            "windows_simulated": self._next_window - 1,
            "checkpoints": len(self.checkpoints),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "restores": self.restores,
        }

    # ---- what-if forks ---------------------------------------------------
    def whatif(
        self,
        last_windows: int = 1,
        nprobe: int | None | str = "keep",
        add_replicas: int = 0,
        rebalance: RebalancePolicy | None = None,
    ) -> ServingReport:
        """Replay the last ``last_windows`` windows (plus the tail after
        the final checkpoint) under a config delta; returns the fork's
        report.

        Deltas: ``nprobe`` re-routes future partitioned dispatches
        (pass ``None`` for broadcast; the default ``"keep"`` leaves the
        base setting); ``add_replicas`` grows the replicated pool
        (static pools only — an autoscaler owns the replica count);
        ``rebalance`` switches hot-cluster migration on.  With no delta
        and ``last_windows=1`` the answer is byte-identical to the
        from-scratch result — re-simulating an unchanged suffix of a
        deterministic run proves the checkpoint machinery, and the
        cache memoizes it like any other query.

        Asking for more history than there are checkpoints falls back
        to a full from-scratch replay (window index 0, no restore).
        """
        fork_config = whatif_config(
            self.config, *self._deployment, last_windows=last_windows,
            nprobe=nprobe, add_replicas=add_replicas, rebalance=rebalance,
        )
        # The newest checkpoint that still leaves >= last_windows of
        # history to replay; None = replay everything from scratch.
        checkpoint: Checkpoint | None = None
        available = len(self.checkpoints)
        if available >= last_windows:
            checkpoint = self.checkpoints[available - last_windows]
        snapshot_digest = (
            checkpoint.snapshot.digest if checkpoint is not None else "scratch"
        )
        window_index = checkpoint.index if checkpoint is not None else 0
        consumed = checkpoint.consumed if checkpoint is not None else 0
        suffix = self._master_log[consumed:]
        key = TwinCache.key(
            fork_config, add_replicas, snapshot_digest, window_index, suffix
        )
        cached = self.cache.lookup(key)
        now = self.frontend._loop.now if not self._finished else 0.0
        if cached is not None:
            if self.tracer.enabled:
                self.tracer.instant(
                    "twin.cache_hit", "twin", now,
                    args={"window": window_index, "key": key[:12]},
                )
            return ServingReport.from_dict(copy.deepcopy(cached))
        fork = ServingFrontend(self.router_factory(), fork_config)
        if checkpoint is not None:
            fork.restore(checkpoint.snapshot, self._pool)
            self.restores += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "twin.restore", "twin", now,
                    args={
                        "window": window_index,
                        "digest": checkpoint.snapshot.digest[:12],
                    },
                )
        else:
            fork.stream_begin(self._pool, calibrate_k=self._calibrate_k)
        self._apply_structural_deltas(fork, fork_config, add_replicas)
        # Forks replay their own deep copies: requests are mutated in
        # place during serving, and the master log's outcomes belong to
        # the base run.
        fork.stream_extend(copy.deepcopy(suffix))
        report = fork.stream_finish()
        self.cache.store(key, report)
        return report

    def _apply_structural_deltas(
        self,
        fork: ServingFrontend,
        fork_config: ServingConfig,
        add_replicas: int,
    ) -> None:
        """Mutations a config replace cannot express: pool growth and a
        rebalancer the restored snapshot did not carry."""
        if add_replicas:
            fork.add_replicas(add_replicas)
        if fork_config.rebalance is not None and fork.rebalancer is None:
            fork.enable_rebalance(fork_config.rebalance)
