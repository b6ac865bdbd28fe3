"""Partitioned-pool rebalancing: migrating IVF clusters between devices.

A partitioned pool splits the corpus across shard devices by k-means
cluster.  Under skewed traffic (Zipfian query popularity + selective
probing) the devices that own the popular clusters saturate while the
rest idle — the replicated autoscaler cannot help, because partitioned
capacity is *placement*, not replica count.  Production ANN serving
systems (SPANN-style partition servers, IVF sharding tiers) treat this
as a data-movement problem: migrate hot partitions to cold servers
while serving continues.

:class:`Rebalancer` implements that over the serving stack's event
kernel.  Every :class:`~repro.sim.events.EpochTick` it compares the
per-device *windowed* utilization (busy-time deltas booked by the
:class:`~repro.serving.device.ShardDevice` timelines, migrations
included) and, when the hottest/coldest gap exceeds the policy
threshold, proposes moving one cluster from the hottest device to the
coldest.  The cluster is chosen to best close the gap: among the hot
device's clusters, the one whose windowed query share, if moved, most
reduces ``|hot - cold|`` (moving a cluster shifts the gap by twice its
load).  The frontend then

1. books the migration's read on the source device and its write on
   the destination device (:meth:`ShardDevice.book` — data movement
   queues behind, and delays, query batches on the entry-stage FIFO),
2. schedules a :class:`~repro.sim.events.DataMovement` event at the
   later of the two bookings, and
3. flips the router's ``cluster_shard`` entry when that event fires —
   the atomic commit point: batches dispatched before it still route
   to the source, everything after routes to the destination.

Results never change — the cluster's index and centroid are immutable;
migration moves *timing* (which device pays for the cluster's work),
which is exactly what the simulation prices.  Every migration is
recorded as a :class:`Migration` and lands in the
:class:`~repro.serving.metrics.ServingReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RebalancePolicy:
    """Thresholds and costs for epoch-based cluster migration."""

    interval_s: float = 5e-3
    """Epoch length on the simulated clock: load is windowed over, and
    placement re-evaluated every, this long."""

    skew_threshold: float = 0.25
    """Hottest-minus-coldest windowed device utilization above which a
    migration is proposed."""

    min_window_queries: int = 8
    """Minimum cluster-routed queries in the window before the signal
    is trusted (an idle window has no skew worth acting on)."""

    migration_gbps: float = 1.0
    """Data-movement bandwidth: a cluster of ``b`` bytes occupies the
    source (read) and destination (write) entry stages for
    ``b / (migration_gbps * 1e9)`` seconds each."""

    max_concurrent: int = 1
    """In-flight migration cap: proposals beyond it wait for the next
    epoch (data movement competes with serving for device time)."""

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.skew_threshold <= 0:
            raise ValueError("skew_threshold must be positive")
        if self.min_window_queries < 0:
            raise ValueError("min_window_queries must be >= 0")
        if self.migration_gbps <= 0:
            raise ValueError("migration_gbps must be positive")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")


@dataclass(frozen=True)
class Migration:
    """One cluster migration, decision to commit."""

    cluster: int
    source: int
    dest: int
    decided_s: float
    complete_s: float
    bytes: int
    vectors: int
    utilization_gap: float
    """Hot-minus-cold windowed utilization that triggered the move."""

    def to_dict(self) -> dict:
        """JSON-friendly form for reports and the benchmark sweep."""
        return {
            "cluster": self.cluster,
            "source": self.source,
            "dest": self.dest,
            "decided_s": self.decided_s,
            "complete_s": self.complete_s,
            "bytes": self.bytes,
            "vectors": self.vectors,
            "utilization_gap": self.utilization_gap,
        }


@dataclass(frozen=True)
class MigrationProposal:
    """What :meth:`Rebalancer.decide` asks the frontend to execute."""

    cluster: int
    source: int
    dest: int
    utilization_gap: float


class Rebalancer:
    """Epoch-windowed migration decisions over device-load skew."""

    def __init__(
        self, policy: RebalancePolicy, num_shards: int, num_clusters: int
    ) -> None:
        if num_shards < 2:
            raise ValueError("rebalancing needs at least two shard devices")
        self.policy = policy
        self.num_shards = num_shards
        self.num_clusters = num_clusters
        self.migrations: list[Migration] = []
        """Every migration decided this run, in decision order."""

        self._inflight: dict[int, Migration] = {}
        self._busy_snapshot: list[float] | None = None
        self._busy_carry: list[float] = [0.0] * num_shards
        """Per-device busy time committed beyond the evaluated epoch
        (bookings — batches and migrations alike — land their whole
        duration at dispatch time); spent in later epochs so a device
        still draining its backlog reads as busy, not idle.  Without
        the carry a device that booked heavily late in one window
        would look like the coldest in the next and attract the very
        migration it cannot absorb."""

        self._cluster_window = np.zeros(num_clusters, dtype=np.int64)
        self._epoch_end: float | None = None

    @property
    def epoch_end(self) -> float | None:
        """End of the armed epoch (the next tick's timestamp)."""
        return self._epoch_end

    def arm(self, now: float, busy_s: list[float]) -> None:
        """Anchor the epoch grid at the first arrival."""
        self._busy_snapshot = list(busy_s)
        self._epoch_end = now + self.policy.interval_s

    def observe_cluster_queries(self, cluster: int, n: int) -> None:
        """``n`` queries of a dispatched batch were routed to ``cluster``
        this window (the per-cluster load signal)."""
        self._cluster_window[cluster] += n

    def begin(self, migration: Migration) -> None:
        """The frontend booked ``migration``'s data movement."""
        self._inflight[migration.cluster] = migration
        self.migrations.append(migration)

    def finish(self, migration: Migration) -> None:
        """``migration``'s :class:`~repro.sim.events.DataMovement`
        event fired; its cluster is movable again."""
        self._inflight.pop(migration.cluster, None)

    def decide(
        self, now: float, busy_s: list[float], cluster_shard: np.ndarray
    ) -> list[MigrationProposal]:
        """Evaluate the epoch ending at ``now``; returns proposals.

        Resets the load window either way and advances the epoch grid,
        so the caller always reschedules the next tick at
        :attr:`epoch_end`.
        """
        if self._busy_snapshot is None:
            raise RuntimeError("arm() the rebalancer at the first arrival")
        window = self.policy.interval_s
        util = []
        for i in range(self.num_shards):
            raw = busy_s[i] - self._busy_snapshot[i] + self._busy_carry[i]
            # Bookings extend past the epoch boundary; clamp this
            # window at saturation and carry the excess into the
            # epochs the committed work actually spans (same
            # attribution as the autoscaler's utilization signal).
            spent = min(raw, window)
            self._busy_carry[i] = raw - spent
            util.append(spent / window)
        self._busy_snapshot = list(busy_s)
        counts = self._cluster_window.copy()
        self._cluster_window[:] = 0
        self._epoch_end = now + window

        if int(counts.sum()) < self.policy.min_window_queries:
            return []
        if len(self._inflight) >= self.policy.max_concurrent:
            return []
        source = max(range(self.num_shards), key=lambda s: (util[s], -s))
        dest = min(range(self.num_shards), key=lambda s: (util[s], s))
        gap = util[source] - util[dest]
        if gap <= self.policy.skew_threshold:
            return []
        owned = [
            c for c in range(self.num_clusters)
            if int(cluster_shard[c]) == source
        ]
        if len(owned) < 2:
            # Moving a device's only cluster just relocates the
            # hotspot; there is nothing to split.
            return []
        movable = [
            c for c in owned
            if c not in self._inflight and int(counts[c]) > 0
        ]
        source_queries = sum(int(counts[c]) for c in owned)
        if not movable or source_queries == 0:
            return []
        # Moving cluster c shifts its load share off the source and
        # onto the dest: the gap changes by 2 * load(c).  Pick the
        # movable cluster that lands the gap closest to zero (ties:
        # lowest cluster id, deterministically).
        def residual_gap(c: int) -> float:
            load = util[source] * int(counts[c]) / source_queries
            return abs(gap - 2.0 * load)

        best = min(movable, key=lambda c: (residual_gap(c), c))
        return [
            MigrationProposal(
                cluster=best, source=source, dest=dest, utilization_gap=gap
            )
        ]
