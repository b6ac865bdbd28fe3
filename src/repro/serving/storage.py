"""Stateful flash under serving: each shard device owns a live SSD.

The platform timing models price a batch's storage work analytically —
the same batch always costs the same time.  Real NAND is stateful: every
page read disturbs its block-mates, hot blocks must be refreshed
(read + program + erase — a GC pause), refreshes relocate blocks and
wear them out, and a fraction of reads fail hard-decision LDPC and
stall on the soft decoder.  Under a Zipfian serving load these effects
concentrate exactly where the traffic does: hot clusters literally wear
out their blocks and their readers eat the refresh pauses.

:class:`FlashBackedStore` is the flash half of one
:class:`~repro.serving.device.ShardDevice` (its ``store``): a live
:class:`~repro.flash.ftl.FlashTranslationLayer`,
:class:`~repro.flash.ecc.BERModel` / :class:`~repro.flash.ecc.LDPCModel`
and :class:`~repro.flash.timing.FlashTiming`, each built from its own
defaults except the two :class:`FlashConfig` knobs:

* IVF clusters are laid out across the device's planes when the device
  is built (block-granular, striped across (LUN, plane) pairs so
  multi-plane parallelism matches the paper's static mapping).
* Cluster reads translate through the FTL and accumulate read-disturb
  (:meth:`FlashTranslationLayer.record_reads`); blocks crossing
  ``read_disturb_threshold`` go back through the device to the
  frontend, which schedules a :class:`~repro.sim.events.FlashMaintenance`
  event; the device then books the refresh latency on its stage FIFOs
  — GC pauses delay queries exactly like rebalance migrations.
* Rebalance migrations charge host programs (destination) and in-place
  erases (source) through the FTL, so erase counts and write
  amplification are honest.
* ECC retry storms (hard-decode failures falling back to the soft
  decoder) add per-read latency scaled by the cluster's plane BER.

Everything is opt-in via ``ServingConfig.flash``; with it unset no
device has a store and the serving stack stays byte-identical to the
pinned parity digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.ecc import BERModel, LDPCModel
from repro.flash.ftl import FlashTranslationLayer
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming

#: Base seed of the per-device flash streams: device ``i`` seeds its
#: FTL, BER and LDPC models with ``SEED + 31*i``, ``SEED + 97*i`` and
#: ``SEED + 193*i``, so runs are seed-stable and devices decorrelated.
SEED = 1117


@dataclass(frozen=True)
class FlashConfig:
    """The knobs of the per-device flash substrate
    (``ServingConfig.flash``).

    Serving sweeps lower the disturb threshold so refreshes fire at
    benchmark request counts the way they would at production read
    volumes on the FTL's real threshold.
    """

    read_disturb_threshold: int = 100_000
    ecc_hard_failure_prob: float = 0.01


class FlashBackedStore:
    """Live flash state for one shard device (``ShardDevice.store``).

    Owns the device's FTL, plane BER distribution and LDPC decoder, and
    the cluster → block layout.  The device drives it: reads accumulate
    disturb, due blocks come back as ``(lun, plane, logical_block)``
    triples for the maintenance event, migrations program/erase through
    it.  All mutable flash state lives here (never in the router's
    cached immutable artifacts).
    """

    #: Shared by every store.  Both are frozen, so a snapshot copies the
    #: geometry (the FTL holds it) once and the timing not at all.
    geometry = SSDGeometry.scaled()
    timing = FlashTiming()

    def __init__(self, config: FlashConfig, device_index: int) -> None:
        self.device_index = device_index
        self.ftl = FlashTranslationLayer(
            self.geometry,
            seed=SEED + 31 * device_index,
            read_disturb_threshold=config.read_disturb_threshold,
        )
        self.ber = BERModel(
            n_planes=self.geometry.total_planes,
            seed=SEED + 97 * device_index,
        )
        self.ldpc = LDPCModel(
            hard_failure_prob=config.ecc_hard_failure_prob,
            seed=SEED + 193 * device_index,
        )
        self._median_ber = float(np.median(self.ber.plane_ber))
        # Cluster layout: parallel arrays of (lun, plane, block) per
        # cluster plus a read-distribution cursor, block page counts
        # and owner map for refresh attribution.
        self._cluster_luns: dict[int, np.ndarray] = {}
        self._cluster_planes: dict[int, np.ndarray] = {}
        self._cluster_blocks: dict[int, np.ndarray] = {}
        self._cluster_cursor: dict[int, int] = {}
        self._cluster_ber_factor: dict[int, float] = {}
        self._block_pages: dict[tuple[int, int, int], int] = {}
        self._owner: dict[tuple[int, int, int], int] = {}
        self._pending: set[tuple[int, int, int]] = set()
        # Fresh allocation walks (lun, plane) pairs round-robin with a
        # per-plane next-block counter; released blocks are reused
        # FIFO before the cursor advances.
        self._next_plane = 0
        self._plane_next_block = np.zeros(
            (self.geometry.total_luns, self.geometry.planes_per_lun),
            dtype=np.int64,
        )
        self._released: list[tuple[int, int, int]] = []
        # Counters (device-lifetime, folded into ServingReport.flash).
        self.page_reads = 0
        self.ecc_soft_decodes = 0
        self.refreshes = 0
        self.cluster_page_reads: dict[int, int] = {}
        self.cluster_refreshes: dict[int, int] = {}
        self.cluster_erases: dict[int, int] = {}

    # ---- layout ----------------------------------------------------------
    def pages_for(self, nbytes: int) -> int:
        """Pages needed to hold ``nbytes`` (at least one)."""
        page = self.geometry.page_size
        return max(1, -(-int(nbytes) // page))

    def has_cluster(self, cluster: int) -> bool:
        return cluster in self._cluster_blocks

    def _allocate_block(self) -> tuple[int, int, int]:
        """Next free (lun, plane, logical block), striped across planes."""
        if self._released:
            return self._released.pop(0)
        geometry = self.geometry
        n_planes = geometry.total_luns * geometry.planes_per_lun
        for _ in range(n_planes):
            flat = self._next_plane
            self._next_plane = (flat + 1) % n_planes
            lun, plane = divmod(flat, geometry.planes_per_lun)
            nxt = int(self._plane_next_block[lun, plane])
            if nxt < self.ftl.usable_blocks:
                self._plane_next_block[lun, plane] = nxt + 1
                return (lun, plane, nxt)
        raise RuntimeError(
            f"device {self.device_index}: flash capacity exhausted "
            f"({self.ftl.usable_blocks} blocks x {n_planes} planes)"
        )

    def ensure_cluster(self, cluster: int, nbytes: int) -> int:
        """Lay a cluster out over flash blocks; returns its page count.

        Idempotent: a cluster that already has a layout keeps it.
        Blocks are striped across (LUN, plane) pairs so a cluster's
        reads exercise multi-plane parallelism, and the last block may
        be partial (its ``pages_valid`` is what a refresh rewrites).
        """
        if cluster in self._cluster_blocks:
            return int(
                sum(
                    self._block_pages[key]
                    for key in zip(
                        self._cluster_luns[cluster].tolist(),
                        self._cluster_planes[cluster].tolist(),
                        self._cluster_blocks[cluster].tolist(),
                    )
                )
            )
        pages = self.pages_for(nbytes)
        per_block = self.geometry.pages_per_block
        n_blocks = -(-pages // per_block)
        luns = np.empty(n_blocks, dtype=np.int64)
        planes = np.empty(n_blocks, dtype=np.int64)
        blocks = np.empty(n_blocks, dtype=np.int64)
        remaining = pages
        for i in range(n_blocks):
            lun, plane, block = self._allocate_block()
            luns[i], planes[i], blocks[i] = lun, plane, block
            in_block = min(per_block, remaining)
            remaining -= in_block
            self._block_pages[(lun, plane, block)] = in_block
            self._owner[(lun, plane, block)] = cluster
        self._cluster_luns[cluster] = luns
        self._cluster_planes[cluster] = planes
        self._cluster_blocks[cluster] = blocks
        self._cluster_cursor[cluster] = 0
        global_planes = luns * self.geometry.planes_per_lun + planes
        self._cluster_ber_factor[cluster] = (
            float(self.ber.plane_ber[global_planes].mean()) / self._median_ber
        )
        self.cluster_page_reads.setdefault(cluster, 0)
        self.cluster_refreshes.setdefault(cluster, 0)
        self.cluster_erases.setdefault(cluster, 0)
        return pages

    # ---- the read path ---------------------------------------------------
    def record_reads(
        self, cluster: int, n_pages: int
    ) -> list[tuple[int, int, int]]:
        """Charge ``n_pages`` page reads to a cluster's blocks.

        Reads are spread round-robin over the cluster's blocks from a
        persistent cursor (every block of a hot cluster heats evenly,
        as the multi-plane mapping reads them together).  Returns the
        blocks that crossed the disturb threshold and are not already
        awaiting maintenance — the caller schedules the
        ``FlashMaintenance`` event.
        """
        if n_pages <= 0 or cluster not in self._cluster_blocks:
            return []
        self.page_reads += n_pages
        self.cluster_page_reads[cluster] += n_pages
        blocks = self._cluster_blocks[cluster]
        n_blocks = blocks.size
        base, rem = divmod(n_pages, n_blocks)
        counts = np.full(n_blocks, base, dtype=np.int64)
        if rem:
            cursor = self._cluster_cursor[cluster]
            counts[(cursor + np.arange(rem)) % n_blocks] += 1
            self._cluster_cursor[cluster] = (cursor + rem) % n_blocks
        due = self.ftl.record_reads(
            self._cluster_luns[cluster],
            self._cluster_planes[cluster],
            blocks,
            counts,
        )
        fresh = [t for t in due if t not in self._pending]
        self._pending.update(fresh)
        return fresh

    def ecc_delay_s(self, cluster: int, n_pages: int) -> float:
        """Soft-decode stall for ``n_pages`` hard-decoded reads.

        Hard-decision LDPC is pipelined with the array read; only the
        failures cost extra — each pays the soft-decode latency scaled
        by how bad the cluster's planes are relative to the device
        median (a cluster landed on tail-BER planes stalls more).
        """
        if n_pages <= 0:
            return 0.0
        failures = self.ldpc.decode_pages(n_pages)
        if failures == 0:
            return 0.0
        self.ecc_soft_decodes += failures
        factor = self._cluster_ber_factor.get(cluster, 1.0)
        return failures * self.timing.ecc_soft_decode_s * factor

    # ---- maintenance (GC pauses) -----------------------------------------
    def perform_refreshes(self, triples: list[tuple[int, int, int]]) -> float:
        """Refresh the given blocks through the FTL; returns the total
        pause the device must absorb (read + program each valid page,
        then erase — per block).

        Blocks whose owning cluster migrated away between the threshold
        crossing and the maintenance event are skipped (their release
        already erased them).
        """
        total = 0.0
        for triple in triples:
            self._pending.discard(triple)
            owner = self._owner.get(triple)
            if owner is None:
                continue
            lun, plane, block = triple
            pages_valid = self._block_pages[triple]
            event = self.ftl.refresh_block(
                lun, plane, block, pages_valid=pages_valid
            )
            total += event.latency_s(self.timing, pages_valid)
            self.refreshes += 1
            self.cluster_refreshes[owner] += 1
            self.cluster_erases[owner] += 1
        return total

    # ---- migrations (host writes / frees) --------------------------------
    def program_cluster(self, cluster: int, nbytes: int) -> int:
        """Host-program a cluster's data onto this device (migration
        destination or initial placement); returns the pages written."""
        pages = self.ensure_cluster(cluster, nbytes)
        luns = self._cluster_luns[cluster]
        planes = self._cluster_planes[cluster]
        blocks = self._cluster_blocks[cluster]
        for lun, plane, block in zip(
            luns.tolist(), planes.tolist(), blocks.tolist()
        ):
            self.ftl.program_block(
                lun, plane, block, pages=self._block_pages[(lun, plane, block)]
            )
        return pages

    def program_time_s(self, pages: int) -> float:
        """NAND program time for ``pages`` host pages (the floor a
        migration's write booking cannot beat, whatever the link
        bandwidth says)."""
        return pages * self.timing.program_page_s

    def release_cluster(self, cluster: int) -> None:
        """A cluster migrated away: erase its blocks in place and return
        them to this store's allocation free list."""
        if cluster not in self._cluster_blocks:
            return
        luns = self._cluster_luns.pop(cluster)
        planes = self._cluster_planes.pop(cluster)
        blocks = self._cluster_blocks.pop(cluster)
        self._cluster_cursor.pop(cluster, None)
        self._cluster_ber_factor.pop(cluster, None)
        for lun, plane, block in zip(
            luns.tolist(), planes.tolist(), blocks.tolist()
        ):
            key = (lun, plane, block)
            self.ftl.erase_block_in_place(lun, plane, block)
            self.cluster_erases[cluster] += 1
            self._pending.discard(key)
            self._block_pages.pop(key, None)
            self._owner.pop(key, None)
            self._released.append(key)

    # ---- reporting -------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready device summary (folded into ``report.flash``)."""
        gc = self.ftl.gc_summary()
        wear = self.ftl.wear_summary()
        return {
            "device": self.device_index,
            "page_reads": self.page_reads,
            "ecc_soft_decodes": self.ecc_soft_decodes,
            "refreshes": self.refreshes,
            "host_pages_written": int(gc["host_pages_written"]),
            "nand_pages_written": int(gc["nand_pages_written"]),
            "write_amplification": gc["write_amplification"],
            "total_erases": int(gc["total_erases"]),
            "max_erases": wear["max_erases"],
            "cluster_page_reads": {
                str(c): n for c, n in sorted(self.cluster_page_reads.items())
            },
            "cluster_refreshes": {
                str(c): n for c, n in sorted(self.cluster_refreshes.items())
            },
            "cluster_erases": {
                str(c): n for c, n in sorted(self.cluster_erases.items())
            },
        }


def flash_summary(stores: list[FlashBackedStore]) -> dict:
    """Fleet-wide flash summary for ``ServingReport.flash``: the
    per-device summaries, their totals and per-cluster sums."""
    devices = [store.summary() for store in stores]
    cluster_reads: dict[str, int] = {}
    cluster_erases: dict[str, int] = {}
    for summary in devices:
        for cluster, n in summary["cluster_page_reads"].items():
            cluster_reads[cluster] = cluster_reads.get(cluster, 0) + n
        for cluster, n in summary["cluster_erases"].items():
            cluster_erases[cluster] = cluster_erases.get(cluster, 0) + n
    host = sum(s["host_pages_written"] for s in devices)
    nand = sum(s["nand_pages_written"] for s in devices)
    return {
        "page_reads": sum(s["page_reads"] for s in devices),
        "ecc_soft_decodes": sum(s["ecc_soft_decodes"] for s in devices),
        "refreshes": sum(s["refreshes"] for s in devices),
        "total_erases": sum(s["total_erases"] for s in devices),
        "host_pages_written": host,
        "nand_pages_written": nand,
        "write_amplification": nand / host if host else 0.0,
        "cluster_page_reads": dict(
            sorted(cluster_reads.items(), key=lambda kv: int(kv[0]))
        ),
        "cluster_erases": dict(
            sorted(cluster_erases.items(), key=lambda kv: int(kv[0]))
        ),
        "devices": devices,
    }
