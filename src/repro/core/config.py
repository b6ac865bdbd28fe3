"""NDSearch system configuration and scheduling flags.

Two presets are provided:

* :meth:`NDSearchConfig.paper` — the configuration evaluated in the
  paper: 512 GB SearSSD (32 channels x 4 chips x 2 LUNs x 2 planes,
  16 KB pages), 4 GB internal DRAM, 256 LUN-level accelerators, PCIe
  3.0 x16 to the host and x4 to the FPGA.
* :meth:`NDSearchConfig.scaled` — the benchmark-scale configuration.
  Scaling preserves the *ratios* that produce the paper's relative
  results: the batch-size-to-LUN-count ratio, the internal-to-PCIe
  bandwidth imbalance, and the dataset-footprint-to-page-count ratio
  (so reordering and dynamic allocation have the same room to help).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming


@dataclass(frozen=True)
class SchedulingFlags:
    """Which of the paper's four techniques are enabled.

    Matches the ablation axes of Fig. 16: ``re`` (degree-ascending BFS
    reordering), ``mp`` (multi-plane-aware mapping), ``da`` (batch-wise
    dynamic allocating), ``sp`` (speculative searching).
    """

    reorder: bool = True
    multiplane: bool = True
    dynamic_alloc: bool = True
    speculative: bool = True

    @classmethod
    def bare(cls) -> "SchedulingFlags":
        """The 'Bare' machine of Fig. 16 — no optimisations."""
        return cls(False, False, False, False)

    @classmethod
    def all_enabled(cls) -> "SchedulingFlags":
        return cls(True, True, True, True)

    def label(self) -> str:
        parts = []
        if self.reorder:
            parts.append("re")
        if self.multiplane:
            parts.append("mp")
        if self.dynamic_alloc:
            parts.append("da")
        if self.speculative:
            parts.append("sp")
        return "+".join(parts) if parts else "bare"


@dataclass(frozen=True)
class HostConfig:
    """Host-platform parameters for the CPU/GPU baselines."""

    dram_capacity_bytes: int
    """Host main-memory capacity available to the index (the paper's
    24 GB; scaled preset: 2 MB so the big scaled datasets overflow it
    just as the billion-vector datasets overflow 24 GB)."""

    vram_capacity_bytes: int
    """GPU memory capacity (paper: 24 GB Titan RTX)."""

    pcie_util_max: float = 0.83
    """Saturated PCIe utilisation (Fig. 2a)."""

    pcie_util_tau: float = 300.0
    """Batch size constant of the utilisation ramp (Fig. 2a)."""

    io_request_overhead_s: float = 0.3e-6
    """Host software overhead per SSD read request (amortised)."""

    def pcie_utilization(self, batch_size: int) -> float:
        """Effective PCIe utilisation at a given batch size (Fig. 2a)."""
        import math

        if batch_size <= 0:
            return 0.0
        return self.pcie_util_max * (1.0 - math.exp(-batch_size / self.pcie_util_tau))


@dataclass(frozen=True)
class NDSearchConfig:
    """Complete configuration of an NDSearch deployment."""

    geometry: SSDGeometry
    timing: FlashTiming
    host: HostConfig
    flags: SchedulingFlags = field(default_factory=SchedulingFlags)

    dram_bytes: int = 4 * 1024**3
    """SearSSD internal DRAM (LUNCSR arrays + query property table)."""

    vgen_buffer_bytes: int = 2 * 1024**2
    alloc_buffer_bytes: int = 6 * 1024**2
    query_queue_bytes: int = 24 * 1024
    vaddr_queue_bytes: int = 3 * 1024

    max_queries_per_lun: int = 16
    """Query-queue capacity of one LUN accelerator (24 KB queue /
    ~1.5 KB per query slot).  Batches needing more split into
    sub-batches — the paper-scale capacity is 256 x 16 = 4096, which
    is exactly where Fig. 19's speedup starts to decline."""

    speculative_width: int = 8
    """Second-order neighbors prefetched per query and iteration."""

    hot_cache_fraction: float = 0.05
    """Fraction of vertices cacheable in internal DRAM (DiskANN mode)."""

    @classmethod
    def paper(cls, flags: SchedulingFlags | None = None) -> "NDSearchConfig":
        """The paper's full-size configuration (Section IV-C, Table I)."""
        return cls(
            geometry=SSDGeometry.paper(),
            timing=FlashTiming(),
            host=HostConfig(
                dram_capacity_bytes=24 * 1024**3,
                vram_capacity_bytes=24 * 1024**3,
            ),
            flags=flags or SchedulingFlags(),
        )

    @classmethod
    def scaled(cls, flags: SchedulingFlags | None = None) -> "NDSearchConfig":
        """Benchmark-scale configuration.

        64 LUNs / 128 planes, 4 KB pages, tR scaled with page size so
        that the internal-bandwidth-to-PCIe ratio and the per-access
        cost ratios between platforms match the paper-scale system.
        """
        geometry = SSDGeometry(
            channels=16,
            chips_per_channel=2,
            luns_per_chip=2,
            planes_per_lun=2,
            blocks_per_plane=32,
            pages_per_block=16,
            page_size=4 * 1024,
        )
        timing = FlashTiming(read_page_s=20e-6)
        return cls(
            geometry=geometry,
            timing=timing,
            host=HostConfig(
                dram_capacity_bytes=2 * 1024**2,
                vram_capacity_bytes=2 * 1024**2,
            ),
            flags=flags or SchedulingFlags(),
            dram_bytes=64 * 1024**2,
        )

    def with_flags(self, flags: SchedulingFlags) -> "NDSearchConfig":
        return replace(self, flags=flags)

    def shard(self, num_shards: int) -> "NDSearchConfig":
        """Per-device configuration for an ``num_shards``-way pool.

        Serving deployments split one SearSSD budget across several
        smaller devices; this divides the flash array (whole channels
        first, then chips within a channel) and the internal DRAM so
        the pool's aggregate resources match the unsharded device.
        Per-LUN parameters (queue capacity, page size, timing) are
        unchanged — a shard is a smaller SearSSD, not a slower one.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if num_shards == 1:
            return self
        g = self.geometry
        if g.channels % num_shards == 0:
            geometry = replace(g, channels=g.channels // num_shards)
        else:
            total_chips = g.channels * g.chips_per_channel
            if total_chips % num_shards != 0:
                raise ValueError(
                    f"cannot divide {g.channels} channels x "
                    f"{g.chips_per_channel} chips evenly into {num_shards} shards"
                )
            per_shard_chips = total_chips // num_shards
            if per_shard_chips % g.chips_per_channel == 0:
                geometry = replace(
                    g, channels=per_shard_chips // g.chips_per_channel
                )
            else:
                # Chip count does not fill whole channels: put every
                # chip on one channel so no flash is silently dropped.
                geometry = replace(
                    g, channels=1, chips_per_channel=per_shard_chips
                )
        return replace(
            self,
            geometry=geometry,
            dram_bytes=max(self.dram_bytes // num_shards, 1024**2),
        )

    # ---- derived quantities ---------------------------------------------
    @property
    def num_lun_accelerators(self) -> int:
        """One LUN-level accelerator per LUN (paper: 256)."""
        return self.geometry.total_luns

    @property
    def internal_bandwidth(self) -> float:
        """Aggregate page-buffer readout bandwidth if every LUN streams
        simultaneously (the paper's 819.2 GB/s roofline ceiling)."""
        return self.geometry.total_luns * 3.2e9

    @property
    def max_batch_capacity(self) -> int:
        """Largest batch servable without splitting into sub-batches."""
        return self.num_lun_accelerators * self.max_queries_per_lun

    def sub_batches(self, batch_size: int) -> int:
        """How many sub-batches a batch must split into (Fig. 19)."""
        if batch_size <= 0:
            return 1
        return -(-batch_size // self.max_batch_capacity)
