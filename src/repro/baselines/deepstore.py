"""DeepStore-style in-storage accelerators: DS-c and DS-cp (Fig. 13).

DeepStore [58] places accelerators *outside* the NAND flash chips — at
channel level (DS-c) or chip level (DS-cp).  Built here under the same
budget and the same static data layout as NDSearch, per the paper's
methodology, with dynamic allocating implemented for them ("we actually
implement dynamic allocating on DS-cp to maximize its hardware
utilization").  What they cannot avoid:

* every sensed page must leave the NAND chip — crossing the chip bus
  (DS-cp) or the chip + channel bus (DS-c) and paying the ~30 us
  page-buffer-to-external-accelerator penalty (Section III);
* parallelism is capped at one accelerator per chip (DS-cp) or per
  channel (DS-c), versus one per LUN with per-plane MAC groups in
  NDSearch, and the shared bus serialises the transfers of all LUNs
  below one accelerator.

Because graph-traversal ANNS is not compute-bound, DS-cp's extra
proximity beats DS-c's bigger logic — the inversion versus the original
DeepStore paper that Section VII-B calls out.

:meth:`DeepStoreModel.run_batch` prices a batch in one pass over the
traces' columns: every computed vertex is tagged with its round, trace
and accelerator group, page loads come from one distinct-count over
the tagged page keys, and busy totals and the batch clock are
sequential cumulative sums.  The result is bit-exact with a loop over
rounds, traces and groups, which the tests keep as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.trace import SearchTrace
from repro.baselines.common import DatasetProfile
from repro.core.config import NDSearchConfig
from repro.core.placement import VertexPlacement
from repro.core.rounds import distinct, ordered_total, run_heads
from repro.sim.energy import EnergyModel
from repro.sim.stats import Counters, PhaseSegment, SimResult


@dataclass
class DeepStoreModel:
    """Trace-driven DS-c / DS-cp model sharing NDSearch's substrate."""

    config: NDSearchConfig
    placement: VertexPlacement
    level: str = "chip"
    """``"chip"`` for DS-cp, ``"channel"`` for DS-c."""

    dynamic_alloc: bool = True

    external_pipeline_factor: float = 2.0
    """The ~30 us page-buffer-to-external-accelerator penalty overlaps
    the previous page's bus transfer via double buffering, so its
    effective serial cost is external / this factor."""

    def __post_init__(self) -> None:
        if self.level not in ("chip", "channel"):
            raise ValueError(f"level must be 'chip' or 'channel', got {self.level!r}")
        g = self.config.geometry
        self._lun_span = g.blocks_per_plane * g.pages_per_block * g.planes_per_lun
        self._key_space = g.total_luns * self._lun_span
        # LUNs below one accelerator, sharing its bus.
        self._luns_below = (
            g.luns_per_chip if self.level == "chip" else g.luns_per_channel
        )

    @property
    def platform(self) -> str:
        return "ds-cp" if self.level == "chip" else "ds-c"

    @property
    def num_accelerators(self) -> int:
        g = self.config.geometry
        return g.total_chips if self.level == "chip" else g.channels

    def _group_of_lun(self, luns: np.ndarray) -> np.ndarray:
        return luns // self._luns_below

    def _transfer_s(self) -> float:
        """Move one page from the page buffer to the accelerator."""
        timing = self.config.timing
        g = self.config.geometry
        if self.level == "chip":
            bus = timing.chip_bus_bw
        else:
            bus = timing.channel_bus_bw
        overhead = timing.external_accelerator_s / self.external_pipeline_factor
        return g.page_size / bus + overhead

    def run_batch(
        self,
        traces: list[SearchTrace],
        profile: DatasetProfile,
        algorithm: str = "hnsw",
        cached_vertices: np.ndarray | None = None,
        new_id: np.ndarray | None = None,
    ) -> SimResult:
        """Price one batch, every round and accelerator group at once.

        Each round advances every active query by one iteration.  Its
        computed vertices (minus hot vertices served from controller
        DRAM) are sensed, shipped to the accelerator above their LUN
        and computed there; the round lasts as long as its slowest
        accelerator group plus the controller's scheduling and
        gathering.  Every computed vertex is tagged with its round,
        trace and group, so one pass prices the whole batch.  Groups
        are walked in the order a per-round loop meets them (by round,
        then by the first trace touching the group, then by group) and
        every float is added in that order, so the result is bit-exact
        with such a loop.

        ``new_id``, when given, maps the traces' vertex IDs to the
        placement's (an :class:`~repro.core.ndsearch.NDSearch` system's
        relabel map); it is applied once, to the batch's concatenated
        computed column.  ``cached_vertices`` are placement IDs.
        """
        timing = self.config.timing
        geometry = self.config.geometry
        batch = len(traces)
        if batch == 0:
            return SimResult(self.platform, algorithm, profile.name, 0, 0.0)
        n_groups = self.num_accelerators
        key_space = self._key_space

        # Every computed vertex, tagged with its round and trace.
        n_iters = np.fromiter(
            (t.num_iterations for t in traces), dtype=np.int64, count=batch
        )
        n_rounds = int(n_iters.max())
        vertex = np.concatenate([t.computed for t in traces])
        if new_id is not None:
            vertex = new_id[vertex]
        rnd = np.concatenate([t.rounds for t in traces])
        owner = np.repeat(np.arange(batch), [t.trace_length for t in traces])
        # Traces still searching in each round.
        finished = np.cumsum(np.bincount(n_iters, minlength=n_rounds))
        n_active = batch - finished[:n_rounds]
        # DiskANN-style hot vertices served from the SSD's controller
        # DRAM, as on NDSearch.
        hit_rounds = rnd[:0]
        if cached_vertices is not None and len(cached_vertices):
            hit = np.isin(vertex, cached_vertices)
            hit_rounds = rnd[hit]
            vertex, rnd, owner = vertex[~hit], rnd[~hit], owner[~hit]
        n_pairs = np.bincount(rnd, minlength=n_rounds)

        # (round, group) pairs in the order a per-round loop meets them.
        keys = self.placement.page_keys(vertex)
        group = self._group_of_lun(keys // self._lun_span)
        rg = rnd * n_groups + group
        by_rg = np.argsort(rg, kind="stable")
        heads = np.flatnonzero(run_heads(rg[by_rg]))
        pair = rg[by_rg[heads]]
        first_trace = owner[by_rg[heads]]
        n_vectors = np.append(heads[1:], rg.size) - heads
        # Page loads per (round, group): with dynamic allocation the
        # group's accelerator senses each distinct page once per round;
        # without it, once per round for each trace that needs it.
        scope = rnd if self.dynamic_alloc else rnd * batch + owner
        pages = distinct(scope * key_space + keys)
        page_round = pages // key_space
        if not self.dynamic_alloc:
            page_round //= batch
        page_group = self._group_of_lun(pages % key_space // self._lun_span)
        loads = np.bincount(
            page_round * n_groups + page_group, minlength=n_rounds * n_groups
        )[pair]
        g_round = pair // n_groups
        walk = np.argsort((g_round * batch + first_trace) * n_groups
                          + pair % n_groups)
        g_round, loads, n_vectors = g_round[walk], loads[walk], n_vectors[walk]

        # Transfers serialise on the shared bus; senses from the LUNs
        # below the accelerator pipeline behind them.
        t_transfer = loads * self._transfer_s()
        t_sense = -(-loads // self._luns_below) * timing.read_page_s
        t_compute = n_vectors * timing.distance_mac_s(profile.dim)
        group_time = np.maximum(t_transfer, t_sense) + t_compute
        round_time = np.zeros(n_rounds)
        np.maximum.at(round_time, g_round, group_time)

        t_sched = n_active * timing.vgen_stage_s + n_pairs * timing.alloc_dispatch_s
        t_gather = n_pairs * timing.dram_access_s
        t_round = t_sched + round_time + t_gather

        query_bytes = batch * (profile.dim * 4 + 16)
        out_bytes = batch * 10 * 8
        t_in = timing.host_transfer_s(query_bytes)
        t_out = timing.host_transfer_s(out_bytes)
        clock = np.cumsum(np.concatenate(([t_in], t_round))).tolist()
        timeline: list[PhaseSegment] = []
        if t_in > 0:
            timeline.append(PhaseSegment("host_in", 0.0, t_in, resource="host_in"))
        timeline.extend(
            PhaseSegment("search_round", clock[r], clock[r + 1], resource="engine")
            for r in np.flatnonzero(t_round > 0).tolist()
        )
        makespan = clock[-1]
        if t_out > 0:
            timeline.append(
                PhaseSegment(
                    "host_out", makespan, makespan + t_out, resource="host_out"
                )
            )
        makespan += t_out

        busy = {
            "pcie_host": t_in,
            "nand_read": ordered_total(t_sense),
            "page_transfer": ordered_total(t_transfer),
            "controller": ordered_total(t_sched + t_gather),
            "compute": ordered_total(t_compute),
        }
        # Counter keys in the order a per-round loop first touches
        # them: host bytes, then per round any cache hits, the distance
        # count and, once a group loads pages, the page counters.
        page_reads = int(loads.sum())
        touched = [((-1, 0), "pcie_bytes", query_bytes + out_bytes)]
        if hit_rounds.size:
            touched.append(((int(hit_rounds.min()), 0), "cache_hits",
                            hit_rounds.size))
        if n_rounds:
            touched.append(((0, 1), "distance_computations",
                            int(n_pairs.sum())))
        if g_round.size:
            first = int(g_round[0])
            touched.append(((first, 2), "page_reads", page_reads))
            touched.append(((first, 3), "internal_bytes",
                            page_reads * geometry.page_size))
        counters = Counters({name: value for _, name, value in sorted(touched)})

        result = SimResult(
            platform=self.platform,
            algorithm=algorithm,
            dataset=profile.name,
            batch_size=batch,
            sim_time_s=makespan,
            counters=counters,
            component_busy_s=busy,
            timeline=timeline,
        )
        EnergyModel.for_platform(self.platform).attach(result)
        return result
