"""DeepStore batch pricing: the one-pass ``DeepStoreModel.run_batch``
must reproduce the per-round, per-trace, per-group loop exactly, and
the columnar ``remap_trace`` the tuple-based remap it replaced."""

from __future__ import annotations

import dataclasses
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann.trace import IterationRecord, SearchTrace, remap_trace
from repro.baselines.common import DatasetProfile
from repro.baselines.deepstore import DeepStoreModel
from repro.core.config import HostConfig, NDSearchConfig
from repro.core.placement import map_vertices
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming
from repro.sim.energy import EnergyModel
from repro.sim.stats import Counters, PhaseSegment, SimResult


# ---- oracles: the per-round code ----------------------------------------------
def _run_batch_oracle(
    self: DeepStoreModel,
    traces: list[SearchTrace],
    profile: DatasetProfile,
    algorithm: str = "hnsw",
    cached_vertices: np.ndarray | None = None,
) -> SimResult:
    """``DeepStoreModel.run_batch`` as a loop over rounds, traces and
    accelerator groups."""
    timing = self.config.timing
    cached = (
        frozenset(int(v) for v in cached_vertices)
        if cached_vertices is not None
        else frozenset()
    )
    counters = Counters()
    busy: dict[str, float] = {
        "pcie_host": 0.0,
        "nand_read": 0.0,
        "page_transfer": 0.0,
        "controller": 0.0,
        "compute": 0.0,
    }
    batch = len(traces)
    if batch == 0:
        return SimResult(self.platform, algorithm, profile.name, 0, 0.0)

    query_bytes = batch * (profile.dim * 4 + 16)
    t_in = timing.host_transfer_s(query_bytes)
    counters["pcie_bytes"] += query_bytes
    busy["pcie_host"] += t_in
    makespan = t_in
    timeline: list[PhaseSegment] = []
    if t_in > 0:
        timeline.append(
            PhaseSegment("host_in", 0.0, t_in, resource="host_in")
        )
    t_page = self._transfer_s()

    max_rounds = max(t.num_iterations for t in traces)
    for round_idx in range(max_rounds):
        group_pages: dict[int, list[np.ndarray]] = {}
        group_vectors: dict[int, int] = {}
        n_active = 0
        n_pairs = 0
        for trace in traces:
            if round_idx >= trace.num_iterations:
                continue
            n_active += 1
            computed = np.asarray(
                trace.iterations[round_idx].computed, dtype=np.int64
            )
            if cached and computed.size:
                # DiskANN-style hot vertices served from the SSD's
                # controller DRAM, as on NDSearch.
                mask = np.fromiter(
                    (int(v) in cached for v in computed),
                    dtype=bool,
                    count=computed.size,
                )
                hits = int(mask.sum())
                if hits:
                    counters["cache_hits"] += hits
                    computed = computed[~mask]
            if computed.size == 0:
                continue
            n_pairs += int(computed.size)
            keys = self.placement.page_keys(computed)
            luns = keys // self._lun_span
            groups = self._group_of_lun(luns)
            for grp in np.unique(groups):
                grp_keys = keys[groups == grp]
                group_pages.setdefault(int(grp), []).append(grp_keys)
                group_vectors[int(grp)] = (
                    group_vectors.get(int(grp), 0) + grp_keys.size
                )
        if n_active == 0:
            continue

        t_sched = n_active * timing.vgen_stage_s + n_pairs * timing.alloc_dispatch_s
        t_gather = n_pairs * timing.dram_access_s
        busy["controller"] += t_sched + t_gather
        counters["distance_computations"] += n_pairs

        round_time = 0.0
        for grp, key_groups in group_pages.items():
            if self.dynamic_alloc:
                loads = int(np.unique(np.concatenate(key_groups)).size)
            else:
                loads = int(sum(np.unique(k).size for k in key_groups))
            counters["page_reads"] += loads
            counters["internal_bytes"] += loads * self.config.geometry.page_size
            # Transfers serialise on the shared bus; senses from the
            # LUNs below the accelerator pipeline behind them.
            luns_below = (
                self.config.geometry.luns_per_chip
                if self.level == "chip"
                else self.config.geometry.luns_per_channel
            )
            t_transfer = loads * t_page
            t_sense = -(-loads // luns_below) * timing.read_page_s
            t_compute = group_vectors.get(grp, 0) * timing.distance_mac_s(
                profile.dim
            )
            group_time = max(t_transfer, t_sense) + t_compute
            busy["page_transfer"] += t_transfer
            busy["nand_read"] += t_sense
            busy["compute"] += t_compute
            round_time = max(round_time, group_time)
        t_round = t_sched + round_time + t_gather
        if t_round > 0:
            timeline.append(
                PhaseSegment(
                    "search_round", makespan, makespan + t_round,
                    resource="engine",
                )
            )
        makespan += t_round

    out_bytes = batch * 10 * 8
    t_out = timing.host_transfer_s(out_bytes)
    if t_out > 0:
        timeline.append(
            PhaseSegment(
                "host_out", makespan, makespan + t_out, resource="host_out"
            )
        )
    makespan += t_out
    counters["pcie_bytes"] += out_bytes

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


def _remap_oracle(trace: SearchTrace, new_id: np.ndarray) -> SearchTrace:
    """The tuple-based ``remap_trace``: one gather over every entry,
    then every computed id, then a per-iteration rebuild."""
    iterations = trace.iterations
    n = len(iterations)
    computed = [it.computed for it in iterations]
    sizes = [len(c) for c in computed]
    # One gather over every entry, then every computed id, in order.
    old = np.fromiter(
        chain((it.entry for it in iterations), chain.from_iterable(computed)),
        dtype=np.int64, count=n + sum(sizes),
    )
    new = new_id[old].tolist()
    records = []
    start = n
    for entry, size in zip(new[:n], sizes):
        records.append(
            IterationRecord(entry=entry, computed=tuple(new[start:start + size]))
        )
        start += size
    if trace.result_ids is None:
        return SearchTrace.from_iterations(records, query_id=trace.query_id)
    return SearchTrace.from_iterations(
        records, query_id=trace.query_id,
        result_ids=new_id[trace.result_ids],
        result_distances=trace.result_distances,
    )


# ---- generated cases ------------------------------------------------------------
N_VERTICES = 160


def _snapshot(result: SimResult):
    """Everything a priced batch reports, with counter and busy order."""
    return (
        result.platform, result.algorithm, result.dataset, result.batch_size,
        result.sim_time_s, list(result.counters.items()),
        list(result.component_busy_s.items()), list(result.timeline),
        result.energy_j, result.power_w,
    )


@st.composite
def geometries(draw) -> SSDGeometry:
    return SSDGeometry(
        channels=draw(st.integers(1, 3)),
        chips_per_channel=draw(st.integers(1, 3)),
        luns_per_chip=draw(st.integers(1, 3)),
        planes_per_lun=draw(st.integers(1, 2)),
        blocks_per_plane=draw(st.integers(2, 4)),
        pages_per_block=draw(st.integers(2, 4)),
        page_size=draw(st.sampled_from((256, 512, 1024))),
    )


@st.composite
def batch_cases(draw):
    """A model, a batch of traces, a profile and a hot-vertex set."""
    geometry = draw(geometries())
    vector_bytes = 64
    # Grow the device until the corpus fits.
    per_page = geometry.page_size // vector_bytes
    while geometry.total_planes * geometry.pages_per_plane * per_page < N_VERTICES:
        geometry = dataclasses.replace(
            geometry, blocks_per_plane=geometry.blocks_per_plane * 2
        )
    config = NDSearchConfig(
        geometry=geometry,
        timing=FlashTiming(
            read_page_s=draw(st.sampled_from((20e-6, 45e-6, 3e-6)))
        ),
        host=HostConfig(
            dram_capacity_bytes=64 * 1024, vram_capacity_bytes=64 * 1024
        ),
        dram_bytes=16 * 1024**2,
    )
    placement = map_vertices(
        N_VERTICES, geometry, vector_bytes,
        scheme=draw(st.sampled_from(("multiplane", "interleaved"))),
    )
    model = DeepStoreModel(
        config=config,
        placement=placement,
        level=draw(st.sampled_from(("chip", "channel"))),
        dynamic_alloc=draw(st.booleans()),
    )
    # A narrow vertex range makes pages and groups collide across
    # traces; a wide one spreads them.
    top = draw(st.sampled_from((7, N_VERTICES - 1)))
    vertex = st.integers(0, top)
    hot = draw(
        st.none()
        | st.just([])
        | st.lists(st.integers(0, top), min_size=1, max_size=12)
    )
    iteration = st.lists(vertex, max_size=10)
    if hot:
        # Rounds whose every vertex is cached.
        iteration = iteration | st.lists(st.sampled_from(hot), min_size=1,
                                         max_size=4)
    traces = [
        SearchTrace.from_iterations(
            [IterationRecord(entry=0, computed=tuple(c)) for c in rounds],
            query_id=q,
        )
        for q, rounds in enumerate(draw(st.lists(
            st.lists(iteration, max_size=7), min_size=1, max_size=9
        )))
    ]
    dim = draw(st.sampled_from((16, 96, 128)))
    profile = DatasetProfile(
        name="gen", num_vectors=N_VERTICES, dim=dim, vector_bytes=dim * 4,
        footprint_bytes=N_VERTICES * dim * 4,
    )
    cached = None if hot is None else np.asarray(hot, dtype=np.int64)
    return model, traces, profile, cached


class TestOnePassPricing:
    @settings(max_examples=300, deadline=None)
    @given(case=batch_cases())
    def test_matches_per_round_loop(self, case):
        model, traces, profile, cached = case
        got = model.run_batch(traces, profile, "algo", cached_vertices=cached)
        want = _run_batch_oracle(model, traces, profile, "algo",
                                 cached_vertices=cached)
        assert got.sim_time_s == want.sim_time_s
        assert list(got.counters.items()) == list(want.counters.items())
        assert got.component_busy_s == want.component_busy_s
        assert got.timeline == want.timeline
        assert got.energy_j == want.energy_j
        assert _snapshot(got) == _snapshot(want)

    @pytest.mark.parametrize("level", ("chip", "channel"))
    @pytest.mark.parametrize("dynamic_alloc", (True, False))
    @pytest.mark.parametrize("batch", (1, 7, 64))
    def test_search_traces_match_per_round_loop(
        self, small_hnsw, small_vectors, tiny_config, level, dynamic_alloc,
        batch,
    ):
        rng = np.random.default_rng(batch)
        queries = small_vectors[rng.choice(len(small_vectors), batch)]
        traces = small_hnsw.search_batch(queries, 5, ef=16)[2]
        placement = map_vertices(len(small_vectors), tiny_config.geometry, 64)
        model = DeepStoreModel(config=tiny_config, placement=placement,
                               level=level, dynamic_alloc=dynamic_alloc)
        profile = DatasetProfile("d", len(small_vectors), 16, 64, 1 << 20)
        for hot in (None, np.arange(0, len(small_vectors), 5)):
            got = model.run_batch(traces, profile, cached_vertices=hot)
            want = _run_batch_oracle(model, traces, profile,
                                     cached_vertices=hot)
            assert _snapshot(got) == _snapshot(want)

    def test_edge_batches(self, tiny_config):
        placement = map_vertices(64, tiny_config.geometry, 64)
        model = DeepStoreModel(config=tiny_config, placement=placement)
        profile = DatasetProfile("d", 64, 16, 64, 1 << 20)
        empty = SearchTrace.from_iterations(
            [IterationRecord(0, ()), IterationRecord(1, ())]
        )
        cases = {
            "no iterations": [SearchTrace(), SearchTrace()],
            "empty iterations": [empty],
            "uneven": [empty, SearchTrace.from_iterations(
                [IterationRecord(0, (1, 2)), IterationRecord(1, ()),
                 IterationRecord(2, (3, 40, 41))]
            )],
        }
        for traces in cases.values():
            for hot in (None, np.array([1, 2, 3])):
                got = model.run_batch(traces, profile, cached_vertices=hot)
                want = _run_batch_oracle(model, traces, profile,
                                         cached_vertices=hot)
                assert _snapshot(got) == _snapshot(want)
        assert model.run_batch([], profile).sim_time_s == 0.0

    def test_fully_cached_round_keeps_counter_order(self, tiny_config):
        # Round 0 is served entirely from DRAM, so the page counters
        # first appear in round 1, after the cache and distance counts.
        placement = map_vertices(64, tiny_config.geometry, 64)
        model = DeepStoreModel(config=tiny_config, placement=placement)
        profile = DatasetProfile("d", 64, 16, 64, 1 << 20)
        trace = SearchTrace.from_iterations(
            [IterationRecord(0, (5, 6)), IterationRecord(5, (7, 30))]
        )
        got = model.run_batch([trace], profile,
                              cached_vertices=np.array([5, 6]))
        assert list(got.counters) == [
            "pcie_bytes", "cache_hits", "distance_computations",
            "page_reads", "internal_bytes",
        ]
        assert got.counters["cache_hits"] == 2
        assert got.counters["distance_computations"] == 2


class TestColumnarRemap:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), data=st.data())
    def test_matches_tuple_remap(self, n, data):
        vertex = st.integers(0, n - 1)
        rounds = data.draw(
            st.lists(st.tuples(vertex, st.lists(vertex, max_size=8)),
                     max_size=8)
        )
        trace = SearchTrace.from_iterations(
            [IterationRecord(e, tuple(c)) for e, c in rounds],
            query_id=data.draw(st.integers(0, 99)),
        )
        new_id = np.asarray(data.draw(st.permutations(range(n))),
                            dtype=np.int64)
        got = remap_trace(trace, new_id)
        want = _remap_oracle(trace, new_id)
        assert got.query_id == want.query_id
        assert got.iterations == want.iterations
        for column in ("entries", "offsets", "computed"):
            assert np.array_equal(getattr(got, column), getattr(want, column))
