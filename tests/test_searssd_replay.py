"""SearSSD batch replay: the priced-batch memo and round-vectorized
trace compilation must reproduce the straightforward replay exactly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann import DiskANNIndex, DiskANNParams
from repro.ann.trace import IterationRecord, SearchTrace
from repro.core import NDSearch
from repro.core.config import HostConfig, NDSearchConfig, SchedulingFlags
from repro.core.placement import map_vertices
from repro.core.searssd import SearSSDModel
from repro.flash.timing import FlashTiming

#: Systems priced by the memo tests: speculation on, speculation off,
#: and a DiskANN index whose hot vertices sit in the internal DRAM.
SYSTEMS = ("hnsw", "hnsw-nospec", "diskann")


def _config(geometry, flags=SchedulingFlags()) -> NDSearchConfig:
    # One query per LUN queue: batches above 8 queries split into
    # several sub-batches on the 8-LUN tiny geometry.
    return NDSearchConfig(
        geometry=geometry,
        timing=FlashTiming(read_page_s=20e-6),
        host=HostConfig(
            dram_capacity_bytes=64 * 1024, vram_capacity_bytes=64 * 1024
        ),
        flags=flags,
        dram_bytes=16 * 1024**2,
        max_queries_per_lun=1,
    )


@pytest.fixture(scope="module")
def indexes(small_hnsw, small_vectors):
    diskann = DiskANNIndex(small_vectors, DiskANNParams(R=8, L=16))
    return {"hnsw": small_hnsw, "hnsw-nospec": small_hnsw, "diskann": diskann}


@pytest.fixture(scope="module")
def builders(indexes, tiny_geometry):
    configs = {
        "hnsw": _config(tiny_geometry),
        "hnsw-nospec": _config(
            tiny_geometry, SchedulingFlags(True, True, True, False)
        ),
        "diskann": _config(tiny_geometry),
    }

    def build(name: str) -> NDSearch:
        # A high hard-decode failure rate makes every batch consume the
        # LDPC fault stream, so a stream leaking between batches shows.
        return NDSearch(
            index=indexes[name], config=configs[name], hard_failure_prob=0.2
        )

    return build


@pytest.fixture(scope="module")
def warm(builders, trace_pool):
    """One long-lived system per kind, priced across many examples.

    Built after the trace pool's searches: DiskANN picks its hot
    vertices from the visit counts searches leave behind.
    """
    return {name: builders(name) for name in SYSTEMS}


@pytest.fixture(scope="module")
def trace_pool(indexes, small_vectors):
    rng = np.random.default_rng(7)
    queries = small_vectors[rng.choice(len(small_vectors), 12, replace=False)]
    queries = queries + 0.05 * rng.normal(size=queries.shape).astype(np.float32)
    return {
        name: index.search_batch(queries, 5, ef=16)[2]
        for name, index in indexes.items()
    }


def _snapshot(result):
    return (
        result.platform, result.algorithm, result.dataset, result.batch_size,
        result.sim_time_s, list(result.counters.items()),
        list(result.component_busy_s.items()), list(result.timeline),
        result.energy_j, result.power_w,
    )


class TestBatchMemo:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(SYSTEMS),
        picks=st.lists(st.integers(0, 11), min_size=1, max_size=20),
    )
    def test_hit_equals_fresh_model(self, warm, builders, trace_pool, name,
                                    picks):
        traces = [trace_pool[name][i] for i in picks]
        system = warm[name]
        first = system.simulate_traces(traces, dataset="d", algorithm="a")
        hit = system.simulate_traces(traces, dataset="d", algorithm="a")
        fresh = builders(name).simulate_traces(traces, dataset="d",
                                               algorithm="a")
        assert _snapshot(hit) == _snapshot(fresh)
        assert _snapshot(first) == _snapshot(fresh)
        assert hit.energy_j > 0

    def test_several_sub_batches_are_priced(self, warm, trace_pool):
        system = warm["hnsw"]
        capacity = system.config.max_batch_capacity
        traces = (trace_pool["hnsw"] * 3)[: 2 * capacity + 1]
        result = system.simulate_traces(traces)
        hosts = [s for s in result.timeline if s.stage == "host_in"]
        assert len(hosts) == 3
        assert result.counters["ecc_soft_decodes"] > 0

    def test_labels_apply_per_call(self, warm, trace_pool):
        system = warm["hnsw"]
        traces = trace_pool["hnsw"][:3]
        a = system.simulate_traces(traces, dataset="x", algorithm="p")
        b = system.simulate_traces(traces, dataset="y", algorithm="q")
        assert (a.dataset, a.algorithm) == ("x", "p")
        assert (b.dataset, b.algorithm) == ("y", "q")
        assert a.sim_time_s == b.sim_time_s

    def test_mutating_a_result_leaves_the_next_hit_intact(self, warm,
                                                         trace_pool):
        system = warm["diskann"]
        traces = trace_pool["diskann"][:4]
        result = system.simulate_traces(traces)
        expected = _snapshot(result)
        result.counters["page_reads"] += 1000
        result.counters["invented"] = 1
        result.component_busy_s["nand_read"] = -1.0
        result.component_busy_s.clear()
        result.timeline.pop()
        result.timeline.clear()
        result.energy_j = result.power_w = 0.0
        assert _snapshot(system.simulate_traces(traces)) == expected

    def test_memo_is_bounded(self, tiny_config, monkeypatch):
        import repro.core.searssd as searssd

        monkeypatch.setattr(searssd, "_BATCH_MEMO_LIMIT", 3)
        placement = map_vertices(64, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        traces = [_trace([(i,)]) for i in range(5)]
        for t in traces:
            model.run_batch([t])
        assert len(model._batches) == 3
        assert model.run_batch([traces[0]]).sim_time_s > 0


# ---- round-vectorized compilation --------------------------------------------
def _trace(rounds) -> SearchTrace:
    t = SearchTrace(query_id=0)
    for computed in rounds:
        t.iterations.append(
            IterationRecord(entry=0, computed=tuple(int(v) for v in computed))
        )
    return t


def _loads_and_merges(model: SearSSDModel, keys) -> tuple[int, int]:
    """Distinct pages and multi-plane merges of one key set."""
    unique = np.unique(keys)
    plane = (unique // model._plane_span) % model.config.geometry.planes_per_lun
    without_plane = unique - plane * model._plane_span
    return int(unique.size), int(unique.size - np.unique(without_plane).size)


def _compile_oracle(model: SearSSDModel, trace, spec):
    """The per-round compilation loop, one round at a time."""
    flags = model.config.flags
    n_iter = trace.num_iterations
    rounds = []
    for r in range(n_iter):
        computed = np.asarray(trace.iterations[r].computed, dtype=np.int64)
        had_computed = computed.size > 0
        hits = 0
        n_cached = 0
        if had_computed:
            if flags.speculative and spec is not None and r >= 1:
                if r - 1 < len(spec) and spec[r - 1].size:
                    mask = np.isin(computed, spec[r - 1])
                    hits = int(np.count_nonzero(mask))
                    if hits:
                        computed = computed[~mask]
            if model._cached_arr is not None and computed.size:
                mask = np.isin(computed, model._cached_arr)
                n_cached = int(np.count_nonzero(mask))
                if n_cached:
                    computed = computed[~mask]
        pairs = int(computed.size)
        groups: tuple = ()
        if computed.size:
            keys = model._page_keys(computed)
            luns = keys // model._lun_span
            group_list = []
            for lun in np.unique(luns):
                lun_keys = keys[luns == lun]
                uniq = np.unique(lun_keys)
                loads, merged = _loads_and_merges(model, uniq)
                group_list.append(
                    (int(lun), int(lun_keys.size), uniq, loads, merged)
                )
            groups = tuple(group_list)
        spec_count = 0
        spec_keys = None
        spec_loads = 0
        spec_merged = 0
        if (
            flags.speculative
            and spec is not None
            and r < n_iter - 1
            and r < len(spec)
            and spec[r].size
        ):
            spec_count = int(spec[r].size)
            spec_keys = model._page_keys(spec[r])
            spec_loads, spec_merged = _loads_and_merges(model, spec_keys)
        rounds.append(
            (had_computed, pairs, hits, n_cached, groups,
             spec_count, spec_keys, spec_loads, spec_merged)
        )
    return tuple(rounds)


def _assert_same(got, want) -> None:
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


N_VERTICES = 600
vertex_sets = st.lists(st.integers(0, N_VERTICES - 1), max_size=12)


@st.composite
def compile_cases(draw):
    rounds = draw(st.lists(vertex_sets, max_size=8))
    spec = None
    if draw(st.booleans()):
        spec = []
        for r in range(draw(st.integers(0, len(rounds) + 1))):
            mode = draw(st.sampled_from(("random", "empty", "covers-next")))
            if mode == "covers-next" and r + 1 < len(rounds):
                # Every vertex of the next round was prefetched: the
                # round's demand disappears entirely.
                vertices = rounds[r + 1] + draw(vertex_sets)
            elif mode == "empty":
                vertices = []
            else:
                vertices = draw(vertex_sets)
            spec.append(np.asarray(vertices, dtype=np.int64))
    flags = SchedulingFlags(
        True, draw(st.booleans()), True, draw(st.booleans())
    )
    scheme = draw(st.sampled_from(("multiplane", "interleaved")))
    cached = draw(st.none() | st.lists(st.integers(0, N_VERTICES - 1),
                                       min_size=1, max_size=60))
    return rounds, spec, flags, scheme, cached


class TestVectorizedCompile:
    @settings(max_examples=150, deadline=None)
    @given(case=compile_cases())
    def test_matches_per_round_loop(self, tiny_geometry, case):
        rounds, spec, flags, scheme, cached = case
        config = _config(tiny_geometry, flags)
        placement = map_vertices(N_VERTICES, tiny_geometry, 64, scheme=scheme)
        model = SearSSDModel(
            config=config, placement=placement, dim=16,
            cached_vertices=None if cached is None else np.asarray(cached),
        )
        trace = _trace(rounds)
        compiled = model._compile_trace(trace, spec)
        _assert_same(compiled.rounds, _compile_oracle(model, trace, spec))

    def test_empty_and_fully_hit_rounds(self, tiny_config):
        placement = map_vertices(N_VERTICES, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        trace = _trace([(1, 2, 3), (), (4, 5), (6,)])
        spec = [np.array([9]), np.array([4, 5, 7]), np.array([], dtype=np.int64)]
        rounds = model._compile_trace(trace, spec).rounds
        _assert_same(rounds, _compile_oracle(model, trace, spec))
        assert rounds[1][:5] == (False, 0, 0, 0, ())
        assert rounds[2][:5] == (True, 0, 2, 0, ())

    @settings(max_examples=50, deadline=None)
    @given(vertices=st.lists(st.integers(0, N_VERTICES - 1), max_size=40),
           scheme=st.sampled_from(("multiplane", "interleaved")))
    def test_pooled_loads_match_oracle(self, tiny_geometry, vertices, scheme):
        placement = map_vertices(N_VERTICES, tiny_geometry, 64, scheme=scheme)
        model = SearSSDModel(
            config=_config(tiny_geometry), placement=placement, dim=16
        )
        keys = model._page_keys(np.asarray(vertices, dtype=np.int64))
        assert model._loads_and_merges(keys) == _loads_and_merges(model, keys)

    def test_serials_are_unique(self, tiny_config):
        placement = map_vertices(N_VERTICES, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        trace = _trace([(1, 2)])
        serials = {model._compile_trace(trace, None).serial for _ in range(4)}
        assert len(serials) == 4
