"""SearSSD batch replay: the priced-batch memo, one-pass batch trace
compilation and one-pass sub-batch pricing must reproduce the
straightforward per-trace and per-round code exactly."""

from __future__ import annotations

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann import DiskANNIndex, DiskANNParams
from repro.ann.trace import IterationRecord, SearchTrace, remap_trace, stack_traces
from repro.core import NDSearch
from repro.core.config import HostConfig, NDSearchConfig, SchedulingFlags
from repro.core.placement import map_vertices
from repro.core.rounds import run_heads
from repro.core.searssd import SearSSDModel, _CompiledTrace
from repro.core.speculative import rank_by_round
from repro.flash.geometry import SSDGeometry
from repro.flash.ecc import LDPCModel
from repro.flash.timing import FlashTiming
from repro.sim.stats import Counters
from repro.sorting.fpga import FPGASorter

#: Systems priced by the memo tests: speculation on, speculation off,
#: and a DiskANN index whose hot vertices sit in the internal DRAM.
SYSTEMS = ("hnsw", "hnsw-nospec", "diskann")
#: ... plus speculation on with an empty prefetch set every round.
COMPILED_SYSTEMS = SYSTEMS + ("hnsw-width0",)


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
    return {"hnsw": small_hnsw, "hnsw-nospec": small_hnsw, "diskann": diskann,
            "hnsw-width0": small_hnsw}


@pytest.fixture(scope="module")
def builders(indexes, tiny_geometry):
    configs = {
        "hnsw": _config(tiny_geometry),
        "hnsw-nospec": _config(
            tiny_geometry, SchedulingFlags(True, True, True, False)
        ),
        "diskann": _config(tiny_geometry),
        "hnsw-width0": dataclasses.replace(
            _config(tiny_geometry), speculative_width=0
        ),
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
        compiled = _compile_batch(model, [_trace([(i,)]) for i in range(5)])
        for c in compiled:
            model.run_batch([c])
        assert len(model._batches) == 3
        assert model.run_batch([compiled[0]]).sim_time_s > 0


# ---- round-vectorized compilation --------------------------------------------
def _trace(rounds) -> SearchTrace:
    return SearchTrace.from_iterations([
        IterationRecord(entry=0, computed=tuple(int(v) for v in computed))
        for computed in rounds
    ])


def _spec_columns(traces, specs):
    """Per-trace lists of per-round speculative sets (``None`` for a
    trace without any) as the ``(ids, bounds)`` columns
    :meth:`SearSSDModel.compile_batch` reads, over the traces' global
    rounds.  Missing rounds get empty sets; sets past a trace's last
    round are dropped."""
    if specs is None:
        return None
    empty = np.empty(0, dtype=np.int64)
    sets = [
        np.asarray(spec[r], dtype=np.int64)
        if spec is not None and r < len(spec) else empty
        for trace, spec in zip(traces, specs, strict=True)
        for r in range(trace.num_iterations)
    ]
    bounds = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([s.size for s in sets], out=bounds[1:])
    return np.concatenate([empty, *sets]), bounds


def _compile_batch(model: SearSSDModel, traces, specs=None):
    """Compile ``traces`` (physical IDs) in one batch."""
    return model.compile_batch(*stack_traces(traces),
                               _spec_columns(traces, specs))


def _hot_vertices(model: SearSSDModel):
    """The model's hot (DRAM-cached) vertices, or ``None``."""
    return None if model._hot is None else np.flatnonzero(model._hot)


def _compile_trace_oracle(model: SearSSDModel, trace, spec):
    """One trace's compiled columns, compiled on their own: every round
    of the trace is resolved together, but no other trace is.  Returns
    ``(rounds, groups, keys, spec_keys)``."""
    flags = model.config.flags
    n_iter = trace.num_iterations
    sizes = trace.sizes
    flat = trace.computed
    rid = trace.rounds
    hits = n_cached = np.zeros(n_iter, dtype=np.int64)
    # spec[j] is prefetched in round j (never on the last round) and
    # can hit in round j + 1.
    spec_rounds = 0
    if flags.speculative and spec is not None:
        spec_rounds = max(min(len(spec), n_iter - 1), 0)
    if spec_rounds:
        spec_sizes = np.fromiter(
            (spec[j].size for j in range(spec_rounds)),
            dtype=np.int64, count=spec_rounds,
        )
        spec_flat = np.concatenate(
            [np.asarray(spec[j], dtype=np.int64) for j in range(spec_rounds)]
        )
        spec_rid = np.repeat(np.arange(spec_rounds, dtype=np.int64), spec_sizes)
        span = int(max(flat.max(initial=0), spec_flat.max(initial=0))) + 1
        mask = np.isin(rid * span + flat, (spec_rid + 1) * span + spec_flat)
        hits = np.bincount(rid[mask], minlength=n_iter)
        flat, rid = flat[~mask], rid[~mask]
    hot = _hot_vertices(model)
    if hot is not None:
        mask = np.isin(flat, hot)
        n_cached = np.bincount(rid[mask], minlength=n_iter)
        flat, rid = flat[~mask], rid[~mask]
    pairs = np.bincount(rid, minlength=n_iter)

    n_luns = model.config.geometry.total_luns
    key_space = model._key_space
    tagged = rid * key_space + model._page_keys(flat)
    lun_tags = np.sort(tagged // model._lun_span)
    heads = np.flatnonzero(run_heads(lun_tags))
    group_ids = lun_tags[heads]
    raw = np.append(heads[1:], lun_tags.size) - heads
    lo = group_ids * model._lun_span
    keys, starts, stops, merged = model._tagged_loads(
        tagged, lo, lo + model._lun_span
    )
    groups = np.stack((group_ids // n_luns, group_ids % n_luns, raw,
                       stops - starts, merged))

    spec_count = spec_loads = spec_merged = np.zeros(n_iter, dtype=np.int64)
    spec_keys = tagged[:0]
    if spec_rounds:
        spec_keys = spec_rid * key_space + model._page_keys(spec_flat)
        edges = np.arange(n_iter + 1, dtype=np.int64) * key_space
        _, starts, stops, spec_merged = model._tagged_loads(
            spec_keys, edges[:-1], edges[1:]
        )
        spec_count = np.bincount(spec_rid, minlength=n_iter)
        spec_loads = stops - starts

    rounds = np.stack((np.arange(n_iter), sizes > 0, pairs, hits, n_cached,
                       spec_count, spec_loads, spec_merged))
    return rounds, groups, keys, spec_keys


def _assert_like_trace_oracle(model, pieces, traces, specs) -> None:
    """Each batch piece equals its trace compiled alone, array for
    array, and the serials are fresh and in batch order."""
    assert len(pieces) == len(traces)
    for i, (piece, trace) in enumerate(zip(pieces, traces)):
        spec = None if specs is None else specs[i]
        got = (piece.rounds, piece.groups, piece.keys, piece.spec_keys)
        want = _compile_trace_oracle(model, trace, spec)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
        assert piece.n_rounds == trace.num_iterations
        assert piece.trace_length == trace.trace_length
    # Distinct and in batch order.
    serials = [piece.serial for piece in pieces]
    assert serials == sorted(set(serials))


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
            hot = _hot_vertices(model)
            if hot is not None and computed.size:
                mask = np.isin(computed, hot)
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


def _columns_oracle(model: SearSSDModel, rounds):
    """The columnar compiled trace, built from per-round oracle tuples."""
    key_space = model._key_space
    cols, groups, keys, spec_keys = [], [], [], []
    for r, (had, pairs, hits, n_cached, round_groups, spec_count,
            round_spec_keys, spec_loads, spec_merged) in enumerate(rounds):
        cols.append((r, int(had), pairs, hits, n_cached, spec_count,
                     spec_loads, spec_merged))
        for lun, raw, uniq, loads, merged in round_groups:
            groups.append((r, lun, raw, loads, merged))
            keys.append(r * key_space + uniq)
        if round_spec_keys is not None:
            spec_keys.append(r * key_space + round_spec_keys)

    def matrix(rows, n_fields):
        return np.asarray(rows, dtype=np.int64).reshape(-1, n_fields).T

    def flat(parts):
        return np.concatenate([np.empty(0, dtype=np.int64), *parts])

    return (
        matrix(cols, len(_CompiledTrace.ROUND_FIELDS)),
        matrix(groups, len(_CompiledTrace.GROUP_FIELDS)),
        flat(keys), flat(spec_keys),
    )


def _assert_columns(compiled, rounds, model) -> None:
    got = (compiled.rounds, compiled.groups, compiled.keys, compiled.spec_keys)
    for g, w in zip(got, _columns_oracle(model, rounds), strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


N_VERTICES = 600
#: A round's computed vertices: spread over the device, or drawn from a
#: few vertices so that one round computes a vertex more than once.
vertex_sets = st.lists(st.integers(0, N_VERTICES - 1), max_size=12) | st.lists(
    st.integers(0, 7), min_size=2, max_size=8
)


@st.composite
def trace_cases(draw):
    """One trace's rounds plus its speculative sets (or None)."""
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
    return rounds, spec


@st.composite
def compile_cases(draw):
    rounds, spec = draw(trace_cases())
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
        (compiled,) = _compile_batch(model, [trace],
                                     None if spec is None else [spec])
        _assert_columns(compiled, _compile_oracle(model, trace, spec), model)

    def test_empty_and_fully_hit_rounds(self, tiny_config):
        placement = map_vertices(N_VERTICES, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        trace = _trace([(1, 2, 3), (), (4, 5), (6,)])
        spec = [np.array([9]), np.array([4, 5, 7]), np.array([], dtype=np.int64)]
        (compiled,) = _compile_batch(model, [trace], [spec])
        _assert_columns(compiled, _compile_oracle(model, trace, spec), model)
        # Round 1 computed nothing; round 2's demand was all prefetched.
        assert compiled.rounds[1:5, 1].tolist() == [0, 0, 0, 0]
        assert compiled.rounds[1:5, 2].tolist() == [1, 0, 2, 0]
        assert not np.isin(compiled.groups[0], [1, 2]).any()

    @settings(max_examples=50, deadline=None)
    @given(vertices=st.lists(st.integers(0, N_VERTICES - 1), max_size=40),
           scheme=st.sampled_from(("multiplane", "interleaved")))
    def test_pooled_loads_match_oracle(self, tiny_geometry, vertices, scheme):
        placement = map_vertices(N_VERTICES, tiny_geometry, 64, scheme=scheme)
        model = SearSSDModel(
            config=_config(tiny_geometry), placement=placement, dim=16
        )
        keys = model._page_keys(np.asarray(vertices, dtype=np.int64))
        _, starts, stops, merged = model._tagged_loads(
            keys, np.zeros(1, dtype=np.int64),
            np.full(1, model._key_space, dtype=np.int64),
        )
        pooled = (int(stops[0] - starts[0]), int(merged[0]))
        assert pooled == _loads_and_merges(model, keys)

    def test_serials_are_unique(self, tiny_config):
        placement = map_vertices(N_VERTICES, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        trace = _trace([(1, 2)])
        serials = [c.serial for _ in range(2)
                   for c in _compile_batch(model, [trace, trace])]
        assert serials == sorted(set(serials)) and len(serials) == 4


# ---- one-pass sub-batch pricing ----------------------------------------------
class _OracleTrace:
    """The per-round replay's view of one compiled trace."""

    def __init__(self, model: SearSSDModel, trace, spec) -> None:
        self.rounds = _compile_oracle(model, trace, spec)
        self.n_rounds = trace.num_iterations
        self.trace_length = trace.trace_length


def _price_oracle(model: SearSSDModel, traces, specs):
    """The per-round replay loop: a batch's price, one round at a time."""
    spec_enabled = specs is not None
    compiled = [
        _OracleTrace(model, t, specs[i] if spec_enabled else None)
        for i, t in enumerate(traces)
    ]
    model.ldpc.reset()
    capacity = model.config.max_batch_capacity
    counters = Counters()
    busy: dict[str, float] = {}
    labels: list = []
    spans: list = []
    makespan = 0.0
    for start in range(0, len(compiled), capacity):
        t, c, b, sub_labels, sub_bounds = _run_sub_batch_oracle(
            model, compiled[start : start + capacity], spec_enabled
        )
        labels.extend(sub_labels)
        if sub_bounds:
            spans.append(np.asarray(sub_bounds) + makespan)
        makespan += t
        counters.update(c)
        for key, val in b.items():
            busy[key] = busy.get(key, 0.0) + val
    bounds = np.concatenate(spans) if spans else np.empty((0, 2))
    return makespan, counters, busy, tuple(labels), bounds


def _run_sub_batch_oracle(model: SearSSDModel, compiled, spec_enabled):
    timing = model.config.timing
    flags = model.config.flags
    counters = Counters()
    busy: dict[str, float] = {
        "pcie_host": 0.0,
        "vgenerator": 0.0,
        "allocator": 0.0,
        "nand_read": 0.0,
        "channel_bus": 0.0,
        "dram": 0.0,
        "embedded_cores": 0.0,
        "fpga_sort": 0.0,
        "sin_macs_busy": 0.0,
        "nand_busy": 0.0,
        "lun_queues_busy": 0.0,
        "ecc_busy": 0.0,
    }
    batch = len(compiled)
    labels: list[tuple[str, str]] = []
    bounds: list[tuple[float, float]] = []

    def book(label, start: float, duration: float) -> None:
        if duration > 0:
            labels.append(label)
            bounds.append((start, start + duration))

    query_bytes = batch * (model.dim * 4 + 16)
    t_in = timing.host_transfer_s(query_bytes)
    counters["pcie_bytes"] += query_bytes
    busy["pcie_host"] += t_in
    book(("host_in", "host_in"), 0.0, t_in)
    makespan = t_in

    max_rounds = max(c.n_rounds for c in compiled)
    for round_idx in range(max_rounds):
        n_active = 0
        n_pairs = 0
        cached_accesses = 0
        # lun -> [n_vectors, loads, merged, unique-key arrays], in
        # first-touch order (query, then LUN).
        lun_acc: dict[int, list] = {}
        for comp in compiled:
            if round_idx >= comp.n_rounds:
                continue
            had, pairs, hits, n_cached, groups = comp.rounds[round_idx][:5]
            n_active += 1
            if hits:
                counters["speculative_hits"] += hits
            if n_cached:
                counters["cache_hits"] += n_cached
                cached_accesses += n_cached
            if had:
                n_pairs += pairs
                counters["distance_computations"] += pairs
            for lun, raw, uniq, loads, merged in groups:
                acc = lun_acc.get(lun)
                if acc is None:
                    acc = lun_acc[lun] = [0, 0, 0, []]
                acc[0] += raw
                acc[1] += loads
                if flags.multiplane:
                    acc[2] += merged
                acc[3].append(uniq)
        if n_active == 0:
            continue

        t_vgen = (n_active + 2) * timing.vgen_stage_s
        t_alloc = n_pairs * timing.alloc_dispatch_s
        dram_ops = 3 * n_active + 2 * n_pairs + cached_accesses
        t_dram_sched = dram_ops * timing.dram_access_s
        counters["dram_accesses"] += dram_ops
        t_sched = max(t_vgen + t_alloc, t_dram_sched)
        if flags.speculative and round_idx > 0:
            t_sched = 0.0
        busy["vgenerator"] += t_vgen
        busy["allocator"] += t_alloc
        busy["dram"] += t_dram_sched

        t_search, search_busy = _search_stage_oracle(model, lun_acc, counters)
        for key, val in search_busy.items():
            busy[key] = busy.get(key, 0.0) + val

        gather_ops = n_pairs + n_active
        t_gather = (
            n_pairs * timing.dram_access_s
            + n_active * timing.embedded_core_op_s
        )
        counters["dram_accesses"] += gather_ops
        busy["embedded_cores"] += n_active * timing.embedded_core_op_s
        busy["dram"] += n_pairs * timing.dram_access_s

        if flags.speculative and spec_enabled:
            _speculative_stage_oracle(model, compiled, round_idx, counters, busy)

        book(("schedule", "engine"), makespan, t_sched)
        book(("search", "engine"), makespan + t_sched, t_search)
        book(("gather", "engine"), makespan + t_sched + t_search, t_gather)
        makespan += t_sched + t_search + t_gather

    list_len = int(np.mean([max(c.trace_length, 1) for c in compiled]))
    list_len = min(list_len, 256)
    t_sort = FPGASorter(timing=timing).sort_latency_s(batch, list_len)
    counters["sorted_elements"] += batch * list_len
    busy["fpga_sort"] += t_sort
    out_bytes = batch * 10 * 8
    t_out = timing.host_transfer_s(out_bytes)
    counters["pcie_bytes"] += out_bytes
    busy["pcie_host"] += t_out
    book(("sort", "sorter"), makespan, t_sort)
    book(("host_out", "host_out"), makespan + t_sort, t_out)
    makespan += t_sort + t_out
    return makespan, counters, busy, labels, bounds


def _search_stage_oracle(model: SearSSDModel, lun_acc, counters):
    timing = model.config.timing
    flags = model.config.flags
    busy = {
        "nand_read": 0.0,
        "channel_bus": 0.0,
        "embedded_cores": 0.0,
        "sin_macs_busy": 0.0,
        "nand_busy": 0.0,
        "lun_queues_busy": 0.0,
        "ecc_busy": 0.0,
    }
    channel_compute: dict[int, float] = {}
    channel_readout: dict[int, float] = {}
    soft_stall = 0.0
    for lun, (n_vectors, loads, merged, uniqs) in lun_acc.items():
        if flags.dynamic_alloc and len(uniqs) > 1:
            # Dynamic allocation senses each page once for every query
            # of the round that needs it: the union of their page sets.
            loads, merged = _loads_and_merges(model, np.concatenate(uniqs))
            if not flags.multiplane:
                merged = 0
        effective_ops = loads - merged
        counters["page_reads"] += loads
        counters["multiplane_reads"] += merged
        counters["ecc_hard_decodes"] += loads
        t_mac = n_vectors * timing.distance_mac_s(model.dim)
        t_nand = effective_ops * (timing.read_page_s + timing.ecc_hard_decode_s)
        failures = model.ldpc.decode_pages(loads)
        if failures:
            counters["ecc_soft_decodes"] += failures
            t_soft = failures * timing.ecc_soft_decode_s
            t_nand += t_soft
            soft_stall += t_soft
        lun_time = t_nand + t_mac
        busy["nand_busy"] += t_nand
        busy["sin_macs_busy"] += t_mac
        busy["ecc_busy"] += loads * timing.ecc_hard_decode_s
        busy["lun_queues_busy"] += lun_time
        channel = lun // model.config.geometry.luns_per_channel
        channel_compute[channel] = max(channel_compute.get(channel, 0.0), lun_time)
        readout_bytes = n_vectors * 8 + 16
        counters["internal_bytes"] += readout_bytes
        channel_readout[channel] = channel_readout.get(channel, 0.0) + (
            readout_bytes / timing.channel_bus_bw + 0.5e-6
        )
    if not channel_compute:
        return 0.0, busy
    t_search = max(
        channel_compute[ch] + channel_readout.get(ch, 0.0)
        for ch in channel_compute
    )
    t_compute_crit = max(channel_compute.values())
    busy["nand_read"] += t_compute_crit
    busy["channel_bus"] += t_search - t_compute_crit
    busy["embedded_cores"] += soft_stall
    return t_search, busy


def _speculative_stage_oracle(model, compiled, round_idx, counters, busy):
    timing = model.config.timing
    total_vertices = 0
    keys_list: list[np.ndarray] = []
    loads = merged = 0
    for comp in compiled:
        if round_idx >= comp.n_rounds:
            continue
        spec_count, spec_keys, spec_loads, spec_merged = (
            comp.rounds[round_idx][5:9]
        )
        if spec_count:
            total_vertices += spec_count
            keys_list.append(spec_keys)
            loads, merged = spec_loads, spec_merged
    if not keys_list:
        return
    if len(keys_list) > 1:
        loads, merged = _loads_and_merges(model, np.concatenate(keys_list))
    effective = loads - (merged if model.config.flags.multiplane else 0)
    counters["speculative_page_reads"] += loads
    counters["page_reads"] += loads
    counters["ecc_hard_decodes"] += loads
    busy["nand_busy"] += effective * timing.read_page_s
    busy["sin_macs_busy"] += total_vertices * timing.distance_mac_s(model.dim)


def _exact(priced, ldpc):
    """A priced batch and the fault stream's end state, compared bit for
    bit: floats by ``repr``, counters and busy keys in order and by type."""
    makespan, counters, busy, labels, bounds = priced
    return (
        repr(makespan),
        [(k, type(v), v) for k, v in counters.items()],
        [(k, type(v), repr(v)) for k, v in busy.items()],
        tuple(labels),
        bounds.dtype, bounds.shape, bounds.tobytes(),
        repr(ldpc._rng.bit_generator.state), ldpc.reads,
    )


def _assert_prices_like_oracle(model: SearSSDModel, traces, specs) -> None:
    want = _exact(_price_oracle(model, traces, specs), model.ldpc)
    compiled = _compile_batch(model, traces, specs)
    got = _exact(model._price_batch(compiled), model.ldpc)
    assert got == want


ALL_FLAGS = [SchedulingFlags(*bits) for bits in product((False, True), repeat=4)]


@st.composite
def batch_cases(draw):
    """A batch over a small pool of traces, so duplicates are common."""
    pool = draw(st.lists(trace_cases(), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=12))
    with_spec = draw(st.booleans())
    traces = [_trace(pool[i][0]) for i in range(len(pool))]
    specs = [pool[i][1] for i in picks] if with_spec else None
    return (
        [traces[i] for i in picks], specs,
        draw(st.sampled_from(ALL_FLAGS)),
        draw(st.sampled_from((0.0, 0.2, 1.0))),
        draw(st.sampled_from((1, 4))),
        draw(st.sampled_from(("multiplane", "interleaved"))),
        draw(st.none() | st.lists(st.integers(0, N_VERTICES - 1),
                                  min_size=1, max_size=60)),
    )


def _oracle_model(geometry, flags, failure_prob, per_lun, scheme, cached):
    config = dataclasses.replace(
        _config(geometry, flags), max_queries_per_lun=per_lun
    )
    return SearSSDModel(
        config=config,
        placement=map_vertices(N_VERTICES, geometry, 64, scheme=scheme),
        dim=16,
        ldpc=LDPCModel(hard_failure_prob=failure_prob),
        cached_vertices=None if cached is None else np.asarray(cached),
    )


class TestSubBatchPricing:
    @settings(max_examples=200, deadline=None)
    @given(case=batch_cases())
    def test_matches_per_round_loop(self, tiny_geometry, case):
        traces, specs, flags, failure_prob, per_lun, scheme, cached = case
        model = _oracle_model(tiny_geometry, flags, failure_prob, per_lun,
                              scheme, cached)
        _assert_prices_like_oracle(model, traces, specs)

    @pytest.mark.parametrize("flags", ALL_FLAGS, ids=lambda f: f.label())
    @pytest.mark.parametrize("failure_prob", (0.0, 0.2, 1.0))
    def test_every_flag_combination(self, tiny_geometry, flags, failure_prob):
        # Unequal lengths, an empty round, a fully prefetched round, a
        # cached vertex, and a duplicate trace, over several sub-batches.
        a = _trace([(1, 2, 3, 40), (), (4, 5), (6, 300, 301)])
        b = _trace([(7, 8, 1), (4, 5, 9, 41)])
        c = _trace([(2,)])
        empty = _trace([])
        spec_a = [np.array([9, 1]), np.array([4, 5, 7]), np.array([300])]
        spec_b = [np.array([4, 5, 9, 41])]
        traces = [a, b, c, a, b, a, b, c, a, empty]
        specs = [spec_a, spec_b, [], spec_a, spec_b] * 2
        for per_lun in (1, 4):
            for with_spec in (specs, None):
                model = _oracle_model(tiny_geometry, flags, failure_prob,
                                      per_lun, "multiplane", [3, 8])
                _assert_prices_like_oracle(model, traces, with_spec)
                for i in (0, -1):
                    _assert_prices_like_oracle(
                        model, traces[i:][:1],
                        None if with_spec is None else with_spec[i:][:1],
                    )

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_search_traces(self, warm, trace_pool, name):
        # Real HNSW and DiskANN (hot vertices in DRAM) search traces
        # with their speculative sets, across several sub-batches.
        system = warm[name]
        resolved = [_resolve_oracle(system, t) for t in trace_pool[name] * 2]
        traces = [remapped for remapped, _ in resolved]
        specs = [spec for _, spec in resolved]
        for n in (1, 5, len(traces)):
            _assert_prices_like_oracle(
                system._model, traces[:n],
                specs[:n] if system.config.flags.speculative else None,
            )


# ---- one-pass batch compilation ----------------------------------------------
def _resolve_oracle(system: NDSearch, trace):
    """The trace remapped to physical IDs, and its per-round
    speculative sets (``None`` with speculation off), resolved on its
    own."""
    remapped = remap_trace(trace, system.new_id)
    if not system.config.flags.speculative:
        return remapped, None
    n_rounds = remapped.num_iterations
    ids, bounds = rank_by_round(
        system.graph, remapped.computed, remapped.rounds, n_rounds,
        system.config.speculative_width,
    )
    b = bounds.tolist()
    return remapped, [ids[b[r]:b[r + 1]] for r in range(n_rounds)]


@st.composite
def compile_batch_cases(draw):
    """A batch over a small pool of traces (0 and 1 iterations, empty
    rounds and repeated vertices included), with or without sets."""
    pool = draw(st.lists(trace_cases(), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    traces = [_trace(rounds) for rounds, _ in pool]
    specs = [pool[i][1] for i in picks] if draw(st.booleans()) else None
    return (
        [traces[i] for i in picks], specs,
        draw(st.sampled_from(ALL_FLAGS)),
        draw(st.sampled_from(("multiplane", "interleaved"))),
        draw(st.none() | st.lists(st.integers(0, N_VERTICES - 1),
                                  min_size=1, max_size=60)),
    )


def _model(geometry, flags=SchedulingFlags(), scheme="multiplane",
           cached=None) -> SearSSDModel:
    return SearSSDModel(
        config=_config(geometry, flags),
        placement=map_vertices(N_VERTICES, geometry, 64, scheme=scheme),
        dim=16,
        cached_vertices=None if cached is None else np.asarray(cached),
    )


HITS = _CompiledTrace.ROUND_FIELDS.index("hits")
PAIRS = _CompiledTrace.ROUND_FIELDS.index("pairs")
SPEC_COUNT = _CompiledTrace.ROUND_FIELDS.index("spec_count")


class TestBatchCompile:
    @settings(max_examples=200, deadline=None)
    @given(case=compile_batch_cases())
    def test_matches_per_trace_compile(self, tiny_geometry, case):
        traces, specs, flags, scheme, cached = case
        model = _model(tiny_geometry, flags, scheme, cached)
        pieces = _compile_batch(model, traces, specs)
        _assert_like_trace_oracle(model, pieces, traces, specs)

    @pytest.mark.parametrize("flags", ALL_FLAGS, ids=lambda f: f.label())
    @pytest.mark.parametrize("cached", (None, [3, 8, 40]),
                             ids=("no-cache", "hot-cache"))
    def test_every_flag_combination(self, tiny_geometry, flags, cached):
        # Unequal lengths, an empty round, repeated vertices, a fully
        # prefetched round, cached vertices, traces of 0 and 1
        # iterations and repeated traces.
        a = _trace([(1, 2, 3, 40), (), (4, 5, 5), (6, 300, 301)])
        b = _trace([(7, 8, 1, 1), (4, 5, 9, 41)])
        one = _trace([(2, 2)])
        empty = _trace([])
        spec_a = [np.array([9, 1]), np.array([4, 5, 7]), np.array([300]),
                  np.array([7])]
        spec_b = [np.array([4, 5, 9, 41]), np.array([2])]
        traces = [a, empty, b, one, a, b]
        specs = [spec_a, [], spec_b, [np.array([7])], spec_a, None]
        for with_spec in (specs, None):
            model = _model(tiny_geometry, flags, cached=cached)
            pieces = _compile_batch(model, traces, with_spec)
            _assert_like_trace_oracle(model, pieces, traces, with_spec)

    def test_last_round_set_never_hits_the_next_trace(self, tiny_geometry):
        # a's last-round set holds vertex 5, which b computes in its
        # round 0: in the stacked batch that is the very next round.
        model = _model(tiny_geometry)
        a = _trace([(1, 2), (3,)])
        b = _trace([(5, 6), (7,)])
        specs = [[np.array([3]), np.array([5])],
                 [np.array([7]), np.array([9])]]
        piece_a, piece_b = _compile_batch(model, [a, b], specs)
        assert piece_a.rounds[HITS].tolist() == [0, 1]
        assert piece_a.rounds[SPEC_COUNT].tolist() == [1, 0]
        assert piece_b.rounds[HITS].tolist() == [0, 1]
        assert piece_b.rounds[PAIRS].tolist() == [2, 0]
        _assert_like_trace_oracle(model, [piece_a, piece_b], [a, b], specs)

    def test_round_tags_that_overflow_int64_are_refused(self, tiny_config):
        # 2**61 page keys and only 16 vertices: three rounds tag below
        # 2**63, four would wrap.  No array scales with the key space.
        geometry = SSDGeometry(
            channels=1, chips_per_channel=1, luns_per_chip=1,
            planes_per_lun=2, blocks_per_plane=2**40, pages_per_block=2**20,
            page_size=1024,
        )
        model = SearSSDModel(
            config=dataclasses.replace(tiny_config, geometry=geometry),
            placement=map_vertices(16, geometry, 64), dim=16,
        )
        assert model._key_space == 2**61
        three = _trace([(0, 1), (2,), (15,)])
        (piece,) = _compile_batch(model, [three], [[np.array([2])]])
        assert piece.rounds[HITS].tolist() == [0, 1, 0]
        _assert_like_trace_oracle(model, [piece], [three], [[np.array([2])]])
        with pytest.raises(ValueError, match="overflow"):
            _compile_batch(model, [three, _trace([(4,)])])

    def test_pieces_own_their_arrays(self, tiny_geometry):
        model = _model(tiny_geometry)
        traces = [_trace([(1, 2), (3,)]), _trace([(5, 6), (7, 8)])]
        specs = [[np.array([3]), np.array([4])], [np.array([7]), []]]
        for piece in _compile_batch(model, traces, specs):
            for arr in (piece.rounds, piece.groups, piece.keys,
                        piece.spec_keys):
                assert arr.base is None

    @pytest.mark.parametrize("name", COMPILED_SYSTEMS)
    def test_simulate_traces_mixes_cached_and_new(self, builders, trace_pool,
                                                   name):
        pool = trace_pool[name]
        system = builders(name)
        system.simulate_traces(pool[:4])
        before = {t: system._compiled[t] for t in pool[:4]}
        # Two cached traces, two new ones, one of them twice.
        batch = [pool[2], pool[5], pool[6], pool[5], pool[0]]
        result = system.simulate_traces(batch)
        assert all(system._compiled[t] is c for t, c in before.items())
        new = [pool[5], pool[6]]
        resolved = [_resolve_oracle(system, t) for t in new]
        pieces = [system._compiled[t] for t in new]
        _assert_like_trace_oracle(
            system._model, pieces, [r for r, _ in resolved],
            [spec for _, spec in resolved],
        )
        assert pieces[0].serial > max(c.serial for c in before.values())
        fresh = builders(name).simulate_traces(batch)
        assert _snapshot(result) == _snapshot(fresh)
