"""Span tracing: Chrome trace export, determinism, timeline alignment."""

from __future__ import annotations

import json

import pytest

from repro.core.config import NDSearchConfig
from repro.data.synthetic import clustered_gaussian, split_queries
from repro.obs import NullTracer, SpanTracer
from repro.serving import (
    BatchPolicy,
    PoissonArrivals,
    QueryStream,
    ServingConfig,
    ServingFrontend,
    ShardDevice,
    build_router,
)
from repro.serving.request import CACHE_HIT, COALESCED, COMPLETED, SHED
from repro.sim.stats import SimResult, serial_timeline

#: Phases the Chrome trace-event format defines for the events the
#: tracer emits: metadata, complete, instant, async begin/end, counter.
VALID_PHASES = {"M", "X", "i", "b", "e", "C"}


def _result(stages, batch=8):
    timeline = serial_timeline(stages)
    total = timeline[-1].end if timeline else 0.0
    return SimResult("x", "hnsw", "synthetic", batch, total, timeline=timeline)


def _serve(tracer, *, seed=11, requests=120, rate=8000.0, cache=16):
    vectors = clustered_gaussian(300, 8, seed=21)
    pool = split_queries(vectors, 48, seed=22)
    router = build_router(vectors, num_shards=2, config=NDSearchConfig.scaled())
    stream = QueryStream(
        PoissonArrivals(rate),
        pool_size=48,
        n_requests=requests,
        k=5,
        zipf_exponent=1.1,
        seed=seed,
    )
    frontend = ServingFrontend(
        router,
        ServingConfig(
            policy=BatchPolicy(max_batch_size=8, max_wait_s=1e-3),
            cache_capacity=cache,
            coalesce=True,
        ),
        tracer=tracer,
    )
    requests = stream.generate()
    report = frontend.run(requests, pool)
    return report, requests


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        # Every hook is callable and returns nothing to store.
        tracer.process(0, "p")
        assert tracer.thread(0, "t") == 0
        tracer.instant("a", "c", 1.0)
        tracer.complete("a", "c", 1.0, 2.0)
        tracer.async_begin("a", "c", 1, 1.0)
        tracer.async_end("a", "c", 1, 2.0)
        tracer.counter("a", 1.0, {"v": 1.0})
        assert not vars(tracer)  # stateless: nothing was recorded


class TestSpanTracer:
    def test_thread_ids_stable_per_process(self):
        tracer = SpanTracer()
        assert tracer.thread(1, "nand") == 0
        assert tracer.thread(1, "mac") == 1
        assert tracer.thread(2, "nand") == 0  # per-pid allocation
        assert tracer.thread(1, "nand") == 0  # stable on reuse
        names = [
            e["args"]["name"] for e in tracer.events() if e["ph"] == "M"
        ]
        assert names == ["nand", "mac", "nand"]

    def test_microsecond_timestamps(self):
        tracer = SpanTracer()
        tracer.complete("batch", "stage", 1e-3, 3e-3)
        (event,) = tracer.events()
        assert event["ts"] == pytest.approx(1e3)
        assert event["dur"] == pytest.approx(2e3)

    def test_chrome_trace_shape(self):
        tracer = SpanTracer()
        tracer.process(0, "frontend")
        tid = tracer.thread(0, "kernel")
        tracer.instant("tick", "kernel", 1e-3, tid=tid)
        tracer.complete("batch", "stage", 1e-3, 2e-3)
        tracer.async_begin("request", "request", 7, 0.0)
        tracer.async_end("request", "request", 7, 5e-3)
        tracer.counter("queue", 1e-3, {"depth": 3})
        payload = json.loads(tracer.json_str())
        assert set(payload) == {"displayTimeUnit", "traceEvents"}
        for event in payload["traceEvents"]:
            assert event["ph"] in VALID_PHASES
            assert {"name", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] in ("b", "e"):
                assert "id" in event
            if event["ph"] in ("C", "M"):
                assert "args" in event

    def test_write_round_trips(self, tmp_path):
        tracer = SpanTracer()
        tracer.complete("batch", "stage", 0.0, 1e-3)
        path = tmp_path / "trace.json"
        tracer.write(path)
        assert json.loads(path.read_text()) == tracer.to_json()


class TestDeviceSpans:
    def test_pipelined_stage_spans_match_timeline(self):
        """Stage spans reproduce the SimResult phase timeline lanes."""
        chain = [("in", "a", 1.0), ("work", "b", 3.0), ("out", "c", 1.0)]
        result = _result(chain)
        tracer = SpanTracer()
        device = ShardDevice(pipelined=True, index=2)  # trace pid 3
        device.serve(result, at=2.0, tracer=tracer)
        spans = [e for e in tracer.events() if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["a", "b", "c"]
        # An unloaded device books the chain back-to-back from t=2, so
        # each span is its timeline segment shifted by the start time.
        expected = [(2.0, 1.0), (3.0, 3.0), (6.0, 1.0)]
        for span, (start, dur) in zip(spans, expected):
            assert span["ts"] == pytest.approx(start * 1e6)
            assert span["dur"] == pytest.approx(dur * 1e6)
            assert span["pid"] == 3
        # One lane (tid) per resource, in first-emission order.
        assert [s["tid"] for s in spans] == [0, 1, 2]

    def test_blocking_device_emits_whole_batch_span(self):
        result = _result([("in", "a", 1.0), ("work", "b", 3.0)])
        tracer = SpanTracer()
        device = ShardDevice(pipelined=False)
        device.serve(result, at=0.0, tracer=tracer)
        device.serve(result, at=0.0, tracer=tracer)
        spans = [e for e in tracer.events() if e["ph"] == "X"]
        assert [(s["ts"], s["dur"]) for s in spans] == [
            (0.0, pytest.approx(4e6)),
            (pytest.approx(4e6), pytest.approx(4e6)),
        ]

    def test_booked_movement_span(self):
        tracer = SpanTracer()
        device = ShardDevice(pipelined=True)
        device.book(1.0, 0.5, tracer=tracer)
        (span,) = [e for e in tracer.events() if e["ph"] == "X"]
        assert span["name"] == "data movement"
        assert span["cat"] == "movement"


class TestServingTrace:
    def test_same_seed_same_config_byte_identical(self):
        """The acceptance criterion: trace export is deterministic."""
        tracer_a, tracer_b = SpanTracer(), SpanTracer()
        _serve(tracer_a, seed=11)
        _serve(tracer_b, seed=11)
        assert tracer_a.json_str() == tracer_b.json_str()
        assert len(tracer_a) > 0

    def test_different_seed_different_trace(self):
        tracer_a, tracer_b = SpanTracer(), SpanTracer()
        _serve(tracer_a, seed=11)
        _serve(tracer_b, seed=12)
        assert tracer_a.json_str() != tracer_b.json_str()

    def test_request_spans_align_with_outcomes(self):
        """Every request's async span closes at its recorded timestamps."""
        tracer = SpanTracer()
        report, requests = _serve(tracer)
        opens = {}
        closes = {}
        for event in tracer.events():
            if event.get("cat") != "request":
                continue
            if event["ph"] == "b":
                opens[event["id"]] = event
            elif event["ph"] == "e":
                closes[event["id"]] = event
        for request in requests:
            begin = opens[request.request_id]
            assert begin["ts"] == pytest.approx(request.arrival_s * 1e6)
            end = closes[request.request_id]
            assert end["args"]["outcome"] == request.outcome
            if request.outcome in (COMPLETED, CACHE_HIT, COALESCED):
                assert end["ts"] == pytest.approx(request.completion_s * 1e6)
            else:
                assert request.outcome == SHED
        # Spans balance: one begin and one end per offered request.
        assert len(opens) == len(closes) == report.offered

    def test_batch_spans_cover_member_requests(self):
        tracer = SpanTracer()
        report, requests = _serve(tracer, cache=0)
        batch_spans = {}
        for event in tracer.events():
            if event.get("cat") == "batch" and event["ph"] == "b":
                batch_spans[event["id"]] = event
        assert batch_spans
        sizes = sum(e["args"]["size"] for e in batch_spans.values())
        assert sizes == report.completed
        # A batched request's service start is inside some batch span.
        for request in requests:
            if request.outcome == COMPLETED:
                assert any(
                    e["ts"] <= request.batched_s * 1e6 + 1e-6
                    for e in batch_spans.values()
                )

    def test_process_metadata_names_frontend_and_shards(self):
        tracer = SpanTracer()
        _serve(tracer)
        names = {
            e["args"]["name"]
            for e in tracer.events()
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "serving.frontend" in names
        assert "shard 0" in names and "shard 1" in names
