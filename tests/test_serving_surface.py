"""Pinned serving surface: the full report, every request and every span.

The parity digests (:mod:`test_serving_parity`) cover the scalar report
fields and the per-request tuples of 15 configurations.  They leave out
the windowed ``timeseries``, the ``flash`` summary, the rebalance
events, the counters and the trace spans, and they do not cover
``partitioned-skewed-flash``.  This suite pins all of that: every
:data:`~repro.serving.scenario.SCENARIOS` entry run with a
:class:`~repro.obs.trace.SpanTracer` and 1 ms metrics windows, plus the
two everything-on configurations :class:`TestSnapshotCoversSession`
(:mod:`test_serving_twin`) freezes mid-stream.

Each digest hashes ``json.dumps(report.to_dict(), sort_keys=True)``,
every request's ``(request_id, outcome, batched_s, start_s,
completion_s)`` tuple and result bytes, and ``SpanTracer.json_str()``.
A mismatch means an observable output changed, not only an internal
detail.

Regenerating (only after an *intentional* change of observable output,
with the reasoning recorded in the commit):

    REPRO_WRITE_SURFACE=/tmp/surface.json \\
        PYTHONPATH=src python -m pytest tests/test_serving_surface.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.obs import SpanTracer
from repro.serving.rebalance import RebalancePolicy
from repro.serving.scenario import SCENARIOS


def _everything_on() -> dict:
    """The two configurations that between them switch on every
    stateful frontend component."""
    skewed = SCENARIOS["partitioned-skewed-flash"]
    overload = SCENARIOS["autoscale-overload"]
    slo = SCENARIOS["slo-deadline-4ms"]
    return {
        # Partitioned pool: flash, rebalancing, windows, coalescing and
        # the cache.
        "everything-partitioned": replace(
            skewed,
            slo_s=None,
            serving=replace(
                skewed.serving,
                cache_capacity=64,
                coalesce=True,
                rebalance=RebalancePolicy(
                    interval_s=2e-3, skew_threshold=0.05,
                    min_window_queries=1,
                ),
                metrics_window_s=1e-3,
            ),
        ),
        # Replicated pool: the autoscaled overload cell with the
        # two-class deadline stream, the slo policy and priority
        # admission.
        "everything-replicated": replace(
            overload,
            priorities=slo.priorities,
            priority_weights=slo.priority_weights,
            slo_s=slo.slo_s,
            serving=replace(
                overload.serving,
                policy=replace(slo.serving.policy, max_batch_size=4),
                priority_admission=True,
            ),
        ),
    }


#: The everything-on configurations, shared with ``test_serving_twin``.
EVERYTHING_ON = _everything_on()


def _windowed(scenario):
    return replace(
        scenario, serving=replace(scenario.serving, metrics_window_s=1e-3)
    )


#: Every pinned configuration, traced with 1 ms windows.
SURFACES = {
    **{name: _windowed(s) for name, s in SCENARIOS.items()},
    **{name: _windowed(s) for name, s in EVERYTHING_ON.items()},
}

#: Digests recorded before the frontend's outcome, dispatch and flash
#: footprint paths were merged; the merge had to keep every one.
GOLDEN = {
    "autoscale-overload":
        "969c9b5f559464d07f113f43184e0e9b83fb48766476cda824bd8a2b3a1bf73a",
    "batch-x1-hi":
        "6dc947be3c7289d67d93b9e25fe474d6ef87dd66c4bfd0381d86ff1de160d8d6",
    "batch-x4-lo":
        "5ef4881106e2c2431f537a5fdc5cb22fe585ce2960c95b2337ad04cfef95ce97",
    "blocking-x1-bursty":
        "8c00f7de5f029ae0801d30b92a4187c15d1a4172fb7d146fe33f75bd0af5cd4d",
    "coalesce-zipf-bursty":
        "5cef4c1554c8f910f97dab68624a49f79c4e2fb3b1d846a0571ff4a970570e66",
    "cpu-spill-blocking-bursty":
        "ea2f9eeda61301a79996a9de54e946b3ed6500f344a8c532c68dd2c36b78d627",
    "cpu-spill-pipelined-bursty":
        "22501c6a90c7852102fcf9d9d46e78085504cfccc47a978642542085712861fe",
    "everything-partitioned":
        "dc185844901d7ac5d6afc874eea6a4a4520837b764014f591d2a8938906882be",
    "everything-replicated":
        "7adc32045ffdadb9185909f32ceeec15ca880c7a4e59ee745d3e174e05ffb049",
    "greedy-x1-hi":
        "54e6fa6cba5ca80c548743aa8932517e3c91fe592caf412b0ffa8f3a578d8163",
    "maxwait-deadline-4ms":
        "c547adc5ab6dc5b45e67441ca9544d2cf1152f0c20f26f6f685e9634d7cd51ec",
    "partitioned-broadcast":
        "d1a4ca448d0b8ba26f10cc133c408df7910e4e7d75cad7bd1a431e3a405d327f",
    "partitioned-nprobe1":
        "ca8a87d504e3fe11bb158a4578a1db1f76693934ee873bcb7f331ac05af38935",
    "partitioned-nprobe2":
        "c2aa617d24703212616d166171f9c4b1661ad1e88b17b65ab1ddc8698416f04b",
    "partitioned-skewed-flash":
        "05505814736d96a0cfc94b15767fc77fa54be797be1650b59547a747be6e4a16",
    "pipelined-x1-bursty":
        "faf61a0e353f9165d0784db4cf66de5c92853d15f8c0e1d82c8029cc56084419",
    "slo-deadline-4ms":
        "d8f14e40b86076fa40c6b958fc2fee90cdc05f139d7b920b85512b63b7684f4c",
    "static-overload":
        "cf81b48737745ab69a5d04c4f3b4d3fe9dd6c56c892b04c9463ccde765ba04cb",
}


def surface_digest(report, requests, tracer: SpanTracer) -> str:
    """sha256 over the full report, every request and every span."""
    h = hashlib.sha256()
    h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    for r in requests:
        h.update(
            repr(
                (r.request_id, r.outcome, r.batched_s, r.start_s,
                 r.completion_s)
            ).encode()
        )
        if r.result_ids is not None:
            h.update(r.result_ids.tobytes())
            h.update(r.result_dists.tobytes())
    h.update(tracer.json_str().encode())
    return h.hexdigest()


_WRITE_PATH = os.environ.get("REPRO_WRITE_SURFACE")
_WRITTEN: dict[str, str] = {}


@pytest.mark.parametrize("name", tuple(SURFACES))
def test_serving_surface_is_pinned(name):
    tracer = SpanTracer()
    report, requests = SURFACES[name].run(tracer)
    got = surface_digest(report, requests, tracer)
    if _WRITE_PATH:
        _WRITTEN[name] = got
        with open(_WRITE_PATH, "w") as fh:
            json.dump(_WRITTEN, fh, indent=2, sort_keys=True)
        return
    assert got == GOLDEN[name], (
        f"the serving surface of {name!r} changed: report, requests "
        f"or trace spans"
    )
