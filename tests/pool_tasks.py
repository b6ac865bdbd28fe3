"""Task functions the worker-pool tests fan out.

Pool workers import tasks by name (``"pool_tasks:echo"``), so these
live in a plain module the tests hand to the pool via its ``path``
option — not inside a test file pytest may import under a different
module name.
"""

from __future__ import annotations

import hashlib
import os


def echo(value):
    return value


def worker_pid() -> int:
    return os.getpid()


def crash_once(marker: str, value):
    """Die hard (no response, no cleanup) the first time, succeed on
    the retry — the filesystem marker survives the crash, the process
    does not."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(17)
    return value


def always_crash():
    """Die hard on every call — the row can never succeed."""
    os._exit(3)


def boom(message: str):
    raise RuntimeError(message)


def serving_digest(policy: str, rate: float) -> dict:
    """A miniature serving cell reduced to a parity-style digest.

    A pure function of its spec (pinned seeds end to end), so pooled
    and serial sweeps over the same rows must produce byte-identical
    results — the determinism contract the pool tests hold it to.
    """
    from dataclasses import replace

    from repro.serving import BatchPolicy, PoissonArrivals
    from repro.serving.scenario import SCENARIOS

    base = SCENARIOS["batch-x1-hi"]
    report, requests = replace(
        base,
        corpus_size=200,
        dim=8,
        corpus_seed=7,
        pool_size=32,
        pool_seed=9,
        arrivals=PoissonArrivals(rate),
        n_requests=80,
        k=5,
        zipf_exponent=1.0,
        stream_seed=11,
        serving=replace(
            base.serving,
            policy=BatchPolicy(max_batch_size=16, mode=policy),
        ),
    ).run()
    digest = hashlib.sha256()
    for request in requests:
        digest.update(
            repr(
                (
                    request.request_id,
                    request.outcome,
                    request.batched_s,
                    request.start_s,
                    request.completion_s,
                )
            ).encode()
        )
        if request.result_ids is not None:
            digest.update(request.result_ids.tobytes())
            digest.update(request.result_dists.tobytes())
    digest.update(
        repr(
            (
                report.completed,
                report.qps,
                report.latency_p50_s,
                report.latency_p99_s,
                report.mean_batch_size,
            )
        ).encode()
    )
    return {
        "policy": policy,
        "rate": rate,
        "qps": report.qps,
        "p99_ms": report.latency_p99_s * 1e3,
        "digest": digest.hexdigest(),
    }
