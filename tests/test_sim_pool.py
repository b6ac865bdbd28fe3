"""The warm worker pool: determinism, crash recovery, clean shutdown.

The contract :mod:`repro.sim.pool` offers the sweep drivers
(``bench_serving`` and the randomized property job):

* pooled output is **byte-identical** to the serial sweep for the same
  seeds — results merge in row order, never completion order;
* rows with the same affinity key share one warm worker (that is what
  makes the pool *warm*: per-process caches are reused across rows);
* a worker that dies mid-row is respawned and the row retried exactly
  once; a task that raises is deterministic and never retried;
* shutdown leaves no orphan processes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.sim.pool import (
    POOL_WORKERS_ENV,
    PoolTaskError,
    WorkerCrashError,
    WorkerPool,
    run_rows,
    workers_from_env,
)

TASKS_DIR = Path(__file__).resolve().parent


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_results_merge_in_row_order_and_keys_pin_workers():
    rows = [
        (f"key{i % 3}", "pool_tasks:echo", {"value": i}) for i in range(9)
    ]
    with WorkerPool(2, path=[TASKS_DIR]) as pool:
        values = pool.run(rows)
        assert values == list(range(9))
        pids = pool.run(
            [
                (f"key{i % 3}", "pool_tasks:worker_pid", {})
                for i in range(9)
            ]
        )
    # Same affinity key -> same warm worker, every time.
    by_key: dict[str, set[int]] = {}
    for i, pid in enumerate(pids):
        by_key.setdefault(f"key{i % 3}", set()).add(pid)
    assert all(len(owners) == 1 for owners in by_key.values()), by_key
    # Three keys round-robin over two workers: both workers served.
    assert len(set(pids)) == 2


def test_pooled_sweep_byte_identical_to_serial(pool_workers):
    rows = [
        ("x1", "pool_tasks:serving_digest", {"policy": "batch", "rate": 20000.0}),
        ("x1", "pool_tasks:serving_digest", {"policy": "greedy", "rate": 20000.0}),
        ("x1-lo", "pool_tasks:serving_digest", {"policy": "batch", "rate": 500.0}),
    ]
    serial = run_rows(rows, 0, path=[TASKS_DIR])
    pooled = run_rows(rows, pool_workers or 2, path=[TASKS_DIR])
    assert json.dumps(pooled, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )


def test_worker_crash_retries_row_once_on_fresh_worker(tmp_path):
    marker = tmp_path / "crashed-once"
    with WorkerPool(1, path=[TASKS_DIR]) as pool:
        first_pid = pool.run([("k", "pool_tasks:worker_pid", {})])[0]
        results = pool.run(
            [
                ("k", "pool_tasks:crash_once",
                 {"marker": str(marker), "value": 42}),
                ("k", "pool_tasks:echo", {"value": "after"}),
            ]
        )
        assert results == [42, "after"]
        assert pool.respawns == 1
        assert pool.retries == 1
        # The retry ran on a fresh process, not the dead one.
        retry_pid = pool.run([("k", "pool_tasks:worker_pid", {})])[0]
        assert retry_pid != first_pid
    assert marker.exists()


def test_row_that_always_crashes_surfaces_after_second_death():
    with WorkerPool(1, path=[TASKS_DIR]) as pool:
        with pytest.raises(WorkerCrashError):
            pool.run([("k", "pool_tasks:always_crash", {})])
        assert pool.respawns == 2


def test_task_exception_is_not_retried():
    with WorkerPool(1, path=[TASKS_DIR]) as pool:
        with pytest.raises(PoolTaskError, match="deterministic failure"):
            pool.run(
                [("k", "pool_tasks:boom", {"message": "deterministic failure"})]
            )
        assert pool.retries == 0
        assert pool.respawns == 0
        # The worker survived the exception and keeps serving.
        assert pool.run([("k", "pool_tasks:echo", {"value": 5})]) == [5]


def test_shutdown_leaves_no_orphans():
    pool = WorkerPool(2, path=[TASKS_DIR])
    pids = pool.run(
        [(f"k{i}", "pool_tasks:worker_pid", {}) for i in range(2)]
    )
    assert len(set(pids)) == 2
    assert all(_alive(pid) for pid in pids)
    pool.close()
    assert not any(_alive(pid) for pid in pids)
    pool.close()  # idempotent
    with pytest.raises(RuntimeError):
        pool.run([("k", "pool_tasks:echo", {"value": 1})])


def test_workers_from_env(monkeypatch):
    monkeypatch.delenv(POOL_WORKERS_ENV, raising=False)
    assert workers_from_env() == 0
    assert workers_from_env(default=3) == 3
    monkeypatch.setenv(POOL_WORKERS_ENV, "4")
    assert workers_from_env() == 4
    monkeypatch.setenv(POOL_WORKERS_ENV, "-2")
    assert workers_from_env() == 0
    monkeypatch.setenv(POOL_WORKERS_ENV, "junk")
    assert workers_from_env(default=1) == 1


def test_serial_fallback_runs_in_process():
    rows = [("k", "pool_tasks:worker_pid", {})]
    assert run_rows(rows, 0, path=[TASKS_DIR]) == [os.getpid()]
