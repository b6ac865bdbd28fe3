"""Outside-in layer tracing for the end-to-end benchmark.

The traced child wraps each layer's public callables (a class method or
a module function) with a span recorder; nothing inside ``repro``
changes.  Each span keeps its name, start, end and parent in memory.
A layer's *self* time is its spans' durations minus the part their
child spans cover, so self times plus the root's own uncovered time
add up to the root's wall time exactly.

Span names are ``<layer>`` or ``<layer>.<detail>`` (``frontend.Arrival``
is the arrival handler, ``snapshot.capture`` one ``snapshot()`` call).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: The wrapped callables: (span name, module, class name or None for a
#: module function, callable name, work counter).  The counter turns a
#: call into units of work: ``result`` adds the returned count, ``rows``
#: the length of the first argument, ``repeats`` tallies query rows and
#: batches seen before (keyed by their bytes).
TARGETS = (
    ("events", "repro.sim.events", "EventLoop", "run", "result"),
    ("frontend", "repro.serving.frontend", "ServingFrontend", "__init__", None),
    ("frontend", "repro.serving.frontend", "ServingFrontend", "run", None),
    ("frontend", "repro.serving.frontend", "ServingFrontend", "stream_begin", None),
    ("frontend", "repro.serving.frontend", "ServingFrontend", "stream_extend", None),
    ("frontend", "repro.serving.frontend", "ServingFrontend", "stream_step", None),
    ("frontend", "repro.serving.frontend", "ServingFrontend", "stream_finish", None),
    ("sharding", "repro.serving.sharding", "ShardRouter", "search_probed", None),
    ("sharding", "repro.serving.sharding", "ShardRouter", "search_on", None),
    ("sharding.probe", "repro.serving.sharding", "ShardRouter", "probe", None),
    ("backends", "repro.serving.backends", "PlatformBackend", "search_batch", "repeats"),
    ("ann", "repro.ann.hnsw", "HNSWIndex", "search_batch", "rows"),
    ("platform", "repro.platform.adapters", "NDSearchPlatform", "simulate", "rows"),
    ("platform", "repro.platform.adapters", "BaselinePlatform", "simulate", "rows"),
    ("platform", "repro.platform.adapters", "DeepStorePlatform", "simulate", "rows"),
    ("core.searssd", "repro.core.searssd", "SearSSDModel", "run_batch", None),
    ("core.speculative", "repro.core.ndsearch", None, "precompute_speculative_sets", None),
    ("device", "repro.serving.device", "ShardDevice", "serve", None),
    ("device", "repro.serving.device", "ShardDevice", "book", None),
    ("device", "repro.serving.device", "ShardDevice", "predict", None),
    ("snapshot.capture", "repro.serving.frontend", "ServingFrontend", "snapshot", None),
    ("snapshot.restore", "repro.serving.frontend", "ServingFrontend", "restore", None),
    ("snapshot", "repro.serving.frontend", None, "clone_state", None),
    ("snapshot", "repro.serving.frontend", None, "state_digest", None),
    ("twin", "repro.serving.twin", "ServingTwin", "feed", None),
    ("twin", "repro.serving.twin", "ServingTwin", "advance", None),
    ("twin.whatif", "repro.serving.twin", "ServingTwin", "whatif", None),
    ("twin", "repro.serving.twin", "ServingTwin", "finish", None),
    ("experiments.get_workload", "repro.experiments.common", None, "get_workload", None),
    ("experiments.run_platform", "repro.experiments.common", None, "run_platform", None),
) + tuple(
    ("storage", "repro.serving.storage", "FlashBackedStore", method, None)
    for method in (
        "__init__", "pages_for", "has_cluster", "ensure_cluster",
        "record_reads", "ecc_delay_s", "perform_refreshes", "program_cluster",
        "program_time_s", "release_cluster", "summary",
    )
)

#: Event types whose frontend handlers get their own ``frontend.<type>``
#: span names (handlers are wrapped when they subscribe).
EVENT_TYPES = (
    "Arrival", "BatchDeadline", "Completion", "EpochTick", "DataMovement",
    "FlashMaintenance", "StreamEnd",
)


class LayerTracer:
    """Records nested spans around wrapped callables.

    :meth:`traced` patches every target (and ``EventLoop.subscribe``,
    so handlers subscribed meanwhile are wrapped too) for the span of one
    root, then puts the originals back.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        """Closed spans: (name, start, end, parent index or -1)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._seen: list[tuple[object, set, set]] = []

    # ---- recording --------------------------------------------------------
    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)  # placeholder, filled on close

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, covered, slot = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        self.spans[slot] = (name, start, end, parent[3] if parent else -1)

    def span(self, name: str, fn, counter: str | None = None):
        """``fn`` wrapped so each call inside a root records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter == "result":
                self.work[name] += int(result)
            elif counter == "rows":
                self.work[name] += len(args[1])
            elif counter == "repeats":
                self._count_repeats(args[0], args[1], args[2])
            return result

        return wrapper

    def _count_repeats(self, backend, queries, k: int) -> None:
        """Tally rows and whole batches this backend has seen before in
        the current root, keyed by query bytes."""
        for owner, rows, batches in self._seen:
            if owner is backend:
                break
        else:
            rows, batches = set(), set()
            self._seen.append((backend, rows, batches))
        queries = np.ascontiguousarray(queries)
        keys = [(row.tobytes(), k) for row in queries]
        self.work["backends.rows"] += len(keys)
        self.work["backends.row_repeats"] += sum(key in rows for key in keys)
        rows.update(keys)
        batch = (queries.tobytes(), k)
        self.work["backends.batches"] += 1
        self.work["backends.batch_repeats"] += batch in batches
        batches.add(batch)

    @contextlib.contextmanager
    def traced(self, name: str):
        """Wrap the targets and record one root span named ``name``;
        repeat tallies start afresh in each root."""
        self._seen = []
        self._install()
        self._open(name)
        try:
            yield
        finally:
            self._close()
            self._uninstall()

    # ---- patching ---------------------------------------------------------
    def _install(self) -> None:
        for name, module_name, owner_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self._patch(owner, attr, self.span(name, getattr(owner, attr), counter))
        events = importlib.import_module("repro.sim.events")
        subscribe = events.EventLoop.subscribe
        tracer = self

        def traced_subscribe(loop, event_type, handler):
            kind = event_type.__name__
            label = f"frontend.{kind}" if kind in EVENT_TYPES else "frontend"
            return subscribe(loop, event_type, tracer.span(label, handler))

        self._patch(events.EventLoop, "subscribe", traced_subscribe)

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # ---- reporting --------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (one complete event each)."""
        closed = [span for span in self.spans if span is not None]
        base = min((span[1] for span in closed), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"parent": parent},
            }
            for name, start, end, parent in closed
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path, table: dict) -> None:
        """Write the Chrome trace and the layer table beside it."""
        path.write_text(json.dumps(self.chrome_trace()))
        path.with_suffix(".layers.json").write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n"
        )

