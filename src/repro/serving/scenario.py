"""One recipe per serving run: corpus, router, stream and frontend config.

A :class:`Scenario` holds every parameter a serving run is built from —
the synthetic corpus and query pool, the :func:`build_router`
deployment (its :class:`~repro.core.config.NDSearchConfig` held whole,
so a spilling CPU host is just another config), the
:class:`~repro.serving.arrivals.QueryStream` arguments and the
:class:`~repro.serving.frontend.ServingConfig` — and builds the pieces
on demand.  Every call builds new mutable objects (routers, requests,
frontends), because autoscaling, rebalancing and stateful flash mutate
them; :func:`build_router` memoizes the expensive immutable artifacts,
so a fresh router per run is cheap.

:data:`SCENARIOS` is the named registry: the 15 configurations whose
digests pin the serving stack bit-exact
(``tests/test_serving_parity.py``), plus the skewed partitioned cell
with stateful flash that the rebalance and flash benchmark rows and
tests build on.  Variations are ``dataclasses.replace`` of an entry::

    from dataclasses import replace
    from repro.serving.scenario import SCENARIOS

    cell = SCENARIOS["batch-x1-hi"]
    report, requests = replace(cell, num_shards=4).run()

The defaults are the shared recipe: an 800 x 16 clustered-Gaussian
corpus (seed 31), a 128-query pool (seed 32), a 400-request stream
(seed 33), router seed 35, and a cache-free, coalescing-free frontend
batching 32 requests or 2 ms.

A recipe the deployment cannot serve (``nprobe`` on a replicated pool,
the ``slo`` policy without deadlines, ...) raises ``ValueError`` when
the scenario is constructed.  :func:`with_settings` applies textual
``PATH=VALUE`` overrides (the CLI's ``--set``)::

    with_settings(cell, ["serving.policy.mode=greedy", "num_shards=4"])
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace
from types import MappingProxyType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from repro.core.config import NDSearchConfig
from repro.data.synthetic import clustered_gaussian, split_queries
from repro.obs.trace import Tracer
from repro.serving.arrivals import MMPPArrivals, PoissonArrivals, QueryStream
from repro.serving.autoscale import AutoscalePolicy
from repro.serving.batcher import SLO, BatchPolicy
from repro.serving.frontend import (
    ServingConfig,
    ServingFrontend,
    check_deployment,
)
from repro.serving.metrics import ServingReport
from repro.serving.request import Request
from repro.serving.sharding import (
    PARTITIONED,
    REPLICATED,
    ShardRouter,
    build_router,
)
from repro.serving.storage import FlashConfig


@dataclass(frozen=True)
class Scenario:
    """A serving run's full recipe; entries are hashable values."""

    # Corpus and query pool.
    corpus_size: int = 800
    dim: int = 16
    corpus_seed: int = 31
    pool_size: int = 128
    pool_seed: int = 32

    # Deployment (build_router arguments).
    num_shards: int = 1
    config: NDSearchConfig = field(default_factory=NDSearchConfig.scaled)
    mode: str = REPLICATED
    platform: str = "ndsearch"
    router_seed: int = 35
    clusters_per_shard: int = 1

    # Request stream (QueryStream arguments).
    arrivals: PoissonArrivals | MMPPArrivals = PoissonArrivals(2000.0)
    n_requests: int = 400
    k: int = 10
    zipf_exponent: float = 0.0
    stream_seed: int = 33
    priorities: tuple[int, ...] = (0,)
    priority_weights: tuple[float, ...] | None = None
    slo_s: float | tuple[tuple[int, float], ...] | None = None
    """One deadline offset for every request, or ``(priority, offset)``
    pairs; a ``{priority: offset}`` mapping is frozen into pairs."""

    serving: ServingConfig = ServingConfig(cache_capacity=0, coalesce=False)

    def __post_init__(self) -> None:
        if isinstance(self.slo_s, Mapping):
            object.__setattr__(self, "slo_s", tuple(self.slo_s.items()))
        if self.clusters_per_shard > 1 and self.mode != PARTITIONED:
            raise ValueError(
                "clusters_per_shard > 1 requires mode='partitioned'"
            )
        if self.serving.policy.mode == SLO and self.slo_s is None:
            raise ValueError(
                "serving.policy.mode='slo' closes batches on request "
                "deadlines and needs slo_s"
            )
        check_deployment(
            self.serving, self.mode, self.num_shards,
            self.num_shards * self.clusters_per_shard,
        )

    def vectors_and_pool(self) -> tuple[np.ndarray, np.ndarray]:
        """The corpus and the query pool the requests index into."""
        vectors = clustered_gaussian(
            self.corpus_size, self.dim, seed=self.corpus_seed
        )
        pool = split_queries(vectors, self.pool_size, seed=self.pool_seed)
        return vectors, pool

    def router(self) -> ShardRouter:
        """A new router; the built indexes come from the build cache."""
        vectors, _ = self.vectors_and_pool()
        return build_router(
            vectors,
            num_shards=self.num_shards,
            config=self.config,
            mode=self.mode,
            platform=self.platform,
            seed=self.router_seed,
            clusters_per_shard=self.clusters_per_shard,
        )

    def requests(self) -> list[Request]:
        """A fresh, unserved request stream."""
        slo_s = self.slo_s
        return QueryStream(
            self.arrivals,
            pool_size=self.pool_size,
            n_requests=self.n_requests,
            k=self.k,
            zipf_exponent=self.zipf_exponent,
            seed=self.stream_seed,
            priorities=self.priorities,
            priority_weights=self.priority_weights,
            slo_s=dict(slo_s) if isinstance(slo_s, tuple) else slo_s,
        ).generate()

    def frontend(self, tracer: Tracer | None = None) -> ServingFrontend:
        """A new frontend over a new router."""
        return ServingFrontend(self.router(), self.serving, tracer=tracer)

    def run(
        self, tracer: Tracer | None = None
    ) -> tuple[ServingReport, list[Request]]:
        """Serve a fresh stream; the requests come back served."""
        _, pool = self.vectors_and_pool()
        requests = self.requests()
        report = self.frontend(tracer).run(requests, pool)
        return report, requests


def _serving(**changes) -> ServingConfig:
    return replace(Scenario.serving, **changes)


def _spill_config() -> NDSearchConfig:
    # A CPU host whose DRAM cannot hold the corpus: every access reads
    # the SSD, so the front pipeline stage is the fattest.
    config = NDSearchConfig.scaled()
    return replace(
        config, host=replace(config.host, dram_capacity_bytes=16 * 1024)
    )


_CPU_SPILL = Scenario(
    num_shards=2, config=_spill_config(), platform="cpu",
    arrivals=MMPPArrivals(10000.0),
)
_PARTITIONED = Scenario(num_shards=4, mode=PARTITIONED)
# Two priority classes: the high class (a quarter of the stream) gets
# a 4 ms deadline, best effort 16 ms.
_TWO_CLASS = Scenario(
    arrivals=PoissonArrivals(4000.0), priorities=(0, 1),
    priority_weights=(0.75, 0.25), slo_s=((1, 4e-3), (0, 16e-3)),
)
# Far above one replica's capacity with small batches, so the static
# pool's backlog fills the admission bound.
_OVERLOAD = Scenario(
    arrivals=PoissonArrivals(25000.0),
    serving=_serving(
        policy=BatchPolicy(max_batch_size=4, max_wait_s=2e-3),
        admission_capacity=48,
    ),
)

#: The named registry, read-only: the 15 pinned parity configurations
#: plus ``partitioned-skewed-flash``, a Zipfian stream routed with
#: ``nprobe=1`` over 4 devices x 2 clusters, so the devices owning the
#: popular clusters run hot, served through a live FTL whose disturb
#: threshold is scaled down to fire at these read volumes (5% hard
#: decode failures: the paper's mid-late-lifetime regime).
SCENARIOS: Mapping[str, Scenario] = MappingProxyType({
    "batch-x1-hi": Scenario(arrivals=PoissonArrivals(20000.0)),
    "greedy-x1-hi": Scenario(
        arrivals=PoissonArrivals(20000.0),
        serving=_serving(policy=BatchPolicy(mode="greedy")),
    ),
    "batch-x4-lo": Scenario(num_shards=4, arrivals=PoissonArrivals(500.0)),
    "pipelined-x1-bursty": Scenario(arrivals=MMPPArrivals(40000.0)),
    "blocking-x1-bursty": Scenario(
        arrivals=MMPPArrivals(40000.0), serving=_serving(pipelined=False)
    ),
    "cpu-spill-pipelined-bursty": _CPU_SPILL,
    "cpu-spill-blocking-bursty": replace(
        _CPU_SPILL, serving=_serving(pipelined=False)
    ),
    "partitioned-broadcast": _PARTITIONED,
    "partitioned-nprobe1": replace(_PARTITIONED, serving=_serving(nprobe=1)),
    "partitioned-nprobe2": replace(_PARTITIONED, serving=_serving(nprobe=2)),
    "coalesce-zipf-bursty": Scenario(
        arrivals=MMPPArrivals(20000.0), zipf_exponent=1.1,
        serving=_serving(coalesce=True),
    ),
    "slo-deadline-4ms": replace(
        _TWO_CLASS,
        serving=_serving(
            policy=BatchPolicy(max_wait_s=20e-3, mode="slo", slo_margin_s=3e-4)
        ),
    ),
    "maxwait-deadline-4ms": replace(
        _TWO_CLASS, serving=_serving(policy=BatchPolicy(max_wait_s=20e-3))
    ),
    "static-overload": _OVERLOAD,
    "autoscale-overload": replace(
        _OVERLOAD,
        serving=replace(
            _OVERLOAD.serving,
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval_s=2e-3,
                high_utilization=0.7, high_queue_depth=8.0,
            ),
        ),
    ),
    "partitioned-skewed-flash": replace(
        _PARTITIONED,
        clusters_per_shard=2,
        arrivals=PoissonArrivals(16000.0),
        zipf_exponent=1.2,
        slo_s=4e-3,
        serving=_serving(
            policy=BatchPolicy(max_batch_size=16),
            nprobe=1,
            flash=FlashConfig(
                read_disturb_threshold=200, ecc_hard_failure_prob=0.05
            ),
        ),
    ),
})


def with_settings(base: Scenario, settings: Iterable[str]) -> Scenario:
    """``base`` with ``PATH=VALUE`` assignments applied, all at once.

    ``PATH`` names a field, dotted through nested dataclass fields
    (``serving.policy.mode``).  ``VALUE`` is parsed as JSON, or taken
    as a plain string when it is not JSON, and coerced to the field's
    annotated type: an int becomes a float where a float is expected, a
    list becomes a tuple, and a JSON object builds a dataclass from its
    fields (``{}`` gives the defaults; where the field allows several
    dataclasses, a ``"type"`` key names one).  The assignments are
    gathered before anything is built and the scenario is constructed
    once, so their order never matters.  Raises ``ValueError`` naming
    the path on an unknown field, an ill-typed value, a path set twice
    or a path inside one that is set whole.
    """
    assigned: dict[tuple[str, ...], object] = {}
    for setting in settings:
        path, sep, raw = setting.partition("=")
        if not sep or not path:
            raise ValueError(f"{setting!r}: expected PATH=VALUE")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        key = tuple(path.split("."))
        if key in assigned:
            raise ValueError(f"{path} is set twice")
        assigned[key] = value
    for key in assigned:
        for depth in range(1, len(key)):
            if key[:depth] in assigned:
                raise ValueError(
                    f"{'.'.join(key)} lies inside {'.'.join(key[:depth])}, "
                    f"which is set whole"
                )
    return _assign(base, assigned, "")


def _init_fields(cls: type) -> dict[str, object]:
    """A dataclass's constructor fields and their resolved types."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


def _assign(target, assigned: dict[tuple[str, ...], object], prefix: str):
    """``target`` with the paths (relative to it) in ``assigned`` set.

    ``target`` is a dataclass instance to ``replace``, or a dataclass
    to build from ``assigned`` (then every path is one field name).
    """
    cls = target if isinstance(target, type) else type(target)
    types = _init_fields(cls)
    nested: dict[str, dict[tuple[str, ...], object]] = {}
    for key, value in assigned.items():
        nested.setdefault(key[0], {})[key[1:]] = value
    changes = {}
    for name, rest in nested.items():
        path = prefix + name
        if name not in types:
            where = f" in {prefix.rstrip('.')}" if prefix else ""
            raise ValueError(
                f"unknown field {name!r}{where}; valid: {', '.join(types)}"
            )
        if () in rest:
            changes[name] = _coerce(rest[()], types[name], path)
            continue
        current = getattr(target, name)
        if not is_dataclass(current):
            raise ValueError(
                f"{path} is {current!r}, which has no fields; set {path} "
                f"to a JSON object instead"
            )
        changes[name] = _assign(current, rest, path + ".")
    try:
        if isinstance(target, type):
            return target(**changes)
        return replace(target, **changes)
    except (TypeError, ValueError) as exc:
        if not prefix:
            raise
        raise ValueError(f"{prefix.rstrip('.')}: {exc}") from None


def _coerce(value, annotation, path: str):
    """A parsed JSON value as an instance of the field type ``annotation``."""
    origin = get_origin(annotation)
    if origin in (Union, UnionType):
        arms = get_args(annotation)
        if value is None and type(None) in arms:
            return None
        classes = [arm for arm in arms if is_dataclass(arm)]
        if isinstance(value, dict) and classes:
            return _build(value, classes, path)
        for arm in arms:
            try:
                return _coerce(value, arm, path)
            except ValueError:
                pass
    elif is_dataclass(annotation):
        if isinstance(value, dict):
            return _build(value, [annotation], path)
    elif origin is tuple and isinstance(value, list):
        args = get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        if len(args) == len(value):
            return tuple(
                _coerce(item, arg, f"{path}[{i}]")
                for i, (item, arg) in enumerate(zip(value, args))
            )
    elif annotation is float and type(value) in (int, float):
        return float(value)
    elif annotation in (int, str, bool) and type(value) is annotation:
        return value
    expected = (
        annotation.__name__
        if origin is None
        else re.sub(r"\b(?:\w+\.)+(?=\w)", "", str(annotation))
    )
    raise ValueError(f"{path}: expected {expected}, got {json.dumps(value)}")


def _build(value: dict, classes: list[type], path: str):
    """One of ``classes`` built from a JSON object of its fields."""
    kind = value.get("type")
    if kind is None and len(classes) == 1:
        cls = classes[0]
    else:
        named = {cls.__name__: cls for cls in classes}
        if kind not in named:
            raise ValueError(
                f'{path}: "type" must name one of {", ".join(named)}'
            )
        cls = named[kind]
    given = {(name,): item for name, item in value.items() if name != "type"}
    return _assign(cls, given, path + ".")
