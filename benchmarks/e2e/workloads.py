"""The five benchmark workloads.

Each workload has three steps, and the child process times only the
middle one's callable:

* ``setup(seed)`` builds the inputs and the deployment (corpus, query
  pool, indexes, request stream) — timed as ``setup_s``;
* ``prepare()`` returns one repetition's callable over a deployment
  whose per-run caches start empty (search memo, trace compilation,
  experiment memo), the state a fresh process starts serving in;
  the indexes built in set-up are reused;
* ``evaluate(result)`` runs the correctness gates and derives the
  simulated metrics, the per-layer counts read from the report, and a
  sha256 digest of everything the repetition produced.

Seeds: an instance seeded ``s`` uses corpus ``s``, query split ``s+1``,
stream ``s+2`` and router (k-means) ``s+4``; ``s=31`` is the repo's
established 31/32/33/35 recipe.  ``paper-fig13``'s datasets are fixed
by :mod:`repro.data`; its seed picks which pooled queries are priced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import platform
from repro.ann import BruteForceIndex, recall_at_k
from repro.core.config import NDSearchConfig
from repro.data.synthetic import clustered_gaussian, split_queries
from repro.experiments import common as experiments
from repro.serving import (
    BatchPolicy,
    FlashConfig,
    PoissonArrivals,
    QueryStream,
    RebalancePolicy,
    ServingConfig,
    ServingFrontend,
    ServingTwin,
    build_router,
)
from repro.serving.request import CACHE_HIT, COALESCED, COMPLETED, SHED
from repro.serving.sharding import PARTITIONED, REPLICATED
from repro.workloads import TraceSet

K = 10

#: The checkout root: ``paper-fig13``'s fresh experiment cache is a
#: ``.e2e_tmp-*`` directory here, because the benchmark writes nothing
#: outside its checkout.  The child removes it when it exits.
ROOT = Path(__file__).resolve().parents[2]


class CheckFailed(Exception):
    """A correctness gate failed; the workload counts as failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one repetition produced, reduced for the benchmark.

    ``sim`` holds sums that pool across instances: ``served``,
    ``offered`` and ``ok`` (answered within its deadline, if any)
    requests, simulated ``horizon_s`` and ``energy_j``, and
    ``recall_sum`` over ``queries`` distinct queries.
    """

    work: int
    """Requests (or priced queries) the repetition simulated."""
    sim: dict[str, float]
    latencies_ms: list[float]
    """Simulated latency of every answered request."""
    counts: dict[str, float]
    """Per-layer counts read from the repetition's report."""
    digest: str
    """sha256 over the repetition's full report(s)."""


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def cold_factory(build):
    """A router factory over one freshly built set of platform models.

    ``build_router`` memoizes the built indexes *and* the backends, so a
    second run in the same process would find the backends' search memo
    and trace compilations warm.  Every router this factory returns
    shares one new set of backends (fresh memo, fresh platform model)
    over the cached indexes — what a new process pays after set-up.
    """
    pairs = []

    def factory():
        router = build()
        backends = []
        for cached in router.backends:
            fresh = next((new for old, new in pairs if old is cached), None)
            if fresh is None:
                model = platform.get(
                    cached.name, cached.model.system.config, index=cached.index
                )
                fresh = dataclasses.replace(cached, model=model)
                pairs.append((cached, fresh))
            backends.append(fresh)
        return dataclasses.replace(router, backends=backends)

    return factory


@dataclass(frozen=True)
class Deployment:
    """One serving recipe: corpus, pool, router and stream shape."""

    corpus: int
    dim: int
    pool: int
    shards: int
    rate: float
    requests: int
    config: ServingConfig
    mode: str = REPLICATED
    clusters_per_shard: int = 1
    zipf: float = 0.0
    slo_s: float | None = None


class ServingWorkload:
    """Open-loop Poisson traffic through one :class:`ServingFrontend`."""

    def __init__(self, name: str, deployment: Deployment,
                 recall_floor: float) -> None:
        self.name = name
        self.deployment = deployment
        self.recall_floor = recall_floor
        self._truth: dict[int, np.ndarray] | None = None

    def setup(self, seed: int) -> None:
        d = self.deployment
        self.vectors = clustered_gaussian(d.corpus, d.dim, seed=seed)
        self.pool = split_queries(self.vectors, d.pool, seed=seed + 1)
        config = NDSearchConfig.scaled()

        def build():
            return build_router(
                self.vectors, num_shards=d.shards, config=config,
                mode=d.mode, seed=seed + 4,
                clusters_per_shard=d.clusters_per_shard,
            )

        self.build = build
        build()
        self.stream = QueryStream(
            PoissonArrivals(d.rate), pool_size=d.pool, n_requests=d.requests,
            k=K, zipf_exponent=d.zipf, seed=seed + 2, slo_s=d.slo_s,
        )

    def close(self) -> None:
        pass

    def prepare(self):
        router = cold_factory(self.build)()
        requests = self.stream.generate()
        config = self.deployment.config
        pool = self.pool

        def run():
            return ServingFrontend(router, config).run(requests, pool), requests

        return run

    def evaluate(self, result) -> Outcome:
        report, requests = result
        check_served(report, requests)
        return Outcome(
            work=len(requests),
            sim=self.serving_sim(report, requests),
            latencies_ms=[r.latency_s * 1e3 for r in requests if r.outcome != SHED],
            counts=serving_counts(report),
            digest=_digest(report.to_dict()),
        )

    def serving_sim(self, report, requests) -> dict[str, float]:
        """Poolable sums of one serving report; checks the answers.

        Every answer to one query must be identical, and recall@K over
        the distinct queries asked must clear the workload's floor.
        """
        answers: dict[int, np.ndarray] = {}
        for r in requests:
            if r.outcome != SHED:
                first = answers.setdefault(r.query_id, r.result_ids[:K])
                check(
                    np.array_equal(first, r.result_ids[:K]),
                    f"query {r.query_id} got two different answers",
                )
        qids = sorted(answers)
        if self._truth is None:
            exact, _ = BruteForceIndex(self.vectors).search_batch(
                self.pool[qids], K
            )
            self._truth = dict(zip(qids, exact))
        recall = recall_at_k(
            np.stack([answers[q] for q in qids]),
            np.stack([self._truth[q] for q in qids]),
            K,
        )
        check(
            recall >= self.recall_floor,
            f"recall@{K} {recall:.4f} below the floor {self.recall_floor}",
        )
        late = sum(1 for r in requests if r.outcome != SHED and r.slo_met is False)
        return {
            "served": report.served,
            "offered": report.offered,
            "ok": report.served - late,
            "horizon_s": report.horizon_s,
            "energy_j": report.energy_j,
            "recall_sum": recall * len(qids),
            "queries": len(qids),
        }


def check_served(report, requests) -> None:
    """Conservation: every offered request reaches exactly one terminal
    outcome, and the report's counts match the requests'."""
    outcomes = {COMPLETED: 0, CACHE_HIT: 0, COALESCED: 0, SHED: 0}
    for r in requests:
        check(r.outcome in outcomes, f"request {r.request_id} never finished")
        outcomes[r.outcome] += 1
    check(
        report.offered == len(requests)
        == report.completed + report.cache_hits + report.coalesced + report.shed,
        f"conservation broken: offered {report.offered}, stream "
        f"{len(requests)}, completed {report.completed} + cache "
        f"{report.cache_hits} + coalesced {report.coalesced} + shed "
        f"{report.shed}",
    )
    check(
        (outcomes[COMPLETED], outcomes[CACHE_HIT], outcomes[COALESCED],
         outcomes[SHED])
        == (report.completed, report.cache_hits, report.coalesced, report.shed),
        f"request outcomes {outcomes} disagree with the report",
    )


def serving_counts(report) -> dict[str, float]:
    """Per-layer counts that the serving report already carries."""
    flash = report.flash or {}
    utilization = report.shard_utilization
    return {
        "batcher.mean_batch_size": report.mean_batch_size,
        "batcher.timeout_close_frac": report.timeout_close_fraction,
        "batcher.mean_queue_depth": report.mean_queue_depth,
        "sharding.probes_per_query": report.mean_probes_per_query,
        "device.max_utilization": max(utilization),
        "device.mean_utilization": sum(utilization) / len(utilization),
        "storage.refreshes": flash.get("refreshes", 0),
        "storage.erases": flash.get("total_erases", 0),
        "storage.write_amplification": flash.get("write_amplification", 0.0),
        "storage.ecc_soft_decodes": flash.get("ecc_soft_decodes", 0),
        "rebalance.migrations": len(report.rebalance_events),
        "rebalance.mb_moved": sum(
            e["bytes"] for e in report.rebalance_events
        ) / 1e6,
    }


#: The twin's what-if battery: each delta is replayed over the last
#: window and over the last four, and each question is asked twice (the
#: repeat must be a cache hit with the identical answer).
WHATIFS = tuple(
    dict(delta, last_windows=last)
    for delta in (
        {},
        {"nprobe": 2},
        {"rebalance": RebalancePolicy(
            interval_s=2e-3, skew_threshold=0.25, migration_gbps=1.0)},
    )
    for last in (1, 4)
)


class TwinWorkload(ServingWorkload):
    """Ingest a stream through :class:`ServingTwin`, then ask what-ifs."""

    def __init__(self, name: str, deployment: Deployment,
                 recall_floor: float, window_s: float) -> None:
        super().__init__(name, deployment, recall_floor)
        self.window_s = window_s

    def prepare(self):
        factory = cold_factory(self.build)
        factory()
        requests = self.stream.generate()
        config = self.deployment.config
        pool = self.pool
        window_s = self.window_s

        def run():
            twin = ServingTwin(
                factory, config, pool, window_s=window_s, calibrate_k=K
            )
            fed, window = 0, 1
            while window * window_s <= requests[-1].arrival_s:
                boundary = window * window_s
                cut = fed
                while requests[cut].arrival_s <= boundary:
                    cut += 1
                twin.feed(requests[fed:cut])
                twin.advance(boundary)
                fed, window = cut, window + 1
            twin.feed(requests[fed:])
            base = twin.finish()
            answers = [
                (twin.whatif(**question), twin.whatif(**question))
                for question in WHATIFS
            ]
            return twin, base, answers, requests

        return run

    def evaluate(self, result) -> Outcome:
        twin, base, answers, requests = result
        null = dataclasses.replace(base, twin=None).to_dict()
        check(
            answers[0][0].to_dict() == null,
            "the null one-window what-if differs from the base report",
        )
        for first, repeat in answers:
            check(
                repeat.to_dict() == first.to_dict(),
                "a repeated what-if changed its answer",
            )
        stats = twin.stats()
        check(
            stats["cache_hits"] == len(WHATIFS)
            and stats["cache_misses"] == len(WHATIFS),
            f"repeated what-ifs must hit the cache: {stats}",
        )
        outcome = super().evaluate((base, requests))
        outcome.counts["twin.cache_hits"] = stats["cache_hits"]
        outcome.counts["twin.cache_misses"] = stats["cache_misses"]
        outcome.digest = _digest(
            [base.to_dict()] + [first.to_dict() for first, _ in answers]
        )
        return outcome


class PaperWorkload:
    """Fig. 13's cells priced through the experiments' own path.

    Set-up builds each dataset's workload with ``get_workload`` into a
    fresh experiment cache.  A repetition prices a seed-chosen batch of
    each dataset's pooled queries on every platform with
    ``run_platform``, over new ``Workload`` objects so the experiments'
    in-process memo and NDSearch systems start empty.  Every query of a
    batch completes at the batch's makespan, so the latency percentiles
    rest on one distinct value per dataset and instance.
    """

    name = "paper-fig13"

    def __init__(self, datasets: tuple[str, ...], scale: float,
                 pool: int, batch: int) -> None:
        self.datasets = datasets
        self.scale = scale
        self.pool = pool
        self.batch = batch
        self._cache: str | None = None

    def setup(self, seed: int) -> None:
        self._cache = tempfile.mkdtemp(prefix=".e2e_tmp-", dir=ROOT)
        os.environ["REPRO_CACHE_DIR"] = self._cache
        rng = np.random.default_rng(seed)
        self.cells = []
        for name in self.datasets:
            workload = experiments.get_workload(
                name, "hnsw", scale=self.scale, pool=self.pool
            )
            rows = rng.choice(self.pool, size=self.batch, replace=False)
            self.cells.append((workload, rows))

    def close(self) -> None:
        if self._cache is not None:
            shutil.rmtree(self._cache, ignore_errors=True)

    def prepare(self):
        shells = []
        for workload, rows in self.cells:
            traces = workload.trace_set
            shells.append(
                experiments.Workload(
                    dataset=workload.dataset,
                    algorithm=workload.algorithm,
                    graph=workload.graph,
                    trace_set=TraceSet(
                        traces=[traces.traces[i] for i in rows],
                        result_ids=traces.result_ids[rows],
                        result_dists=traces.result_dists[rows],
                    ),
                    ground_truth=workload.ground_truth[rows],
                    recall=workload.recall,
                    hot_vertices=workload.hot_vertices,
                )
            )
        batch = self.batch

        def run():
            return [
                (shell, {
                    name: experiments.run_platform(name, shell, batch=batch)
                    for name in experiments.PLATFORMS
                })
                for shell in shells
            ]

        return run

    def evaluate(self, cells) -> Outcome:
        sim = dict.fromkeys(
            ("served", "offered", "ok", "horizon_s", "energy_j", "recall_sum",
             "queries"), 0.0,
        )
        latencies, speedups, payload = [], [], []
        for shell, results in cells:
            name = shell.dataset.name
            best = max(results, key=lambda p: results[p].qps)
            check(best == "ndsearch", f"{name}: {best} beats NDSearch on QPS")
            recall = recall_at_k(shell.trace_set.result_ids, shell.ground_truth, K)
            check(
                recall >= shell.dataset.recall_target,
                f"{name}: recall@{K} {recall:.4f} below the target "
                f"{shell.dataset.recall_target}",
            )
            nd = results["ndsearch"]
            for key in ("served", "offered", "ok", "queries"):
                sim[key] += self.batch
            sim["horizon_s"] += nd.sim_time_s
            sim["energy_j"] += nd.energy_j
            sim["recall_sum"] += recall * self.batch
            # Every query of a batch completes at the batch's makespan.
            latencies += [nd.sim_time_s * 1e3] * self.batch
            speedups.append(nd.speedup_over(results["cpu"]))
            payload.append([
                name,
                {p: [r.qps, r.sim_time_s, r.energy_j, dict(r.counters)]
                 for p, r in results.items()},
            ])
        return Outcome(
            work=len(cells) * len(experiments.PLATFORMS) * self.batch,
            sim=sim,
            latencies_ms=latencies,
            counts={
                "experiments.speedup_vs_cpu": statistics.geometric_mean(speedups)
            },
            digest=_digest(payload),
        )


_SKEW = dict(
    corpus=800, dim=16, pool=128, shards=4, rate=6000.0, mode=PARTITIONED,
    clusters_per_shard=2, zipf=1.2, slo_s=4e-3,
)

WORKLOADS = {
    w.name: w
    for w in (
        ServingWorkload(
            "hot-repeat-greedy",
            Deployment(
                corpus=800, dim=16, pool=128, shards=1, rate=600.0,
                requests=1200, slo_s=4e-3,
                config=ServingConfig(
                    policy=BatchPolicy(mode="greedy"),
                    cache_capacity=0, coalesce=False,
                ),
            ),
            recall_floor=0.99,
        ),
        ServingWorkload(
            "cold-unique-batch",
            Deployment(
                corpus=2000, dim=32, pool=16384, shards=4, rate=20000.0,
                requests=350,
                config=ServingConfig(
                    policy=BatchPolicy(),
                    cache_capacity=0, coalesce=False,
                ),
            ),
            recall_floor=0.99,
        ),
        ServingWorkload(
            "skew-flash-rebalance",
            Deployment(
                requests=2400,
                config=ServingConfig(
                    policy=BatchPolicy(max_batch_size=16),
                    cache_capacity=0, coalesce=False, nprobe=1,
                    rebalance=RebalancePolicy(
                        interval_s=2e-3, skew_threshold=0.25,
                        migration_gbps=1.0,
                    ),
                    flash=FlashConfig(
                        read_disturb_threshold=1000,
                        ecc_hard_failure_prob=0.05,
                    ),
                ),
                **_SKEW,
            ),
            recall_floor=0.60,
        ),
        TwinWorkload(
            "twin-whatif",
            Deployment(
                requests=900,
                config=ServingConfig(
                    policy=BatchPolicy(max_batch_size=16),
                    cache_capacity=0, coalesce=False, nprobe=1,
                ),
                **_SKEW,
            ),
            recall_floor=0.60,
            window_s=10e-3,
        ),
        PaperWorkload(
            datasets=("sift-1b", "glove-100"),
            scale=0.1,
            pool=256,
            batch=64,
        ),
    )
}
