"""The scenario registry: its contract, and invariants every entry keeps.

:data:`repro.serving.scenario.SCENARIOS` is the one recipe the parity,
twin, flash and rebalance suites, ``bench_serving`` and the CLI build
serving runs from.  The contract: entries are frozen, hashable values,
and every builder call returns new mutable objects, so one run cannot
leak state (grown replicas, moved clusters, flash wear) into the next.

The invariants hold for any serving run, so they are checked on every
entry: each offered request is accounted for exactly once, served
requests move forward in time through batching and service, and no
device is busy for longer than the report's horizon.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import lru_cache

import pytest

from repro.serving.autoscale import AutoscalePolicy
from repro.serving.batcher import BatchPolicy
from repro.serving.rebalance import RebalancePolicy
from repro.serving.request import CACHE_HIT, COALESCED, COMPLETED, SHED
from repro.serving.scenario import SCENARIOS, Scenario

from test_serving_parity import GOLDEN, _digest


# ---- registry contract ---------------------------------------------------

def test_registry_is_read_only_and_holds_every_pinned_cell():
    assert set(GOLDEN) <= set(SCENARIOS)
    with pytest.raises(TypeError):
        SCENARIOS["new"] = Scenario()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_entries_are_frozen_values(name):
    scenario = SCENARIOS[name]
    hash(scenario)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.n_requests = 1
    assert dataclasses.replace(scenario) == scenario


def test_slo_mapping_is_frozen_into_pairs():
    scenario = Scenario(priorities=(0, 1), slo_s={1: 4e-3, 0: 16e-3})
    assert scenario.slo_s == ((1, 4e-3), (0, 16e-3))
    hash(scenario)
    budgets = {r.priority: r.deadline_s - r.arrival_s
               for r in scenario.requests()}
    assert budgets == pytest.approx({1: 4e-3, 0: 16e-3})


def _with_serving(scenario, **changes):
    return dataclasses.replace(
        scenario, serving=dataclasses.replace(scenario.serving, **changes)
    )


_REPLICATED = SCENARIOS["batch-x1-hi"]
_PARTITIONED = SCENARIOS["partitioned-broadcast"]


_INVALID = {
    "slo-without-deadlines": (
        lambda: _with_serving(_REPLICATED, policy=BatchPolicy(mode="slo")),
        "slo_s",
    ),
    "nprobe-on-replicated": (
        lambda: _with_serving(_REPLICATED, nprobe=1), "nprobe"
    ),
    "nprobe-zero": (lambda: _with_serving(_PARTITIONED, nprobe=0), "nprobe"),
    "nprobe-past-clusters": (
        lambda: _with_serving(_PARTITIONED, nprobe=5), "nprobe"
    ),
    "clusters-on-replicated": (
        lambda: dataclasses.replace(_REPLICATED, clusters_per_shard=2),
        "clusters_per_shard",
    ),
    "autoscale-on-partitioned": (
        lambda: _with_serving(_PARTITIONED, autoscale=AutoscalePolicy()),
        "autoscal",
    ),
    "autoscale-below-pool": (
        lambda: _with_serving(
            dataclasses.replace(_REPLICATED, num_shards=3),
            autoscale=AutoscalePolicy(max_replicas=2),
        ),
        "max_replicas",
    ),
    "rebalance-on-replicated": (
        lambda: _with_serving(_REPLICATED, rebalance=RebalancePolicy()),
        "rebalanc",
    ),
}


@pytest.mark.parametrize("case", list(_INVALID))
def test_invalid_recipes_fail_at_construction(case):
    # Rejected before any router is built or request served.
    build, field = _INVALID[case]
    with pytest.raises(ValueError, match=field):
        build()


def test_valid_edges_construct():
    _with_serving(_PARTITIONED, nprobe=4)
    _with_serving(
        dataclasses.replace(_REPLICATED, num_shards=2),
        autoscale=AutoscalePolicy(max_replicas=2),
    )
    dataclasses.replace(_PARTITIONED, clusters_per_shard=2)


def test_builders_return_new_objects():
    scenario = SCENARIOS["autoscale-overload"]
    assert scenario.router() is not scenario.router()
    assert scenario.frontend() is not scenario.frontend()
    first, second = scenario.requests(), scenario.requests()
    assert all(a is not b for a, b in zip(first, second))
    scenario.run()
    assert all(r.completion_s is None for r in scenario.requests())


def test_reruns_of_one_entry_are_identical():
    # Autoscaling grows and shrinks the router it serves on; two runs
    # of one entry must not share that router.
    scenario = SCENARIOS["autoscale-overload"]
    first, second = (_digest(*scenario.run()) for _ in range(2))
    assert first == second == GOLDEN["autoscale-overload"]


# ---- invariants over every entry -----------------------------------------

@lru_cache(maxsize=None)
def _served(name):
    return SCENARIOS[name].run()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_request_is_accounted_once(name):
    report, requests = _served(name)
    assert report.offered == len(requests)
    assert report.offered == (
        report.completed + report.cache_hits + report.coalesced + report.shed
    )
    outcomes = Counter(r.outcome for r in requests)
    assert set(outcomes) <= {COMPLETED, CACHE_HIT, COALESCED, SHED}
    counted = (report.completed, report.cache_hits, report.coalesced,
               report.shed)
    assert tuple(
        outcomes[o] for o in (COMPLETED, CACHE_HIT, COALESCED, SHED)
    ) == counted
    # The per-priority tallies partition the same requests.
    classes = report.priority_stats.values()

    def total(field):
        return sum(stats[field] for stats in classes)

    assert (total("offered"), total("served"), total("shed")) == (
        report.offered, report.served, report.shed
    )
    assert total("with_deadline") == report.deadline_total
    assert total("with_deadline") - total("met") == report.deadline_misses


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_served_requests_move_forward_in_time(name):
    _, requests = _served(name)
    for r in requests:
        if r.outcome == COMPLETED:
            assert r.arrival_s <= r.batched_s <= r.start_s <= r.completion_s
        elif r.outcome != SHED:
            assert r.arrival_s <= r.completion_s


_BUSY_BEYOND_HORIZON = pytest.mark.xfail(
    strict=True,
    reason="known defect, as in test_serving_flash.py::"
           "TestBusyWithinHorizon: booked device work ends after the last "
           "request completes, and the horizon (first arrival to last "
           "completion) does not count it; this cell's hottest shard reads "
           "utilization 1.1893. The fix changes reported output and belongs "
           "in its own change.",
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_BUSY_BEYOND_HORIZON)
        if name == "partitioned-skewed-flash" else name
        for name in SCENARIOS
    ],
)
def test_shard_utilization_at_most_one(name):
    report, _ = _served(name)
    assert max(report.shard_utilization) <= 1.0, report.shard_utilization
