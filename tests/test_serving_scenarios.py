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
