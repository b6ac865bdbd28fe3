"""The serving CLI: a registry recipe plus ``--set`` overrides, one run.

Every run here starts from an 800 x 16 :data:`SCENARIOS` entry, so the
whole file (emit, follow and the twin self-test included) takes a few
seconds.
"""

from __future__ import annotations

import json

import pytest

from repro.serving.__main__ import main
from repro.serving.scenario import SCENARIOS, with_settings


def _report(tmp_path, *argv):
    path = tmp_path / "report.json"
    assert main([*argv, "--report-json", str(path)]) == 0
    return path.read_bytes()


def test_scenario_report_is_the_registry_run(tmp_path, capsys):
    written = json.loads(_report(tmp_path, "--scenario", "batch-x1-hi"))
    report, _ = SCENARIOS["batch-x1-hi"].run()
    assert written == json.loads(json.dumps(report.to_dict()))
    assert "OK: replicated sharding matches" in capsys.readouterr().out


def test_set_order_does_not_matter(tmp_path):
    sets = [
        "--set", "n_requests=200",
        "--set", "serving.policy.max_batch_size=8",
        "--set", "serving.policy.max_wait_s=0.001",
    ]
    forward = _report(tmp_path, "--scenario", "batch-x1-hi", *sets)
    backward = _report(
        tmp_path, "--scenario", "batch-x1-hi", *sets[4:], *sets[2:4], *sets[:2]
    )
    assert forward == backward
    assert json.loads(forward)["offered"] == 200


def test_set_coerces_like_the_constructor():
    base = SCENARIOS["batch-x1-hi"]
    scenario = with_settings(base, [
        "arrivals.rate_qps=2000",
        "priorities=[0, 1]",
        "slo_s=[[1, 0.004], [0, 0.016]]",
        'serving.flash={"read_disturb_threshold": 200}',
        'serving.rebalance=null',
        "mode=replicated",
    ])
    assert repr(scenario.arrivals) == "PoissonArrivals(rate_qps=2000.0)"
    assert scenario.priorities == (0, 1)
    assert scenario.slo_s == ((1, 0.004), (0, 0.016))
    assert scenario.serving.flash.read_disturb_threshold == 200
    mmpp = with_settings(
        base, ['arrivals={"type": "MMPPArrivals", "rate_qps": 500}']
    )
    assert repr(mmpp.arrivals) == repr(
        type(SCENARIOS["pipelined-x1-bursty"].arrivals)(500.0)
    )
    assert with_settings(base, []) == base


@pytest.mark.parametrize(
    "argv, names",
    [
        (["--set", "serving.polcy.mode=slo"],
         ["polcy", "serving", "policy, cache_capacity"]),
        (["--set", "n_requests=many"], ["n_requests", "int"]),
        (["--set", "serving.autoscale.max_replicas=4"], ["serving.autoscale"]),
        (["--set", "serving.policy.mode=slo"], ["slo_s"]),
        (["--set", "serving.nprobe=1"], ["nprobe"]),
        (["--set", "n_requests=1", "--set", "n_requests=2"], ["n_requests"]),
        (["--whatif", "nprobe=1"], ["--follow"]),
    ],
    ids=["unknown-path", "wrong-type", "inside-null", "slo-without-slo_s",
         "nprobe-replicated", "set-twice", "whatif-without-follow"],
)
def test_bad_invocations_exit_2_naming_the_field(argv, names, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "batch-x1-hi", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in names:
        assert name in err


def test_emit_follow_selftest(tmp_path, capsys):
    arrivals = tmp_path / "arrivals.jsonl"
    twin_report = tmp_path / "twin.json"
    recipe = ["--scenario", "partitioned-nprobe1", "--set", "n_requests=200"]
    assert main([*recipe, "--emit-arrivals", str(arrivals)]) == 0
    assert len(arrivals.read_text().splitlines()) == 200
    assert main([
        *recipe, "--follow", str(arrivals), "--window-ms", "20",
        "--whatif", "nprobe=2", "--twin-selftest",
        "--twin-report", str(twin_report),
    ]) == 0
    assert "OK: twin self-test passed" in capsys.readouterr().out
    payload = json.loads(twin_report.read_text())
    assert [w["spec"] for w in payload["whatifs"]] == ["nprobe=2"]
    assert payload["base"]["offered"] == 200

    # A stream whose query ids exceed the recipe's pool is refused,
    # naming the Scenario field rather than a retired flag.
    with pytest.raises(SystemExit) as exc:
        main([*recipe, "--set", "pool_size=8", "--follow", str(arrivals)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "pool_size" in err and "--pool" not in err
