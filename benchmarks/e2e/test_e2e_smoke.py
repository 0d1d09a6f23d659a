"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs every workload on shrunken sequences, traced replay included, and
checks what the driver and later issues rely on: the result schema and
metric names match ``BENCHMARK.json``, no operation fails, the
path-intent assertions hold, a mis-named probe is reported instead of
crashing, and nothing is left behind.  Not collected by tier-1
(``testpaths = ["tests"]``).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import trace as trace_mod  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reports():
    return {entry["name"]: run.run_workload(entry["name"], seed=1,
                                            seconds=2.0, trace=True,
                                            smoke=True)
            for entry in SPEC["workloads"]}


def _names_and_units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_metric_names_and_units_match_benchmark_json(reports):
    for report in reports.values():
        for section in ("end_to_end", "per_layer"):
            got = {name: m["unit"] for name, m in report[section].items()}
            assert got == _names_and_units(SPEC[section])
            assert all(isinstance(m["value"], float)
                       for m in report[section].values())


def test_end_to_end_metrics_are_never_zero(reports):
    for report in reports.values():
        assert all(m["value"] > 0 for m in report["end_to_end"].values())


def test_every_reply_is_correct_and_intent_holds(reports):
    for name, report in reports.items():
        assert report["ops_sent"] > 0
        assert report["ops_failed"] == 0, name
        assert report["failures"] == [], name
        assert report["trace"]["missing_probes"] == []
        assert report["trace"]["unattributed_share"] <= 0.10


def test_each_workload_exercises_its_own_layers(reports):
    layer = {name: {k: m["value"] for k, m in report["per_layer"].items()}
             for name, report in reports.items()}
    assert layer["q1_cold"]["queries.engine.rkr_ms"] > 0
    assert layer["q1_cold"]["vectorized.girkernel.batch_ms"] == 0
    assert layer["burst2_cold"]["vectorized.girkernel.batch_ms"] > 0
    assert layer["burst2_cold"]["queries.engine.rkr_ms"] == 0
    assert layer["hot_keys"]["service.cache.hit_rate"] > 0.5
    assert layer["q1_cold"]["service.cache.hit_rate"] == 0
    assert layer["mixed_rw"]["durability.wal.fsyncs"] > 0
    assert layer["mixed_rw"]["storage.kernel.builds_per_pass"] == 1


def test_misnamed_probe_is_reported_not_fatal():
    probes = tuple(
        dataclasses.replace(p, target="ResultCache.fetch")
        if p.span == "cache.get" else p for p in trace_mod.PROBES)
    report = run.run_workload("hot_keys", seed=1, seconds=2.0, trace=True,
                              smoke=True, probes=probes)
    assert report["trace"]["missing_probes"] == [
        "repro.service.cache:ResultCache.fetch"]
    assert "service.cache.get_us" in report["trace"]["null_metrics"]
    assert report["per_layer"]["service.cache.get_us"]["value"] == 0.0
    assert report["ops_failed"] == 0


def test_pair_minima_ignore_which_connection_stalled():
    from loadgen import PassRecord, Reply, Request
    from metrics import BestOfPasses, ServerRun

    pair = (Request("rtk", "/query", {}), Request("rtk", "/query", {}))

    def server_with(latencies):
        record = PassRecord([Reply(s, 200, b"") for s in latencies],
                            [max(latencies)], [0.001])
        return ServerRun(setup_s=1.0, passes=[([pair], record)])

    settled_opposite_ways = [server_with([0.047, 0.004]),
                             server_with([0.004, 0.047])]
    assert BestOfPasses(settled_opposite_ways).best == [0.004, 0.047]


def test_pass_counts_are_fixed_by_the_workload_not_by_the_clock():
    static = types.SimpleNamespace(passes=9, servers=3)
    assert run.deal_passes(static, 1.0) == [3, 3, 3]
    assert run.deal_passes(static, 0.5) == [2, 1, 1]
    assert run.deal_passes(static, 0.1) == [1]
    own_server_each = types.SimpleNamespace(passes=6, servers=6)
    assert run.deal_passes(own_server_each, 1.0) == [1] * 6


def test_compare_flags_both_directions_and_missing_workloads():
    from metrics import compare

    flat = {entry["name"]: {"value": 100.0} for entry in SPEC["end_to_end"]}
    before = {"workloads": {"q1_cold": {"end_to_end": flat}}}
    slower, faster = copy.deepcopy(before), copy.deepcopy(before)
    slower["workloads"]["q1_cold"]["end_to_end"]["rtk_ms"]["value"] = 150.0
    faster["workloads"]["q1_cold"]["end_to_end"]["rtk_ms"]["value"] = 50.0
    assert compare(before, before)[1]
    assert not compare(before, slower)[1]
    assert compare(before, faster)[1]
    # Two runs of the same code must agree, whichever came out ahead.
    assert not compare(before, faster, either_way=True)[1]
    assert not compare(before, {"workloads": {}})[1]
    assert not compare({"workloads": {}}, before)[1]


def test_driver_contract_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "burst2_cold",
         "--seed", "5", "--seconds", "2", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(_names_and_units(SPEC["end_to_end"]))


def test_nothing_is_left_behind(reports):
    assert harness._LIVE == []
    assert not harness.WORK_ROOT.exists()
