"""Which layers each end-to-end workload exercises, after ISSUE 14.

Stands in for ``benchmarks/e2e/test_e2e_smoke.py::
test_each_workload_exercises_its_own_layers`` (see ``conftest.py``): the
same eight checks on the same smoke runs, except that ``q1_cold`` — every
request a batch of one — must now be answered by the kernel sweep and
never by the per-query engine.  Not collected by tier-1; CI job
``e2e-smoke`` runs it.  Fold it into the frozen suite in the next
benchmark-only change.
"""

import json
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent / "e2e"
sys.path.insert(0, str(E2E))

import run  # noqa: E402

SPEC = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def layer():
    reports = {entry["name"]: run.run_workload(entry["name"], seed=1,
                                               seconds=2.0, trace=True,
                                               smoke=True)
               for entry in SPEC["workloads"]}
    for name, report in reports.items():
        assert report["failures"] == [] and report["ops_failed"] == 0, name
    return {name: {k: m["value"] for k, m in report["per_layer"].items()}
            for name, report in reports.items()}


def test_a_lone_request_is_swept_by_the_kernel_not_the_engine(layer):
    assert layer["q1_cold"]["queries.engine.rtk_ms"] == 0
    assert layer["q1_cold"]["queries.engine.rkr_ms"] == 0
    assert layer["q1_cold"]["vectorized.girkernel.batch_ms"] > 0
    assert layer["q1_cold"]["service.scheduler.batch_mean"] == 1
    assert layer["q1_cold"]["service.scheduler.coalesced_share"] == 0
    assert layer["mixed_rw"]["storage.snapshot.query_ms"] == 0


def test_the_other_workloads_exercise_the_layers_they_always_did(layer):
    assert layer["burst2_cold"]["vectorized.girkernel.batch_ms"] > 0
    assert layer["burst2_cold"]["queries.engine.rkr_ms"] == 0
    assert layer["hot_keys"]["service.cache.hit_rate"] > 0.5
    assert layer["q1_cold"]["service.cache.hit_rate"] == 0
    assert layer["mixed_rw"]["durability.wal.fsyncs"] > 0
    assert layer["mixed_rw"]["storage.kernel.builds_per_pass"] == 1
