"""A server loads what it serves: the import budget, as counts.

Both checks run in a fresh interpreter (this one has imported the whole
library for other tests).  The deny-list is what a static ``serve`` never
calls; the module ceiling is what ``import repro.cli,
repro.service.server`` held when the package facades became export
tables (290; 366 while every ``__init__`` imported its submodules —
258 of either are numpy's and the interpreter's own, so a new
toolchain may move the ceiling; it never moves the deny-list).
"""

import json
import os
import subprocess
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

import repro
from repro.cli import main

MODULE_CEILING = 300

NEVER_LOADED = (
    "repro.index*", "repro.ext*", "repro.cluster*", "repro.bench*",
    "repro.analysis*",
    "repro.algorithms.bbr", "repro.algorithms.mpa", "repro.algorithms.rta",
    "repro.algorithms.sim",
    "repro.queries.planner", "repro.queries.monochromatic",
    "repro.queries.ta",
    "repro.data.real", "repro.data.synthetic",
    "repro.service.client",
    "repro.vectorized.shard", "repro.vectorized.batch",
    "multiprocessing", "urllib.request",
)

CHILD = """
import json, sys
import repro.cli, repro.service.server
ready = sorted(sys.modules)
service = repro.service.server.QueryService.from_index_dir(sys.argv[1])
try:
    answers = [service.query(product=3, kind=kind, k=5)
               for kind in ("rtk", "rkr")]
finally:
    service.close()
print(json.dumps({"ready": ready, "served": sorted(sys.modules),
                  "answers": answers}))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """``sys.modules`` of a fresh process: at ready, and after serving."""
    root = tmp_path_factory.mktemp("budget")
    assert main(["generate", "--dist", "UN", "--size", "120", "--dim", "4",
                 "--seed", "3", "--out", str(root / "data")]) == 0
    assert main(["build", str(root / "data"),
                 "--index", str(root / "idx")]) == 0
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "idx")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert [a["kind"] for a in report["answers"]] == ["rtk", "rkr"]
    assert len(report["answers"][1]["entries"]) == 5
    return report


def _denied(modules):
    return [name for name in modules
            if any(fnmatchcase(name, pattern) for pattern in NEVER_LOADED)]


def test_module_count_at_ready(loaded):
    assert len(loaded["ready"]) <= MODULE_CEILING


@pytest.mark.parametrize("moment", ["ready", "served"])
def test_a_server_never_loads_what_it_never_calls(loaded, moment):
    assert _denied(loaded[moment]) == []
