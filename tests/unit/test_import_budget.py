"""A server loads what it serves: the import budget, as counts.

Both checks run in a fresh interpreter (this one has imported the whole
library for other tests).  The deny-list is what a static ``serve`` never
calls; the module ceiling bounds what ``import repro.cli,
repro.service.server`` holds.

The child starts with ``-S``: no ``site`` module and no ``.pth`` code.
A site-packages ``.pth`` file runs before the child's first line and may
import anything -- a CA-injection hook, for one, loads ``certifi``,
``tempfile``, ``zipfile`` and eleven ``importlib`` modules (14 in all)
-- and none of that is the program's.  ``PYTHONPATH`` is ``src`` and
then this process's own path, so numpy and scipy resolve as they do here.

The ceiling is 297: the program held 290 modules when the package
facades became export tables (366 while every ``__init__`` imported its
submodules), counted with ``site``, ``_sitebuiltins`` and
``_distutils_hack`` loaded; ``-S`` drops those three, so the same program
reads 287, and the ceiling keeps the same 10-module margin.  Readings
under ``-S``: 287 at ready and 294 after serving an RTK and an RKR; 362
at ready on the eager facades.  Most of either count is numpy's and the
interpreter's own, so a new toolchain may still move the ceiling;
nothing moves the deny-list.
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

MODULE_CEILING = 297

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
    path = os.pathsep.join([src] + [entry for entry in sys.path if entry])
    child = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(root / "idx")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
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
