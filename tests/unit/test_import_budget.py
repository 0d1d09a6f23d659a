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
at ready on the eager facades.  Since a static server maps the kernel
arrays its index carries instead of loading the Grid-index, the reading
at ready is still 287 (neither path is imported before the first
``from_index_dir``) and after serving 292: the five Grid-index modules
(``repro.core.gir``, ``.gin``, ``.grid``, ``.approx``, ``.storage``) and
``repro.core.bitstring`` are gone, ``mmap``, ``repro.storage``,
``repro.storage.manifest`` and ``repro.vectorized.kernelstore`` came
in — so the ceiling stays 287 + 10.  Most of either
count is numpy's and the interpreter's own, so a new toolchain may still
move the ceiling; nothing moves the deny-list.

The ceiling is now tighter, 263: since the service speaks HTTP through
its own ``socketserver`` layer (``repro.service.httpd``) instead of
``http.server``, the reading at ready fell 287 -> 253 and after serving
292 -> 259 (``http.client``, ``email``, ``ssl``, ``html``, ``mimetypes``
and what they import), and the ceiling keeps the same 10-module margin
over the reading at ready.  Those client-side modules join the
deny-list, and a second child checks it after actually serving over
HTTP -- a static and a durable server, each answering a ``/query``, a
malformed request line and a 414 -- because a request layer is exactly
where a lazy ``import`` would hide until the first refusal.

The ceiling is 262: a node no longer keeps a circuit breaker of its own
(the scheduler's counted reference scan is its one degraded route), so
``repro.resilience.breaker`` left both servers and joined the deny-list;
the reading at ready fell 253 -> 252, and the margin stays 10.
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

MODULE_CEILING = 262

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
    # The Grid-index: a static server maps the kernel arrays its index
    # carries, and a durable one commits through repro.storage.manifest.
    "repro.core.gir", "repro.core.gin", "repro.core.grid",
    "repro.core.approx", "repro.core.storage",
    "multiprocessing", "urllib.request",
    # A node's one degraded route is the scheduler's reference scan; the
    # circuit breaker is the cluster coordinator's, per shard.
    "repro.resilience.breaker",
    # The client side of HTTP: a server replies, it never requests.
    "http.server", "http.client", "email*", "ssl", "_ssl", "html*",
    "mimetypes",
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


HTTP_CHILD = r"""
import json, socket, sys
import repro.cli, repro.service.server as server
from repro.durability import DurableDynamicRRQ


def exchange(srv, wire):
    reply = b""
    with socket.create_connection(srv.server_address[:2], timeout=10) as s:
        s.sendall(wire)
        s.shutdown(socket.SHUT_WR)
        try:
            while chunk := s.recv(1 << 16):
                reply += chunk
        except ConnectionResetError:  # after a refusal, with bytes unread
            pass
    return int(reply.split(b" ", 2)[1])


def post(path, payload):
    body = json.dumps(payload).encode()
    return b"POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
        path, len(body), body)


QUERY = post(b"/query", {"product": 0, "kind": "rkr", "k": 5})
REFUSED = [b"NOT HTTP AT ALL\r\n\r\n",
           b"GET /" + b"x" * 70000 + b" HTTP/1.1\r\n\r\n"]
statuses = []
static = server.QueryService.from_index_dir(sys.argv[1])
with server.serve_in_background(static) as srv:
    statuses += [exchange(srv, wire) for wire in [QUERY] + REFUSED]
engine = DurableDynamicRRQ(sys.argv[2], dim=4, fsync="never")
with server.serve_in_background(server.DurableQueryService(engine)) as srv:
    for kind in ("product", "weight"):
        statuses.append(exchange(srv, post(b"/insert", {
            "type": kind, "vector": [0.1, 0.2, 0.3, 0.4]})))
    statuses += [exchange(srv, wire) for wire in [QUERY] + REFUSED]
print(json.dumps({"served": sorted(sys.modules), "statuses": statuses}))
"""


def _child(code, *args):
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [entry for entry in sys.path if entry])
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("budget")
    assert main(["generate", "--dist", "UN", "--size", "120", "--dim", "4",
                 "--seed", "3", "--out", str(root / "data")]) == 0
    assert main(["build", str(root / "data"),
                 "--index", str(root / "idx")]) == 0
    return root / "idx"


@pytest.fixture(scope="module")
def loaded(index_dir):
    """``sys.modules`` of a fresh process: at ready, and after serving."""
    report = _child(CHILD, index_dir)
    assert [a["kind"] for a in report["answers"]] == ["rtk", "rkr"]
    assert len(report["answers"][1]["entries"]) == 5
    return report


@pytest.fixture(scope="module")
def served_over_http(index_dir, tmp_path_factory):
    """``sys.modules`` of a fresh process after a static and a durable
    server each answered, and refused, requests on a real socket."""
    report = _child(HTTP_CHILD, index_dir,
                    tmp_path_factory.mktemp("budget") / "wal")
    assert report["statuses"] == [200, 400, 414, 200, 200, 200, 400, 414]
    return report


def _denied(modules):
    return [name for name in modules
            if any(fnmatchcase(name, pattern) for pattern in NEVER_LOADED)]


def test_module_count_at_ready(loaded):
    assert len(loaded["ready"]) <= MODULE_CEILING


@pytest.mark.parametrize("moment", ["ready", "served"])
def test_a_server_never_loads_what_it_never_calls(loaded, moment):
    assert _denied(loaded[moment]) == []


def test_serving_over_http_loads_no_client_side_http(served_over_http):
    assert _denied(served_over_http["served"]) == []
