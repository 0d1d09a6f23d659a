"""The service's own HTTP layer (``repro.service.httpd``), byte by byte.

Raw sockets only: a client library would hide exactly what these tests
pin -- the head's bytes and order, who closes the connection, and what
comes back for a request no client library would send.  Every test runs
against the single-node server and the cluster's front door, which
inherits the same layer.

A reply is two writes, the head then the body, with Nagle on: the 43 ms
stall on a keep-alive connection (ROADMAP item 1b) is still the layer's
to remove, and ``test_a_reply_is_a_head_write_then_a_body_write`` says
so in a count.
"""

import contextlib
import json
import re
import socket
import struct
import sys
import threading
import time
from email.utils import formatdate, parsedate_to_datetime
from platform import python_version

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.synthetic import uniform_products, uniform_weights
from repro.service import QueryService, ServiceConfig, serve_in_background
from repro.service.httpd import MAX_BODY, MAX_HEADERS, MAX_LINE, http_date
from repro.service.server import ReverseRankHTTPServer

#: Every status the layer answers for itself.
REFUSALS = {400, 413, 414, 431, 501, 505}


def _until(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    return condition()


@pytest.fixture(scope="module")
def data():
    return uniform_products(120, 4, seed=2701), uniform_weights(90, 4,
                                                                seed=2702)


def _counting(server_cls, service):
    """``server_cls`` whose handlers tally their exits in ``server.gone``
    and whose unhandled exceptions land in ``server.tracebacks``."""

    class Handler(server_cls.handler_class):
        def finish(self):
            super().finish()
            with self.server.gone_lock:
                self.server.gone += 1

    class Server(server_cls):
        handler_class = Handler

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.gone, self.gone_lock, self.tracebacks = 0, \
                threading.Lock(), []

        def handle_error(self, request, client_address):
            self.tracebacks.append(sys.exc_info()[1])
            super().handle_error(request, client_address)

    return Server(("127.0.0.1", 0), service)


@contextlib.contextmanager
def _serving(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


@contextlib.contextmanager
def _node(data):
    service = QueryService.from_datasets(
        *data, method="gir", config=ServiceConfig(batch_window_s=0.002))
    try:
        with _serving(_counting(ReverseRankHTTPServer, service)) as server:
            yield server
    finally:
        service.close()


@contextlib.contextmanager
def _cluster(data):
    """One in-process worker behind a coordinator's front door."""
    from repro.cluster import ClusterCoordinator, ClusterTopology
    from repro.cluster.router_server import ClusterHTTPServer, ClusterService

    products, weights = data
    worker = QueryService.from_datasets(products, weights, method="naive")
    with serve_in_background(worker) as shard:
        topology = ClusterTopology.build([[shard.url]], weights.size,
                                         "range")
        service = ClusterService(ClusterCoordinator(
            topology, products=products, weights=weights,
            shard_timeout_s=10.0))
        try:
            with _serving(_counting(ClusterHTTPServer, service)) as server:
                yield server
        finally:
            service.close()


@pytest.fixture(params=["node", "cluster"])
def server(request, data):
    with {"node": _node, "cluster": _cluster}[request.param](data) as srv:
        srv.flavour = request.param
        yield srv
        assert srv.tracebacks == []


def _connect(server, timeout=3.0):
    return socket.create_connection(server.server_address[:2],
                                    timeout=timeout)


def _read_reply(sock, buf):
    """One reply off ``sock``: ``(status_line, [(name, value)], body)``,
    or ``None`` once the server has closed; ``buf`` carries what was
    read past it."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(1 << 16)
        if not chunk:
            assert not buf, f"closed mid-head: {bytes(buf)!r}"
            return None
        buf += chunk
    head, _, rest = bytes(buf).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = [tuple(line.split(": ", 1)) for line in lines[1:]]
    length = int(dict(headers).get("Content-Length", 0))
    while len(rest) < length:
        chunk = sock.recv(1 << 16)
        assert chunk, "closed mid-body"
        rest += chunk
    buf[:] = rest[length:]
    return lines[0], headers, rest[:length]


def _closed(sock):
    """The server has hung up (EOF, or a reset after a refusal)."""
    try:
        return sock.recv(1 << 16) == b""
    except ConnectionResetError:
        return True


def _post_wire(path, body, *extra):
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            + "".join(f"{h}\r\n" for h in extra)
            + f"Content-Length: {len(body)}\r\n\r\n").encode() + body


QUERY = json.dumps({"product": 7, "kind": "rkr", "k": 4}).encode()


class TestReplyHead:
    def test_200_head_matches_the_stdlib_bytes(self, server):
        """Byte-identical to what ``http.server`` wrote, apart from the
        ``Date`` value: same status line, same header order."""
        with _connect(server) as sock:
            sock.sendall(_post_wire("/query", QUERY, "X-Trace-Id: wire-1"))
            buf = bytearray()
            status, headers, body = _read_reply(sock, buf)
        name = ("repro-rrq-cluster" if server.flavour == "cluster"
                else "repro-rrq")
        date = dict(headers)["Date"]
        assert [status] + [f"{k}: {v}" for k, v in headers] == [
            "HTTP/1.1 200 OK",
            f"Server: {name} Python/{python_version()}",
            f"Date: {date}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "X-Trace-Id: wire-1",
        ]
        assert abs(time.time()
                   - parsedate_to_datetime(date).timestamp()) < 5
        assert json.loads(body)["kind"] == "rkr"

    def test_date_is_the_stdlib_format(self):
        for stamp in (0, 951782400, 1_700_000_000.7, time.time()):
            assert http_date(stamp) == formatdate(stamp, usegmt=True)

    def test_a_reply_is_a_head_write_then_a_body_write(self, data):
        """Two writes per reply until the transport stall is removed."""
        writes = []

        class Handler(ReverseRankHTTPServer.handler_class):
            def setup(self):
                super().setup()
                write = self.wfile.write
                self.wfile.write = lambda b: (writes.append(bytes(b)),
                                              write(b))[1]

        class Server(ReverseRankHTTPServer):
            handler_class = Handler

        service = QueryService.from_datasets(*data, method="gir")
        try:
            with _serving(Server(("127.0.0.1", 0), service)) as srv, \
                    _connect(srv) as sock:
                sock.sendall(_post_wire("/query", QUERY)
                             + b"GET /healthz HTTP/1.1\r\n\r\n")
                buf = bytearray()
                replies = [_read_reply(sock, buf) for _ in range(2)]
        finally:
            service.close()
        assert len(writes) == 4
        for (head, body), (_, _, got) in zip(zip(writes[::2], writes[1::2]),
                                             replies):
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert head.endswith(b"\r\n\r\n") and body == got


_LONG = b"x" * (MAX_LINE + 10)
_MANY = b"".join(b"H%d: v\r\n" % i for i in range(MAX_HEADERS + 1))

REFUSAL_TABLE = [
    (b"NOT HTTP AT ALL\r\n\r\n", 400),
    (b"GET\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
    (b"GET /healthz FTP/1.1\r\n\r\n", 400),
    (b"GET /healthz HTTP/\xb2.1\r\n\r\n", 400),
    (b"POST /query\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nA: b\r\n  folded\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nName : v\r\n\r\n", 400),
    (b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    (b"POST /query HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n", 400),
    (b"POST /query HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
    (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY + 1),
     413),
    (b"GET /" + _LONG + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET /healthz HTTP/1.1\r\nX-Long: " + _LONG + b"\r\n\r\n", 431),
    (b"GET /healthz HTTP/1.1\r\n" + _MANY + b"\r\n", 431),
    (b"BREW /pot HTTP/1.1\r\n\r\n", 501),
    (b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
     501),
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    (b"GET /healthz HTTP/3.0\r\n\r\n", 505),
    (b"GET /healthz HTTP/0.9\r\n\r\n", 505),
]


class TestRefusals:
    @pytest.mark.parametrize("wire, code", REFUSAL_TABLE,
                             ids=[f"{c}-{i}" for i, (_, c)
                                  in enumerate(REFUSAL_TABLE)])
    def test_refusal_is_json_and_closes(self, server, wire, code):
        requests = server.service.metrics_snapshot()["requests"]
        with _connect(server) as sock:
            sock.sendall(wire)
            status, headers, body = _read_reply(sock, bytearray())
            assert _closed(sock)
        assert re.fullmatch(rf"HTTP/1\.1 {code} [A-Za-z -]+", status)
        assert [k for k, _ in headers] == [
            "Server", "Date", "Connection", "Content-Type", "Content-Length"]
        assert dict(headers)["Connection"] == "close"
        assert dict(headers)["Content-Type"] == "application/json"
        reply = json.loads(body)
        assert sorted(reply) == ["error", "message", "status"]
        assert reply["status"] == code
        assert reply["error"].isalpha() and reply["message"]
        # Refused by the layer before any body read (none was sent: a
        # read would have blocked), nothing counted, the handler gone.
        assert server.service.metrics_snapshot()["requests"] == requests
        assert _until(lambda: server.gone == 1)
        assert server.idle_connections() == 0


class TestConnections:
    def test_keep_alive_answers_in_order_on_one_socket(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n"
                         + _post_wire("/query", QUERY)
                         + b"GET /nowhere HTTP/1.1\r\n\r\n")
            buf = bytearray()
            statuses = [_read_reply(sock, buf)[0] for _ in range(3)]
            assert statuses == ["HTTP/1.1 200 OK", "HTTP/1.1 200 OK",
                                "HTTP/1.1 404 Not Found"]
            assert server.gone == 0  # still open
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_reply(sock, buf)[0] == "HTTP/1.1 200 OK"
        assert _until(lambda: server.gone == 1)

    @pytest.mark.parametrize("wire", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nconnection: CLOSE\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["close", "close-any-case", "http10"])
    def test_close_after_the_reply(self, server, wire):
        with _connect(server) as sock:
            sock.sendall(wire + b"GET /healthz HTTP/1.1\r\n\r\n")
            buf = bytearray()
            assert _read_reply(sock, buf)[0] == "HTTP/1.1 200 OK"
            assert _read_reply(sock, buf) is None

    def test_http10_keep_alive_stays_open(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                         b"Connection: keep-alive\r\n\r\n")
            buf = bytearray()
            assert _read_reply(sock, buf)[0] == "HTTP/1.1 200 OK"
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            assert _read_reply(sock, buf)[0] == "HTTP/1.1 200 OK"
            assert _read_reply(sock, buf) is None

    def test_http09_get_is_the_bare_body(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz\r\n")
            raw = b""
            while chunk := sock.recv(1 << 16):
                raw += chunk
        assert json.loads(raw)["status"] == "ok"

    def test_expect_100_continue(self, server):
        head, _, body = _post_wire(
            "/query", QUERY, "Expect: 100-continue").partition(b"\r\n\r\n")
        with _connect(server) as sock:
            sock.sendall(head + b"\r\n\r\n")
            assert sock.recv(1 << 16) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            status, _, got = _read_reply(sock, bytearray())
        assert status == "HTTP/1.1 200 OK"
        assert json.loads(got)["kind"] == "rkr"

    def test_header_names_ignore_case_and_the_first_wins(self, server):
        with _connect(server) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nx-trace-ID: first-1\r\n"
                         b"X-Trace-Id: second-2\r\ncontent-length: %d\r\n"
                         b"\r\n%s" % (len(QUERY), QUERY))
            _, headers, _ = _read_reply(sock, bytearray())
        assert dict(headers)["X-Trace-Id"] == "first-1"

    def test_handler_timeout_closes_the_connection(self, data):
        service = QueryService.from_datasets(*data, method="gir")
        server = _counting(ReverseRankHTTPServer, service)
        server.RequestHandlerClass.timeout = 0.05
        try:
            with _serving(server), _connect(server) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # then silence
                assert sock.recv(16) == b""
                assert _until(lambda: server.gone == 1)
                assert server.idle_connections() == 0
        finally:
            service.close()
        assert server.tracebacks == []

    def test_a_peer_that_hangs_up_is_a_closed_connection(self, data,
                                                         capfd):
        """The reply goes to a reset socket: no traceback on stderr, the
        handler is gone and nothing is left counted idle."""
        service = QueryService.from_datasets(*data, method="gir")
        server = _counting(ReverseRankHTTPServer, service)
        hung_up, entered = threading.Event(), threading.Event()
        base_get = server.RequestHandlerClass.do_GET

        def do_GET(self):  # noqa: N802 - stdlib naming
            entered.set()
            hung_up.wait(5.0)
            base_get(self)

        server.RequestHandlerClass.do_GET = do_GET
        try:
            with _serving(server):
                for _ in range(3):
                    entered.clear()
                    hung_up.clear()
                    sock = _connect(server)
                    sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
                    assert entered.wait(5.0)
                    # Close with a reset: the reply has nowhere to go.
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                    sock.close()
                    time.sleep(0.02)
                    hung_up.set()
                assert _until(lambda: server.gone == 3)
                assert server.idle_connections() == 0
        finally:
            service.close()
        assert server.tracebacks == []
        assert capfd.readouterr().err == ""


# A request head assembled from pieces that are each valid, each wrong,
# and each hostile.
_METHODS = st.sampled_from(["GET", "POST", "PUT", "BREW", "get", "", "G\x00T"])
_TARGETS = st.sampled_from(["/healthz", "/query", "/metrics", "/nowhere",
                            "//healthz", "*", "", "/q?x=1%00"])
_VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9",
                             "HTTP/1", "HTTP/1.1.1", "HTTPS/1.1", "",
                             "HTTP/99999999999.1"])
_HEADERS = st.lists(st.one_of(
    st.sampled_from([
        "Host: t", "Connection: close", "Connection: keep-alive",
        "Content-Length: 0", "Content-Length: 2", "Content-Length: -1",
        "Content-Length: 1e3", "Content-Length: 99999999999",
        "Expect: 100-continue", "Transfer-Encoding: chunked",
        "X-Trace-Id: fuzz", " folded", "NoColon", ": novalue",
    ]),
    st.text(st.characters(min_codepoint=32, max_codepoint=255),
            max_size=40)), max_size=6)


@st.composite
def heads(draw):
    words = [draw(_METHODS), draw(_TARGETS), draw(_VERSIONS)]
    line = draw(st.sampled_from([" ", "  ", "\t"])).join(
        w for w in words if draw(st.booleans()) or w == words[0])
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    text = line + eol + "".join(h + eol for h in draw(_HEADERS)) + eol
    body = draw(st.sampled_from([b"", b"{}", b'{"product": 3}', b"[1"]))
    return text.encode("latin-1") + body


def _statuses(raw):
    """The status of every reply in ``raw``, which must be nothing but
    complete replies."""
    statuses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.1 "), raw
        statuses.append(int(head[9:12]))
        length = re.search(rb"\r\nContent-Length: (\d+)", head)
        length = int(length.group(1)) if length else 0
        assert len(rest) >= length, raw
        raw = rest[length:]
    return statuses


class TestFuzz:
    def test_any_head_gets_a_reply_or_a_close(self, server):
        """Every reply is a well-formed status line with a 2xx, a 404 or
        one of the layer's refusals (or the bare body of an HTTP/0.9
        GET); nothing raises in a handler, and once every handler is
        gone the idle gauge counts exactly the parked connection."""
        allowed = {100, 200, 404} | REFUSALS
        parked = _connect(server)
        try:
            assert _until(lambda: server.idle_connections() == 1)

            @settings(max_examples=60, deadline=None,
                      suppress_health_check=list(HealthCheck))
            @given(wire=heads())
            def check(wire):
                gone = server.gone
                with _connect(server) as sock:
                    sock.sendall(wire)
                    sock.shutdown(socket.SHUT_WR)
                    raw = b""
                    try:
                        while chunk := sock.recv(1 << 16):
                            raw += chunk
                    except ConnectionResetError:
                        pass
                assert _until(lambda: server.gone == gone + 1)
                assert server.idle_connections() == 1
                if raw.startswith(b"{"):  # HTTP/0.9
                    assert wire.startswith(b"GET")
                    json.loads(raw)
                    return
                for status in _statuses(raw):
                    assert status in allowed, raw

            check()
        finally:
            parked.close()
        assert _until(lambda: server.idle_connections() == 0)
