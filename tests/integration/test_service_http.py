"""Integration: the HTTP service answers exactly like the offline library.

The acceptance bar for the serving subsystem: a served ``POST /query``
answer (rtk and rkr) must be **byte-identical** to the canonical encoding
of the corresponding :class:`NaiveRRQ`/:class:`RRQEngine` answer, with the
micro-batched path actually exercised (at least one coalesced batch of
size > 1 visible in ``/metrics``).
"""

import contextlib
import json
import threading
import urllib.request

import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import DeadlineExceededError, InvalidParameterError
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceLimits,
    canonical_json,
    encode_result,
    serve_in_background,
)


@pytest.fixture(scope="module")
def data():
    P = uniform_products(160, 4, seed=2101)
    W = uniform_weights(130, 4, seed=2102)
    return P, W


@pytest.fixture(scope="module")
def naive(data):
    return NaiveRRQ(*data)


@pytest.fixture()
def served(data):
    """A live server (GIR engine, generous batch window) plus its client."""
    P, W = data
    service = QueryService.from_datasets(
        P, W, method="gir",
        config=ServiceConfig(
            batch_window_s=0.15,
            limits=ServiceLimits(max_batch=32),
        ),
    )
    with serve_in_background(service) as server:
        yield service, ServiceClient(server.url)


class TestAnswerFidelity:
    def test_rtk_and_rkr_byte_identical_to_naive(self, served, data, naive):
        """Raw response bytes == canonical encoding of the naive answer."""
        service, client = served
        client.wait_until_healthy()
        P, _ = data
        for product, kind, k in ((3, "rtk", 10), (11, "rkr", 5)):
            expected = (naive.reverse_topk(P[product], k) if kind == "rtk"
                        else naive.reverse_kranks(P[product], k))
            expected_bytes = canonical_json(encode_result(expected, kind))
            request = urllib.request.Request(
                client.base_url + "/query",
                data=json.dumps({"product": product, "kind": kind,
                                 "k": k}).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = response.read()
            assert body == expected_bytes

    def test_concurrent_threads_hit_the_batched_path(self, served, data,
                                                     naive):
        """Concurrent rtk/rkr requests: all answers exact, >=1 coalesced
        batch of size > 1 reported by /metrics."""
        service, client = served
        client.wait_until_healthy()
        P, _ = data
        answers = {}
        errors = []

        def round_trip(round_no):
            indices = range(round_no * 16, round_no * 16 + 16)
            barrier = threading.Barrier(16)

            def hit(i):
                barrier.wait()
                kind = "rtk" if i % 2 == 0 else "rkr"
                k = 8 if kind == "rtk" else 4
                try:
                    answers[(i, kind, k)] = client.query(
                        product=i, kind=kind, k=k)
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [threading.Thread(target=hit, args=(i,))
                       for i in indices]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        # Bursts of 16 unique queries against a 150 ms window; retry a few
        # rounds so a pathologically slow machine cannot flake the assert.
        for round_no in range(5):
            round_trip(round_no)
            if client.metrics()["batches"]["coalesced"] >= 1:
                break

        assert not errors
        for (i, kind, k), got in answers.items():
            expected = (naive.reverse_topk(P[i], k) if kind == "rtk"
                        else naive.reverse_kranks(P[i], k))
            assert canonical_json(got) == canonical_json(
                encode_result(expected, kind)), (i, kind, k)

        metrics = client.metrics()
        assert metrics["batches"]["coalesced"] >= 1
        assert metrics["batches"]["max_size"] > 1
        assert metrics["requests"]["total"] >= 16

    def test_cache_hit_on_repeat(self, served, data):
        service, client = served
        client.wait_until_healthy()
        first = client.query(product=7, kind="rtk", k=6)
        before = client.metrics()["cache"]["hits"]
        second = client.query(product=7, kind="rtk", k=6)
        assert first == second
        after = client.metrics()
        assert after["cache"]["hits"] == before + 1
        assert after["requests"]["cache_hits"] >= 1


class TestEndpoints:
    def test_healthz_info_metrics(self, served, data):
        service, client = served
        health = client.wait_until_healthy()
        assert health["status"] == "ok"
        info = client.info()
        P, W = data
        assert info["products"] == P.size
        assert info["weights"] == W.size
        assert info["method"] == "gir"
        metrics = client.metrics()
        for section in ("requests", "latency_ms", "batches", "cache", "ops"):
            assert section in metrics

    def test_info_carries_what_the_process_cost_to_start(self, served):
        """Taken once, when the socket was bound — not per request."""
        service, client = served
        first, second = client.info(), client.info()
        assert first["startup_cpu_s"] > 0 and first["modules_loaded"] > 0
        assert isinstance(first["modules_loaded"], int)
        assert second == first
        assert set(first) - set(service.info()) == {"startup_cpu_s",
                                                    "modules_loaded"}

    def test_rejections_are_structured(self, served):
        service, client = served
        client.wait_until_healthy()
        with pytest.raises(InvalidParameterError):
            client.query(product=10_000)          # out of range -> 400
        with pytest.raises(InvalidParameterError):
            client.query(vector=[1.0, 2.0])       # wrong dim -> 400
        with pytest.raises(InvalidParameterError):
            client._request("GET", "/nope")       # 404
        with pytest.raises(DeadlineExceededError):
            client.query(product=1, kind="rtk", k=3, timeout_ms=0)  # 504

    def test_tuner_endpoints_are_gone(self, served):
        """The auto-tuner is deleted: its paths are unknown paths."""
        import urllib.error

        service, client = served
        client.wait_until_healthy()
        for data_ in (None, b'{"force": true}'):  # GET, then POST
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(urllib.request.Request(
                    client.base_url + "/tuner", data=data_), timeout=5)
            assert refused.value.code == 404
            assert json.loads(refused.value.read()) == {
                "error": "NotFound", "message": "/tuner", "status": 404}
        assert "tuner" not in client.metrics()
        assert "auto_tune" not in client.info()

    def test_sugar_helpers_match_dicts(self, served, data, naive):
        service, client = served
        client.wait_until_healthy()
        P, _ = data
        assert client.reverse_topk(P[5], k=9) == \
            naive.reverse_topk(P[5], 9).weights
        assert client.reverse_kranks(P[5], k=3) == \
            naive.reverse_kranks(P[5], 3).entries


def _until(condition, timeout_s=5.0):
    """Wait (bounded) for ``condition``; the assertion is the caller's."""
    import time

    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    return condition()


def _post(conn, product, kind="rtk", k=6):
    """Send one /query on a keep-alive connection without reading."""
    conn.request("POST", "/query",
                 body=json.dumps({"product": product, "kind": kind,
                                  "k": k}).encode(),
                 headers={"Content-Type": "application/json"})


def _wire(product, kind="rtk", k=6):
    """One /query request, as the bytes a keep-alive client sends."""
    body = json.dumps({"product": product, "kind": kind, "k": k}).encode()
    return (b"POST /query HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))


def _bodies(sock, count):
    """Read ``count`` complete replies off ``sock``; their bodies."""
    buf, bodies = b"", []
    while len(bodies) < count:
        head, sep, rest = buf.partition(b"\r\n\r\n")
        if sep:
            length = int(next(
                line.split(b":", 1)[1] for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")))
            if len(rest) >= length:
                assert head.startswith(b"HTTP/1.1 200 "), head
                bodies.append(rest[:length])
                buf = rest[length:]
                continue
        chunk = sock.recv(1 << 16)
        assert chunk, "server closed the connection"
        buf += chunk
    assert buf == b""
    return bodies


class TestWindowClosesWhenNobodyIsLeftToWaitFor:
    """The server counts the requests arriving on its idle connections;
    the scheduler stops waiting once there are none.  Windows are 5 s
    and socket timeouts 3 s wherever a reply must *not* have waited for
    the clock: a window that ran its time fails the read, and the tally
    says which.  Where a request must be on the wire before another is
    sent, its first bytes are written first: the client shares the
    server's process, so "sent just after" is no order at all."""

    @pytest.fixture()
    def live(self, data):
        P, W = data
        service = QueryService.from_datasets(
            P, W, method="gir", config=ServiceConfig(batch_window_s=5.0))
        with serve_in_background(service) as server:
            yield service, server

    @staticmethod
    def _connect(server, count, timeout=3.0):
        import http.client

        host, port = server.server_address[:2]
        conns = [http.client.HTTPConnection(host, port, timeout=timeout)
                 for _ in range(count)]
        for conn in conns:
            conn.connect()
        assert _until(lambda: server.idle_connections() == count)
        return conns

    @staticmethod
    def _sockets(server, count, timeout=3.0):
        """``count`` raw keep-alive sockets, each parked by the server."""
        import socket

        socks = [socket.create_connection(server.server_address[:2],
                                          timeout=timeout)
                 for _ in range(count)]
        assert _until(lambda: server.idle_connections() == count)
        return socks

    @staticmethod
    def _looked(service):
        """An event set once the dispatcher, holding a request, has
        counted what is arriving: bytes sent after it cannot race the
        count, whatever the GIL does."""
        looked = threading.Event()
        arriving = service.scheduler.idle_connections

        def counted():
            try:
                return arriving()
            finally:
                looked.set()

        service.scheduler.idle_connections = counted
        return looked

    @staticmethod
    def _expected(naive, P, products, kind="rtk", k=6):
        run = naive.reverse_topk if kind == "rtk" else naive.reverse_kranks
        return [canonical_json(encode_result(run(P[i], k), kind))
                for i in products]

    def test_keep_alive_pair_is_one_fused_batch(self, live, data, naive):
        service, server = live
        P, _ = data
        a, b = self._sockets(server, 2)
        looked = self._looked(service)
        try:
            b.sendall(_wire(4)[:10])  # B is on the wire before A
            a.sendall(_wire(3))
            assert looked.wait(3.0)
            b.sendall(_wire(4)[10:])
            bodies = _bodies(a, 1) + _bodies(b, 1)
        finally:
            a.close()
            b.close()
        assert bodies == self._expected(naive, P, (3, 4))
        snap = service.metrics_snapshot()
        assert snap["batches"]["total"] == snap["batches"]["coalesced"] == 1
        assert snap["batches"]["windows"] == {
            "expired": 0, "complete": 1, "full": 0}
        assert snap["kernel"]["fused"] == {"batches": 1, "queries": 2}

    def test_half_sent_request_holds_the_window_until_it_completes(
            self, live, data, naive):
        """A's head and half its body are read; B's single waits for the
        rest of A, and the two leave as one fused batch."""
        service, server = live
        P, _ = data
        a, b = self._sockets(server, 2)
        wire = _wire(8, "rkr", 4)
        looked = self._looked(service)
        try:
            a.sendall(wire[:-5])
            b.sendall(_wire(9, "rkr", 4))
            assert looked.wait(3.0)
            a.sendall(wire[-5:])
            bodies = _bodies(a, 1) + _bodies(b, 1)
        finally:
            a.close()
            b.close()
        assert bodies == self._expected(naive, P, (8, 9), "rkr", 4)
        snap = service.metrics_snapshot()
        assert snap["batches"]["total"] == snap["batches"]["coalesced"] == 1
        assert snap["batches"]["windows"] == {
            "expired": 0, "complete": 1, "full": 0}
        assert snap["kernel"]["fused"] == {"batches": 1, "queries": 2}

    def test_a_peer_stuck_mid_request_holds_the_window_to_expired(
            self, data, naive):
        """One byte and then silence: a request has begun, so the single
        beside it waits out the window, and is answered exactly."""
        P, W = data
        service = QueryService.from_datasets(
            P, W, method="gir", config=ServiceConfig(batch_window_s=0.05))
        with serve_in_background(service) as server:
            stuck, busy = self._sockets(server, 2)
            try:
                stuck.sendall(b"P")
                busy.sendall(_wire(5))
                bodies = _bodies(busy, 1)
            finally:
                stuck.close()
                busy.close()
        assert bodies == self._expected(naive, P, (5,))
        assert service.metrics_snapshot()["batches"]["windows"] == {
            "expired": 1, "complete": 0, "full": 0}

    def test_pipelined_pair_is_answered_from_the_buffer(self, live, data,
                                                        naive):
        """Two requests in one write on one connection: the second is
        read from bytes the handler already holds, so nothing waits on
        the socket for it, and neither window waits for the other."""
        service, server = live
        P, _ = data
        (sock,) = self._sockets(server, 1)
        try:
            sock.sendall(_wire(10) + _wire(11, "rkr", 3))
            bodies = _bodies(sock, 2)
        finally:
            sock.close()
        assert bodies == (self._expected(naive, P, (10,))
                          + self._expected(naive, P, (11,), "rkr", 3))
        assert service.metrics_snapshot()["batches"]["windows"] == {
            "expired": 0, "complete": 2, "full": 0}

    def test_request_read_but_not_yet_queued_holds_the_window(
            self, live, data, naive):
        """B is read whole and held in its handler (a cache lookup that
        waits) when the dispatcher looks with A: B has not joined the
        queue, so it is still arriving, and the pair is one batch."""
        service, server = live
        P, _ = data
        a, b = self._sockets(server, 2)
        looked = self._looked(service)
        in_hand = threading.Event()
        lookup = service.cache.get

        def held_once(key):
            if not in_hand.is_set():
                in_hand.set()
                assert looked.wait(3.0)
            return lookup(key)

        service.cache.get = held_once
        try:
            b.sendall(_wire(21))
            assert in_hand.wait(3.0)
            a.sendall(_wire(20))
            bodies = _bodies(a, 1) + _bodies(b, 1)
        finally:
            a.close()
            b.close()
        assert bodies == self._expected(naive, P, (20, 21))
        snap = service.metrics_snapshot()
        assert snap["batches"]["total"] == snap["batches"]["coalesced"] == 1
        assert snap["batches"]["windows"] == {
            "expired": 0, "complete": 1, "full": 0}

    def test_pipelined_request_awaiting_its_body_is_arriving(
            self, live, data, naive):
        """X and the head of Y in one write: once X is answered, Y's head
        comes from the buffer and its handler waits on the socket for
        the body.  Y is arriving, so Z's window waits for it."""
        service, server = live
        P, _ = data
        first, other = self._sockets(server, 2)
        wire = _wire(23, "rkr", 4)
        body_at = wire.index(b"\r\n\r\n") + 4
        try:
            first.sendall(_wire(22) + wire[:body_at])
            bodies = _bodies(first, 1)
            assert _until(lambda: server.arriving() == 1)
            looked = self._looked(service)
            other.sendall(_wire(24, "rkr", 4))
            assert looked.wait(3.0)
            first.sendall(wire[body_at:])
            bodies += _bodies(first, 1) + _bodies(other, 1)
        finally:
            first.close()
            other.close()
        assert bodies == (self._expected(naive, P, (22,))
                          + self._expected(naive, P, (23, 24), "rkr", 4))
        snap = service.metrics_snapshot()
        assert snap["batches"]["total"] == 2
        assert snap["batches"]["coalesced"] == 1
        assert snap["batches"]["windows"] == {
            "expired": 0, "complete": 2, "full": 0}

    def test_single_beside_an_idle_socket_leaves_at_once(self, live):
        """The other connection is open and silent: nothing is arriving,
        so the lone request does not wait for it (5 s window, 3 s read)."""
        service, server = live
        busy, idle = self._connect(server, 2)
        try:
            _post(busy, 3)
            busy.getresponse().read()
        finally:
            busy.close()
            idle.close()
        assert service.metrics_snapshot()["batches"]["windows"] == {
            "expired": 0, "complete": 1, "full": 0}

    def test_lone_queries_beside_a_silent_socket_never_wait(
            self, live, data, naive):
        service, server = live
        P, _ = data
        busy, silent = self._sockets(server, 2)
        products = range(12, 20)
        try:
            bodies = []
            for i in products:
                busy.sendall(_wire(i))
                bodies += _bodies(busy, 1)
        finally:
            busy.close()
            silent.close()
        assert bodies == self._expected(naive, P, products)
        assert service.metrics_snapshot()["batches"]["windows"] == {
            "expired": 0, "complete": len(products), "full": 0}

    def test_connection_per_request_client_pays_no_window(self, live):
        service, server = live
        client = ServiceClient(server.url, timeout_s=3.0)
        client.wait_until_healthy()
        client.query(product=7, kind="rkr", k=4)
        snap = service.metrics_snapshot()
        assert snap["batches"]["total"] == 1
        assert snap["batches"]["windows"]["complete"] == 1

    @staticmethod
    @contextlib.contextmanager
    def _serve_counting(service, **handler_attrs):
        """A server whose handlers tally their exits in ``server.gone``:
        once a connection's handler is gone, its part in the idle count
        is settled and the count can be asserted, not polled."""
        from repro.service.server import ReverseRankHTTPServer

        class Handler(ReverseRankHTTPServer.handler_class):
            def finish(self):
                super().finish()
                with self.server.gone_lock:
                    self.server.gone += 1

        class Server(ReverseRankHTTPServer):
            handler_class = type("Handler", (Handler,), handler_attrs)
            gone, gone_lock = 0, threading.Lock()

        server = Server(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
            service.close()
        assert not thread.is_alive()

    def test_gauge_counts_exactly_the_parked_handlers(self, data):
        """A leaked +1 re-imposes the full window forever, a leaked -1
        dispatches early forever: after every way a wait for a request
        line can end without a request, the count is the handlers
        actually parked."""
        import socket

        from repro.obs.prom import lint_exposition

        P, W = data
        service = QueryService.from_datasets(
            P, W, method="gir", config=ServiceConfig(batch_window_s=5.0))
        with self._serve_counting(service) as server:
            (parked,) = self._connect(server, 1)
            try:
                for gone, (wire, reply) in enumerate((
                    (b"", None),                             # connect, leave
                    (b"POST /que", None),                    # mid request line
                    (b"POST /query HTTP/1.1\r\nContent-Length: 40\r\n\r\n"
                     b'{"prod', None),                       # mid body
                    (b"NOT HTTP AT ALL\r\n\r\n", b"400"),    # malformed line
                    (b"GET /" + b"x" * 70_000 + b"\r\n\r\n", b"414"),
                ), start=1):
                    with socket.create_connection(server.server_address[:2],
                                                  timeout=3.0) as sock:
                        sock.sendall(wire)
                        if reply is not None:
                            assert reply in sock.recv(1 << 16)
                    assert _until(lambda: server.gone == gone), wire
                    assert server.idle_connections() == 1, wire
                with urllib.request.urlopen(
                        server.url + "/metrics?format=prometheus",
                        timeout=3.0) as resp:
                    text = resp.read().decode()
                assert lint_exposition(text) == []
                assert "\nrrq_http_idle_connections 1\n" in text
                # Nobody else is parked: the survivor's single leaves at
                # once (5 s window, 3 s read).
                _post(parked, 9)
                parked.getresponse().read()
            finally:
                parked.close()
            assert _until(lambda: server.gone == 7)  # 5 + the scrape + parked
            assert server.idle_connections() == 0
        assert service.metrics_snapshot()["batches"]["windows"] == {
            "expired": 0, "complete": 1, "full": 0}

    def test_a_request_being_answered_is_not_arriving(self, data, naive):
        """A GET's handler has written its reply and not returned yet when
        a query comes in on another connection.  The GET never joins the
        queue, so the query does not wait for it (5 s window, 3 s read)."""
        from repro.service.server import ReverseRankHTTPServer

        P, W = data
        service = QueryService.from_datasets(
            P, W, method="gir", config=ServiceConfig(batch_window_s=5.0))
        released = threading.Event()
        reply = ReverseRankHTTPServer.handler_class.do_GET

        def do_GET(handler):  # noqa: N802 - stdlib naming
            reply(handler)
            released.wait(5.0)

        with self._serve_counting(service, do_GET=do_GET) as server:
            getter, asker = self._sockets(server, 2)
            try:
                getter.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                _bodies(getter, 1)
                asker.sendall(_wire(7))
                bodies = _bodies(asker, 1)
            finally:
                released.set()
                getter.close()
                asker.close()
        assert bodies == self._expected(naive, P, (7,))
        assert service.metrics_snapshot()["batches"]["windows"] == {
            "expired": 0, "complete": 1, "full": 0}

    def test_handlers_that_idle_out_leave_the_count(self, data):
        import socket

        P, W = data
        service = QueryService.from_datasets(P, W, method="gir")
        with self._serve_counting(service, timeout=0.05) as server:
            socks = [socket.create_connection(server.server_address[:2],
                                              timeout=3.0) for _ in range(3)]
            try:
                for sock in socks:  # the server hangs up on each
                    assert sock.recv(16) == b""
            finally:
                for sock in socks:
                    sock.close()
            assert _until(lambda: server.gone == 3)
            assert server.idle_connections() == 0

    def test_count_survives_many_short_connections_at_once(self, data):
        """A lost update to the idle count would never heal: eight
        clients (more than cores) churn connections under a shortened
        switch interval, and once every handler is gone the count is 0."""
        import sys

        P, W = data
        service = QueryService.from_datasets(P, W, method="gir")
        errors = []

        def churn(url):
            try:
                for _ in range(15):
                    with urllib.request.urlopen(url + "/healthz",
                                                timeout=10) as resp:
                        resp.read()
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._serve_counting(service) as server:
                threads = [threading.Thread(target=churn, args=(server.url,))
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert _until(lambda: server.gone == 8 * 15)
                assert server.idle_connections() == 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors
