"""The HTTP/1.1 request layer under both servers, on :mod:`socketserver`.

It covers what the service speaks and refuses what it does not, and it
imports no client-side code: ``http.server`` would bring ``http.client``,
``email``, ``ssl``, ``html`` and ``mimetypes`` into every serving
process, and a server calls none of them.

* **Request line.** ``METHOD target HTTP/1.x``; a bare ``GET target``
  is HTTP/0.9 (no head, the body alone comes back, then the connection
  closes).  Longer than :data:`MAX_LINE` bytes: 414.  Unparsable, or a
  malformed version: 400.  Any other version: 505.  No ``do_<METHOD>``
  on the handler: 501.
* **Head.** Header lines longer than :data:`MAX_LINE` bytes or more than
  :data:`MAX_HEADERS` of them: 431.  A line without a colon, or with
  whitespace around the name (folded lines among them): 400.  Names are
  case-insensitive and the first occurrence wins.
* **Body.** ``Content-Length`` only, at most :data:`MAX_BODY` bytes
  (413); a negative or non-integer length is 400; ``Transfer-Encoding``
  is 501.  All three are refused before a byte of the body is read.
  ``Expect: 100-continue`` gets its interim reply before the read.
* **Connection.** HTTP/1.1 keeps the connection open unless the request
  says ``Connection: close``; HTTP/1.0 closes unless it says
  ``keep-alive``.  Every refusal closes it.  A peer that goes silent
  past the handler's ``timeout``, or hangs up, ends the connection
  quietly: there is nobody left to answer.

Every refusal is a JSON body in the shape of the service's own errors:
``{"error": ..., "message": ..., "status": ...}``.

A reply is written as the stdlib writes it: the head in one write
(``send_response`` / ``send_header`` / ``end_headers``), the body in a
second.  ``wbufsize`` and ``disable_nagle_algorithm`` are the inherited
:class:`socketserver.StreamRequestHandler` attributes.

The server counts its *idle* connections -- handlers waiting for a
request -- and the requests *arriving*: an idle connection whose socket
holds bytes, or a handler *receiving* a request it has begun and not yet
handed on.  A handler is idle from before it reads the request line
until the request and its body are read, or the wait ends without one.
It turns receiving before its first read of a request takes bytes off
the socket, or once it has a request line from bytes a pipelining peer
already sent, so such bytes are never waited on; it stays receiving
until the request joins the scheduler's queue (:meth:`HTTPServer.
handed_on`) or its reply begins.  The scheduler closes a
coalescing window once nothing is arriving: a connection that is merely
open, with nothing to say, holds no window.
"""

from __future__ import annotations

import io
import json
import select
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import Dict, List, Optional

#: Longest request line, and longest header line, in bytes.
MAX_LINE = 65536
#: Most header lines one request may carry.
MAX_HEADERS = 100
#: Largest request body accepted, in bytes (``Content-Length``).
MAX_BODY = 1 << 20

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def http_date(timestamp: Optional[float] = None) -> str:
    """An HTTP ``Date`` value: ``Mon, 19 Oct 2026 10:42:31 GMT``."""
    t = time.gmtime(timestamp)
    return (f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} "
            "GMT")


def _is_number(text: str) -> bool:
    return text.isascii() and text.isdigit()


class Headers(dict):
    """A request's headers, keyed by lower-cased name; the first wins."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    def __contains__(self, name) -> bool:
        return dict.__contains__(self, name.lower())


class _Refusal(Exception):
    """A request the layer answers itself, with ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _ArrivalReader(socket.SocketIO):
    """The raw socket under a handler's ``rfile``.  The first read of a
    request that must go to the socket waits for bytes without taking
    them, marks the handler *receiving*, then takes them: whoever polls
    the socket first and reads the flag second never misses a request."""

    def __init__(self, handler: "RequestHandler"):
        super().__init__(handler.connection, "rb")
        self._handler = handler

    def readinto(self, buffer) -> int:
        handler = self._handler
        if handler._idle and not handler.receiving:
            handler.connection.recv(1, socket.MSG_PEEK)  # honours ``timeout``
            handler.receiving = True
        return super().readinto(buffer)


class RequestHandler(socketserver.StreamRequestHandler):
    """Reads requests off one connection and dispatches ``do_<METHOD>``.

    A ``do_<METHOD>`` finds ``command``, ``path``, ``request_version``,
    ``headers`` (:class:`Headers`) and ``body`` (bytes) on ``self``, and
    replies with :meth:`send_response`, :meth:`send_header`,
    :meth:`end_headers` and ``wfile.write``.
    """

    server_version = "repro-rrq"
    sys_version = "Python/" + sys.version.split()[0]
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.rfile.close()
        self.rfile = io.BufferedReader(_ArrivalReader(self))
        self.receiving = self._idle = False
        self.fd = self.connection.fileno()
        self.server.track(self, True)

    def finish(self) -> None:
        self.server.track(self, False)
        super().finish()

    def handle(self) -> None:
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read one request, dispatch it, reply.

        Counted idle from before the read of the request line until the
        request and its body are read, or the wait ends without one:
        EOF, a timeout, a refusal."""
        self.close_connection = True
        self.requestline = self.request_version = ""
        self._headers_buffer = []
        self._idle = True
        try:
            try:
                if not self._read_request():
                    return
            except _Refusal as refusal:
                self.send_error(refusal.status, str(refusal))
                return
            self._idle = False  # still receiving until handed on
            getattr(self, "do_" + self.command)()
            self.wfile.flush()  # a no-op until ``wbufsize`` buffers it
        except (TimeoutError, ConnectionError):
            # Silent past ``timeout``, or hung up before its reply: the
            # connection is over and nobody is left to answer.
            self.close_connection = True
        finally:
            self._idle = self.receiving = False

    def _readline(self, too_long: int) -> Optional[str]:
        """One CRLF- or LF-terminated line, or ``None`` at EOF."""
        raw = self.rfile.readline(MAX_LINE + 1)
        if len(raw) > MAX_LINE:
            raise _Refusal(too_long, f"line longer than {MAX_LINE} bytes")
        if not raw.endswith(b"\n"):
            return None
        return raw.decode("iso-8859-1").rstrip("\r\n")

    def _read_request(self) -> bool:
        """Parse one request head and read its body; ``False`` at EOF."""
        line = self._readline(414)
        if not line:
            return False
        self.receiving = True  # the line may have come from the buffer
        self.requestline = line
        words = line.split()
        if len(words) == 3:
            version = words[2]
            proto, _, number = version.partition("/")
            major, _, minor = number.partition(".")
            if proto != "HTTP" or len(major) > 10 or len(minor) > 10 or \
                    not (_is_number(major) and _is_number(minor)):
                raise _Refusal(400, f"bad request version {version[:80]!r}")
            if int(major) != 1:
                raise _Refusal(505, f"HTTP/{number} is not supported")
        elif len(words) == 2 and words[0] == "GET":
            version = "HTTP/0.9"
        else:
            raise _Refusal(400, f"bad request line {line[:80]!r}")
        self.command, self.path = words[:2]
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")
        if not hasattr(self, "do_" + self.command):
            raise _Refusal(501, f"unsupported method {self.command[:80]!r}")
        self.request_version = version
        if version == "HTTP/0.9":  # no head; the reply is the bare body
            self.headers, self.body = Headers(), b""
            return True
        http11 = (int(major), int(minor)) >= (1, 1)
        self.headers = headers = self._read_headers()
        if headers is None:
            return False
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            not http11 and connection != "keep-alive")
        if "transfer-encoding" in headers:
            raise _Refusal(501, "Transfer-Encoding is not supported; "
                                "send Content-Length")
        length = headers.get("content-length", "0")
        if not _is_number(length):
            raise _Refusal(400, "Content-Length must be a non-negative "
                                f"integer, not {length[:80]!r}")
        length = int(length)
        if length > MAX_BODY:
            raise _Refusal(413, f"body of {length} bytes exceeds the "
                                f"{MAX_BODY}-byte limit")
        if http11 and headers.get("expect", "").lower() == "100-continue":
            self.send_response_only(100)
            self.end_headers()
        self.body = self.rfile.read(length) if length else b""
        return len(self.body) == length

    def _read_headers(self) -> Optional[Headers]:
        headers = Headers()
        count = 0
        while True:
            line = self._readline(431)
            if line is None:
                return None
            if not line:
                return headers
            count += 1
            if count > MAX_HEADERS:
                raise _Refusal(431, f"more than {MAX_HEADERS} headers")
            name, colon, value = line.partition(":")
            if not colon or not name or name != name.strip():
                raise _Refusal(400, f"bad header line {line[:80]!r}")
            headers.setdefault(name.lower(), value.strip())

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------

    def send_response(self, code: int) -> None:
        """Start a reply: status line, ``Server`` and ``Date``.  A request
        being answered is no longer arriving, queued or not: its peer
        may send the next one before this thread runs again."""
        self.receiving = False
        self.log_message('"%s" %s', self.requestline, code)
        self.send_response_only(code)
        self.send_header("Server",
                         f"{self.server_version} {self.sys_version}")
        self.send_header("Date", http_date())

    def send_response_only(self, code: int) -> None:
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(
                f"{self.protocol_version} {code} {HTTPStatus(code).phrase}"
                "\r\n".encode("latin-1"))

    def send_header(self, keyword: str, value: str) -> None:
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(
                f"{keyword}: {value}\r\n".encode("latin-1"))

    def end_headers(self) -> None:
        """Write the head, in one write."""
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            self.wfile.write(b"".join(self._headers_buffer))
            self._headers_buffer = []

    def send_error(self, code: int, message: str) -> None:
        """Refuse the request with a JSON body, and close the connection."""
        reason = HTTPStatus(code).phrase
        body = json.dumps(
            {"error": reason.replace(" ", "").replace("-", ""),
             "message": message, "status": code},
            sort_keys=True, separators=(",", ":")).encode()
        self.log_message("code %d, message %s", code, message)
        self.close_connection = True
        self.send_response(code)
        self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """One line on stderr per reply and refusal, with ``--verbose``."""
        if self.server.verbose:
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(f"{self.client_address[0]} - - [{stamp}] "
                             f"{format % args}\n")


class HTTPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """One daemon thread per connection; counts the idle ones and the
    requests arriving on them."""

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog. The stdlib default (5) resets connections under a
    #: modest concurrent burst -- exactly the workload micro-batching wants.
    request_queue_size = 128
    verbose = False

    def __init__(self, address, handler_class):
        super().__init__(address, handler_class)
        #: Open connections' handlers, by the thread that serves each.
        self._handlers: Dict[int, RequestHandler] = {}
        self._handlers_lock = threading.Lock()

    def track(self, handler: RequestHandler, open_: bool) -> None:
        with self._handlers_lock:
            if open_:
                self._handlers[threading.get_ident()] = handler
            else:
                del self._handlers[threading.get_ident()]

    def _open(self) -> List[RequestHandler]:
        with self._handlers_lock:
            return list(self._handlers.values())

    def idle_connections(self) -> int:
        """Connections whose handler is waiting for a request."""
        return sum(1 for handler in self._open() if handler._idle)

    def arriving(self) -> int:
        """Requests on their way: bytes readable on an idle connection,
        or a request its handler is receiving and has not handed on.

        The idle sockets are polled first and the flags read second: a
        handler marks itself receiving before it takes a request's bytes
        off its socket and stays so until the request is queued, so a
        request on the wire when the poll ran is counted by one or the
        other until the dispatcher can take it off the queue.
        ``select.poll``, because ``select.select`` refuses fd >= 1024."""
        handlers = self._open()
        idle = [handler.fd for handler in handlers if handler._idle]
        readable = set()
        if idle:
            poller = select.poll()
            for fd in idle:
                poller.register(fd, select.POLLIN)
            readable = {fd for fd, events in poller.poll(0)
                        if events & select.POLLIN}
        return sum(1 for handler in handlers
                   if handler.receiving or handler.fd in readable)

    def handed_on(self) -> None:
        """The calling thread's request has joined the scheduler's
        queue: it is no longer arriving.  A no-op off a handler thread."""
        handler = self._handlers.get(threading.get_ident())
        if handler is not None:
            handler.receiving = False
