"""A minimal stdlib client for the JSON/HTTP query service.

Used by the integration tests, the serving example, and the throughput
benchmark; also handy from a REPL.  HTTP rejections are translated back
into the same :mod:`repro.errors` classes the server raised, so code
written against the in-process :class:`~repro.service.server.QueryService`
behaves identically against a remote one.

Resilience semantics (see ``docs/operations.md``):

* **Transport failures** (connection refused/reset, DNS, socket timeout)
  mean the server never answered; they surface as
  :class:`~repro.errors.ServiceUnavailableError` and are retried.
* **Load rejections** (HTTP 429 overload, 503 shutting-down) are retried
  with exponential backoff and *full jitter* — each sleep is uniform in
  ``[0, min(cap, base * 2**attempt))`` so synchronized clients don't
  stampede the server in lockstep.
* **Semantic 4xx errors** (bad parameters, unknown paths) and deadline
  expiry (504) are never retried: the request itself is wrong or out of
  time, and a retry cannot fix it.
* Every request honors a **total deadline** across all attempts and
  backoff sleeps, not just a per-attempt socket timeout.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Optional, Sequence

from ..errors import (
    DeadlineExceededError,
    InvalidParameterError,
    NotPrimaryError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from .limits import Deadline

#: HTTP status -> exception class raised by the client.
_STATUS_ERRORS = {
    400: InvalidParameterError,
    404: InvalidParameterError,
    409: NotPrimaryError,
    429: ServiceOverloadError,
    503: ServiceUnavailableError,
    504: DeadlineExceededError,
}

#: Statuses worth retrying: transient load conditions, not caller mistakes.
_RETRYABLE_STATUSES = frozenset({429, 503})


class ServiceClient:
    """Talks to one or more :class:`ReverseRankHTTPServer` base URLs.

    With several endpoints the client fails over: a transport failure
    rotates to the next endpoint before retrying (reads keep working as
    long as *any* replica answers), and a mutation answered with 409
    (:class:`~repro.errors.NotPrimaryError` — the endpoint is a standby)
    is re-sent to each remaining endpoint in order until the primary is
    found.  Standbys refuse writes until promoted, so after a primary
    failure writes keep failing with 409 until an operator (or
    :meth:`promote`) flips a standby — by design: auto-promotion from
    the client would risk split-brain.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8377"`` (no trailing slash needed), or
        an ordered sequence of such URLs — primary first, by convention.
    timeout_s:
        Socket-level timeout for each individual attempt.
    retries:
        Extra attempts after the first on retryable failures (429/503
        and transport errors).  ``0`` disables retrying entirely.
    backoff_base_s / backoff_cap_s:
        Exponential backoff parameters; the actual sleep before attempt
        ``i`` is uniform in ``[0, min(cap, base * 2**i))`` (full jitter).
    total_deadline_s:
        Default wall-clock budget for one logical request across all
        attempts and sleeps; ``None`` leaves only per-attempt timeouts.
    rng:
        Jitter source; pass ``random.Random(seed)`` for reproducibility.
    annotate_endpoint:
        When True every decoded answer dict gains an ``"_endpoint"`` key
        naming the base URL that actually answered (after any failover
        rotation).  Off by default so answer dicts stay byte-identical
        to the server's canonical JSON; the cluster coordinator turns it
        on to attribute each partial answer to a shard replica.
    """

    def __init__(self, base_url, timeout_s: float = 30.0,
                 retries: int = 2, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0,
                 total_deadline_s: Optional[float] = None,
                 rng: Optional[random.Random] = None,
                 annotate_endpoint: bool = False):
        urls = [base_url] if isinstance(base_url, str) else list(base_url)
        if not urls:
            raise InvalidParameterError("at least one base URL is required")
        self.endpoints = [url.rstrip("/") for url in urls]
        self._active = 0
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.total_deadline_s = total_deadline_s
        self._rng = rng or random.Random()
        self.annotate_endpoint = bool(annotate_endpoint)

    @property
    def base_url(self) -> str:
        """The endpoint requests currently target (failover moves it)."""
        return self.endpoints[self._active]

    def _rotate(self) -> None:
        self._active = (self._active + 1) % len(self.endpoints)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _backoff(self, attempt: int, deadline: Deadline) -> bool:
        """Sleep before retry ``attempt``; False if the deadline forbids it."""
        window = min(self.backoff_cap_s,
                     self.backoff_base_s * (2.0 ** attempt))
        sleep_s = self._rng.uniform(0.0, window)
        remaining = deadline.remaining()
        if remaining is not None:
            if remaining <= sleep_s:
                return False
        time.sleep(sleep_s)
        return True

    def _attempt(self, request: urllib.request.Request,
                 deadline: Deadline,
                 timeout_s: Optional[float] = None) -> dict:
        """One HTTP round trip, deadline-capped at the socket level.

        ``timeout_s`` overrides the client-wide socket timeout for this
        attempt (the cluster coordinator budgets a per-shard deadline
        out of the request's remaining time).
        """
        timeout = self.timeout_s if timeout_s is None else float(timeout_s)
        remaining = deadline.remaining()
        if remaining is not None:
            if remaining <= 0:
                raise DeadlineExceededError(
                    "client deadline exceeded before the request was sent"
                )
            timeout = min(timeout, remaining)
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 total_deadline_s: Optional[float] = None,
                 retries: Optional[int] = None,
                 mutation: bool = False,
                 endpoint: Optional[str] = None,
                 timeout_s: Optional[float] = None,
                 headers: Optional[dict] = None) -> dict:
        """One logical request, with retries and endpoint failover.

        ``mutation=True`` makes a 409 answer (standby) rotate to the
        next endpoint — without consuming a retry attempt — until every
        endpoint has refused.  Transport failures (connection reset /
        refused mid-failover) likewise rotate through each remaining
        endpoint once before a retry attempt is consumed, so a client
        caught in the promote window finds the new primary instead of
        surfacing a hard transport error.  ``endpoint`` pins the request
        to one URL (used by :meth:`promote`, which must target a
        *specific* node).  ``timeout_s`` overrides the per-attempt
        socket timeout for this call only; ``headers`` adds extra
        request headers (e.g. an ``X-Trace-Id`` to propagate a trace
        across processes).
        """
        data = json.dumps(payload).encode() if payload is not None else None
        budget = (total_deadline_s if total_deadline_s is not None
                  else self.total_deadline_s)
        deadline = Deadline.after(None if budget is None else max(0.0, budget))
        attempts = 1 + (self.retries if retries is None else max(0, retries))
        request_headers = {"Content-Type": "application/json"}
        if headers:
            request_headers.update(headers)
        last_error: Optional[Exception] = None
        attempt = 0
        not_primary_rotations = 0
        transport_rotations = 0
        while True:
            url = endpoint if endpoint is not None else self.base_url
            request = urllib.request.Request(
                url + path, data=data, method=method,
                headers=dict(request_headers),
            )
            try:
                body = self._attempt(request, deadline, timeout_s)
                if self.annotate_endpoint and isinstance(body, dict):
                    body["_endpoint"] = url
                return body
            except urllib.error.HTTPError as exc:
                # The server answered: an HTTP-level rejection, with a
                # structured JSON body when it came from our frontend.
                try:
                    body = json.loads(exc.read())
                    message = body.get("message", str(exc))
                except (json.JSONDecodeError, ValueError):
                    body = {}
                    message = str(exc)
                error_class = _STATUS_ERRORS.get(exc.code, ServiceError)
                error = error_class(message)
                if isinstance(body, dict) and "retry_after_s" in body:
                    # Load shedding announces when capacity frees up;
                    # carry the hint through to the caller.
                    error.retry_after_s = body["retry_after_s"]
                if (exc.code == 409 and mutation and endpoint is None
                        and not_primary_rotations < len(self.endpoints) - 1):
                    # A standby refused the write — ask the next replica.
                    not_primary_rotations += 1
                    self._rotate()
                    last_error = error
                    continue
                if exc.code not in _RETRYABLE_STATUSES:
                    raise error from None
                last_error = error
            except ServiceError:
                raise  # our own deadline guard — not retryable
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    OSError) as exc:
                # The server never answered: transport-level failure,
                # distinct from an HTTP error.
                reason = getattr(exc, "reason", exc)
                last_error = ServiceUnavailableError(
                    f"cannot reach {url}: {reason}"
                )
                if endpoint is None and len(self.endpoints) > 1:
                    self._rotate()  # fail over before the next attempt
                    if transport_rotations < len(self.endpoints) - 1:
                        # Mid-failover RSTs are expected: each remaining
                        # replica gets one immediate try before the
                        # retry budget (and its backoff) is touched.
                        transport_rotations += 1
                        if not deadline.expired():
                            continue
            attempt += 1
            if attempt >= attempts or not self._backoff(attempt - 1,
                                                        deadline):
                break
        assert last_error is not None
        raise last_error from None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def query(self, vector: Optional[Sequence[float]] = None, *,
              product: Optional[int] = None, kind: str = "rtk",
              k: int = 10, timeout_ms: Optional[float] = None,
              timeout_s: Optional[float] = None,
              headers: Optional[dict] = None,
              endpoint: Optional[str] = None) -> dict:
        """``POST /query``; returns the decoded answer dict.

        ``timeout_ms`` is the *server-side* deadline (rides in the JSON
        body); ``timeout_s`` overrides this client's socket timeout for
        this call only; ``headers`` adds request headers (e.g.
        ``X-Trace-Id``); ``endpoint`` pins the request to one replica
        URL with no failover rotation (the coordinator's hedged backup
        probe targets a *specific* standby).
        """
        payload: dict = {"kind": kind, "k": k}
        if vector is not None:
            payload["vector"] = [float(x) for x in vector]
        if product is not None:
            payload["product"] = int(product)
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._request("POST", "/query", payload,
                             timeout_s=timeout_s, headers=headers,
                             endpoint=(endpoint.rstrip("/")
                                       if endpoint is not None else None))

    def reverse_topk(self, vector, k: int = 10) -> frozenset:
        """Sugar: the RTK answer as the library's frozenset of indices."""
        return frozenset(self.query(vector, kind="rtk", k=k)["weights"])

    def reverse_kranks(self, vector, k: int = 10) -> tuple:
        """Sugar: the RKR answer as the library's (rank, index) tuples."""
        answer = self.query(vector, kind="rkr", k=k)
        return tuple((rank, idx) for rank, idx in answer["entries"])

    def healthz(self, timeout_s: Optional[float] = None,
                retries: Optional[int] = None,
                endpoint: Optional[str] = None) -> dict:
        """``GET /healthz`` (``timeout_s``/``retries`` per-call overrides;
        ``endpoint`` pins the probe to one replica, no rotation)."""
        return self._request("GET", "/healthz", timeout_s=timeout_s,
                             retries=retries, endpoint=endpoint)

    def metrics(self) -> dict:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")

    def info(self) -> dict:
        """``GET /info``."""
        return self._request("GET", "/info")

    # ------------------------------------------------------------------
    # durable-service endpoints (mutations, replication, promotion)
    # ------------------------------------------------------------------

    def insert_product(self, vector: Sequence[float]) -> dict:
        """``POST /insert``; returns ``{"index", "lsn", ...}``."""
        return self._request("POST", "/insert", {
            "type": "product", "vector": [float(x) for x in vector],
        }, mutation=True)

    def insert_weight(self, vector: Sequence[float],
                      renormalize: bool = False) -> dict:
        """``POST /insert`` for a weight vector."""
        return self._request("POST", "/insert", {
            "type": "weight", "vector": [float(x) for x in vector],
            "renormalize": bool(renormalize),
        }, mutation=True)

    def delete_product(self, index: int) -> dict:
        """``POST /delete``; returns ``{"index", "lsn", ...}``."""
        return self._request("POST", "/delete", {
            "type": "product", "index": int(index),
        }, mutation=True)

    def delete_weight(self, index: int) -> dict:
        """``POST /delete`` for a weight."""
        return self._request("POST", "/delete", {
            "type": "weight", "index": int(index),
        }, mutation=True)

    def compact(self) -> dict:
        """``POST /compact``; returns the per-id maps (an id maps to
        itself while live, to -1 once deleted) and the last LSN."""
        return self._request("POST", "/compact", {}, mutation=True)

    def snapshot(self) -> dict:
        """``POST /snapshot``; forces a checkpoint + WAL truncation."""
        return self._request("POST", "/snapshot", {}, mutation=True)

    def promote(self, endpoint: Optional[str] = None) -> dict:
        """``POST /promote`` — flip a standby to primary.

        Targets ``endpoint`` explicitly (no failover: promoting
        "whichever node answers" would be a split-brain machine);
        defaults to the currently active endpoint.  Subsequent writes
        from this client go there first.
        """
        target = (endpoint or self.base_url).rstrip("/")
        body = self._request("POST", "/promote", {}, endpoint=target)
        if target in self.endpoints:
            self._active = self.endpoints.index(target)
        return body

    def retarget(self, primary_url: str,
                 endpoint: Optional[str] = None) -> dict:
        """``POST /retarget`` — point a standby's tailer at a new primary.

        After a failover the surviving standbys of a shard would keep
        polling the dead primary forever; the supervisor re-points them
        here.  Like :meth:`promote` this targets one *specific* node
        (``endpoint``, default the active one) — no failover rotation.
        """
        target = (endpoint or self.base_url).rstrip("/")
        return self._request("POST", "/retarget",
                             {"primary_url": str(primary_url)},
                             endpoint=target)

    def replicate(self, since: int = 0, limit: Optional[int] = None) -> dict:
        """``GET /replicate?since=N`` — the primary's WAL feed."""
        path = f"/replicate?since={int(since)}"
        if limit is not None:
            path += f"&limit={int(limit)}"
        return self._request("GET", path)

    def wait_until_healthy(self, timeout_s: float = 5.0,
                           poll_s: float = 0.05) -> dict:
        """Poll ``/healthz`` until it answers (for just-started servers).

        Honors a *total* deadline of ``timeout_s`` across all polls.
        Transport failures (connection refused — the server is not up
        yet) keep polling; an HTTP-level error means something *is*
        listening but it is not our service, so that fails immediately
        with a clear message instead of burning the whole deadline.
        """
        deadline = Deadline.after(timeout_s)
        last_error: Optional[Exception] = None
        while True:
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0:
                break
            try:
                return self._request("GET", "/healthz", retries=0,
                                     total_deadline_s=remaining)
            except ServiceUnavailableError as exc:
                last_error = exc  # not reachable yet — keep polling
            except DeadlineExceededError as exc:
                last_error = exc
            except ReproError as exc:
                raise ServiceError(
                    f"{self.base_url} answered /healthz with an HTTP error "
                    f"({exc}); is something else listening on that port?"
                ) from None
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0:
                break
            time.sleep(poll_s if remaining is None
                       else min(poll_s, remaining))
        raise ServiceUnavailableError(
            f"service at {self.base_url} never became healthy within "
            f"{timeout_s}s: {last_error}"
        )
