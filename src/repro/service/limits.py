"""Admission control: deadlines, queue bounds, and HTTP rejection mapping.

A long-lived query server has to say *no* sometimes.  This module holds
the three pieces every other service module shares:

* :class:`ServiceLimits` — the tunable bounds (queue depth, default
  per-request deadline, batch ceiling);
* :class:`Deadline` — an absolute monotonic-clock deadline carried by each
  request from admission to dispatch;
* :func:`http_status` / :func:`rejection_body` — the structured mapping
  from the :mod:`repro.errors` hierarchy to JSON/HTTP rejections (429 for
  overload, 503 for unavailability/shutdown, 504 for deadline expiry,
  400 for caller mistakes) and :func:`coerce`, which turns a malformed
  caller field into one.

Keeping the mapping here means the scheduler raises plain library errors
and stays transport-agnostic; only the frontend knows about status codes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from ..errors import (
    DeadlineExceededError,
    InvalidParameterError,
    NotPrimaryError,
    ReproError,
    ServiceOverloadError,
    ServiceUnavailableError,
)

#: Default cap on requests waiting for dispatch before 429s start.
DEFAULT_MAX_QUEUE_DEPTH = 256

#: Default per-request deadline in seconds (None disables deadlines).
DEFAULT_DEADLINE_S = 10.0

#: Default ceiling on how many requests one micro-batch may coalesce.
DEFAULT_MAX_BATCH = 64


@dataclass(frozen=True)
class ServiceLimits:
    """Bounds the scheduler enforces at admission and dispatch time.

    Attributes
    ----------
    max_queue_depth:
        Requests allowed to wait for dispatch; submissions beyond it are
        rejected with :class:`ServiceOverloadError` (HTTP 429).
    default_deadline_s:
        Deadline applied to requests that do not carry their own;
        ``None`` disables deadline enforcement entirely.
    max_batch:
        Upper bound on the size of one coalesced micro-batch.
    """

    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    default_deadline_s: Optional[float] = DEFAULT_DEADLINE_S
    max_batch: int = DEFAULT_MAX_BATCH

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise InvalidParameterError("max_queue_depth must be positive")
        if self.max_batch <= 0:
            raise InvalidParameterError("max_batch must be positive")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise InvalidParameterError(
                "default_deadline_s must be positive or None"
            )

    def deadline(self, deadline_s: Optional[float] = None) -> "Deadline":
        """A fresh :class:`Deadline` for one request.

        ``deadline_s`` overrides :attr:`default_deadline_s`; both ``None``
        yields an unbounded deadline.
        """
        budget = deadline_s if deadline_s is not None else self.default_deadline_s
        return Deadline.after(budget)


@dataclass(frozen=True)
class Deadline:
    """An absolute point on the monotonic clock (or no limit at all)."""

    at: Optional[float]

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """Deadline ``seconds`` from now; ``None`` means unbounded."""
        if seconds is None:
            return cls(at=None)
        if not 0 <= seconds < math.inf:  # NaN included
            raise InvalidParameterError(
                "deadline seconds must be finite and >= 0")
        return cls(at=time.monotonic() + seconds)

    @classmethod
    def unbounded(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(at=None)

    def remaining(self) -> Optional[float]:
        """Seconds left (may be negative); ``None`` when unbounded."""
        if self.at is None:
            return None
        return self.at - time.monotonic()

    def expired(self) -> bool:
        """True once the deadline has passed."""
        return self.at is not None and time.monotonic() >= self.at

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if already expired."""
        if self.expired():
            raise DeadlineExceededError("request deadline exceeded")


def coerce(value, kind: type, name: str):
    """``kind(value)`` for one caller-supplied field (``k``, ``index``,
    ``timeout_ms``, a ``?limit=``…); a value that does not convert is the
    caller's mistake, raised as :class:`InvalidParameterError`."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(
            f"{name!r} must be {'an integer' if kind is int else 'a number'}"
            f", not {type(value).__name__} {str(value)[:40]!r}") from None


def http_status(exc: BaseException) -> int:
    """The HTTP status code a rejection/error maps to.

    429 for overload, 503 for unavailability (shutdown drain), 504 for
    deadline expiry, 409 for a mutation sent to a standby, 400 for any
    other library (caller) error, 500 otherwise — a bare ``ValueError``,
    ``TypeError`` or ``KeyError`` is a bug in the server, not the
    caller's mistake (caller input is checked where it enters, by
    :func:`coerce` and :func:`~repro.data.datasets.check_query_point`).
    """
    if isinstance(exc, NotPrimaryError):
        return 409
    if isinstance(exc, ServiceOverloadError):
        return 429
    if isinstance(exc, ServiceUnavailableError):
        return 503
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, ReproError):
        return 400
    return 500


def rejection_body(exc: BaseException) -> dict:
    """The structured JSON body sent alongside a non-200 status.

    An exception carrying a ``retry_after_s`` attribute (load shedding
    announces when capacity should free up) surfaces it in the body;
    the HTTP frontend additionally sends it as a ``Retry-After`` header.
    """
    body = {
        "error": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
        "status": http_status(exc),
    }
    retry_after = retry_after_s(exc)
    if retry_after is not None:
        body["retry_after_s"] = retry_after
    return body


def retry_after_s(exc: BaseException) -> Optional[float]:
    """The exception's retry hint in seconds, when it carries one."""
    hint = getattr(exc, "retry_after_s", None)
    if hint is None:
        return None
    try:
        hint = float(hint)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return None
    return hint if hint >= 0 else None
