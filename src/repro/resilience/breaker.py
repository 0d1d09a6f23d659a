"""A classic three-state circuit breaker, one per cluster shard.

The :class:`~repro.cluster.coordinator.ClusterCoordinator` wraps every
sub-request to a shard in one of these.  Repeated shard failures open
the circuit; while open, that shard's slice routes straight to the
coordinator's exact degraded-shard fallback (see ``docs/operations.md``)
without paying for a doomed call.  After ``reset_after_s`` one probe
request is let through (*half-open*); its outcome closes or re-opens
the circuit.  A single node has no breaker: its one degraded route is
the scheduler's counted reference scan.

States
------
``closed``
    Normal operation.  Failures are counted; ``failure_threshold``
    consecutive ones open the circuit.
``open``
    Primary bypassed.  After ``reset_after_s`` the next ``allow()``
    claims the single half-open probe slot.
``half-open``
    One probe in flight.  ``record_success`` closes the circuit,
    ``record_failure`` re-opens it (and restarts the cool-down).

The clock is injectable so unit tests can step time deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..errors import InvalidParameterError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive failures that open the circuit by default.
DEFAULT_FAILURE_THRESHOLD = 5

#: Default cool-down before a half-open probe is allowed, in seconds.
DEFAULT_RESET_AFTER_S = 30.0


class CircuitBreaker:
    """Thread-safe consecutive-failure circuit breaker.

    Usage::

        if breaker.allow():
            try:
                result = primary()
                breaker.record_success()
            except Exception:
                breaker.record_failure()
                result = fallback()
        else:
            result = fallback()
    """

    def __init__(self, failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
                 reset_after_s: float = DEFAULT_RESET_AFTER_S,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold <= 0:
            raise InvalidParameterError("failure_threshold must be positive")
        if reset_after_s < 0:
            raise InvalidParameterError("reset_after_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_at = 0.0
        self._trips = 0

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half-open`` (open flips lazily)."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == OPEN and \
                self._clock() - self._opened_at >= self.reset_after_s:
            return HALF_OPEN  # a probe *would* be admitted
        return self._state

    def allow(self) -> bool:
        """May this request try the primary?  Claims the half-open probe."""
        with self._lock:
            if self._state == CLOSED:
                return True
            now = self._clock()
            if self._state == OPEN and \
                    now - self._opened_at >= self.reset_after_s:
                self._state = HALF_OPEN
                self._probe_at = now
                return True  # this caller is the probe
            if self._state == HALF_OPEN and \
                    now - self._probe_at >= self.reset_after_s:
                # The previous probe never reported back (e.g. it was shed
                # by admission control); grant a fresh one rather than wedge.
                self._probe_at = now
                return True
            return False

    def record_success(self) -> None:
        """The primary answered; close the circuit and reset the count."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """The primary failed; open on threshold (immediately if half-open)."""
        with self._lock:
            self._consecutive_failures += 1
            if (self._state == HALF_OPEN
                    or self._consecutive_failures >= self.failure_threshold):
                if self._state != OPEN:
                    self._trips += 1
                self._state = OPEN
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        """JSON-ready state for ``/healthz`` and ``/metrics``."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "failure_threshold": self.failure_threshold,
                "reset_after_s": self.reset_after_s,
            }
