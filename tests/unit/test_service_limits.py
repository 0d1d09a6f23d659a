"""Unit tests for admission control (repro.service.limits).

Focus: deadline edge cases — zero and negative budgets, expiry exactly
at admission — and the structured rejection body, including one full
round trip through the HTTP frontend.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    DataValidationError,
    DeadlineExceededError,
    DimensionMismatchError,
    InvalidParameterError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.service.limits import (
    Deadline,
    ServiceLimits,
    http_status,
    rejection_body,
)


class TestServiceLimits:
    def test_defaults_are_sane(self):
        limits = ServiceLimits()
        assert limits.max_queue_depth > 0
        assert limits.max_batch > 0
        assert limits.default_deadline_s > 0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            ServiceLimits(max_queue_depth=0)
        with pytest.raises(InvalidParameterError):
            ServiceLimits(max_batch=-1)
        with pytest.raises(InvalidParameterError):
            ServiceLimits(default_deadline_s=0.0)

    def test_deadline_override_beats_default(self):
        limits = ServiceLimits(default_deadline_s=100.0)
        deadline = limits.deadline(0.0)
        assert deadline.expired()

    def test_none_default_yields_unbounded(self):
        limits = ServiceLimits(default_deadline_s=None)
        assert limits.deadline().remaining() is None


class TestDeadlineEdges:
    def test_zero_budget_expires_immediately(self):
        """after(0) is a legal way to say "reject me at admission"."""
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_negative_budget_is_a_caller_error(self):
        with pytest.raises(InvalidParameterError):
            Deadline.after(-0.001)

    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert not deadline.expired()
        assert deadline.remaining() is None
        deadline.check()  # must not raise

    def test_remaining_goes_negative_after_expiry(self):
        deadline = Deadline.after(0.0)
        assert deadline.remaining() <= 0.0

    def test_generous_budget_not_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0


class TestHttpMapping:
    @pytest.mark.parametrize("exc,status", [
        (ServiceOverloadError("full"), 429),
        (ServiceUnavailableError("shutting down"), 503),
        (DeadlineExceededError("late"), 504),
        (InvalidParameterError("bad k"), 400),
        (DimensionMismatchError("d"), 400),
        (InvalidParameterError("request body is not JSON"), 400),
        (DataValidationError("query point must be a list of numbers"), 400),
        (RuntimeError("boom"), 500),
        # Caller input is checked where it enters; a bare built-in error
        # past that point is the server's bug, not the caller's mistake.
        (ValueError("internal"), 500),
        (KeyError("internal"), 500),
        (TypeError("internal"), 500),
    ])
    def test_status_codes(self, exc, status):
        assert http_status(exc) == status

    def test_rejection_body_shape(self):
        body = rejection_body(ServiceOverloadError("queue full"))
        assert body == {"error": "ServiceOverloadError",
                        "message": "queue full", "status": 429}

    def test_rejection_body_never_empty_message(self):
        body = rejection_body(ValueError())
        assert body["message"] == "ValueError"


class TestRejectionRoundTrip:
    def test_expired_at_admission_rejected_as_504_over_http(self):
        """timeout_ms=0 admits an already-expired request; the structured

        rejection body must survive the full HTTP round trip."""
        from repro.data.synthetic import uniform_products, uniform_weights
        from repro.service import QueryService, serve_in_background

        P = uniform_products(60, 3, seed=771)
        W = uniform_weights(50, 3, seed=772)
        service = QueryService.from_datasets(P, W, method="naive")
        with serve_in_background(service) as server:
            payload = json.dumps({"vector": list(P[0]), "kind": "rtk",
                                  "k": 5, "timeout_ms": 0}).encode()
            request = urllib.request.Request(
                server.url + "/query", data=payload,
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 504
            body = json.loads(excinfo.value.read().decode())
            assert body["error"] == "DeadlineExceededError"
            assert body["status"] == 504
            assert body["message"]
