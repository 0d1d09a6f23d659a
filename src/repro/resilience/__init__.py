"""repro.resilience — fault injection and failure-handling primitives.

Two halves:

* :mod:`.faults` — a deterministic, seedable fault-injection harness.
  Production code (storage, scheduler, server) consults named injection
  points; chaos tests (``tests/chaos/``) arm :class:`FaultPlan`\\ s
  against them and assert the paper's exactness guarantee survives every
  injected failure.
* :mod:`.breaker` — the :class:`CircuitBreaker` the cluster coordinator
  keeps per shard, so a failing shard's slice is answered by its exact
  degraded-shard fallback instead of failing requests.

See ``docs/operations.md`` for the operational story.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "breaker": ["CLOSED", "DEFAULT_FAILURE_THRESHOLD", "DEFAULT_RESET_AFTER_S",
                "HALF_OPEN", "OPEN", "CircuitBreaker"],
    "faults": ["FaultInjector", "FaultPlan", "FaultSpec", "InjectedCrashError",
               "active_injector", "fire", "inject", "no_faults",
               "set_injector"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN",
    "DEFAULT_FAILURE_THRESHOLD", "DEFAULT_RESET_AFTER_S",
    "FaultPlan", "FaultSpec", "FaultInjector", "InjectedCrashError",
    "active_injector", "set_injector", "fire", "inject", "no_faults",
]
