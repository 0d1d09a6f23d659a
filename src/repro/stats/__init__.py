"""Instrumentation: operation counters, timers, report tables."""

from .._lazy import lazy_exports

_EXPORTS = {
    "counters": ["NULL_COUNTER", "OpCounter"],
    "report": ["print_table", "render_table", "speedup"],
    "timing": ["LapClock", "Timer", "best_of", "percentile", "time_once"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "OpCounter", "NULL_COUNTER", "Timer", "LapClock", "time_once", "best_of",
    "percentile", "render_table", "print_table", "speedup",
]
