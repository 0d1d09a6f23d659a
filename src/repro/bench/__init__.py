"""Perf-regression harness: pinned-seed kernel benchmarks with verification."""

from .._lazy import lazy_exports

_EXPORTS = {
    "harness": ["DEFAULT_CONFIGS", "SMOKE_CONFIGS", "load_configs",
                "machine_info", "run_config", "run_harness"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = ["DEFAULT_CONFIGS", "SMOKE_CONFIGS", "load_configs",
           "machine_info", "run_config", "run_harness"]
