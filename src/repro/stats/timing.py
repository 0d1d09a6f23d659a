"""Small timing utilities for the experiment harness.

The paper reports mean CPU time over many repeated queries.  These helpers
wrap :func:`time.perf_counter` with the accumulate/repeat patterns the
benchmarks need, without pulling in a benchmarking framework dependency at
library level (pytest-benchmark is used only inside ``benchmarks/``).
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0.0 <= q <= 1.0``) of ``samples`` by
    nearest-rank.

    Nearest-rank is the conventional choice for operational latency
    reporting: the result is always an observed sample.  This is the one
    shared implementation — :mod:`repro.service.metrics` and
    :mod:`repro.bench.harness` both use it.

    Edge cases are pinned by tests: an empty sample list returns 0.0,
    a single sample is every quantile of itself, ``q=0.0`` is the
    minimum and ``q=1.0`` the maximum, non-finite samples (NaN/inf
    leaking in from faulted requests) are dropped before ranking, and an
    out-of-range ``q`` raises ``ValueError`` rather than silently
    clamping.
    """
    if math.isnan(q) or not 0.0 <= q <= 1.0:
        from ..errors import InvalidParameterError

        raise InvalidParameterError(
            f"quantile q must be in [0.0, 1.0], got {q}"
        )
    finite = [s for s in samples if math.isfinite(s)]
    if not finite:
        return 0.0
    ordered = sorted(finite)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Timer:
    """Accumulating stopwatch.

    Use either as a context manager::

        timer = Timer()
        with timer.measure():
            run_query()

    or through :meth:`time_callable` for repeated measurement.
    """

    samples: List[float] = field(default_factory=list)

    @contextmanager
    def measure(self) -> Iterator[None]:
        """Record one sample covering the ``with`` block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.samples.append(time.perf_counter() - start)

    def time_callable(self, fn: Callable[[], object], repeat: int = 1) -> None:
        """Run ``fn`` ``repeat`` times, recording one sample per run."""
        for _ in range(repeat):
            with self.measure():
                fn()

    @property
    def total(self) -> float:
        """Sum of all samples, in seconds."""
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Mean sample, in seconds (0.0 when empty)."""
        return statistics.fmean(self.samples) if self.samples else 0.0

    @property
    def median(self) -> float:
        """Median sample, in seconds (0.0 when empty)."""
        return statistics.median(self.samples) if self.samples else 0.0

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    def reset(self) -> None:
        """Discard all samples."""
        self.samples.clear()


def time_once(fn: Callable[[], object]) -> float:
    """Return the wall-clock seconds a single call to ``fn`` takes."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_of(fn: Callable[[], object], repeat: int = 3) -> float:
    """Return the fastest of ``repeat`` timed runs of ``fn``."""
    if repeat <= 0:
        raise ValueError("repeat must be positive")
    return min(time_once(fn) for _ in range(repeat))


@dataclass
class LapClock:
    """Named-section profiler used by the Table 2 I/O-versus-CPU experiment."""

    laps: dict = field(default_factory=dict)

    @contextmanager
    def lap(self, name: str) -> Iterator[None]:
        """Accumulate the ``with`` block's duration under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.laps[name] = self.laps.get(name, 0.0) + (
                time.perf_counter() - start
            )

    def get(self, name: str, default: Optional[float] = 0.0) -> float:
        """Accumulated seconds for section ``name``."""
        return self.laps.get(name, default)
