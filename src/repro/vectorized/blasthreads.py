"""Scoped single-threaded BLAS for the kernel's tile gemms.

The sweeps multiply ``(U x d) @ (d x rows)`` with ``d`` the data
dimension (2-20): memory-bound, so a second OpenBLAS thread buys a tenth
at best.  What it costs is steadiness.  OpenBLAS workers spin for a
while after a call and then sleep; a sweep that starts after the server
idled has to wake one, and when it wakes on the caller's core the caller
spin-waits for a result that cannot be computed until the scheduler tick
preempts it.  On a 2-vCPU box the same RKR sweep took 27 ms or 120 ms,
in 4 ms steps, decided by nothing but the order and spacing of the
requests before it (``docs/performance.md`` §9).

numpy has no API for this and ``threadpoolctl`` is not a dependency, so
the OpenBLAS that numpy loaded is found in ``/proc/self/maps`` and asked
directly.  Another BLAS, another platform, or a build without the
symbols: :func:`single_threaded` does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

_Control = Tuple[Callable[[], int], Callable[[int], None]]

#: numpy / scipy wheels prefix and suffix the OpenBLAS symbols.
_SYMBOLS = [(f"{prefix}openblas_get_num_threads{suffix}",
             f"{prefix}openblas_set_num_threads{suffix}")
            for prefix in ("", "scipy_") for suffix in ("", "64_", "_64_")]

_lock = threading.Lock()
_controls: Optional[List[_Control]] = None
_depth = 0
_saved: List[int] = []


def _find_controls() -> List[_Control]:
    """``(get, set)`` thread-count functions of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                found.append((getattr(lib, get_name), getattr(lib, set_name)))
                break
    return found


def _loaded() -> List[_Control]:
    global _controls
    if _controls is None:
        _controls = _find_controls()
    return _controls


def thread_counts() -> List[int]:
    """Current thread count of each controllable BLAS (empty: none)."""
    return [get() for get, _ in _loaded()]


def guarded_thread_counts() -> List[int]:
    """What a sweep's gemms see: ``[1]`` per controllable BLAS, and
    ``[]`` when :func:`single_threaded` guards nothing."""
    with single_threaded():
        return thread_counts()


@contextmanager
def single_threaded() -> Iterator[None]:
    """Run the block with every controllable BLAS at one thread.

    The setting is process-wide, so concurrent and nested blocks share
    one count: the first one in saves the thread counts, the last one
    out restores them.
    """
    global _depth, _saved
    with _lock:
        controls = _loaded()
        if controls and _depth == 0:
            _saved = [get() for get, _ in controls]
            for _, put in controls:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if controls and _depth == 0:
                for (_, put), count in zip(controls, _saved):
                    put(count)
