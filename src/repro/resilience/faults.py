"""Deterministic fault injection for chaos testing the whole stack.

Production code is sprinkled with *named injection points* — one
:func:`fire` call (and, on write paths, one :meth:`FaultInjector.mutate` /
:meth:`FaultInjector.partial_write` consult) per interesting site.  With
no injector installed every hook is a single global read and a ``None``
check, so the hooks cost nothing in normal operation.

A chaos test arms a :class:`FaultPlan` — a seedable list of
:class:`FaultSpec` entries keyed by site name — and activates it with
:func:`inject`::

    plan = (FaultPlan(seed=1337)
            .add("storage.write.pa.rrqa", "corrupt", times=1)
            .add("scheduler.dispatch", "raise", times=3,
                 exception=RuntimeError("backend down")))
    with inject(plan) as injector:
        ...exercise the stack...
    assert injector.fired("scheduler.dispatch") == 3

Everything is deterministic: probabilistic faults draw from the plan's
seeded :class:`random.Random`, corruption offsets are seeded, and the
injector keeps an ordered log of every firing — so a CI chaos run with a
fixed seed reproduces byte-for-byte.

Fault kinds
-----------
``io_error``
    Raise :class:`OSError` at the site (before any bytes are written).
``latency``
    Sleep ``latency_s`` seconds at the site, then continue normally.
``raise``
    Raise ``exception`` (an exception instance, or a zero-arg callable
    returning one) at the site.
``corrupt``
    Write paths only: flip ``corrupt_bytes`` bytes of the payload at
    seeded offsets.  The write itself succeeds — detection is the
    loader's job (checksums).
``partial_write``
    Write paths only: write a ``keep_fraction`` prefix of the payload
    **directly to the final path** (bypassing the atomic temp-file
    dance) and then raise :class:`InjectedCrashError` — the closest a
    test can get to ``kill -9`` mid-write.

Registered sites (grep for ``fire(`` / ``atomic_write_bytes`` to verify):

========================== ====================================================
site                       where
========================== ====================================================
``storage.load``           entry of :func:`repro.core.storage.load_index`
``storage.write.<file>``   each index artifact write (incl. kernel.bin,
                           kernel.meta and MANIFEST.json)
``io.write.<file>``        default site of any other atomic write
``scheduler.dispatch``     just before a micro-batch hits the engine
``scheduler.kernel``       just before a micro-batch's kernel sweep (a raise
                           is answered by the counted reference scan)
``service.query``          entry of :meth:`QueryService.query`
``service.mutate``         entry of :meth:`DurableQueryService.mutate`
``wal.append``             after framing, before the WAL write+fsync
                           (``partial_write`` leaves a torn tail)
``wal.fsync``              just before ``os.fsync`` of the WAL
``snapshot.write.<file>``  each snapshot artifact write (incl. manifest)
``snapshot.rename``        before the ``.tmp`` -> final dir rename
``snapshot.current``       the ``CURRENT`` pointer flip (commit point)
``replicate.feed``         entry of the primary's replication feed
``replicate.apply``        entry of one standby tailer poll
``supervision.heartbeat``  before each failure-detector probe (a raise
                           counts as a missed heartbeat)
``supervision.promote``    before the supervisor promotes a standby
``supervision.restart``    before the supervisor restarts a dead worker
========================== ====================================================
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import InvalidParameterError

_KINDS = ("io_error", "latency", "raise", "corrupt", "partial_write")

ExceptionLike = Union[BaseException, Callable[[], BaseException]]


class InjectedCrashError(OSError):
    """Raised by a ``partial_write`` fault after torn bytes hit the disk.

    Derives :class:`OSError` so code that survives real I/O failures
    survives injected ones; chaos tests catch this subclass to assert a
    crash was actually simulated.
    """


@dataclass
class FaultSpec:
    """One armed fault at one site.

    Attributes
    ----------
    site:
        Injection-point name the spec is keyed under.
    kind:
        One of :data:`_KINDS` (see module docstring).
    times:
        How many firings before the spec disarms itself; ``None`` keeps
        it armed forever.
    probability:
        Per-hit firing probability, drawn from the plan's seeded RNG
        (``1.0`` fires on every hit — fully deterministic).
    latency_s:
        Sleep duration for ``latency`` faults.
    exception:
        Payload for ``raise`` faults: an instance or zero-arg factory.
    corrupt_bytes:
        How many payload bytes a ``corrupt`` fault flips.
    corrupt_offset:
        Fixed first flip offset; ``None`` draws seeded random offsets.
    keep_fraction:
        Payload prefix fraction a ``partial_write`` leaves on disk.
    """

    site: str
    kind: str
    times: Optional[int] = 1
    probability: float = 1.0
    latency_s: float = 0.01
    exception: Optional[ExceptionLike] = None
    corrupt_bytes: int = 8
    corrupt_offset: Optional[int] = None
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidParameterError("probability must be in [0, 1]")
        if self.times is not None and self.times <= 0:
            raise InvalidParameterError("times must be positive or None")
        if not 0.0 <= self.keep_fraction < 1.0:
            raise InvalidParameterError("keep_fraction must be in [0, 1)")
        if self.corrupt_bytes <= 0:
            raise InvalidParameterError("corrupt_bytes must be positive")


class FaultPlan:
    """A seedable, ordered collection of :class:`FaultSpec` by site.

    The plan is data, the :class:`FaultInjector` is runtime state — one
    plan can drive many injector activations, each starting from the
    same seed (the injector copies the arm counts).
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.specs: List[FaultSpec] = []

    def add(self, site: str, kind: str, **kwargs) -> "FaultPlan":
        """Arm one fault; chainable."""
        self.specs.append(FaultSpec(site=site, kind=kind, **kwargs))
        return self

    def sites(self) -> Tuple[str, ...]:
        """Every site the plan touches (diagnostics)."""
        return tuple(dict.fromkeys(spec.site for spec in self.specs))


class FaultInjector:
    """Runtime state of one activated :class:`FaultPlan`.

    Thread-safe: the service stack fires hooks from HTTP handler threads
    and the scheduler's dispatcher concurrently.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._remaining: Dict[int, Optional[int]] = {
            id(spec): spec.times for spec in plan.specs
        }
        #: Ordered ``(site, kind)`` log of every fault that actually fired.
        self.log: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _take(self, site: str, kinds: Tuple[str, ...]) -> Optional[FaultSpec]:
        """Atomically claim the next armed spec for ``site`` among ``kinds``."""
        with self._lock:
            for spec in self.plan.specs:
                if spec.site != site or spec.kind not in kinds:
                    continue
                remaining = self._remaining[id(spec)]
                if remaining is not None and remaining <= 0:
                    continue
                if spec.probability < 1.0 and \
                        self._rng.random() >= spec.probability:
                    continue
                if remaining is not None:
                    self._remaining[id(spec)] = remaining - 1
                self.log.append((site, spec.kind))
                return spec
        return None

    def fired(self, site: Optional[str] = None) -> int:
        """How many faults fired (at ``site``, or anywhere)."""
        with self._lock:
            if site is None:
                return len(self.log)
            return sum(1 for logged_site, _ in self.log if logged_site == site)

    # ------------------------------------------------------------------
    # hooks consulted by production code
    # ------------------------------------------------------------------

    def fire(self, site: str) -> None:
        """Control-flow faults: sleep (``latency``) or raise at ``site``."""
        spec = self._take(site, ("io_error", "latency", "raise"))
        if spec is None:
            return
        if spec.kind == "latency":
            time.sleep(spec.latency_s)
            return
        if spec.kind == "io_error":
            raise OSError(f"injected I/O error at {site}")
        exc = spec.exception
        if callable(exc) and not isinstance(exc, BaseException):
            exc = exc()
        raise (exc if exc is not None
               else RuntimeError(f"injected failure at {site}"))

    def mutate(self, site: str, data: bytes) -> bytes:
        """Byte-corruption faults: return ``data`` with flipped bytes."""
        spec = self._take(site, ("corrupt",))
        if spec is None or not data:
            return data
        corrupted = bytearray(data)
        with self._lock:
            for i in range(min(spec.corrupt_bytes, len(corrupted))):
                if spec.corrupt_offset is not None:
                    offset = (spec.corrupt_offset + i) % len(corrupted)
                else:
                    offset = self._rng.randrange(len(corrupted))
                corrupted[offset] ^= 0xFF
        return bytes(corrupted)

    def partial_write(self, site: str) -> Optional[float]:
        """``keep_fraction`` if a torn write is armed at ``site``, else None."""
        spec = self._take(site, ("partial_write",))
        return None if spec is None else spec.keep_fraction


# ----------------------------------------------------------------------
# the (process-global) active injector
# ----------------------------------------------------------------------

_active_lock = threading.Lock()
_active: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None`` (the common case)."""
    return _active


def set_injector(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install ``injector`` globally; returns the previous one."""
    global _active
    with _active_lock:
        previous, _active = _active, injector
    return previous


def fire(site: str) -> None:
    """The lightweight hook production code calls at an injection point."""
    injector = _active
    if injector is not None:
        injector.fire(site)


class inject:
    """Context manager activating ``plan`` for the enclosed block.

    Yields the :class:`FaultInjector` so tests can assert on its log;
    restores whatever injector (usually none) was active before.
    """

    def __init__(self, plan: FaultPlan):
        self.injector = FaultInjector(plan)
        self._previous: Optional[FaultInjector] = None

    def __enter__(self) -> FaultInjector:
        self._previous = set_injector(self.injector)
        return self.injector

    def __exit__(self, *exc_info) -> None:
        set_injector(self._previous)


def no_faults() -> Iterator[None]:
    """Context manager suppressing any active injector (scoped escape hatch)."""
    from contextlib import contextmanager

    @contextmanager
    def _scope():
        previous = set_injector(None)
        try:
            yield
        finally:
            set_injector(previous)

    return _scope()
