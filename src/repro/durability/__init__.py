"""repro.durability — durable mutations for the segment store.

The paper's static ``P``/``W`` assumption is relaxed by
:mod:`repro.storage`; this package gives its mutations the same
crash-safety story the static index store (:mod:`repro.core.storage`)
already has, plus a warm standby:

* :mod:`.wal` — a length-prefixed, CRC32-framed write-ahead log with an
  ``always|interval|never`` fsync policy.  Torn trailing records (an
  interrupted append) are detected and dropped; mid-log damage raises a
  structured :class:`~repro.errors.WalCorruptionError`.
* :mod:`.engine` — :class:`DurableDynamicRRQ`, the log-before-apply
  wrapper around :class:`~repro.storage.SegmentStore` that recovers on
  startup (the store's committed manifest + WAL tail replay, LSN
  idempotent), checkpoints by sealing the store and truncating the log
  at the manifest barrier, and feeds log-shipping replication.
* :mod:`.replica` — the standby tailer that follows a primary's
  ``GET /replicate`` feed, applies records through its own durable
  path, and reports replication lag until promoted.

The durability invariant, enforced by ``tests/chaos/``: after any
injected crash, recovery yields an engine whose every query answer is
byte-identical to a fresh ``NaiveRRQ`` over exactly the acknowledged
mutation prefix — an acknowledged write is never lost, an
unacknowledged write is atomically absent.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "engine": ["SEGMENTS_DIRNAME", "DurableDynamicRRQ", "durability_report"],
    "replica": ["ReplicaTailer"],
    "wal": ["FSYNC_POLICIES", "WalRecord", "WalWriter", "read_wal",
            "wal_path"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "DurableDynamicRRQ", "ReplicaTailer", "SEGMENTS_DIRNAME",
    "WalRecord", "WalWriter", "read_wal", "wal_path", "FSYNC_POLICIES",
    "durability_report",
]
