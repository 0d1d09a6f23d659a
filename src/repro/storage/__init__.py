"""repro.storage — segmented MVCC index storage.

Immutable segments (rows + stable ids) and a small mutable delta, sealed
and compacted behind an atomic CRC32 manifest flip, with
snapshot-isolated readers pinned via refcounts; every read is one tile
sweep through the in-RAM kernel the store keeps for its current
generation.  See :mod:`repro.storage.store` for the
architecture and the crash contract.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "delta": ["MutableDelta"],
    "kernel": ["SnapshotKernel"],
    "manifest": ["CURRENT_NAME", "MANIFEST_FORMAT", "manifest_name",
                 "read_current_manifest", "sweep_store_orphans",
                 "write_manifest"],
    "segment": ["Segment", "load_segment"],
    "snapshot": ["StoreSnapshot"],
    "store": ["DEFAULT_COMPACT_DEAD_FRACTION", "DEFAULT_COMPACT_MAX_SEGMENTS",
              "DEFAULT_COMPACT_SMALL_ROWS", "DEFAULT_SEAL_ROWS",
              "SegmentStore"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "MutableDelta", "SnapshotKernel", "Segment", "load_segment",
    "StoreSnapshot", "SegmentStore", "read_current_manifest",
    "write_manifest", "sweep_store_orphans", "manifest_name",
    "CURRENT_NAME", "MANIFEST_FORMAT", "DEFAULT_SEAL_ROWS",
    "DEFAULT_COMPACT_MAX_SEGMENTS", "DEFAULT_COMPACT_DEAD_FRACTION",
    "DEFAULT_COMPACT_SMALL_ROWS",
]
