"""Immutable segments — the sealed unit of the MVCC store.

A :class:`Segment` is a frozen slice of the catalogue: product and
weight rows together with their **stable global ids**, and nothing
else.  Once built, nothing in a segment ever changes; deletes are
recorded *outside* it (in the store's dead sets) and masked out when a
snapshot gathers its live rows, so an arbitrary number of readers can
hold one segment concurrently with zero coordination.

On disk a segment is a directory committed through the generic CRC32
manifest machinery (:func:`repro.storage.manifest.write_manifest_dir`):
every artifact lands via temp-file + fsync + rename and
``MANIFEST.json`` is written last, so a crash at any byte leaves a
directory that either verifies completely or is provably damaged —
:func:`load_segment` refuses the latter with a structured
:class:`~repro.errors.IndexCorruptionError`.  Derived state (grid,
codes, the swept row order, float32 copies) belongs to the snapshot's
kernel (:mod:`repro.storage.kernel`), never to a segment: the rebuild is
deterministic and cheap (paper §3.2), and not persisting it keeps the
checksum surface to the raw rows and ids.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from ..data.io import load_matrix, matrix_to_bytes
from ..errors import IndexCorruptionError, InvalidParameterError
from .manifest import verify_manifest_dir, write_manifest_dir

#: Format tag stored in every segment's metadata.
SEGMENT_FORMAT = "rrq-segment-v1"

#: Artifact names inside a segment directory.
META_NAME = "segment.json"
PRODUCTS_NAME = "products.mat"
PIDS_NAME = "pids.bin"
WEIGHTS_NAME = "weights.mat"
WIDS_NAME = "wids.bin"

_IDS_MAGIC = b"RRQI"


def _ids_to_bytes(ids: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(ids, dtype="<i8")
    return _IDS_MAGIC + struct.pack("<HI", 1, arr.shape[0]) + arr.tobytes()


def _ids_from_bytes(data: bytes, path: Path) -> np.ndarray:
    head = len(_IDS_MAGIC) + struct.calcsize("<HI")
    if len(data) < head or data[: len(_IDS_MAGIC)] != _IDS_MAGIC:
        raise IndexCorruptionError(f"{path}: not an RRQ id file")
    _, count = struct.unpack("<HI", data[len(_IDS_MAGIC):head])
    body = np.frombuffer(data[head:], dtype="<i8")
    if body.shape[0] != count:
        raise IndexCorruptionError(
            f"{path}: id count mismatch (header {count}, payload {body.shape[0]})"
        )
    return body.astype(np.int64)


class Segment:
    """One immutable (products, weights) slice with stable ids.

    Parameters
    ----------
    name:
        Directory-style identifier (``seg-00000007``); unique per store.
    p_rows, p_ids:
        Product rows ``(m, d)`` and their ascending global ids ``(m,)``.
    w_rows, w_ids:
        Weight rows and ids, same shape contract.
    """

    def __init__(self, name: str, p_rows: np.ndarray, p_ids: np.ndarray,
                 w_rows: np.ndarray, w_ids: np.ndarray,
                 directory: Optional[Path] = None):
        self.name = str(name)
        self.p_rows = np.ascontiguousarray(p_rows, dtype=np.float64)
        self.p_ids = np.ascontiguousarray(p_ids, dtype=np.int64)
        self.w_rows = np.ascontiguousarray(w_rows, dtype=np.float64)
        self.w_ids = np.ascontiguousarray(w_ids, dtype=np.int64)
        for ids, rows, kind in ((self.p_ids, self.p_rows, "product"),
                                (self.w_ids, self.w_rows, "weight")):
            if ids.shape[0] != rows.shape[0]:
                raise InvalidParameterError(
                    f"{kind} ids/rows length mismatch in segment {name}"
                )
            if ids.size > 1 and np.any(np.diff(ids) <= 0):
                raise InvalidParameterError(
                    f"{kind} ids must be strictly ascending in segment {name}"
                )
        for arr in (self.p_rows, self.p_ids, self.w_rows, self.w_ids):
            arr.setflags(write=False)

        #: Refcount of live snapshots holding this segment; guarded by
        #: the owning store's lock.  A retired segment's directory is
        #: deleted only once the count drains to zero.
        self.pins = 0
        #: Set when a compaction supersedes this segment.
        self.retired = False
        #: On-disk home (None for a memory-only store).
        self.directory = directory

    # ------------------------------------------------------------------

    @property
    def n_products(self) -> int:
        return self.p_rows.shape[0]

    @property
    def n_weights(self) -> int:
        return self.w_rows.shape[0]

    @property
    def dim(self) -> int:
        return self.p_rows.shape[1] if self.p_rows.ndim == 2 else 0

    def nbytes(self) -> int:
        """In-memory footprint of the raw rows (stats only)."""
        return int(self.p_rows.nbytes + self.w_rows.nbytes)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, directory) -> None:
        """Commit this segment to ``directory`` (CRC32 manifest protocol)."""
        meta = {
            "format": SEGMENT_FORMAT,
            "name": self.name,
            "dim": self.dim,
            "n_products": self.n_products,
            "n_weights": self.n_weights,
        }
        payloads = {
            META_NAME: json.dumps(meta, indent=2, sort_keys=True).encode(),
            PRODUCTS_NAME: matrix_to_bytes(self.p_rows),
            PIDS_NAME: _ids_to_bytes(self.p_ids),
            WEIGHTS_NAME: matrix_to_bytes(self.w_rows),
            WIDS_NAME: _ids_to_bytes(self.w_ids),
        }
        write_manifest_dir(directory, payloads, site_prefix="storage.segment")
        self.directory = Path(directory)

    def stats(self, dead_products: int = 0, dead_weights: int = 0) -> dict:
        """JSON-ready summary (``storage-dump``, ``/metrics``)."""
        return {
            "name": self.name,
            "products": self.n_products,
            "weights": self.n_weights,
            "dead_products": int(dead_products),
            "dead_weights": int(dead_weights),
            "bytes": self.nbytes(),
            "pins": self.pins,
            "retired": self.retired,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Segment({self.name}, p={self.n_products}, "
                f"w={self.n_weights}, pins={self.pins})")


def load_segment(directory) -> Segment:
    """Load and verify one segment directory; raise on any corruption.

    Every artifact is checksum-verified against the segment's
    ``MANIFEST.json`` before a byte of it is parsed, so a torn write
    (crash mid-seal before the manifest landed) surfaces as a structured
    error naming the damaged files — never a garbage index.
    """
    path = Path(directory)
    report = verify_manifest_dir(path)
    if not report["ok"]:
        raise IndexCorruptionError(
            f"segment {path.name} failed verification: "
            f"damaged={report['damaged']}"
        )
    try:
        meta = json.loads((path / META_NAME).read_text())
    except (ValueError, OSError) as exc:
        raise IndexCorruptionError(
            f"segment {path.name}: unreadable metadata ({exc})"
        ) from exc
    if meta.get("format") != SEGMENT_FORMAT:
        raise IndexCorruptionError(
            f"segment {path.name}: unknown format {meta.get('format')!r}"
        )
    p_rows = load_matrix(path / PRODUCTS_NAME)
    w_rows = load_matrix(path / WEIGHTS_NAME)
    p_ids = _ids_from_bytes((path / PIDS_NAME).read_bytes(), path / PIDS_NAME)
    w_ids = _ids_from_bytes((path / WIDS_NAME).read_bytes(), path / WIDS_NAME)
    if (p_rows.shape[0] != meta["n_products"]
            or w_rows.shape[0] != meta["n_weights"]):
        raise IndexCorruptionError(
            f"segment {path.name}: row counts disagree with metadata"
        )
    # Older files also carry the grid parameters of a per-segment index
    # (value_range / partitions / chunk / w_range): read and ignored.
    return Segment(meta["name"], p_rows, p_ids, w_rows, w_ids,
                   directory=path)
