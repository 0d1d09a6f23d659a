"""Zero-copy persistence for a built blocked kernel (mmap warm start).

Building a :class:`~repro.vectorized.girkernel.GirKernelRRQ` from raw
data costs a full validation + sort + cast sweep over ``P`` and ``W`` —
cheap next to a query sweep, but it is pure overhead on every cold
start of a static server, and it scales linearly with ``|W|``.  (A
mutable store's kernel is not worth a disk round trip: it is rebuilt in
RAM per generation, see :mod:`repro.storage.kernel`.)  This module
persists everything the kernel holds — ``P`` and ``W``, the rows a
second time in the order the core sweeps them (``P_swept``,
``W_swept``; ``P`` and ``W`` stay in dataset order, which is what a
caller compares with its own data), the weights' kd-box order and box
gates (``w_order``, ``box_gate``), and (on the float32 filter path) the
single-precision copies the tiles are formed from (``P_swept32``,
``W_swept32``) — as a single packed
blob (``kernel.bin``: raw C-contiguous array bytes at 64-byte-aligned
offsets) plus a JSON ``kernel.meta`` that records each array's dtype,
shape and offset, committed through the same checksummed-manifest
protocol as the index store
(:func:`repro.storage.manifest.write_manifest_dir`: atomic per-file writes,
``MANIFEST.json`` written last as the commit point).

Loading maps ``kernel.bin`` once (``numpy.memmap``) and slices every
array out of it as a zero-copy ``frombuffer`` view — one open and one
``mmap(2)`` for the whole kernel, no per-array file opens or ``.npy``
header parses.  The dataset containers and :class:`KernelCore` are
reassembled around those views *without* re-validating or re-deriving
anything (construction is bypassed — the arrays were validated before
the save and are checksum-guarded after it), and first-touch I/O is
deferred to the page cache.  Cold start is O(mmap), not O(rebuild); a
warm page cache makes repeat loads nearly free.

Integrity: :func:`load_kernel` always checks the manifest and per-file
byte counts (missing / truncated files are caught without reading
array data, preserving the zero-copy property) and raises a structured
:class:`~repro.errors.IndexCorruptionError` on damage; pass
``verify="full"`` to also CRC-check every byte (reads the files once,
e.g. after a restore).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict

import numpy as np

from ..algorithms.base import RRQAlgorithm
from ..data.datasets import ProductSet, WeightSet
from ..errors import DataValidationError, IndexCorruptionError
from ..storage.manifest import verify_manifest_dir, write_manifest_dir
from .girkernel import GirKernelRRQ, KernelCore

_META_NAME = "kernel.meta"
_BLOB_NAME = "kernel.bin"
_MANIFEST_NAME = "MANIFEST.json"
_FORMAT_VERSION = 5
_ALIGN = 64  # cache-line alignment for every packed array

#: Core array artifacts every kernel store carries, in write order.
CORE_ARRAYS = ("P", "W", "P_swept", "W_swept", "w_order", "box_gate")

#: float32 copies of ``P_swept`` and ``W_swept``, present only when saved
#: with filter_dtype=float32.
F32_ARRAYS = ("P_swept32", "W_swept32")


def _pack_blob(arrays: Dict[str, np.ndarray]):
    """Concatenate raw C-order array bytes at aligned offsets.

    Returns ``(blob_bytes, layout)`` where ``layout`` maps each array
    name to its ``{dtype, shape, offset}`` slice of the blob — all a
    loader needs to rebuild zero-copy views with ``np.frombuffer``.
    """
    blob = bytearray()
    layout: Dict[str, dict] = {}
    for name, arr in arrays.items():
        contig = np.ascontiguousarray(arr)
        pad = (-len(blob)) % _ALIGN
        blob.extend(b"\0" * pad)
        layout[name] = {
            "dtype": contig.dtype.str,
            "shape": list(contig.shape),
            "offset": len(blob),
        }
        blob.extend(contig.tobytes())
    return bytes(blob), layout


def _corrupt(directory, msg: str, artifacts=()) -> IndexCorruptionError:
    return IndexCorruptionError(
        f"{directory}: {msg}", directory=str(directory),
        artifacts=tuple(sorted(artifacts)),
    )


def kernel_payloads(kernel: GirKernelRRQ) -> Dict[str, bytes]:
    """``kernel.bin`` and ``kernel.meta`` of ``kernel``, as bytes — the
    unit :func:`save_kernel` commits alone and
    :func:`repro.core.storage.save_index` commits beside the
    Grid-index."""
    core = kernel.core
    arrays: Dict[str, np.ndarray] = {
        "P": kernel.P, "W": kernel.W,
        # The core's rows are in its sweep order; packing them as
        # swept, with the weights' order and box gates, and the float32
        # copies as cast, keeps the load free of any sort, gather or
        # ``astype``.
        "P_swept": core.P, "W_swept": core.W,
        "w_order": core.w_order, "box_gate": core.box_gate,
    }
    if core.filter_dtype == "float32":
        arrays.update({"P_swept32": core.P32, "W_swept32": core.W32})
    blob, layout = _pack_blob(arrays)
    meta = {
        "version": _FORMAT_VERSION,
        "dim": int(core.P.shape[1]),
        "n_products": int(core.P.shape[0]),
        "n_weights": int(core.W.shape[0]),
        "value_range": float(kernel.products.value_range),
        "w_block": core.w_block,
        "p_block": core.p_block,
        "use_domin": core.use_domin,
        "filter_dtype": core.filter_dtype,
        "arrays": layout,
    }
    return {
        _BLOB_NAME: blob,
        _META_NAME: json.dumps(meta, indent=2).encode(),
    }


def save_kernel(directory, kernel: GirKernelRRQ) -> dict:
    """Persist a built kernel for O(mmap) reload; returns a size report.

    The write is crash-safe with the same contract as the index store:
    artifacts land atomically and the checksum manifest is written
    last, so a reader at any instant sees a consistent or *provably*
    inconsistent directory, never a torn one.
    """
    files = write_manifest_dir(directory, kernel_payloads(kernel),
                               site_prefix="kernelstore.write")
    return {
        "files": len(files) + 1,
        "bytes": sum(entry["bytes"] for entry in files.values()),
    }


def kernel_store_size(directory) -> int:
    """Total on-disk bytes of a kernel store (0 when absent/empty)."""
    path = Path(directory)
    if not path.is_dir():
        return 0
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _check_store(path: Path, verify: str) -> dict:
    """Manifest + size (or full CRC) verification; returns the meta dict."""
    if verify not in ("size", "full"):
        raise DataValidationError(f"verify must be 'size' or 'full', "
                                  f"got {verify!r}")
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.exists():
        raise _corrupt(path, "not a kernel store (missing MANIFEST.json)",
                       [_MANIFEST_NAME])
    if verify == "full":
        report = verify_manifest_dir(path)
        if not report["ok"]:
            raise _corrupt(
                path,
                "integrity check failed for "
                + ", ".join(sorted(report["damaged"])),
                report["damaged"],
            )
    else:
        try:
            manifest = json.loads(manifest_path.read_bytes())
            entries = manifest["files"]
        except (json.JSONDecodeError, ValueError, KeyError, TypeError):
            raise _corrupt(path, "corrupt MANIFEST.json",
                           [_MANIFEST_NAME]) from None
        damaged = []
        base = str(path)
        for name, entry in entries.items():
            try:
                size = os.stat(os.path.join(base, name)).st_size
            except OSError:
                size = -1
            if size != entry.get("bytes"):
                damaged.append(name)
        if damaged:
            raise _corrupt(
                path,
                "missing or truncated artifacts: " + ", ".join(sorted(damaged)),
                damaged,
            )
    try:
        meta = json.loads((path / _META_NAME).read_text())
    except (OSError, json.JSONDecodeError, ValueError):
        raise _corrupt(path, f"unreadable {_META_NAME}",
                       [_META_NAME]) from None
    if meta.get("version") != _FORMAT_VERSION:
        raise DataValidationError(
            f"{path}: unsupported kernel store version {meta.get('version')}"
        )
    return meta


def _blob_views(path: Path, meta: dict, mmap: bool) -> Dict[str, np.ndarray]:
    """Slice every array out of ``kernel.bin`` as a zero-copy view.

    One open + one ``mmap(2)`` serves the whole kernel; each array is a
    read-only ``np.frombuffer`` window at its recorded offset.  With
    ``mmap=False`` the blob is read into RAM once and sliced the same
    way.
    """
    blob_path = path / _BLOB_NAME
    try:
        if mmap:
            buf = np.memmap(blob_path, dtype=np.uint8, mode="r")
        else:
            buf = np.frombuffer(blob_path.read_bytes(), dtype=np.uint8)
    except (OSError, ValueError) as exc:
        raise _corrupt(path, f"cannot map {_BLOB_NAME} ({exc})",
                       [_BLOB_NAME]) from exc
    views: Dict[str, np.ndarray] = {}
    try:
        for name, spec in meta["arrays"].items():
            shape = tuple(int(s) for s in spec["shape"])
            views[name] = np.frombuffer(
                buf, dtype=np.dtype(spec["dtype"]),
                count=math.prod(shape), offset=int(spec["offset"]),
            ).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise _corrupt(path, f"blob layout mismatch ({exc})",
                       [_BLOB_NAME, _META_NAME]) from exc
    return views


def _dataset_views(P: np.ndarray, W: np.ndarray, value_range: float):
    """Rebuild the dataset containers around mmap views, skipping the
    construction-time validation sweeps (the arrays were validated
    before the save and are checksum-guarded after it)."""
    products = ProductSet.__new__(ProductSet)
    object.__setattr__(products, "values", P)
    object.__setattr__(products, "value_range", float(value_range))
    weights = WeightSet.__new__(WeightSet)
    object.__setattr__(weights, "values", W)
    return products, weights


def load_kernel(directory, mmap: bool = True,
                verify: str = "size") -> GirKernelRRQ:
    """Load a kernel saved by :func:`save_kernel` as zero-copy mmap views.

    ``verify="size"`` (default) checks the manifest and per-file byte
    counts without touching array data; ``verify="full"`` additionally
    CRC-checks every byte.  ``mmap=False`` materializes the arrays in
    RAM (useful when the store lives on slow storage and will be hit
    hard).  Raises :class:`IndexCorruptionError` on damage and
    :class:`DataValidationError` on a store of another format version.
    """
    path = Path(directory)
    meta = _check_store(path, verify)
    views = _blob_views(path, meta, mmap)
    names = list(CORE_ARRAYS)
    if meta["filter_dtype"] == "float32":
        names += list(F32_ARRAYS)
    missing = [n for n in names if n not in views]
    if missing:
        raise _corrupt(path, "arrays missing from blob layout: "
                       + ", ".join(missing), [_META_NAME])
    arrays = {name: views[name] for name in names}

    products, weights = _dataset_views(arrays["P"], arrays["W"],
                                       meta["value_range"])
    kernel = GirKernelRRQ.__new__(GirKernelRRQ)
    # RRQAlgorithm.__init__ is only a dim-compatibility check plus raw
    # array aliases — safe and O(1) over the views.
    RRQAlgorithm.__init__(kernel, products, weights)
    # Handed its float32 copies and its boxes, the constructor neither
    # casts, probes nor sorts: the saved store carries the results.
    kernel.core = KernelCore(
        arrays["P_swept"], arrays["W_swept"],
        w_block=int(meta["w_block"]), p_block=int(meta["p_block"]),
        use_domin=bool(meta["use_domin"]),
        filter_dtype=meta["filter_dtype"],
        P32=arrays.get("P_swept32"), W32=arrays.get("W_swept32"),
        boxes=(arrays["w_order"], arrays["box_gate"]),
    )
    kernel.last_stats = None
    return kernel
