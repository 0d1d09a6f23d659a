"""Zero-copy persistence for a built blocked kernel (mmap warm start).

Building a :class:`~repro.vectorized.girkernel.GirKernelRRQ` from raw
data costs a full validation + quantization + sort + cast sweep over
``P`` and ``W`` — cheap next to a query sweep, but it is pure overhead
on every cold start of a static server, and it scales linearly with
``|W|``.  (A mutable store's kernel is not worth a disk round trip: it
is rebuilt in RAM per generation, see :mod:`repro.storage.kernel`.)
This module persists everything the
kernel needs — ``P`` and ``W``, the product rows a second
time in the order the core sweeps them (``P_swept``; ``P`` and the codes
stay in dataset order, which is what a caller compares with its own
data), the approximate codes, and (on the float32 filter path) the
single-precision copies the tiles are formed from (``P_swept32``,
``W32``) — as a single packed blob
(``kernel.bin``: raw C-contiguous array bytes at
64-byte-aligned offsets) plus a JSON ``kernel.meta`` that records each
array's dtype, shape and offset, committed through the same
checksummed-manifest protocol as the index store
(:func:`repro.core.storage.write_manifest_dir`: atomic per-file writes,
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

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..core.approx import Quantizer
from ..core.grid import GridIndex
from ..core.storage import verify_manifest_dir, write_manifest_dir
from ..data.datasets import ProductSet, WeightSet
from ..errors import DataValidationError, IndexCorruptionError
from .girkernel import GirKernelRRQ, KernelCore

_META_NAME = "kernel.meta"
_BLOB_NAME = "kernel.bin"
_MANIFEST_NAME = "MANIFEST.json"
_FORMAT_VERSION = 3
_ALIGN = 64  # cache-line alignment for every packed array

#: Core array artifacts every kernel store carries, in write order.
CORE_ARRAYS = ("P", "W", "P_swept", "pa", "wa")

#: float32 copies of ``P_swept`` and ``W``, present only when saved with
#: filter_dtype=float32.
F32_ARRAYS = ("P_swept32", "W32")


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


def kernel_config_digest(alpha_p, alpha_w, w_block: int, p_block: int,
                         use_domin: bool, filter_dtype: str) -> str:
    """Digest of everything that shapes a kernel's *answers-per-layout*.

    Grid boundaries (both axes, exact float64 bytes), tile schedule,
    Domin buffer and filter dtype — the settings ``kernel.meta`` used to
    omit, letting a cached ``static/`` kernel built under old boundaries
    be silently reused after a config change.  Two kernels with equal
    digests filter identically; a digest mismatch means the store must
    be rebuilt, not trusted.
    """
    h = hashlib.sha256()
    for arr in (alpha_p, alpha_w):
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    h.update(f"|{int(w_block)}|{int(p_block)}"
             f"|{bool(use_domin)}|{filter_dtype}".encode())
    return h.hexdigest()


def config_digest_of(kernel: GirKernelRRQ) -> str:
    """:func:`kernel_config_digest` of a built kernel's own config."""
    core = kernel.core
    return kernel_config_digest(
        kernel.grid.alpha_p, kernel.grid.alpha_w,
        core.w_block, core.p_block, core.use_domin, core.filter_dtype,
    )


def store_config_digest(directory) -> Optional[str]:
    """The ``config_digest`` recorded in a store's ``kernel.meta``.

    Returns ``None`` when the store is absent, unreadable, or predates
    the digest field — callers treat all three as "unknown config" and
    rebuild rather than trust.
    """
    try:
        meta = json.loads((Path(directory) / _META_NAME).read_text())
    except (OSError, json.JSONDecodeError, ValueError):
        return None
    digest = meta.get("config_digest")
    return digest if isinstance(digest, str) else None


# ----------------------------------------------------------------------
# per-config store layout (the tuner's `--kernel-cache` extension)
# ----------------------------------------------------------------------

#: Pointer file naming the active tuned config inside a kernel cache.
TUNED_POINTER_NAME = "tuned.json"


def config_store_dir(cache_dir, digest: str) -> str:
    """``<cache_dir>/cfg-<digest12>`` — one store per kernel config."""
    return os.path.join(str(cache_dir), f"cfg-{digest[:12]}")


def read_tuned_pointer(cache_dir) -> Optional[dict]:
    """The active tuned-config pointer, or ``None`` when untuned/damaged.

    A well-formed pointer is ``{"digest": <full config digest>, ...}``;
    anything unreadable is treated as absent — the scheduler then falls
    back to the default ``static/`` entry (digest-verified itself), so a
    torn pointer can cost a rebuild but never a stale kernel.
    """
    try:
        pointer = json.loads(
            (Path(str(cache_dir)) / TUNED_POINTER_NAME).read_text()
        )
    except (OSError, json.JSONDecodeError, ValueError):
        return None
    if not isinstance(pointer, dict) or \
            not isinstance(pointer.get("digest"), str):
        return None
    return pointer


def write_tuned_pointer(cache_dir, digest: str,
                        config: Optional[dict] = None) -> None:
    """Atomically point the cache at ``cfg-<digest12>`` (tmp + rename)."""
    root = Path(cache_dir)
    root.mkdir(parents=True, exist_ok=True)
    payload = {"digest": str(digest)}
    if config is not None:
        payload["config"] = dict(config)
    tmp = root / (TUNED_POINTER_NAME + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, root / TUNED_POINTER_NAME)


def clear_tuned_pointer(cache_dir) -> None:
    """Drop the pointer (revert to the default ``static/`` entry)."""
    try:
        os.unlink(os.path.join(str(cache_dir), TUNED_POINTER_NAME))
    except OSError:
        pass


def _corrupt(directory, msg: str, artifacts=()) -> IndexCorruptionError:
    return IndexCorruptionError(
        f"{directory}: {msg}", directory=str(directory),
        artifacts=tuple(sorted(artifacts)),
    )


def save_kernel(directory, kernel: GirKernelRRQ) -> dict:
    """Persist a built kernel for O(mmap) reload; returns a size report.

    The write is crash-safe with the same contract as the index store:
    artifacts land atomically and the checksum manifest is written
    last, so a reader at any instant sees a consistent or *provably*
    inconsistent directory, never a torn one.
    """
    core = kernel.core
    arrays: Dict[str, np.ndarray] = {
        "P": kernel.P, "W": core.W,
        # The core's rows are in its sweep order; packing them as
        # swept, and the float32 copies as cast, keeps the load free
        # of any sort, gather or ``astype``.
        "P_swept": core.P,
        "pa": np.asarray(kernel.PA, dtype=np.int64),
        "wa": np.asarray(kernel.WA, dtype=np.int64),
    }
    if core.filter_dtype == "float32":
        arrays.update({"P_swept32": core.P32, "W32": core.W32})
    blob, layout = _pack_blob(arrays)
    meta = {
        "version": _FORMAT_VERSION,
        "dim": int(core.P.shape[1]),
        "n_products": int(core.P.shape[0]),
        "n_weights": int(core.W.shape[0]),
        "value_range": float(kernel.products.value_range),
        "alpha_p": kernel.grid.alpha_p.tolist(),
        "alpha_w": kernel.grid.alpha_w.tolist(),
        "w_block": core.w_block,
        "p_block": core.p_block,
        "use_domin": core.use_domin,
        "filter_dtype": core.filter_dtype,
        "config_digest": config_digest_of(kernel),
        "arrays": layout,
    }
    payloads: Dict[str, bytes] = {
        _BLOB_NAME: blob,
        _META_NAME: json.dumps(meta, indent=2).encode(),
    }
    files = write_manifest_dir(directory, payloads,
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


def load_kernel(directory, mmap: bool = True, verify: str = "size",
                expected_digest: Optional[str] = None) -> GirKernelRRQ:
    """Load a kernel saved by :func:`save_kernel` as zero-copy mmap views.

    ``verify="size"`` (default) checks the manifest and per-file byte
    counts without touching array data; ``verify="full"`` additionally
    CRC-checks every byte.  ``mmap=False`` materializes the arrays in
    RAM (useful when the store lives on slow storage and will be hit
    hard).  Raises :class:`IndexCorruptionError` on damage, or — when
    ``expected_digest`` is given — when the store's recorded
    ``config_digest`` is missing or different (a kernel built under a
    different grid config; callers refuse it and rebuild).
    """
    path = Path(directory)
    meta = _check_store(path, verify)
    if expected_digest is not None:
        recorded = meta.get("config_digest")
        if recorded != expected_digest:
            raise _corrupt(
                path,
                "kernel store was built under a different grid config "
                f"(recorded digest {recorded!r}, expected "
                f"{expected_digest!r}) — refusing stale kernel",
                [_META_NAME],
            )
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
    from ..algorithms.base import RRQAlgorithm
    RRQAlgorithm.__init__(kernel, products, weights)
    grid = GridIndex(np.asarray(meta["alpha_p"], dtype=np.float64),
                     np.asarray(meta["alpha_w"], dtype=np.float64))
    kernel.grid = grid
    kernel.p_quantizer = Quantizer(grid.alpha_p)
    kernel.w_quantizer = Quantizer(grid.alpha_w)
    kernel.PA = arrays["pa"]
    kernel.WA = arrays["wa"]
    # Handed its float32 copies, the constructor neither casts nor
    # probes: the saved store carries the results of both.
    kernel.core = KernelCore(
        arrays["P_swept"], arrays["W"],
        w_block=int(meta["w_block"]), p_block=int(meta["p_block"]),
        use_domin=bool(meta["use_domin"]),
        filter_dtype=meta["filter_dtype"],
        P32=arrays.get("P_swept32"), W32=arrays.get("W32"),
    )
    kernel.last_stats = None
    return kernel
