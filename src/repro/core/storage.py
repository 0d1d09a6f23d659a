"""Crash-safe persistence for a built Grid-index (Section 3.2's storage story).

A deployed reverse-rank-query service pre-computes the approximate vector
sets ``P^(A)`` / ``W^(A)`` once and ships them alongside the raw data; at
query time only the small grid has to be rebuilt (it is an outer product
of two boundary vectors).  This module serializes everything a
:class:`~repro.core.gir.GridIndexRRQ` needs into one directory:

* ``products.rrq`` / ``weights.rrq`` — the raw data (``repro.data.io``);
* ``pa.rrqa`` / ``wa.rrqa`` — the bit-packed approximate vectors
  (``b = ceil(log2 n)`` bits per component, the Section 3.2 encoding);
* ``grid.meta`` — boundary vectors and parameters, as JSON;
* ``kernel.bin`` / ``kernel.meta`` — the blocked kernel's arrays
  (:mod:`repro.vectorized.kernelstore`): all a static server reads.
  ``QueryService.from_index_dir`` maps them and never calls
  :func:`load_index`;
* ``MANIFEST.json`` — per-file CRC32 checksums, **written last**
  (:func:`repro.storage.manifest.write_manifest_dir`).

Crash safety contract
---------------------
Every artifact lands via an atomic write-to-temp-then-rename
(:func:`repro.data.io.atomic_write_bytes`), and the manifest is the
commit point: it is only written after every artifact it describes is
durably in place.  A crash at any instant therefore leaves the directory
in one of three detectable states — old index, new index, or *provably
inconsistent* (checksum mismatch / missing file), never a
loadable-but-wrong index.  The chaos suite (``tests/chaos/``) drives
torn writes and byte corruption through the fault-injection hooks to
enforce exactly that.

On load, every artifact is verified against the manifest; a mismatch
raises a structured :class:`~repro.errors.IndexCorruptionError` naming
the damaged artifacts.  When only the *derived* artifacts
(``pa.rrqa`` / ``wa.rrqa`` / the kernel's) are damaged the index is
**recoverable**:
``load_index(directory, recover=True)`` rebuilds them from the raw data
(quantization is deterministic) and heals the directory in place.

Directories written before the manifest existed (format v1 without
``MANIFEST.json``) still load; they just fall back to the original
deep check (decoded approximate vectors must match a fresh quantization
of the raw data).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ..data.io import (
    approx_to_bytes,
    load_approx,
    load_products,
    load_weights,
    products_to_bytes,
    weights_to_bytes,
)
from ..errors import DataValidationError, IndexCorruptionError
from ..resilience.faults import fire
from ..storage.manifest import (
    DIR_MANIFEST_NAME as _MANIFEST_NAME,
    verify_manifest_dir,
    write_manifest_dir,
)
from ..vectorized.girkernel import GirKernelRRQ
from ..vectorized.kernelstore import kernel_payloads
from .approx import bits_needed
from .gir import GridIndexRRQ
from .grid import GridIndex

PathLike = Union[str, Path]

_META_NAME = "grid.meta"
_FORMAT_VERSION = 1

#: The Grid-index proper: what :func:`load_index` reads.
_GRID_ARTIFACTS = ("products.rrq", "weights.rrq", "pa.rrqa", "wa.rrqa",
                   _META_NAME)

#: Artifacts listed in the manifest, in write order: the Grid-index,
#: then the kernel arrays a static server maps.
ARTIFACT_NAMES = _GRID_ARTIFACTS + ("kernel.bin", "kernel.meta")

#: Artifacts derivable from the raw data — damage here is recoverable.
REBUILDABLE = frozenset({"pa.rrqa", "wa.rrqa", "kernel.bin", "kernel.meta"})


def _artifact_payloads(gir: GridIndexRRQ) -> Dict[str, bytes]:
    """Serialize every index artifact to bytes (the save/heal unit)."""
    bits = bits_needed(gir.partitions)
    meta = {
        "version": _FORMAT_VERSION,
        "partitions": gir.partitions,
        "bits": bits,
        "chunk": gir.chunk,
        "use_domin": gir.use_domin,
        "alpha_p": gir.grid.alpha_p.tolist(),
        "alpha_w": gir.grid.alpha_w.tolist(),
    }
    return {
        "products.rrq": products_to_bytes(gir.products),
        "weights.rrq": weights_to_bytes(gir.weights),
        "pa.rrqa": approx_to_bytes(gir.PA.astype(np.int64), bits),
        "wa.rrqa": approx_to_bytes(gir.WA.astype(np.int64), bits),
        _META_NAME: json.dumps(meta, indent=2).encode(),
        # What a static server maps (``QueryService.from_index_dir``):
        # the kernel over the same rows, with the index's ``use_domin``.
        **kernel_payloads(GirKernelRRQ.from_gir(gir)),
    }


def save_index(directory: PathLike, gir: GridIndexRRQ) -> dict:
    """Persist a built GIR index; returns a manifest of bytes written.

    Artifacts are written atomically in a fixed order and the checksum
    manifest last — the commit point.  Re-saving over an existing index
    is safe: a reader (or a crash) at any instant sees a consistent or
    provably inconsistent directory, never a torn file.
    """
    path = Path(directory)
    files = write_manifest_dir(path, _artifact_payloads(gir))
    return {
        "products_bytes": files["products.rrq"]["bytes"],
        "weights_bytes": files["weights.rrq"]["bytes"],
        "pa_bytes": files["pa.rrqa"]["bytes"],
        "wa_bytes": files["wa.rrqa"]["bytes"],
        "meta_bytes": files[_META_NAME]["bytes"],
        "kernel_bytes": (files["kernel.bin"]["bytes"]
                         + files["kernel.meta"]["bytes"]),
        "manifest_bytes": (path / _MANIFEST_NAME).stat().st_size,
    }


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


def verify_index(directory: PathLike) -> dict:
    """Check every artifact against the manifest without loading the index.

    Returns a JSON-ready report::

        {"ok": bool, "manifest": "ok"|"missing"|"corrupt",
         "artifacts": {name: "ok"|"missing"|"corrupt"},
         "damaged": [...], "recoverable": bool}

    ``recoverable`` is True when every damaged artifact can be rebuilt
    from the (intact) raw data.  Legacy directories without a manifest
    report ``manifest: "missing"`` and only presence checks.
    """
    path = Path(directory)
    if not (path / _MANIFEST_NAME).exists():
        report: dict = {"ok": False, "manifest": "missing",
                        "artifacts": {}, "damaged": [],
                        "recoverable": False}
        for name in _GRID_ARTIFACTS:  # older than the kernel arrays
            status = "ok" if (path / name).exists() else "missing"
            report["artifacts"][name] = status
            if status != "ok":
                report["damaged"].append(name)
    else:
        report = verify_manifest_dir(path)
        report["recoverable"] = False
        if report["manifest"] == "corrupt":
            report["artifacts"] = {name: "unverified"
                                   for name in ARTIFACT_NAMES}
            return report
    report["ok"] = not report["damaged"]
    report["recoverable"] = bool(report["damaged"]) and \
        set(report["damaged"]) <= REBUILDABLE
    return report


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def _gir_from_parts(products, weights, meta: dict) -> GridIndexRRQ:
    grid = GridIndex(np.asarray(meta["alpha_p"]), np.asarray(meta["alpha_w"]))
    return GridIndexRRQ(
        products,
        weights,
        partitions=meta["partitions"],
        grid=grid,
        chunk=int(meta["chunk"]),
        use_domin=bool(meta["use_domin"]),
    )


def _load_meta(path: Path) -> dict:
    meta_path = path / _META_NAME
    try:
        meta = json.loads(meta_path.read_text())
    except (json.JSONDecodeError, ValueError):
        raise IndexCorruptionError(
            f"{path}: {_META_NAME} is not valid JSON",
            directory=str(path), artifacts=(_META_NAME,),
        ) from None
    if meta.get("version") != _FORMAT_VERSION:
        raise DataValidationError(
            f"{path}: unsupported index version {meta.get('version')}"
        )
    return meta


def load_index(directory: PathLike, recover: bool = False) -> GridIndexRRQ:
    """Load a GIR index saved by :func:`save_index`, with integrity checks.

    Parameters
    ----------
    directory:
        The index directory.
    recover:
        When True and corruption is confined to the derived artifacts
        (``pa.rrqa`` / ``wa.rrqa``), rebuild them from the raw data and
        heal the directory in place instead of raising.

    Raises
    ------
    DataValidationError
        Not an index directory, or a legacy (manifest-less) directory
        failed its deep consistency check.
    IndexCorruptionError
        A manifest checksum failed.  ``exc.recoverable`` tells whether
        ``recover=True`` would have succeeded; ``exc.artifacts`` names
        the damage.
    """
    path = Path(directory)
    fire("storage.load")
    if not (path / _META_NAME).exists() and \
            not (path / _MANIFEST_NAME).exists():
        raise DataValidationError(f"{directory}: not an index directory "
                                  f"(missing {_META_NAME})")

    if (path / _MANIFEST_NAME).exists():
        report = verify_index(path)
        if not report["ok"]:
            if recover and report["recoverable"]:
                return _rebuild_derived(path)
            damaged: List[str] = report["damaged"]
            raise IndexCorruptionError(
                f"{directory}: integrity check failed for "
                f"{', '.join(sorted(damaged))} (checksum mismatch or "
                "missing file); "
                + ("rebuildable from raw data with recover=True"
                   if report["recoverable"] else
                   "raw data or metadata damaged — restore from backup or "
                   "rebuild the index from the original data set"),
                directory=str(directory), artifacts=tuple(sorted(damaged)),
                recoverable=report["recoverable"],
            )
    else:
        # Legacy directory: no checksums, so require every artifact to be
        # present (a crashed pre-manifest save must not half-load).
        missing = [name for name in _GRID_ARTIFACTS
                   if not (path / name).exists()]
        if missing:
            raise DataValidationError(
                f"{directory}: incomplete index (missing "
                f"{', '.join(sorted(missing))}); likely an interrupted save"
            )

    meta = _load_meta(path)
    try:
        products = load_products(path / "products.rrq")
        weights = load_weights(path / "weights.rrq")
        pa, _ = load_approx(path / "pa.rrqa")
        wa, _ = load_approx(path / "wa.rrqa")
    except OSError as exc:
        raise IndexCorruptionError(
            f"{directory}: I/O error reading index artifacts ({exc})",
            directory=str(directory),
        ) from exc
    gir = _gir_from_parts(products, weights, meta)

    if not np.array_equal(pa, gir.PA.astype(np.int64)):
        raise DataValidationError(
            f"{directory}: stored P^(A) does not match the raw products "
            "(stale or corrupted index)"
        )
    if not np.array_equal(wa, gir.WA.astype(np.int64)):
        raise DataValidationError(
            f"{directory}: stored W^(A) does not match the raw weights "
            "(stale or corrupted index)"
        )
    return gir


def _rebuild_derived(path: Path) -> GridIndexRRQ:
    """Recovery: rebuild ``pa``/``wa`` from intact raw data + metadata.

    Quantization is deterministic, so the healed artifacts are
    byte-identical to what the original save produced; the whole
    directory (manifest included) is rewritten through the normal
    atomic save path.
    """
    meta = _load_meta(path)
    products = load_products(path / "products.rrq")
    weights = load_weights(path / "weights.rrq")
    gir = _gir_from_parts(products, weights, meta)
    save_index(path, gir)
    return gir


def index_size_report(directory: PathLike) -> dict:
    """Byte sizes of each index component (the Section 3.2 overhead story)."""
    path = Path(directory)
    report = {}
    for name in ARTIFACT_NAMES + (_MANIFEST_NAME,):
        target = path / name
        report[name] = target.stat().st_size if target.exists() else 0
    raw = report["products.rrq"] + report["weights.rrq"]
    approx = report["pa.rrqa"] + report["wa.rrqa"]
    report["approx_over_raw"] = approx / raw if raw else 0.0
    return report
