"""Store manifests — the atomic commit point of the segment store.

A manifest is one JSON document naming the complete store state as of a
WAL barrier: the ordered segment list, the dead sets (every delete with
``lsn <= manifest.lsn`` whose target row still physically exists), the
next free global ids, and the store parameters.  Commit protocol:

1. write ``MANIFEST-<generation>.json`` (self-checksummed: a CRC32 over
   its canonical body is embedded in the document) via temp + fsync +
   rename;
2. flip the tiny ``CURRENT`` pointer file onto it — **the** commit
   point (fault site ``storage.manifest.current``).

A SIGKILL anywhere in between leaves either the old manifest (the new
file is an orphan, swept on recovery) or the new one — never a torn
state.  Readers resolve ``CURRENT`` exactly once per recovery; a
corrupt pointer, manifest, or checksum raises a structured
:class:`~repro.errors.IndexCorruptionError` instead of loading garbage.

Invariant worth stating twice (the WAL-replay contract): the dead sets
recorded here only ever reflect deletes **at or before** ``lsn``.
Deletes after the barrier live in the delta and are reconstructed by
WAL tail replay — which is exactly why compaction, which runs between
barriers, must drop manifest-dead rows only and leave ``lsn``
untouched.

The module also owns the directory-manifest protocol every other
checksummed artifact set commits through — the static index and its
kernel arrays (:func:`repro.core.storage.save_index`), a sealed segment,
a stand-alone kernel store: :func:`write_manifest_dir` lands each file
atomically and writes ``MANIFEST.json`` (per-file byte counts and
CRC32s) last, and :func:`verify_manifest_dir` checks a directory
against it without parsing any artifact.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional

from ..data.io import atomic_write_bytes
from ..errors import IndexCorruptionError

#: Format tag in every manifest.
MANIFEST_FORMAT = "rrq-store-manifest-v1"

#: Pointer file naming the live manifest (the commit point).
CURRENT_NAME = "CURRENT"

#: Fault sites (see repro.resilience.faults).
SITE_MANIFEST_WRITE = "storage.manifest.write"
SITE_MANIFEST_CURRENT = "storage.manifest.current"


def manifest_name(generation: int) -> str:
    return f"MANIFEST-{int(generation):08d}.json"


def _canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _crc32(data: bytes) -> str:
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


# ----------------------------------------------------------------------
# directory manifests (the static index, segments, kernel stores)
# ----------------------------------------------------------------------

#: The commit point of a manifest directory.
DIR_MANIFEST_NAME = "MANIFEST.json"
_DIR_MANIFEST_FORMAT = 1


def write_manifest_dir(directory, payloads: Dict[str, bytes],
                       site_prefix: str = "storage.write") -> Dict[str, dict]:
    """Write ``payloads`` atomically into ``directory``, manifest last.

    Each artifact lands via temp-file + fsync + rename (fault site
    ``<site_prefix>.<name>``), and ``MANIFEST.json`` — per-file byte
    counts and CRC32 checksums — is written only after every artifact it
    describes is durably in place.  Returns the per-file manifest
    entries.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, data in payloads.items():
        atomic_write_bytes(path / name, data, site=f"{site_prefix}.{name}")
        files[name] = {"bytes": len(data), "crc32": _crc32(data)}
    manifest = {
        "format": _DIR_MANIFEST_FORMAT,
        "checksum": "crc32",
        "files": files,
    }
    atomic_write_bytes(
        path / DIR_MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
        site=f"{site_prefix}.{DIR_MANIFEST_NAME}",
    )
    return files


def read_manifest_dir(directory) -> dict:
    """Parse ``MANIFEST.json``; a malformed one raises
    :class:`IndexCorruptionError` naming it."""
    path = Path(directory)
    try:
        manifest = json.loads((path / DIR_MANIFEST_NAME).read_bytes())
    except (json.JSONDecodeError, ValueError):
        raise IndexCorruptionError(
            f"{path}: {DIR_MANIFEST_NAME} is not valid JSON "
            "(corrupted manifest)",
            directory=str(path), artifacts=(DIR_MANIFEST_NAME,),
        ) from None
    if manifest.get("format") != _DIR_MANIFEST_FORMAT or \
            not isinstance(manifest.get("files"), dict):
        raise IndexCorruptionError(
            f"{path}: unsupported or malformed manifest",
            directory=str(path), artifacts=(DIR_MANIFEST_NAME,),
        )
    return manifest


def verify_manifest_dir(directory) -> dict:
    """Check every artifact in ``directory`` against its manifest.

    Returns ``{"ok": bool, "manifest": "ok"|"missing"|"corrupt",
    "artifacts": {name: status}, "damaged": [...]}`` without parsing any
    artifact — pure presence + checksum verification.
    """
    path = Path(directory)
    report: dict = {"ok": False, "manifest": "ok",
                    "artifacts": {}, "damaged": []}
    if not (path / DIR_MANIFEST_NAME).exists():
        report["manifest"] = "missing"
        report["damaged"] = [DIR_MANIFEST_NAME]
        return report
    try:
        manifest = read_manifest_dir(path)
    except IndexCorruptionError:
        report["manifest"] = "corrupt"
        report["damaged"] = [DIR_MANIFEST_NAME]
        return report
    for name, entry in manifest["files"].items():
        target = path / name
        if not target.exists():
            status = "missing"
        else:
            data = target.read_bytes()
            status = ("ok" if _crc32(data) == entry.get("crc32")
                      and len(data) == entry.get("bytes") else "corrupt")
        report["artifacts"][name] = status
        if status != "ok":
            report["damaged"].append(name)
    report["ok"] = not report["damaged"]
    return report


def write_manifest(directory, generation: int, lsn: int, segments: List[str],
                   dead_products, dead_weights, next_pid: int, next_wid: int,
                   params: dict) -> str:
    """Write manifest ``generation`` and flip ``CURRENT`` onto it.

    Returns the manifest file name.  The two writes are individually
    atomic; only the ``CURRENT`` flip commits.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    body = {
        "format": MANIFEST_FORMAT,
        "generation": int(generation),
        "lsn": int(lsn),
        "segments": list(segments),
        "dead_products": sorted(int(i) for i in dead_products),
        "dead_weights": sorted(int(i) for i in dead_weights),
        "next_pid": int(next_pid),
        "next_wid": int(next_wid),
        "params": params,
    }
    body["crc32"] = _crc32(_canonical(body))
    name = manifest_name(generation)
    atomic_write_bytes(path / name,
                       json.dumps(body, indent=2, sort_keys=True).encode(),
                       site=SITE_MANIFEST_WRITE)
    pointer = {"manifest": name, "generation": int(generation)}
    atomic_write_bytes(path / CURRENT_NAME,
                       json.dumps(pointer, sort_keys=True).encode(),
                       site=SITE_MANIFEST_CURRENT)
    return name


def load_manifest_file(path) -> dict:
    """Parse + checksum-verify one manifest file."""
    path = Path(path)
    try:
        body = json.loads(path.read_text())
    except (ValueError, OSError) as exc:
        raise IndexCorruptionError(
            f"store manifest {path.name} is unreadable: {exc}"
        ) from exc
    if body.get("format") != MANIFEST_FORMAT:
        raise IndexCorruptionError(
            f"store manifest {path.name}: unknown format "
            f"{body.get('format')!r}"
        )
    recorded = body.pop("crc32", None)
    if recorded != _crc32(_canonical(body)):
        raise IndexCorruptionError(
            f"store manifest {path.name}: checksum mismatch "
            f"(recorded {recorded!r})"
        )
    body["crc32"] = recorded
    return body


def read_current_manifest(directory) -> Optional[dict]:
    """Resolve ``CURRENT`` → verified manifest body, or None if absent.

    Any inconsistency past the existence check — unparsable pointer,
    missing or corrupt manifest — raises ``IndexCorruptionError``: a
    store that *has* a commit pointer must resolve it completely.
    """
    path = Path(directory)
    current = path / CURRENT_NAME
    if not current.exists():
        return None
    try:
        pointer = json.loads(current.read_text())
        name = pointer["manifest"]
    except (ValueError, KeyError, OSError) as exc:
        raise IndexCorruptionError(
            f"store CURRENT pointer is unreadable: {exc}"
        ) from exc
    target = path / name
    if not target.exists():
        raise IndexCorruptionError(
            f"store CURRENT points at missing manifest {name}"
        )
    return load_manifest_file(target)


def sweep_store_orphans(directory, manifest: Optional[dict]) -> List[str]:
    """Delete segment dirs and manifest files the live manifest disowns.

    Called on **recovery only** (no snapshot can be pinned yet): anything
    a crash stranded — a half-sealed segment directory, a written-but-
    never-committed manifest — is removed so disk usage cannot creep
    across crash loops.  Live retirement goes through the store's
    refcounts instead, so a pinned reader keeps its files until release.
    Returns the removed names.
    """
    import shutil

    path = Path(directory)
    if not path.exists():
        return []
    keep_segments = set(manifest["segments"]) if manifest else set()
    keep_manifest = manifest_name(manifest["generation"]) if manifest else None
    removed: List[str] = []
    for entry in sorted(path.iterdir()):
        if entry.name == CURRENT_NAME:
            continue
        if entry.is_dir() and entry.name.startswith("seg-"):
            if entry.name not in keep_segments:
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry.name)
        elif entry.name.startswith("MANIFEST-"):
            if entry.name != keep_manifest:
                entry.unlink(missing_ok=True)
                removed.append(entry.name)
        elif entry.name.endswith(".tmp"):
            entry.unlink(missing_ok=True)
            removed.append(entry.name)
    return removed
