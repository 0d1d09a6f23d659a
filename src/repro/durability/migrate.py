"""One-shot migration of a flat-format durability directory.

A directory written by the earlier *flat* engine — whole-state
``snapshot-<lsn>/`` dumps behind a root ``CURRENT`` pointer, and a WAL
whose ``compact`` records renumber ids — is rewritten for the segment
store once, at the top of the open that finds it::

    snapshot-<lsn>/ (checksummed) + WAL tail replayed over plain
    row/alive lists  ->  fresh segments/  ->  load_state_arrays  ->
    checkpoint(last_lsn)  ->  engine.json says "segmented" (the commit
    point, fault site ``migrate.commit``)  ->  drop CURRENT, snapshot-*

Until the commit the flat files stay authoritative: a re-open wipes
``segments/`` and starts over.  The WAL is left alone: replay skips what
is at or below the new store barrier, the next checkpoint truncates it.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Optional

import numpy as np

from ..core.storage import verify_manifest_dir
from ..data.io import atomic_write_bytes, load_matrix
from ..errors import IndexCorruptionError, InvalidParameterError
from ..storage import CURRENT_NAME, SegmentStore
from .wal import read_wal, wal_path

_SNAPSHOT_GLOB = "snapshot-*"
_PARAM_KEYS = ("dim", "value_range", "partitions")
_SIDES = ("product", "weight")


def _write_json(path: Path, body: dict, site: Optional[str] = None) -> None:
    atomic_write_bytes(
        path, json.dumps(body, indent=2, sort_keys=True).encode(), site=site)


def _load_flat_snapshot(base: Path, state: dict) -> int:
    """Load the committed flat snapshot into ``state``; returns its LSN
    (0 without one).  Damage to the pointer or to any artifact is
    acknowledged state gone: refuse, never start empty."""
    pointer = base / CURRENT_NAME
    if not pointer.exists():
        return 0
    try:
        snap_dir = base / json.loads(pointer.read_bytes())["snapshot"]
    except (ValueError, KeyError, TypeError, OSError):
        raise IndexCorruptionError(
            f"{base}: {CURRENT_NAME} is unreadable — the snapshot commit "
            "pointer itself is damaged",
            directory=str(base), artifacts=(CURRENT_NAME,),
        ) from None
    report = verify_manifest_dir(snap_dir)
    if not report["ok"]:
        raise IndexCorruptionError(
            f"{snap_dir}: committed snapshot failed verification "
            f"({', '.join(sorted(report['damaged']))}) — restore from the "
            "standby or a backup",
            directory=str(snap_dir),
            artifacts=tuple(sorted(report["damaged"])),
        )
    meta = json.loads((snap_dir / "snapshot.meta").read_text())
    for side, matrix, mask, count in (
            ("product", "products.mat", "palive.bin", meta["rows_p"]),
            ("weight", "weights.mat", "walive.bin", meta["rows_w"])):
        bits = np.unpackbits(
            np.frombuffer((snap_dir / mask).read_bytes(), dtype=np.uint8))
        state[side] = (list(load_matrix(snap_dir / matrix)),
                       [bool(b) for b in bits[:count]])
    return int(meta["lsn"])


def _replay(state: dict, op: str, data: dict) -> None:
    """Apply one flat WAL record to ``state``: per side, the rows in id
    order and their liveness, plus the engine ``params``."""
    verb, _, side = op.partition("_")
    if verb in ("insert", "delete", "modify") and side in _SIDES:
        rows, alive = state[side]
        if verb != "insert":
            alive[int(data["index"])] = False
        if verb != "delete":
            row = np.asarray(data["vector"], dtype=np.float64)
            if data.get("renormalize"):
                row = row / float(row.sum())
            rows.append(row)
            alive.append(True)
    elif op == "compact":  # the flat engine renumbered the survivors
        for side in _SIDES:
            kept = [row for row, live in zip(*state[side]) if live]
            state[side] = (kept, [True] * len(kept))
    elif op == "reset":
        state["params"] = {key: data["params"][key] for key in _PARAM_KEYS}
        for side in _SIDES:
            state[side] = ([np.asarray(row, dtype=np.float64)
                            for row in data[side + "s"]],
                           [bool(live) for live in data[side[0] + "_alive"]])
    elif op != "rebuild":  # re-spanned the flat grid: no logical change
        raise InvalidParameterError(f"unknown WAL op {op!r}")


def _drop_flat_files(base: Path) -> None:
    (base / CURRENT_NAME).unlink(missing_ok=True)
    for entry in base.glob(_SNAPSHOT_GLOB):
        shutil.rmtree(entry, ignore_errors=True)


def migrate_flat_directory(base: Path, params_file: Path,
                           seg_dir: Path) -> bool:
    """Rewrite ``base`` for the segment store if it is flat: if
    ``engine.json`` says so or, lacking the key, if it holds a root
    ``CURRENT`` / ``snapshot-*`` / WAL and no store manifest.  Returns
    whether a migration ran."""
    try:
        body = json.loads(params_file.read_text())
        backend = body.get("backend")
    except (OSError, ValueError, AttributeError):
        return False  # fresh, or malformed: the engine's loader reports it
    if backend is None:
        flat_files = ((base / CURRENT_NAME).exists()
                      or any(base.glob(_SNAPSHOT_GLOB))
                      or wal_path(base).exists())
        if not flat_files or (seg_dir / CURRENT_NAME).exists():
            return False
        # Pin the verdict before segments/ exists, or an interrupted
        # attempt would read as a segmented directory on the next open.
        body["backend"] = backend = "flat"
        _write_json(params_file, body)
    if backend != "flat":
        _drop_flat_files(base)  # a migration that died after its commit
        return False
    shutil.rmtree(seg_dir, ignore_errors=True)  # an interrupted attempt
    state = {"params": {key: body[key] for key in _PARAM_KEYS},
             "product": ([], []), "weight": ([], [])}
    lsn = _load_flat_snapshot(base, state)
    for record in read_wal(wal_path(base))[0]:
        if record.lsn > lsn:
            _replay(state, record.op, record.data)
            lsn = record.lsn
    store = SegmentStore(directory=seg_dir, **state["params"])
    store.load_state_arrays(*state["product"], *state["weight"])
    store.checkpoint(lsn)
    body.update(state["params"], backend="segmented")
    body.pop("chunk", None)  # the flat engine's scan knob: never rewritten
    _write_json(params_file, body, site="migrate.commit")
    _drop_flat_files(base)
    return True
