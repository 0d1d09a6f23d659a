"""``DurableDynamicRRQ``: the log-before-apply wrapper around the
segment store.

Every mutation follows the same three-step dance, serialized under one
reentrant lock shared with the query path::

    validate  ->  WAL append (+fsync per policy)  ->  apply in memory
                  ^^^^^^^^^^ the acknowledgment point

A mutation is acknowledged to the caller only after its record is in
the log, so a crash at any instant loses *at most* unacknowledged work;
recovery reopens the store at its committed manifest barrier, replays
the WAL tail (records at or below the barrier are skipped — replay is
idempotent by LSN), drops a torn trailing record, and refuses with
:class:`~repro.errors.WalCorruptionError` on mid-log damage.  A
directory still in the earlier flat format (``snapshot-*/`` behind a
root ``CURRENT``) is refused.

Replication rides the same log: the engine retains recent records in
memory and serves them through :meth:`replication_feed`; a standby that
has fallen behind the retained window (or starts empty) receives a
``reset`` record carrying the full state, then tails incrementally.
:meth:`apply_replicated` is the standby half — it persists the
primary's records under the primary's LSNs into the standby's own WAL
before applying them, so a promoted standby is itself durable.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, List, Optional, Tuple, Union

import numpy as np

from ..data.datasets import as_vector
from ..data.io import atomic_write_bytes
from ..errors import (
    DataValidationError,
    IndexCorruptionError,
    InvalidParameterError,
    WalCorruptionError,
)
from ..obs.trace import span
from ..resilience.faults import fire
from ..storage import (
    CURRENT_NAME,
    DEFAULT_SEAL_ROWS,
    SegmentStore,
    read_current_manifest,
)
from .wal import WalRecord, WalWriter, read_wal, wal_path

PathLike = Union[str, Path]

_PARAMS_NAME = "engine.json"

#: Subdirectory the engine keeps its segment store in.
SEGMENTS_DIRNAME = "segments"

#: Every op the WAL may carry (``reset`` is the full-state transfer).
#: Compaction is physical on the store and never logged.
WAL_OPS = ("insert_product", "delete_product", "modify_product",
           "insert_weight", "delete_weight", "modify_weight", "reset")

#: How many applied records are retained in memory for the feed.
DEFAULT_FEED_RETAIN = 65536

#: Most records one ``replication_feed`` response returns.
DEFAULT_FEED_BATCH = 512


def _engine_params(body: dict) -> dict:
    """The store parameters out of an ``engine.json`` body or a ``reset``
    record; whatever else an older writer put there is ignored."""
    return {"dim": int(body["dim"]),
            "value_range": float(body["value_range"]),
            "partitions": int(body["partitions"])}


def _vector_list(row: np.ndarray) -> List[float]:
    """Exact JSON encoding of one vector (Python float repr round-trips)."""
    return [float(x) for x in row]


class DurableDynamicRRQ:
    """A :class:`~repro.storage.SegmentStore` whose mutations survive
    crashes.

    Parameters
    ----------
    directory:
        The durability directory (WAL + ``segments/`` + params).  When
        it already holds state, recovery runs and the constructor's
        engine parameters are ignored in favor of the persisted ones.
    dim:
        Required when creating a fresh directory.
    fsync:
        WAL fsync policy — ``always`` (acknowledged writes survive power
        loss), ``interval`` (survive process death; a machine crash may
        lose the last interval), ``never`` (flush to the OS only).
    snapshot_every:
        Checkpoint automatically after this many applied mutations
        (0 disables; :meth:`snapshot` is always available manually).
    backend:
        Deprecated: there is one backend.  ``"segmented"`` is still
        accepted because the frozen end-to-end benchmark passes it;
        anything else raises :class:`InvalidParameterError`.
    seal_every:
        Seal the delta into a new segment once it holds this many
        buffered mutations (0 disables auto-seal).
    auto_compact:
        Run the background compactor thread.
    """

    method = "durable-dynamic"

    def __init__(self, directory: PathLike, dim: Optional[int] = None,
                 value_range: float = 1.0, partitions: int = 32,
                 fsync: str = "always", fsync_interval_s: float = 0.05,
                 snapshot_every: int = 0,
                 feed_retain: int = DEFAULT_FEED_RETAIN,
                 backend: str = "segmented",
                 seal_every: int = DEFAULT_SEAL_ROWS,
                 auto_compact: bool = True):
        if backend != "segmented":
            raise InvalidParameterError(
                f"unknown storage backend {backend!r}: the segment store "
                "is the only one"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock = threading.RLock()
        self._fsync_policy = fsync
        self._fsync_interval_s = fsync_interval_s
        self.snapshot_every = max(0, int(snapshot_every))
        self.seal_every = max(0, int(seal_every))
        self._auto_compact = bool(auto_compact)
        self.snapshots_taken = 0
        self.replayed_records = 0
        self.replay_time_s = 0.0
        self.snapshot_lsn = 0
        self._mutations_since_snapshot = 0
        self._feed: Deque[WalRecord] = deque(maxlen=max(1, int(feed_retain)))

        self._refuse_flat()
        params = self._load_params()
        if params is None:
            if dim is None:
                raise InvalidParameterError(
                    f"{self.directory} holds no engine state and no 'dim' "
                    "was given to create one"
                )
            params = _engine_params({"dim": dim, "value_range": value_range,
                                     "partitions": partitions})
            self._write_params(params)
        self.params = params
        self.engine = self._open_store(params)
        self._recover()
        if self._auto_compact:
            self.engine.start_compactor()

    # ------------------------------------------------------------------
    # construction / recovery
    # ------------------------------------------------------------------

    def _params_path(self) -> Path:
        return self.directory / _PARAMS_NAME

    def _refuse_flat(self) -> None:
        """Refuse a directory in the flat format: ``engine.json`` says
        ``flat``, or (older than that key) a root ``CURRENT`` /
        ``snapshot-*`` / WAL with no store manifest."""
        base = self.directory
        try:
            backend = json.loads(self._params_path().read_text()).get(
                "backend")
        except (OSError, ValueError, AttributeError):
            return  # fresh, or malformed: _load_params reports it
        flat = backend == "flat" or (
            backend is None
            and not (base / SEGMENTS_DIRNAME / CURRENT_NAME).exists()
            and ((base / CURRENT_NAME).exists()
                 or any(base.glob("snapshot-*"))
                 or wal_path(base).exists()))
        if flat:
            raise DataValidationError(
                f"{base}: a flat-format durability directory (snapshot-*/ "
                "behind a root CURRENT); only the segment store is read "
                "now.  Commit b548621 is the last that reads this format: "
                "export the live rows with it and bootstrap a fresh "
                "--durable directory from them")

    def _load_params(self) -> Optional[dict]:
        target = self._params_path()
        if not target.exists():
            return None
        try:
            body = json.loads(target.read_text())
            params = _engine_params(body)
        except (ValueError, KeyError, TypeError):
            raise DataValidationError(
                f"{target}: malformed engine parameter file"
            ) from None
        if "chunk" in body:  # a scan knob of older files: ignored, dropped
            self._write_params(params)
        return params

    def _write_params(self, params: dict) -> None:
        # The key is what tells this directory from a flat one.
        body = dict(params, backend="segmented")
        atomic_write_bytes(
            self._params_path(),
            json.dumps(body, indent=2, sort_keys=True).encode(),
        )

    def _open_store(self, params: dict) -> SegmentStore:
        """Reopen the directory's store, or create it."""
        seg_dir = self.directory / SEGMENTS_DIRNAME
        if (seg_dir / CURRENT_NAME).exists():
            return SegmentStore.from_directory(seg_dir)
        return SegmentStore(directory=seg_dir, **params)

    def _recover(self) -> None:
        """Committed state + WAL tail replay (LSN-idempotent).

        The store already reopened at its manifest barrier
        (``applied_lsn``); replay reconstructs the delta — the records
        past that barrier — with identical global ids every time.
        """
        started = time.perf_counter()
        applied = self.snapshot_lsn = int(self.engine.applied_lsn)
        records, valid_bytes, _torn = read_wal(wal_path(self.directory))
        self._wal_records: List[WalRecord] = list(records)
        for record in records:
            if record.lsn <= applied:
                continue  # at or below the manifest barrier: already in
            self._apply(record)
            applied = record.lsn
            self.replayed_records += 1
        self._feed.extend(records)
        last_lsn = max(applied,
                       records[-1].lsn if records else 0)
        self._wal = WalWriter(
            wal_path(self.directory),
            fsync=self._fsync_policy,
            fsync_interval_s=self._fsync_interval_s,
            truncate_to=valid_bytes,
            next_lsn=last_lsn + 1,
        )
        self.replay_time_s = time.perf_counter() - started

    @classmethod
    def open(cls, directory: PathLike, **kwargs) -> "DurableDynamicRRQ":
        """Open (recover) or create a durability directory (alias)."""
        return cls(directory, **kwargs)

    @classmethod
    def bootstrap(cls, directory: PathLike, products, weights,
                  partitions: int = 32, fsync: str = "always",
                  snapshot_every: int = 0,
                  backend: str = "segmented") -> "DurableDynamicRRQ":
        """Seed a fresh durability directory from static containers.

        The whole initial state is logged as one ``reset`` record (so a
        standby tailing from LSN 0 receives it) and then sealed by a
        checkpoint, leaving a truncated WAL.
        """
        durable = cls.open(directory, fsync=fsync,
                           snapshot_every=snapshot_every,
                           dim=products.dim,
                           value_range=products.value_range,
                           partitions=partitions, backend=backend)
        if durable.last_lsn:
            return durable  # directory already had history: recover wins
        durable._log_and_apply("reset", {
            "params": durable.params,
            "products": [_vector_list(r) for r in products.values],
            "p_alive": [True] * products.size,
            "weights": [_vector_list(r) for r in weights.values],
            "w_alive": [True] * weights.size,
        })
        durable.snapshot()
        return durable

    # ------------------------------------------------------------------
    # the WAL state machine
    # ------------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the last acknowledged (logged) mutation."""
        if hasattr(self, "_wal"):
            return self._wal.last_lsn
        return 0

    def _validate(self, op: str, data: dict) -> None:
        """Reject a bad mutation *before* it reaches the log.

        Log-before-apply only works if apply cannot fail on anything a
        caller can get wrong; the store's own validators and liveness
        check run here first, so a validation error leaves no record.
        """
        if op not in WAL_OPS:
            raise InvalidParameterError(f"unknown WAL op {op!r}")
        store = self.engine
        if op in ("insert_product", "modify_product"):
            store.validate_product(data["vector"])
        elif op in ("insert_weight", "modify_weight"):
            store.validate_weight(data["vector"],
                                  bool(data.get("renormalize")))
        if "index" in data:  # delete / modify: the target must be live
            view = (store.products if op.endswith("product")
                    else store.weights)
            view[int(data["index"])]

    def _apply(self, record: WalRecord):
        """Apply one (already validated/logged) record to the store."""
        result = self._dispatch(record)
        self.engine.note_lsn(record.lsn)
        return result

    def _dispatch(self, record: WalRecord):
        op, data = record.op, record.data
        if op == "insert_product":
            return self.engine.insert_product(
                np.asarray(data["vector"], dtype=np.float64))
        if op == "delete_product":
            return self.engine.delete_product(int(data["index"]))
        if op == "modify_product":
            return self.engine.modify_product(
                int(data["index"]),
                np.asarray(data["vector"], dtype=np.float64))
        if op == "insert_weight":
            return self.engine.insert_weight(
                np.asarray(data["vector"], dtype=np.float64),
                renormalize=bool(data.get("renormalize", False)))
        if op == "delete_weight":
            return self.engine.delete_weight(int(data["index"]))
        if op == "modify_weight":
            return self.engine.modify_weight(
                int(data["index"]),
                np.asarray(data["vector"], dtype=np.float64),
                renormalize=bool(data.get("renormalize", False)))
        if op == "reset":
            return self._apply_reset(data)
        if op == "rebuild":
            return None  # older logs carry it; it never changed a store
        raise InvalidParameterError(f"unknown WAL op {op!r}")

    def _apply_reset(self, data: dict) -> None:
        params = _engine_params(data["params"])
        if params != self.params:
            listeners = self.engine._change_listeners
            self.params = params
            self._write_params(params)
            # A reset replaces the lineage wholesale: drop the old
            # store directory and start a fresh one (the caller
            # checkpoints right after, recommitting the manifest).
            self.engine.close()
            seg_dir = self.directory / SEGMENTS_DIRNAME
            shutil.rmtree(seg_dir, ignore_errors=True)
            self.engine = SegmentStore(directory=seg_dir, **params)
            if self._auto_compact:
                self.engine.start_compactor()
            self.engine._change_listeners = listeners
        dim = params["dim"]
        products = np.asarray(data["products"],
                              dtype=np.float64).reshape(-1, dim)
        weights = np.asarray(data["weights"],
                             dtype=np.float64).reshape(-1, dim)
        self.engine.load_state_arrays(
            products, np.asarray(data["p_alive"], dtype=bool),
            weights, np.asarray(data["w_alive"], dtype=bool),
        )

    def _log_and_apply(self, op: str, data: dict):
        """validate -> append (ack) -> apply; returns (lsn, apply result)."""
        with self.lock:
            self._validate(op, data)
            with span("wal.append") as sp:
                sp.annotate("op", op)
                record = self._wal.append(op, data)
                sp.annotate("lsn", record.lsn)
            result = self._apply(record)
            self._wal_records.append(record)
            self._feed.append(record)
            self._mutations_since_snapshot += 1
            if self.seal_every and \
                    self.engine.delta_rows() >= self.seal_every:
                # Non-blocking: if the compactor holds the maintenance
                # lock the seal simply waits for a later mutation.
                self.engine.seal(blocking=False)
            if self.snapshot_every and \
                    self._mutations_since_snapshot >= self.snapshot_every:
                self.snapshot()
            return record.lsn, result

    # ------------------------------------------------------------------
    # mutations (the public, acknowledged API)
    # ------------------------------------------------------------------

    def insert_product(self, vector) -> Tuple[int, int]:
        """Durably add a product; returns ``(stable index, lsn)``."""
        lsn, idx = self._log_and_apply(
            "insert_product", {"vector": _vector_list(as_vector(vector))})
        return idx, lsn

    def delete_product(self, index: int) -> int:
        """Durably tombstone a product; returns the mutation's LSN."""
        lsn, _ = self._log_and_apply("delete_product",
                                     {"index": int(index)})
        return lsn

    def insert_weight(self, vector, renormalize: bool = False
                      ) -> Tuple[int, int]:
        """Durably add a preference; returns ``(stable index, lsn)``."""
        lsn, idx = self._log_and_apply(
            "insert_weight",
            {"vector": _vector_list(as_vector(vector)),
             "renormalize": bool(renormalize)})
        return idx, lsn

    def delete_weight(self, index: int) -> int:
        """Durably tombstone a preference; returns the mutation's LSN."""
        lsn, _ = self._log_and_apply("delete_weight", {"index": int(index)})
        return lsn

    def modify_product(self, index: int, vector) -> Tuple[int, int]:
        """Durably replace a product; returns ``(new index, lsn)``.

        Logged as one record, applied as one atomic tombstone+insert —
        no snapshot or replica ever observes the in-between state.
        """
        lsn, idx = self._log_and_apply(
            "modify_product",
            {"index": int(index),
             "vector": _vector_list(as_vector(vector))})
        return idx, lsn

    def modify_weight(self, index: int, vector,
                      renormalize: bool = False) -> Tuple[int, int]:
        """Durably replace a preference; returns ``(new index, lsn)``."""
        lsn, idx = self._log_and_apply(
            "modify_weight",
            {"index": int(index),
             "vector": _vector_list(as_vector(vector)),
             "renormalize": bool(renormalize)})
        return idx, lsn

    def compact(self):
        """Drop tombstones; returns ``(p_map, w_map, lsn)``.

        Purely physical — ids are stable, so nothing is logged and a
        replica compacts on its own schedule: the store seals, merges
        every segment, and the maps give each id itself while live and
        -1 once deleted.  ``lsn`` is the last acknowledged mutation's.
        """
        with self.lock:
            p_map, w_map = self.engine.compact()
            return p_map, w_map, self.last_lsn

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> int:
        """Checkpoint: seal the delta, advance the manifest barrier, then
        truncate the WAL at it.

        Returns the barrier LSN.  Crash-safe at every step: the store's
        ``CURRENT`` pointer flip is the commit point, and replay is
        LSN-idempotent, so a WAL that outlives its checkpoint is
        harmless.
        """
        with self.lock:
            self._wal.sync()
            barrier = self.last_lsn
            self.engine.checkpoint(barrier)
            self._wal.truncate_through(barrier, self._wal_records)
            self._wal_records = [r for r in self._wal_records
                                 if r.lsn > barrier]
            self.snapshots_taken += 1
            self.snapshot_lsn = barrier
            self._mutations_since_snapshot = 0
            return barrier

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def replication_feed(self, since: int,
                         limit: int = DEFAULT_FEED_BATCH) -> dict:
        """Records after LSN ``since`` for a tailing standby.

        When ``since`` predates the retained window (a brand-new or
        long-dead standby) the response instead carries one ``reset``
        record with the full current state at ``last_lsn``; the standby
        adopts it and tails incrementally from there.
        """
        since = int(since)
        if since < 0:
            raise InvalidParameterError("since must be >= 0")
        with self.lock:
            fire("replicate.feed")
            last = self.last_lsn
            first_retained = self._feed[0].lsn if self._feed else last + 1
            if since + 1 < first_retained:
                state = self.engine.state_arrays()
                reset = WalRecord(lsn=last, op="reset", data={
                    "params": dict(self.params),
                    "products": [_vector_list(r)
                                 for r in state["products"]],
                    "p_alive": [bool(x) for x in state["p_alive"]],
                    "weights": [_vector_list(r) for r in state["weights"]],
                    "w_alive": [bool(x) for x in state["w_alive"]],
                })
                return {"reset": True, "last_lsn": last,
                        "records": [{"lsn": reset.lsn, "op": reset.op,
                                     "data": reset.data}]}
            out = [{"lsn": r.lsn, "op": r.op, "data": r.data}
                   for r in self._feed if r.lsn > since][: int(limit)]
            return {"reset": False, "last_lsn": last, "records": out}

    def apply_replicated(self, record: WalRecord) -> bool:
        """Standby apply: persist the primary's record, then apply it.

        Returns False (a no-op) for records at or below the local LSN —
        replaying a feed twice applies each LSN once.  A ``reset``
        record replaces the local lineage wholesale; any other gap in
        LSNs means the standby missed history and must re-sync.
        """
        with self.lock:
            if record.lsn <= self.last_lsn and record.op != "reset":
                return False
            if record.op == "reset":
                if record.lsn < self.last_lsn:
                    return False  # stale full-state transfer
                self._wal.reset_to(record.lsn)
                self._wal.append(record.op, record.data)
                self._wal_records = [record]
                self._feed.clear()
                self._feed.append(record)
                self._apply(record)
                self.snapshot()  # make the adopted state cheap to recover
                return True
            if record.lsn != self.last_lsn + 1:
                raise InvalidParameterError(
                    f"replication gap: got lsn {record.lsn}, expected "
                    f"{self.last_lsn + 1}; standby must re-sync"
                )
            self._wal.append_record(record)  # log-before-apply, as primary
            self._apply(record)
            self._wal_records.append(record)
            self._feed.append(record)
            return True

    # ------------------------------------------------------------------
    # queries / serving facade (delegation under the engine lock)
    # ------------------------------------------------------------------

    @property
    def products(self):
        return self.engine.products

    @property
    def weights(self):
        return self.engine.weights

    @property
    def num_products(self) -> int:
        return self.engine.num_products

    @property
    def num_weights(self) -> int:
        return self.engine.num_weights

    def fragmentation(self) -> float:
        return self.engine.fragmentation()

    def add_change_listener(self, callback) -> None:
        self.engine.add_change_listener(callback)

    def reverse_topk(self, q, k: int):
        with self.lock:
            return self.engine.reverse_topk(q, k)

    def reverse_kranks(self, q, k: int):
        with self.lock:
            return self.engine.reverse_kranks(q, k)

    def pin_snapshot(self):
        """Pin an MVCC read snapshot.

        The caller owns the pin: queries against the returned
        :class:`~repro.storage.snapshot.StoreSnapshot` never take the
        engine lock and never observe later mutations.  Release it.
        """
        return self.engine.pin()

    def storage_stats(self) -> dict:
        """The segment store's health dict."""
        return self.engine.storage_stats()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------

    def durability_stats(self) -> dict:
        """JSON-ready WAL/checkpoint/replay counters (``/metrics``)."""
        with self.lock:
            return {
                "wal": self._wal.stats(),
                "last_lsn": self.last_lsn,
                "snapshot_lsn": self.snapshot_lsn,
                "snapshots_taken": self.snapshots_taken,
                "replayed_records": self.replayed_records,
                "replay_time_s": self.replay_time_s,
                "feed_retained": len(self._feed),
            }

    def close(self) -> None:
        """Flush and close the WAL; the engine stays queryable in memory."""
        with self.lock:
            self._wal.close()
        self.engine.close()  # stops the compactor thread

    def __enter__(self) -> "DurableDynamicRRQ":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def durability_report(directory: PathLike) -> dict:
    """Integrity report over a durability directory (CLI ``info`` body).

    Reads the store manifest — the one checkpoint barrier — and decodes
    the WAL, reporting torn-tail bytes and corruption without mutating
    anything::

        {"ok": bool,
         "storage": {"status", "lsn", "generation", "segments",
                     "dead_products", "dead_weights"},
         "wal": {"records", "first_lsn", "last_lsn", "torn_bytes",
                 "status", ["error"]}}

    ``storage.status`` is ``none`` while nothing has been committed.
    """
    base = Path(directory)
    report: dict = {"ok": True}
    try:
        manifest = read_current_manifest(base / SEGMENTS_DIRNAME)
    except IndexCorruptionError as exc:
        report.update(ok=False, storage={"status": f"corrupt: {exc}"})
    else:
        if manifest is None:
            report["storage"] = {"status": "none"}
        else:
            report["storage"] = {
                "status": "ok",
                "generation": int(manifest["generation"]),
                "lsn": int(manifest["lsn"]),
                "segments": len(manifest["segments"]),
                "dead_products": len(manifest["dead_products"]),
                "dead_weights": len(manifest["dead_weights"]),
            }
    try:
        records, _, torn = read_wal(wal_path(base))
    except WalCorruptionError as exc:
        report["wal"] = {"status": "corrupt", "error": str(exc),
                         "offset": exc.offset, "records": 0,
                         "first_lsn": 0, "last_lsn": exc.lsn,
                         "torn_bytes": 0}
        report["ok"] = False
    else:
        report["wal"] = {
            "status": "ok" if not torn else "torn-tail",
            "records": len(records),
            "first_lsn": records[0].lsn if records else 0,
            "last_lsn": records[-1].lsn if records else 0,
            "torn_bytes": int(torn),
        }
    return report
