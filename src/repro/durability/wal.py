"""The write-ahead log: length-prefixed, CRC32-framed mutation records.

Frame layout (little-endian), one frame per mutation::

    +----------------+----------------+--------------------------+
    | u32 length     | u32 crc32      | payload (length bytes)   |
    +----------------+----------------+--------------------------+

The payload is canonical JSON (sorted keys, compact separators) of
``{"lsn": int, "op": str, "data": {...}}``.  LSNs are assigned by the
writer and strictly increase by one, which gives recovery two levers:

* **idempotent replay** — applying a record whose LSN the engine has
  already seen is a no-op, so replaying the same log twice (or a
  snapshot plus an untruncated log) converges to the same state;
* **contiguity checking** — a gap or regression between decoded records
  cannot be explained by a torn tail and raises
  :class:`~repro.errors.WalCorruptionError`.

Crash semantics, the load-bearing part:

* A frame that runs past end-of-file, or whose CRC fails *with no valid
  bytes after it*, is a **torn tail** — the classic interrupted append.
  Recovery drops it: the write was never acknowledged, so it must be
  atomically absent.
* A CRC/framing failure **followed by more bytes** cannot come from a
  torn append (appends only ever extend the file); it means
  acknowledged history was damaged in place, and recovery refuses with
  a structured :class:`~repro.errors.WalCorruptionError` instead of
  silently serving wrong answers.

The writer consults the fault-injection hooks
(:mod:`repro.resilience.faults`) at two named sites: ``wal.append``
(supports ``io_error``/``raise``/``latency``/``corrupt``/
``partial_write`` — the last tears the frame and simulates death) and
``wal.fsync`` (fired just before ``os.fsync``).  A *non-crash* failure
after bytes were buffered rolls the file back to the previous frame
boundary, so a failed append never leaves half a frame for a later
append to entomb mid-log.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..errors import InvalidParameterError, WalCorruptionError
from ..resilience.faults import InjectedCrashError, active_injector, fire

PathLike = Union[str, Path]

#: Default WAL file name inside a durability directory.
WAL_NAME = "wal.log"

#: ``(length, crc32)`` frame header.
_HEADER = struct.Struct("<II")

#: Sanity ceiling on one record; anything larger is framing damage.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Supported fsync policies for :class:`WalWriter`.
FSYNC_POLICIES = ("always", "interval", "never")

#: Default interval between fsyncs under the ``interval`` policy.
DEFAULT_FSYNC_INTERVAL_S = 0.05

#: Read granularity of :func:`read_wal` (frames may span boundaries).
_READ_CHUNK = 64 * 1024


@dataclass(frozen=True)
class WalRecord:
    """One decoded mutation record."""

    lsn: int
    op: str
    data: dict

    def to_payload(self) -> bytes:
        """Canonical JSON payload bytes (what the CRC covers)."""
        return json.dumps(
            {"data": self.data, "lsn": int(self.lsn), "op": self.op},
            sort_keys=True, separators=(",", ":"),
        ).encode()

    def digest(self) -> str:
        """CRC32 hex digest of the payload (``wal-dump``'s fingerprint)."""
        return f"{zlib.crc32(self.to_payload()) & 0xFFFFFFFF:08x}"


def wal_path(directory: PathLike) -> Path:
    """The WAL file inside a durability directory."""
    return Path(directory) / WAL_NAME


def encode_record(record: WalRecord) -> bytes:
    """Frame one record: header (length + CRC32) plus JSON payload."""
    payload = record.to_payload()
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) \
        + payload


def _decode_payload(payload: bytes, path: Path, offset: int,
                    last_lsn: int) -> WalRecord:
    """Payload bytes -> :class:`WalRecord`; CRC already verified."""
    try:
        obj = json.loads(payload)
        record = WalRecord(lsn=int(obj["lsn"]), op=str(obj["op"]),
                           data=obj["data"])
    except (ValueError, KeyError, TypeError):
        raise WalCorruptionError(
            f"{path}: record at offset {offset} passed its CRC but is not "
            "a valid WAL payload", path=str(path), offset=offset,
            lsn=last_lsn,
        ) from None
    if not isinstance(record.data, dict):
        raise WalCorruptionError(
            f"{path}: record at offset {offset} carries a non-object data "
            "field", path=str(path), offset=offset, lsn=last_lsn,
        )
    return record


def read_wal(path: PathLike, chunk_size: int = _READ_CHUNK,
             expect_contiguous: bool = True,
             ) -> Tuple[List[WalRecord], int, int]:
    """Decode a WAL file; returns ``(records, valid_bytes, torn_bytes)``.

    ``valid_bytes`` is the offset of the first byte past the last intact
    frame — the writer truncates to it before appending again.
    ``torn_bytes`` counts trailing bytes dropped as an interrupted
    append (0 for a cleanly closed log).  A missing or empty file is a
    valid zero-length log.

    Raises
    ------
    WalCorruptionError
        Mid-log damage: a CRC/framing/contiguity failure that valid
        later bytes prove cannot be a torn tail.
    """
    path = Path(path)
    if chunk_size <= 0:
        raise InvalidParameterError("chunk_size must be positive")
    if not path.exists():
        return [], 0, 0
    file_size = path.stat().st_size
    records: List[WalRecord] = []
    buffer = bytearray()
    offset = 0          # file offset of buffer[0]
    last_lsn = 0

    def fail_or_tear(consumed: int, why: str) -> int:
        """Damage at ``offset + consumed``: torn tail iff nothing follows."""
        raise WalCorruptionError(
            f"{path}: {why} at offset {offset + consumed} with "
            f"{file_size - offset - consumed} valid-looking bytes after it "
            "(mid-log corruption, not a torn tail)",
            path=str(path), offset=offset + consumed, lsn=last_lsn,
        )

    with open(path, "rb") as handle:
        eof = False
        while True:
            # Top the buffer up until one whole frame (or EOF) is in it.
            while not eof and len(buffer) < _HEADER.size + MAX_RECORD_BYTES:
                chunk = handle.read(chunk_size)
                if not chunk:
                    eof = True
                    break
                buffer.extend(chunk)
                if len(buffer) >= _HEADER.size:
                    length = _HEADER.unpack_from(buffer)[0]
                    if len(buffer) >= _HEADER.size + min(
                            length, MAX_RECORD_BYTES):
                        break
            if not buffer:
                break
            if len(buffer) < _HEADER.size:
                break  # torn tail: partial header
            length, crc = _HEADER.unpack_from(buffer)
            if length == 0 or length > MAX_RECORD_BYTES:
                # A torn append leaves a *prefix*, so a complete header
                # always carries the length the writer intended — an
                # implausible value is in-place damage, with one
                # exception: an all-zero tail, which some filesystems
                # leave after a crash (size updated, blocks zero-filled).
                buffer.extend(handle.read())
                eof = True
                if not any(buffer):
                    break  # zero-filled tail: crash artifact, torn
                fail_or_tear(0, f"implausible record length {length}")
            frame_end = _HEADER.size + length
            if len(buffer) < frame_end:
                if eof:
                    break  # torn tail: partial payload
                continue  # need more bytes
            payload = bytes(buffer[_HEADER.size:frame_end])
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                if eof and offset + frame_end >= file_size:
                    break  # corrupt final frame: torn/overwritten tail
                fail_or_tear(0, "CRC32 mismatch")
            record = _decode_payload(payload, path, offset, last_lsn)
            if expect_contiguous and records and \
                    record.lsn != last_lsn + 1:
                fail_or_tear(
                    0, f"LSN discontinuity ({last_lsn} -> {record.lsn})"
                )
            records.append(record)
            last_lsn = record.lsn
            del buffer[:frame_end]
            offset += frame_end
    return records, offset, file_size - offset


class WalWriter:
    """Appends framed records to one WAL file under an fsync policy.

    Parameters
    ----------
    path:
        The log file; created (with parents) when missing.
    fsync:
        ``"always"`` — fsync after every append: an acknowledged write
        survives power loss.  ``"interval"`` — fsync at most every
        ``fsync_interval_s``: acknowledged writes survive process death
        (the OS holds the page cache) but a machine crash may lose the
        last interval.  ``"never"`` — flush to the OS only.
    truncate_to:
        Byte offset to truncate the existing file to before the first
        append — recovery passes ``valid_bytes`` from :func:`read_wal`
        so a torn tail never precedes fresh frames.
    next_lsn:
        The LSN :meth:`append` assigns next (recovery passes
        ``last_lsn + 1``).

    Not thread-safe on its own; :class:`~repro.durability.engine.
    DurableDynamicRRQ` serializes appends under its engine lock.
    """

    def __init__(self, path: PathLike, fsync: str = "always",
                 fsync_interval_s: float = DEFAULT_FSYNC_INTERVAL_S,
                 truncate_to: Optional[int] = None, next_lsn: int = 1):
        if fsync not in FSYNC_POLICIES:
            raise InvalidParameterError(
                f"fsync policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync!r}"
            )
        if fsync_interval_s <= 0:
            raise InvalidParameterError("fsync_interval_s must be positive")
        if next_lsn <= 0:
            raise InvalidParameterError("next_lsn must be positive")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.fsync_interval_s = float(fsync_interval_s)
        self.next_lsn = int(next_lsn)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "r+b" if self.path.exists() else "w+b")
        if truncate_to is not None:
            self._file.truncate(truncate_to)
        self._file.seek(0, os.SEEK_END)
        self._last_fsync = time.monotonic()
        #: Lifetime stats, surfaced through ``/metrics`` and ``info``.
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended (or recovered) record."""
        return self.next_lsn - 1

    def append(self, op: str, data: dict) -> WalRecord:
        """Frame, write, and (per policy) fsync one record; returns it.

        The record is durable per the fsync policy when this returns —
        that is the acknowledgment point.  On a non-crash failure the
        file is rolled back to the previous frame boundary so the
        failed append leaves no trace; an injected crash
        (:class:`InjectedCrashError`) leaves its torn bytes in place,
        exactly like ``kill -9`` mid-append.
        """
        record = WalRecord(lsn=self.next_lsn, op=op, data=data)
        frame = encode_record(record)
        rollback_to = self._file.tell()
        injector = active_injector()
        try:
            if injector is not None:
                injector.fire("wal.append")
                frame = injector.mutate("wal.append", frame)
                keep = injector.partial_write("wal.append")
                if keep is not None:
                    self._file.write(frame[: int(len(frame) * keep)])
                    self._file.flush()
                    raise InjectedCrashError(
                        "injected crash after torn append at wal.append"
                    )
            self._file.write(frame)
            self._file.flush()
            self._maybe_fsync()
        except InjectedCrashError:
            raise  # a simulated death leaves its torn bytes behind
        except Exception:
            self._file.truncate(rollback_to)
            self._file.seek(rollback_to)
            raise
        self.next_lsn += 1
        self.appends += 1
        self.bytes_written += len(frame)
        return record

    def append_record(self, record: WalRecord) -> WalRecord:
        """Append a record with a caller-assigned LSN (replication apply).

        The LSN must continue the log (``last_lsn + 1``); standbys use
        this to persist the primary's records under the primary's LSNs.
        """
        if record.lsn != self.next_lsn:
            raise InvalidParameterError(
                f"replicated record lsn {record.lsn} does not continue the "
                f"log (expected {self.next_lsn})"
            )
        return self.append(record.op, record.data)

    def _maybe_fsync(self) -> None:
        if self.fsync_policy == "never":
            return
        now = time.monotonic()
        if self.fsync_policy == "interval" and \
                now - self._last_fsync < self.fsync_interval_s:
            return
        fire("wal.fsync")
        os.fsync(self._file.fileno())
        self._last_fsync = now
        self.fsyncs += 1

    def sync(self) -> None:
        """Force an fsync regardless of policy (snapshot barriers use it)."""
        self._file.flush()
        fire("wal.fsync")
        os.fsync(self._file.fileno())
        self._last_fsync = time.monotonic()
        self.fsyncs += 1

    def truncate_through(self, barrier_lsn: int,
                         records: List[WalRecord]) -> None:
        """Drop every frame with ``lsn <= barrier_lsn`` (snapshot commit).

        ``records`` is the writer's decoded view of the live log (the
        engine keeps it); survivors are rewritten through an atomic
        temp-file + rename so a crash mid-truncate leaves either the
        full old log (replay is LSN-idempotent) or the clean suffix.
        """
        survivors = [r for r in records if r.lsn > barrier_lsn]
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for record in survivors:
                handle.write(encode_record(record))
            handle.flush()
            os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "r+b")
        self._file.seek(0, os.SEEK_END)

    def reset_to(self, next_lsn: int) -> None:
        """Discard the whole log and restart LSNs at ``next_lsn``.

        Used when a standby adopts a primary's full-state transfer: its
        own lineage is obsolete, and the adopted state's LSN becomes the
        new origin (the first record after a reset may carry any LSN;
        contiguity is enforced from there).
        """
        if next_lsn <= 0:
            raise InvalidParameterError("next_lsn must be positive")
        self._file.truncate(0)
        self._file.seek(0)
        self.next_lsn = int(next_lsn)

    def stats(self) -> dict:
        """JSON-ready lifetime counters."""
        return {
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "bytes_written": self.bytes_written,
            "fsync_policy": self.fsync_policy,
            "last_lsn": self.last_lsn,
        }

    def close(self) -> None:
        """Flush, fsync (unless ``never``), and close the file."""
        if self._file.closed:
            return
        self._file.flush()
        if self.fsync_policy != "never":
            os.fsync(self._file.fileno())
        self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
