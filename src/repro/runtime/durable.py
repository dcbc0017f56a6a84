"""Durable session state — a write-ahead checkpoint store on disk.

Everything the recovery layer could do so far (docs/INTERNALS.md §6) lived
in process memory: a :class:`~repro.runtime.recovery.Checkpoint` survives a
*task* crash, not a ``kill -9`` of the host process.  This module is the
crash-consistent half of the recovery story — the format, the journal, and
the recovery algebra that let ``python -m repro serve --state-dir DIR``
restart from nothing with zero lost and zero duplicated acknowledged
deliveries (docs/DURABILITY.md is the narrative spec; ``serve/crashtest.py``
is the proof harness).

Three layers, bottom up:

* **Record framing** — both file kinds are line-oriented: each line is
  ``<crc32 hex> <json payload>``.  Values are encoded by a *tuple-faithful*
  tagged-JSON codec (:func:`encode`/:func:`decode`): tuples become
  ``{"%t": [...]}``, non-string-keyed dicts ``{"%m": [[k, v], ...]}``, and
  anything not JSON-representable falls back to a pickled blob
  ``{"%p": base64}``.  Tuple fidelity is load-bearing: a restored
  :class:`Checkpoint` must compare equal to the original (the golden
  round-trip matrix in ``tests/runtime/test_checkpoint_matrix.py``).

* **Snapshot files** (``snapshot-NNNNNNNN.ckpt``) — one generation each:
  a versioned header (``SCHEMA_VERSION``), the encoded checkpoint, the
  acknowledged-delivery book, the pending suppress/resubmit carry-over
  state, a metadata record (session config, so a cold service can rebuild
  the session), and an end trailer whose record count makes truncation
  detectable.  Written atomically: tmp file → flush → fsync → rename →
  directory fsync.  A file failing any integrity check is *quarantined*
  (renamed ``*.corrupt``) and recovery falls back to the previous
  generation; when no generation survives, the typed
  :class:`~repro.util.errors.DurabilityError` propagates.  Old generations
  are garbage-collected past ``retention``.

* **Journal files** (``journal-NNNNNNNN.wal``) — the write-ahead delivery
  journal between snapshots.  Three record kinds, all stamped with one
  per-session monotone sequence number: ``submit`` (an admission *intent*,
  appended before the engine sees the value), ``abort`` (the intent's
  compensation when the engine timed out the submit), and
  ``deliver`` (appended before the delivery is acknowledged — the
  write-ahead discipline).  A torn *tail* on the newest journal is the
  normal signature of a crash mid-append and is silently dropped: by the
  write-ahead ordering, a torn record's operation was never acknowledged.

**The recovery algebra.**  Restoring snapshot generation ``g`` resets the
engine to its state ``E`` at snapshot time, so every value resident in
``E`` will be delivered (again).  Let ``A`` be the multiset of admitted
values not yet in ``E`` (the snapshot's carried ``resubmit`` set plus
post-snapshot journal ``submit − abort`` records) and ``D`` the multiset of
post-snapshot journal ``deliver`` records.  Then with ``Y = D ∩ A``
(greedy per-value minimum):

* ``resubmit' = A − Y`` — acknowledged admissions whose value is in
  neither the restored engine nor the delivery book: re-injected into the
  intake, *without* re-journaling (their intents already stand).
* ``suppress' = suppress_g + (D − Y)`` — deliveries already in the book
  whose value sits in the restored engine: when the engine re-emits them
  they are matched by canonical encoding and **not** re-acknowledged or
  re-journaled.

Any greedy partition preserves the conservation invariant
``acked_submits == book + engine − suppress + resubmit`` (values are
interchangeable by equality), which is exactly the zero-loss /
zero-duplication contract the crash harness audits — including across
*repeated* crashes, because every recovery immediately commits a fresh
snapshot carrying the remaining suppress/resubmit state forward.

Durability scope: a journal is a preallocated ``MAP_SHARED`` file mapping,
so an append is a copy into the page cache with no system call — and no
GIL release inside the durability lock.  A store into a shared mapping is
in the page cache when the copy returns, so it survives ``SIGKILL`` (the
failure model of the crash harness) exactly as a flushed ``write()`` does.
The unwritten rest of the mapping reads as NUL bytes: a NUL-only suffix is
the preallocation, not a tear, and ``close()`` truncates it away.  The
preallocation reserves its blocks, so a full disk fails a growth with the
typed :class:`~repro.util.errors.DurabilityError`, never with SIGBUS.
``fsync`` on every journal append is configurable (``fsync=True``) and off
by default: it flushes the touched pages with ``msync`` (plus an ``fsync``
when the file grew) and buys power-loss durability at ~10–100× the append
cost.  Snapshot commits always fsync; snapshots are never padded.
"""

from __future__ import annotations

import base64
import json
import mmap
import os
import pickle
import threading
import time
import urllib.parse
import zlib
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from repro.runtime.recovery import Checkpoint, RegionState
from repro.util.errors import (
    DurabilityError,
    SchemaVersionError,
    SnapshotCorruptError,
)

#: On-disk schema version written into every header record.  Bump on any
#: incompatible layout change; readers refuse unknown versions with the
#: typed :class:`SchemaVersionError` instead of guessing.  Version 2: a
#: serve session's checkpoint has one region, where version 1's had two.
SCHEMA_VERSION = 2

#: Header magic — identifies a file as ours before any other check.
MAGIC = "repro-durable"

#: Generations of snapshots (and their journals) kept after each commit.
DEFAULT_RETENTION = 3

_SNAPSHOT_FMT = "snapshot-{:08d}.ckpt"
_JOURNAL_FMT = "journal-{:08d}.wal"

#: Journal record kinds (the ``kind`` label of
#: ``repro_durable_journal_records_total``).
JOURNAL_KINDS = ("submit", "deliver", "abort")

#: Bytes a journal file grows by at a time.  The mapping an append copies
#: into is the whole file; what no record has reached yet reads as NULs.
JOURNAL_CHUNK = 1 << 20


# --------------------------------------------------------------------------
# Tagged-JSON value codec
# --------------------------------------------------------------------------

_TAGS = ("%t", "%m", "%p")


def encode(obj):
    """Encode an arbitrary Python value as tagged-JSON data.

    JSON scalars and lists pass through; tuples, non-string-keyed dicts and
    arbitrary objects are tagged (see module docstring) so :func:`decode`
    reconstructs them with exact type fidelity.  The common protocol values
    (strings, numbers, tuples of those) stay human-readable on disk.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, tuple):
        return {"%t": [encode(x) for x in obj]}
    if isinstance(obj, list):
        return [encode(x) for x in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and not any(
            t in obj for t in _TAGS
        ):
            return {k: encode(v) for k, v in obj.items()}
        return {"%m": [[encode(k), encode(v)] for k, v in obj.items()]}
    return {"%p": base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")}


def decode(data):
    """Inverse of :func:`encode`."""
    if isinstance(data, list):
        return [decode(x) for x in data]
    if isinstance(data, dict):
        if "%t" in data and len(data) == 1:
            return tuple(decode(x) for x in data["%t"])
        if "%m" in data and len(data) == 1:
            return {decode(k): decode(v) for k, v in data["%m"]}
        if "%p" in data and len(data) == 1:
            return pickle.loads(base64.b64decode(data["%p"]))
        return {k: decode(v) for k, v in data.items()}
    return data


#: The encoders every frame and canonical key go through, built once
#: (``json.dumps`` with ``separators=`` builds one per call).
_dumps = json.JSONEncoder(separators=(",", ":")).encode
_dumps_sorted = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def canon(value) -> str:
    """The canonical string form of a value — the multiset key the suppress
    and resubmit books are counted under.  Equal values of JSON-friendly
    types always agree; pickle-fallback values agree when their pickles do
    (the common case for the immutable values protocols carry)."""
    return _dumps_sorted(encode(value))


def checkpoint_to_data(cp: Checkpoint) -> dict:
    """A :class:`Checkpoint` as explicit tagged-JSON data (readable on
    disk, unlike a pickled blob)."""
    return {
        "connector": cp.connector,
        "regions": [
            {"kind": r.kind, "state": encode(r.state), "rr": encode(r.rr)}
            for r in cp.regions
        ],
        "buffers": {k: encode(v) for k, v in cp.buffers.items()},
        "steps": cp.steps,
        "parties": encode(cp.parties),
        "boundary": encode(cp.boundary),
    }


def checkpoint_from_data(data: dict) -> Checkpoint:
    """Inverse of :func:`checkpoint_to_data`."""
    return Checkpoint(
        connector=data["connector"],
        regions=tuple(
            RegionState(kind=r["kind"], state=decode(r["state"]),
                        rr=decode(r["rr"]))
            for r in data["regions"]
        ),
        buffers={k: decode(v) for k, v in data["buffers"].items()},
        steps=data["steps"],
        parties=decode(data["parties"]),
        boundary=decode(data["boundary"]),
    )


# --------------------------------------------------------------------------
# Record framing
# --------------------------------------------------------------------------


def _frame(record: dict) -> bytes:
    """The format: one line, ``<crc32 hex> <compact JSON of record>``."""
    payload = _dumps(record).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


#: What :func:`_frame` writes of a ``{"kind", "seq", "value"}`` record
#: before its sequence number, per kind.
_SEQ_PREFIX = {kind: b'{"kind":"%s","seq":' % kind.encode()
               for kind in (*JOURNAL_KINDS, "delivered")}


def _frame_seq(kind: str, seq: int, value) -> bytes:
    """``_frame({"kind": kind, "seq": seq, "value": encode(value)})`` byte
    for byte, without building the dict or walking the record: an exact
    ``int`` or ``str`` value is formatted as JSON writes it (a ``bool`` or
    an ``int`` or ``str`` subclass takes the encoder)."""
    if type(value) is int:
        body = b"%d" % value
    elif type(value) is str:
        body = encode_basestring_ascii(value).encode("ascii")
    else:
        body = _dumps(encode(value)).encode("ascii")
    payload = b'%s%d,"value":%s}' % (_SEQ_PREFIX[kind], seq, body)
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def _unframe(line: bytes) -> dict | None:
    """Decode one framed line; ``None`` on any integrity failure."""
    if not line.endswith(b"\n"):
        return None  # torn: the trailing newline never made it to disk
    body = line[:-1]
    if len(body) < 10 or body[8:9] != b" ":
        return None
    try:
        crc = int(body[:8], 16)
    except ValueError:
        return None
    payload = body[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def strip_padding(data: bytes) -> bytes:
    """A journal file's bytes without the unwritten NUL preallocation at
    its end.  A frame never holds a NUL byte (its payload is ASCII JSON),
    so the logical end is the last non-NUL byte: after an intact record a
    newline, after a torn one part of a frame."""
    return data.rstrip(b"\0")


def _extend(fd: int, size: int, new_size: int) -> None:
    """Grow the file ``fd`` from ``size`` to ``new_size`` bytes with the new
    blocks reserved (``posix_fallocate``), so a full disk fails the growth
    with ``OSError`` rather than a later store into the mapping with SIGBUS.
    Where the platform has no ``posix_fallocate`` (macOS) the growth is a
    sparse ``ftruncate``."""
    if hasattr(os, "posix_fallocate"):
        os.posix_fallocate(fd, size, new_size - size)
    else:
        os.ftruncate(fd, new_size)


def _read_framed(data: bytes) -> tuple[list[dict], bool]:
    """All leading valid records of ``data`` and whether it had an invalid
    suffix (``torn=True``).  Reading stops at the first bad line — nothing
    after a framing failure can be trusted."""
    records: list[dict] = []
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        line = data[pos:] if nl < 0 else data[pos:nl + 1]
        record = _unframe(line)
        if record is None:
            return records, True
        records.append(record)
        if nl < 0:
            break
        pos = nl + 1
    return records, False


def _atomic_write(path: Path, data: bytes) -> None:
    """tmp file → flush → fsync → rename → (best-effort) directory fsync."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:
        dirfd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(dirfd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(dirfd)


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------


@dataclass
class Recovery:
    """What a cold start found on disk.

    ``outcome`` is ``"fresh"`` (no durable state — every other field
    empty), ``"restored"`` (newest generation valid) or ``"fallback"``
    (one or more corrupt generations quarantined, an older one restored).
    ``delivered`` is the full acknowledged-delivery book as ``(seq, value)``
    pairs; ``suppress`` counts engine-resident values whose delivery is
    already acknowledged (canonical key → count, with a representative
    value per key in ``suppress_values``); ``resubmit`` lists acknowledged
    admissions that must be re-injected.  ``torn`` records whether a
    journal tail was truncated (expected after a crash mid-append).
    """

    outcome: str
    generation: int = 0
    checkpoint: Checkpoint | None = None
    delivered: list = field(default_factory=list)
    suppress: Counter = field(default_factory=Counter)
    suppress_values: dict = field(default_factory=dict)
    resubmit: list = field(default_factory=list)
    seq: int = 0
    meta: dict = field(default_factory=dict)
    quarantined: list = field(default_factory=list)
    torn: bool = False


class SessionStore:
    """One session's durable state directory: snapshots + journal.

    Not thread-safe by itself — :class:`SessionDurability` (the live
    serving wrapper) serializes access; direct users (the fuzz harness,
    benchmarks, tests) drive it single-threaded.
    """

    def __init__(self, root: Path, name: str, *,
                 retention: int = DEFAULT_RETENTION, fsync: bool = False):
        if retention < 2:
            # Corruption fallback needs at least one older generation.
            raise DurabilityError(
                f"retention must be >= 2 generations, got {retention}"
            )
        self.name = name
        self.retention = retention
        self.fsync = fsync
        self.dir = Path(root) / urllib.parse.quote(name, safe="-._")
        self.dir.mkdir(parents=True, exist_ok=True)
        self._journal_fh = None  # owns the journal's file descriptor
        self._journal_mm: mmap.mmap | None = None
        self._journal_end = 0  # the write cursor: the journal's logical size
        self._journal_gen: int | None = None

    # -- paths and generations ----------------------------------------------

    def _snapshot_path(self, gen: int) -> Path:
        return self.dir / _SNAPSHOT_FMT.format(gen)

    def _journal_path(self, gen: int) -> Path:
        return self.dir / _JOURNAL_FMT.format(gen)

    @staticmethod
    def _gen_of(name: str, prefix: str, suffix: str) -> int | None:
        if not (name.startswith(prefix) and name.endswith(suffix)):
            return None
        digits = name[len(prefix):len(name) - len(suffix)]
        return int(digits) if digits.isdigit() else None

    def generations(self) -> list[int]:
        """Snapshot generations present on disk, ascending (quarantined
        ``*.corrupt`` files excluded)."""
        out = []
        for p in self.dir.iterdir():
            gen = self._gen_of(p.name, "snapshot-", ".ckpt")
            if gen is not None:
                out.append(gen)
        return sorted(out)

    def _journal_generations(self) -> list[int]:
        out = []
        for p in self.dir.iterdir():
            gen = self._gen_of(p.name, "journal-", ".wal")
            if gen is not None:
                out.append(gen)
        return sorted(out)

    def _next_generation(self) -> int:
        """One past every generation number ever used — including
        quarantined and journal-only ones, so a number is never reused."""
        highest = 0
        for p in self.dir.iterdir():
            for prefix, suffix in (("snapshot-", ".ckpt"),
                                   ("snapshot-", ".ckpt.corrupt"),
                                   ("journal-", ".wal"),
                                   ("journal-", ".wal.corrupt")):
                gen = self._gen_of(p.name, prefix, suffix)
                if gen is not None:
                    highest = max(highest, gen)
        return highest + 1

    # -- snapshots -----------------------------------------------------------

    def save_snapshot(self, checkpoint: Checkpoint, *, seq: int,
                      delivered=(), suppress=(), resubmit=(),
                      meta: dict | None = None) -> tuple[int, int]:
        """Commit one new generation atomically; returns ``(gen, bytes)``.

        ``delivered`` is the ``(seq, value)`` book, ``suppress`` an
        iterable of engine-resident already-acknowledged values (one entry
        per multiset copy), ``resubmit`` the pending re-injections.  The
        journal rolls over: a fresh (header-only) journal for the new
        generation is opened and generations past ``retention`` are
        garbage-collected.
        """
        gen = self._next_generation()
        frames = [_frame({
            "magic": MAGIC, "version": SCHEMA_VERSION, "kind": "snapshot",
            "session": self.name, "generation": gen, "seq": seq,
            "created": time.time(),
        }), _frame({"kind": "checkpoint",
                    "data": checkpoint_to_data(checkpoint)})]
        frames.extend(_frame_seq("delivered", dseq, value)
                      for dseq, value in delivered)
        records = [{"kind": "suppress", "value": encode(v)} for v in suppress]
        records += [{"kind": "resubmit", "value": encode(v)} for v in resubmit]
        records.append({"kind": "meta", "data": encode(dict(meta or {}))})
        frames.extend(_frame(r) for r in records)
        frames.append(_frame({"kind": "end", "records": len(frames)}))
        blob = b"".join(frames)
        try:
            _atomic_write(self._snapshot_path(gen), blob)
        except OSError as exc:
            raise DurabilityError(
                f"cannot write snapshot generation {gen} for session "
                f"{self.name!r}: {exc}"
            ) from exc
        try:
            self._open_journal(gen, seq)
        except OSError as exc:
            raise DurabilityError(
                f"cannot open journal generation {gen} for session "
                f"{self.name!r}: {exc}"
            ) from exc
        self._gc(gen)
        return gen, len(blob)

    def load_snapshot(self, gen: int) -> dict:
        """Decode one generation; raises :class:`SnapshotCorruptError` /
        :class:`SchemaVersionError`.  Returns the raw document::

            {"generation", "seq", "created", "checkpoint", "delivered",
             "suppress", "resubmit", "meta"}
        """
        path = self._snapshot_path(gen)
        try:
            records, torn = _read_framed(path.read_bytes())
        except OSError as exc:
            raise SnapshotCorruptError(f"{path}: unreadable: {exc}") from exc
        if not records:
            raise SnapshotCorruptError(f"{path}: no valid records")
        header = records[0]
        if header.get("magic") != MAGIC or header.get("kind") != "snapshot":
            raise SnapshotCorruptError(f"{path}: bad header record")
        if header.get("version") != SCHEMA_VERSION:
            raise SchemaVersionError(str(path), header.get("version"),
                                     SCHEMA_VERSION)
        end = records[-1]
        if torn or end.get("kind") != "end" \
                or end.get("records") != len(records) - 1:
            raise SnapshotCorruptError(
                f"{path}: truncated snapshot "
                f"({len(records)} valid record(s), no matching end trailer)"
            )
        doc = {
            "generation": header.get("generation", gen),
            "seq": header["seq"],
            "created": header.get("created", 0.0),
            "checkpoint": None,
            "delivered": [],
            "suppress": [],
            "resubmit": [],
            "meta": {},
        }
        try:
            for record in records[1:-1]:
                kind = record.get("kind")
                if kind == "checkpoint":
                    doc["checkpoint"] = checkpoint_from_data(record["data"])
                elif kind == "delivered":
                    doc["delivered"].append(
                        (record["seq"], decode(record["value"]))
                    )
                elif kind == "suppress":
                    doc["suppress"].append(decode(record["value"]))
                elif kind == "resubmit":
                    doc["resubmit"].append(decode(record["value"]))
                elif kind == "meta":
                    doc["meta"] = decode(record["data"])
                else:
                    raise SnapshotCorruptError(
                        f"{path}: unknown record kind {kind!r}"
                    )
        except SnapshotCorruptError:
            raise
        except Exception as exc:
            raise SnapshotCorruptError(
                f"{path}: undecodable record: {exc!r}"
            ) from exc
        if doc["checkpoint"] is None:
            raise SnapshotCorruptError(f"{path}: no checkpoint record")
        return doc

    def peek_meta(self) -> dict:
        """The ``meta`` of the newest *loadable* generation (read-only —
        nothing is quarantined); ``{}`` when none loads.  What
        ``CoordinatorService.recover_sessions`` reads to rebuild a session's
        configuration before opening it."""
        for gen in reversed(self.generations()):
            try:
                return self.load_snapshot(gen)["meta"]
            except SchemaVersionError:
                raise
            except DurabilityError:
                continue
        return {}

    def _quarantine(self, path: Path, exc: Exception) -> str:
        """Rename a bad file out of the generation namespace (kept as
        evidence), never deleting data."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - already moved/deleted
            pass
        return f"{target.name}: {exc}"

    def _gc(self, newest: int) -> None:
        keep = set(sorted(
            g for g in self.generations() if g <= newest
        )[-self.retention:])
        keep.add(newest)
        for gen in self.generations():
            if gen not in keep:
                self._snapshot_path(gen).unlink(missing_ok=True)
        oldest_kept = min(keep)
        for gen in self._journal_generations():
            # A journal's records post-date its own generation's snapshot,
            # so any journal at or after the oldest kept snapshot is still
            # replayable state; older ones are collapsed into snapshots.
            if gen < oldest_kept and gen != self._journal_gen:
                self._journal_path(gen).unlink(missing_ok=True)

    # -- the journal ---------------------------------------------------------

    def _open_journal(self, gen: int, snapshot_seq: int) -> None:
        self.close()
        # read-write, not append mode: glibc emulates posix_fallocate on a
        # file system without fallocate, and refuses an O_APPEND descriptor
        fd = os.open(self._journal_path(gen), os.O_RDWR | os.O_CREAT, 0o666)
        fh = os.fdopen(fd, "r+b")
        try:
            fh.seek(0, os.SEEK_END)
            fh.write(_frame({
                "magic": MAGIC, "version": SCHEMA_VERSION, "kind": "journal",
                "session": self.name, "generation": gen,
                "snapshot_seq": snapshot_seq,
            }))
            fh.flush()
            end = fh.tell()
            _extend(fh.fileno(), end, end + JOURNAL_CHUNK)
            os.fsync(fh.fileno())  # the header and the new size, durably
            mm = mmap.mmap(fh.fileno(), end + JOURNAL_CHUNK)
        except OSError:
            fh.close()
            raise
        self._journal_fh = fh
        self._journal_mm = mm
        self._journal_end = end
        self._journal_gen = gen

    def _grow(self, need: int) -> mmap.mmap:
        """Extend the journal file by whole chunks until ``need`` bytes fit
        and map it again (a new mapping, not ``mmap.resize``: that has no
        ``mremap`` to use on macOS).  The old mapping stays valid until the
        new one exists, so a failed growth (a full disk) loses nothing."""
        size = len(self._journal_mm)
        while size < need:
            size += JOURNAL_CHUNK
        fd = self._journal_fh.fileno()
        _extend(fd, len(self._journal_mm), size)
        if self.fsync:
            os.fsync(fd)  # the new size, durably
        mm = mmap.mmap(fd, size)
        self._journal_mm.close()
        self._journal_mm = mm
        return mm

    def append(self, kind: str, seq: int, value=None) -> None:
        """Append one write-ahead record: copy its frame into the shared
        mapping at the write cursor (plus an ``msync`` of the touched pages
        when the store was opened with ``fsync=True``)."""
        if kind not in JOURNAL_KINDS:
            raise DurabilityError(f"unknown journal record kind {kind!r}")
        mm = self._journal_mm
        if mm is None:
            raise DurabilityError(
                f"session {self.name!r} has no open journal "
                "(save_snapshot first)"
            )
        frame = _frame_seq(kind, seq, value)
        start = self._journal_end
        end = start + len(frame)
        try:
            if end > len(mm):
                mm = self._grow(end)
            mm[start:end] = frame
            if self.fsync:
                page = start - start % mmap.PAGESIZE
                mm.flush(page, end - page)
        except OSError as exc:
            raise DurabilityError(
                f"cannot append to journal of session {self.name!r}: {exc}"
            ) from exc
        self._journal_end = end

    def read_journal(self, gen: int) -> tuple[list[dict], bool]:
        """The valid records of one journal (header excluded) and whether
        its tail was torn.  A missing file is an empty, untorn journal (the
        crash landed between snapshot rename and journal creation)."""
        path = self._journal_path(gen)
        if not path.exists():
            return [], False
        records, torn = _read_framed(strip_padding(path.read_bytes()))
        if not records:
            return [], True
        header = records[0]
        if header.get("magic") != MAGIC or header.get("kind") != "journal":
            return [], True  # header itself torn — nothing to trust
        if header.get("version") != SCHEMA_VERSION:
            raise SchemaVersionError(str(path), header.get("version"),
                                     SCHEMA_VERSION)
        return records[1:], torn

    # -- recovery ------------------------------------------------------------

    def recover(self) -> Recovery:
        """Load the newest valid snapshot, replay the journals, compute the
        recovery algebra (module docstring).  Corrupt snapshot generations
        are quarantined and the previous generation is used; when every
        generation is corrupt the typed error propagates (a fresh start
        would silently lose acknowledged state)."""
        gens = self.generations()
        quarantined: list[str] = []
        doc = None
        for gen in reversed(gens):
            try:
                doc = self.load_snapshot(gen)
                doc["generation"] = gen
                break
            except SchemaVersionError:
                raise
            except DurabilityError as exc:
                quarantined.append(
                    self._quarantine(self._snapshot_path(gen), exc)
                )
        if doc is None:
            if gens:
                raise DurabilityError(
                    f"session {self.name!r}: every snapshot generation is "
                    f"corrupt ({'; '.join(quarantined)})"
                )
            return Recovery(outcome="fresh")

        chosen = doc["generation"]
        delivered = list(doc["delivered"])
        seen = {s for s, _ in delivered}
        seq_high = doc["seq"]
        submits: Counter = Counter()
        aborts: Counter = Counter()
        journal_delivers: Counter = Counter()
        values_by_canon: dict[str, list] = {}
        torn = False
        for gen in self._journal_generations():
            if gen < chosen:
                continue
            records, gen_torn = self.read_journal(gen)
            torn = torn or gen_torn
            for record in records:
                seq = record.get("seq", 0)
                if seq <= doc["seq"]:
                    continue
                seq_high = max(seq_high, seq)
                value = decode(record.get("value"))
                key = canon(value)
                kind = record.get("kind")
                if kind == "submit":
                    submits[key] += 1
                    values_by_canon.setdefault(key, []).append(value)
                elif kind == "abort":
                    aborts[key] += 1
                elif kind == "deliver" and seq not in seen:
                    seen.add(seq)
                    delivered.append((seq, value))
                    journal_delivers[key] += 1
                    values_by_canon.setdefault(key, []).append(value)

        admitted: Counter = Counter()
        for value in doc["resubmit"]:
            key = canon(value)
            admitted[key] += 1
            values_by_canon.setdefault(key, []).append(value)
        admitted.update(submits)
        admitted.subtract(aborts)
        admitted = +admitted  # clip compensated intents at zero

        # Greedy partition: Y = D ∩ A (Counter & is per-key min).
        resubmit_counts = admitted - journal_delivers
        extra_suppress = journal_delivers - admitted

        suppress: Counter = Counter()
        suppress_values: dict = {}
        for value in doc["suppress"]:
            key = canon(value)
            suppress[key] += 1
            suppress_values.setdefault(key, value)
        for key, count in extra_suppress.items():
            suppress[key] += count
            suppress_values.setdefault(key, values_by_canon[key][0])

        resubmit: list = []
        for key, count in resubmit_counts.items():
            resubmit.extend(values_by_canon[key][:count])

        return Recovery(
            outcome="fallback" if quarantined else "restored",
            generation=chosen,
            checkpoint=doc["checkpoint"],
            delivered=sorted(delivered),
            suppress=suppress,
            suppress_values=suppress_values,
            resubmit=resubmit,
            seq=seq_high,
            meta=doc["meta"],
            quarantined=quarantined,
            torn=torn,
        )

    def close(self) -> None:
        """Unmap the journal and truncate its file to the written records:
        a cleanly closed journal carries no NUL padding."""
        fh, mm = self._journal_fh, self._journal_mm
        if fh is None:
            return
        self._journal_fh = self._journal_mm = self._journal_gen = None
        try:
            mm.close()
            os.ftruncate(fh.fileno(), self._journal_end)
        except OSError:  # pragma: no cover
            pass
        finally:
            fh.close()


class DurableStore:
    """The state-directory root: one subdirectory per session (name
    percent-encoded, so any session name is a valid path)."""

    def __init__(self, root, *, retention: int = DEFAULT_RETENTION,
                 fsync: bool = False):
        self.root = Path(root)
        self.retention = retention
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True)

    def session(self, name: str) -> SessionStore:
        return SessionStore(self.root, name, retention=self.retention,
                            fsync=self.fsync)

    def sessions(self) -> list[str]:
        """Session names with durable state on disk, sorted."""
        out = []
        for p in self.root.iterdir():
            if p.is_dir():
                out.append(urllib.parse.unquote(p.name))
        return sorted(out)


# --------------------------------------------------------------------------
# The live serving wrapper
# --------------------------------------------------------------------------


class SessionDurability:
    """The thread-safe durability coordinator one
    :class:`~repro.serve.session.FarmSession` owns.

    Tracks the live sequence counter, delivery book, suppress multiset and
    pending resubmits; journals through the :class:`SessionStore`; emits
    the ``repro_durable_*`` metric families.  The session calls:

    * :meth:`recover` once before building its connector;
    * :meth:`commit` at every quiescent point (open, durable checkpoint,
      rolling restart) — *while parked*, so the snapshot's book/suppress
      state is consistent with the checkpoint;
    * :meth:`on_submit` / :meth:`on_abort` around every intake offer;
    * :meth:`on_delivered` before acknowledging every worker delivery.
    """

    def __init__(self, store: SessionStore):
        self.store = store
        self._lock = threading.Lock()
        self._seq = 0
        self._book: list[tuple[int, object]] = []
        self._suppress: Counter = Counter()
        self._suppress_values: dict = {}
        self._resubmit: list = []
        self.last_recovery: Recovery | None = None
        self._last_commit: float | None = None
        self._journal_since_commit = 0
        # metric children (bound by bind())
        self._m_submit = self._m_deliver = self._m_abort = None
        self._m_recoveries = None
        self._m_bytes = None
        self._m_duration = None

    # -- metrics -------------------------------------------------------------

    def bind(self, registry) -> None:
        """Attach the ``repro_durable_*`` families to ``registry`` (the
        session's own registry, so tenants' books stay separate)."""
        if registry is None:
            return
        label = self.store.name
        records = registry.counter("repro_durable_journal_records_total")
        self._m_submit = records.labels(label, "submit")
        self._m_deliver = records.labels(label, "deliver")
        self._m_abort = records.labels(label, "abort")
        self._m_recoveries = registry.counter("repro_durable_recoveries_total")
        self._m_bytes = registry.gauge(
            "repro_durable_snapshot_bytes"
        ).labels(label)
        self._m_duration = registry.histogram(
            "repro_durable_snapshot_duration_seconds"
        ).labels(label)
        registry.gauge("repro_durable_snapshot_age_seconds").set_callback(
            self, self._sample_age
        )
        registry.gauge("repro_durable_journal_lag").set_callback(
            self, self._sample_lag
        )

    def _sample_age(self):
        last = self._last_commit
        if last is None:
            return []
        return [((self.store.name,), time.monotonic() - last)]

    def _sample_lag(self):
        return [((self.store.name,), self._journal_since_commit)]

    # -- lifecycle hooks -----------------------------------------------------

    def recover(self) -> Recovery | None:
        """Load durable state into this coordinator.  Returns the
        :class:`Recovery` (``None`` for a fresh session) — the caller
        restores ``recovery.checkpoint`` into its rebuilt connector, then
        :meth:`commit`\\ s, then re-injects :meth:`pop_resubmits`."""
        rec = self.store.recover()
        self.last_recovery = rec
        if self._m_recoveries is not None:
            self._m_recoveries.labels(self.store.name, rec.outcome).inc()
        if rec.outcome == "fresh":
            return None
        with self._lock:
            self._seq = rec.seq
            self._book = list(rec.delivered)
            self._suppress = Counter(rec.suppress)
            self._suppress_values = dict(rec.suppress_values)
            self._resubmit = list(rec.resubmit)
        return rec

    def commit(self, checkpoint: Checkpoint, meta: dict | None = None
               ) -> int:
        """Persist one snapshot generation of the *current* durable state
        plus ``checkpoint``.  Call only at a quiescent point (no concurrent
        submits/deliveries), or the snapshot's book could outrun the
        checkpoint's engine state."""
        start = time.perf_counter()
        with self._lock:
            suppress_expanded = []
            for key, count in self._suppress.items():
                suppress_expanded.extend(
                    [self._suppress_values[key]] * count
                )
            gen, nbytes = self.store.save_snapshot(
                checkpoint,
                seq=self._seq,
                delivered=self._book,
                suppress=suppress_expanded,
                resubmit=self._resubmit,
                meta=meta,
            )
            self._journal_since_commit = 0
            self._last_commit = time.monotonic()
        if self._m_bytes is not None:
            self._m_bytes.set(nbytes)
            self._m_duration.observe(time.perf_counter() - start)
        return gen

    def pop_resubmits(self) -> list:
        """Drain the pending re-injections (already persisted by the
        recovery commit; the values' admission intents stand, so callers
        re-inject through the raw intake, not through ``submit``)."""
        with self._lock:
            out, self._resubmit = self._resubmit, []
            return out

    # -- hot-path hooks ------------------------------------------------------

    def on_submit(self, value) -> int:
        """Journal one admission intent (write-ahead: before the engine
        sees the value); returns its sequence number."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            self.store.append("submit", seq, value)
            self._journal_since_commit += 1
            if self._m_submit is not None:
                self._m_submit.inc()
        return seq

    def on_abort(self, seq: int, value) -> None:
        """Compensate a failed admission intent (the engine timed out the
        offer, so the value never entered protocol state)."""
        with self._lock:
            self.store.append("abort", seq, value)
            self._journal_since_commit += 1
            if self._m_abort is not None:
                self._m_abort.inc()

    def on_delivered(self, value) -> bool:
        """Journal one delivery — unless it is a suppressed re-emission of
        an already-acknowledged delivery, in which case ``False`` is
        returned and the caller must *not* acknowledge it again."""
        with self._lock:
            # the suppress multiset is empty except right after a recovery:
            # only then is the canonical key worth computing
            if self._suppress:
                key = canon(value)
                if self._suppress.get(key, 0) > 0:
                    self._suppress[key] -= 1
                    if self._suppress[key] == 0:
                        del self._suppress[key]
                        self._suppress_values.pop(key, None)
                    return False
            self._seq += 1
            self.store.append("deliver", self._seq, value)
            self._book.append((self._seq, value))
            self._journal_since_commit += 1
            if self._m_deliver is not None:
                self._m_deliver.inc()
        return True

    # -- introspection -------------------------------------------------------

    def book(self) -> list[tuple[int, object]]:
        """The acknowledged-delivery book, ``(seq, value)`` in seq order."""
        with self._lock:
            return list(self._book)

    def delivered_values(self) -> list:
        with self._lock:
            return [v for _, v in self._book]

    def close(self) -> None:
        # under the lock: the store's close truncates the journal to its
        # write cursor, which an append advances only after its copy
        with self._lock:
            self.store.close()
