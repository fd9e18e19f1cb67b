"""Checkpoint manifest — the FTI (fault-tolerant indexing) analog.

Reference: JesterJ persists every document status transition to embedded
Cassandra (``jj_output_step_status``; reference
``ingest/model/impl/ScannerImpl.java:117-177``) so a killed run resumes
without re-delivering documents, and retries ERROR docs up to 3 times
before marking them DEAD (``ScannerImpl.java:57,614-713``).

Our batch analog (SURVEY.md §3.3 / FIXTURES.md F3): one manifest JSON file
per partition, committed via write-to-temp + ``os.replace`` (atomic on
POSIX) only AFTER the partition's output files were themselves atomically
renamed into place.  Resume = list committed manifests, skip those
partitions.  A partition that fails repeatedly is recorded DEAD with its
error (poison quarantine) so one bad partition cannot wedge the job.

Statuses used (subset of the reference's 11-value enum,
``ingest/model/Status.java:30-183``): PROCESSING, INDEXED, ERROR, DEAD.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from typing import Dict, List, Optional

# the reference's full 11-value transition enum (Status.java:30-183);
# the RESUME key stays minimal (INDEXED/DEAD on the latest row) while the
# append-only history records every transition
STATUS_PROCESSING = "PROCESSING"
STATUS_BATCHED = "BATCHED"
STATUS_RESTART = "RESTART"
STATUS_DIRTY = "DIRTY"
STATUS_FORCE = "FORCE"
STATUS_INDEXING = "INDEXING"
STATUS_INDEXED = "INDEXED"
STATUS_SEARCHABLE = "SEARCHABLE"
STATUS_ERROR = "ERROR"
STATUS_DROPPED = "DROPPED"
STATUS_DEAD = "DEAD"

# transient markers that do not interrupt an error streak when counting
# consecutive failures from the history
_STREAK_NEUTRAL = {STATUS_PROCESSING, STATUS_RESTART, STATUS_INDEXING,
                   STATUS_BATCHED}

MAX_ATTEMPTS = 3  # mirrors DEF_MAX_ERROR_RETRY (ScannerImpl.java:57)

# History retention (the reference TTLs status rows at 90 days —
# FTI_TTL, ``JesterJAppender.java:56``; our batch analog caps each
# partition's transition history by line count so a continuous
# watch_and_reindex loop keeps history files bounded).  Compaction
# triggers when the file exceeds ~2x the cap and keeps the most recent
# HISTORY_MAX_LINES transitions (retry counting only reads the tail).
HISTORY_MAX_LINES = 512
_HIST_COMPACT_BYTES = 128 * 1024
# time-based retention, the direct FTI_TTL analog (reference: 90 days,
# ``JesterJAppender.java:56``) — applied by Manifest.expire_history()
FTI_TTL_SECONDS = 60 * 60 * 24 * 90


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write bytes to ``path`` atomically (temp file + rename)."""
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=f"-{uuid.uuid4().hex[:8]}")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_table(path: str, table, row_group_size: int = None) -> int:
    """Write a pyarrow table to parquet atomically; returns bytes written.
    ``row_group_size`` bounds reader memory for files consumed by
    streaming iterators (the k-way run merge)."""
    import pyarrow.parquet as pq
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{uuid.uuid4().hex[:8]}.parquet")
    try:
        pq.write_table(table, tmp, row_group_size=row_group_size)
        nbytes = os.path.getsize(tmp)
        os.replace(tmp, path)
        return nbytes
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Manifest:
    """Per-partition checkpoint manifest rooted at ``<dir>/manifest``.

    Two layers (r01 VERDICT #7 — the reference records EVERY status
    transition, ``ScannerImpl.java:117-177,614-713``):

    - the latest ROW per partition (resume key; atomic replace), and
    - an append-only per-partition HISTORY of (status, attempt, message)
      transitions under ``<stage>-history/``, from which retry counting is
      derived (consecutive ERRORs since the last real state change, so an
      external DIRTY/FORCE mark resets the streak like the reference's
      history-based error counting).
    """

    def __init__(self, root: str, stage: str):
        self.dir = os.path.join(root, "manifest", stage)
        self.hist_dir = os.path.join(root, "manifest", f"{stage}-history")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, partition_id: int) -> str:
        return os.path.join(self.dir, f"part-{partition_id:05d}.json")

    def _hist_path(self, partition_id: int) -> str:
        return os.path.join(self.hist_dir, f"part-{partition_id:05d}.jsonl")

    # ---- history ----

    def log(self, partition_id: int, status: str, *, attempt: int = 0,
            message: str = "") -> None:
        """Append ONE transition line via O_APPEND (ADVICE r02: the old
        read-whole-file + atomic-rewrite was O(history) per transition and
        lost lines under concurrent writers; small O_APPEND writes to a
        local file are effectively atomic, so concurrent loggers interleave
        instead of clobbering).  Files are bounded by a retention cap:
        beyond ``_HIST_COMPACT_BYTES`` the file is compacted to its last
        ``HISTORY_MAX_LINES`` transitions (single-writer-per-partition is
        the normal regime — one task owns a partition — so the rewrite
        cannot race an appender in practice)."""
        os.makedirs(self.hist_dir, exist_ok=True)
        line = (json.dumps({"status": status, "attempt": attempt,
                            "message": message,
                            "ts": int(time.time())}) + "\n").encode()
        path = self._hist_path(partition_id)
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line)
            size = os.fstat(fd).st_size
        finally:
            os.close(fd)
        if size > _HIST_COMPACT_BYTES:
            self._compact_history(path)

    def _compact_history(self, path: str) -> None:
        """Best-effort: the read + atomic-rename pair can clobber a line
        appended concurrently, so compaction (a) only runs from the
        partition's single writer in the normal regime, and (b) skips if
        the file grew between read and rewrite (cheap CAS via size)."""
        try:
            st0 = os.stat(path)
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return
        lines = data.splitlines(keepends=True)
        if len(lines) <= HISTORY_MAX_LINES:
            return
        if os.stat(path).st_size != st0.st_size:
            return  # concurrent append landed: retry on a later log()
        atomic_write_bytes(path, b"".join(lines[-HISTORY_MAX_LINES:]))

    def history(self, partition_id: int) -> List[Dict]:
        try:
            with open(self._hist_path(partition_id)) as f:
                return [json.loads(ln) for ln in f if ln.strip()]
        except FileNotFoundError:
            return []

    def expire_history(self, ttl_seconds: int = FTI_TTL_SECONDS) -> int:
        """Drop history transitions older than ``ttl_seconds`` — the
        reference's FTI record TTL (90 days, ``JesterJAppender.java:56``;
        Cassandra expires the row, we rewrite the JSONL tail).  Lines
        without a ``ts`` (pre-timestamp layouts) are STAMPED with the
        file's mtime rather than dropped — dropping them could erase a
        recent ERROR transition and reset ``consecutive_errors`` retry
        accounting, a DEAD-gating input (ADVICE r03).  Partition
        manifests themselves are NOT expired — resume correctness never
        depends on history.  Returns the number of lines dropped.

        Concurrency: like ``_compact_history``, the read + rewrite pair
        could clobber a concurrently appended line, so each file is
        guarded by the same size-CAS — if the file grew between the
        read and the rewrite the file is skipped (it expires on a later
        cycle).  The CAS is best-effort TOCTOU: an append landing in
        the window between the re-stat and the rename is still lost,
        so run ONLY from the loop that owns the index (watch loop /
        operator CLI), never concurrently with worker writers."""
        cutoff = int(time.time()) - ttl_seconds
        dropped = 0
        if not os.path.isdir(self.hist_dir):
            return 0
        for name in sorted(os.listdir(self.hist_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.hist_dir, name)
            try:
                st0 = os.stat(path)
                with open(path, "rb") as f:
                    lines = f.read().splitlines(keepends=True)
            except FileNotFoundError:
                continue
            mtime = int(st0.st_mtime)
            keep = []
            for ln in lines:
                try:
                    rec = json.loads(ln)
                    ts = rec.get("ts")
                except (ValueError, UnicodeDecodeError):
                    continue  # corrupt line: drop
                if ts is None:
                    # pre-timestamp line: stamp with file mtime so it
                    # ages out on a later cycle instead of vanishing now
                    ts = mtime
                    if ts >= cutoff:
                        rec["ts"] = ts
                        ln = (json.dumps(rec) + "\n").encode()
                if ts >= cutoff:
                    keep.append(ln)
            if keep == lines:
                continue
            try:
                if os.stat(path).st_size != st0.st_size:
                    continue  # concurrent append landed: skip this cycle
            except FileNotFoundError:
                continue
            dropped += len(lines) - len(keep)
            if keep:
                atomic_write_bytes(path, b"".join(keep))
            else:
                os.unlink(path)
        return dropped

    def consecutive_errors(self, partition_id: int) -> int:
        """Trailing ERROR count from the history, skipping transient
        markers; any real state change (INDEXED, DIRTY, FORCE, ...)
        resets the streak."""
        n = 0
        for rec in reversed(self.history(partition_id)):
            s = rec.get("status")
            if s in _STREAK_NEUTRAL:
                continue
            if s in (STATUS_ERROR, STATUS_DEAD):
                n += 1
                continue
            break
        return n

    def last_logged_status(self, partition_id: int) -> Optional[str]:
        h = self.history(partition_id)
        return h[-1]["status"] if h else None

    # ---- external marking (DIRTY / FORCE / RESTART flows) ----

    def mark(self, partition_id: int, status: str, message: str = "") -> None:
        """Externally mark a partition (the reference's markDirty /
        force-re-feed flows): the latest row's status flips so the next
        build treats the partition as not-complete, all other fields are
        preserved, and the transition lands in the history."""
        rec = self.read(partition_id) or {"partition_id": partition_id}
        rec = dict(rec)
        rec["status"] = status
        rec["message"] = message
        atomic_write_bytes(self._path(partition_id),
                           json.dumps(rec).encode())
        self.log(partition_id, status, message=message)

    def mark_dirty(self, partition_id: int, message: str = "") -> None:
        """Re-examine on next run: a delta re-index diffs the partition
        even if its input fingerprint is unchanged; a full build rebuilds
        it."""
        self.mark(partition_id, STATUS_DIRTY, message)

    def mark_force(self, partition_id: int, message: str = "") -> None:
        """Unconditional re-feed on next run: every document of the
        partition re-indexes regardless of content hashes (the
        FORCE / bypass-seenPreviously flow)."""
        self.mark(partition_id, STATUS_FORCE, message)

    def commit(self, partition_id: int, *, status: str = STATUS_INDEXED,
               input_fingerprint: str = "", docs_seen: int = 0,
               terms_emitted: int = 0, bytes_written: int = 0,
               dl_sum: int = 0, output_files: Optional[List[str]] = None,
               attempt: int = 1, message: str = "",
               extra: Optional[Dict] = None) -> None:
        rec = {
            "partition_id": partition_id,
            "status": status,
            "input_fingerprint": input_fingerprint,
            "docs_seen": docs_seen,
            "terms_emitted": terms_emitted,
            "bytes_written": bytes_written,
            "dl_sum": dl_sum,
            "output_files": output_files or [],
            "attempt": attempt,
            "message": message,
        }
        if extra:
            rec.update(extra)
        atomic_write_bytes(self._path(partition_id), json.dumps(rec).encode())
        self.log(partition_id, status, attempt=attempt, message=message)

    def recommit(self, partition_id: int, **changes) -> None:
        """Commit the partition INDEXED again: its prior row's fields,
        with ``changes`` applied."""
        rec = self.read(partition_id) or {}
        self.commit(partition_id, **{
            k: rec[k] for k in ("input_fingerprint", "docs_seen",
                                "terms_emitted", "bytes_written", "dl_sum",
                                "output_files", "attempt") if k in rec}
            | changes)

    def forget(self, partition_id: int) -> None:
        """Delete the partition's row (its history stays)."""
        try:
            os.unlink(self._path(partition_id))
        except FileNotFoundError:
            pass

    def read(self, partition_id: int) -> Optional[Dict]:
        try:
            with open(self._path(partition_id)) as f:
                return json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def all(self) -> Dict[int, Dict]:
        out: Dict[int, Dict] = {}
        if not os.path.isdir(self.dir):
            return out
        for name in os.listdir(self.dir):
            if name.startswith("part-") and name.endswith(".json"):
                try:
                    with open(os.path.join(self.dir, name)) as f:
                        rec = json.load(f)
                    out[rec["partition_id"]] = rec
                except (json.JSONDecodeError, KeyError, OSError):
                    continue
        return out

    def completed_partitions(self) -> List[int]:
        return sorted(pid for pid, rec in self.all().items()
                      if rec.get("status") == STATUS_INDEXED)

    def attempt_of(self, partition_id: int) -> int:
        rec = self.read(partition_id)
        return int(rec.get("attempt", 0)) if rec else 0
