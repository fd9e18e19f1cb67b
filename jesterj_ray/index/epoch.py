"""Epoch manifests: atomic point-in-time views of an index directory.

The reader's view of an index spans many files (stats.json,
tombstones.json, docs/*.parquet, segments/*.parquet) that writers update
one at a time — directory listings therefore admit TORN views while a
delta cycle, compaction or rebuild is mid-flight (e.g. new generation
segments beside not-yet-folded tombstones).  The Lucene analog is the
``segments_N`` commit point; the reference delegates the problem to
Solr/OpenSearch commits (``SendToSolrProcessor.java`` batches end in a
server-side commit).

Mechanism (portable — no reliance on POSIX inode pinning, so it works on
shared/object storage where open handles pin nothing):

- Every writer finishes ALL artifacts, then publishes ``epoch.json``
  LAST (temp + os.replace): ``{"epoch": N, "files": {relpath:
  "size:mtime_ns"}}`` over exactly the reader-visible files.
- ``IndexReader`` reads the epoch at open and PINS its file list: files
  on disk that the epoch does not list (a generation published after the
  reader opened, a mid-cycle tombstone rewrite) are invisible instead of
  torn into the view.
- Each (lazy) file open re-verifies the pinned fingerprint; a mismatch
  or missing file raises ``IndexChangedError`` — the honest outcome when
  a concurrent full re-merge/compaction replaced a pinned file — and the
  caller reopens the reader (seconds-long delta cycles keep serving the
  OLD epoch throughout; the error window is only the instant between an
  os.replace of a pinned file and the next publish).
- Indexes without ``epoch.json`` (pre-epoch layouts, hand-built test
  dirs) keep the directory-listing behavior unchanged.

Reuse across epochs: a parquet file that two epochs pin at the same
fingerprint is the same immutable bytes, so what a reader loaded from it
(a docs table, a segment's term index and row-group LRU) is kept in a
per-process registry (``query._CoreRegistry``) and handed to the next
reader of that dir instead of re-read — a reopen after a delta cycle
reads only the files the new epoch added or replaced.  The registry is
keyed by the dir's real path, the relpath and the pinned fingerprint,
holds only the latest opened epoch's files, and a reader takes a core
only after ``check_pinned`` passes for it, so a replaced or removed
pinned file raises ``IndexChangedError`` exactly as on a cold load.
Everything that depends on one epoch's dense numbering or stats
(impacts, position keys, postings) is never shared.

Compaction unlinks files that an older epoch references; a reader still
on that epoch degrades to ``IndexChangedError`` on its next cold file
open (already-open files keep serving) — stale readers fail honestly
rather than silently mixing views.  Cross-process reader refcounts (real
Lucene deletion policy) are out of scope for a shared-nothing engine.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from ..state.manifest import atomic_write_bytes

EPOCH_FILE = "epoch.json"


class IndexChangedError(RuntimeError):
    """A file pinned by the reader's epoch was replaced or removed by a
    concurrent writer — reopen the reader to adopt the new epoch."""


def _fingerprint(path: str) -> str:
    # Small JSON artifacts (stats/tombstones) are rewritten whole every
    # cycle even when unchanged — fingerprint their CONTENT so a no-op
    # resume keeps the epoch stable.  Parquet files are immutable once
    # published (replaced only by re-merge/compaction), so cheap
    # size:mtime_ns suffices.
    if path.endswith(".json"):
        with open(path, "rb") as f:
            return "sha1:" + hashlib.sha1(f.read()).hexdigest()
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def _reader_visible_files(index_dir: str) -> Dict[str, str]:
    files: Dict[str, str] = {}
    for name in ("stats.json", "tombstones.json"):
        p = os.path.join(index_dir, name)
        if os.path.exists(p):
            files[name] = _fingerprint(p)
    for sub in ("docs", "segments"):
        d = os.path.join(index_dir, sub)
        if os.path.isdir(d):
            for name in sorted(os.listdir(d)):
                if name.endswith(".parquet"):
                    p = os.path.join(d, name)
                    files[f"{sub}/{name}"] = _fingerprint(p)
    return files


def publish_epoch(index_dir: str) -> int:
    """Scan the reader-visible file set and atomically publish it as the
    next epoch.  Writers call this LAST, after every artifact of their
    cycle is in place.  A scan identical to the current epoch's file set
    is NOT re-published (resume paths that changed nothing keep the
    epoch id stable)."""
    prev = read_epoch(index_dir)
    files = _reader_visible_files(index_dir)
    if prev is not None and prev.get("files") == files:
        return int(prev["epoch"])
    n = (int(prev["epoch"]) + 1) if prev is not None else 1
    atomic_write_bytes(os.path.join(index_dir, EPOCH_FILE),
                       json.dumps({"epoch": n, "files": files}).encode())
    return n


def read_epoch(index_dir: str) -> Optional[dict]:
    p = os.path.join(index_dir, EPOCH_FILE)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def check_pinned(index_dir: str, epoch: Optional[dict],
                 relpath: str) -> None:
    """Verify ``relpath`` still matches the fingerprint pinned by
    ``epoch`` (no-op when the index has no epoch).  Callers verify AFTER
    reading a file: if the fingerprint still matches, the bytes just
    read were the pinned version."""
    if epoch is None:
        return
    want = epoch["files"].get(relpath)
    p = os.path.join(index_dir, relpath)
    if want is None:
        raise IndexChangedError(
            f"{relpath} is not in epoch {epoch['epoch']} of {index_dir}")
    try:
        got = _fingerprint(p)
    except FileNotFoundError:
        raise IndexChangedError(
            f"{relpath} pinned by epoch {epoch['epoch']} was removed "
            f"(concurrent compaction?) — reopen the reader") from None
    if got != want:
        raise IndexChangedError(
            f"{relpath} changed under epoch {epoch['epoch']} "
            f"({want} -> {got}) — reopen the reader")


def snapshot_index(index_dir: str, dest_dir: str,
                   max_retries: int = 3) -> int:
    """Consistent point-in-time backup (Solr replication handler /
    Lucene SnapshotDeletionPolicy analog): copy EXACTLY the file set
    pinned by the current epoch, verifying each file's fingerprint
    AFTER copying — a concurrent writer cycle that replaces a pinned
    file mid-copy is detected and the snapshot retries from the new
    epoch rather than shipping a torn mixture.  The destination is
    itself a valid epoch'd index (epoch.json written LAST), so restore
    is just "open the directory".  Epoch-less indexes snapshot via a
    one-shot publish first.

    Returns the epoch number the snapshot captured.  Raises
    ``IndexChangedError`` after ``max_retries`` racing cycles.
    """
    import shutil
    import tempfile

    if read_epoch(index_dir) is None:
        publish_epoch(index_dir)
    last_err: Optional[Exception] = None
    for _ in range(max_retries):
        epoch = read_epoch(index_dir)
        tmp = tempfile.mkdtemp(prefix=".snap-",
                               dir=os.path.dirname(
                                   os.path.abspath(dest_dir)) or ".")
        try:
            for rel in sorted(epoch["files"]):
                src = os.path.join(index_dir, rel)
                dst = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                try:
                    try:
                        shutil.copy2(src, dst)
                    except FileNotFoundError:
                        # compaction unlinked the pinned file before
                        # the copy — same writer race as a replaced
                        # file; retry from the new epoch
                        raise IndexChangedError(
                            f"{rel} unlinked mid-snapshot") from None
                    # verify-AFTER-copy: unchanged fingerprint proves
                    # the bytes copied were the pinned version
                    check_pinned(index_dir, epoch, rel)
                except IndexChangedError as e:
                    last_err = e
                    raise
            atomic_write_bytes(
                os.path.join(tmp, EPOCH_FILE),
                json.dumps({"epoch": int(epoch["epoch"]),
                            "files": epoch["files"]}).encode())
            # commit-then-destroy: the previous backup is moved aside
            # and removed only AFTER the new one is in place — a crash
            # mid-snapshot can never leave the user with NO backup
            old = None
            if os.path.isdir(dest_dir):
                old = dest_dir.rstrip(os.sep) + ".old"
                shutil.rmtree(old, ignore_errors=True)
                os.replace(dest_dir, old)
            os.replace(tmp, dest_dir)
            if old is not None:
                shutil.rmtree(old, ignore_errors=True)
            return int(epoch["epoch"])
        except IndexChangedError:
            shutil.rmtree(tmp, ignore_errors=True)
            continue
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
    raise IndexChangedError(
        f"snapshot of {index_dir} raced {max_retries} writer cycles: "
        f"{last_err}")
