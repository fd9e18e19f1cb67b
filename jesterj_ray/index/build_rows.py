"""The index build: partitions = parquet row-group ranges, no shuffle.

``build_index_rows`` is the one build entry point.  Dedup at ingest is
a separate step before it: ``stages.dedup.exact_dedup_parquet`` writes
the survivors to parquet, and this build indexes those files.  Document
text is the dominant bytes, so it never crosses the object store here.

- partitions are planned DRIVER-SIDE from parquet METADATA only (file,
  row-group ranges, ~``docs_per_partition`` rows each) — deterministic for
  a given input regardless of parallelism;
- stage 1 is ``from_items(partitions) -> map_batches(indexer)``: each task
  opens ONLY its row groups (parquet range read — "prune at the read"),
  tokenizes, aggregates (term, tf) per doc, writes its run + doc table via
  atomic rename, commits its manifest row.  ZERO all-to-all for the text;
- resume filters the partition list BEFORE reading: committed partitions
  cost nothing, not even input IO;
- stage 2 (tiny): merge runs into term-sharded segments — the only
  exchange, over per-(term, partition) aggregates (``build.merge_runs``);
  planned in the driver, so a no-op resume starts no Ray job.

docID = pid << 32 | row_in_partition (file/row order), so docIDs ascend
with input order and are identical at any num_cpus.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.manifest import (Manifest, MAX_ATTEMPTS, STATUS_DEAD,
                              STATUS_DIRTY, STATUS_DROPPED, STATUS_ERROR,
                              STATUS_FORCE, STATUS_INDEXED, STATUS_PROCESSING,
                              STATUS_RESTART, STATUS_SEARCHABLE)
from ..tokenize.tokenizer import TOKENIZERS
from . import ledger
from .epoch import publish_epoch
from .build import (DOC_BITS, _index_partition_tables, merge_runs,
                    one_task_each)


def plan_row_partitions(paths: List[str], docs_per_partition: int = 50_000
                        ) -> List[Dict]:
    """Partition descriptors from parquet metadata (no data read)."""
    parts: List[Dict] = []
    pid = 0
    for path in sorted(paths):
        md = pq.ParquetFile(path).metadata
        groups: List[int] = []
        rows = 0
        for rg in range(md.num_row_groups):
            groups.append(rg)
            rows += md.row_group(rg).num_rows
            if rows >= docs_per_partition:
                parts.append({"pid": pid, "path": path,
                              "row_groups": list(groups), "rows": rows})
                pid += 1
                groups, rows = [], 0
        if groups:
            parts.append({"pid": pid, "path": path,
                          "row_groups": list(groups), "rows": rows})
            pid += 1
    return parts


def _part_fingerprint(part: Dict) -> str:
    """Input fingerprint of one partition: path + row groups + planned rows
    + file size/mtime_ns, so a changed input slice invalidates its commit
    (nanosecond mtime: second-resolution missed same-second rewrites, e.g.
    fast watch_and_reindex cycles)."""
    st = os.stat(part["path"])
    return hashlib.sha256(
        f"{part['path']}|{list(part['row_groups'])}|{part['rows']}"
        f"|{st.st_size}|{st.st_mtime_ns}".encode()).hexdigest()


# re-exported for callers; defined beside the merge that depends on it
from .build import DELTA_PID_BASE  # noqa: E402


def _drop_partitions(out_dir: str, man: Manifest, pids, message="") -> None:
    """Delete every artifact of partitions no longer in the current plan
    (or compacted away): manifest row, doc table, quarantine table, and
    the pid's slice of every run shard."""
    runs_dir = os.path.join(out_dir, "runs")
    shard_dirs = [os.path.join(runs_dir, d) for d in os.listdir(runs_dir)] \
        if os.path.isdir(runs_dir) else []
    for pid in sorted(pids):
        man.log(pid, STATUS_DROPPED, message=message)  # terminal record
        man.forget(pid)
        for path in ([os.path.join(out_dir, "docs", f"part-{pid:05d}.parquet"),
                      os.path.join(out_dir, "quarantine",
                                   f"part-{pid:05d}.parquet")] +
                     [os.path.join(d, f"part-{pid:05d}.parquet")
                      for d in shard_dirs]):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


def _commit_stats(out_dir: str, man: Manifest, *, tokenizer: str,
                  positions: bool, num_partitions: Optional[int],
                  num_shards: int, change_col: Optional[str],
                  exact_stats: bool = False) -> Dict:
    """After a successful merge: record the INDEXED -> SEARCHABLE
    transition (Status.java: a doc is SEARCHABLE once the index serves
    it) for partitions not already marked, then write the stats of the
    committed manifest.  ``num_partitions=None`` counts its records."""
    recs = man.all()
    for pid, r in recs.items():
        if r.get("status") == STATUS_INDEXED and \
                man.last_logged_status(pid) != STATUS_SEARCHABLE:
            man.log(pid, STATUS_SEARCHABLE)
    fields = {"tokenizer": tokenizer, "positions": positions,
              "num_partitions": len(recs) if num_partitions is None
              else num_partitions,
              "num_shards": num_shards}
    if exact_stats:
        fields["exact_stats"] = True
    fields["dead_partitions"] = sorted(p for p, r in recs.items()
                                       if r["status"] == STATUS_DEAD)
    if change_col:
        fields["change_col"] = change_col
    from ..tokenize.analyzer import ANALYZER_CONFIGS
    if tokenizer in ANALYZER_CONFIGS:
        # schema-driven analyzer: persist the config so readers in
        # other processes re-register it from stats alone
        fields["analyzer_config"] = ANALYZER_CONFIGS[tokenizer]
    return ledger.commit_stats(out_dir, recs, fields)


def _read_partition(part: Dict, text_col: str, key_col: Optional[str],
                    change_col: Optional[str]) -> pd.DataFrame:
    """One planned partition's rows (only its row groups) with the
    derived ``doc_key`` and the ``content_sha256`` of ``change_col``
    (default: ``text_col``)."""
    sha_col = change_col or text_col
    cols = list(dict.fromkeys(
        [text_col, sha_col] + ([key_col] if key_col else [])))
    g = pq.ParquetFile(part["path"]).read_row_groups(
        list(part["row_groups"]), columns=cols).to_pandas()
    if key_col:
        g["doc_key"] = g[key_col].astype(str).str.zfill(12)
    else:
        g["doc_key"] = [f"{os.path.basename(part['path'])}"
                        f":{part['row_groups'][0]}:{i}"
                        for i in range(len(g))]
    g["content_sha256"] = [hashlib.sha256((x or "").encode()).hexdigest()
                           for x in g[sha_col]]
    return g


def make_row_indexer(out_dir: str, *, tokenizer: str, text_col: str,
                     key_col: Optional[str], num_shards: int = 8,
                     positions: bool = False,
                     fail_pids: Optional[List[int]] = None,
                     change_col: Optional[str] = None):
    """``change_col``: column whose content drives CHANGE DETECTION
    (stored as content_sha256) when it differs from the indexed
    ``text_col`` — the BM25F field-family hook: every field indexes its
    own slice but hashes the FULL document, so one changed doc re-feeds
    in ALL fields and the shared doc space stays aligned."""
    tok = TOKENIZERS[tokenizer]
    fail = set(fail_pids or [])

    def row_indexer(batch: pd.DataFrame) -> pd.DataFrame:
        # one Arrow compute thread per task: Ray already schedules one task
        # per CPU slot, so Arrow's own pool would oversubscribe the node
        # (and silently break CPU accounting between parallelism levels)
        pa.set_cpu_count(1)
        out_rows = []
        man = Manifest(out_dir, "build")
        for _, part in batch.iterrows():
            pid = int(part["pid"])
            prior = man.read(pid)
            if prior and prior.get("status") == STATUS_INDEXED:
                out_rows.append({"partition_id": pid,
                                 "docs_seen": prior["docs_seen"],
                                 "terms_emitted": prior["terms_emitted"],
                                 "bytes_written": prior["bytes_written"],
                                 "dl_sum": prior.get("dl_sum", 0),
                                 "status": STATUS_INDEXED})
                continue
            # retry count from the transition history (consecutive ERRORs;
            # a DIRTY/FORCE mark resets the streak like the reference's
            # history-based counting, ScannerImpl.java:614-713)
            attempt = man.consecutive_errors(pid) + 1
            man.log(pid, STATUS_RESTART if attempt > 1 else
                    STATUS_PROCESSING, attempt=attempt)
            try:
                if pid in fail:
                    raise RuntimeError(f"injected failure for pid {pid}")
                if attempt > MAX_ATTEMPTS:
                    raise RuntimeError("max attempts exceeded")
                g = _read_partition(part, text_col, key_col, change_col)
                fingerprint = _part_fingerprint(part)
                rec = _index_partition_tables(
                    g, pid, out_dir, tok, text_col,
                    fingerprint=fingerprint,
                    attempt=attempt, manifest=man, num_shards=num_shards,
                    positions=positions)
                out_rows.append(rec)
            except Exception as e:
                # returned, not raised: the driver raises once EVERY task
                # of the job has finished (see _run_indexer)
                status = STATUS_DEAD if attempt >= MAX_ATTEMPTS else \
                    STATUS_ERROR
                man.commit(pid, status=status, attempt=attempt,
                           message=str(e)[:500])
                out_rows.append({"partition_id": pid, "docs_seen": 0,
                                 "terms_emitted": 0, "bytes_written": 0,
                                 "dl_sum": 0, "status": status})
        return pd.DataFrame(out_rows)

    return row_indexer


def _run_indexer(out_dir: str, parts: List[Dict], indexer) -> None:
    """Stage 1: one ``indexer`` task per partition.  A failed partition
    comes back as an ERROR row and this raises only after the job ends,
    so no task of a failed build is still writing run/docs files when
    the next build (a resume) plans, merges and publishes its epoch —
    and every partition that can commit has committed."""
    res = one_task_each(parts, indexer)
    failed = sorted(int(p) for p in
                    res.loc[res["status"] == STATUS_ERROR, "partition_id"])
    if failed:
        man = Manifest(out_dir, "build")
        raise RuntimeError(
            f"index build failed in partitions {failed}: "
            + "; ".join(f"{p}: {man.read(p).get('message', '')}"
                        for p in failed))


def _make_partition_differ(out_dir: str, *, text_col: str,
                           key_col: Optional[str], tokenizer: str,
                           num_shards: int, positions: bool,
                           cat_sha_ref, cat_id_ref,
                           change_col: Optional[str] = None):
    """map_batches fn for the DISTRIBUTED per-partition diff (document
    text never reaches the driver).  Each task diffs ONE changed
    partition's slice against its stored doc table, tokenizes and writes
    any changed docs straight into its RESERVED delta partition, refreshes
    the source partition's manifest fingerprint, and returns only small
    BOOKKEEPING rows (kind/key/id/sha/pid — never text):

    - ``dead``:    a tombstoned old doc id
    - ``sighted``: an overlay-catalog key seen in this partition's slice
    - ``catdel``:  an overlay entry superseded by this round's change
    - ``catadd``:  a new overlay entry (changed doc's delta id + sha)

    The overlay catalog ships READ-ONLY as two broadcast pandas Series
    (key -> sha, key -> id): a key lives in exactly one partition's slice,
    so snapshot semantics equal a sequential diff.  ``change_col``: see
    make_row_indexer."""
    tok = TOKENIZERS[tokenizer]

    def differ(batch: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray
        pa.set_cpu_count(1)
        cat_sha: pd.Series = _ray.get(cat_sha_ref)
        cat_id: pd.Series = _ray.get(cat_id_ref)
        man = Manifest(out_dir, "build")
        out = {"kind": [], "key": [], "id": [], "sha": [], "pid": []}

        def emit(kind, key="", id_=-1, sha="", pid=-1):
            out["kind"].append(kind)
            out["key"].append(key)
            out["id"].append(int(id_))
            out["sha"].append(sha)
            out["pid"].append(int(pid))

        for _, part in batch.iterrows():
            pid = int(part["pid"])
            delta_pid = int(part["delta_pid"])
            force = bool(part["force"])
            g = _read_partition(part, text_col, key_col, change_col)
            old = pq.read_table(
                os.path.join(out_dir, "docs", f"part-{pid:05d}.parquet"),
                columns=["doc_id", "doc_key", "content_sha256"]).to_pandas()
            # vectorized per-doc diff: the EFFECTIVE previous content is
            # the alive delta copy when one exists, else the base row
            m = g[["doc_key", "content_sha256", text_col]].merge(
                old.rename(columns={"content_sha256": "__base_sha"}),
                on="doc_key", how="left")
            ov = m["doc_key"].map(cat_sha) if len(cat_sha) else \
                pd.Series(np.nan, index=m.index, dtype=object)
            for k in m.loc[ov.notna(), "doc_key"]:
                emit("sighted", key=k, pid=pid)
            eff_sha = ov.where(ov.notna(), m["__base_sha"])
            known = eff_sha.notna()
            changed = force | ~known | (eff_sha != m["content_sha256"])
            for did in m.loc[changed & m["__base_sha"].notna(), "doc_id"]:
                emit("dead", id_=int(did))
            for k in m.loc[changed & ov.notna(), "doc_key"]:
                emit("dead", id_=int(cat_id[k]))
                emit("catdel", key=k)
            # base rows whose key left this partition (deleted OR moved):
            # stale either way; a moved doc's delta copy is resolved
            # globally on the driver (it is sighted in its new partition)
            for did in old.loc[~old["doc_key"].isin(m["doc_key"]),
                               "doc_id"]:
                emit("dead", id_=int(did))

            ch = m.loc[changed, ["doc_key", "content_sha256", text_col]] \
                .sort_values("doc_key", kind="mergesort") \
                .reset_index(drop=True)
            if len(ch):
                # tokenize + write the delta partition HERE — the text
                # never leaves this task
                fp = hashlib.sha256(
                    ("|".join(ch["doc_key"]) + f"#{len(ch)}").encode()
                ).hexdigest()
                _index_partition_tables(ch, delta_pid, out_dir, tok,
                                        text_col, fingerprint=fp, attempt=1,
                                        manifest=man,
                                        num_shards=num_shards,
                                        positions=positions)
                for rank, (key, sha) in enumerate(
                        zip(ch["doc_key"], ch["content_sha256"])):
                    emit("catadd", key=key, sha=sha,
                         id_=(delta_pid << DOC_BITS) | rank, pid=pid)
            # the partition's surviving runs/docs stay valid: refresh its
            # fingerprint so future resumes don't re-index it wholesale
            man.recommit(pid, input_fingerprint=part["fingerprint"],
                         message="delta-diffed")
        return pd.DataFrame(out)

    return differ


def delta_reindex(paths, out_dir: str, *, text_col: str = "text",
                  key_col: Optional[str] = None, tokenizer: str = "simple",
                  docs_per_partition: int = 50_000, num_shards: int = 8,
                  positions: bool = False,
                  change_col: Optional[str] = None) -> Dict:
    """Per-DOCUMENT incremental re-index (r01 VERDICT #5; the reference
    re-feeds individual stranded docs, ``ScannerImpl.java:453-502`` +
    ``Scanner.java:48`` fetchById — partition-level resume alone would
    re-tokenize ~docs_per_partition docs for one changed document).

    For every partition whose input fingerprint changed, a DISTRIBUTED
    diff task (r02 VERDICT #1) compares the new slice's per-doc content
    shas against the stored doc table (sha compute is ~100x cheaper than
    tokenize): unchanged docs keep their runs; changed/deleted docs are
    TOMBSTONED; changed/new docs are tokenized and written INSIDE the
    task into its reserved delta partition (pid above the existing
    range).  Only the delta docs tokenize; document text never reaches
    the driver — the driver holds only catalog/tombstone bookkeeping.
    The merge restitches runs (O(runs+bytes), no tokenize) and stats gain
    ``exact_stats`` so readers score alive docs exactly like a full
    rebuild (n/avgdl here, df at query time).  A one-partition delta (the
    watch-loop case) diffs and merges in the driver, and an idle cycle
    merges nothing: neither starts a Ray job unless a shard compacts.

    Returns {n_docs (alive), reindexed_docs, tombstoned, delta_partitions}.
    """
    import ray as _ray

    if isinstance(paths, str):
        paths = [paths]
    # the delta MUST tokenize exactly like the base build: mixed
    # tokenizers would give changed docs different postings, and mixed
    # positions flags would give runs inconsistent schemas
    if ledger.has_stats(out_dir):
        base_stats = ledger.read_stats(out_dir)
        if base_stats.get("tokenizer") != tokenizer or \
                bool(base_stats.get("positions")) != bool(positions):
            raise ValueError(
                f"delta_reindex config mismatch: base build used "
                f"tokenizer={base_stats.get('tokenizer')!r} "
                f"positions={base_stats.get('positions')}, got "
                f"tokenizer={tokenizer!r} positions={positions}")
        if base_stats.get("num_shards") != num_shards:
            raise ValueError("delta_reindex num_shards must match the base")
        if base_stats.get("change_col") != change_col:
            raise ValueError(
                f"delta_reindex change_col mismatch: base build used "
                f"{base_stats.get('change_col')!r}, got {change_col!r} — "
                "mixed change detection would diverge a field family's "
                "doc spaces")
        # a schema-driven analyzer resolves from the base's persisted
        # config in a fresh process
        ledger.tokenizer_of(base_stats)
    parts = plan_row_partitions(paths, docs_per_partition)
    man = Manifest(out_dir, "build")
    recs = man.all()
    # stale = planned-range pids no longer planned; delta pids persist
    stale_pids = {pid for pid in recs if pid < DELTA_PID_BASE} - \
        {p["pid"] for p in parts}
    _drop_partitions(out_dir, man, stale_pids)
    recs = {pid: r for pid, r in recs.items()
            if pid >= DELTA_PID_BASE or pid in {p["pid"] for p in parts}}

    # OVERLAY CATALOG of alive delta copies from earlier rounds — the
    # source of truth for "what content does this doc currently serve":
    # a doc changed twice must tombstone its round-1 delta copy; a doc
    # whose current content matches its delta copy must NOT re-index; a
    # delta-served doc deleted from (or moved within) the input must be
    # detected even though it no longer appears in any BASE doc table.
    # Entries: doc_key -> {id, sha, home} where home is the planned pid
    # whose input slice last contained the doc (kept current every round
    # so deletions are detected by "home partition diffed, key unseen").
    catalog = ledger.read_overlay(out_dir)

    # classify partitions DRIVER-SIDE from metadata only (fingerprints are
    # stat() calls, no data read): unchanged / fresh (brand-new planned
    # partition) / to-diff; each to-diff partition gets a RESERVED delta
    # pid so tasks can write their delta partitions independently
    fresh_parts = []        # appended input: whole new planned partitions
    diff_parts: List[Dict] = []
    diffed_pids: set = set(stale_pids)  # dropped pids count as diffed-empty
    for p in parts:
        rec = recs.get(p["pid"])
        fp = _part_fingerprint(p)
        status = rec.get("status") if rec else None
        if status == STATUS_INDEXED and \
                rec.get("input_fingerprint") == fp:
            continue
        if status not in (STATUS_INDEXED, STATUS_DIRTY, STATUS_FORCE):
            fresh_parts.append(p)  # brand-new partition: index it whole
            continue
        # DIRTY: re-diff even when the fingerprint is unchanged;
        # FORCE: every doc re-feeds regardless of content hashes
        diffed_pids.add(p["pid"])
        diff_parts.append(p | {"fingerprint": fp,
                               "force": status == STATUS_FORCE})
    next_delta = max((pid for pid in recs if pid >= DELTA_PID_BASE),
                     default=DELTA_PID_BASE - 1) + 1
    for i, p in enumerate(sorted(diff_parts, key=lambda x: x["pid"])):
        p["delta_pid"] = next_delta + i

    # brand-new planned partitions (appended input) index whole under
    # their planned pid, exactly as build_index_rows would
    if fresh_parts:
        _run_indexer(out_dir, fresh_parts, make_row_indexer(
            out_dir, tokenizer=tokenizer, text_col=text_col,
            key_col=key_col, num_shards=num_shards, positions=positions,
            change_col=change_col))

    # DISTRIBUTED diff + delta write (r02 VERDICT #1): one task per
    # changed partition; only bookkeeping rows return — never text
    dead_ids: List[int] = []
    sighted: Dict[str, int] = {}   # overlay key -> pid where seen now
    delta_pids: List[int] = []
    n_reindexed = 0
    if diff_parts:
        cat_sha_ref = _ray.put(pd.Series(
            {k: v["sha"] for k, v in catalog.items()}, dtype=object))
        cat_id_ref = _ray.put(pd.Series(
            {k: int(v["id"]) for k, v in catalog.items()}, dtype=np.int64))
        differ = _make_partition_differ(
            out_dir, text_col=text_col, key_col=key_col,
            tokenizer=tokenizer, num_shards=num_shards,
            positions=positions, cat_sha_ref=cat_sha_ref,
            cat_id_ref=cat_id_ref, change_col=change_col)
        if len(diff_parts) == 1:
            # single changed partition (the watch-loop common case): run
            # the SAME differ inline — driver memory stays bounded by ONE
            # partition (never O(changed corpus)), and the ~0.3 s Ray
            # task round trip disappears from the 1-doc delta latency;
            # its one delta run per shard then merges in the driver too
            # (merge_runs), so the cycle starts no Ray job.
            # The differ sets pa.set_cpu_count(1) (worker hygiene);
            # restore the driver's Arrow pool afterwards.
            _prev_cpu = pa.cpu_count()
            try:
                book = differ(pd.DataFrame(diff_parts))
            finally:
                pa.set_cpu_count(_prev_cpu)
        else:
            # O(changed+sightings+deletions) rows, no text
            book = one_task_each(diff_parts, differ)
        dead_ids.extend(int(x) for x in
                        book.loc[book["kind"] == "dead", "id"])
        for _, r in book[book["kind"] == "sighted"].iterrows():
            sighted[r["key"]] = int(r["pid"])
        for k in book.loc[book["kind"] == "catdel", "key"]:
            catalog.pop(k, None)

    # resolve overlay copies of keys that vanished: if a copy's home
    # partition was diffed this round and the key was seen nowhere, the
    # doc is deleted (a MOVED doc is sighted in its new partition and
    # survives); runs BEFORE this round's catadd entries apply, exactly
    # like the old sequential order — new entries must never tombstone
    for key in list(catalog):
        ent = catalog[key]
        if ent.get("home") in diffed_pids and key not in sighted:
            dead_ids.append(int(ent["id"]))
            del catalog[key]
    for key, pid in sighted.items():
        if key in catalog:
            catalog[key]["home"] = pid

    if diff_parts:
        adds = book[book["kind"] == "catadd"]
        n_reindexed = len(adds)
        for _, r in adds.iterrows():
            catalog[r["key"]] = {"id": int(r["id"]), "sha": r["sha"],
                                 "home": int(r["pid"])}
        delta_pids = sorted({int(i) >> DOC_BITS for i in adds["id"]})

    ledger.write_overlay(out_dir, catalog)

    # the dead ids are STAGED durably before the merge: the differ tasks
    # have already refreshed the partitions' input fingerprints, so a
    # crash from here on would never recompute this diff.  The serving
    # tombstones update only after the merge, so deletions and their
    # replacement postings become visible together (ADVICE r02).
    with ledger.deletions_staged(out_dir, dead_ids):
        merge_runs(out_dir, num_shards)

    stats = _commit_stats(out_dir, man, tokenizer=tokenizer,
                          positions=positions, num_partitions=None,
                          num_shards=num_shards, change_col=change_col,
                          exact_stats=True)
    publish_epoch(out_dir)
    # alive docs = every indexed row minus the CUMULATIVE tombstone set
    return {"n_docs": stats["n_docs"] - len(ledger.tombstone_ids(out_dir)),
            "reindexed_docs": int(n_reindexed),
            "tombstoned": len(set(dead_ids)),
            "delta_partitions": delta_pids}


def watch_and_reindex(pattern: str, out_dir: str, *, interval_s: float = 5.0,
                      max_cycles: Optional[int] = None, text_col: str = "text",
                      key_col: Optional[str] = None, tokenizer: str = "simple",
                      docs_per_partition: int = 50_000, num_shards: int = 8,
                      positions: bool = False,
                      compact_every: Optional[int] = None):
    """Continuous rescan loop (the reference's interval scanner,
    ``ScannerImpl.java:219-258``): every cycle globs ``pattern``, builds
    the base index on the first cycle, then per-document delta re-indexes
    (only changed docs tokenize) — a generator yielding each cycle's
    stats so callers drive or cancel it (``max_cycles`` bounds it for
    tests/batch use).  Sleeps ``interval_s`` between cycles.

    ``compact_every=N`` runs :func:`..compact.compact_index` after every
    N delta cycles, so an eternal loop keeps tombstones / overlay /
    generations bounded (Cassandra-compaction analog; pause concurrent
    serving during the compacting cycle — see index/compact.py)."""
    return _watch_cycles(pattern, {text_col: out_dir}, change_col=None,
                         positions=positions, interval_s=interval_s,
                         max_cycles=max_cycles, compact_every=compact_every,
                         key_col=key_col, tokenizer=tokenizer,
                         docs_per_partition=docs_per_partition,
                         num_shards=num_shards)


def _watch_cycles(pattern: str, field_dirs: Dict[str, str], *,
                  change_col: Optional[str], positions: bool,
                  interval_s: float, max_cycles: Optional[int],
                  compact_every: Optional[int], on_publish=None, **kw):
    """The one watch loop, over indexes ``{text_col: dir}``: a single
    index is ``{text_col: out_dir}`` with ``change_col=None`` (cycle
    stats are its own), a field family's go per field under "fields".
    Each cycle globs, base-builds while ANY index lacks a committed
    partition (a crash mid-way through a family's first builds resumes
    the missing fields), else runs a delta; every ``compact_every``
    cycles compacts and expires the FTI status history (reference TTL:
    90 days) of the build and merge stages; ``on_publish(stats)``."""
    import glob as _glob
    import time as _time

    def shaped(per: Dict[str, Dict]) -> Dict:
        return per[next(iter(per))] if change_col is None else per

    cycle = 0
    while max_cycles is None or cycle < max_cycles:
        if cycle:
            _time.sleep(interval_s)
        paths = sorted(_glob.glob(pattern))
        if not paths:
            yield {"cycle": cycle, "n_docs": 0, "paths": 0}
            cycle += 1
            continue
        mode = "delta" if all(Manifest(d, "build").completed_partitions()
                              for d in field_dirs.values()) else "base"
        if mode == "base" or change_col is None:
            step = build_index_rows if mode == "base" else delta_reindex
            per = {f: step(paths, d, text_col=f, positions=positions,
                           change_col=change_col, **kw)
                   for f, d in sorted(field_dirs.items())}
        else:
            from .bm25f import delta_reindex_fields
            per = delta_reindex_fields(paths, field_dirs,
                                       change_col=change_col,
                                       positions=positions, **kw)
        stats = {"cycle": cycle, "mode": mode, "paths": len(paths)}
        stats |= shaped(per) if change_col is None else {"fields": per}
        if mode == "delta" and compact_every and \
                cycle % compact_every == 0:
            from .compact import compact_index
            stats["compaction"] = shaped(
                {f: compact_index(d) for f, d in sorted(field_dirs.items())})
            stats["history_expired"] = sum(
                Manifest(d, stage).expire_history()
                for d in field_dirs.values() for stage in ("build", "merge"))
        if on_publish is not None:
            on_publish(stats)
        yield stats
        cycle += 1


def build_index_rows(paths, out_dir: str, *, text_col: str = "text",
                     key_col: Optional[str] = None, tokenizer: str = "simple",
                     docs_per_partition: int = 50_000, num_shards: int = 8,
                     resume: bool = True, positions: bool = False,
                     fail_pids: Optional[List[int]] = None,
                     change_col: Optional[str] = None) -> Dict:
    """Shuffle-free build over parquet ``paths``.  Returns build stats."""
    if isinstance(paths, str):
        paths = [paths]
    parts = plan_row_partitions(paths, docs_per_partition)
    man = Manifest(out_dir, "build")
    recs = man.all() if resume else {}
    # partitions dropped from a re-plan (input shrank) would otherwise
    # leave stale manifest/docs/runs artifacts that still count in stats
    # and load into the reader (ADVICE r01).  Delta partitions from
    # earlier delta_reindex rounds are dropped too: a full (re)build
    # subsumes them, and their tombstones with them.
    stale = set(recs) - {p["pid"] for p in parts}
    _drop_partitions(out_dir, man, stale)
    if stale:
        ledger.clear_delta_state(out_dir)
    recs = {pid: r for pid, r in recs.items()
            if pid in {p["pid"] for p in parts}}
    todo = []
    for p in parts:
        rec = recs.get(p["pid"])
        if rec and rec.get("status") == STATUS_INDEXED and \
                rec.get("input_fingerprint") == _part_fingerprint(p):
            continue  # committed AND the input slice is unchanged
        if rec and rec.get("status") == STATUS_INDEXED:
            # input changed under a committed partition: invalidate so the
            # indexer rebuilds it (incremental re-index of changed slices)
            man.forget(p["pid"])
        todo.append(p)

    if todo:
        _run_indexer(out_dir, todo, make_row_indexer(
            out_dir, tokenizer=tokenizer, text_col=text_col,
            key_col=key_col, num_shards=num_shards, positions=positions,
            fail_pids=fail_pids, change_col=change_col))

    merge_runs(out_dir, num_shards)

    stats = _commit_stats(out_dir, man, tokenizer=tokenizer,
                          positions=positions, num_partitions=len(parts),
                          num_shards=num_shards, change_col=change_col)
    publish_epoch(out_dir)
    return stats
