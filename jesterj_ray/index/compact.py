"""Tombstone compaction: fold a delta-built (exact_stats) index back into
a plain dense index without touching the SOURCE corpus.

After N delta rounds an index serves correctly but carries baggage:
tombstoned postings still occupy runs/segments (skipped at query time),
stats are exact-computed per query (``exact_stats``), and serving
repartition refuses it.  The reference's analog is Cassandra compaction
of the FTI status/hash tables (``ScannerImpl.java:135-144``) plus a
Lucene-style segment merge dropping deletes.

``compact_index`` rewrites ONLY the partitions that own tombstoned docs
(distributed, one Ray task per partition): dead rows leave the doc
table, surviving docs renumber to dense ranks (the reader indexes
``dl[pid][rank]`` — rank gaps are not representable), and the
partition's run files re-encode with the new ids.  Fully-dead delta
partitions drop entirely.  Then every shard whose runs changed — plus
every shard still holding generation segments — fully re-merges (the
per-shard fingerprint invalidation does this for free), tombstones
clear, the overlay catalog's ids remap, and stats.json reverts to
as-built (no ``exact_stats``).  The result scores identically and is
accepted by ``repartition_for_serving``.

Scale: work is proportional to the TOMBSTONED partitions (decode +
re-encode of their runs), not the corpus; untouched partitions and
shards cost nothing.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..state.manifest import (Manifest, STATUS_DROPPED, STATUS_INDEXED,
                              atomic_write_bytes, atomic_write_table)
from .build import DELTA_PID_BASE, DOC_BITS, _ranges_gather, merge_runs
from .codec import _cum0, decode_runs, encode_runs
from .epoch import publish_epoch


def _rewrite_partition(out_dir: str, pid: int, dead_ranks: np.ndarray,
                       num_shards: int) -> List[Dict]:
    """Drop dead docs from one partition's doc table + runs, renumbering
    survivors to dense ranks.  Returns bookkeeping rows: one
    ``{"kind": "part", ...}`` summary and, for delta partitions, one
    ``{"kind": "remap", "old_id", "new_id"}`` per surviving doc (for the
    overlay catalog)."""
    man = Manifest(out_dir, "build")
    doc_path = os.path.join(out_dir, "docs", f"part-{pid:05d}.parquet")
    t = pq.read_table(doc_path)
    n_old = t.num_rows
    alive = np.ones(n_old, dtype=bool)
    alive[dead_ranks] = False
    new_rank = np.cumsum(alive) - 1          # old rank -> new rank
    n_new = int(alive.sum())
    out: List[Dict] = []

    shard_paths = [os.path.join(out_dir, "runs", f"shard-{s:04d}",
                                f"part-{pid:05d}.parquet")
                   for s in range(num_shards)]
    if n_new == 0:
        # fully dead (e.g. a delta partition whose every copy was
        # superseded): drop all artifacts
        man.log(pid, STATUS_DROPPED, message="compacted away")
        for p in [doc_path,
                  os.path.join(man.dir, f"part-{pid:05d}.json")] + \
                shard_paths:
            try:
                os.unlink(p)
            except FileNotFoundError:
                pass
        out.append({"kind": "part", "pid": pid, "docs": 0, "old_id": -1,
                    "new_id": -1})
        return out

    old_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    keep = np.flatnonzero(alive)
    new_ids = (np.int64(pid) << DOC_BITS) | np.arange(n_new, dtype=np.int64)
    new_doc = t.take(pa.array(keep)).set_column(
        t.schema.get_field_index("doc_id"), "doc_id",
        pa.array(new_ids, pa.int64()))
    dl_sum = int(new_doc["dl"].to_numpy().sum())

    nbytes = atomic_write_table(doc_path, new_doc)
    if pid >= DELTA_PID_BASE:
        for oid, nid in zip(old_ids[keep], new_ids):
            out.append({"kind": "remap", "pid": pid, "docs": 0,
                        "old_id": int(oid), "new_id": int(nid)})

    mask = (1 << DOC_BITS) - 1
    for path in shard_paths:
        if not os.path.exists(path):
            continue
        src = pq.read_table(path)
        docs, tfs, pos = decode_runs(src)
        ranks = docs & mask
        live = alive[ranks]
        row_of = np.repeat(np.arange(src.num_rows),
                           src["count"].to_numpy())
        counts = np.bincount(row_of[live], minlength=src.num_rows)
        if live.any():
            if pos is not None:
                # per-(term,doc) deltas restart each doc: gathering whole
                # docs' runs keeps the encoding valid verbatim
                pos = _ranges_gather(pos, (np.cumsum(tfs) - tfs)[live],
                                     tfs[live])
            rows = pa.array(counts > 0)
            table = pa.table(
                {"term": src["term"].filter(rows),
                 "pid": src["pid"].filter(rows)}
                | encode_runs(_cum0(counts[counts > 0]),
                              (np.int64(pid) << DOC_BITS)
                              | new_rank[ranks[live]], tfs[live], pos))
            nbytes += atomic_write_table(path, table, row_group_size=4096)
        else:
            os.unlink(path)  # every term row of this pid's slice died

    rec = man.read(pid) or {}
    man.commit(pid, status=STATUS_INDEXED,
               input_fingerprint=rec.get("input_fingerprint", ""),
               docs_seen=n_new, terms_emitted=rec.get("terms_emitted", 0),
               bytes_written=nbytes, dl_sum=dl_sum,
               output_files=rec.get("output_files", []),
               attempt=rec.get("attempt", 1), message="compacted")
    out.append({"kind": "part", "pid": pid, "docs": n_new, "old_id": -1,
                "new_id": -1})
    return out


def compact_index(index_dir: str) -> Dict:
    """Compact tombstones + generations out of ``index_dir`` in place.

    Returns {compacted_partitions, dropped_partitions, n_docs}.  No-op
    (beyond a stats normalization) when there is nothing to compact.

    NOT safe under concurrent serving: docids renumber across several
    files (doc tables, runs, segments, stats) that cannot swap
    atomically together — pause readers (or compact a copy and flip a
    symlink), exactly like a Lucene force-merge deployment.
    """
    import glob as _glob

    stats_path = os.path.join(index_dir, "stats.json")
    with open(stats_path) as f:
        stats = json.load(f)
    num_shards = int(stats["num_shards"])
    tomb_path = os.path.join(index_dir, "tombstones.json")
    pend_path = os.path.join(index_dir, "tombstones.pending.json")
    tombs: List[int] = []
    if os.path.exists(tomb_path):
        with open(tomb_path) as f:
            tombs = json.load(f).get("doc_ids", [])
    # fold in deletions staged by a crashed delta round (durable pending
    # set written before that round's merge) — compaction must not
    # resurrect them
    if os.path.exists(pend_path):
        with open(pend_path) as f:
            tombs = sorted(set(tombs) | set(json.load(f).get("doc_ids", [])))

    man = Manifest(index_dir, "build")
    recs = man.all()
    by_pid: Dict[int, List[int]] = {}
    for did in tombs:
        pid = int(did) >> DOC_BITS
        if pid in recs:  # stale tombstones of dropped partitions: ignore
            by_pid.setdefault(pid, []).append(int(did) & ((1 << DOC_BITS) - 1))

    dropped = 0
    remap: Dict[int, int] = {}
    if by_pid:
        items = [{"pid": pid, "dead_ranks": sorted(ranks)}
                 for pid, ranks in sorted(by_pid.items())]

        def compactor(batch: pd.DataFrame) -> pd.DataFrame:
            pa.set_cpu_count(1)
            rows: List[Dict] = []
            for _, it in batch.iterrows():
                rows.extend(_rewrite_partition(
                    index_dir, int(it["pid"]),
                    np.asarray(it["dead_ranks"], dtype=np.int64),
                    num_shards))
            return pd.DataFrame(rows)

        book = ray.data.from_items(items, override_num_blocks=len(items)) \
            .map_batches(compactor, batch_format="pandas", batch_size=1) \
            .to_pandas()
        dropped = int(((book["kind"] == "part") & (book["docs"] == 0)).sum())
        for _, r in book[book["kind"] == "remap"].iterrows():
            remap[int(r["old_id"])] = int(r["new_id"])

    # overlay catalog: surviving delta copies keep serving under their
    # renumbered ids
    cat_path = os.path.join(index_dir, "delta_overlay.json")
    if os.path.exists(cat_path) and remap:
        with open(cat_path) as f:
            catalog = json.load(f)
        for ent in catalog.values():
            if int(ent["id"]) in remap:
                ent["id"] = remap[int(ent["id"])]
        atomic_write_bytes(cat_path, json.dumps(catalog).encode())

    # force-compact shards still holding generation segments (their run
    # set may be unchanged, so fingerprint invalidation alone would skip
    # them and leave gens behind)
    merge_man = Manifest(index_dir, "merge")
    for p in _glob.glob(os.path.join(index_dir, "segments",
                                     "*-gen-*.parquet")):
        shard = int(os.path.basename(p).split("-")[1])
        try:
            os.unlink(os.path.join(merge_man.dir,
                                   f"part-{shard:05d}.json"))
        except FileNotFoundError:
            pass

    merge_runs(index_dir, num_shards)

    # deletions are physical in the re-merged segments; clear the
    # tombstone sets only now (old ids would alias renumbered ranks)
    for p in (tomb_path, pend_path):
        try:
            os.unlink(p)
        except FileNotFoundError:
            pass

    recs = Manifest(index_dir, "build").all()
    n_docs = sum(r["docs_seen"] for r in recs.values()
                 if r["status"] == STATUS_INDEXED)
    dl_sum = sum(r.get("dl_sum", 0) for r in recs.values()
                 if r["status"] == STATUS_INDEXED)
    new_stats = {k: v for k, v in stats.items() if k != "exact_stats"}
    new_stats.update({"n_docs": int(n_docs), "dl_sum": int(dl_sum),
                      "avgdl": (dl_sum / n_docs) if n_docs else 0.0,
                      "num_partitions": len(recs)})
    atomic_write_bytes(stats_path, json.dumps(new_stats).encode())
    publish_epoch(index_dir)
    return {"compacted_partitions": len(by_pid) - dropped,
            "dropped_partitions": dropped, "n_docs": int(n_docs)}
