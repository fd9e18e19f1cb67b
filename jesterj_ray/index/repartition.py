"""Serving repartition: split one global index into N self-contained
doc-range slice indexes — the only way the engine shards serving.

The split is done ONCE at rest: each (term, chunk) posting list is
decoded, routed by the doc-count-balanced pid -> slice plan, and
re-encoded into a per-slice segment set that keeps the GLOBAL df/cf
columns and global stats.json — so a plain :class:`..query.IndexReader`
opened on a slice dir scores its docs exactly like the global reader
(BM25 weights are corpus-wide) while decoding ONLY its own postings, with
the FULL feature set (block-max pruning, phrase, positions).  One Ray
task per shard; no shuffle — tasks read only their shard's segment file.

Re-splitting into an existing slice root is the serving half of a writer
cycle (compact the source, re-split, reopen): every file goes down by
temp + os.replace, files of the previous split that this one did not
write are unlinked, and each slice publishes its epoch LAST.

At 10^12 docs this is the serving deployment step: slices sized to a
node, each node opens its slice dir, a fan-out service merges k-lists
(``serving.ShardedQueryService(slice_dirs)``).
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..state.manifest import atomic_write_bytes
from .build import (DOC_BITS, SEG_ROW_GROUP_ROWS, _ranges_gather,
                    _segment_schema)
from .codec import _cum0, decode_runs, encode_runs, range_cuts
from .epoch import _reader_visible_files, publish_epoch


REPART_FLUSH_ROWS = 1024  # per-slice buffered rows before a writer flush
# postings decoded at once while splitting (bounds task memory: one
# segment row may hold up to merge_runs' chunk_target postings)
REPART_DECODE_POSTINGS = 1 << 20


def _decode_slabs(pf: pq.ParquetFile):
    """The segment file's rows as record batches of at most
    ``REPART_DECODE_POSTINGS`` postings (a larger row travels alone)."""
    for rows in pf.iter_batches(batch_size=256):
        cuts = range_cuts([_cum0(rows.column("count").to_numpy())],
                          REPART_DECODE_POSTINGS)
        for a, b in zip(cuts[:-1], cuts[1:]):
            yield rows.slice(a, b - a)


def _plan_slices(docs_dir: str, n_slices: int) -> Dict[int, int]:
    """pid -> slice assignment balanced by DOC COUNT (r02 VERDICT #8:
    ``pid % n_slices`` skews when partition sizes vary).  Greedy
    largest-first into the lightest slice — deterministic (ties by pid),
    planned from parquet METADATA only (no data read), max/min slice load
    <= ~1 + largest_partition/avg_slice."""
    counts: Dict[int, int] = {}
    for name in sorted(os.listdir(docs_dir)):
        if not name.endswith(".parquet"):
            continue
        md = pq.ParquetFile(os.path.join(docs_dir, name)).metadata
        if md.num_rows == 0:
            continue
        counts[int(name.split("-")[1].split(".")[0])] = md.num_rows
    loads = [0] * n_slices
    assign: Dict[int, int] = {}
    for pid, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        s = min(range(n_slices), key=lambda i: (loads[i], i))
        assign[pid] = s
        loads[s] += c
    return assign


def _slice_lookup(assign: Dict[int, int]):
    """Vectorized pid-array -> slice-array mapper over the (small,
    broadcastable) assignment dict."""
    keys = np.array(sorted(assign), dtype=np.int64)
    vals = np.array([assign[k] for k in keys], dtype=np.int64)

    def lookup(pids: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(keys, pids)
        bad = (idx >= keys.size) | \
            (keys[np.minimum(idx, keys.size - 1)] != pids)
        if bad.any():
            missing = np.unique(pids[bad])
            raise KeyError(f"postings reference pids with no doc table: "
                           f"{missing[:5].tolist()}")
        return vals[idx]

    return lookup


def _split_shard(index_dir: str, out_root: str, shard: int,
                 n_slices: int, assign: Dict[int, int]) -> Dict:
    """Split one shard's segment file into n_slices per-slice segment
    files (df/cf stay GLOBAL).  Streams: reads one row-group slab at a
    time and flushes each slice's rows to an incremental parquet writer,
    so task memory is bounded regardless of shard size."""
    import uuid

    path = os.path.join(index_dir, "segments", f"shard-{shard:04d}.parquet")
    if not os.path.exists(path):
        return {"shard": shard, "rows": 0}
    pf = pq.ParquetFile(path)
    has_pos = "pos_blob" in pf.schema_arrow.names
    schema = _segment_schema(has_pos)
    pending = [schema.empty_table()] * n_slices  # rows not yet written
    writers: List = [None] * n_slices
    finals: List[str] = []
    tmps: List[str] = []
    for s in range(n_slices):
        seg_dir = os.path.join(out_root, f"slice-{s:03d}", "segments")
        os.makedirs(seg_dir, exist_ok=True)
        finals.append(os.path.join(seg_dir, f"shard-{shard:04d}.parquet"))
        tmps.append(os.path.join(
            seg_dir, f".tmp-{uuid.uuid4().hex[:8]}.parquet"))

    def flush(s: int, rows: int):
        """Write the first ``rows`` pending rows of slice ``s``."""
        if writers[s] is None:
            writers[s] = pq.ParquetWriter(tmps[s], schema)
        writers[s].write_table(pending[s].slice(0, rows),
                               row_group_size=SEG_ROW_GROUP_ROWS)
        pending[s] = pending[s].slice(rows)

    lookup = _slice_lookup(assign)
    total = 0
    for batch in _decode_slabs(pf):
        docs, tfs, pos = decode_runs(batch)
        R = batch.num_rows
        # group postings slice-major, then by source row; the stable sort
        # keeps every (slice, row) run's docs ascending
        key = lookup(docs >> DOC_BITS) * R + np.repeat(
            np.arange(R), batch.column("count").to_numpy())
        order = np.argsort(key, kind="stable")
        if pos is not None:
            # gather each kept doc's contiguous delta run (deltas restart
            # per doc, so runs concatenate verbatim)
            pos = _ranges_gather(pos, (np.cumsum(tfs) - tfs)[order],
                                 tfs[order])
        # a slice holding no docs of a source row still gets a
        # metadata-only row (count 0): the reader reconstructs a term's
        # GLOBAL df by summing its chunk rows' df, so a missing row would
        # under-count df for multi-chunk hot terms and mis-weight BM25
        enc = encode_runs(
            _cum0(np.bincount(key, minlength=n_slices * R)),
            docs[order], tfs[order], pos)
        for s in range(n_slices):
            pending[s] = pa.concat_tables([pending[s], pa.table(
                {nm: batch.column(nm) if nm in ("term", "chunk", "df", "cf")
                 else enc[nm].slice(s * R, R) for nm in schema.names},
                schema=schema)])
            while pending[s].num_rows >= REPART_FLUSH_ROWS:
                flush(s, REPART_FLUSH_ROWS)
        total += R * n_slices
    for s in range(n_slices):
        if pending[s].num_rows or writers[s] is None:
            flush(s, pending[s].num_rows)
        writers[s].close()
        os.replace(tmps[s], finals[s])
    return {"shard": shard, "rows": total}


def repartition_for_serving(index_dir: str, out_root: str, *,
                            n_slices: int = 4) -> List[str]:
    """Split ``index_dir`` into ``n_slices`` self-contained slice indexes
    under ``out_root/slice-XXX``; returns the slice dirs.  Each slice is
    a fully-featured index over its doc range whose df/cf/stats are
    GLOBAL, so per-slice scores equal the global reader's exactly."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    if stats.get("exact_stats"):
        # an exact-stats (delta-built) index computes alive-only n/avgdl/df
        # over the WHOLE corpus at query time; a slice reader would compute
        # them over its slice and silently mis-weight.  Compact first.
        raise ValueError(
            "cannot repartition an exact_stats (delta-built) index: run a "
            "full rebuild to compact tombstones, then repartition")
    # _split_shard reads only the base shard files; generation segments
    # would be silently dropped.  Today every gen-producing path also sets
    # exact_stats (refused above), but that is a cross-module coupling —
    # guard locally so a future gen-producing path cannot lose postings
    # (ADVICE r02).
    import glob as _glob
    gens = _glob.glob(os.path.join(index_dir, "segments", "*-gen-*.parquet"))
    if gens:
        raise ValueError(
            f"cannot repartition an index with generation segments "
            f"({len(gens)} found): run a full rebuild to compact first")
    num_shards = stats["num_shards"]

    # doc tables + tombstones per slice, routed by the doc-count-balanced
    # pid -> slice plan (r02 VERDICT #8)
    docs_dir = os.path.join(index_dir, "docs")
    assign = _plan_slices(docs_dir, n_slices)
    slice_tombs: List[List[int]] = [[] for _ in range(n_slices)]
    tomb_path = os.path.join(index_dir, "tombstones.json")
    if os.path.exists(tomb_path):
        with open(tomb_path) as f:
            for did in json.load(f).get("doc_ids", []):
                pid = int(did) >> DOC_BITS
                if pid not in assign:
                    # stale tombstone of a dropped/empty partition: no
                    # postings reference it, nothing to mask (mirrors
                    # compact_index's stale-tombstone handling; ADVICE r03)
                    continue
                slice_tombs[assign[pid]].append(did)
    slices = [os.path.join(out_root, f"slice-{s:03d}")
              for s in range(n_slices)]
    # reader-visible files this split writes, per slice: everything else
    # in the slice dir is a leftover of an earlier split
    written = [{"stats.json"} for _ in range(n_slices)]
    for s, sdir in enumerate(slices):
        os.makedirs(os.path.join(sdir, "docs"), exist_ok=True)
        atomic_write_bytes(
            os.path.join(sdir, "stats.json"),
            json.dumps(stats | {"slice_id": s,
                                "n_slices": n_slices}).encode())
        if slice_tombs[s]:
            atomic_write_bytes(
                os.path.join(sdir, "tombstones.json"),
                json.dumps({"doc_ids": sorted(slice_tombs[s])}).encode())
            written[s].add("tombstones.json")
    for name in sorted(os.listdir(docs_dir)):
        if not name.endswith(".parquet"):
            continue
        pid = int(name.split("-")[1].split(".")[0])
        if pid not in assign:
            continue  # empty doc table: no postings reference it
        dst = os.path.join(slices[assign[pid]], "docs", name)
        shutil.copy2(os.path.join(docs_dir, name), dst + ".tmp")
        os.replace(dst + ".tmp", dst)
        written[assign[pid]].add(f"docs/{name}")
    # _split_shard writes every slice's copy of each existing shard file
    segs = {f"segments/shard-{sh:04d}.parquet" for sh in range(num_shards)
            if os.path.exists(os.path.join(
                index_dir, "segments", f"shard-{sh:04d}.parquet"))}

    # segment split: one Ray task per shard (reads only its shard file)
    tasks = ray.data.from_items(
        [{"shard": sh} for sh in range(num_shards)],
        override_num_blocks=num_shards)

    def split(batch: pd.DataFrame) -> pd.DataFrame:
        pa.set_cpu_count(1)
        return pd.DataFrame([
            _split_shard(index_dir, out_root, int(sh), n_slices, assign)
            for sh in batch["shard"]])

    tasks.map_batches(split, batch_format="pandas",
                      batch_size=1).materialize()
    for sdir, keep in zip(slices, written):
        # publish_epoch lists whatever is on disk: unlink the previous
        # split's tombstones, moved doc tables and surplus shards first
        keep |= segs
        for rel in _reader_visible_files(sdir):
            if rel not in keep:
                os.unlink(os.path.join(sdir, rel))
        publish_epoch(sdir)
    return slices


def repartition_bm25f_for_serving(field_dirs, out_root: str, *,
                                  n_slices: int = 4):
    """Split every field index of a BM25F family into aligned serving
    slices: ``repartition_for_serving`` per field under
    ``out_root/<field>``.  The pid -> slice plan derives only from
    per-pid DOC COUNTS (identical across fields — same corpus, same
    doc_key partitioning), so slice s of every field covers the same
    doc range; ``BM25FReader``'s doc-space guard re-verifies that at
    open, so a divergence is an error, never a wrong score.

    Returns a list over slices of {field: slice_dir}."""
    per_field = {f: repartition_for_serving(d, os.path.join(out_root, f),
                                            n_slices=n_slices)
                 for f, d in field_dirs.items()}
    return [{f: per_field[f][s] for f in field_dirs}
            for s in range(n_slices)]
