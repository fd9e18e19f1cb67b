"""Distributed inverted-index build: partition runs and the shard merge.

Replaces JesterJ's terminal Solr/OpenSearch senders
(``ingest/processors/SendToSolrProcessor.java``,
``SendToOpenSearchProcessor.java`` — which batch documents to an external
search engine) with a from-scratch index build, per the north_rule.

The one build entry point is ``build_rows.build_index_rows`` (row-range
partitions planned from parquet metadata, no shuffle); dedup at ingest
runs before it (``stages.dedup.exact_dedup_parquet``).  This module holds
what it and the delta/compaction paths share: the partition indexer
(``_index_partition_tables``) and the merge.

Each partition writes its RUNS PRE-PARTITIONED BY TERM SHARD (a map-side
partitioned spill): one file per (shard, partition) carrying term rows
with count/cf/first/last doc, a delta+varbyte doc blob, a tf blob and an
optional position blob.  ``partition_runs`` builds a partition's whole
run table in one vectorized pass: factorize + ``np.unique`` count the
(term, doc) pairs, and ``codec.encode_runs`` — the one writer of this
row layout, shared with compaction and serving repartition — encodes
every term at once.  The merge (``merge_runs``) is planned per term
shard in the driver from the merge manifest and ``os.stat`` alone:
up-to-date shards are skipped, new delta runs append a generation
segment, and a shard past ``COMPACT_AFTER_GENS`` generations FOLDS its
committed segments (base, then generations) and the new runs into a new
base — a fold reads segments, not every run since the build, and
decodes only their doc blobs to recover each row's first/last doc.  An
append or fold of one delta run is written in the driver; only the
other stale shards go to a Ray job, one task per stale shard reading
only its own files — no Ray shuffle.  It has ONE stitcher
(``_stitch_groups_vec``): each round's sorted rows are planned
into (term, chunk) groups and stitched byte-wise in one vectorized call —
only each run's first doc value is re-encoded as a delta against the
previous run's last doc; tf/pos blobs concatenate as-is.  A segment row
is therefore exactly a fresh ``encode_runs`` of its postings.  Merge
cost is O(runs + bytes), NEVER decoding postings; hot terms reaching
``chunk_target`` postings split into multiple (term, chunk) segment
rows, bounding memory (the answer to term skew — a hot term contributes
P small pre-aggregated rows, not 10^10 postings, and is never
materialized whole).

Fault tolerance: per-partition manifest rows committed by atomic rename
after the partition's outputs; per-row poison quarantine at tokenize;
resume skips committed partitions; merge invalidates when the run-set
fingerprint changes (SURVEY.md §3.3).

Scale notes (100 TB / 10^12 files): P sized so a partition is a few GB
(P ~ 30k at 100 TB); S sized so a shard file is ~100-500 MB; ``content``
never leaves stage 1; runs/segments live on shared storage in a real
cluster.
"""

from __future__ import annotations

import hashlib
import os
from itertools import chain
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..state.manifest import Manifest, STATUS_INDEXED, atomic_write_table
from . import codec
from .codec import (_bin_view, _blob_values, _cum0, encode_runs,
                    range_cuts, varbyte_encode, varbyte_lengths)

DOC_BITS = 32  # doc_id = pid << DOC_BITS | local_rank

# delta partitions (per-doc incremental re-index) live above this pid so
# they can never collide with planned row-range pids; build_rows re-exports
DELTA_PID_BASE = 1 << 20


def partition_runs(toks_per_doc: List[List[str]], dls: np.ndarray,
                   doc_ids: np.ndarray, pid: int,
                   positions: bool = False) -> pa.Table:
    """One partition's term-sorted run table from its docs' token lists
    (``dls[i] == len(toks_per_doc[i])``, ``doc_ids`` ascending).

    Counting is factorize (one string hash pass) + integer-key np.unique
    — ~20x faster than a pandas groupby over object-dtype (term, doc)
    pairs — and ``codec.encode_runs`` encodes every term's run in one
    pass.  factorize sorts the terms (Python code-point order = Arrow's
    UTF-8 byte order), so the table comes out term-sorted without an
    Arrow sort over the blobs."""
    n_g = len(toks_per_doc)
    flat = list(chain.from_iterable(toks_per_doc))
    offsets = np.zeros(1, dtype=np.int64)
    docs_arr = tfs_arr = np.empty(0, dtype=np.int64)
    terms = np.empty(0, dtype=object)
    pos_deltas = np.empty(0, dtype=np.int64) if positions else None
    if flat:
        codes, uniques = pd.factorize(np.asarray(flat, dtype=object),
                                      sort=True)
        local = np.repeat(np.arange(n_g, dtype=np.int64), dls)
        key = codes.astype(np.int64) * n_g + local
        uk, tfs_arr = np.unique(key, return_counts=True)
        t_idx = uk // n_g
        docs_arr = doc_ids[uk % n_g]  # ascending within each term run
        if positions:
            # token position within its doc, grouped by (term, doc) pair in
            # the same order as uk: delta-encoded per pair (restarting), so
            # blobs concatenate across runs/chunks without re-encoding
            doc_starts_flat = np.repeat(np.cumsum(dls) - dls, dls)
            pos_in_doc = np.arange(local.size, dtype=np.int64) - doc_starts_flat
            order = np.argsort(key, kind="stable")
            pos_sorted = pos_in_doc[order]
            pair_starts = np.cumsum(tfs_arr) - tfs_arr
            pos_deltas = pos_sorted.copy()
            inner = np.ones(pos_sorted.size, dtype=bool)
            inner[pair_starts] = False
            pos_deltas[inner] = pos_sorted[inner] - pos_sorted[
                np.flatnonzero(inner) - 1]
        starts = np.flatnonzero(np.r_[True, t_idx[1:] != t_idx[:-1]])
        offsets = np.r_[starts, t_idx.size]
        terms = np.asarray(uniques, dtype=object)[t_idx[starts]]
    # LAYOUT CONTRACT: codec.encode_runs is the one writer of this row
    # layout — compaction and serving repartition re-encode through it,
    # and the merge's stitched rows equal its output byte for byte
    return pa.table(
        {"term": pa.array(terms, pa.string()),
         "pid": pa.array(np.full(terms.size, pid, dtype=np.int64))}
        | encode_runs(offsets, docs_arr, tfs_arr, pos_deltas))


def _index_partition_tables(g: pd.DataFrame, pid: int, out_dir: str,
                            tok, text_col: str, *,
                            fingerprint: str, attempt: int,
                            manifest: Manifest, num_shards: int = 8,
                            positions: bool = False) -> Dict:
    """Tokenize one partition's docs, write its run + doc table atomically,
    commit the manifest row.  ``g`` must carry doc_key and content_sha256
    columns; docIDs follow its row order.  Returns the metrics record."""
    g = g.reset_index(drop=True)
    doc_ids = (np.int64(pid) << DOC_BITS) | np.arange(len(g), dtype=np.int64)

    texts = g[text_col].tolist()
    # per-ROW poison quarantine (the reference's per-doc retry-then-DEAD,
    # ScannerImpl.java:614-713): a document whose tokenization raises is
    # excluded from the index and recorded in quarantine/part-<pid>.parquet
    # with its error, so one poison row cannot fail the partition
    toks_per_doc = []
    quarantined_idx: List[int] = []
    quarantined_err: List[str] = []
    for i, t in enumerate(texts):
        try:
            toks_per_doc.append(tok(t))
        except Exception as ex:
            toks_per_doc.append([])
            quarantined_idx.append(i)
            quarantined_err.append(str(ex)[:200])
    if quarantined_idx:
        qt = pa.table({
            "doc_key": pa.array([g["doc_key"].iloc[i] for i in quarantined_idx],
                                pa.string()),
            "content_sha256": pa.array(
                [g["content_sha256"].iloc[i] for i in quarantined_idx],
                pa.string()),
            "status": pa.array(["DEAD"] * len(quarantined_idx), pa.string()),
            "message": pa.array(quarantined_err, pa.string()),
        })
        atomic_write_table(os.path.join(out_dir, "quarantine",
                                        f"part-{pid:05d}.parquet"), qt)
        keep = np.ones(len(g), dtype=bool)
        keep[quarantined_idx] = False
        g = g.iloc[keep].reset_index(drop=True)
        doc_ids = (np.int64(pid) << DOC_BITS) | np.arange(len(g),
                                                          dtype=np.int64)
        toks_per_doc = [tp for i, tp in enumerate(toks_per_doc) if keep[i]]
    n_g = len(toks_per_doc)
    dls = np.fromiter((len(t) for t in toks_per_doc), dtype=np.int64,
                      count=n_g)
    run_table = partition_runs(toks_per_doc, dls, doc_ids, pid, positions)
    doc_table = pa.table(
        {"doc_id": pa.array(doc_ids, pa.int64()),
         "doc_key": pa.array(g["doc_key"], pa.string()),
         "content_sha256": pa.array(g["content_sha256"], pa.string()),
         "dl": pa.array(dls, pa.int64())})

    # write the run PRE-PARTITIONED by term shard: the merge stage then
    # reads shard s's slice of every partition directly from shared storage
    # — a map-side partitioned spill, so the merge needs NO Ray shuffle.
    # Runs are TERM-SORTED and written in small row groups so the merge can
    # k-way-stream them (one row-group slab per file in memory, never the
    # whole shard)
    shard_ids = term_shard(run_table["term"], num_shards)
    out_files = []
    nbytes = 0
    for s_ in range(num_shards):
        sub = run_table.filter(pa.array(shard_ids == s_))
        if sub.num_rows == 0:
            # no file at all: an empty run would still rotate the shard's
            # run-set fingerprint and force a pointless re-merge (a 1-doc
            # delta must touch only the shards holding its terms)
            continue
        # output_files are relative to the index dir, so the manifest's
        # bytes do not depend on where the index sits
        run_rel = os.path.join("runs", f"shard-{s_:04d}",
                               f"part-{pid:05d}.parquet")
        nbytes += atomic_write_table(os.path.join(out_dir, run_rel), sub,
                                     row_group_size=4096)
        out_files.append(run_rel)
    doc_rel = os.path.join("docs", f"part-{pid:05d}.parquet")
    nbytes += atomic_write_table(os.path.join(out_dir, doc_rel), doc_table)
    out_files.append(doc_rel)
    manifest.commit(pid, status=STATUS_INDEXED, input_fingerprint=fingerprint,
                    docs_seen=len(g), terms_emitted=run_table.num_rows,
                    bytes_written=nbytes, dl_sum=int(dls.sum()),
                    output_files=out_files, attempt=attempt,
                    message=(f"quarantined={len(quarantined_idx)}"
                             if quarantined_idx else ""))
    return {"partition_id": pid, "docs_seen": len(g),
            "terms_emitted": run_table.num_rows,
            "bytes_written": nbytes, "dl_sum": int(dls.sum()),
            "status": STATUS_INDEXED}


# segment rows buffered before each incremental parquet flush; patchable
# in tests to force many tiny flushes
MERGE_FLUSH_TERMS = 1024
# segment parquet row-group size: small so readers can fetch one term's
# blobs with a targeted row-group read instead of the whole shard file
SEG_ROW_GROUP_ROWS = 64
# per-cursor slab sizing: aim for this many bytes per read slab (from the
# run file's avg compressed row size), clamped to [MERGE_READ_BATCH_MIN,
# MERGE_READ_BATCH_MAX] rows.  Memory bound = slab bytes x runs either
# way; adapting by bytes keeps tiny-row corpora from paying per-iterator
# overhead 8x (4096-row slabs) without letting fat chunked-blob rows
# (~1MB) blow the bound (floor of 64 rows).
MERGE_SLAB_TARGET_BYTES = 4 << 20
MERGE_READ_BATCH_MIN = 64
MERGE_READ_BATCH_MAX = 4096
# target rows accumulated (across HWM iterations) before each merge round
# sorts and emits: one HWM step over k uniformly interleaved cursors
# yields only ~slab/k eligible rows, so per-round fixed costs (sort setup,
# chunk planning, numpy stitch setup) would dominate; batching rounds to
# this many rows amortizes them.  Memory bound = this + one slab x runs.
MERGE_ROUND_ROWS = 8192
# generational compaction trigger (r02 VERDICT #5): a shard accumulating
# this many generation segments compacts (a fold of its base, its
# generations and the new delta runs into a new base) instead of
# appending another generation — long-running delta loops stay bounded
# without waiting for a full rebuild.  The reference's analog is
# Cassandra compaction of the FTI status/hash tables
# (ScannerImpl.java:135-144).
COMPACT_AFTER_GENS = 4


def _segment_schema(has_pos: bool) -> pa.Schema:
    fields = [("term", pa.string()), ("chunk", pa.int32()),
              ("df", pa.int64()), ("cf", pa.int64()), ("count", pa.int64()),
              ("doc_blob", pa.binary()), ("tf_blob", pa.binary())]
    if has_pos:
        fields.append(("pos_blob", pa.binary()))
    return pa.schema(fields)


def _ranges_gather(data: np.ndarray, starts: np.ndarray,
                   lens: np.ndarray) -> np.ndarray:
    """``data[concat of [s, s+len) ranges]`` in one fancy-index pass."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    cum = np.cumsum(lens)
    base = np.repeat(starts - np.concatenate(([0], cum[:-1])), lens)
    return data[base + np.arange(total, dtype=np.int64)]


def regroup_runs(docs: np.ndarray, tfs: np.ndarray,
                 pos: Optional[np.ndarray], key: np.ndarray, n_groups: int
                 ) -> Dict[str, pa.ChunkedArray]:
    """The one posting-row transcoder: decoded postings re-encoded as
    ``n_groups`` run rows, posting i into row ``key[i]`` (dropped when
    < 0), stable within a row; positions travel with their posting (they
    restart per doc).  A row that keeps no posting has count 0."""
    kept = np.flatnonzero(key >= 0)
    order = kept[np.argsort(key[kept], kind="stable")]
    if pos is not None:
        pos = _ranges_gather(pos, (np.cumsum(tfs) - tfs)[order], tfs[order])
    return encode_runs(_cum0(np.bincount(key[order], minlength=n_groups)),
                       docs[order], tfs[order], pos)


def _concat_groups_binary(arr: pa.Array, gb: np.ndarray) -> pa.Array:
    """Binary array whose row g is the concatenation of input rows
    [gb[g], gb[g+1]) — ZERO COPY: only the offsets are gathered, the data
    buffer is shared with the input."""
    off32 = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1]
    new_off = np.ascontiguousarray(off32[gb])
    return pa.Array.from_buffers(
        pa.binary(), gb.size - 1,
        [None, pa.py_buffer(new_off), arr.buffers()[2]])


def _stitch_groups_vec(ts: pa.Table, gb: np.ndarray, chunk: np.ndarray,
                       schema: pa.Schema) -> pa.Table:
    """The merge's one stitcher: segment rows for a batch of (term,
    chunk) groups, with no per-row Python and no posting decode.

    ``ts`` holds the groups' run rows in (term, first_doc) order; group
    g is rows [gb[g], gb[g + 1]) (``gb[0] == 0``, ``gb[-1] ==
    ts.num_rows``) and becomes segment row (term, ``chunk[g]``).  A run's
    doc blob is correct except its first value (an absolute doc id): each
    non-first run of a group re-encodes that value as a delta against the
    previous run's last doc and keeps the rest of its bytes verbatim, so a
    size-1 group stitches to its row verbatim and the output doc bytes
    never exceed the input's.  tf/pos blobs concatenate as-is (zero-copy
    offset gathers; position deltas restart per (term, doc))."""
    ts = ts.combine_chunks()

    def col(n):
        return ts.column(n).chunk(0)

    nrows = ts.num_rows
    starts = gb[:-1]
    first_doc = np.asarray(col("first_doc"))
    last_doc = np.asarray(col("last_doc"))
    nf = np.ones(nrows, bool)
    nf[starts] = False
    deltas = (first_doc - np.concatenate(([0], last_doc[:-1])))[nf] \
        .astype(np.uint64)
    nd_len = varbyte_lengths(deltas)
    nd_arr = np.frombuffer(varbyte_encode(deltas), np.uint8)
    # --- doc blob: drop each non-first run's first varbyte (fl bytes,
    # up to its first stop byte) and splice in the re-encoded delta;
    # every other byte moves verbatim.  Masks cost one byte per blob byte
    # (a value spans at most 10 bytes, so the loops are short)
    off, data = _bin_view(col("doc_blob"))
    lo_b = int(off[0])
    nf_start = off[:-1][nf]
    fl = np.ones(nf_start.size, np.int64)
    while (cont := (data[nf_start + fl - 1] & 0x80) != 0).any():
        fl += cont
    keep = np.ones(int(off[-1]) - lo_b, bool)
    for k in range(int(fl.max(initial=0))):
        keep[nf_start[fl > k] - lo_b + k] = False
    row_len = np.diff(off)
    row_len[nf] += nd_len - fl
    out_start = _cum0(row_len)
    new_start = out_start[:-1][nf]
    is_new = np.zeros(int(out_start[-1]), bool)
    for k in range(int(nd_len.max(initial=0))):
        is_new[new_start[nd_len > k] + k] = True
    outb = np.empty(is_new.size, np.uint8)
    outb[is_new] = nd_arr
    outb[~is_new] = data[lo_b:int(off[-1])][keep]
    doc_arr = pa.Array.from_buffers(
        pa.binary(), starts.size,
        [None,
         pa.py_buffer(np.ascontiguousarray(out_start[gb].astype(np.int32))),
         pa.py_buffer(outb)])
    count = np.add.reduceat(np.asarray(col("count")), starts)
    cols = {"term": pc.take(col("term"), pa.array(starts)),
            "chunk": pa.array(chunk, pa.int32()),
            "df": pa.array(count, pa.int64()),
            "cf": pa.array(np.add.reduceat(np.asarray(col("cf")), starts),
                           pa.int64()),
            "count": pa.array(count, pa.int64()),
            "doc_blob": doc_arr}
    for n in schema.names[6:]:
        cols[n] = _concat_groups_binary(col(n), gb)
    return pa.table([cols[n] for n in schema.names], schema=schema)


def _plan_chunks(terms: np.ndarray, counts: np.ndarray, chunk_target: int,
                 chunk0: int, final: bool):
    """Segment rows of one merge round over its (term, first_doc)-sorted
    run rows.  A term's runs form one group; a group is cut greedily into
    chunks, each closed by the run that brings it to ``chunk_target``
    postings or more.  ``chunk0`` numbers the first term's first chunk
    (carried in with that term from the previous round).  Unless
    ``final``, the last term may continue next round: its complete chunks
    are planned, its incomplete tail is not.

    Returns (row bounds of the planned segment rows, their chunk ids,
    the carried term's next chunk id); rows from ``bounds[-1]`` on are
    the carried tail."""
    n = terms.size
    starts = np.flatnonzero(np.r_[True, terms[1:] != terms[:-1]])
    ends = np.r_[starts[1:], n]
    cum = _cum0(counts)
    inner = []
    hot = np.flatnonzero(cum[ends] - cum[starts] >= chunk_target)
    for g in np.union1d(hot, [starts.size - 1]):
        a, e = int(starts[g]), int(ends[g])
        while (b := int(np.searchsorted(cum, cum[a] + chunk_target))) < e:
            inner.append(b)
            a = b
    # a = the last term's last chunk start
    tail = n if final or cum[n] - cum[a] >= chunk_target else a
    bounds = np.union1d(np.r_[starts, np.asarray(inner, np.int64)], [n])
    seg_group = np.searchsorted(starts, bounds[:-1], side="right") - 1
    chunk = np.arange(bounds.size - 1) - \
        np.searchsorted(bounds, starts)[seg_group]
    chunk[seg_group == 0] += chunk0
    k = int(np.searchsorted(bounds, tail))
    return bounds[:k + 1], chunk[:k], int(np.r_[chunk, chunk[-1] + 1][k])


class _RunCursor:
    """Streaming cursor over one term-sorted run or segment file: holds
    ONE slab as an Arrow RecordBatch of the ``columns`` the stitcher reads
    (a run file's other columns — e.g. an older layout's block metadata —
    are never loaded) plus the slab's (term, first_doc) sort keys, the
    only values that materialize to Python.  A segment file has no
    first/last doc columns: each slab derives them from its doc blobs
    (``_doc_bounds``), so a fold streams segments exactly like runs.
    Slab rows are sized from the file's avg compressed row bytes unless
    ``read_batch`` pins them (tests)."""

    __slots__ = ("it", "batch", "keys", "pos", "n", "columns", "derive")

    def __init__(self, path: str, columns: List[str],
                 read_batch: int = None):
        import pyarrow.parquet as pq
        pf = pq.ParquetFile(path)
        if read_batch is None:
            nrows = max(1, pf.metadata.num_rows)
            avg = max(1, os.path.getsize(path) // nrows)
            read_batch = min(MERGE_READ_BATCH_MAX,
                             max(MERGE_READ_BATCH_MIN,
                                 MERGE_SLAB_TARGET_BYTES // avg))
        self.columns = columns
        self.derive = "first_doc" not in pf.schema_arrow.names
        self.it = pf.iter_batches(batch_size=read_batch, columns=[
            c for c in columns
            if not (self.derive and c in ("first_doc", "last_doc"))])
        self.batch = None
        self.pos = self.n = 0
        self.advance_slab()

    def advance_slab(self) -> bool:
        batch = next(self.it, None)
        self.batch = batch
        if batch is None:
            return False
        if self.derive:
            bounds = dict(zip(("first_doc", "last_doc"), _doc_bounds(batch)))
            batch = self.batch = pa.RecordBatch.from_arrays(
                [bounds[c] if c in bounds else batch.column(c)
                 for c in self.columns],
                names=self.columns)
        terms = batch.column("term").to_pylist()
        fds = batch.column("first_doc").to_pylist()
        self.keys = list(zip(terms, fds))
        self.pos = 0
        self.n = len(self.keys)
        return True


def _doc_bounds(rows: pa.RecordBatch):
    """(first_doc, last_doc) int64 arrays of segment rows, from their doc
    blobs alone: a row's first varbyte value is its first doc (absolute),
    the sum of its values its last."""
    starts = _cum0(np.asarray(rows.column("count"), np.int64))
    cum = np.zeros(int(starts[-1]) + 1, np.uint64)
    np.cumsum(_blob_values(rows.column("doc_blob"), int(starts[-1])),
              out=cum[1:])
    lo = cum[starts[:-1]]
    return (pa.array((cum[starts[:-1] + 1] - lo).view(np.int64)),
            pa.array((cum[starts[1:]] - lo).view(np.int64)))


def _stat_fp(out_dir: str, rel: str) -> Optional[str]:
    """``size:mtime_ns`` of a file under the index dir; None if absent."""
    try:
        st = os.stat(os.path.join(out_dir, rel))
    except FileNotFoundError:
        return None
    return f"{st.st_size}:{st.st_mtime_ns}"


def _plan_shard(out_dir: str, shard: int) -> dict:
    """The merge one shard needs, from its merge-manifest row and
    ``os.stat`` of its run and segment files only (no file is opened).
    ``mode`` is 'current' (run set unchanged: nothing to do), 'append'
    (only new delta runs: ``files`` go to generation segment
    ``generation``), 'fold' (only new delta runs, but the shard already
    holds ``COMPACT_AFTER_GENS`` generations: its committed segments —
    base, then generations — and the new runs fold into a new base) or
    'full' (every run re-merges into a new base, generation 0).
    ``new_runs`` counts the run files an append or fold adds."""
    prior = Manifest(out_dir, "merge").read(shard) or {}
    shard_rel = os.path.join("runs", f"shard-{shard:04d}")
    shard_dir = os.path.join(out_dir, shard_rel)
    all_files = sorted(os.path.join(shard_rel, f)
                       for f in os.listdir(shard_dir)
                       if f.endswith(".parquet")) \
        if os.path.isdir(shard_dir) else []
    # PER-SHARD, PER-FILE fingerprints (size+mtime_ns, keyed by the
    # path relative to the index dir, so a moved index still skips):
    # unchanged shards skip entirely; a shard whose run set only GREW
    # (per-doc delta) merges just the NEW runs into an append-only
    # GENERATION segment — delta merge cost is O(delta), not
    # O(shard).  Any changed/removed run forces a full re-merge.
    cur_fp = {p: _stat_fp(out_dir, p) for p in all_files}
    shard_fp = hashlib.sha256(
        "|".join(f"{p}:{v}" for p, v in cur_fp.items()).encode()
    ).hexdigest()
    plan = {"shard": shard, "prior": prior, "runs_merged": cur_fp,
            "input_fingerprint": shard_fp}
    prev_fp = prior.get("runs_merged") or {}
    prior_ok = prior.get("status") == STATUS_INDEXED
    if prior_ok and prior.get("input_fingerprint") == shard_fp:
        return plan | {"mode": "current"}

    def _pid_of(p: str) -> int:
        return int(os.path.basename(p).split("-")[1].split(".")[0])

    new_files = [p for p in all_files if p not in prev_fp]
    prev_max_pid = max((_pid_of(p) for p in prev_fp), default=-1)
    generation = int(prior.get("generations", 1))
    # append-only is doc-order-safe ONLY for delta runs: their pids
    # strictly exceed everything already merged, so a generation's
    # postings follow the previous generations' in doc order.  A
    # resumed/rebuilt BASE partition interleaves doc ranges and must
    # full-re-merge.
    if prior_ok and prev_fp and \
            all(cur_fp.get(p) == v for p, v in prev_fp.items()) and \
            os.path.exists(os.path.join(out_dir, "segments",
                                        f"shard-{shard:04d}.parquet")) and \
            new_files and \
            all(_pid_of(p) >= DELTA_PID_BASE and _pid_of(p) > prev_max_pid
                for p in new_files):
        incremental = {"new_runs": len(new_files), "generation": generation}
        if generation <= COMPACT_AFTER_GENS:
            return plan | incremental | {"mode": "append",
                                         "files": new_files}
        # a fold overwrites the base it reads: fold only segments that
        # are exactly as this row committed them (a crashed fold left a
        # new base or missing generations behind the row, and re-folding
        # those would double-count postings); otherwise re-merge runs
        segs = prior.get("segments_merged") or {}
        if list(segs) == prior.get("output_files") and \
                all(_stat_fp(out_dir, p) == v for p, v in segs.items()):
            return plan | incremental | {"mode": "fold", "generation": 0,
                                         "files": list(segs) + new_files}
    return plan | {"mode": "full", "files": all_files, "generation": 0}


def make_shard_writer(out_dir: str, chunk_target: int = 1 << 20,
                      flush_terms: int = None, read_batch: int = None,
                      round_rows: int = None):
    """Stage 2 fn: merge one shard's runs (already on disk, one file per
    partition under runs/shard-<s>/) into a segment file.  No shuffle: the
    stage-1 tasks partitioned the runs by term shard at write time.
    Returns the ``map_batches`` fn over a ``shard`` column, which plans
    (``_plan_shard``) and writes each shard; its ``write(plan)`` carries
    out one plan in the calling process (``merge_runs`` writes appends
    and folds of one delta run in the driver with it).

    STREAMING k-way merge: runs and segments are term-sorted at write
    time, so rounds over per-file slab cursors yield rows in global
    (term, first_doc) order; each round's rows are planned into (term,
    chunk) groups and stitched by ``_stitch_groups_vec``, and segment
    rows go to an incremental parquet writer every ``MERGE_FLUSH_TERMS``
    rows.  Peak memory = files x one read slab + one round + one carried
    chunk + the flush buffer — independent of shard size.

    A term whose postings reach ``chunk_target`` is emitted as MULTIPLE
    segment rows (term, chunk) in ascending doc order, so the merge never
    materializes a hot term's full posting list (at 10^12 docs ``import``
    would be tens of GB) — the bounded-memory answer to term skew on the
    merge side; the query engine concatenates chunks at read time."""
    # captured at CLOSURE creation (driver) so they serialize into the
    # Ray tasks — module-global monkeypatching would silently not reach
    # the worker processes (r3 fix: the tiny-flush/slab test was vacuous)
    flush_terms = flush_terms or MERGE_FLUSH_TERMS
    round_rows = round_rows or MERGE_ROUND_ROWS

    def shard_writer(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([write(_plan_shard(out_dir, int(shard)))
                             for shard in batch["shard"].astype(int)])

    def write(plan: dict) -> dict:
        import glob as _glob
        import pyarrow.parquet as pq
        shard, prior = plan["shard"], plan["prior"]
        if plan["mode"] == "current":
            return {"shard": shard, "terms": prior["terms_emitted"],
                    "bytes_written": prior["bytes_written"]}
        mode = plan["mode"]
        append_only = mode == "append"
        generation = plan["generation"]
        seg_dir = os.path.join(out_dir, "segments")
        os.makedirs(seg_dir, exist_ok=True)
        gen_glob = os.path.join(seg_dir, f"shard-{shard:04d}-gen-*.parquet")
        path = os.path.join(seg_dir, f"shard-{shard:04d}" + (
            f"-gen-{generation:03d}" if append_only else "") + ".parquet")
        files = [os.path.join(out_dir, p) for p in plan["files"]]
        has_pos = bool(files) and "pos_blob" in pq.ParquetFile(
            files[0]).schema_arrow.names
        schema = _segment_schema(has_pos)
        blob_cols = schema.names[5:]
        run_cols = ["term", "count", "cf", "first_doc", "last_doc"] + \
            blob_cols
        state = {"writer": None, "terms": 0}
        import uuid as _uuid
        tmp = os.path.join(seg_dir, f".tmp-{_uuid.uuid4().hex[:8]}.parquet")

        # pending segment tables, in term order
        parts: list = []
        buf = {"rows": 0}

        def flush(force: bool = False):
            if not parts and (state["writer"] or not force):
                return
            if state["writer"] is None:
                state["writer"] = pq.ParquetWriter(tmp, schema)
            t = pa.concat_tables(parts) if parts else schema.empty_table()
            state["writer"].write_table(t, row_group_size=SEG_ROW_GROUP_ROWS)
            state["terms"] += t.num_rows
            parts.clear()
            buf["rows"] = 0

        def emit(ts: pa.Table, gb: np.ndarray, chunk: np.ndarray):
            """Stitch the planned groups, one call per group range whose
            input blob bytes stay within ``codec.MAX_BLOB_BUFFER_BYTES``
            (the stitched bytes never exceed the input's)."""
            sums = [_cum0(np.asarray(pc.binary_length(ts.column(c))))
                    [gb] for c in blob_cols]
            cuts = range_cuts(sums, codec.MAX_BLOB_BUFFER_BYTES)
            for a, b in zip(cuts[:-1], cuts[1:]):
                lo, hi = int(gb[a]), int(gb[b])
                parts.append(_stitch_groups_vec(
                    ts.slice(lo, hi - lo), gb[a:b + 1] - lo, chunk[a:b],
                    schema))
                buf["rows"] += b - a
                if buf["rows"] >= flush_terms:
                    flush()

        # ROUND-BASED k-way merge.  Per round: every cursor's rows with
        # key <= HWM (the minimum over cursors of its slab's LAST key —
        # any unloaded row is > its slab's last key, so eligible rows are
        # globally complete up to the HWM term) concat into ONE Arrow
        # table, ONE C++ sort orders them, and ``_plan_chunks`` groups
        # them into (term, chunk) segment rows that ``emit`` stitches.
        # The round's last term may continue in the next round: its
        # incomplete-chunk rows and next chunk id carry over (its
        # complete chunks are emitted now, so the carry stays below
        # chunk_target postings).  Memory = cursors x one slab + one
        # round.
        from bisect import bisect_right
        try:
            cursors = []
            for f in files:
                c = _RunCursor(f, run_cols, read_batch)
                if c.batch is not None:
                    cursors.append(c)
            carry_term, carry, carry_chunk = None, None, 0
            while cursors:
                # accumulate multiple HWM iterations into one round: each
                # iteration's eligible rows (~slab/k when cursors
                # interleave uniformly) are too few to amortize the sort
                # and stitch setup below
                slices = []
                nrows_acc = 0
                while cursors and nrows_acc < round_rows:
                    hwm = min(c.keys[c.n - 1] for c in cursors)
                    for c in cursors:
                        hi = bisect_right(c.keys, hwm, c.pos)
                        if hi > c.pos:
                            slices.append(c.batch.slice(c.pos, hi - c.pos))
                            nrows_acc += hi - c.pos
                            c.pos = hi
                    cursors = [c for c in cursors
                               if c.pos < c.n or c.advance_slab()]
                t = pa.Table.from_batches(slices)
                t = t.take(pc.sort_indices(
                    t, sort_keys=[("term", "ascending"),
                                  ("first_doc", "ascending")]))
                if carry is not None:
                    t = pa.concat_tables([carry, t])
                terms = np.asarray(t.column("term"))
                gb, chunk, next_chunk = _plan_chunks(
                    terms, np.asarray(t.column("count")), chunk_target,
                    carry_chunk if terms[0] == carry_term else 0,
                    final=not cursors)
                if chunk.size:
                    emit(t, gb, chunk)
                carry_term, carry_chunk = terms[-1], next_chunk
                carry = t.slice(int(gb[-1])) if gb[-1] < t.num_rows \
                    else None
            flush(force=True)
            if state["writer"] is not None:
                state["writer"].close()
            nbytes = os.path.getsize(tmp)
            os.replace(tmp, path)
            if not append_only:
                # a new base subsumes the old generations: drop them only
                # AFTER the new base is atomically in place (a crash
                # before the replace leaves the committed base+gens set
                # intact, ADVICE r02).  A crash BETWEEN the replace and
                # the manifest commit below leaves the new base (which
                # already holds the delta postings) under the old row,
                # perhaps beside stale gens.  No reader sees that state:
                # the epoch still pins the old base, so a reader opening
                # the shard raises IndexChangedError until the next cycle
                # publishes.  That cycle's plan is 'full' from runs —
                # the row's segment fingerprints no longer match, so a
                # fold never reads the new base as its input — and it
                # rewrites the base and drops the gens.
                for stale in _glob.glob(gen_glob):
                    os.unlink(stale)
        except BaseException:
            if state["writer"] is not None:
                state["writer"].close()
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        terms_total = state["terms"] + \
            (int(prior.get("terms_emitted", 0)) if append_only else 0)
        bytes_total = nbytes + \
            (int(prior.get("bytes_written", 0)) if append_only else 0)
        rel = os.path.relpath(path, out_dir)
        # every committed segment's size:mtime_ns, in output order: a
        # fold reads these files only while they still match
        segs = ((prior.get("segments_merged") or {}) if append_only
                else {}) | {rel: _stat_fp(out_dir, rel)}
        Manifest(out_dir, "merge").commit(
            shard, status=STATUS_INDEXED,
            input_fingerprint=plan["input_fingerprint"],
            terms_emitted=terms_total,
            bytes_written=bytes_total,
            output_files=(prior.get("output_files", [])
                          if append_only else []) + [rel],
            extra={"runs_merged": plan["runs_merged"],
                   "segments_merged": segs, "mode": mode,
                   "generations": generation + 1})
        return {"shard": shard, "terms": terms_total,
                "bytes_written": bytes_total}

    shard_writer.write = write
    return shard_writer


def merge_runs(out_dir: str, num_shards: int,
               chunk_target: int = 1 << 20,
               flush_terms: int = None, read_batch: int = None,
               round_rows: int = None) -> None:
    """Stage 2: merge per-partition runs into term-sharded segments.  The
    driver plans every shard (``_plan_shard``) and skips up-to-date ones,
    so a no-op resume starts no Ray job.  An append or fold whose only
    new input is ONE delta run (what a one-partition delta writes) is
    written in the driver: the run is a few kB, a fold streams the
    shard's segments in slabs, and driver memory stays bounded like the
    inline differ's.  Every other stale shard goes to one Ray Data job,
    one task per stale shard reading only its own files (no shuffle).
    Invalidation is PER SHARD: each merge-manifest row stores a
    fingerprint of exactly its run set (path+size+mtime_ns — same-size
    in-place rewrites still invalidate, ADVICE r01), so a resume or delta
    that touched few term shards re-merges only those."""
    runs_dir = os.path.join(out_dir, "runs")
    if not os.path.isdir(runs_dir):
        return
    writer = make_shard_writer(out_dir, chunk_target,
                               flush_terms, read_batch, round_rows)
    stale = []
    for shard in range(num_shards):
        plan = _plan_shard(out_dir, shard)
        if plan.get("new_runs") == 1:
            writer.write(plan)
        elif plan["mode"] != "current":
            stale.append({"shard": shard})
    if stale:
        # each task re-plans its shard: the same manifest row and stats
        one_task_each(stale, writer)


def one_task_each(items: List[Dict], fn) -> pd.DataFrame:
    """One Ray task per item: ``fn`` over a one-row pandas batch; the
    frames the tasks return, concatenated."""
    return ray.data.from_items(items, override_num_blocks=len(items)) \
        .map_batches(fn, batch_format="pandas", batch_size=1).to_pandas()


def term_shard(terms: pa.ChunkedArray, num_shards: int) -> np.ndarray:
    """Deterministic term -> shard mapping (first 8 hex of sha256)."""
    return np.array([int(hashlib.sha256(t.encode()).hexdigest()[:8], 16) % num_shards
                     for t in terms.to_pylist()], dtype=np.int64)
