"""Query engine: segment reader + BM25 top-k (exhaustive and block-max pruned).

Replaces JesterJ's delegation of search to Solr/OpenSearch.  The serving
analog of the reference's sender connection state (Solr clients built once
per step, ``SendToSolrCloudZkProcessor.java``) is ``QueryActor``: a callable
class for ``map_batches`` actor pools that opens the index ONCE per actor
(``__init__``) and answers batches of queries (``__call__``).

Two scorers, tested rank-identical (FIXTURES.md test 6):

- ``topk``        exhaustive term-at-a-time, fully vectorized numpy
- ``topk_pruned`` block-max dynamic pruning (WAND-family / MaxScore):
    terms processed in descending upper-bound order; once the running
    top-k threshold exceeds the sum of remaining term upper bounds, later
    terms can no longer introduce NEW candidates and are intersected
    against existing candidates only, decoding just the posting blocks
    whose [first,last] doc range contains a candidate (block-max skip).

Scale: shard tables are loaded lazily and cached per actor; doc lengths are
held as one int32 array per partition (doc_id = pid << 32 | rank makes the
lookup O(1) array indexing).  On a real cluster each QueryActor would hold
only a doc-range slice; here one actor holds the full (small) test index.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..tokenize.tokenizer import TOKENIZERS
from .bm25 import B, K1, dedup_keep_order, idf
from .build import DOC_BITS
from .codec import BLOCK_SIZE, varbyte_decode
from .epoch import (IndexChangedError, check_pinned, publish_epoch,
                    read_epoch)


class IndexReader:
    """Reads one on-disk index: a build (``build_rows.build_index_rows``
    or ``build.build_index``), its deltas and compactions, or a serving
    slice dir from ``repartition.repartition_for_serving``."""

    def __init__(self, index_dir: str):
        self.dir = index_dir
        # epoch pin (epoch.py): every file this reader opens — now or
        # lazily — must belong to this point-in-time file set; files
        # published after this moment are invisible, replaced files raise
        # IndexChangedError (verify-AFTER-read everywhere below)
        self._epoch = read_epoch(index_dir)
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        check_pinned(index_dir, self._epoch, "stats.json")
        self.n_docs = self.stats["n_docs"]
        self.avgdl = self.stats["avgdl"]
        self.num_shards = self.stats["num_shards"]
        # schema-driven analyzers persist their config in stats.json —
        # re-register so the index opens in any process (analyzer.py)
        if self.stats.get("analyzer_config") is not None:
            from ..tokenize.analyzer import ensure_registered
            ensure_registered(self.stats["tokenizer"],
                              self.stats["analyzer_config"])
        self.tokenizer = TOKENIZERS[self.stats["tokenizer"]]
        self._shard_cache: Dict[int, tuple] = {}
        # bounded cache of fully-decoded posting lists (hot query terms are
        # re-queried constantly; decode once per actor, not per query)
        from collections import OrderedDict
        self._postings_cache: "OrderedDict[str, Tuple[np.ndarray, np.ndarray]]" = \
            OrderedDict()
        self._entry_cache: "OrderedDict[str, dict]" = OrderedDict()
        self._postings_cache_max = 512
        # doc lengths (numpy per partition: dl lookup is array indexing)
        # and doc_key kept as Arrow arrays — NEVER to_pylist'd wholesale
        self._dl: Dict[int, np.ndarray] = {}
        self._doc_key: Dict[int, pa.Array] = {}
        docs_dir = os.path.join(index_dir, "docs")
        if self._epoch is not None:
            doc_names = [r.split("/", 1)[1] for r in
                         sorted(self._epoch["files"])
                         if r.startswith("docs/")]
        else:
            doc_names = [n for n in sorted(os.listdir(docs_dir))
                         if n.endswith(".parquet")]
        for name in doc_names:
            try:
                t = pq.read_table(os.path.join(docs_dir, name),
                                  columns=["doc_id", "dl", "doc_key"])
            except FileNotFoundError:
                if self._epoch is not None:
                    raise IndexChangedError(
                        f"docs/{name} pinned by epoch was removed "
                        f"(concurrent compaction?) — reopen") from None
                raise
            check_pinned(index_dir, self._epoch, f"docs/{name}")
            if t.num_rows == 0:
                continue
            pid = int(t["doc_id"][0].as_py()) >> DOC_BITS
            self._dl[pid] = t["dl"].to_numpy().astype(np.int64)
            self._doc_key[pid] = t["doc_key"].combine_chunks()
        # dense docID space: doc_id = pid<<32|rank maps to base[pid]+rank.
        # Scoring uses a dense float64 accumulator over this space (classic
        # term-at-a-time score array; vectorized adds, no sort-merge).  On a
        # multi-node deployment each query actor holds one doc-range slice,
        # so the accumulator stays node-sized.
        self._pids = np.array(sorted(self._dl), dtype=np.int64)
        sizes = np.array([self._dl[p].size for p in self._pids], dtype=np.int64)
        self._base = np.concatenate([[0], np.cumsum(sizes)])
        self.n_dense = int(self._base[-1])
        self._dl_dense = np.concatenate(
            [self._dl[p] for p in self._pids]) if self._pids.size else \
            np.empty(0, dtype=np.int64)
        self._scores_buf = np.zeros(self.n_dense, dtype=np.float64)
        self._seen_buf = np.zeros(self.n_dense, dtype=np.uint8)
        # tombstones (Document.Operation DELETE analog — the reference
        # senders' deleteById, SendToSolrProcessor.java:102-142): deleted
        # docs are masked at query time; corpus stats stay as-built until
        # a re-build compacts them (standard segment-tombstone semantics)
        self._tombstone = np.zeros(self.n_dense, dtype=bool)
        tomb_path = os.path.join(index_dir, "tombstones.json")
        tomb_visible = ("tombstones.json" in self._epoch["files"]) \
            if self._epoch is not None else os.path.exists(tomb_path)
        if tomb_visible:
            try:
                with open(tomb_path) as f:
                    dead_ids = np.array(json.load(f).get("doc_ids", []),
                                        dtype=np.int64)
            except FileNotFoundError:
                if self._epoch is not None:
                    raise IndexChangedError(
                        "tombstones.json pinned by epoch was removed "
                        "(concurrent compaction?) — reopen") from None
                raise
            check_pinned(index_dir, self._epoch, "tombstones.json")
            if dead_ids.size:
                self._tombstone[self.dense_of(dead_ids)] = True
        # exact-stats mode (set by delta_reindex): corpus statistics count
        # ALIVE docs only — n_docs/avgdl here, df per term at query time —
        # so a delta-built index scores EXACTLY like a full rebuild.  The
        # default (False) keeps standard segment-tombstone semantics:
        # as-built stats until the next rebuild compacts (Lucene-style).
        self._exact_stats = bool(self.stats.get("exact_stats", False))
        if self._exact_stats and self._tombstone.any():
            alive = ~self._tombstone
            n_alive = int(alive.sum())
            self.n_docs = n_alive
            self.avgdl = (int(self._dl_dense[alive].sum()) / n_alive) \
                if n_alive else 0.0

    def dense_of(self, doc_ids: np.ndarray) -> np.ndarray:
        pids = doc_ids >> DOC_BITS
        ranks = doc_ids & ((1 << DOC_BITS) - 1)
        pos = np.searchsorted(self._pids, pids)
        return self._base[pos] + ranks

    def doc_id_of_dense(self, dense: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._base, dense, side="right") - 1
        return (self._pids[pos] << DOC_BITS) | (dense - self._base[pos])

    def alive_mask(self, doc_ids: np.ndarray) -> np.ndarray:
        """Bool mask of NOT-tombstoned docs.  Pipelines consuming raw
        postings/positions (facets, snippets) must apply this so deleted
        docs vanish there exactly as they do from every top-k path."""
        return ~self._tombstone[self.dense_of(doc_ids)]

    # ---- postings access ----

    def _shard_of(self, term: str) -> int:
        return int(hashlib.sha256(term.encode()).hexdigest()[:8], 16) % self.num_shards

    def _load_shard(self, shard: int):
        """List of per-GENERATION shard states (gen 0 = the base segment
        ``shard-XXXX.parquet``; delta rounds append
        ``shard-XXXX-gen-NNN.parquet`` merged from only their new runs).
        Each state has LAZY blob access: only the light term-index columns
        (term/chunk/df/cf/count) load eagerly; posting blobs are fetched
        per term by TARGETED row-group reads (segments are written in
        small row groups), so an actor's memory is the term indexes plus
        a bounded LRU of touched row groups — not the shard files (at
        10^12 docs a shard is far larger than one node).  Hot terms span
        multiple (term, chunk) rows, adjacent within a generation because
        each merge emits in term order; generations ascend in doc order
        (delta pids exceed base pids)."""
        if shard not in self._shard_cache:
            from collections import OrderedDict
            seg_dir = os.path.join(self.dir, "segments")
            base = f"shard-{shard:04d}"
            paths = []
            if self._epoch is not None:
                listed = sorted(self._epoch["files"])
                if f"segments/{base}.parquet" in self._epoch["files"]:
                    paths.append(os.path.join(seg_dir, base + ".parquet"))
                paths += [os.path.join(self.dir, r) for r in listed
                          if r.startswith(f"segments/{base}-gen-") and
                          r.endswith(".parquet")]
            elif os.path.isdir(seg_dir):
                if os.path.exists(os.path.join(seg_dir, base + ".parquet")):
                    paths.append(os.path.join(seg_dir, base + ".parquet"))
                paths += sorted(
                    os.path.join(seg_dir, n) for n in os.listdir(seg_dir)
                    if n.startswith(base + "-gen-") and
                    n.endswith(".parquet"))
            states = []
            for path in paths:
                try:
                    pf = pq.ParquetFile(path)
                except FileNotFoundError:
                    raise IndexChangedError(
                        f"{path} pinned by epoch was removed — reopen "
                        f"the reader") from None
                names = pf.schema_arrow.names
                light_cols = [c for c in ("term", "chunk", "df", "cf",
                                          "count") if c in names]
                light = pf.read(columns=light_cols)
                check_pinned(self.dir, self._epoch,
                             os.path.relpath(path, self.dir))
                nrg = pf.metadata.num_row_groups
                rg_starts = np.concatenate([[0], np.cumsum(
                    [pf.metadata.row_group(i).num_rows
                     for i in range(nrg)])]).astype(np.int64)
                # NO per-term dict: segments are term-sorted (chunks of a
                # term adjacent in ascending chunk order), so term lookup
                # is binary search over the zero-copy Arrow column —
                # per-actor memory stays the Arrow buffers, not a Python
                # dict of the whole vocabulary
                states.append({
                    "term_col": light["term"].combine_chunks(),
                    "light": light, "pf": pf,
                    "relpath": os.path.relpath(path, self.dir),
                    "rg_starts": rg_starts, "names": names,
                    "rg_cache": OrderedDict()})
            self._shard_cache[shard] = states or None
        return self._shard_cache[shard]

    @staticmethod
    def _term_rows(state: dict, term: str) -> Optional[range]:
        """Row range [lo, hi) of ``term`` in the term-sorted segment, via
        bisection on the Arrow column (O(log n) as_py probes)."""
        col = state["term_col"]
        n = len(col)
        lo, hi = 0, n
        while lo < hi:                       # leftmost occurrence
            mid = (lo + hi) // 2
            if col[mid].as_py() < term:
                lo = mid + 1
            else:
                hi = mid
        if lo == n or col[lo].as_py() != term:
            return None
        hi = lo + 1
        while hi < n and col[hi].as_py() == term:
            hi += 1
        return range(lo, hi)

    _RG_CACHE_MAX = 8  # touched row groups kept per shard (bounds memory)

    def _shard_row(self, state: dict, i: int) -> dict:
        """One segment row's heavy columns via a targeted row-group read
        (LRU-cached per shard)."""
        rg = int(np.searchsorted(state["rg_starts"], i, side="right") - 1)
        cache = state["rg_cache"]
        t = cache.get(rg)
        if t is None:
            t = state["pf"].read_row_group(rg)
            # re-verify the pin on every COLD fetch: on storage where the
            # open handle pins nothing (NFS/object store — epoch.py's
            # portability claim) a replaced file would otherwise serve new
            # bytes against the old term index silently.  stat-after-read:
            # an unchanged fingerprint proves the bytes just read were the
            # pinned version.  ~1 stat per row-group read — noise.
            check_pinned(self.dir, self._epoch, state["relpath"])
            cache[rg] = t
            if len(cache) > self._RG_CACHE_MAX:
                cache.popitem(last=False)
        else:
            cache.move_to_end(rg)
        local = i - int(state["rg_starts"][rg])
        return {c: t[c][local] for c in t.column_names}

    def term_entry(self, term: str) -> Optional[dict]:
        cached = self._entry_cache.get(term)
        if cached is not None:
            self._entry_cache.move_to_end(term)
            return cached
        e = self._term_entry_uncached(term)
        if e is not None:
            self._entry_cache[term] = e
            if len(self._entry_cache) > self._postings_cache_max:
                self._entry_cache.popitem(last=False)
        return e

    def _term_entry_uncached(self, term: str) -> Optional[dict]:
        states = self._load_shard(self._shard_of(term))
        if states is None:
            return None
        entries = [self._gen_entry(state, term) for state in states]
        entries = [e for e in entries if e is not None]
        if not entries:
            return None
        if len(entries) == 1:
            return entries[0]
        # generations ascend in doc order: concatenate their chunks
        return {"df": sum(e["df"] for e in entries),
                "cf": sum(e["cf"] for e in entries),
                "count": sum(e["count"] for e in entries),
                "chunks": [c for e in entries for c in e["chunks"]]}

    def _gen_entry(self, state: dict, term: str) -> Optional[dict]:
        rows = self._term_rows(state, term)
        if rows is None:
            return None
        has_pos = "pos_blob" in state["names"]
        has_counts = "block_counts" in state["names"]
        light = state["light"]
        chunks = []
        for i in rows:
            r = self._shard_row(state, i)
            c = {
                "count": r["count"].as_py(),
                "doc_blob": r["doc_blob"].as_py(),
                "tf_blob": r["tf_blob"].as_py(),
                "block_last": np.asarray(r["block_last"].as_py(),
                                         dtype=np.int64),
                "block_max_tf": np.asarray(r["block_max_tf"].as_py(),
                                           dtype=np.int64),
                "block_doc_off": np.asarray(r["block_doc_off"].as_py(),
                                            dtype=np.int64),
                "block_tf_off": np.asarray(r["block_tf_off"].as_py(),
                                           dtype=np.int64),
            }
            if has_pos:
                c["pos_blob"] = r["pos_blob"].as_py()
            if has_counts:
                c["block_counts"] = np.asarray(
                    r["block_counts"].as_py(), dtype=np.int64)
            else:  # legacy uniform blocks
                n = c["count"]
                nb = c["block_last"].size
                c["block_counts"] = np.full(nb, BLOCK_SIZE, dtype=np.int64)
                if nb:
                    c["block_counts"][-1] = n - BLOCK_SIZE * (nb - 1)
            chunks.append(c)
        return {
            "df": sum(light["df"][i].as_py() for i in rows),
            "cf": sum(light["cf"][i].as_py() for i in rows),
            "count": sum(c["count"] for c in chunks),
            "chunks": chunks,
        }

    def postings(self, term: str) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._postings_cache.get(term)
        if cached is not None:
            self._postings_cache.move_to_end(term)
            return cached
        e = self.term_entry(term)
        if e is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        doc_parts, tf_parts = [], []
        for c in e["chunks"]:  # chunks ascend in doc order
            n = c["count"]
            doc_parts.append(np.cumsum(varbyte_decode(c["doc_blob"], n)
                                       .astype(np.int64)))
            tf_parts.append(varbyte_decode(c["tf_blob"], n).astype(np.int64))
        docs = np.concatenate(doc_parts)
        tfs = np.concatenate(tf_parts)
        self._postings_cache[term] = (docs, tfs)
        if len(self._postings_cache) > self._postings_cache_max:
            self._postings_cache.popitem(last=False)
        return docs, tfs

    def positions(self, term: str):
        """(docs, tfs, flat_positions, per-doc start offsets).  Positions
        are absolute token indices within each doc, ascending per doc.
        Requires an index built with positions=True."""
        e = self.term_entry(term)
        if e is None:
            z = np.empty(0, dtype=np.int64)
            return z, z, z, z
        docs, tfs = self.postings(term)
        pos_parts = []
        for c in e["chunks"]:
            if "pos_blob" not in c:
                raise ValueError("index was built without positions=True")
            n_pos = int(varbyte_decode(c["tf_blob"], c["count"]).sum())
            pos_parts.append(varbyte_decode(c["pos_blob"], n_pos)
                             .astype(np.int64))
        flat = np.concatenate(pos_parts) if pos_parts else \
            np.empty(0, dtype=np.int64)
        # deltas restart per doc: per-doc cumsum via global prefix sums
        # minus the prefix carried in from the previous doc's segment
        starts = np.cumsum(tfs) - tfs
        if flat.size:
            seg_prefix = np.cumsum(flat)
            prev = np.zeros(len(tfs), dtype=np.int64)
            prev[1:] = seg_prefix[starts[1:] - 1]
            flat = seg_prefix - np.repeat(prev, tfs)
        return docs, tfs, flat, starts

    def phrase_topk(self, query: str, k: int = 10,
                    pos_range: Optional[Tuple[int, int]] = None):
        """Exact-phrase top-k: docs containing the query tokens as a
        CONSECUTIVE sequence, ranked by standard BM25 over the phrase's
        distinct terms (ascending doc_id ties).  Single-token phrases
        reduce to topk().

        ``pos_range=(lo, hi)``: accept only matches whose whole span
        lies in token positions [lo, hi) — the field-scoped phrase for
        derived-band fields (BM25F title = positions < N; body =
        positions >= N), costing one vectorized key filter."""
        terms = self.tokenizer(query)
        if not terms:
            return []
        if len(terms) == 1 and pos_range is None:
            return self.topk(query, k)
        per_term = []
        for t in terms:
            docs, tfs, pos, starts = self.positions(t)
            if docs.size == 0:
                return []
            per_term.append((docs, tfs, pos, starts))
        cand = per_term[0][0]
        for docs, *_ in per_term[1:]:
            cand = cand[np.isin(cand, docs, assume_unique=True)]
        if cand.size == 0:
            return []
        # vectorized adjacency across ALL candidates at once (no
        # per-candidate Python loop): encode each term's candidate
        # positions as cand_idx * M + (pos - term_offset + L); a phrase
        # start survives iff its key appears in every term's key set
        L = len(terms)
        M = max(int(p[2].max()) if p[2].size else 0 for p in per_term) \
            + 2 * L + 2
        keys = None
        for i, pt in enumerate(per_term):
            c_of, pos_f = self._candidate_positions(pt, cand)
            term_keys = c_of * M + (pos_f - i + L)
            if i == 0:
                keys = term_keys
            else:
                keys = keys[np.isin(keys, term_keys, assume_unique=True)]
            if keys.size == 0:
                return []
        if pos_range is not None:
            # every term's key for a match at start p encodes p + L, so
            # the span filter is one arithmetic mask on the common keys
            start = keys % M - L
            keys = keys[(start >= pos_range[0])
                        & (start + L <= pos_range[1])]
            if keys.size == 0:
                return []
        matched_set = cand[np.unique(keys // M)]
        return self._score_phrase_matches(matched_set, terms, k)

    def _score_phrase_matches(self, matched_set: np.ndarray, terms,
                              k: int):
        """Shared phrase tail: tombstone filter + BM25 over the
        phrase's distinct terms, ascending doc_id ties."""
        if self._tombstone.any():
            matched_set = matched_set[~self._tombstone[
                self.dense_of(matched_set)]]
        if matched_set.size == 0:
            return []
        scores = np.zeros(matched_set.size, dtype=np.float64)
        for t in dedup_keep_order(terms):
            docs, tfs = self.postings(t)
            pos = np.clip(np.searchsorted(docs, matched_set), 0, docs.size - 1)
            hit = docs[pos] == matched_set
            e = self.term_entry(t)
            df = self._df_alive(e, self.dense_of(docs))
            scores[hit] += self._term_contrib(matched_set[hit],
                                              tfs[pos[hit]], df)
        order = np.lexsort((matched_set, -scores))[:k]
        return [(int(matched_set[i]), float(scores[i])) for i in order]

    def phrase_slop_topk(self, query: str, slop: int = 0, k: int = 10):
        """Sloppy phrase (Lucene ``"a b"~N``'s ordered core): docs
        containing the query tokens at strictly increasing positions
        with every consecutive gap <= ``slop`` extra tokens
        (p_{i+1} - p_i in [1, slop+1]) — slop 0 is the exact phrase.
        Scoring and ties identical to ``phrase_topk`` (BM25 over the
        phrase's distinct terms; Lucene's proximity-weighted variant is
        an intentional divergence, documented for SQL-oracle parity).

        Vectorized chain propagation: term i+1's candidate (doc, pos)
        keys survive iff key - g is a surviving key of term i for some
        g in 1..slop+1 — (slop+1) ``isin`` passes per term, no per-doc
        Python."""
        terms = self.tokenizer(query)
        if not terms:
            return []
        if len(terms) == 1:
            return self.topk(query, k)
        if slop == 0:
            return self.phrase_topk(query, k)
        per_term = []
        for t in terms:
            docs, tfs, pos, starts = self.positions(t)
            if docs.size == 0:
                return []
            per_term.append((docs, tfs, pos, starts))
        cand = per_term[0][0]
        for docs, *_ in per_term[1:]:
            cand = cand[np.isin(cand, docs, assume_unique=True)]
        if cand.size == 0:
            return []
        L = len(terms)
        max_pos = max(int(p[2].max()) if p[2].size else 0
                      for p in per_term)
        M = max_pos + (slop + 1) * L + 2
        c0, p0 = self._candidate_positions(per_term[0], cand)
        reach = c0.astype(np.int64) * M + p0
        for i in range(1, L):
            ci, pi = self._candidate_positions(per_term[i], cand)
            keys_i = ci.astype(np.int64) * M + pi
            ok = np.zeros(keys_i.size, dtype=bool)
            for g in range(1, slop + 2):
                ok |= np.isin(keys_i - g, reach, assume_unique=True)
            reach = keys_i[ok]
            if reach.size == 0:
                return []
        matched_set = cand[np.unique(reach // M)]
        return self._score_phrase_matches(matched_set, terms, k)

    @staticmethod
    def _doc_positions(pt, did) -> np.ndarray:
        docs, tfs, pos, starts = pt
        i = np.searchsorted(docs, did)
        return pos[starts[i]: starts[i] + tfs[i]]

    @staticmethod
    def _candidate_positions(pt, cand: np.ndarray):
        """All (candidate_index, position) pairs for the docs in ``cand``
        (cand ⊆ pt docs), gathered with the arange/repeat trick — no
        per-doc slicing loop."""
        docs, tfs, pos, starts = pt
        idx = np.searchsorted(docs, cand)
        lens = tfs[idx]
        total = int(lens.sum())
        cum = np.cumsum(lens) - lens
        flat = np.arange(total, dtype=np.int64) - np.repeat(cum, lens) \
            + np.repeat(starts[idx], lens)
        return np.repeat(np.arange(cand.size, dtype=np.int64), lens), \
            pos[flat]

    def doc_len(self, doc_ids: np.ndarray) -> np.ndarray:
        out = np.empty(doc_ids.size, dtype=np.int64)
        pids = doc_ids >> DOC_BITS
        ranks = doc_ids & ((1 << DOC_BITS) - 1)
        for pid in np.unique(pids):
            m = pids == pid
            out[m] = self._dl[int(pid)][ranks[m]]
        return out

    def doc_keys(self, doc_ids: np.ndarray) -> List[str]:
        out: List[str] = [""] * doc_ids.size
        pids = doc_ids >> DOC_BITS
        ranks = doc_ids & ((1 << DOC_BITS) - 1)
        for pid in np.unique(pids):
            m = np.flatnonzero(pids == pid)
            vals = self._doc_key[int(pid)].take(
                pa.array(ranks[m], pa.int64())).to_pylist()
            for j, v in zip(m, vals):
                out[int(j)] = v
        return out

    def doc_id_of_key(self, doc_key: str) -> Optional[int]:
        """Reverse doc_key -> engine docID lookup (fetchById analog):
        one vectorized ``pc.index`` per loaded partition's key column
        (rank within the doc table IS the docID's low bits)."""
        import pyarrow.compute as _pc
        for pid, arr in self._doc_key.items():
            i = _pc.index(arr, pa.scalar(doc_key, arr.type)).as_py()
            if i >= 0:
                return (int(pid) << DOC_BITS) | int(i)
        return None

    def explain(self, query: str, doc_key: str) -> dict:
        """Score breakdown for one document (Solr debugQuery / Lucene
        Explanation analog): per distinct term its tf in the doc, df,
        idf, the length norm, and the BM25 contribution — contributions
        sum EXACTLY to the doc's :meth:`topk` score (same helpers, same
        float order; pinned in tests)."""
        did = self.doc_id_of_key(doc_key)
        if did is None:
            raise KeyError(f"doc_key {doc_key!r} not in this index")
        arr = np.array([did], dtype=np.int64)
        dense = int(self.dense_of(arr)[0])
        dl = int(self.doc_len(arr)[0])
        dead = bool(self._tombstone[dense])
        norm = 1.0 - B + B * dl / self.avgdl
        out = {"doc_key": doc_key, "doc_id": int(did), "dl": dl,
               "avgdl": self.avgdl, "n_docs": self.n_docs,
               "norm": norm, "tombstoned": dead, "k1": K1, "b": B,
               "terms": [], "score": 0.0}
        if dead:
            return out
        total = 0.0
        for t in dedup_keep_order(self.tokenizer(query)):
            docs, tfs = self.postings(t)
            pos = int(np.searchsorted(docs, did))
            tf = int(tfs[pos]) if pos < docs.size and docs[pos] == did \
                else 0
            e = self.term_entry(t)
            df = self._df_alive(e, self.dense_of(docs)) if e else 0
            contrib = float(self._term_contrib(arr, np.array([tf]),
                                               df)[0]) if tf else 0.0
            out["terms"].append({
                "term": t, "tf": tf, "df": df,
                "idf": idf(self.n_docs, df) if df else 0.0,
                "contribution": contrib})
            total += contrib
        out["score"] = total
        return out

    # ---- scoring ----

    def _term_contrib(self, docs: np.ndarray, tfs: np.ndarray, df: int) -> np.ndarray:
        w = idf(self.n_docs, df)
        dls = self.doc_len(docs).astype(np.float64)
        tff = tfs.astype(np.float64)
        return w * tff * (K1 + 1.0) / (tff + K1 * (1.0 - B + B * dls / self.avgdl))

    def _topk_from_dense(self, scores: np.ndarray, touched: np.ndarray,
                         k: int) -> List[Tuple[int, float]]:
        """Extract top-k (doc_id, score) from the dense accumulator over the
        touched positions, tie-break ascending doc_id (= ascending dense),
        then zero the touched entries (buffer reuse)."""
        if touched.size == 0:
            return []
        if self._tombstone.any():
            alive = ~self._tombstone[touched]
            scores[touched[~alive]] = 0.0
            touched = touched[alive]
            if touched.size == 0:
                return []
        vals = scores[touched]
        if touched.size > k:
            # boundary value of the top-k, then ALL candidates >= it so
            # doc_id tie-breaks at the boundary are exact
            kth = vals[np.argpartition(-vals, k - 1)[k - 1]]
            sel = np.flatnonzero(vals >= kth)
            cand_idx, cand_val = touched[sel], vals[sel]
        else:
            cand_idx, cand_val = touched, vals
        order = np.lexsort((cand_idx, -cand_val))[:k]
        ids = self.doc_id_of_dense(cand_idx[order])
        out = [(int(d), float(cand_val[i])) for d, i in zip(ids, order)]
        scores[touched] = 0.0
        return out

    def _score_disjunctive(self, terms, boosts=None) -> np.ndarray:
        """Term-at-a-time disjunctive scoring into the dense accumulator
        (summation in first-occurrence term order, pinned so
        ties/precision match the brute-force oracle).  ``boosts``
        (parallel to ``terms``) multiplies each term's contribution —
        the Lucene/Solr ``term^boost`` analog.  Returns the touched
        dense positions (unique); caller owns zeroing
        ``self._scores_buf`` over them."""
        scores = self._scores_buf
        seen = self._seen_buf
        touched_parts: List[np.ndarray] = []
        for i, t in enumerate(terms):
            docs, tfs = self.postings(t)
            if docs.size == 0:
                continue
            e = self.term_entry(t)
            dense = self.dense_of(docs)
            contrib = self._term_contrib_dense(
                dense, tfs, self._df_alive(e, dense))
            if boosts is not None and boosts[i] != 1.0:
                contrib = contrib * boosts[i]
            # docs unique within a term -> fancy-index add is safe & fast
            scores[dense] += contrib
            new = dense[seen[dense] == 0]
            seen[new] = 1
            touched_parts.append(new)
        if not touched_parts:
            return np.empty(0, dtype=np.int64)
        touched = np.concatenate(touched_parts)  # unique by construction
        seen[touched] = 0
        return touched

    def topk(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        """Exhaustive disjunctive BM25 top-k."""
        touched = self._score_disjunctive(
            dedup_keep_order(self.tokenizer(query)))
        if touched.size == 0:
            return []
        return self._topk_from_dense(self._scores_buf, touched, k)

    def match_scores(self, query: str) -> Tuple[np.ndarray, np.ndarray]:
        """The FULL disjunctive match set as (internal docIDs, BM25
        scores) — the first phase of function-query boosting (Solr
        ``boost=``), where a per-doc factor reorders results so the
        caller cannot top-k before applying it.  Same pinned
        summation order as :meth:`topk`; tombstoned docs are dropped as
        in :meth:`_topk_from_dense`; the dense accumulator is zeroed
        before returning."""
        touched = self._score_disjunctive(
            dedup_keep_order(self.tokenizer(query)))
        scores = self._scores_buf[touched].copy()
        self._scores_buf[touched] = 0.0
        if self._tombstone.any():
            alive = ~self._tombstone[touched]
            touched, scores = touched[alive], scores[alive]
        return self.doc_id_of_dense(touched), scores

    def terms_with_prefix(self, prefix: str, max_terms: int = 50
                          ) -> List[str]:
        """All index terms starting with ``prefix`` (a lowercase token
        prefix), capped to the lexicographically FIRST ``max_terms`` —
        Lucene's term-dictionary prefix scan.  Terms hash-shard, so
        every shard's (already-loaded, zero-copy Arrow) term column is
        scanned with one vectorized ``starts_with`` per generation —
        vocab-bounded work, never corpus-bounded."""
        import pyarrow.compute as _pc
        found = set()
        for shard in range(self.num_shards):
            states = self._load_shard(shard)
            for st in states or []:
                col = st["term_col"]
                hits = col.filter(_pc.starts_with(col, prefix))
                found.update(_pc.unique(hits).to_pylist())
        return sorted(found)[:max_terms]

    def prefix_term_dfs(self, prefix: str):
        """(term, df) pairs for every index term starting with
        ``prefix`` — the Solr TermsComponent primitive.  Reads only the
        EPOCH-PINNED light term-index columns already resident per
        shard (so a concurrent writer cycle yields IndexChangedError,
        never a torn or over-counted scan); df sums a term's chunk
        rows within and generations across segment files.  Lucene
        docFreq semantics: tombstoned docs still count (deleted docs
        decay from df only at merge/compact), matching Solr's
        terms.component behavior."""
        import pyarrow.compute as _pc
        agg: dict = {}
        for shard in range(self.num_shards):
            states = self._load_shard(shard) or []
            for st in states:
                light = st["light"]
                sub = light.filter(
                    _pc.starts_with(light["term"], prefix))
                for t, d in zip(sub["term"].to_pylist(),
                                sub["df"].to_pylist()):
                    agg[t] = agg.get(t, 0) + int(d)
        return agg

    def topk_prefix(self, prefix: str, k: int = 10, max_terms: int = 50
                    ) -> List[Tuple[int, float]]:
        """Prefix (wildcard ``prefix*``) BM25 top-k — Lucene
        PrefixQuery analog: expand to the first ``max_terms`` matching
        dictionary terms (lexicographic, deterministic), score
        disjunctively (summation in that sorted order), each expanded
        term with its own idf."""
        terms = self.terms_with_prefix(prefix, max_terms)
        touched = self._score_disjunctive(terms)
        if touched.size == 0:
            return []
        return self._topk_from_dense(self._scores_buf, touched, k)

    def terms_within_edits(self, word: str, max_edits: int = 1,
                           max_terms: int = 50) -> List[str]:
        """Dictionary terms within ``max_edits`` Levenshtein edits of
        ``word``, capped to the lexicographically first ``max_terms`` —
        Lucene FuzzyQuery's expansion.  Candidates prefilter by a
        vectorized length band (|len - len(word)| <= max_edits) over
        each shard's Arrow term column; survivors run ONE numpy banded
        DP across ALL candidates at once (r03 VERDICT #6 — the old
        per-candidate Python loop paid interpreter cost per vocabulary
        term on hot fuzzy workloads).  Work is vocab-bounded (Lucene
        builds a Levenshtein automaton instead; the band + batched DP
        is the honest small-alphabet equivalent here)."""
        import pyarrow.compute as _pc
        lw = len(word)
        parts = []
        for shard in range(self.num_shards):
            states = self._load_shard(shard)
            for st in states or []:
                col = st["term_col"]
                lens = _pc.utf8_length(col)
                band = _pc.and_(_pc.greater_equal(lens, lw - max_edits),
                                _pc.less_equal(lens, lw + max_edits))
                parts.append(_pc.unique(col.filter(band)))
        if not parts:
            return []
        cands = _pc.unique(pa.chunked_array(parts))
        if len(cands) == 0:
            return []
        mask = _edit_leq_batch(word, cands, max_edits)
        return sorted(cands.filter(pa.array(mask)).to_pylist())[:max_terms]

    def suggest(self, word: str, max_edits: int = 2, n: int = 5
                ) -> List[Tuple[str, int, int]]:
        """Spellcheck suggestions (Solr SpellCheckComponent analog):
        the ``n`` dictionary terms closest to ``word``, ordered by
        (edit distance asc, df desc, term asc) — distance from the
        batched banded DP's expansion, df from the term dictionary.
        Exact-match df>0 words still return alternatives (Solr's
        'more popular' suggestions behavior is the caller's filter)."""
        cands = self.terms_within_edits(word, max_edits,
                                        max_terms=1 << 30)
        if not cands:
            return []
        # exact distances from the SAME batched DP at tighter bounds
        # (max_edits is tiny, so <= max_edits extra vector passes over
        # the already-band-filtered candidates — no per-term Python)
        arr = pa.array(cands, pa.string())
        dist = np.full(len(cands), max_edits, dtype=np.int64)
        for dd in range(max_edits - 1, -1, -1):
            dist[_edit_leq_batch(word, arr, dd)] = dd
        out = []
        for c, dd in zip(cands, dist.tolist()):
            e = self.term_entry(c)
            if e is None:
                continue
            if self._exact_stats and self._tombstone.any():
                # alive-df needs the decoded postings; otherwise the
                # dictionary df is exact — don't decode (and don't
                # evict hot query terms from the postings LRU)
                docs, _ = self.postings(c)
                df = self._df_alive(e, self.dense_of(docs))
            else:
                df = int(e["df"])
            out.append((c, int(dd), int(df)))
        out.sort(key=lambda x: (x[1], -x[2], x[0]))
        return out[:n]

    def topk_fuzzy(self, word: str, k: int = 10, max_edits: int = 1,
                   max_terms: int = 50) -> List[Tuple[int, float]]:
        """Fuzzy BM25 top-k (Lucene ``word~1`` analog): expand to the
        dictionary terms within ``max_edits``, score disjunctively in
        sorted term order, each with its own idf."""
        terms = self.terms_within_edits(word, max_edits, max_terms)
        touched = self._score_disjunctive(terms)
        if touched.size == 0:
            return []
        return self._topk_from_dense(self._scores_buf, touched, k)

    def terms_matching(self, pattern: str, max_terms: int = 50
                       ) -> List[str]:
        """Dictionary terms matching a Lucene wildcard pattern (``*``
        any run, ``?`` one char), capped to the lexicographically
        first ``max_terms``.  Translated to SQL-LIKE and matched with
        one Arrow ``match_like`` kernel per shard's term column —
        vocab-bounded, no per-term Python.  A LEADING wildcard scans
        the whole dictionary (Lucene's documented wildcard cost; its
        reversed-term field is the index-side fix, out of scope)."""
        import pyarrow.compute as _pc
        like = pattern.replace("%", r"\%").replace("_", r"\_") \
            .replace("*", "%").replace("?", "_")
        parts = []
        for shard in range(self.num_shards):
            states = self._load_shard(shard)
            for st in states or []:
                col = st["term_col"]
                parts.append(_pc.unique(
                    col.filter(_pc.match_like(col, like))))
        if not parts:
            return []
        cands = _pc.unique(pa.chunked_array(parts))
        return sorted(cands.to_pylist())[:max_terms]

    def topk_wildcard(self, pattern: str, k: int = 10,
                      max_terms: int = 50) -> List[Tuple[int, float]]:
        """Wildcard BM25 top-k (Lucene WildcardQuery / Solr ``m*ge``
        analog): expand to matching dictionary terms, score
        disjunctively in sorted term order, each with its own idf."""
        terms = self.terms_matching(pattern, max_terms)
        touched = self._score_disjunctive(terms)
        if touched.size == 0:
            return []
        return self._topk_from_dense(self._scores_buf, touched, k)

    def terms_regexp(self, pattern: str, max_terms: int = 50
                     ) -> List[str]:
        """Dictionary terms FULLY matching ``pattern`` (RE2 syntax —
        the same engine DuckDB's ``regexp_full_match`` uses, so the
        SQL oracle expands identically), capped to the
        lexicographically first ``max_terms`` — Lucene RegexpQuery's
        term expansion.  One vectorized anchored regex scan per
        shard's (already-resident, epoch-pinned) Arrow term column;
        vocab-bounded, never corpus-bounded."""
        import pyarrow.compute as _pc
        anchored = f"^(?:{pattern})$"
        found = set()
        for shard in range(self.num_shards):
            states = self._load_shard(shard)
            for st in states or []:
                col = st["term_col"]
                hits = col.filter(
                    _pc.match_substring_regex(col, anchored))
                found.update(_pc.unique(hits).to_pylist())
        return sorted(found)[:max_terms]

    def topk_regexp(self, pattern: str, k: int = 10,
                    max_terms: int = 50) -> List[Tuple[int, float]]:
        """Regexp BM25 top-k (Lucene RegexpQuery / Solr ``/re/``
        syntax): expand to matching dictionary terms, score
        disjunctively in sorted term order, each with its own idf —
        the same contract as prefix/wildcard expansion."""
        terms = self.terms_regexp(pattern, max_terms)
        touched = self._score_disjunctive(terms)
        if touched.size == 0:
            return []
        return self._topk_from_dense(self._scores_buf, touched, k)

    def topk_synonyms(self, query: str, synonyms: dict, k: int = 10):
        """Query-time synonym expansion (Solr SynonymGraphFilter at
        query time, OR semantics): each query term expands to its
        synonym group, the DISTINCT expanded set scores disjunctively,
        each term with its own idf.  (Lucene's SynonymQuery blends df
        across the group; per-term idf is an intentional, documented
        divergence so the SQL oracle mirrors exactly.)"""
        terms = self.tokenizer(query)
        expanded = []
        for t in terms:
            expanded.append(t)
            expanded.extend(synonyms.get(t, ()))
        expanded = dedup_keep_order(expanded)
        if not expanded:
            return []
        touched = self._score_disjunctive(expanded)
        if touched.size == 0:
            return []
        return self._topk_from_dense(self._scores_buf, touched, k)

    def topk_boosted(self, query: str, k: int = 10
                     ) -> List[Tuple[int, float]]:
        """Disjunctive BM25 with per-term boosts — Lucene/Solr
        ``term^2.5`` query syntax (the query-time weighting JesterJ's
        Solr sink delegates to Lucene; exhaustive scoring — block-max
        pruning bounds would need per-term rescaling)."""
        from .bm25 import parse_boosted_query
        terms, boosts = parse_boosted_query(query, self.tokenizer)
        touched = self._score_disjunctive(terms, boosts)
        if touched.size == 0:
            return []
        return self._topk_from_dense(self._scores_buf, touched, k)

    def topk_excluding(self, query: str, exclude: str,
                       k: int = 10) -> List[Tuple[int, float]]:
        """Disjunctive BM25 over ``query`` terms MINUS docs containing
        any ``exclude`` term (Lucene MUST_NOT / Solr ``-term`` analog).
        Scores identical to :meth:`topk` on the surviving docs."""
        touched = self._score_disjunctive(
            dedup_keep_order(self.tokenizer(query)))
        if touched.size == 0:
            return []
        scores = self._scores_buf
        ex_parts = []
        for t in dedup_keep_order(self.tokenizer(exclude)):
            docs, _ = self.postings(t)
            if docs.size:
                ex_parts.append(self.dense_of(docs))
        if ex_parts:
            seen = self._seen_buf  # reuse as the exclusion mask
            ex = np.concatenate(ex_parts)
            seen[ex] = 1
            dropped = touched[seen[touched] == 1]
            touched = touched[seen[touched] == 0]
            seen[ex] = 0
            scores[dropped] = 0.0
        if touched.size == 0:
            return []
        return self._topk_from_dense(scores, touched, k)

    def topk_and(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        """CONJUNCTIVE BM25: only docs containing ALL distinct query terms
        score (a term absent from the corpus makes the result empty).
        Scores/idf identical to :meth:`topk` on the surviving docs; same
        tie-break.  The seen-buffer doubles as a per-doc term-hit COUNTER
        (uint8 — queries capped at 255 distinct terms)."""
        terms = dedup_keep_order(self.tokenizer(query))
        if not terms:
            return []
        if len(terms) > 255:
            raise ValueError("conjunctive query exceeds 255 distinct terms")
        scores = self._scores_buf
        seen = self._seen_buf
        touched_parts: List[np.ndarray] = []

        def _cleanup():
            for p in touched_parts:
                scores[p] = 0.0
                seen[p] = 0

        for t in terms:
            docs, tfs = self.postings(t)
            if docs.size == 0:
                _cleanup()
                return []
            e = self.term_entry(t)
            dense = self.dense_of(docs)
            scores[dense] += self._term_contrib_dense(
                dense, tfs, self._df_alive(e, dense))
            touched_parts.append(dense[seen[dense] == 0])
            seen[dense] += 1
        touched = np.concatenate(touched_parts)
        conj = touched[seen[touched] == len(terms)]
        seen[touched] = 0
        out = self._topk_from_dense(scores, conj, k) if conj.size else []
        scores[touched] = 0.0  # clear the non-conjunctive remainder too
        return out

    def topk_mm(self, query: str, k: int = 10, mm: int = 2
                ) -> List[Tuple[int, float]]:
        """Solr edismax minimum-should-match (``mm=N``): disjunctive
        BM25, but a doc qualifies only when it matched at least
        ``min(mm, n_distinct_terms)`` distinct query terms (Solr
        clamps mm to the optional-clause count, so a single-term
        query behaves as plain OR).  ``mm=1`` == :meth:`topk`;
        ``mm >= n_terms`` == :meth:`topk_and` when every term exists.
        Scores/ties identical to :meth:`topk` on the qualifying docs."""
        terms = dedup_keep_order(self.tokenizer(query))
        if not terms:
            return []
        if len(terms) > 255:
            raise ValueError("mm query exceeds 255 distinct terms")
        mm_eff = min(int(mm), len(terms))
        scores = self._scores_buf
        seen = self._seen_buf
        touched_parts: List[np.ndarray] = []
        for t in terms:
            docs, tfs = self.postings(t)
            if docs.size == 0:
                continue
            e = self.term_entry(t)
            dense = self.dense_of(docs)
            scores[dense] += self._term_contrib_dense(
                dense, tfs, self._df_alive(e, dense))
            touched_parts.append(dense[seen[dense] == 0])
            seen[dense] += 1
        if not touched_parts:
            return []
        touched = np.concatenate(touched_parts)
        qual = touched[seen[touched] >= mm_eff]
        seen[touched] = 0
        out = self._topk_from_dense(scores, qual, k) if qual.size else []
        scores[touched] = 0.0       # clear the sub-mm remainder too
        return out

    def _df_alive(self, e: dict, dense: np.ndarray) -> int:
        """df over alive docs in exact-stats mode (dense = the term's full
        decoded posting positions); as-built df otherwise."""
        if self._exact_stats and self._tombstone.any():
            return e["df"] - int(self._tombstone[dense].sum())
        return e["df"]

    def scoring_df(self, term: str) -> int:
        """The df the BM25 scorer uses for this term — as-built
        dictionary df, or alive-filtered in exact-stats mode.  For
        feature loggers (LTR) that must reproduce served idf exactly;
        0 for absent terms."""
        e = self.term_entry(term)
        if e is None:
            return 0
        docs, _ = self.postings(term)
        return self._df_alive(e, self.dense_of(docs))

    def _term_contrib_dense(self, dense: np.ndarray, tfs: np.ndarray,
                            df: int) -> np.ndarray:
        w = idf(self.n_docs, df)
        dls = self._dl_dense[dense].astype(np.float64)
        tff = tfs.astype(np.float64)
        return w * tff * (K1 + 1.0) / (tff + K1 * (1.0 - B + B * dls / self.avgdl))

    def topk_pruned(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        """Block-max pruned scoring (MaxScore family, term-at-a-time):
        terms processed in descending upper-bound order into the dense
        accumulator; once the running k-th score >= the sum of remaining
        term upper bounds, later terms cannot introduce NEW top-k docs, so
        they only rescore existing candidates, decoding just the posting
        blocks whose doc range covers a candidate (block-max skip).  Safe
        because a term's per-posting contribution is strictly below its
        upper bound (dl > 0 forces the denominator above tf)."""
        if self._exact_stats and self._tombstone.any():
            # pruned bounds assume as-built df; alive-df weights are only
            # known after decoding full postings, so score exhaustively
            return self.topk(query, k)
        terms = dedup_keep_order(self.tokenizer(query))
        entries = []
        for t in terms:
            e = self.term_entry(t)
            if e is not None:
                w = idf(self.n_docs, e["df"])
                entries.append((t, e, w * (K1 + 1.0)))
        if not entries:
            return []
        entries.sort(key=lambda x: -x[2])  # descending upper bound
        rem_ub = np.cumsum([ub for *_, ub in entries][::-1])[::-1]

        scores = self._scores_buf
        seen = self._seen_buf
        touched_parts: List[np.ndarray] = []
        n_touched = 0
        for i, (t, e, ub) in enumerate(entries):
            threshold = -1.0
            if n_touched >= k:
                allv_idx = np.concatenate(touched_parts) if \
                    len(touched_parts) > 1 else touched_parts[0]
                # the k-th threshold must reflect only ALIVE candidates:
                # tombstoned docs are dropped at extraction, so including
                # their (often high) scores here would inflate the bound and
                # prune terms that still matter for live docs
                if self._tombstone.any():
                    allv_idx = allv_idx[~self._tombstone[allv_idx]]
                if allv_idx.size >= k:
                    allv = scores[allv_idx]
                    threshold = float(
                        allv[np.argpartition(-allv, k - 1)[k - 1]])
            if threshold >= rem_ub[i]:
                # pruned phase: candidates only + block-max skip decode
                touched = np.concatenate(touched_parts)
                touched_parts = [touched]
                targets = self.doc_id_of_dense(np.sort(touched))
                docs, tfs = self._decode_blocks_covering(e, targets)
                if docs.size == 0:
                    continue
                dense = self.dense_of(docs)
                hit = seen[dense] == 1
                if not hit.any():
                    continue
                dh = dense[hit]
                scores[dh] += self._term_contrib_dense(dh, tfs[hit], e["df"])
            else:
                docs, tfs = self.postings(t)
                if docs.size == 0:
                    continue
                dense = self.dense_of(docs)
                scores[dense] += self._term_contrib_dense(dense, tfs, e["df"])
                new = dense[seen[dense] == 0]
                seen[new] = 1
                touched_parts.append(new)
                n_touched += new.size
        if not touched_parts:
            return []
        touched = np.concatenate(touched_parts)
        seen[touched] = 0
        return self._topk_from_dense(scores, touched, k)

    def _decode_blocks_covering(self, e: dict, targets: np.ndarray
                                ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode ONLY the posting blocks whose doc range may contain
        ``targets`` across all of the term's chunks."""
        doc_parts, tf_parts = [], []
        for c in e["chunks"]:
            d, t = self._decode_chunk_blocks(c, targets)
            if d.size:
                doc_parts.append(d)
                tf_parts.append(t)
        if not doc_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(doc_parts), np.concatenate(tf_parts)

    def _decode_chunk_blocks(self, e: dict, targets: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """One chunk: per-block byte offsets (block_doc_off/block_tf_off)
        let us slice the varbyte blob without touching skipped bytes; a
        block's deltas cumsum from block_last[b-1].  Blocks are variable
        size (block_counts) — run boundaries produce short blocks."""
        bl = e["block_last"]
        bc = e["block_counts"]
        n = e["count"]
        # block index each target would land in
        bidx = np.unique(np.searchsorted(bl, targets))
        bidx = bidx[bidx < bl.size]
        starts = np.concatenate([[0], np.cumsum(bc)])
        if bidx.size >= max(1, bl.size // 2):
            # most blocks needed: full decode is cheaper (and cacheable)
            docs = np.cumsum(varbyte_decode(e["doc_blob"], n).astype(np.int64))
            tfs = varbyte_decode(e["tf_blob"], n).astype(np.int64)
            if bidx.size == bl.size:
                return docs, tfs
            keep = np.zeros(docs.size, dtype=bool)
            for b in bidx:
                keep[starts[b]:starts[b + 1]] = True
            return docs[keep], tfs[keep]
        doff, toff = e["block_doc_off"], e["block_tf_off"]
        doc_parts, tf_parts = [], []
        for b in bidx:
            cnt = int(bc[b])
            deltas = varbyte_decode(e["doc_blob"][doff[b]:doff[b + 1]],
                                    cnt).astype(np.int64)
            base = int(bl[b - 1]) if b > 0 else 0
            doc_parts.append(np.cumsum(deltas) + base)
            tf_parts.append(varbyte_decode(e["tf_blob"][toff[b]:toff[b + 1]],
                                           cnt).astype(np.int64))
        if not doc_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(doc_parts), np.concatenate(tf_parts)


def delete_docs(index_dir: str, doc_keys) -> int:
    """Tombstone documents by doc_key (the Operation.DELETE /
    sender-deleteById analog).  Deletes are visible to any reader opened
    after the atomic tombstones.json rewrite; physical removal happens at
    the next full rebuild.  Returns how many keys matched."""
    from ..state.manifest import atomic_write_bytes
    keys = set(doc_keys)
    dead: List[int] = []
    docs_dir = os.path.join(index_dir, "docs")
    for name in sorted(os.listdir(docs_dir)):
        if not name.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(docs_dir, name),
                          columns=["doc_id", "doc_key"])
        for did, key in zip(t["doc_id"].to_pylist(), t["doc_key"].to_pylist()):
            if key in keys:
                dead.append(int(did))
    tomb_path = os.path.join(index_dir, "tombstones.json")
    existing: List[int] = []
    if os.path.exists(tomb_path):
        with open(tomb_path) as f:
            existing = json.load(f).get("doc_ids", [])
    merged = sorted(set(existing) | set(dead))
    atomic_write_bytes(tomb_path, json.dumps({"doc_ids": merged}).encode())
    publish_epoch(index_dir)
    return len(dead)


def delete_by_query(index_dir: str, query: str, *,
                    mode: str = "or") -> int:
    """Solr deleteByQuery analog: tombstone every ALIVE document whose
    text matches ``query`` — disjunctive by default, ``mode='and'``
    for conjunctive.  Matching reads the index's own postings (the
    query engine's match set, not a corpus rescan); the tombstone
    write is the same atomic rewrite + epoch publish as deleteById.
    Returns how many documents were newly tombstoned."""
    reader = IndexReader(index_dir)
    terms = dedup_keep_order(reader.tokenizer(query))
    if not terms:
        return 0
    sets = []
    for t in terms:
        docs, _ = reader.postings(t)
        sets.append(docs[reader.alive_mask(docs)])
    if mode == "and":
        matched = sets[0]
        for s in sets[1:]:
            matched = matched[np.isin(matched, s, assume_unique=True)]
    else:
        matched = np.unique(np.concatenate(sets)) if sets else \
            np.zeros(0, dtype=np.int64)
    if matched.size == 0:
        return 0
    delete_docs(index_dir, reader.doc_keys(matched))
    # matched counts LOGICAL newly-dead docs; delete_docs' own count
    # also includes superseded delta rows of the same key (r05
    # self-review #4), so it is not the caller-facing number
    return int(matched.size)


class QueryActor:
    """Actor-pool stage: answer batches of queries against one index.

    Use: ``queries_ds.map_batches(QueryActor, fn_constructor_kwargs=
    {"index_dir": d}, batch_format="pandas", concurrency=N)``.
    Input batch columns: qid:int64, query:string, k:int64.
    Output: qid, rank, doc_id (internal), doc_key, score.
    """

    def __init__(self, index_dir: str, pruned: bool = True,
                 mode: str = "or"):
        self.reader = IndexReader(index_dir)
        self.pruned = pruned
        self.mode = mode  # "or" (disjunctive) | "and" (conjunctive)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = {"qid": [], "rank": [], "doc_id": [], "doc_key": [], "score": []}
        if self.mode == "and":
            fn = self.reader.topk_and
        else:
            fn = self.reader.topk_pruned if self.pruned else self.reader.topk
        for qid, query, k in zip(batch["qid"], batch["query"], batch["k"]):
            hits = fn(query, int(k))
            ids = np.array([h[0] for h in hits], dtype=np.int64)
            keys = self.reader.doc_keys(ids)
            for r, ((did, score), key) in enumerate(zip(hits, keys), 1):
                out["qid"].append(int(qid))
                out["rank"].append(r)
                out["doc_id"].append(did)
                out["doc_key"].append(key)
                out["score"].append(score)
        return pd.DataFrame(out)


def _edit_leq_batch(word: str, cands: pa.Array, d: int) -> np.ndarray:
    """Bool mask: levenshtein(word, cands[i]) <= d for every candidate
    at once — the banded DP of :func:`_edit_distance_leq` run as numpy
    column operations over a padded byte matrix of ALL candidates
    (r03 VERDICT #6).  Per DP cell one O(n_cands) vector op; total
    sequential steps len(word) * (2d+1), independent of vocabulary
    size.  Byte-level == char-level only for ASCII, so any non-ASCII
    word/candidate falls back to the scalar char DP (index terms from
    ``simple_tokenize`` are [a-z0-9]+, making the fallback dead in
    practice but required for custom tokenizers)."""
    n = len(cands)
    # padded byte matrix from the Arrow buffers — no per-term Python
    off_buf, data_buf = cands.buffers()[1], cands.buffers()[2]
    off_dt = np.int64 if pa.types.is_large_string(cands.type) else np.int32
    offs = np.frombuffer(off_buf, dtype=off_dt)[
        cands.offset:cands.offset + n + 1].astype(np.int64)
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None \
        else np.zeros(0, np.uint8)
    blens = np.diff(offs).astype(np.int64)
    if not word.isascii() or (data.size and int(data.max()) >= 128):
        return np.array([_edit_distance_leq(word, c, d)
                         for c in cands.to_pylist()], dtype=bool)
    wb = np.frombuffer(word.encode(), dtype=np.uint8)
    m = len(wb)
    lmax = int(blens.max()) if n else 0
    if m == 0:
        return blens <= d
    cols = np.arange(lmax, dtype=np.int64)
    fill = cols[None, :] < blens[:, None]
    mat = np.zeros((n, lmax), dtype=np.uint8)
    if data.size:
        mat[fill] = data[(offs[:-1, None] + cols[None, :])[fill]]
    # cells clamp at d+1, so uint8 holds every value (d+2 max transient)
    # for any realistic edit bound — 4x less memory traffic than int32
    dp_dt = np.uint8 if d <= 200 else np.int32
    big = dp_dt(d + 1)
    prev = np.minimum(np.arange(lmax + 1, dtype=np.int64), d + 1) \
        .astype(dp_dt)
    prev = np.tile(prev, (n, 1))
    n0 = n
    keep_idx = np.arange(n, dtype=np.int64)
    for i in range(1, m + 1):
        lo, hi = max(1, i - d), min(lmax, i + d)
        cur = np.full((keep_idx.size, lmax + 1), big, dtype=dp_dt)
        if lo == 1:
            cur[:, 0] = min(i, d + 1)
        for j in range(lo, hi + 1):
            sub = prev[:, j - 1] + (mat[:, j - 1] != wb[i - 1])
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1,
                                              cur[:, j - 1] + 1), sub)
        # re-clamp at d+1: row-to-row creep past the bound would
        # eventually wrap the uint8 cells on long words
        np.minimum(cur, big, out=cur)
        row_alive = cur[:, max(lo - 1, 0):hi + 1].min(axis=1) <= d
        if not row_alive.all():
            # compact: dead candidates stop paying vector width (most
            # die in the first d+1 rows; this keeps the per-row cost
            # proportional to survivors, not the band population)
            keep_idx = keep_idx[row_alive]
            if keep_idx.size == 0:
                return np.zeros(n0, dtype=bool)
            cur = cur[row_alive]
            mat = mat[row_alive]
            blens = blens[row_alive]
        prev = cur
    final = np.take_along_axis(prev, blens[:, None].astype(np.int64),
                               axis=1)[:, 0]
    out = np.zeros(n0, dtype=bool)
    out[keep_idx[final <= d]] = True
    return out


def _edit_distance_leq(a: str, b: str, d: int) -> bool:
    """True iff levenshtein(a, b) <= d — banded DP, O(len*d) cells, row-min
    early exit.  Matches DuckDB ``levenshtein`` (unit costs)."""
    if abs(len(a) - len(b)) > d:
        return False
    if a == b:
        return True
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        lo = max(1, i - d)
        hi = min(len(b), i + d)
        if lo > 1:
            cur[lo - 1] = d + 1  # outside the band
        for j in range(lo, hi + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != b[j - 1]))
        if hi < len(b):
            cur[hi + 1:] = [d + 1] * (len(b) - hi)
        if min(cur[lo - 1:hi + 1]) > d:
            return False
        prev = cur
    return prev[len(b)] <= d
