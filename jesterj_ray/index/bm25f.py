"""BM25F — weighted multi-field BM25 over per-field indexes.

Reference analog: JesterJ feeds documents into Solr, whose
``edismax``/``qf`` query weighting scores multiple fields with per-field
boosts (the reference configures per-field search behavior in the Solr
schema it ships, reference ``code/ingest/src/main/java/org/jesterj/ingest/
processors/SendToSolrCloudProcessor.java:60-96`` builds those multi-field
documents).  Our engine's analog is the principled BM25F formulation
(Robertson/Zaragoza): per-field term frequencies are length-normalized and
weight-combined BEFORE the saturation curve,

    tfa(t,d) = sum over fields f of
                   w_f * tf_f(t,d) / (1 - b_f + b_f * dl_f(d) / avgdl_f)
    score(d) = sum over distinct query terms t of
                   idf(t) * tfa * (k1 + 1) / (tfa + k1)

with document-level idf (df = docs containing t in ANY field, same
``idf`` as single-field BM25; k1 = 1.2).

Per-doc delta re-index of a field family (:func:`delta_reindex_fields`,
r03 VERDICT #5): every field's build hashes the FULL document column
(``change_col``) for change detection instead of its own field slice,
so all fields see the SAME changed-doc set and assign identical delta
(pid, rank)s and tombstones — the shared doc space stays aligned
through any number of delta rounds.  The doc-space guard below turns
any divergence (e.g. a field delta'd alone) into an error, never a
wrong score.

Architecture: ONE single-field index per field over the SAME input.
docIDs are ``pid << 32 | rank`` derived from the input alone (repo
invariant), so every field index shares an identical dense doc space —
the scorer fancy-indexes one shared accumulator across fields with no
id translation, and all of ``IndexReader``'s serving machinery (lazy
row-group posting fetch, shard layout, epoch pinning) applies per field
unchanged.  On a cluster each field index is just another index
directory; a doc-range serving slice slices every field the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd

from .bm25 import K1, dedup_keep_order, idf
from .query import IndexReader

# default field setup used by the flagship documents pipeline: a short
# "title" field weighted 2x over the "body"
DEFAULT_WEIGHTS = {"title": 2.0, "body": 1.0}
DEFAULT_B = {"title": 0.75, "body": 0.75}


class BM25FReader:
    """Scores BM25F over N per-field indexes sharing one doc space."""

    def __init__(self, field_dirs: Dict[str, str],
                 weights: Optional[Dict[str, float]] = None,
                 b: Optional[Dict[str, float]] = None):
        """A serving slice is just another family of field dirs (from
        ``repartition_bm25f_for_serving``): its ``topk`` MUST be given
        global dfs via ``df_override`` (see :meth:`term_union_df`) for
        score parity."""
        if not field_dirs:
            raise ValueError("BM25F needs at least one field index")
        self.readers = {f: IndexReader(d) for f, d in field_dirs.items()}
        self.weights = dict(weights or DEFAULT_WEIGHTS)
        self.b = dict(b or DEFAULT_B)
        for f in self.readers:
            if f not in self.weights or f not in self.b:
                raise ValueError(f"missing weight/b for field {f!r}")
        # the primary reader owns the shared dense space + buffers; every
        # field index must agree on it (same input, same partitioning)
        self.primary = next(iter(self.readers.values()))
        for f, r in self.readers.items():
            if not self._same_doc_space(self.primary, r):
                raise ValueError(
                    f"field index {f!r} has a different doc space — all "
                    "BM25F fields must be built from the same input with "
                    "an input-derived partitioning (build_index "
                    "partition_by='doc_key' or build_index_rows) so every "
                    "field assigns each doc the same (pid, rank)")
            if not np.array_equal(r._tombstone, self.primary._tombstone):
                raise ValueError(
                    f"field index {f!r} tombstones differ from the "
                    "primary's; delta field families as a UNIT "
                    "(delta_reindex_fields) or compact so every field "
                    "drops the same docs")
        self._has_tombs = bool(self.primary._tombstone.any())
        self.n_docs = self.primary.n_docs
        self._tfa_buf = np.zeros(self.primary.n_dense, dtype=np.float64)

    @staticmethod
    def _same_doc_space(a: IndexReader, b: IndexReader) -> bool:
        """True iff the two indexes assign every doc the same docID.

        Compares pid set, per-pid sizes, and the FULL doc_key column of
        every partition (the columns are already resident in the
        readers, so the Arrow equality scan is one vectorized pass —
        boundary-only checks could pass two different corpus snapshots
        that happen to share sizes and end keys, ADVICE r03)."""
        if a.n_dense != b.n_dense or not np.array_equal(a._pids, b._pids):
            return False
        for pid in map(int, a._pids):
            ka, kb = a._doc_key[pid], b._doc_key[pid]
            if len(ka) != len(kb) or not ka.equals(kb):
                return False
        return True

    def term_union_df(self, terms: List[str]) -> Dict[str, int]:
        """Per-term |docs matching in ANY field| for THIS reader's doc
        range.  Doc spaces are disjoint across serving slices, so these
        counts SUM to the exact global any-field df — the df-gather
        round of the sharded two-phase protocol (the same shape as
        distributed search engines' query-then-fetch df pass)."""
        out = {}
        for t in terms:
            parts = [self.primary.dense_of(r.postings(t)[0])
                     for r in self.readers.values()]
            parts = [p for p in parts if p.size]
            if not parts:
                out[t] = 0
                continue
            union = parts[0] if len(parts) == 1 else \
                np.unique(np.concatenate(parts))
            if self._has_tombs:
                union = union[~self.primary._tombstone[union]]
            out[t] = int(union.size)
        return out

    def topk(self, query: str, k: int = 10,
             df_override: Optional[Dict[str, int]] = None
             ) -> List[Tuple[int, float]]:
        """Exhaustive BM25F top-k: (doc_id, score) desc, ties asc docID.

        Term-at-a-time over the shared dense accumulator; per term, each
        field adds its normalized weighted tf into ``tfa`` (vectorized
        fancy-index add), then one saturation pass over the union of the
        fields' match sets.  ``df_override`` supplies global any-field
        dfs (required on slice readers; ignored keys are fine)."""
        terms = dedup_keep_order(self.primary.tokenizer(query))
        scores = self.primary._scores_buf
        seen = self.primary._seen_buf
        tfa = self._tfa_buf
        touched_parts: List[np.ndarray] = []
        for t in terms:
            dense_parts: List[np.ndarray] = []
            for f, r in self.readers.items():
                docs, tfs = r.postings(t)
                if docs.size == 0:
                    continue
                dense = self.primary.dense_of(docs)
                bf = self.b[f]
                norm = 1.0 - bf + bf * (
                    r._dl_dense[dense].astype(np.float64) / r.avgdl)
                tfa[dense] += self.weights[f] * tfs.astype(np.float64) / norm
                dense_parts.append(dense)
            if not dense_parts:
                continue
            union = dense_parts[0] if len(dense_parts) == 1 else \
                np.unique(np.concatenate(dense_parts))
            if self._has_tombs:
                # tombstoned rows drop from df AND scoring (their tfa
                # residue must also clear below, hence filter first)
                alive_union = union[~self.primary._tombstone[union]]
                tfa[union[self.primary._tombstone[union]]] = 0.0
                union = alive_union
                if union.size == 0:
                    continue
            # document-level df: term present in ANY field
            df = df_override[t] if df_override is not None \
                else int(union.size)
            w = idf(self.n_docs, df)
            v = tfa[union]
            scores[union] += w * v * (K1 + 1.0) / (v + K1)
            tfa[union] = 0.0
            new = union[seen[union] == 0]
            seen[new] = 1
            touched_parts.append(new)
        if not touched_parts:
            return []
        touched = np.concatenate(touched_parts)
        seen[touched] = 0
        return self.primary._topk_from_dense(scores, touched, k)

    def doc_keys(self, doc_ids: np.ndarray) -> List[str]:
        return self.primary.doc_keys(doc_ids)


def delta_reindex_fields(paths, field_dirs: Dict[str, str], *,
                         change_col: str, key_col: Optional[str] = None,
                         tokenizer: str = "simple",
                         docs_per_partition: int = 50_000,
                         num_shards: int = 8,
                         positions: bool = False) -> Dict[str, Dict]:
    """Per-doc delta re-index of a whole BM25F field family as a UNIT
    (r03 VERDICT #5; reference analog: the watch loop re-feeds changed
    docs into Solr, which updates every field of the document at once —
    ``ScannerImpl.java:453-502``).

    ``paths`` is the family's SPLIT parquet (one column per field plus
    ``change_col``, the full-document column whose sha drives change
    detection).  Every field's base index must have been built with
    ``build_index_rows(..., change_col=change_col)`` over the same
    split, so the fields share one doc space; the per-field deltas then
    see identical changed-doc sets and assign identical delta pids,
    ranks, and tombstones — verified below, because a divergent family
    would serve wrong scores (BM25FReader would refuse to open it).

    Returns {field: delta_reindex stats}."""
    from .build_rows import delta_reindex
    # PRE-FLIGHT alignment check (ADVICE r04): per field, the delta's
    # outcome is a deterministic function of (input, change_col, this
    # bookkeeping state) — manifest diff classification + overlay
    # catalog + tombstones.  If the states already disagree (e.g. a
    # field was delta'd alone through the single-index API), abort
    # BEFORE any field mutates: no epoch flips, no stats/tombstone
    # overwrite, and serving keeps answering from the current epochs
    # instead of hitting BM25FReader's refuse-to-open cliff.
    pre = _family_diff_state(field_dirs)
    if len(set(pre.values())) > 1:
        groups: Dict[str, List[str]] = {}
        for f, s in pre.items():
            groups.setdefault(s, []).append(f)
        raise RuntimeError(
            "field family bookkeeping diverged BEFORE the delta — "
            f"fields grouped by state: {sorted(groups.values())}; "
            "a field was likely delta'd alone.  Nothing was written; "
            "run a full family rebuild (build_index_rows per field "
            "with change_col) to realign the doc spaces")
    out: Dict[str, Dict] = {}
    for f in sorted(field_dirs):
        out[f] = delta_reindex(
            paths, field_dirs[f], text_col=f, key_col=key_col,
            tokenizer=tokenizer, docs_per_partition=docs_per_partition,
            num_shards=num_shards, positions=positions,
            change_col=change_col)
    # post-hoc cross-check (defense in depth; should be unreachable
    # when the pre-flight passed)
    sig = {f: (s["reindexed_docs"], s["tombstoned"],
               tuple(s["delta_partitions"]))
           for f, s in out.items()}
    if len(set(sig.values())) > 1:
        raise RuntimeError(
            f"field family delta diverged: {sig} — the fields no longer "
            "share a doc space; run a full rebuild of the family")
    return out


def _family_diff_state(field_dirs: Dict[str, str]) -> Dict[str, str]:
    """Per-field sha1 over exactly the bookkeeping that determines a
    delta round's outcome: per-pid (status, input_fingerprint,
    docs_seen) from the build manifest, the delta overlay catalog, and
    the tombstone set.  With ``change_col`` change detection the stored
    per-doc shas are full-document shas shared by every field, so equal
    states here guarantee equal (changed set, delta pids, tombstones)
    across the family."""
    import hashlib
    import json as _json
    import os as _os

    from ..state.manifest import Manifest
    out: Dict[str, str] = {}
    for f, d in sorted(field_dirs.items()):
        recs = Manifest(d, "build").all()
        mrec = {str(pid): (r.get("status"), r.get("input_fingerprint"),
                           r.get("docs_seen"))
                for pid, r in recs.items()}
        state = [mrec]
        for name in ("delta_overlay.json", "tombstones.json",
                     "tombstones.pending.json"):
            p = _os.path.join(d, name)
            if _os.path.exists(p):
                with open(p) as fh:
                    state.append(_json.load(fh))
            else:
                state.append(None)
        out[f] = hashlib.sha1(
            _json.dumps(state, sort_keys=True).encode()).hexdigest()
    return out


def watch_and_reindex_fields(pattern: str, field_dirs: Dict[str, str], *,
                             change_col: str,
                             key_col: Optional[str] = None,
                             tokenizer: str = "simple",
                             interval_s: float = 5.0,
                             max_cycles: Optional[int] = None,
                             docs_per_partition: int = 50_000,
                             num_shards: int = 8,
                             compact_every: Optional[int] = None,
                             on_publish=None):
    """Continuous rescan loop for a WHOLE field family — the
    ``build_rows.watch_and_reindex`` analog over BM25F (reference: the
    interval scanner re-feeds changed docs and Solr updates every field
    of the document at once, ``ScannerImpl.java:219-258,453-502``).

    Cycle: glob ``pattern`` (the family's split parquet); first cycle
    base-builds every field with ``change_col``; later cycles
    :func:`delta_reindex_fields` (one changed doc re-tokenizes once per
    field, doc spaces stay aligned).  ``compact_every=N`` compacts
    every field after every N delta cycles — each field compacts from
    identical tombstones/manifests, so alignment survives compaction
    (BM25FReader's doc-space guard verifies).  ``on_publish(stats)``
    fires after each cycle's epochs publish — after a compacting cycle,
    re-split the family into the serving slice root
    (``repartition_bm25f_for_serving``) and call the sharded service's
    ``reopen`` there, and queries keep serving across the loop
    (tests/test_bm25f_delta.py pins the full
    delta -> compact -> re-split -> reopen -> parity cycle).

    Yields per-cycle stats like watch_and_reindex."""
    import glob as _glob
    import time as _time

    from ..state.manifest import Manifest
    from .build_rows import build_index_rows
    cycle = 0
    while max_cycles is None or cycle < max_cycles:
        if cycle:
            _time.sleep(interval_s)
        paths = sorted(_glob.glob(pattern))
        if not paths:
            yield {"cycle": cycle, "n_docs": 0, "paths": 0}
            cycle += 1
            continue
        kw = dict(key_col=key_col, tokenizer=tokenizer,
                  docs_per_partition=docs_per_partition,
                  num_shards=num_shards)
        # base path whenever ANY field is incomplete: a crash mid-way
        # through the first cycle's per-field builds must resume the
        # missing fields (build_index_rows resume=True), not take the
        # delta path and wedge on a permanently diverged family
        all_complete = all(
            Manifest(d, "build").completed_partitions()
            for d in field_dirs.values())
        if not all_complete:
            per = {f: build_index_rows(paths, d, text_col=f,
                                       change_col=change_col, **kw)
                   for f, d in sorted(field_dirs.items())}
            stats = {"cycle": cycle, "mode": "base",
                     "paths": len(paths), "fields": per}
        else:
            per = delta_reindex_fields(paths, field_dirs,
                                       change_col=change_col, **kw)
            stats = {"cycle": cycle, "mode": "delta",
                     "paths": len(paths), "fields": per}
            if compact_every and cycle % compact_every == 0:
                from .compact import compact_index
                stats["compaction"] = {
                    f: compact_index(d)
                    for f, d in sorted(field_dirs.items())}
                # FTI history TTL, same as the single-index loop
                # (build_rows.watch_and_reindex): an eternal family
                # loop's status history stays time-bounded
                stats["history_expired"] = sum(
                    Manifest(d, stage).expire_history()
                    for d in field_dirs.values()
                    for stage in ("build", "merge"))
        if on_publish is not None:
            on_publish(stats)
        yield stats
        cycle += 1


class BM25FQueryActor:
    """Actor-pool stage: BM25F answers for batches of queries.

    Same contract as ``query.QueryActor`` (input qid/query/k, output
    qid/rank/doc_id/doc_key/score); opens every field index once per
    actor in ``__init__``."""

    def __init__(self, field_dirs: Dict[str, str],
                 weights: Optional[Dict[str, float]] = None,
                 b: Optional[Dict[str, float]] = None):
        self.reader = BM25FReader(field_dirs, weights=weights, b=b)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = {"qid": [], "rank": [], "doc_id": [], "doc_key": [],
               "score": []}
        for qid, query, k in zip(batch["qid"], batch["query"], batch["k"]):
            hits = self.reader.topk(query, int(k))
            ids = np.array([h[0] for h in hits], dtype=np.int64)
            keys = self.reader.doc_keys(ids)
            for r, ((did, score), key) in enumerate(zip(hits, keys), 1):
                out["qid"].append(int(qid))
                out["rank"].append(r)
                out["doc_id"].append(did)
                out["doc_key"].append(key)
                out["score"].append(score)
        return pd.DataFrame(out)
