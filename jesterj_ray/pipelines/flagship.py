"""Flagship pipelines: the inverted-index build + BM25 query engine over
the ``documents`` test table and the synthetic code corpus.

``documents_index`` builds (and caches per sf_dir under /tmp) an index
over the driver's ``documents`` parquet with the SIMPLE tokenizer —
whose semantics are exactly expressible in DuckDB SQL, so the driver's
oracle can verify the full distributed pipeline: tokenize -> partition ->
posting runs -> merge -> segments -> BM25 top-k.

The code corpus flagship (``corpus_index_pipeline``) uses the CODE
tokenizer (camelCase/snake_case identifier splitting) after sha256
dedup at ingest (``exact_dedup_parquet``) and is verified in pytest
against the in-repo brute-force oracle.  Every index here is built by
``build_index_rows``.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
from typing import List, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..index.build_rows import build_index_rows
from ..index.query import IndexReader, QueryActor

# fixed query set over the documents table's vocabulary (BM25-checkable
# in SQL; terms chosen to cover hot, rare, multi-term and absent cases)
DOC_QUERIES = [
    {"qid": 1, "query": "merge sort", "k": 10},
    {"qid": 2, "query": "customer", "k": 10},
    {"qid": 3, "query": "window filter stream", "k": 10},
    {"qid": 4, "query": "zzzabsent", "k": 10},
    {"qid": 5, "query": "hash join", "k": 5},
    # 'dup' is RARE (~5% of docs): AND top-k genuinely differs from OR
    # here (OR admits dup-only docs; AND keeps only dup AND stream), so
    # the conjunctive oracle is discriminating, not vacuously equal.
    # 'stream' (not 'merge' etc.) because the other pairings produce
    # 6dp-rounding ties in the top-k whose sub-1e-6 ordering flips
    # between the engine's and DuckDB's float summation order.
    {"qid": 6, "query": "dup stream", "k": 10},
]


def _cache_dir(sf_dir: str, tag: str) -> str:
    key = hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12]
    return os.path.join("/tmp/jjray_cache", f"{tag}-{key}")


def documents_index(sf_dir: str, *, rebuild: bool = False) -> str:
    """Build (or reuse) the simple-tokenizer index over documents.parquet.

    No dedup: the SQL oracle scores the raw table.  doc_key is the
    12-digit zero-padded doc_id, and docIDs ascend with doc_id (the
    oracles' tie order).  Returns the index directory."""
    out = _cache_dir(sf_dir, "docidx4")
    marker = os.path.join(out, "stats.json")
    if rebuild and os.path.isdir(out):
        shutil.rmtree(out)
    if not os.path.exists(marker):
        build_index_rows(os.path.join(sf_dir, "documents.parquet"), out,
                         text_col="text", key_col="doc_id",
                         tokenizer="simple", num_shards=4)
    return out


def _orig_ids(reader, ids) -> np.ndarray:
    """Internal docIDs -> the int64 ``doc_id`` their doc_key spells
    (the zero-padded documents key)."""
    return np.array([int(k) for k in reader.doc_keys(
        np.asarray(ids, dtype=np.int64))], dtype=np.int64)


def _query_frame(queries: List[dict], ranked_of, cols=("score",)
                 ) -> pd.DataFrame:
    """The query-set frame every flagship query entry returns:
    (qid, rank, doc_id, *cols).  ``ranked_of(q)`` gives one query's rows
    in rank order as equal-length ``doc_id`` (original ids) and ``cols``
    arrays.  Every column is int64 except ``score``: float64 rounded to
    6dp with pandas ``round`` (the SQL oracles' rounding).  Rows sort by
    (qid, rank), stable, so a repeated qid keeps query order; an empty
    result keeps the dtypes."""
    names = ("qid", "rank", "doc_id", *cols)
    dtypes = {c: np.float64 if c == "score" else np.int64 for c in names}
    parts = {c: [np.empty(0, dtypes[c])] for c in names}
    for q in queries:
        r = ranked_of(q)
        n = len(r["doc_id"])
        parts["qid"].append(np.full(n, q["qid"], np.int64))
        parts["rank"].append(np.arange(1, n + 1, dtype=np.int64))
        for c in names[2:]:
            parts[c].append(np.asarray(r[c], dtype=dtypes[c]))
    out = pd.DataFrame({c: np.concatenate(v) for c, v in parts.items()})
    if "score" in out:
        out["score"] = out["score"].round(6)
    return out.sort_values(["qid", "rank"], kind="stable") \
        .reset_index(drop=True)


def _query_set(reader, queries: List[dict], hits_of) -> pd.DataFrame:
    """Run a fixed query set on ONE open reader: ``hits_of(q)`` returns
    the reader's ranked ``[(internal_id, score)]`` for one query dict;
    the frame is :func:`_query_frame`'s (qid, rank, doc_id, score)."""
    def ranked(q):
        hits = hits_of(q)
        return {"doc_id": _orig_ids(reader, [h[0] for h in hits]),
                "score": [h[1] for h in hits]}
    return _query_frame(queries, ranked)


def bm25_topk_documents(sf_dir: str, queries: Optional[List[dict]] = None,
                        *, mode: str = "or") -> pd.DataFrame:
    """Top-k BM25 over documents.parquet for the fixed query set.

    ``mode='and'`` scores conjunctively (all distinct query terms must
    match; IndexReader.topk_and — qid 4's absent term empties that
    query).  Output columns (qid:int64, rank:int64, doc_id:int64,
    score:float64 rounded to 6dp) match the SQL oracle exactly."""
    reader = IndexReader(documents_index(sf_dir))
    topk = reader.topk_and if mode == "and" else reader.topk
    return _query_set(reader, queries or DOC_QUERIES,
                      lambda q: topk(q["query"], q["k"]))


def bm25_and_topk_documents(sf_dir: str,
                            queries: Optional[List[dict]] = None
                            ) -> pd.DataFrame:
    return bm25_topk_documents(sf_dir, queries, mode="and")


def bm25_mm_topk_documents(sf_dir: str,
                           queries: Optional[List[dict]] = None,
                           mm: int = 2) -> pd.DataFrame:
    """Top-k under minimum-should-match mm=2 (Solr edismax ``mm=N``;
    a query dict's own ``mm`` overrides; clamped per Solr to the clause
    count, so single-term queries degrade to plain OR); qid 3's 3-term
    query is the discriminating case (differs from both OR and AND)."""
    reader = IndexReader(documents_index(sf_dir))
    return _query_set(reader, queries or DOC_QUERIES,
                      lambda q: reader.topk_mm(q["query"], q["k"],
                                               mm=q.get("mm", mm)))


def _doc_values(sf_dir: str, field: str, dtype):
    """(ascending doc_id, value) arrays of one stored numeric field of
    documents.parquet, loaded once per entry call from a pruned
    2-column read — the Lucene DocValues analog.  At 10^12-doc scale
    this column would instead live as a per-partition docvalues blob
    inside the index (like the doc-length blobs already do); the
    per-call load documents that assumption rather than hiding it."""
    import pyarrow.parquet as pq
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", field])
    ids = np.asarray(t["doc_id"], dtype=np.int64)
    order = np.argsort(ids)
    return ids[order], np.asarray(t[field], dtype=dtype)[order]


def _field_ops_documents(sf_dir: str, op: str, lo: float = 0.0,
                         queries: Optional[List[dict]] = None
                         ) -> pd.DataFrame:
    """Match-set x stored-field query shaping over each query's full
    disjunctive match set (``_doc_values`` field column):

    - ``op='filter'`` — Solr ``fq=n_chars:[lo TO *]``: the match set is
      restricted by a numeric predicate, BM25 scores UNCHANGED (fq
      never contributes to scoring),
    - ``op='sort'`` — Solr ``sort=n_chars desc``: the match set orders
      by the stored field (doc_id ascending tiebreak), emitting the
      field as an int ``sort_val`` column instead of a score."""
    reader = IndexReader(documents_index(sf_dir))
    ids, vals = _doc_values(sf_dir, "n_chars", np.int64)
    col = "score" if op == "filter" else "sort_val"

    def ranked(q):
        docs, scores = reader.match_scores(q["query"])
        orig = _orig_ids(reader, docs)
        v = vals[np.searchsorted(ids, orig)]
        if op == "filter":
            keep = v >= lo
            orig, v = orig[keep], scores[keep]
        top = np.lexsort((orig, -v))[:q["k"]]
        return {"doc_id": orig[top], col: v[top]}
    return _query_frame(queries or DOC_QUERIES, ranked, cols=(col,))


def bm25_filter_query_documents(sf_dir: str, lo: int = 300
                                ) -> pd.DataFrame:
    """Solr fq= filter query: n_chars >= lo restricts the match set;
    scores stay pure BM25."""
    return _field_ops_documents(sf_dir, "filter", lo=lo)


def match_sort_by_field_documents(sf_dir: str) -> pd.DataFrame:
    """Solr sort=n_chars desc over each query's disjunctive match
    set."""
    return _field_ops_documents(sf_dir, "sort")


def bm25_function_boost_documents(sf_dir: str,
                                  queries: Optional[List[dict]] = None
                                  ) -> pd.DataFrame:
    """Top-k under a multiplicative function-query boost
    (``score * (1 + ln(1 + n_chars/1000))``) — Solr's ``boost=`` /
    ``bf=`` relevance tuning; columns match the SQL oracle.

    Ranking needs the FULL match set (a factor can promote a low-BM25
    doc into the top-k; top-k-then-boost would be wrong).  The factor
    column is ``_doc_values`` (see its scale note).
    ``np.log(1.0 + x)`` (not ``log1p``) matches DuckDB's ``ln(1+x)``
    bit-for-bit so the 6dp oracle rounding never straddles."""
    reader = IndexReader(documents_index(sf_dir))
    ids, vals = _doc_values(sf_dir, "n_chars", np.float64)
    factor = 1.0 + np.log(1.0 + vals / 1000.0)

    def ranked(q):
        docs, scores = reader.match_scores(q["query"])
        orig = _orig_ids(reader, docs)
        boosted = scores * factor[np.searchsorted(ids, orig)]
        top = np.lexsort((orig, -boosted))[:q["k"]]
        return {"doc_id": orig[top], "score": boosted[top]}
    return _query_frame(queries or DOC_QUERIES, ranked)


def documents_index_pos(sf_dir: str) -> str:
    """Positional variant of the documents index (phrase queries)."""
    out = _cache_dir(sf_dir, "docidx3-pos")
    if not os.path.exists(os.path.join(out, "stats.json")):
        from ..index.build_rows import build_index_rows
        build_index_rows(os.path.join(sf_dir, "documents.parquet"), out,
                         text_col="text", key_col="doc_id",
                         tokenizer="simple", docs_per_partition=512,
                         num_shards=4, positions=True)
    return out


def phrase_topk_documents(sf_dir: str, phrase: str = "merge sort",
                          k: int = 10) -> pd.DataFrame:
    """Exact-phrase top-k over documents (positional index); columns
    (rank, doc_id, score) match the SQL oracle (regex-adjacency phrase
    match + BM25 over the phrase's distinct terms)."""
    reader = IndexReader(documents_index_pos(sf_dir))
    hits = reader.phrase_topk(phrase, k)
    return pd.DataFrame({
        "rank": np.arange(1, len(hits) + 1, dtype=np.int64),
        "doc_id": _orig_ids(reader, [h[0] for h in hits]),
        "score": np.round([h[1] for h in hits], 6).astype(np.float64),
    })


def term_df_top(sf_dir: str, top_n: int = 20) -> pd.DataFrame:
    """Top-N terms by document frequency, read from the built index's
    segment dictionary (verifies the groupby-term aggregation)."""
    idx = documents_index(sf_dir)
    import pyarrow.parquet as pq
    seg_dir = os.path.join(idx, "segments")
    parts = [pq.read_table(os.path.join(seg_dir, f), columns=["term", "df"])
             for f in sorted(os.listdir(seg_dir)) if f.endswith(".parquet")]
    t = pa.concat_tables(parts).to_pandas()
    t = t.sort_values(["df", "term"], ascending=[False, True]).head(top_n)
    t["df"] = t["df"].astype(np.int64)
    return t.reset_index(drop=True)


def snippets_documents(sf_dir: str, term: str = "merge",
                       width: int = 2) -> pd.DataFrame:
    """Term-in-context snippets (Solr highlighting analog): for every doc
    matching ``term``, the window of ``width`` tokens either side of its
    FIRST occurrence — position from the POSITIONAL INDEX, text window
    cut from the source table.

    Scale shape: the per-doc first-position table broadcasts once
    (``ray.put``); each documents block joins it vectorized
    (``pc.index_in``), tokenizes only MATCHED rows and slices the
    window — the index supplies positions so no block ever scans for
    the term itself.  Output: doc_id, first_pos (0-based token index),
    snippet."""
    from ..tokenize.tokenizer import simple_tokenize
    idx = documents_index_pos(sf_dir)
    reader = IndexReader(idx)
    docs, tfs, flat, starts = reader.positions(term)
    if docs.size:  # deleted docs get no snippets (match every topk path)
        alive = reader.alive_mask(docs)
        first_all = flat[starts]
        docs, first_all = docs[alive], first_all[alive]
    if docs.size == 0:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "first_pos": pd.Series([], dtype=np.int64),
                             "snippet": pd.Series([], dtype=object)})
    pos_ref = ray.put(pa.table({
        "doc_id": pa.array(_orig_ids(reader, docs), pa.int64()),
        "first_pos": pa.array(first_all, pa.int64())}))

    def cut(t: pa.Table) -> pa.Table:
        lk = ray.get(pos_ref)
        sel = pc.index_in(t["doc_id"], value_set=lk["doc_id"])
        mask = pc.is_valid(sel)
        t = t.filter(mask)
        pos = pc.take(lk["first_pos"], sel.filter(mask)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        snips = []
        for txt, p in zip(t["text"].to_pylist(), pos):
            toks = simple_tokenize(txt or "")
            snips.append(" ".join(toks[max(0, p - width):p + width + 1]))
        return pa.table({"doc_id": t["doc_id"],
                         "first_pos": pa.array(pos, pa.int64()),
                         "snippet": pa.array(snips, pa.string())})

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"], override_num_blocks=8)
    out = ds.map_batches(cut, batch_format="pyarrow").to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def spellcheck_documents(sf_dir: str,
                         words=("qery", "streem", "sart", "bach"),
                         max_edits: int = 2, n: int = 5
                         ) -> pd.DataFrame:
    """Spellcheck suggestions (Solr SpellCheckComponent analog) for a
    set of misspelled query words: top-n vocabulary terms by (edit
    distance, df desc, term) — fully integer-keyed ordering, no float
    tie risk.  Expansion is the batched banded Levenshtein
    (``IndexReader.suggest``)."""
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    rows = {"word": [], "rank": [], "suggestion": [], "dist": [],
            "df": []}
    for w in words:
        for r, (term, dist, df) in enumerate(
                reader.suggest(w, max_edits, n), 1):
            rows["word"].append(w)
            rows["rank"].append(r)
            rows["suggestion"].append(term)
            rows["dist"].append(dist)
            rows["df"].append(df)
    return pd.DataFrame({
        "word": pd.Series(rows["word"], dtype=object),
        "rank": pd.Series(rows["rank"], dtype=np.int64),
        "suggestion": pd.Series(rows["suggestion"], dtype=object),
        "dist": pd.Series(rows["dist"], dtype=np.int64),
        "df": pd.Series(rows["df"], dtype=np.int64)})


def _facet_over_match_set(sf_dir: str, query: str,
                          fields: List[str],
                          fq: Optional[tuple] = None) -> pd.DataFrame:
    """Shared facet core: counts per value-tuple of ``fields`` over the
    query's disjunctive match set.  ONE definition of the
    broadcast-match-set + partial-aggregate shape (facet.field and
    facet.pivot differ only in group-key arity).  ``fq=(field, value)``
    additionally applies a filter query before counting (the
    multi-select path passes it for untagged facets only)."""
    from ..pipelines.relational import partial_groupby_sum
    matched = _match_doc_ids(IndexReader(documents_index(sf_dir)), query)
    if not matched.size:
        return pd.DataFrame({**{f: pd.Series([], dtype=object)
                                for f in fields},
                             "n": pd.Series([], dtype=np.int64)})
    matched_ref = ray.put(pa.array(matched))

    def keep_matched(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["doc_id"], value_set=ray.get(matched_ref))
        if fq is not None:
            keep = pc.and_(keep, pc.equal(t[fq[0]], fq[1]))
        return t.filter(keep)

    cols = ["doc_id"] + fields
    if fq is not None and fq[0] not in cols:
        cols.append(fq[0])
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=cols,
                         override_num_blocks=8)
    out = partial_groupby_sum(ds, fields, [],
                              prep=keep_matched).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    return out[fields + ["n"]].sort_values(fields).reset_index(drop=True)


def facet_pivot_documents(sf_dir: str, query: str = "dup stream",
                          f1: str = "lang", f2: str = "source"
                          ) -> pd.DataFrame:
    """Two-level pivot facet (Solr ``facet.pivot=f1,f2`` analog): the
    pivot only widens the group key, never the exchange."""
    return _facet_over_match_set(sf_dir, query, [f1, f2])


def bm25_grouped_topk(sf_dir: str, query: str = "merge sort",
                      group_field: str = "lang", per_group: int = 3
                      ) -> pd.DataFrame:
    """Result grouping (Solr ``group.field`` / collapse analog): the
    top ``per_group`` BM25 hits WITHIN each value of a metadata field.
    Scores identical to plain topk; group attachment is a bounded
    driver join over the match set (a 100-TB variant pushes group-aware
    heaps into the serving slices)."""
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    hits = reader.topk(query, reader.n_docs)     # full matched ranking
    if not hits:
        return pd.DataFrame({group_field: pd.Series([], dtype=object),
                             "grank": pd.Series([], dtype=np.int64),
                             "doc_id": pd.Series([], dtype=np.int64),
                             "score": pd.Series([], dtype=np.float64)})
    keys = _orig_ids(reader, [h[0] for h in hits])
    meta = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", group_field],
                           override_num_blocks=8) \
        .map_batches(_keep_matched_fn(np.unique(keys)),
                     batch_format="pyarrow").to_pandas()
    df = pd.DataFrame({"doc_id": keys,
                       "score": [round(s, 6) for _, s in hits]})
    df = df.merge(meta, on="doc_id", how="inner")
    # hits are already (score desc, engine-docID asc); re-sort by the
    # oracle's visible tie-break (score desc, doc_id asc) in case
    # engine docIDs and doc_keys order ever diverge
    df = df.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort")
    df["grank"] = df.groupby(group_field, sort=False).cumcount() + 1
    out = df[df["grank"] <= per_group]
    out = out[[group_field, "grank", "doc_id", "score"]].copy()
    out["grank"] = out["grank"].astype(np.int64)
    return out.sort_values([group_field, "grank"]).reset_index(drop=True)


def collapse_expand_topk(sf_dir: str, query: str = "merge sort",
                         group_field: str = "source", k: int = 5,
                         expand_rows: int = 2) -> pd.DataFrame:
    """Solr field collapsing + expand second phase (r04 VERDICT #4;
    CollapsingQParserPlugin ``{!collapse field=...}`` + the
    ExpandComponent): the MAIN list keeps only the best-scoring hit per
    ``group_field`` value, re-ranked among themselves (top ``k``
    heads); the EXPAND section returns, for each surviving head's
    group, the next ``expand_rows`` hits of that group in score order.

    Output rows: (kind 'head'|'expand', group, rnk, doc_id, score) —
    head rnk = position in the collapsed main list, expand rnk =
    position within its group's expand list.  Both sides of the oracle
    rank by (ROUNDED score desc, doc_id) so sub-1e-6 summation-order
    flips cannot reorder (the bm25_grouped_topk rule)."""
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    hits = reader.topk(query, reader.n_docs)
    empty = pd.DataFrame({"kind": pd.Series([], dtype=object),
                          "grp": pd.Series([], dtype=object),
                          "rnk": pd.Series([], dtype=np.int64),
                          "doc_id": pd.Series([], dtype=np.int64),
                          "score": pd.Series([], dtype=np.float64)})
    if not hits:
        return empty
    keys = _orig_ids(reader, [h[0] for h in hits])
    meta = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", group_field],
                           override_num_blocks=8) \
        .map_batches(_keep_matched_fn(np.unique(keys)),
                     batch_format="pyarrow").to_pandas()
    df = pd.DataFrame({"doc_id": keys,
                       "score": [round(s, 6) for _, s in hits]})
    df = df.merge(meta, on="doc_id", how="inner")
    df = df.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort")
    df["grank"] = df.groupby(group_field, sort=False).cumcount() + 1
    heads = df[df["grank"] == 1].copy()     # already in score order
    heads["rnk"] = np.arange(1, len(heads) + 1, dtype=np.int64)
    heads = heads[heads["rnk"] <= k]
    exp = df[df[group_field].isin(heads[group_field])
             & df["grank"].between(2, 1 + expand_rows)].copy()
    exp["rnk"] = (exp["grank"] - 1).astype(np.int64)
    heads["kind"] = "head"
    exp["kind"] = "expand"
    out = pd.concat([heads, exp], ignore_index=True)
    out = out.rename(columns={group_field: "grp"})
    out = out[["kind", "grp", "rnk", "doc_id", "score"]]
    out["rnk"] = out["rnk"].astype(np.int64)
    return out.sort_values(["kind", "grp", "rnk"]).reset_index(drop=True)


def bm25f_title_phrase(sf_dir: str, phrase: str = "key vector",
                       k: int = 10) -> pd.DataFrame:
    """Field-scoped exact phrase (Solr ``title:"..."`` analog): the
    phrase must lie entirely inside the TITLE band (first
    ``BM25F_TITLE_TOKENS`` positions) — one vectorized key filter on
    the full-text positional phrase machinery
    (``IndexReader.phrase_topk(pos_range=...)``), no per-field
    positional index.  Scores are standard full-text BM25 over the
    phrase's distinct terms (same contract as ``phrase_topk``)."""
    idx = documents_index_pos(sf_dir)
    reader = IndexReader(idx)
    hits = reader.phrase_topk(phrase, k,
                              pos_range=(0, BM25F_TITLE_TOKENS))
    return pd.DataFrame({
        "rank": pd.Series(np.arange(1, len(hits) + 1), dtype=np.int64),
        "doc_id": _orig_ids(reader, [h[0] for h in hits]),
        "score": pd.Series([round(s, 6) for _, s in hits],
                           dtype=np.float64)})


def bm25f_field_snippets(sf_dir: str, term: str = "merge",
                         width: int = 2) -> pd.DataFrame:
    """Field-aware highlighting for the BM25F family (Solr highlights
    per field; round-3 lead).  For each doc containing ``term``, one
    row per FIELD where it occurs: the first occurrence's 0-based
    position WITHIN that field and the +-``width`` token window clamped
    to the field's own tokens.

    No positional field indexes needed: the family's fields are
    derived slices of the full-text token list (title = first N
    tokens), so field positions come from the FULL-TEXT positional
    index by band arithmetic — title hits are positions < N, body hits
    are positions >= N shifted by -N.  One more payoff of
    derived-from-input field boundaries."""
    from ..tokenize.tokenizer import simple_tokenize
    N = BM25F_TITLE_TOKENS
    idx = documents_index_pos(sf_dir)
    reader = IndexReader(idx)
    docs, tfs, flat, starts = reader.positions(term)
    rows = {"doc_id": [], "field": [], "first_pos": []}
    if docs.size:
        alive = reader.alive_mask(docs)
        keys = reader.doc_keys(docs)
        ends = np.append(starts[1:], flat.size)
        for di in np.flatnonzero(alive):
            ps = flat[starts[di]:ends[di]]
            did = int(keys[di])
            t_hits = ps[ps < N]
            if t_hits.size:
                rows["doc_id"].append(did)
                rows["field"].append("title")
                rows["first_pos"].append(int(t_hits[0]))
            b_hits = ps[ps >= N]
            if b_hits.size:
                rows["doc_id"].append(did)
                rows["field"].append("body")
                rows["first_pos"].append(int(b_hits[0]) - N)
    if not rows["doc_id"]:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "field": pd.Series([], dtype=object),
                             "first_pos": pd.Series([], dtype=np.int64),
                             "snippet": pd.Series([], dtype=object)})
    lk = pa.table({
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "field": pa.array(rows["field"], pa.string()),
        "first_pos": pa.array(rows["first_pos"], pa.int64())})
    lk_ref = ray.put(lk)

    def cut(t: pa.Table) -> pa.Table:
        hit = ray.get(lk_ref)
        sel = pc.index_in(t["doc_id"], value_set=pc.unique(
            hit["doc_id"]))
        t = t.filter(pc.is_valid(sel))
        toks_by_id = {int(d): simple_tokenize(x or "")
                      for d, x in zip(t["doc_id"].to_pylist(),
                                      t["text"].to_pylist())}
        m = pc.is_in(hit["doc_id"], value_set=t["doc_id"])
        h = hit.filter(m)
        snips = []
        for did, fld, p in zip(h["doc_id"].to_pylist(),
                               h["field"].to_pylist(),
                               h["first_pos"].to_pylist()):
            toks = toks_by_id[int(did)]
            ft = toks[:N] if fld == "title" else toks[N:]
            snips.append(" ".join(ft[max(0, p - width):p + width + 1]))
        return h.append_column("snippet", pa.array(snips, pa.string()))

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"],
                         override_num_blocks=8)
    out = ds.map_batches(cut, batch_format="pyarrow").to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["first_pos"] = out["first_pos"].astype(np.int64)
    return out.sort_values(["doc_id", "field"]).reset_index(drop=True)


# exclusion (MUST_NOT) query set: qid 1 excludes a rare term, qid 2 two
# hot terms, qid 3 a corpus-absent term (exclusion is a no-op there)
NOT_QUERIES = [
    {"qid": 1, "query": "merge sort", "exclude": "dup", "k": 10},
    {"qid": 2, "query": "window filter", "exclude": "stream hash", "k": 10},
    {"qid": 3, "query": "dup stream", "exclude": "zzzabsent", "k": 10},
]


# BM25F derived fields: "title" = the doc's first N tokens, "body" = the
# rest.  Derived deterministically from text alone so the SQL oracle can
# slice the same token list (toks[1:N] / toks[N+1:]).
BM25F_TITLE_TOKENS = 8
# boundary after the Nth token on the LOWERED text: both [a-z0-9]+ runs
# and the separators they trail are consumed, so body starts exactly at
# token N+1 and re-tokenizing the two slices reproduces the token split
_TITLE_SPLIT_RE = re.compile(
    r"(?:[^a-z0-9]*[a-z0-9]+){0,%d}" % BM25F_TITLE_TOKENS)


def _split_title_body(t: pa.Table) -> pa.Table:
    """Derive title/body/doc_key columns for the per-field index builds.

    Lowercasing is Python ``str.lower()`` — the SAME casing the frozen
    ``simple_tokenize`` invariant uses (CLAUDE.md).  Arrow's
    ``utf8_lower`` applies simple case mapping and diverges on full-
    casing characters (e.g. 'İ' -> 'i̇' in Python yields an extra 'i'
    token), which would shift the split point off the token-list slices
    the SQL oracle takes.  The split needs a per-row regex match anyway
    (no slice-by-row kernel) — same cost class as the tokenizer pass the
    index build itself runs."""
    lower = [(s or "").lower() for s in t["text"].to_pylist()]
    ends = [_TITLE_SPLIT_RE.match(s).end() for s in lower]
    return pa.table({
        "doc_id": t["doc_id"],
        "doc_key": pc.utf8_lpad(pc.cast(t["doc_id"], pa.string()),
                                width=12, padding="0"),
        "title": pa.array([s[:e] for s, e in zip(lower, ends)], pa.string()),
        "body": pa.array([s[e:] for s, e in zip(lower, ends)], pa.string()),
    })


def _derive_documents(sf_dir: str, tag: str, fn) -> List[str]:
    """Materialize ``fn`` over documents.parquet: one file per source
    row-range partition (``doc_id``/``text`` columns in, ~1024 rows,
    planned from metadata) under the ``tag`` cache dir, written in
    parallel Ray tasks with temp+replace — deterministic bytes,
    resumable per part.  Returns the files, sorted."""
    from ..index.build_rows import plan_row_partitions
    from ..state.manifest import atomic_write_table
    out_dir = _cache_dir(sf_dir, tag)
    parts = plan_row_partitions([os.path.join(sf_dir, "documents.parquet")],
                                docs_per_partition=1024)
    paths = [os.path.join(out_dir, f"split-{int(p['pid']):05d}.parquet")
             for p in parts]
    todo = [p | {"dst": d} for p, d in zip(parts, paths)
            if not os.path.exists(d)]

    def write_part(batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as _pq
        pa.set_cpu_count(1)
        for _, p in batch.iterrows():
            t = _pq.ParquetFile(p["path"]).read_row_groups(
                list(p["row_groups"]), columns=["doc_id", "text"])
            atomic_write_table(p["dst"], fn(t), row_group_size=4096)
        return pd.DataFrame({"pid": batch["pid"]})

    if todo:
        rd.from_items(todo, override_num_blocks=len(todo)).map_batches(
            write_part, batch_format="pandas", batch_size=1).materialize()
    return paths


def _title_body_text(t: pa.Table) -> pa.Table:
    return _split_title_body(t).append_column("text", t["text"])


def bm25f_split_parquet(sf_dir: str) -> List[str]:
    """The title/body/text split of documents.parquet, materialized once
    (``_derive_documents``).  The split is the field family's INPUT:
    both field builds and every later family delta read it, so it's
    derived once, not per field.  Returns its files, sorted."""
    return _derive_documents(sf_dir, "docidxf3-split", _title_body_text)


def documents_bm25f_indexes(sf_dir: str) -> dict:
    """Build (or reuse) the per-field BM25F indexes over documents.parquet.

    Two single-field indexes over ONE materialized split parquet via the
    shuffle-free row-range build: pids come from the split's row ranges
    and ranks from row order — both input-derived and field-independent,
    so the scorer shares one dense doc space across fields.  Change
    detection hashes the FULL ``text`` column (``change_col``), which is
    what makes :func:`..index.bm25f.delta_reindex_fields` keep the
    family aligned through per-doc deltas (r03 VERDICT #5)."""
    dirs = {"title": _cache_dir(sf_dir, "docidxf3-title"),
            "body": _cache_dir(sf_dir, "docidxf3-body")}
    if all(os.path.exists(os.path.join(d, "stats.json"))
           for d in dirs.values()):
        return dirs
    paths = bm25f_split_parquet(sf_dir)
    for field, out in dirs.items():
        if os.path.exists(os.path.join(out, "stats.json")):
            continue
        if os.path.isdir(out):
            shutil.rmtree(out)
        build_index_rows(paths, out, text_col=field, key_col="doc_id",
                         tokenizer="simple", docs_per_partition=1024,
                         num_shards=4, change_col="text")
    return dirs


def bm25f_topk_documents(sf_dir: str,
                         queries: Optional[List[dict]] = None,
                         weights: Optional[dict] = None
                         ) -> pd.DataFrame:
    """BM25F top-k over the derived title/body fields (title weight 2x
    by default; ``weights`` overrides per query run — Solr edismax
    ``qf=title^4 body^0.5`` query-time field boosting).

    Same query set / output contract as ``bm25_topk_documents``; scored
    by one ``index.bm25f.BM25FReader`` over the two field indexes."""
    from ..index.bm25f import BM25FReader
    reader = BM25FReader(documents_bm25f_indexes(sf_dir), weights=weights)
    return _query_set(reader, queries or DOC_QUERIES,
                      lambda q: reader.topk(q["query"], q["k"]))


# boosted query set (Lucene/Solr term^boost syntax; boosts chosen to
# genuinely reorder results vs the unboosted ranking)
BOOSTED_QUERIES = [
    # k=6: docs 124/359 (sf0.01) carry identical merge/sort tf+dl and
    # tie at ANY boost at ranks 7-8 — sub-1e-6 summation order flips
    # between engine and DuckDB, so the boosted query stops above the tie
    {"qid": 1, "query": "merge^2 sort", "k": 6},
    {"qid": 2, "query": "customer^0.5", "k": 10},
    {"qid": 3, "query": "window^3 filter stream^0.25", "k": 10},
    {"qid": 4, "query": "dup^4 stream", "k": 10},
]


def bm25_boosted_topk_documents(sf_dir: str,
                                queries: Optional[List[dict]] = None
                                ) -> pd.DataFrame:
    """Per-term boosted BM25 (IndexReader.topk_boosted).  Columns
    (qid, rank, doc_id, score) match the SQL oracle."""
    reader = IndexReader(documents_index(sf_dir))
    return _query_set(reader, queries or BOOSTED_QUERIES,
                      lambda q: reader.topk_boosted(q["query"], q["k"]))


def more_like_this_documents(sf_dir: str, seed_doc_ids=(3, 17, 42),
                             n_terms: int = 10, k: int = 10
                             ) -> pd.DataFrame:
    """More-like-this (Lucene/Solr MLT analog): for each seed doc, its
    ``n_terms`` highest tf*idf terms (ties broken ascending term) form a
    disjunctive BM25 query; the seed itself is excluded from the hits.

    The seed's term vector comes from tokenizing its source text (no
    forward index on disk — same as Solr MLT over a non-stored field);
    idf comes from the index, so term selection is
    SQL-oracle-reproducible.  Columns (seed_id, rank, doc_id, score)."""
    import pyarrow.parquet as pq_
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    from ..index.bm25 import idf as _idf
    from ..tokenize.tokenizer import simple_tokenize
    # read ONLY the seed rows (filter pushdown) — the full text column
    # is corpus-sized and no other row is needed (r03 review)
    src = pq_.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"],
                         filters=[("doc_id", "in", list(seed_doc_ids))])
    texts = {d.as_py(): t.as_py()
             for d, t in zip(src["doc_id"], src["text"])}
    rows = {"seed_id": [], "rank": [], "doc_id": [], "score": []}
    for seed in seed_doc_ids:
        if seed not in texts:
            continue  # absent seed: no rows (matches the SQL oracle)
        toks = simple_tokenize(texts[seed])
        tf: dict = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        scored = []
        for t, f in tf.items():
            e = reader.term_entry(t)
            if e is None:
                continue
            scored.append((-f * _idf(reader.n_docs, e["df"]), t))
        terms = [t for _, t in sorted(scored)[:n_terms]]
        hits = reader._topk_terms(terms, k + 1)
        r = 0
        for (_, score), did in zip(hits, _orig_ids(reader,
                                                   [h[0] for h in hits])):
            if did == seed:
                continue
            r += 1
            if r > k:
                break
            rows["seed_id"].append(seed)
            rows["rank"].append(r)
            rows["doc_id"].append(did)
            rows["score"].append(round(score, 6))
    return pd.DataFrame({
        "seed_id": pd.Series(rows["seed_id"], dtype=np.int64),
        "rank": pd.Series(rows["rank"], dtype=np.int64),
        "doc_id": pd.Series(rows["doc_id"], dtype=np.int64),
        "score": pd.Series(rows["score"], dtype=np.float64)})


# fuzzy query set — misspellings within 1 edit of real vocabulary
FUZZY_QUERIES = [
    {"qid": 1, "word": "mergee", "k": 10},
    {"qid": 2, "word": "custmer", "k": 10},
    # k=7: same 3-way 6dp tie as the st* prefix expansion at ranks 8-10
    {"qid": 3, "word": "strem", "k": 7},
    {"qid": 4, "word": "zzzzzz", "k": 10},
]


def bm25_fuzzy_topk_documents(sf_dir: str,
                              queries: Optional[List[dict]] = None,
                              max_edits: int = 1,
                              max_terms: int = 50) -> pd.DataFrame:
    """Fuzzy BM25 (IndexReader.topk_fuzzy; Lucene ``word~1`` analog).
    Columns (qid, rank, doc_id, score) match the SQL oracle."""
    reader = IndexReader(documents_index(sf_dir))
    return _query_set(reader, queries or FUZZY_QUERIES,
                      lambda q: reader.topk_fuzzy(q["word"], q["k"],
                                                  max_edits, max_terms))


# prefix (wildcard) query set — prefixes chosen to expand to several
# terms ('me', 'st'), one term, and none
PREFIX_QUERIES = [
    {"qid": 1, "prefix": "me", "k": 10},
    # k=7: three docs tie at 6dp at ranks 8-10 for the st* expansion;
    # sub-1e-6 order flips between engine and DuckDB summation
    {"qid": 2, "prefix": "st", "k": 7},
    {"qid": 3, "prefix": "customer", "k": 10},
    {"qid": 4, "prefix": "zzz", "k": 10},
]


def bm25_prefix_topk_documents(sf_dir: str,
                               queries: Optional[List[dict]] = None,
                               max_terms: int = 50) -> pd.DataFrame:
    """Prefix-expansion BM25 (IndexReader.topk_prefix; Lucene
    PrefixQuery / Solr ``prefix*`` analog).  Columns
    (qid, rank, doc_id, score) match the SQL oracle."""
    reader = IndexReader(documents_index(sf_dir))
    return _query_set(reader, queries or PREFIX_QUERIES,
                      lambda q: reader.topk_prefix(q["prefix"], q["k"],
                                                   max_terms))


def bm25_not_topk_documents(sf_dir: str,
                            queries: Optional[List[dict]] = None
                            ) -> pd.DataFrame:
    """Disjunctive BM25 minus docs matching any exclude term
    (IndexReader.topk_excluding; Solr ``-term`` analog).  Columns
    (qid, rank, doc_id, score) match the SQL oracle."""
    reader = IndexReader(documents_index(sf_dir))
    return _query_set(reader, queries or NOT_QUERIES,
                      lambda q: reader.topk_excluding(q["query"],
                                                      q["exclude"], q["k"]))


def facet_counts_documents(sf_dir: str, query: str = "dup stream",
                           field: str = "lang") -> pd.DataFrame:
    """Facet counts over a query's match set (Solr facet.field analog —
    the search feature JesterJ's Solr/OpenSearch sink delegates;
    reference SURVEY.md §2.2): docs matching ANY query term (the
    disjunctive match set from the INDEX's postings), counted per value
    of a metadata column.

    Scale shape (shared core :func:`_facet_over_match_set`): the
    match-set docIDs broadcast once (``ray.put``) and each documents
    block filters with a vectorized ``is_in`` then collapses to
    <= |facet values| rows (partial_groupby_sum) — no shuffle; assumes
    the match-id set fits the object store (true for any query a user
    would facet; a 100-TB-match facet would instead attach match flags
    during index scoring)."""
    return _facet_over_match_set(sf_dir, query, [field])


def term_postings(sf_dir: str, term: str = "merge") -> pd.DataFrame:
    """The decoded posting list of one term: (doc_id, tf) — direct check
    of posting construction, delta+varbyte codec and the run merge."""
    reader = IndexReader(documents_index(sf_dir))
    docs, tfs = reader.postings(term)
    orig = _orig_ids(reader, docs)
    order = np.argsort(orig)
    return pd.DataFrame({"doc_id": orig[order], "tf": tfs[order].astype(np.int64)})


def corpus_index_pipeline(n_rows: int = 500, *, out_dir: Optional[str] = None,
                          num_partitions: int = 8, num_shards: int = 4,
                          queries: Optional[List[dict]] = None) -> pd.DataFrame:
    """The code-corpus flagship: synthesize the input_hint corpus, dedup
    it at ingest (sha256 keep-first by ``doc_key`` = repo:path:commit,
    one parquet file per sha group, ``<out>-input``), build the
    code-tokenizer index over the survivors, answer the reference query
    set.  Returns (qid, rank, doc_key, score)."""
    from ..sources.corpus import REFERENCE_QUERIES, generate_corpus
    from ..stages.dedup import exact_dedup_parquet
    out = out_dir or f"/tmp/jjray_cache/corpus-v4-{n_rows}"
    if not os.path.exists(os.path.join(out, "stats.json")):
        t = generate_corpus(n_rows, seed=42)
        t = t.append_column("doc_key", pc.binary_join_element_wise(
            t["repo"], t["path"], t["commit"], ":"))
        paths = exact_dedup_parquet(rd.from_arrow(t), out + "-input",
                                    field="content", order_col="doc_key",
                                    num_groups=num_partitions)
        build_index_rows(paths, out, text_col="content", key_col="doc_key",
                         tokenizer="code", num_shards=num_shards)
    hits = QueryActor(out)(pd.DataFrame(queries or REFERENCE_QUERIES))
    return hits.sort_values(["qid", "rank"]).reset_index(drop=True)


# ---- Solr-parity late components: terms / stats / range facets / cursor ----

from ..stages.gopher import _away6  # ONE half-away rounding definition


def _keep_matched_fn(matched: np.ndarray):
    """Broadcast-match-set filter factory: ``ray.put`` the doc-id set
    once, return the per-batch ``is_in`` probe (the shape every
    match-set component shares)."""
    matched_ref = ray.put(pa.array(matched))

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["doc_id"],
                                 value_set=ray.get(matched_ref)))
    return keep


def _match_doc_ids(reader: IndexReader, query: str) -> np.ndarray:
    """Disjunctive match set as ORIGINAL doc ids (alive only) — the
    shared first phase of stats/range-facet components."""
    from ..index.bm25 import dedup_keep_order
    parts = []
    for t in dedup_keep_order(reader.tokenizer(query)):
        docs, _ = reader.postings(t)
        docs = docs[reader.alive_mask(docs)]
        if docs.size:
            parts.append(_orig_ids(reader, docs))
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def terms_component(sf_dir: str, prefix: str = "s", limit: int = 30
                    ) -> pd.DataFrame:
    """Solr TermsComponent (``terms.prefix`` + ``terms.limit``): index
    terms starting with ``prefix`` with their document frequencies,
    ordered df desc then term.  Goes through ``IndexReader`` (r05
    self-review fix: a raw ``os.listdir`` of segments/ bypassed the
    epoch pin, so a concurrent writer cycle could over-count df from
    an unpublished generation or crash mid-compaction instead of
    raising ``IndexChangedError``); vocab-bounded, never
    corpus-bounded.  df is Lucene docFreq (tombstones still count)."""
    idx = documents_index(sf_dir)
    agg = IndexReader(idx).prefix_term_dfs(prefix)
    t = pd.DataFrame({"term": list(agg.keys()),
                      "df": np.asarray(list(agg.values()),
                                       dtype=np.int64)})
    t = t.sort_values(["df", "term"], ascending=[False, True],
                      kind="mergesort").head(limit)
    return t.reset_index(drop=True)


def stats_component(sf_dir: str, query: str = "merge sort",
                    field: str = "n_chars") -> pd.DataFrame:
    """Solr StatsComponent (``stats.field`` over a query's match set):
    count/min/max/sum/mean/stddev(sample) of a numeric field across
    the disjunctive matches.  The match set broadcasts once
    (``ray.put``); the stats fold is Ray Data's distributed aggregate
    over a pruned two-column read."""
    from ray.data.aggregate import Count, Max, Mean, Min, Std, Sum
    idx = documents_index(sf_dir)
    keep = _keep_matched_fn(_match_doc_ids(IndexReader(idx), query))
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", field],
                         override_num_blocks=8) \
        .map_batches(keep, batch_format="pyarrow")
    agg = ds.aggregate(Count(), Min(field), Max(field), Sum(field),
                       Mean(field), Std(field, ddof=1))
    if not agg or not agg.get("count()"):
        # SQL semantics of an empty match set: n=0, aggregates NULL
        return pd.DataFrame({
            "n": pd.Series([0], dtype=np.int64),
            "min_v": pd.Series([np.nan]), "max_v": pd.Series([np.nan]),
            "sum_v": pd.Series([np.nan]), "mean_v": pd.Series([np.nan]),
            "stddev_v": pd.Series([np.nan])})
    return pd.DataFrame({
        "n": pd.Series([int(agg["count()"])], dtype=np.int64),
        "min_v": pd.Series([int(agg[f"min({field})"])], dtype=np.int64),
        "max_v": pd.Series([int(agg[f"max({field})"])], dtype=np.int64),
        "sum_v": pd.Series([int(agg[f"sum({field})"])], dtype=np.int64),
        "mean_v": pd.Series(_away6([agg[f"mean({field})"]]),
                            dtype=np.float64),
        "stddev_v": pd.Series(_away6([agg[f"std({field})"]]),
                              dtype=np.float64)})


def range_facets(sf_dir: str, query: str = "dup stream",
                 field: str = "n_chars", start: int = 0, end: int = 600,
                 gap: int = 50) -> pd.DataFrame:
    """Solr ``facet.range``: bucket counts of a numeric field over the
    query's match set, every bucket emitted (zeros included) —
    distributed partial bucket counts + one tiny (bucket, n) groupby,
    the facet-component exchange shape."""
    idx = documents_index(sf_dir)
    matched = _match_doc_ids(IndexReader(idx), query)
    matched_ref = ray.put(pa.array(matched))
    nb = (end - start) // gap

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["doc_id"],
                              value_set=ray.get(matched_ref)))
        v = t[field].to_numpy(zero_copy_only=False)
        v = v[(v >= start) & (v < end)]
        b = (v - start) // gap
        c = np.bincount(b, minlength=nb).astype(np.int64)
        return pa.table({
            "bucket_start": pa.array(start + np.arange(nb) * gap,
                                     pa.int64()),
            "n": pa.array(c, pa.int64())})

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", field],
                         override_num_blocks=8) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket_start").sum("n")
    out = pd.DataFrame(ds.take_all()).rename(columns={"sum(n)": "n"})
    full = pd.DataFrame({"bucket_start": start + np.arange(nb) * gap})
    out = full.merge(out, on="bucket_start", how="left").fillna(0)
    out["bucket_start"] = out["bucket_start"].astype(np.int64)
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("bucket_start").reset_index(drop=True)


def cursor_pages(sf_dir: str, query: str = "merge sort",
                 page_size: int = 5, pages=(2, 3)) -> pd.DataFrame:
    """Solr cursorMark deep paging: stable total order
    (ROUNDED score desc, doc_id asc — the bm25_grouped_topk tie rule,
    so sub-1e-6 summation-order flips cannot reorder either side),
    pages fetched beyond the first.  Output (page, rnk, doc_id,
    score)."""
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    need = page_size * max(pages)
    hits = reader.topk(query, reader.n_docs)
    if not hits:
        return pd.DataFrame({"page": pd.Series([], dtype=np.int64),
                             "rnk": pd.Series([], dtype=np.int64),
                             "doc_id": pd.Series([], dtype=np.int64),
                             "score": pd.Series([], dtype=np.float64)})
    df = pd.DataFrame({"doc_id": _orig_ids(reader, [h[0] for h in hits]),
                       "score": _away6([s for _, s in hits])})
    df = df.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort").head(need)
    df["rnk"] = np.arange(1, len(df) + 1, dtype=np.int64)
    out = []
    for p in pages:
        page = df[(df["rnk"] > (p - 1) * page_size)
                  & (df["rnk"] <= p * page_size)].copy()
        page["page"] = np.int64(p)
        out.append(page)
    res = pd.concat(out, ignore_index=True)
    return res[["page", "rnk", "doc_id", "score"]]


def facet_stats(sf_dir: str, query: str = "dup stream",
                facet_field: str = "lang", stat_field: str = "n_chars"
                ) -> pd.DataFrame:
    """Solr JSON Facet API nested aggregation (``json.facet`` with a
    terms facet carrying sub-aggregations): per facet-field value over
    the query's match set, the doc count plus sum/mean of a numeric
    field.  Same shuffle-free partial-aggregate exchange as
    ``_facet_over_match_set`` — the sub-stats only widen each partial
    row, never the row count."""
    from ..pipelines.relational import partial_groupby_sum
    idx = documents_index(sf_dir)
    keep = _keep_matched_fn(_match_doc_ids(IndexReader(idx), query))
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", facet_field, stat_field],
                         override_num_blocks=8)
    out = partial_groupby_sum(ds, [facet_field], [stat_field],
                              prep=keep).to_pandas()
    out = out.rename(columns={f"{stat_field}_sum": "sum_v"})
    out["n"] = out["n"].astype(np.int64)
    out["sum_v"] = out["sum_v"].astype(np.int64)
    out["mean_v"] = _away6(out["sum_v"] / out["n"])
    return out[[facet_field, "n", "sum_v", "mean_v"]] \
        .sort_values(facet_field).reset_index(drop=True)


def phrase_slop_topk_documents(sf_dir: str, phrase: str = "merge sort",
                               slop: int = 2, k: int = 10
                               ) -> pd.DataFrame:
    """Sloppy-phrase top-k (Lucene ``"a b"~N`` ordered core) over the
    positional documents index; columns match the SQL oracle
    (positions self-join with gap <= slop+1 + BM25 over the phrase's
    distinct terms)."""
    reader = IndexReader(documents_index_pos(sf_dir))
    hits = reader.phrase_slop_topk(phrase, slop=slop, k=k)
    return pd.DataFrame({
        "rank": np.arange(1, len(hits) + 1, dtype=np.int64),
        "doc_id": _orig_ids(reader, [h[0] for h in hits]),
        "score": np.round([h[1] for h in hits], 6).astype(np.float64),
    })


# frozen demo synonym map over the corpus vocabulary (oracle mirrors)
SYNONYMS = {"merge": ("join",), "sort": ("order",)}


def synonym_topk_documents(sf_dir: str, query: str = "merge sort",
                           k: int = 10) -> pd.DataFrame:
    """Query-time synonym expansion top-k: ranks on the rounded-score
    total order (the grouped-topk tie rule) so sub-1e-6 summation
    flips cannot reorder either side."""
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    hits = reader.topk_synonyms(query, SYNONYMS, reader.n_docs)
    if not hits:
        return pd.DataFrame({"rank": pd.Series([], dtype=np.int64),
                             "doc_id": pd.Series([], dtype=np.int64),
                             "score": pd.Series([], dtype=np.float64)})
    df = pd.DataFrame({"doc_id": _orig_ids(reader, [h[0] for h in hits]),
                       "score": _away6([s for _, s in hits])})
    df = df.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort").head(k)
    df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df[["rank", "doc_id", "score"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# Lucene/Solr block-join: parent documents ranked by their CHILD hits
# (ToParentBlockJoinQuery; Solr {!parent which=...}).  Children here are
# synthesized 8-token paragraphs of each document (the test corpus is
# flat text; real corpora have natural children), indexed as their own
# corpus; a query scores CHILDREN with plain BM25, then aggregates to
# the parent with ScoreMode.Max or ScoreMode.Total before the top-k.
# Reference analog: JesterJ ships child docs via makeChild
# (DocumentImpl.java) and delegates block-join ranking to Solr.

CHILD_TOKENS = 8  # frozen; the SQL oracle mirrors (i-1)//8 grouping


def _make_children(t: pa.Table) -> pa.Table:
    """documents rows -> child rows (doc_key = 12-digit parent doc_id
    ++ 6-digit pidx, text = the paragraph's tokens re-joined).  Token
    re-join is lossless under simple_tokenize ([a-z0-9]+ tokens joined
    by spaces re-tokenize to themselves), so child dl/tf match the
    oracle's (i-1)//8 token grouping exactly."""
    from ..tokenize.tokenizer import simple_tokenize
    out_key, out_text = [], []
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = simple_tokenize(txt or "")
        for p in range(0, len(toks), CHILD_TOKENS):
            out_key.append(f"{int(d):012d}{p // CHILD_TOKENS:06d}")
            out_text.append(" ".join(toks[p:p + CHILD_TOKENS]))
    return pa.table({"doc_key": pa.array(out_key, pa.string()),
                     "text": pa.array(out_text, pa.string())})


def documents_children_index(sf_dir: str) -> str:
    """Build (or reuse) the child-paragraph index over the children
    materialized by ``_derive_documents``.  Empty documents contribute
    no children, so the child corpus' N is exactly the oracle's count
    of (doc_id, pidx) groups."""
    out = _cache_dir(sf_dir, "docidx-child2")
    if not os.path.exists(os.path.join(out, "stats.json")):
        paths = _derive_documents(sf_dir, "docidx-child2-split",
                                  _make_children)
        build_index_rows(paths, out, text_col="text", key_col="doc_key",
                         tokenizer="simple", num_shards=4)
    return out


def block_join_query_set(reader: IndexReader, queries: List[dict],
                         score_mode: str = "max") -> pd.DataFrame:
    """Block-join parent ranking on an open child-index reader.  Per
    query: full child match set (exhaustive match_scores — parent
    aggregation needs every child, a child top-k would be wrong the
    same way a boost-after-topk is), parent key sliced off the child
    doc_key, vectorized per-parent max/sum via sorted-segment reduceat,
    then the parent top-k.  Ties rank by parent doc_id ascending."""
    if score_mode not in ("max", "sum"):
        raise ValueError(f"score_mode {score_mode!r}")
    reduce = np.maximum if score_mode == "max" else np.add

    def ranked(q):
        docs, scores = reader.match_scores(q["query"])
        if docs.size == 0:
            return {"doc_id": (), "score": (), "n_child_hits": ()}
        parents = np.array([int(kk[:12]) for kk in reader.doc_keys(docs)],
                           dtype=np.int64)
        order = np.argsort(parents, kind="mergesort")
        parents, scores = parents[order], scores[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(parents) != 0) + 1])
        nch = np.diff(np.concatenate([starts, [parents.size]]))
        # rank on the 6dp-ROUNDED total order (id-asc ties): sum mode
        # accumulates child scores in docid order vs the oracle's own
        # order, so sub-1e-6 parent ties would flip on the raw floats
        # (the repo's pinned tie rule)
        pscore = np.floor(reduce.reduceat(scores, starts) * 1e6 + 0.5) / 1e6
        pids = parents[starts]
        top = np.lexsort((pids, -pscore))[:q["k"]]
        return {"doc_id": pids[top], "score": pscore[top],
                "n_child_hits": nch[top]}
    return _query_frame(queries, ranked, cols=("score", "n_child_hits"))


def block_join_parent_topk(sf_dir: str, score_mode: str = "max",
                           queries: Optional[List[dict]] = None
                           ) -> pd.DataFrame:
    """Parents ranked by aggregated child BM25 for the fixed query set.
    Columns (qid, rank, doc_id, score, n_child_hits) match the SQL
    oracle."""
    return block_join_query_set(
        IndexReader(documents_children_index(sf_dir)),
        queries or DOC_QUERIES, score_mode)


# ---------------------------------------------------------------------------
# Hybrid search: Reciprocal Rank Fusion of the BM25 list and a kNN
# cosine list (the standard lexical+vector hybrid; Cormack et al. RRF).
# Per query: rank BOTH lists on the 6dp-ROUNDED score with ascending-id
# ties (the repo's cross-engine total order — rounded scores are the
# quantity proven equal between engine and DuckDB, so rounded-rank is
# deterministic where raw float order is not), cut each at DEPTH, fuse
# with sum(1/(C+rank)), top-k by fused score (exact rational — equal in
# both engines as the same two IEEE divisions) with id ties.

HYBRID_QUERIES = [
    # (qid, text query, query-vector id in embeddings.parquet)
    {"qid": 1, "query": "merge sort", "qvec": 0},
    {"qid": 2, "query": "dup stream", "qvec": 7},
    {"qid": 3, "query": "window filter stream", "qvec": 42},
]
RRF_C = 60
RRF_DEPTH = 100


def _rounded_rank(ids: np.ndarray, scores: np.ndarray) -> "pd.DataFrame":
    """(id, rank) by rounded-score desc, id asc; rank is 1-based."""
    r6 = np.floor(scores * 1e6 + 0.5) / 1e6
    order = np.lexsort((ids, -r6))
    return pd.DataFrame({"doc_id": ids[order].astype(np.int64),
                         "rank": np.arange(1, ids.size + 1,
                                           dtype=np.int64)})


def hybrid_rrf_topk(sf_dir: str, *, k: int = 10, c: int = RRF_C,
                    depth: int = RRF_DEPTH) -> pd.DataFrame:
    """Columns (qid, rank, doc_id, rrf) match the SQL oracle.  The full
    rounded rank lists are computed here because the test corpus is
    small; at scale each list is its pipeline's top-(depth + tie
    margin) — both pipelines already emit bounded top-k."""
    from ..ann.knn import brute_force_topk
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    import pyarrow.parquet as pq
    qtab = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    by_id = {int(v): e for v, e in zip(qtab["vec_id"].to_pylist(),
                                       qtab["embedding"].to_pylist())}
    qm = np.asarray([by_id[q["qvec"]] for q in HYBRID_QUERIES],
                    dtype=np.float64)
    n_vecs = qtab.num_rows
    knn_all = brute_force_topk(
        rd.read_parquet(emb_path, override_num_blocks=8), qm,
        k=n_vecs, dtype=np.float64)

    out = {"qid": [], "rank": [], "doc_id": [], "rrf": []}
    for qi, q in enumerate(HYBRID_QUERIES):
        docs, scores = reader.match_scores(q["query"])
        br = _rounded_rank(_orig_ids(reader, docs), scores).head(depth)
        kg = knn_all[knn_all["qid"] == qi]
        kr = _rounded_rank(kg["vec_id"].to_numpy(),
                           kg["score"].to_numpy()).head(depth)
        fused = pd.concat([br, kr])
        fused["w"] = 1.0 / (c + fused["rank"].to_numpy(np.float64))
        agg = fused.groupby("doc_id")["w"].sum()
        ids = agg.index.to_numpy(np.int64)
        w = agg.to_numpy()
        top = np.lexsort((ids, -w))[:k]
        for r, i in enumerate(top, 1):
            out["qid"].append(q["qid"])
            out["rank"].append(r)
            out["doc_id"].append(int(ids[i]))
            out["rrf"].append(float(np.floor(w[i] * 1e6 + 0.5) / 1e6))
    res = pd.DataFrame(out)
    for col in ("qid", "rank", "doc_id"):
        res[col] = res[col].astype(np.int64)
    return res.sort_values(["qid", "rank"]).reset_index(drop=True)


WILDCARD_QUERIES = [
    # Lucene wildcard syntax; the oracle mirrors with SQL LIKE
    {"qid": 1, "pattern": "m*ge", "k": 10},
    # k=7: three docs tie at 6dp at ranks 8-10 for 'stream' (the same
    # tie the prefix family's st* hits); sub-1e-6 summation order
    # flips between engine and DuckDB
    {"qid": 2, "pattern": "s?ream", "k": 7},
    {"qid": 3, "pattern": "cust*er", "k": 10},
    {"qid": 4, "pattern": "*zzz*", "k": 10},   # leading-* full scan
]


def bm25_wildcard_topk_documents(sf_dir: str,
                                 queries: Optional[List[dict]] = None,
                                 max_terms: int = 50) -> pd.DataFrame:
    """Wildcard-expansion BM25 (IndexReader.topk_wildcard; Lucene
    WildcardQuery / Solr ``m*ge`` analog).  Columns
    (qid, rank, doc_id, score) match the SQL oracle."""
    reader = IndexReader(documents_index(sf_dir))
    return _query_set(reader, queries or WILDCARD_QUERIES,
                      lambda q: reader.topk_wildcard(q["pattern"], q["k"],
                                                     max_terms))


# ---------------------------------------------------------------------------
# Solr QueryElevationComponent / ReRank / JoinQParser analogs
# ---------------------------------------------------------------------------

# elevate.xml analog: per-qid pinned ids (rank 1..m in THIS order,
# forceElevation — pinned even when the query itself has no match, see
# qid 4's absent term) and excluded ids (removed from the organic
# list).  Ids are index-curated (elevate.xml is written against a known
# corpus) and must exist in the doc space; all ids here are < 500 so
# they exist at every test sf.  qid 5 is deliberately unconfigured: an
# elevation-free query must pass through rank-identical to bm25_topk.
ELEVATION = {
    1: {"elevate": [129, 7], "exclude": [362]},
    2: {"elevate": [21], "exclude": []},
    4: {"elevate": [13], "exclude": []},
}


def elevate_topk(sf_dir: str, queries: Optional[List[dict]] = None,
                 config: Optional[dict] = None) -> pd.DataFrame:
    """Solr QueryElevationComponent: pinned doc ids take ranks 1..m in
    config order regardless of BM25 score, excluded ids vanish, and the
    organic list (minus pinned/excluded) follows, top-k overall.

    The organic phase is the unchanged distributed ``bm25_topk``
    pipeline read ``len(elevate)+len(exclude)`` deeper (the worst-case
    number of organic rows elevation can consume); the pin/exclude
    reshuffle is driver-side over those <= k+m tiny rows per query —
    the same shape Solr uses (QEC rewrites the top of the merged list,
    never the per-shard search).  Reference: JesterJ delegates result
    shaping to Solr components server-side (SURVEY §2.2 senders)."""
    qs = list(queries or DOC_QUERIES)
    cfg = config if config is not None else ELEVATION
    deep = [dict(q, k=q["k"]
                 + len(cfg.get(q["qid"], {}).get("elevate", []))
                 + len(cfg.get(q["qid"], {}).get("exclude", [])))
            for q in qs]
    hits = bm25_topk_documents(sf_dir, deep)
    rows = []
    for q in qs:
        qid, k = q["qid"], q["k"]
        c = cfg.get(qid, {})
        elev = list(c.get("elevate", []))
        drop = set(elev) | set(c.get("exclude", []))
        for r, d in enumerate(elev[:k], 1):
            rows.append((qid, r, int(d), 1))
        organic = hits.loc[(hits["qid"] == qid)
                           & ~hits["doc_id"].isin(drop), "doc_id"]
        base = min(len(elev), k)
        for i, d in enumerate(organic.tolist()[:k - base], 1):
            rows.append((qid, base + i, int(d), 0))
    return pd.DataFrame(rows, columns=["qid", "rank", "doc_id",
                                       "elevated"]).astype(np.int64)


def rerank_topk(sf_dir: str, main: str = "merge sort",
                rq: str = "customer", rerank_docs: int = 10,
                weight: float = 2.0, k: int = 10) -> pd.DataFrame:
    """Solr ReRankQParser (``rq={!rerank reRankQuery=.. reRankDocs=N
    reRankWeight=W}``): the main query's top-N docs (full-precision
    BM25 order, doc-id tiebreak) score ``main + W*rerank``; docs
    outside the window keep their main score; the final list re-sorts
    by the 6dp-rounded combined score (half-away — SQL round parity),
    doc_id tiebreak.  Both phases score the FULL match set on one
    epoch-pinned reader (a reranked doc can leave/enter the top-k, so
    top-k-then-rerank of fewer than N docs would be wrong); at scale
    each phase is the existing bounded top-(N+k) distributed search."""
    reader = IndexReader(documents_index(sf_dir))
    ids, sc = reader.match_scores(main)
    keys = _orig_ids(reader, ids)
    order = np.lexsort((keys, -sc))
    keys, sc = keys[order], sc[order]
    rids, rsc = reader.match_scores(rq)
    rmap = dict(zip(_orig_ids(reader, rids).tolist(), rsc.tolist()))
    comb = sc.copy()
    n = min(rerank_docs, keys.size)
    comb[:n] += weight * np.asarray(
        [rmap.get(int(d), 0.0) for d in keys[:n]], dtype=np.float64)
    r6 = np.floor(comb * 1e6 + 0.5) / 1e6
    o2 = np.lexsort((keys, -r6))[:k]
    return pd.DataFrame({
        "rank": np.arange(1, o2.size + 1, dtype=np.int64),
        "doc_id": keys[o2].astype(np.int64),
        "score": r6[o2].astype(np.float64)})


def join_query_topk(sf_dir: str, query: str = "merge sort",
                    event_type: str = "purchase",
                    min_value: float = 200.0, k: int = 10
                    ) -> pd.DataFrame:
    """Solr JoinQParser as a filter query — ``q=merge sort&fq={!join
    from=props.k to=doc_id fromIndex=events}event_type:purchase AND
    value:[200 TO *]``: documents ranked by BM25 but restricted to ids
    referenced by qualifying rows of ANOTHER collection.

    Join-side shape: a pruned 3-column scan of events, per-block Arrow
    predicate + top-level JSON key extraction, per-block DISTINCT —
    so only unique join keys (bounded by the doc space, not the event
    count) reach the driver, then broadcast into the match-set filter.
    No event row ever shuffles; at 100 TB the from-side stays a
    streaming scan and the key set is the small side by construction
    (Solr's join has the same index-bounded key-set property)."""
    from ..stages.extract import extract_json_field
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "value", "props"],
                         override_num_blocks=8)
    etype = pa.scalar(event_type)

    def block_keys(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t["event_type"], etype),
                       pc.greater_equal(t["value"], min_value))
        # true top-level-key JSON extraction (extract_json_field) so
        # engine semantics match the oracle's props->>'k' on nested /
        # spaced / non-integer payloads, bounded by the filtered rows
        sub = extract_json_field(t.filter(keep), json_field="props",
                                 key="k", out_field="_jk",
                                 as_type="int64")
        return pa.table(
            {"doc_id": pc.unique(pc.drop_null(sub["_jk"]))})

    parts = ds.map_batches(block_keys, batch_format="pyarrow") \
        .take_all()
    joined = np.unique(np.asarray([r["doc_id"] for r in parts],
                                  dtype=np.int64)) \
        if parts else np.zeros(0, dtype=np.int64)
    reader = IndexReader(documents_index(sf_dir))
    ids, sc = reader.match_scores(query)
    keys = _orig_ids(reader, ids)
    mask = np.isin(keys, joined)
    keys, sc = keys[mask], sc[mask]
    order = np.lexsort((keys, -sc))[:k]
    return pd.DataFrame({
        "rank": np.arange(1, order.size + 1, dtype=np.int64),
        "doc_id": keys[order].astype(np.int64),
        "score": np.floor(sc[order] * 1e6 + 0.5) / 1e6})


def suggest(sf_dir: str, prefix: str = "co", n: int = 10
            ) -> pd.DataFrame:
    """Solr SuggestComponent (FreeTextSuggester analog): prefix
    completions weighted by COLLECTION frequency (Lucene
    totalTermFreq — total occurrences, not docFreq; 'de' completes to
    what people type most, not what spreads across most docs), weight
    desc then term asc, top-n.

    Shape: the prefix scan walks only the epoch-pinned light term
    columns (vocab-bounded); each candidate's weight decodes just that
    term's tf blobs via the lazy per-term row-group fetch and counts
    alive docs only, so a tombstoned doc stops suggesting its terms
    without a rebuild."""
    return suggest_from_reader(IndexReader(documents_index(sf_dir)),
                               prefix, n)


def suggest_from_reader(reader: IndexReader, prefix: str, n: int
                        ) -> pd.DataFrame:
    """Suggester core over an open reader (see :func:`suggest`)."""
    terms = sorted(reader.prefix_term_dfs(prefix).keys())
    ws = np.zeros(len(terms), dtype=np.int64)
    for i, t in enumerate(terms):
        docs, tfs = reader.postings(t)
        ws[i] = int(tfs[reader.alive_mask(docs)].sum())
    keep = ws > 0
    tarr = np.asarray(terms, dtype=object)[keep]
    ws = ws[keep]
    order = np.lexsort((tarr, -ws))[:n]
    return pd.DataFrame({"term": tarr[order].astype(str),
                         "weight": ws[order]})


def ltr_features(sf_dir: str, queries: Optional[List[dict]] = None,
                 ) -> pd.DataFrame:
    """Solr LTR FeatureLogger (``fl=[features]`` transformer): for each
    query's top-k docs emit the model-feature vector — BM25 score,
    matched-term count, doc length, max tf among query terms, summed
    idf of matched terms — the export a learning-to-rank trainer
    consumes.  Features derive from the SAME epoch-pinned reader state
    the ranking used (df/dl/N identical to scoring), so logged
    features can never drift from served scores.

    At scale this is per-hit work on bounded top-k lists; the term
    postings involved are already resident from the ranking phase
    (postings LRU)."""
    reader = IndexReader(documents_index(sf_dir))
    from ..index.bm25 import dedup_keep_order, idf
    rows = []
    for q in (queries or DOC_QUERIES):
        hits = reader.topk(q["query"], q["k"])
        if not hits:
            continue
        ids = np.asarray([h[0] for h in hits], dtype=np.int64)
        scores = np.asarray([h[1] for h in hits], dtype=np.float64)
        keys = _orig_ids(reader, ids)
        dls = reader.doc_len(ids)
        terms = dedup_keep_order(reader.tokenizer(q["query"]))
        tf_mat = np.zeros((len(terms), ids.size), dtype=np.int64)
        idfs = np.zeros(len(terms), dtype=np.float64)
        for ti, t in enumerate(terms):
            # idf from the SCORER's df (scoring_df: as-built, or
            # alive-filtered on exact-stats indexes) so logged
            # features can never drift from served scores
            df = reader.scoring_df(t)
            if df:
                idfs[ti] = idf(reader.n_docs, df)
            docs, tfs = reader.postings(t)
            alive = reader.alive_mask(docs)
            docs, tfs = docs[alive], tfs[alive]
            pos = np.searchsorted(docs, ids)
            ok = (pos < docs.size)
            ok[ok] &= docs[pos[ok]] == ids[ok]
            tf_mat[ti, ok] = tfs[pos[ok]]
        matched = tf_mat > 0
        n_match = matched.sum(axis=0).astype(np.int64)
        max_tf = tf_mat.max(axis=0).astype(np.int64)
        sum_idf = (idfs[:, None] * matched).sum(axis=0)
        for r in range(ids.size):
            rows.append((q["qid"], r + 1, int(keys[r]),
                         np.floor(scores[r] * 1e6 + 0.5) / 1e6,
                         int(n_match[r]), int(dls[r]), int(max_tf[r]),
                         np.floor(sum_idf[r] * 1e6 + 0.5) / 1e6))
    df = pd.DataFrame(rows, columns=["qid", "rank", "doc_id", "bm25",
                                     "n_match", "dl", "max_tf",
                                     "sum_idf"])
    for c in ("qid", "rank", "doc_id", "n_match", "dl", "max_tf"):
        df[c] = df[c].astype(np.int64)
    return df


def spellcheck_collate(sf_dir: str, query: str = "streem qery",
                       per_word: int = 2, max_collations: int = 3
                       ) -> pd.DataFrame:
    """Solr ``spellcheck.collate`` (+collateExtendedResults): rewrite
    the misspelled query by substituting each unknown word with its
    spellcheck suggestions (the spellcheck_suggest ordering: edit
    distance, df desc, term), RE-RUN each candidate collation
    conjunctively against the index, and keep only collations with
    hits > 0 — Solr's maxCollationTries semantics.  Candidates are
    tried in the order of their per-word suggestion-rank sum (then the
    rank tuple), so the best individual suggestions combine first.
    Known words (df > 0) pass through as their own sole candidate.

    Hit counting intersects alive posting doc sets — vocabulary- and
    postings-bounded, never a corpus scan."""
    import itertools
    from ..index.bm25 import dedup_keep_order
    reader = IndexReader(documents_index(sf_dir))
    cands = []
    for w in dedup_keep_order(reader.tokenizer(query)):
        docs, _ = reader.postings(w)
        if docs[reader.alive_mask(docs)].size:
            cands.append([(0, w)])
        else:
            cands.append([(r, t) for r, (t, _d, _f) in enumerate(
                reader.suggest(w, 2, per_word), 1)])
    combos = sorted(
        ((sum(c[0] for c in combo), tuple(c[0] for c in combo),
          " ".join(c[1] for c in combo), [c[1] for c in combo])
         for combo in itertools.product(*cands)),
        key=lambda x: (x[0], x[1], x[2]))
    rows = []
    for _rsum, _rt, coll, terms in combos:
        inter = None
        for t in set(terms):
            docs, _ = reader.postings(t)
            docs = docs[reader.alive_mask(docs)]
            inter = docs if inter is None else \
                np.intersect1d(inter, docs, assume_unique=True)
            if inter.size == 0:
                break
        hits = int(inter.size) if inter is not None else 0
        if hits > 0:
            rows.append((len(rows) + 1, coll, hits))
            if len(rows) >= max_collations:
                break
    return pd.DataFrame({
        "rank": pd.Series([r[0] for r in rows], dtype=np.int64),
        "collation": pd.Series([r[1] for r in rows], dtype=object),
        "hits": pd.Series([r[2] for r in rows], dtype=np.int64)})



def global_shuffle_order(sf_dir: str):
    """Deterministic global training-order shuffle: every doc gets the
    FROZEN mix_rank hash of its doc_id (stages/sampling.py — identical
    order on every run and at any parallelism), then a distributed
    ``Dataset.sort`` on the hash fixes the training order.  This is
    the all-to-all a training-data exporter needs exactly once, placed
    LAST so nothing downstream re-shuffles; resumability comes free
    (the order derives from ids, so a re-run reproduces it instead of
    persisting a permutation)."""
    from ..stages.sampling import mix_rank
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"], override_num_blocks=8)

    def add_key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "shuffle_key", pa.array(mix_rank(ids), pa.int64()))

    return ds.map_batches(add_key, batch_format="pyarrow") \
        .sort(["shuffle_key", "doc_id"])


def facet_multiselect(sf_dir: str, query: str = "dup stream",
                      fq_field: str = "lang", fq_value: str = "en",
                      other_facet: str = "source") -> pd.DataFrame:
    """Solr multi-select faceting (``fq={!tag=L}lang:en`` +
    ``facet.field={!ex=L}lang``): the facet on the tagged filter's OWN
    field counts over the match set with that filter EXCLUDED (so the
    UI keeps showing the sibling options), while every other facet
    counts with all filters applied.  Both legs reuse the shared
    broadcast-match-set partial-aggregate core; the fq is one more
    vectorized predicate inside the same per-block pass, never a
    second scan."""
    ex = _facet_over_match_set(sf_dir, query, [fq_field])
    ap = _facet_over_match_set(sf_dir, query, [other_facet],
                               fq=(fq_field, fq_value))
    out = pd.concat([
        pd.DataFrame({"facet": fq_field, "value": ex[fq_field],
                      "n": ex["n"]}),
        pd.DataFrame({"facet": other_facet, "value": ap[other_facet],
                      "n": ap["n"]}),
    ], ignore_index=True).sort_values(["facet", "value"])
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


BOOST_FUNC_QUERIES = [
    {"qid": 1, "query": "merge sort", "k": 10},
    {"qid": 2, "query": "customer", "k": 10},
    {"qid": 3, "query": "dup stream", "k": 10},
]


def boost_function_topk(sf_dir: str,
                        queries: Optional[List[dict]] = None,
                        k: int = 10) -> pd.DataFrame:
    """Solr BoostQParser / function-query analog (``{!boost
    b=log(sum(1,div(n_chars,100)))}q``): every matched doc's BM25
    score is MULTIPLIED by ``ln(1 + n_chars/100)`` before ranking.

    A document-function boost reorders arbitrarily, so top-k-then-
    boost would be wrong: the FULL match set is scored (the existing
    exhaustive phase), and the boost field arrives by scanning the
    2-column (doc_id, n_chars) projection filtered to the broadcast
    match set — so the corpus ships nothing but the match set's field
    values, once, regardless of table width.  Combined scores round
    6dp half-away (SQL round parity), doc-id tiebreak.

    Output: (qid, rank, doc_id, score) for each query's top ``k``.
    """
    qs = queries or BOOST_FUNC_QUERIES
    reader = IndexReader(documents_index(sf_dir))

    per_q = []
    all_keys = []
    for q in qs:
        ids, sc = reader.match_scores(q["query"])
        keys = _orig_ids(reader, ids)
        per_q.append((q, keys, sc))
        all_keys.append(keys)
    union = np.unique(np.concatenate(all_keys)) if all_keys else \
        np.zeros(0, np.int64)

    nchars = {}
    if union.size:
        ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["doc_id", "n_chars"],
                             override_num_blocks=8)
        flds = ds.map_batches(_keep_matched_fn(union),
                              batch_format="pyarrow").to_pandas()
        nchars = dict(zip(flds["doc_id"].astype(np.int64),
                          flds["n_chars"].astype(np.int64)))

    frames = []
    for q, keys, sc in per_q:
        if keys.size == 0:
            continue
        nc = np.asarray([nchars.get(int(d), 0) for d in keys],
                        dtype=np.float64)
        # ln(1 + x) spelled exactly as the SQL oracle computes it
        # (not log1p) so both sides round the same double
        comb = sc * np.log(1.0 + nc / 100.0)
        r6 = np.floor(comb * 1e6 + 0.5) / 1e6
        o = np.lexsort((keys, -r6))[:min(q.get("k", k), keys.size)]
        frames.append(pd.DataFrame({
            "qid": np.full(o.size, q["qid"], np.int64),
            "rank": np.arange(1, o.size + 1, dtype=np.int64),
            "doc_id": keys[o].astype(np.int64),
            "score": r6[o].astype(np.float64)}))
    if not frames:
        return pd.DataFrame({"qid": pd.Series([], dtype=np.int64),
                             "rank": pd.Series([], dtype=np.int64),
                             "doc_id": pd.Series([], dtype=np.int64),
                             "score": pd.Series([], dtype=np.float64)})
    return pd.concat(frames, ignore_index=True)


# (label, lower, upper) n_chars interval facets — Solr facet.interval
FACET_INTERVALS = [("chars_lt200", None, 200),
                   ("chars_200to400", 200, 400),
                   ("chars_ge400", 400, None)]


def facet_query_intervals(sf_dir: str, query: str = "dup stream",
                          fq_lang: str = "en") -> pd.DataFrame:
    """Solr ``facet.query`` + ``facet.interval`` analog: over the
    disjunctive match set of ``query``, the count of each n_chars
    interval bucket plus one arbitrary facet.query bucket
    (``lang:<fq_lang>``).

    One scan of the (doc_id, lang, n_chars) projection: each block
    filters to the broadcast match set and emits ONE row per facet
    label with its partial count (O(labels) rows per block), a tiny
    driver fold finishes.  Buckets are not disjoint (facet.query
    overlaps the intervals) — exactly Solr's semantics, and why this
    is label-partials, not a single group-key facet.

    Output: (facet, n) ordered facet asc."""
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    matched = _match_doc_ids(reader, query)
    labels = [lbl for lbl, _, _ in FACET_INTERVALS] + \
        [f"lang_{fq_lang}"]
    if matched.size == 0:
        return pd.DataFrame({"facet": sorted(labels),
                             "n": np.zeros(len(labels), np.int64)})
    matched_ref = ray.put(pa.array(matched))

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang", "n_chars"],
                         override_num_blocks=8)

    def partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["doc_id"],
                              value_set=ray.get(matched_ref)))
        nc = t["n_chars"]
        out_l, out_n = [], []
        for lbl, lo, hi in FACET_INTERVALS:
            m = pa.array(np.ones(t.num_rows, bool))
            if lo is not None:
                m = pc.and_(m, pc.greater_equal(nc, lo))
            if hi is not None:
                m = pc.and_(m, pc.less(nc, hi))
            out_l.append(lbl)
            out_n.append(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)
        out_l.append(f"lang_{fq_lang}")
        out_n.append(pc.sum(pc.cast(pc.equal(t["lang"], fq_lang),
                                    pa.int64())).as_py() or 0)
        return pa.table({"facet": pa.array(out_l, pa.string()),
                         "n_part": pa.array(out_n, pa.int64())})

    parts = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
    out = parts.groupby("facet", sort=True)["n_part"].sum() \
        .reset_index().rename(columns={"n_part": "n"})
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


RANK_EVAL_QUERIES = [
    {"qid": 1, "query": "merge sort"},
    {"qid": 3, "query": "window filter stream"},
    {"qid": 5, "query": "hash join"},
    {"qid": 6, "query": "dup stream"},
]


def rank_eval_metrics(sf_dir: str,
                      queries: Optional[List[dict]] = None,
                      k: int = 10) -> pd.DataFrame:
    """Elasticsearch Ranking Evaluation API analog (``_rank_eval``
    with graded relevance): NDCG@k and a full-match MRR per query,
    judged against a DETERMINISTIC relevance function so the SQL
    oracle can reproduce it exactly — rel(doc) = number of the
    query's distinct terms the doc contains (0..T).

    Everything comes from the index, never a corpus scan: the ranking
    is the engine's BM25 top-k; rel per candidate and the IDEAL
    ranking's rel histogram both come from the per-term posting match
    sets (postings-bounded work, same as scoring — at scale each term
    set is the distributed match phase the engine already runs).

    NDCG@k = sum_{{p<=k}} (2^rel_p - 1)/log2(p+1), normalized by the
    ideal ordering over ALL docs with rel > 0; MRR_full = 1/rank of
    the first doc containing EVERY query term (0 when none in top-k).
    Both round 6dp half-away (rationals — the pinned floor form).

    Output: (qid, ndcg, mrr_full) qid-ordered, one row per query with
    a non-empty match set."""
    from ..index.bm25 import dedup_keep_order
    qs = queries or RANK_EVAL_QUERIES
    reader = IndexReader(documents_index(sf_dir))

    rows = []
    for q in qs:
        terms = dedup_keep_order(reader.tokenizer(q["query"]))
        term_keys = []
        for t in terms:
            docs, _ = reader.postings(t)
            docs = docs[reader.alive_mask(docs)]
            if docs.size:
                term_keys.append(_orig_ids(reader, docs))
        if not term_keys:
            continue
        t_q = len(terms)
        allk = np.concatenate(term_keys)
        union, rel = np.unique(allk, return_counts=True)
        relmap = dict(zip(union.tolist(), rel.tolist()))

        top = reader.topk(q["query"], k)
        top_keys = _orig_ids(reader, [d for d, _ in top]).tolist()
        gains = np.asarray([relmap.get(d, 0) for d in top_keys],
                           dtype=np.float64)
        pos = np.arange(1, gains.size + 1, dtype=np.float64)
        dcg = float(np.sum((2.0 ** gains - 1.0) / np.log2(pos + 1.0)))
        ideal = np.sort(rel.astype(np.float64))[::-1][:k]
        ipos = np.arange(1, ideal.size + 1, dtype=np.float64)
        idcg = float(np.sum((2.0 ** ideal - 1.0) / np.log2(ipos + 1.0)))
        ndcg = dcg / idcg if idcg > 0 else 0.0
        full = [i + 1 for i, d in enumerate(top_keys)
                if relmap.get(d, 0) == t_q]
        mrr = 1.0 / full[0] if full else 0.0
        rows.append((q["qid"],
                     float(np.floor(ndcg * 1e6 + 0.5) / 1e6),
                     float(np.floor(mrr * 1e6 + 0.5) / 1e6)))
    return pd.DataFrame({
        "qid": pd.Series([r[0] for r in rows], dtype=np.int64),
        "ndcg": pd.Series([r[1] for r in rows], dtype=np.float64),
        "mrr_full": pd.Series([r[2] for r in rows], dtype=np.float64)})


def index_stats_summary(sf_dir: str) -> pd.DataFrame:
    """Index-integrity statistics (Solr LukeRequestHandler / ES
    _stats analog): doc count, vocabulary size, total token count and
    average doc length — read from the INDEX's own metadata and term
    dictionaries, while the SQL oracle recomputes every number from
    the raw corpus.  A hash-match here certifies the index agrees
    with the corpus on all four invariants at once (the strongest
    cheap cross-check of build correctness).

    Vocab enumeration is the epoch-pinned light term-index scan
    (vocab-bounded, zero posting decode); token totals come from the
    resident doc-length array.  avgdl rounds 6dp half-away (rational
    — the pinned floor form)."""
    reader = IndexReader(documents_index(sf_dir))
    vocab = len(reader.prefix_term_dfs(""))
    total = int(reader._dl_dense.sum())
    n = int(reader.n_docs)
    avgdl = np.floor(total / n * 1e6 + 0.5) / 1e6 if n else 0.0
    return pd.DataFrame({
        "n_docs": pd.Series([n], dtype=np.int64),
        "vocab_size": pd.Series([vocab], dtype=np.int64),
        "total_tokens": pd.Series([total], dtype=np.int64),
        "avgdl": pd.Series([avgdl], dtype=np.float64)})


# k avoids 6dp ties at the k BOUNDARY at both test scale factors
# (measured boundary-tie ranks: qid1 {10,11,12}, qid2 {3,8,9} at the
# boundary, qid3 {9,10}); ties INSIDE the top-k are safe because this
# family ranks on the ROUNDED score + doc-id (see below), unlike the
# wildcard/prefix family whose query sets are tie-free end to end
REGEXP_QUERIES = [
    {"qid": 1, "pattern": "m.rge", "k": 9},
    {"qid": 2, "pattern": "s.r?eam", "k": 10},
    {"qid": 3, "pattern": "cust.*", "k": 8},
    {"qid": 4, "pattern": ".*zzzabsent.*", "k": 10},
]


def bm25_regexp_topk_documents(sf_dir: str,
                               queries: Optional[List[dict]] = None,
                               max_terms: int = 50) -> pd.DataFrame:
    """Regexp-expansion BM25 (IndexReader.topk_regexp; Lucene
    RegexpQuery / Solr ``/re/`` analog).  Columns
    (qid, rank, doc_id, score) match the SQL oracle, which expands the
    same RE2 patterns with ``regexp_full_match``.

    This family ranks on the 6dp-ROUNDED score (doc-id tiebreak):
    regexp match sets produce equal-score clusters whose sub-1e-6
    float order flips between the engine and DuckDB, so the rounding
    makes those ties explicit and doc-asc resolves them identically
    on both sides.  The full match set is scored (vocab-bounded
    expansion, same cost as the pruning path's candidate set)."""
    reader = IndexReader(documents_index(sf_dir))

    def ranked(q):
        hits = reader.topk_regexp(q["pattern"], 1 << 30, max_terms)
        keys = _orig_ids(reader, [h[0] for h in hits])
        r6 = np.floor(np.array([h[1] for h in hits]) * 1e6 + 0.5) / 1e6
        order = np.lexsort((keys, -r6))[:q["k"]]
        return {"doc_id": keys[order], "score": r6[order]}
    return _query_frame(queries or REGEXP_QUERIES, ranked)


def rare_terms_documents(sf_dir: str, limit: int = 40
                         ) -> pd.DataFrame:
    """ES rare_terms aggregation analog: the long-tail buckets a terms
    aggregation's size cap hides — every index term whose document
    frequency is <= 5.5% of the doc count (200*df <= 11*N in EXACT
    integer form — DuckDB DECIMAL literals multiply to a wrong scale,
    so neither side touches decimals; 5.5% sits just above this
    synthetic vocabulary's one genuine tail term at ~5% and below
    everything else at ~75%), ordered (df asc, term
    asc), capped to ``limit`` rows.

    Pure term-dictionary work: one epoch-pinned light-column scan per
    shard (the TermsComponent primitive with an empty prefix), zero
    posting decode, zero corpus IO — vocab-bounded exactly like ES's
    map-merge of per-shard rare sets.  Output: (term, df)."""
    reader = IndexReader(documents_index(sf_dir))
    n = int(reader.n_docs)
    dfs = reader.prefix_term_dfs("")
    rows = sorted(((t, d) for t, d in dfs.items()
                   if 200 * d <= 11 * n),
                  key=lambda x: (x[1], x[0]))[:limit]
    return pd.DataFrame({
        "term": pd.Series([r[0] for r in rows], dtype=object),
        "df": pd.Series([r[1] for r in rows], dtype=np.int64)})


TERM_VECTOR_DOCS = (3, 42, 64)


def term_vectors_documents(sf_dir: str,
                           doc_ids: Sequence[int] = TERM_VECTOR_DOCS
                           ) -> pd.DataFrame:
    """Solr TermVectorComponent analog (``tv.tf``): the (term, tf)
    vector of specific documents, answered from the INDEX's postings
    while the oracle recomputes from raw text — a per-document
    index-integrity cross-check complementing the corpus-wide
    ``index_stats_summary``.

    The inverted index has no forward (doc->terms) store, so the
    vector assembles by probing each dictionary term's postings for
    the target docs — vocab-bounded x |docs| dense-membership checks,
    no corpus IO.  (A production term-vector store would persist
    forward vectors at build time, as Lucene does when
    ``termVectors=true``; the probe is the honest exact equivalent at
    this vocabulary size and keeps the index format unchanged.)

    Output: (doc_id, term, tf) ordered doc_id then term."""
    reader = IndexReader(documents_index(sf_dir))
    targets = {}
    for did in doc_ids:
        internal = reader.doc_id_of_key(str(int(did)).zfill(12))
        if internal is not None:
            targets[int(internal)] = int(did)
    rows = []
    if targets:
        internals = np.asarray(sorted(targets), dtype=np.int64)
        for term in sorted(reader.prefix_term_dfs("")):
            docs, tfs = reader.postings(term)
            idx = np.searchsorted(docs, internals)
            ok = (idx < docs.size) & (docs[np.minimum(
                idx, docs.size - 1)] == internals)
            for i, hit in zip(idx[ok], internals[ok]):
                rows.append((targets[int(hit)], term, int(tfs[i])))
    rows.sort()
    return pd.DataFrame({
        "doc_id": pd.Series([r[0] for r in rows], dtype=np.int64),
        "term": pd.Series([r[1] for r in rows], dtype=object),
        "tf": pd.Series([r[2] for r in rows], dtype=np.int64)})
