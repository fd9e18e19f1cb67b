"""Seventh-wave search components: JSON Facet API, significant terms,
percolator (reverse search), and realtime get.

Reference analogs: JesterJ ships documents to Solr/OpenSearch
(``ingest/processors/SendToSolrCloudProcessor.java:40+``,
``SendToOpenSearchProcessor.java``) and the search features below are
what its users query on the other side; per the north rule the engine
side is rebuilt here from scratch on the in-repo index.

Scale notes (each function documents its own exchange):
- JSON facets / significant terms share the broadcast-match-set +
  partial-aggregate shape (``flagship._facet_over_match_set``): the
  match set ships once via ``ray.put``, blocks emit vocab- or
  key-bounded partial rows, one small groupby finishes.
- Percolation is map-only: the stored query set is tiny and ships
  with the closure; each block answers its own docs.  No shuffle.
- Realtime get reuses the per-doc delta machinery (tombstones +
  delta partitions) — the GET itself is index-reader lookups, never
  a corpus scan.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..index.build import DOC_BITS
from ..index.ledger import has_stats
from ..index.query import IndexReader
from .flagship import (_cache_dir, _keep_matched_fn, _match_doc_ids,
                       documents_index)


def _away6(x: np.ndarray) -> np.ndarray:
    """6dp half-AWAY-from-zero rounding (SQL round() semantics) for
    non-negative rationals — numpy's .round() is half-to-even and
    diverges on small-denominator rationals (CLAUDE.md pinned
    invariant; 1/128 is the regression)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def json_facet_nested(sf_dir: str, query: str = "dup stream",
                      top_buckets: int = 3, sub_n: int = 2
                      ) -> pd.DataFrame:
    """Solr JSON Facet API analog: nested facet with per-bucket stats.

    Over the disjunctive match set of ``query``: the top ``top_buckets``
    ``lang`` buckets by doc count (ties lang-asc), each carrying an
    ``avg_chars`` stat (mean n_chars, 6dp half-away rounding) and its
    top ``sub_n`` ``source`` sub-buckets by count (ties source-asc).
    This differs from ``facet.pivot`` (full cross, no stats, no bucket
    limits): JSON facets prune to top-N buckets and nest aggregates.

    One partial-aggregate pass at (lang, source) arity carries BOTH
    levels: the lang level is a driver-side re-aggregation of the
    vocab-bounded partials, so the corpus is scanned once and nothing
    wider than (langs x sources) rows reaches the driver.

    Output: (lang, lang_count, avg_chars, source, source_count), one
    row per surviving (bucket, sub-bucket), ordered lang-bucket rank
    then sub-bucket rank.
    """
    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    matched = _match_doc_ids(reader, query)
    empty = pd.DataFrame({
        "lang": pd.Series([], dtype=object),
        "lang_count": pd.Series([], dtype=np.int64),
        "avg_chars": pd.Series([], dtype=np.float64),
        "source": pd.Series([], dtype=object),
        "source_count": pd.Series([], dtype=np.int64)})
    if matched.size == 0:
        return empty
    keep = _keep_matched_fn(matched)

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang", "source", "n_chars"],
                         override_num_blocks=8)

    def partials(t: pa.Table) -> pa.Table:
        t = keep(t)
        if t.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "source": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64()),
                             "chars_part": pa.array([], pa.int64())})
        g = t.group_by(["lang", "source"]).aggregate(
            [("doc_id", "count"), ("n_chars", "sum")])
        return pa.table({"lang": g["lang"], "source": g["source"],
                         "n_part": g["doc_id_count"],
                         "chars_part": g["n_chars_sum"]})

    cells = ds.map_batches(partials, batch_format="pyarrow") \
        .groupby(["lang", "source"]).aggregate(
            Sum("n_part", alias_name="n"),
            Sum("chars_part", alias_name="chars")).to_pandas()
    if cells.empty:
        return empty

    # bucket level: re-aggregate the (lang x source) cells on the driver
    langs = cells.groupby("lang", as_index=False).agg(
        lang_count=("n", "sum"), chars=("chars", "sum"))
    langs["avg_chars"] = _away6(langs["chars"].to_numpy(np.float64)
                                / langs["lang_count"].to_numpy(np.float64))
    langs = langs.sort_values(["lang_count", "lang"],
                              ascending=[False, True],
                              kind="mergesort").head(top_buckets)

    # sub-bucket level: top sub_n sources inside each surviving bucket
    sub = cells[cells["lang"].isin(langs["lang"])].copy()
    sub = sub.sort_values(["n", "source"], ascending=[False, True],
                          kind="mergesort")
    sub = sub.groupby("lang", group_keys=False).head(sub_n)

    out = langs.merge(sub[["lang", "source", "n"]], on="lang") \
        .rename(columns={"n": "source_count"})
    out = out.sort_values(
        ["lang_count", "lang", "source_count", "source"],
        ascending=[False, True, False, True], kind="mergesort")
    out["lang_count"] = out["lang_count"].astype(np.int64)
    out["source_count"] = out["source_count"].astype(np.int64)
    return out[["lang", "lang_count", "avg_chars",
                "source", "source_count"]].reset_index(drop=True)


def significant_terms(sf_dir: str, query: str = "dup stream",
                      top_n: int = 15, min_fg_df: int = 5
                      ) -> pd.DataFrame:
    """Elasticsearch significant-terms aggregation analog.

    Foreground = the disjunctive match set of ``query``; for every term
    with foreground document frequency >= ``min_fg_df``, score its lift
    over the background corpus: ``(fg_df / fg_n) / (bg_df / bg_n)``
    (6dp half-away rounding — the score is a RATIONAL, so the floor
    form is required for SQL round() parity).  Top ``top_n`` by
    (lift desc, term asc); query terms themselves are excluded (they
    are trivially significant).

    ONE corpus pass computes both frequency tables: each block emits
    per-doc-DISTINCT (term, df_part, fg_df_part) partials (the
    ``top_terms_per_lang`` factorize shape with a broadcast fg flag),
    one vocab-bounded groupby sums them.  No posting shuffle, no
    second scan; the driver sees only the vocab-bounded table.

    Output: (term, fg_df, bg_df, lift) ordered lift desc, term asc.
    """
    from ..index.bm25 import dedup_keep_order
    from ..tokenize.tokenizer import simple_tokenize

    idx = documents_index(sf_dir)
    reader = IndexReader(idx)
    matched = _match_doc_ids(reader, query)
    qterms = set(dedup_keep_order(reader.tokenizer(query)))
    empty = pd.DataFrame({"term": pd.Series([], dtype=object),
                          "fg_df": pd.Series([], dtype=np.int64),
                          "bg_df": pd.Series([], dtype=np.int64),
                          "lift": pd.Series([], dtype=np.float64)})
    if matched.size == 0:
        return empty
    fg_ref = ray.put(pa.array(matched))

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"],
                         override_num_blocks=8)
    bg_n = ds.count()
    fg_n = int(matched.size)

    def partials(t: pa.Table) -> pa.Table:
        fg = pc.is_in(t["doc_id"], value_set=ray.get(fg_ref)) \
            .to_numpy(zero_copy_only=False)
        toks_per_doc = [simple_tokenize(x or "")
                        for x in t["text"].to_pylist()]
        lens = np.fromiter((len(x) for x in toks_per_doc),
                           dtype=np.int64, count=len(toks_per_doc))
        flat = [tok for doc in toks_per_doc for tok in doc]
        if not flat:
            return pa.table({"term": pa.array([], pa.string()),
                             "df_part": pa.array([], pa.int64()),
                             "fg_part": pa.array([], pa.int64())})
        tcodes, tuniq = pd.factorize(np.asarray(flat, dtype=object),
                                     sort=False)
        dcodes = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        # per-doc distinct (doc, term) pairs -> df semantics
        pairs = np.unique(dcodes * len(tuniq) + tcodes.astype(np.int64))
        pd_doc, pd_term = pairs // len(tuniq), pairs % len(tuniq)
        df_part = np.bincount(pd_term, minlength=len(tuniq))
        fg_part = np.bincount(pd_term, weights=fg[pd_doc].astype(np.float64),
                              minlength=len(tuniq)).astype(np.int64)
        return pa.table({"term": pa.array(np.asarray(tuniq, object),
                                          pa.string()),
                         "df_part": pa.array(df_part, pa.int64()),
                         "fg_part": pa.array(fg_part, pa.int64())})

    tbl = ds.map_batches(partials, batch_format="pyarrow") \
        .groupby("term").aggregate(
            Sum("df_part", alias_name="bg_df"),
            Sum("fg_part", alias_name="fg_df")).to_pandas()
    tbl = tbl[(tbl["fg_df"] >= min_fg_df) & ~tbl["term"].isin(qterms)]
    if tbl.empty:
        return empty
    lift = (tbl["fg_df"].to_numpy(np.float64) * float(bg_n)) / \
        (tbl["bg_df"].to_numpy(np.float64) * float(fg_n))
    tbl = tbl.assign(lift=_away6(lift))
    tbl = tbl.sort_values(["lift", "term"], ascending=[False, True],
                          kind="mergesort").head(top_n)
    tbl["fg_df"] = tbl["fg_df"].astype(np.int64)
    tbl["bg_df"] = tbl["bg_df"].astype(np.int64)
    return tbl[["term", "fg_df", "bg_df", "lift"]].reset_index(drop=True)


# stored percolator queries: conjunctive must-terms plus optional
# must-not terms (the ES percolate / Solr reverse-search shape).  Terms
# chosen from the documents vocabulary to exercise multi-term AND,
# NOT-pruning, and an absent term (qid 4 matches nothing).
PERCOLATOR_QUERIES: List[Dict] = [
    {"qid": 1, "must": ["merge", "sort"], "must_not": []},
    {"qid": 2, "must": ["dup", "stream"], "must_not": []},
    {"qid": 3, "must": ["customer"], "must_not": ["window"]},
    {"qid": 4, "must": ["zzzabsent"], "must_not": []},
    {"qid": 5, "must": ["hash", "join"], "must_not": ["sort"]},
]



def _block_presence(t: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id"):
    """Shared per-block percolation kernel: tokenize + factorize once,
    return (doc_ids, n_docs, presence) where ``presence(term)`` is a
    cached boolean doc mask (one bincount per distinct term probed).
    Both percolator paths use THIS kernel so tokenization and
    presence semantics can never drift between them (r05
    self-review)."""
    from ..tokenize.tokenizer import simple_tokenize
    toks_per_doc = [simple_tokenize(x or "")
                    for x in t[text_col].to_pylist()]
    lens = np.fromiter((len(x) for x in toks_per_doc),
                       dtype=np.int64, count=len(toks_per_doc))
    dids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
    n_docs = len(dids)
    flat = [tok for doc in toks_per_doc for tok in doc]
    if not flat:
        empty = np.zeros(n_docs, dtype=bool)
        return dids, n_docs, lambda term: empty
    tcodes, tuniq = pd.factorize(np.asarray(flat, dtype=object),
                                 sort=False)
    dcodes = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    tindex = {term: i for i, term in enumerate(tuniq)}
    cache: Dict[str, np.ndarray] = {}

    def presence(term: str) -> np.ndarray:
        m = cache.get(term)
        if m is None:
            i = tindex.get(term)
            if i is None:
                m = np.zeros(n_docs, dtype=bool)
            else:
                sel = dcodes[tcodes == i]
                m = np.bincount(sel, minlength=n_docs) > 0
            cache[term] = m
        return m

    return dids, n_docs, presence


def percolate_documents(sf_dir: str,
                        queries: Optional[List[Dict]] = None
                        ) -> pd.DataFrame:
    """Percolator / reverse search: match the document STREAM against a
    stored query set (ES percolate API; the alerting shape — queries
    are the index, documents are the probes).

    Map-only: the stored query set is small and closure-shipped; each
    block tokenizes its docs once (factorize -> per-doc-distinct term
    codes) and answers every stored query with vectorized presence
    masks (one ``bincount`` per distinct query term — never a per-row
    Python loop).  At 100 TB this runs at read speed with no exchange;
    a 10^6-query store would instead index the queries' rarest terms
    and probe that small inverted map per batch (same block-local
    contract).

    Output: (qid, doc_id) for every (stored query, matching doc) pair,
    ordered qid then doc_id.
    """
    qs = queries or PERCOLATOR_QUERIES

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"],
                         override_num_blocks=8)

    def match_block(t: pa.Table) -> pa.Table:
        dids, n_docs, presence = _block_presence(t)
        out_qid: List[np.ndarray] = []
        out_did: List[np.ndarray] = []
        for q in qs:
            ok = np.ones(n_docs, dtype=bool)
            for term in q["must"]:
                ok &= presence(term)
            for term in q["must_not"]:
                ok &= ~presence(term)
            hits = dids[ok]
            out_qid.append(np.full(hits.size, q["qid"], np.int64))
            out_did.append(hits)
        qid = np.concatenate(out_qid) if out_qid else np.zeros(0, np.int64)
        did = np.concatenate(out_did) if out_did else np.zeros(0, np.int64)
        return pa.table({"qid": pa.array(qid, pa.int64()),
                         "doc_id": pa.array(did, pa.int64())})

    out = ds.map_batches(match_block, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame({"qid": pd.Series([], dtype=np.int64),
                             "doc_id": pd.Series([], dtype=np.int64)})
    return out.sort_values(["qid", "doc_id"]).reset_index(drop=True)


def realtime_get(sf_dir: str, *, updated_id: int = 3,
                 deleted_id: int = 17,
                 get_ids: Sequence[int] = (3, 17, 42, 64, 9999999)
                 ) -> pd.DataFrame:
    """Solr /get (realtime get) analog: retrieve documents by id with
    the LATEST index state visible — a per-doc delta update and a
    delete are applied first, and the GET reflects both without a full
    rebuild (reference analog: JesterJ's fetchById re-feed,
    ``Scanner.java:48``, pairs with Solr's realtime get on the serving
    side).

    Deterministic mutation (idempotent across warm-cache re-runs, and
    exactly reproducible by the SQL oracle): ``updated_id``'s text
    gains a fixed suffix; ``deleted_id`` disappears from the input, so
    the delta tombstones it.  ``delta_reindex`` diffs per-doc shas, so
    re-running against the same mutated input is a no-op.

    The GET itself is reader lookups (doc_key -> docID -> alive +
    doc_len) — never a corpus scan.  Output: (doc_id, found,
    doc_len) for each requested id, id-ordered; missing and deleted
    ids report found=false, doc_len=0.
    """
    from ..index.build_rows import build_index_rows, delta_reindex

    out = _cache_dir(sf_dir, "rtg1")
    os.makedirs(out, exist_ok=True)
    src = os.path.join(sf_dir, "documents.parquet")
    mod_path = os.path.join(out, "mod-input.parquet")
    idx_dir = os.path.join(out, "idx")

    base_kwargs = dict(text_col="text", key_col="doc_id",
                       tokenizer="simple", docs_per_partition=2048,
                       num_shards=4)
    if not has_stats(idx_dir):
        shutil.rmtree(idx_dir, ignore_errors=True)
        build_index_rows(src, idx_dir, **base_kwargs)

    if not os.path.exists(mod_path):
        t = pq.read_table(src, columns=["doc_id", "text"])
        dids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        upd = int(np.flatnonzero(dids == updated_id)[0])
        texts[upd] = (texts[upd] or "") + " freshly updated realtime tokens"
        keep = dids != deleted_id
        tmp = mod_path + ".tmp"
        pq.write_table(pa.table({
            "doc_id": pa.array(dids[keep], pa.int64()),
            "text": pa.array([x for x, k in zip(texts, keep) if k],
                             pa.string())}), tmp, row_group_size=4096)
        os.replace(tmp, mod_path)

    delta_reindex(mod_path, idx_dir, **base_kwargs)

    reader = IndexReader(idx_dir)
    rows = []
    for did in sorted(int(i) for i in get_ids):
        # an updated doc exists TWICE (tombstoned base row + alive delta
        # row): collect every internal id for the key and serve the
        # alive one — first-hit lookup would read the tombstone
        key = str(did).zfill(12)
        cands = []
        for pid, arr in reader._doc_key.items():
            i = pc.index(arr, pa.scalar(key, arr.type)).as_py()
            if i >= 0:
                cands.append((int(pid) << DOC_BITS) | int(i))
        alive = [c for c in cands
                 if reader.alive_mask(np.asarray([c], np.int64))[0]]
        if not alive:
            rows.append((did, False, 0))
            continue
        internal = max(alive)  # delta pids strictly ascend
        dl = int(reader.doc_len(np.asarray([internal], np.int64))[0])
        rows.append((did, True, dl))
    return pd.DataFrame({
        "doc_id": pd.Series([r[0] for r in rows], dtype=np.int64),
        "found": pd.Series([r[1] for r in rows], dtype=bool),
        "doc_len": pd.Series([r[2] for r in rows], dtype=np.int64)})


def percolate_documents_indexed(sf_dir: str,
                                queries: Optional[List[Dict]] = None
                                ) -> pd.DataFrame:
    """Indexed percolator — the 10^6-stored-query scale path that
    :func:`percolate_documents` documents: instead of evaluating every
    stored query against every block, the query set is inverted into a
    RAREST-MUST-TERM index (term -> query ids; rarity by corpus df
    from the epoch-pinned index reader, so the guard term is the most
    selective), each block probes only the guard terms its docs
    actually contain, and only the surviving (doc, query) CANDIDATES
    are fully verified (must/must_not presence masks).  Per-block work
    is O(docs x candidate queries), not O(docs x stored queries); a
    query whose guard term is absent from a block costs that block
    nothing.

    Output: identical to :func:`percolate_documents` (pinned by
    pytest) — (qid, doc_id) ordered qid then doc_id."""
    qs = queries or PERCOLATOR_QUERIES

    # rarest-must-term guard index, df from the corpus index (tiny:
    # O(stored queries) postings-dictionary lookups, no posting decode)
    reader = IndexReader(documents_index(sf_dir))

    def df_of(term: str) -> int:
        e = reader.term_entry(term)
        return int(e["df"]) if e else 0

    guard: Dict[str, List[Dict]] = {}
    unguarded: List[Dict] = []  # must-less queries probe every block
    for q in qs:
        if not q["must"]:
            unguarded.append(q)
            continue
        g = min(q["must"], key=lambda t: (df_of(t), t))
        guard.setdefault(g, []).append(q)

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"],
                         override_num_blocks=8)

    def match_block(t: pa.Table) -> pa.Table:
        dids, n_docs, presence = _block_presence(t)
        out_qid: List[np.ndarray] = []
        out_did: List[np.ndarray] = []

        def answer(q: Dict, base: np.ndarray) -> None:
            ok = base.copy()
            for term in q["must"]:
                ok &= presence(term)
            for term in q["must_not"]:
                ok &= ~presence(term)
            hits = dids[ok]
            out_qid.append(np.full(hits.size, q["qid"], np.int64))
            out_did.append(hits)

        all_true = np.ones(n_docs, dtype=bool)
        for q in unguarded:
            answer(q, all_true)
        # probe only guard terms with hits in THIS block
        for g, cand_qs in guard.items():
            gmask = presence(g)
            if not gmask.any():
                continue
            for q in cand_qs:
                answer(q, gmask)
        qid = np.concatenate(out_qid) if out_qid else np.zeros(0, np.int64)
        did = np.concatenate(out_did) if out_did else np.zeros(0, np.int64)
        return pa.table({"qid": pa.array(qid, pa.int64()),
                         "doc_id": pa.array(did, pa.int64())})

    out = ds.map_batches(match_block, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame({"qid": pd.Series([], dtype=np.int64),
                             "doc_id": pd.Series([], dtype=np.int64)})
    return out.sort_values(["qid", "doc_id"]).reset_index(drop=True)
