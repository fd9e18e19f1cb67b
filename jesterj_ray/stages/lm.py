"""Corpus bigram-LM perplexity — the CCNet-family quality signal.

Pre-training pipelines (CCNet, Gopher, RefinedWeb) score every document
with a language-model perplexity and filter or bucket on it.  The
external KenLM models those papers use are not available here, so this
stage trains the LM on the corpus itself — an add-alpha-smoothed bigram
model — which is exactly the self-perplexity signal used to find
boilerplate/repetitive documents (low ppl) and garbage (high ppl).

Reference analog: a §2.3-style per-document scoring processor whose
state (the LM) is loaded once per actor (the ``PreAnalyzeFields``
load-analyzer-once pattern, ``ingest/processors/PreAnalyzeFields.java``).

Model (FROZEN — mirrored term-by-term in the ``lm_perplexity`` DuckDB
oracle; edit both sides together):

- tokens: ``simple_tokenize`` parity (lower + ``[a-z0-9]+``),
- ``V``  = number of distinct corpus tokens, ``T`` = total token count,
- first token of a doc:   ``p = (c_u(t1) + a) / (T + a*V)``,
- subsequent tokens:      ``p = (c_b(t_{i-1}, t_i) + a) / (c_u(t_{i-1}) + a*V)``,
- ``a = 0.5``; per-doc ``avg_logprob = sum(ln p) / n`` and
  ``ppl = exp(-avg_logprob)``, both rounded to 6 dp (irrational sums —
  plain round is safe per the repo rounding rule).

Distributed shape (100 TB): training is one ``map_batches`` pass that
emits per-block PARTIAL count rows (``u\\x00tok`` / ``b\\x00w1\\x00w2``
keys — tokens are ``[a-z0-9]+`` so NUL never collides) folded by one
``groupby(key).sum`` — only count rows shuffle, never text, and the
result is model-sized (Zipf: vocab + observed bigrams << corpus).  At
web scale you additionally prune the tail with ``min_count`` (counts
stay exact for every kept entry; pruned entries score as unseen).  The
model broadcasts once via ``ray.put``; scoring is a stateless-per-batch
actor stage that maps tokens/bigram keys with two vectorized
``pd.Index.get_indexer`` probes and folds per-doc sums with
``np.bincount`` — no per-row Python.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .. import pool_size

ALPHA = 0.5  # frozen smoothing constant (mirrored in the SQL oracle)

_SEP = "\x00"


def _flat_tokens(batch: pa.Table, field: str):
    """Vectorized simple-tokenize of a batch: (doc_of, tokens_numpy).

    Same kernel chain as ``textstats.repetition_signals``: one lowercase
    + split pass, empty-string filter, ``np.repeat`` doc offsets.
    """
    from ..tokenize.tokenizer import lower_column
    col = batch[field]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # lower_column = Python/DuckDB full casing (utf8_lower diverges on
    # 'İ'-class codepoints and would split tokens differently than the
    # oracle's lower())
    lists = pc.split_pattern_regex(lower_column(col),
                                   pattern="[^a-z0-9]+")
    flat = pc.list_flatten(lists)
    raw_lens = pc.list_value_length(lists).fill_null(0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(len(batch), dtype=np.int64),
                       raw_lens)[keep]
    toks = flat.filter(pa.array(keep)).to_numpy(zero_copy_only=False)
    return doc_of, toks


def _partial_counts(batch: pa.Table, *, field: str) -> pa.Table:
    """Per-block partial unigram/bigram counts as (k, c) rows."""
    doc_of, toks = _flat_tokens(batch, field)
    if toks.size == 0:
        return pa.table({"k": pa.array([], pa.string()),
                         "c": pa.array([], pa.int64())})
    codes, uniq = pd.factorize(toks)
    codes = codes.astype(np.int64)
    v = len(uniq)
    ucounts = np.bincount(codes, minlength=v).astype(np.int64)
    ukeys = ["u" + _SEP + t for t in uniq]
    same_doc = doc_of[1:] == doc_of[:-1]
    bg = codes[:-1][same_doc] * v + codes[1:][same_doc]
    if bg.size:
        bkeys_codes, bcounts = np.unique(bg, return_counts=True)
        w1 = bkeys_codes // v
        w2 = bkeys_codes % v
        bkeys = ["b" + _SEP + uniq[a] + _SEP + uniq[b]
                 for a, b in zip(w1, w2)]
    else:
        bkeys, bcounts = [], np.zeros(0, dtype=np.int64)
    return pa.table({
        "k": pa.array(ukeys + bkeys, pa.string()),
        "c": pa.array(np.concatenate([ucounts,
                                      bcounts.astype(np.int64)]),
                      pa.int64())})


class BigramLM:
    """The broadcastable model: vocab index, unigram counts, bigram
    key index (int64 ``iu1*V + iu2``), bigram counts, ``T``/``V``."""

    def __init__(self, vocab: np.ndarray, ucounts: np.ndarray,
                 bkeys: np.ndarray, bcounts: np.ndarray):
        self.vocab_index = pd.Index(vocab)
        self.ucounts = ucounts.astype(np.float64)
        self.bg_index = pd.Index(bkeys)
        self.bcounts = bcounts.astype(np.float64)
        self.T = float(ucounts.sum())
        self.V = len(vocab)


def train_bigram_lm(ds: "ray.data.Dataset", *, field: str = "text",
                    min_count: int = 1) -> BigramLM:
    """One counting pass + one count-row groupby; returns the model.

    ``min_count`` prunes BIGRAM entries below the threshold (the web-
    scale tail control); unigrams always keep exact counts so ``T``/
    denominators stay exact.
    """
    parts = ds.map_batches(_partial_counts, batch_format="pyarrow",
                           fn_kwargs={"field": field})
    agg = parts.groupby("k").sum("c")
    tbl = pa.Table.from_pylist(agg.take_all())  # model-sized by design
    keys = tbl["k"].to_numpy(zero_copy_only=False)
    counts = tbl["sum(c)"].to_numpy(zero_copy_only=False).astype(np.int64)
    is_u = np.char.startswith(keys.astype(str), "u" + _SEP)
    uvocab = np.array([k[2:] for k in keys[is_u]])
    uc = counts[is_u]
    order = np.argsort(uvocab)
    uvocab, uc = uvocab[order], uc[order]
    vidx = pd.Index(uvocab)
    v = len(uvocab)
    bk_raw = keys[~is_u]
    bc = counts[~is_u]
    if min_count > 1:
        keep = bc >= min_count
        bk_raw, bc = bk_raw[keep], bc[keep]
    if bk_raw.size:
        splits = np.array([k.split(_SEP) for k in bk_raw])
        i1 = vidx.get_indexer(splits[:, 1]).astype(np.int64)
        i2 = vidx.get_indexer(splits[:, 2]).astype(np.int64)
        bkeys = i1 * v + i2
        order = np.argsort(bkeys)
        bkeys, bc = bkeys[order], bc[order]
    else:
        bkeys = np.zeros(0, dtype=np.int64)
    return BigramLM(uvocab, uc, bkeys, bc)


class PerplexityScorer:
    """Actor-pool ``map_batches`` stage: model fetched once per actor
    from the object store (``__init__``), scoring fully vectorized."""

    def __init__(self, model_ref, *, field: str = "text",
                 id_col: str = "doc_id", keep_cols=()):
        self.lm: BigramLM = ray.get(model_ref) \
            if isinstance(model_ref, ray.ObjectRef) else model_ref
        self.field = field
        self.id_col = id_col
        self.keep_cols = tuple(keep_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lm = self.lm
        doc_of, toks = _flat_tokens(batch, self.field)
        n_docs = len(batch)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        if toks.size == 0:
            cols = {
                "doc_id": pa.array([], batch[self.id_col].type),
                "n_tokens": pa.array([], pa.int64()),
                "avg_logprob": pa.array([], pa.float64()),
                "ppl": pa.array([], pa.float64())}
            for c in self.keep_cols:
                cols[c] = pa.array([], batch[c].type)
            return pa.table(cols)
        iu = lm.vocab_index.get_indexer(toks).astype(np.int64)
        cu = np.where(iu >= 0, lm.ucounts[np.maximum(iu, 0)], 0.0)
        a, V, T = ALPHA, lm.V, lm.T
        first = np.ones(toks.size, dtype=bool)
        first[1:] = doc_of[1:] != doc_of[:-1]
        lp = np.empty(toks.size, dtype=np.float64)
        lp[first] = np.log((cu[first] + a) / (T + a * V))
        rest = ~first
        if rest.any():
            prev_iu = iu[np.flatnonzero(rest) - 1]
            cur_iu = iu[rest]
            both = (prev_iu >= 0) & (cur_iu >= 0)
            bkey = np.where(both, prev_iu * V + cur_iu, -1)
            bi = lm.bg_index.get_indexer(bkey).astype(np.int64)
            cb = np.where(bi >= 0, lm.bcounts[np.maximum(bi, 0)], 0.0)
            cu_prev = np.where(prev_iu >= 0,
                               lm.ucounts[np.maximum(prev_iu, 0)], 0.0)
            lp[rest] = np.log((cb + a) / (cu_prev + a * V))
        sums = np.bincount(doc_of, weights=lp, minlength=n_docs)
        ns = np.bincount(doc_of, minlength=n_docs)
        nz = np.flatnonzero(ns > 0)
        avg = sums[nz] / ns[nz]
        cols = {
            "doc_id": pa.array(ids[nz], batch[self.id_col].type),
            "n_tokens": pa.array(ns[nz], pa.int64()),
            "avg_logprob": pa.array(np.round(avg, 6), pa.float64()),
            "ppl": pa.array(np.round(np.exp(-avg), 6), pa.float64())}
        take = pa.array(nz, pa.int64())
        for c in self.keep_cols:
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            cols[c] = col.take(take)
        return pa.table(cols)


def lm_perplexity_pipeline(sf_dir: str, *, concurrency: int = 2,
                           num_blocks: int = 16):
    """documents → train corpus bigram LM → score every doc.

    Returns (doc_id, n_tokens, avg_logprob, ppl) sorted by doc_id;
    empty-token docs are dropped (no defined perplexity) — the oracle's
    ``HAVING count(*) > 0``.  The scorer pool is capped by ``pool_size``.
    """
    # override_num_blocks: tiny test parquet would otherwise fan into
    # O(100) sub-MB blocks and scheduling would dominate (CLAUDE.md)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    lm = train_bigram_lm(ds, field="text")
    ref = ray.put(lm)
    scored = ds.map_batches(
        PerplexityScorer, batch_format="pyarrow",
        fn_constructor_kwargs={"model_ref": ref},
        concurrency=pool_size(concurrency))
    return scored.sort("doc_id")


def ccnet_buckets_pipeline(sf_dir: str, *, concurrency: int = 2,
                           num_blocks: int = 16):
    """CCNet head/middle/tail bucketing (Wenzek et al. 2020): score
    every document with the corpus LM, cut each language's perplexity
    distribution at its terciles, label docs by value cutoff —
    ``head`` (ppl <= q1/3), ``middle`` (<= q2/3), ``tail``.

    Cutoffs use the repo's EXACT grouped quantile (quantile_disc
    parity, ties low) over the 6dp-ROUNDED ppl so the SQL oracle
    computes identical boundaries.  The counting-quantile exchange is
    value-domain-sized — fine here; at 100 TB swap the cutoff stage
    for the mergeable t-digest (``stages/sketch``) and accept its
    rank-error band.  Labeling is one broadcast of the
    (lang -> c1, c2) table + a vectorized compare per batch.

    Output (doc_id, lang, ppl, bucket) sorted by doc_id; zero-token
    docs are dropped (no perplexity), exactly as ``lm_perplexity``.
    """
    from ..pipelines.relational import grouped_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"],
                               override_num_blocks=num_blocks)
    lm = train_bigram_lm(ds, field="text")
    ref = ray.put(lm)
    scored = ds.map_batches(
        PerplexityScorer, batch_format="pyarrow",
        fn_constructor_kwargs={"model_ref": ref,
                               "keep_cols": ("lang",)},
        concurrency=pool_size(concurrency)).materialize()
    # materialize: cuts AND label both consume `scored` — without it
    # Ray re-executes the whole scoring pass twice (r05 self-review #6)
    cuts = grouped_quantiles(scored.select_columns(["lang", "ppl"]),
                             "lang", "ppl",
                             quantiles=((1, 3), (2, 3)))
    cut_map = {r["lang"]: (float(r["q1_3"]), float(r["q2_3"]))
               for _, r in cuts.iterrows()}
    cut_ref = ray.put(cut_map)

    def label(t: pa.Table) -> pa.Table:
        cm = ray.get(cut_ref)
        langs = t["lang"].to_pylist()
        ppl = t["ppl"].to_numpy(zero_copy_only=False)
        c1 = np.array([cm[la][0] for la in langs], dtype=np.float64)
        c2 = np.array([cm[la][1] for la in langs], dtype=np.float64)
        bucket = np.where(ppl <= c1, "head",
                          np.where(ppl <= c2, "middle", "tail"))
        return pa.table({
            "doc_id": t["doc_id"],
            "lang": t["lang"],
            "ppl": t["ppl"],
            "bucket": pa.array(bucket.tolist(), pa.string())})

    return scored.map_batches(label, batch_format="pyarrow") \
        .sort("doc_id")
