"""Distributed BPE tokenizer training (the Sennrich et al. 2016 /
GPT-2 trainer shape) — the one tokenizer-side operator a training-data
pipeline needs that the counting stages (`textstats.bpe_ish_token_count`)
don't cover: learning the merge table itself from the corpus.

Scale shape (the part that must be distributed): ONE corpus scan
collapses the text to a (word, count) histogram via per-block partial
aggregates + one vocab-bounded groupby — after that the corpus is never
touched again.  The merge loop then runs over the word HISTOGRAM
(bounded by vocabulary size, not corpus size; this is exactly how the
reference GPT-2/sentencepiece trainers work), with every pair-count
pass vectorized over a flattened numpy symbol stream.  At 100 TB the
histogram for natural-language text is a few million rows — driver-folds
fine; the corpus-sized work is all in the scan.

No reference analog (JesterJ delegates analysis to Lucene); this is the
LLM-training-data block (round-5 scope), next to chunking/sampling.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Sum

from .. import pool_size

# pre-tokenization: lowercase [a-z0-9]+ words, the repo's frozen
# simple_tokenize classes (keeps the histogram oracle-friendly)
_WORD_RE = re.compile(r"[a-z0-9]+")

END = "</w>"  # end-of-word marker symbol (Sennrich convention)


def word_histogram(ds: "rd.Dataset", text_col: str = "text"
                   ) -> pd.DataFrame:
    """One corpus pass -> (word, n) histogram.

    Per-block partial counts (factorize + bincount, no Python loop
    over rows beyond the regex scan) then one vocab-bounded groupby;
    the corpus never ships — only per-block distinct words do."""
    def partials(t: pa.Table) -> pa.Table:
        words: List[str] = []
        for x in t[text_col].to_pylist():
            words.extend(_WORD_RE.findall((x or "").lower()))
        if not words:
            return pa.table({"word": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(words, dtype=object),
                                   sort=False)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"word": pa.array(np.asarray(uniq, object),
                                          pa.string()),
                         "n_part": pa.array(cnt, pa.int64())})

    return ds.map_batches(partials, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("n_part", alias_name="n")) \
        .to_pandas()


def _pair_counts(seqs: List[List[int]], counts: np.ndarray,
                 n_syms: int) -> Dict[int, int]:
    """Weighted adjacent-pair counts over the symbol sequences,
    vectorized: flatten once, one shifted-pair encode, one bincount-
    style aggregation via np.unique on the packed pair key."""
    lens = np.fromiter((len(s) for s in seqs), dtype=np.int64,
                       count=len(seqs))
    if lens.sum() == 0:
        return {}
    flat = np.concatenate([np.asarray(s, dtype=np.int64)
                           for s in seqs])
    w = np.repeat(counts, lens)
    # adjacency mask: drop the seam between consecutive words
    starts = np.zeros(flat.size, dtype=bool)
    starts[np.cumsum(lens)[:-1]] = True
    left, right = flat[:-1], flat[1:]
    wv = w[1:]
    valid = ~starts[1:]
    key = left[valid] * n_syms + right[valid]
    wv = wv[valid]
    uk, inv = np.unique(key, return_inverse=True)
    sums = np.bincount(inv, weights=wv.astype(np.float64))
    return {int(k): int(v) for k, v in zip(uk, sums)}


def train_bpe(hist: pd.DataFrame, num_merges: int = 16
              ) -> pd.DataFrame:
    """Learn ``num_merges`` BPE merges from a (word, n) histogram.

    Deterministic: ties on pair count break by (left symbol, right
    symbol) lexicographic — required so any two runs (and the pytest
    reference) learn the identical table.  Returns (rank, left, right,
    pair_count)."""
    words = hist["word"].tolist()
    counts = hist["n"].to_numpy(np.int64)
    # initial symbol alphabet: single chars + END
    sym_of: Dict[str, int] = {}

    def sym(s: str) -> int:
        i = sym_of.get(s)
        if i is None:
            i = len(sym_of)
            sym_of[s] = i
        return i

    seqs: List[List[int]] = [
        [sym(c) for c in w] + [sym(END)] for w in words]

    merges: List[Tuple[int, str, str, int]] = []
    for rank in range(1, num_merges + 1):
        names = list(sym_of)  # index -> symbol string
        n_syms = len(names)
        pc_map = _pair_counts(seqs, counts, n_syms)
        if not pc_map:
            break
        # max count, ties by (left, right) string asc
        best_key, best_n = min(
            pc_map.items(),
            key=lambda kv: (-kv[1], names[kv[0] // n_syms],
                            names[kv[0] % n_syms]))
        li, ri = best_key // n_syms, best_key % n_syms
        lname, rname = names[li], names[ri]
        new = sym(lname + rname)
        merges.append((rank, lname, rname, best_n))
        # apply the merge in place (word table is vocab-bounded;
        # python loop over WORDS, never over the corpus)
        for s in seqs:
            i, out = 0, []
            while i < len(s):
                if (i + 1 < len(s) and s[i] == li and s[i + 1] == ri):
                    out.append(new)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            s[:] = out
    return pd.DataFrame({
        "rank": pd.Series([m[0] for m in merges], dtype=np.int64),
        "left": pd.Series([m[1] for m in merges], dtype=object),
        "right": pd.Series([m[2] for m in merges], dtype=object),
        "pair_count": pd.Series([m[3] for m in merges],
                                dtype=np.int64)})


def train_bpe_documents(sf_dir: str, num_merges: int = 16,
                        text_col: str = "text") -> pd.DataFrame:
    """End-to-end: documents corpus -> word histogram (distributed)
    -> merge table (vocab-bounded loop).  Histogram rows are sorted
    (word asc) before training so the learned table is independent of
    block order/parallelism."""
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=[text_col], override_num_blocks=8)
    hist = word_histogram(ds, text_col).sort_values("word") \
        .reset_index(drop=True)
    return train_bpe(hist, num_merges)


def _encode_word(word: str, ranks: Dict[Tuple[str, str], int]
                 ) -> List[str]:
    """Classic BPE encode of one word: repeatedly merge the adjacent
    pair with the LOWEST learned rank until none applies."""
    syms = list(word) + [END]
    while len(syms) > 1:
        best_i, best_r = -1, None
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_i, best_r = i, r
        if best_r is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


class BpeEncoder:
    """Actor-pool encode stage: the learned merge table loads ONCE per
    actor (``__init__``), every batch encodes with a per-actor
    distinct-word cache (natural-language words repeat heavily, so the
    amortized per-row cost is a dict hit).  Emits n_bpe_tokens per doc.

    The merge table is rows, not a model file — ship it via the
    constructor (Ray serializes it once per actor, not per batch).
    """

    def __init__(self, merges: pd.DataFrame, text_col: str = "text"):
        self.ranks = {(l, r): int(k) for k, l, r in zip(
            merges["rank"], merges["left"], merges["right"])}
        self.text_col = text_col
        self.cache: Dict[str, int] = {}

    def _count(self, word: str) -> int:
        n = self.cache.get(word)
        if n is None:
            n = len(_encode_word(word, self.ranks))
            self.cache[word] = n
        return n

    def __call__(self, t: pa.Table) -> pa.Table:
        counts = np.fromiter(
            (sum(self._count(w) for w in
                 _WORD_RE.findall((x or "").lower()))
             for x in t[self.text_col].to_pylist()),
            dtype=np.int64, count=t.num_rows)
        return t.append_column("n_bpe_tokens",
                               pa.array(counts, pa.int64()))


def bpe_encode_documents(sf_dir: str, num_merges: int = 16
                         ) -> pd.DataFrame:
    """Train-then-encode round trip over documents: learn
    ``num_merges`` merges, then an actor-pool encode pass emits each
    doc's BPE token count.  Output: (doc_id, n_bpe_tokens) doc-ordered
    (bounded columns; the text itself never leaves the scan)."""
    merges = train_bpe_documents(sf_dir, num_merges)
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"],
                         override_num_blocks=8)
    out = ds.map_batches(BpeEncoder, batch_format="pyarrow",
                         fn_constructor_args=(merges,),
                         concurrency=pool_size(2)) \
        .select_columns(["doc_id", "n_bpe_tokens"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True) \
        .astype({"doc_id": np.int64, "n_bpe_tokens": np.int64})
