"""BM25 scoring — FROZEN semantics shared by oracle, engine and SQL checks.

Parameters and formula (pinned; FIXTURES.md test 4 requires engine ==
oracle rank-identical with scores equal within 1e-9):

    k1 = 1.2, b = 0.75
    N      = total docs in corpus (empty docs counted)
    dl     = token count of the doc, avgdl = mean dl over all docs
    idf(t) = ln( (N - df + 0.5) / (df + 0.5) + 1 )        # Lucene-style, >= 0
    score  = sum over DISTINCT query terms t (first-occurrence order):
                 idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    top-k  = order by (-score, doc_id)   # ascending docID tie-break

``BruteForceIndex`` is the in-repo reference engine (SURVEY.md §7.2 M0): an
exhaustive scorer over Python dicts, deliberately simple, used as the golden
oracle for the distributed engine's rank-identity tests.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple


K1 = 1.2
B = 0.75


def idf(n_docs: int, df: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def dedup_keep_order(terms: Sequence[str]) -> List[str]:
    seen = set()
    out = []
    for t in terms:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


class BruteForceIndex:
    """Exhaustive in-memory BM25 scorer — the golden oracle.

    Not distributed on purpose: used only at test scale to pin semantics.
    """

    def __init__(self, doc_ids: Sequence[int], texts: Sequence[str],
                 tokenizer: Callable[[str], List[str]]):
        self.tokenizer = tokenizer
        self.doc_ids = list(doc_ids)
        self.n_docs = len(self.doc_ids)
        self.postings: Dict[str, Dict[int, int]] = {}
        self.dl: Dict[int, int] = {}
        for did, text in zip(doc_ids, texts):
            toks = tokenizer(text)
            self.dl[did] = len(toks)
            counts: Dict[str, int] = {}
            for t in toks:
                counts[t] = counts.get(t, 0) + 1
            for t, c in counts.items():
                self.postings.setdefault(t, {})[did] = c
        self.avgdl = (sum(self.dl.values()) / self.n_docs) if self.n_docs else 0.0

    def score_all(self, query: str) -> Dict[int, float]:
        terms = dedup_keep_order(self.tokenizer(query))
        scores: Dict[int, float] = {}
        for t in terms:
            plist = self.postings.get(t)
            if not plist:
                continue
            w = idf(self.n_docs, len(plist))
            for did, tf in plist.items():
                norm = tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * self.dl[did] / self.avgdl))
                scores[did] = scores.get(did, 0.0) + w * norm
        return scores

    def topk(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        scores = self.score_all(query)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def phrase_topk(self, query: str, k: int = 10,
                    token_streams: Dict[int, List[str]] = None
                    ) -> List[Tuple[int, float]]:
        """Exact-phrase oracle: docs whose token stream contains the query
        tokens consecutively, ranked by BM25 over the phrase's distinct
        terms (ascending docID ties).  ``token_streams`` maps docID ->
        token list (callers keep it; the index itself stores only tf)."""
        terms = self.tokenizer(query)
        if not terms:
            return []
        if len(terms) == 1:
            return self.topk(query, k)
        matched = []
        for did, toks in token_streams.items():
            for i in range(len(toks) - len(terms) + 1):
                if toks[i:i + len(terms)] == terms:
                    matched.append(did)
                    break
        scores = self.score_all(" ".join(dedup_keep_order(terms)))
        hits = [(d, scores.get(d, 0.0)) for d in matched]
        return sorted(hits, key=lambda kv: (-kv[1], kv[0]))[:k]


def parse_boosted_query(query: str, tokenizer) -> (
        "Tuple[List[str], List[float]]"):
    """Parse Lucene/Solr ``term^boost`` query syntax — FROZEN semantics
    shared with the SQL oracle: whitespace-split parts, an optional
    trailing ``^<float>`` per part (default 1.0), the part's text runs
    through the index tokenizer (possibly several tokens, each taking
    the part's boost), and duplicate terms keep the FIRST occurrence's
    boost (matching dedup_keep_order's term order)."""
    import re as _re
    # a plain decimal float literal ONLY — float() would also accept
    # 'nan'/'inf'/'1_0', and a NaN boost silently poisons the dense
    # score accumulator (r03 review)
    float_lit = _re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
    terms: List[str] = []
    boosts: List[float] = []
    seen = set()
    for part in query.split():
        boost = 1.0
        if "^" in part:
            part, _, bs = part.rpartition("^")
            if float_lit.match(bs):
                boost = float(bs)
            else:
                part = part + "^" + bs  # not a boost: keep verbatim
        for tok in tokenizer(part):
            if tok not in seen:
                seen.add(tok)
                terms.append(tok)
                boosts.append(boost)
    return terms, boosts
