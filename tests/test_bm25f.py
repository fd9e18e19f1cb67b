"""BM25F (weighted multi-field BM25) vs an in-test brute-force oracle.

Pins: per-field tf normalization combined BEFORE saturation, document-level
idf (any-field df), title weight 2x, the shared-doc-space requirement
(partition_by='doc_key'), and the title/body derivation used by the
flagship pipeline."""
import math

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd
from jesterj_ray.index.bm25 import dedup_keep_order, idf
from jesterj_ray.index.bm25f import (DEFAULT_B, DEFAULT_WEIGHTS, K1,
                                     BM25FReader)
from jesterj_ray.index.build import build_index
from jesterj_ray.pipelines.flagship import (BM25F_TITLE_TOKENS,
                                            _split_title_body)
from jesterj_ray.tokenize.tokenizer import simple_tokenize

WORDS = ["merge", "sort", "stream", "filter", "window", "hash", "join",
         "table", "spark", "data", "query", "index", "shard", "dup"]


def make_docs(n=120, seed=7) -> pa.Table:
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n):
        # vary length through and below the title boundary: some docs have
        # an empty body (<= BM25F_TITLE_TOKENS tokens), some are long
        ln = int(rng.integers(2, 40))
        toks = rng.choice(WORDS, size=ln).tolist()
        texts.append(" ".join(toks) + ".")
    return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def brute_bm25f(table: pa.Table, query: str, k: int):
    """Exhaustive BM25F from raw tokens (the golden semantics)."""
    n_tt = BM25F_TITLE_TOKENS
    toks = {d.as_py(): simple_tokenize(s.as_py())
            for d, s in zip(table["doc_id"], table["text"])}
    fields = {d: {"title": tk[:n_tt], "body": tk[n_tt:]}
              for d, tk in toks.items()}
    n = len(fields)
    avg = {f: sum(len(v[f]) for v in fields.values()) / n
           for f in ("title", "body")}
    scores = {}
    for term in dedup_keep_order(simple_tokenize(query)):
        df = sum(1 for v in fields.values()
                 if term in v["title"] or term in v["body"])
        if df == 0:
            continue
        w = idf(n, df)
        for d, v in fields.items():
            tfa = 0.0
            for f in ("title", "body"):
                tf = v[f].count(term)
                if tf:
                    bf = DEFAULT_B[f]
                    tfa += DEFAULT_WEIGHTS[f] * tf / (
                        1.0 - bf + bf * len(v[f]) / avg[f])
            if tfa:
                scores[d] = scores.get(d, 0.0) + \
                    w * tfa * (K1 + 1.0) / (tfa + K1)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


@pytest.fixture(scope="module")
def field_indexes(ray_session, tmp_path_factory):
    table = make_docs()
    split = rd.from_arrow(table).map_batches(_split_title_body,
                                             batch_format="pyarrow")
    dirs = {}
    for f in ("title", "body"):
        out = str(tmp_path_factory.mktemp(f"bm25f-{f}"))
        build_index(split, out, text_col=f, tokenizer="simple",
                    num_partitions=4, num_shards=2, dedup=False,
                    partition_by="doc_key")
        dirs[f] = out
    return table, dirs


def test_split_matches_token_slices():
    """The text split re-tokenizes to exactly (first N, rest) of the full
    token list — the property the SQL oracle's list slicing relies on."""
    table = make_docs(seed=11)
    out = _split_title_body(table)
    for text, ti, bo in zip(table["text"].to_pylist(),
                            out["title"].to_pylist(),
                            out["body"].to_pylist()):
        toks = simple_tokenize(text)
        assert simple_tokenize(ti) == toks[:BM25F_TITLE_TOKENS]
        assert simple_tokenize(bo) == toks[BM25F_TITLE_TOKENS:]


def test_bm25f_matches_bruteforce(field_indexes):
    table, dirs = field_indexes
    r = BM25FReader(dirs)
    for query in ["merge sort", "dup", "window filter stream", "zzzabsent",
                  "hash join dup"]:
        want = brute_bm25f(table, query, 10)
        got = r.topk(query, 10)
        got_keys = [int(k) for k in r.doc_keys(
            np.array([h[0] for h in got], dtype=np.int64))]
        assert got_keys == [d for d, _ in want], query
        for (_, gs), (_, ws) in zip(got, want):
            assert math.isclose(gs, ws, rel_tol=0, abs_tol=1e-9), query


def test_title_only_and_body_only_terms(field_indexes):
    """A term present only in one field still scores (and the guard corpus
    really exercises both single-field postings paths)."""
    table, dirs = field_indexes
    r = BM25FReader(dirs)
    tonly = bonly = False
    for term in WORDS:
        dt, _ = r.readers["title"].postings(term)
        db, _ = r.readers["body"].postings(term)
        tonly |= dt.size > 0 and db.size == 0
        bonly |= db.size > 0 and dt.size == 0
        if dt.size or db.size:
            assert r.topk(term, 5), term
    # the corpus is dense enough that every word lands in both fields
    # somewhere; the single-field path is covered by short docs instead:
    # at least one doc has an empty body
    dls = r.readers["body"]._dl_dense
    assert (dls == 0).any()


def test_doc_space_guard(ray_session, tmp_path_factory):
    """A field index built with content-hash partitioning (the default)
    has a different doc space — BM25FReader must refuse it."""
    table = make_docs(n=40, seed=3)
    split = rd.from_arrow(table).map_batches(_split_title_body,
                                             batch_format="pyarrow")
    good = str(tmp_path_factory.mktemp("bm25f-good"))
    bad = str(tmp_path_factory.mktemp("bm25f-bad"))
    build_index(split, good, text_col="title", tokenizer="simple",
                num_partitions=4, num_shards=2, dedup=False,
                partition_by="doc_key")
    build_index(split, bad, text_col="body", tokenizer="simple",
                num_partitions=4, num_shards=2, dedup=False)  # sha pids
    with pytest.raises(ValueError, match="doc space"):
        BM25FReader({"title": good, "body": bad})


def test_dedup_rejects_doc_key_partitioning(ray_session, tmp_path):
    table = make_docs(n=10)
    with pytest.raises(ValueError, match="dedup"):
        build_index(rd.from_arrow(table), str(tmp_path / "x"),
                    text_col="text", tokenizer="simple", dedup=True,
                    partition_by="doc_key")


@pytest.fixture(scope="module")
def field_slices(field_indexes, tmp_path_factory):
    from jesterj_ray.index.repartition import repartition_bm25f_for_serving
    _, dirs = field_indexes
    return repartition_bm25f_for_serving(
        dirs, str(tmp_path_factory.mktemp("bm25f-slices4")), n_slices=4)


def test_bm25f_sharded_service_matches_full_reader(field_indexes,
                                                   field_slices, tmp_path):
    """Two-phase sharded BM25F (df-gather then score) over repartitioned
    slice families is rank- AND score-identical to the unsharded reader:
    per-slice any-field union counts sum to the exact global df because
    slice doc spaces are disjoint.  Holds for a tombstoned family too:
    each slice carries its own docs' tombstones."""
    import shutil
    from jesterj_ray.index.query import delete_docs
    from jesterj_ray.index.repartition import repartition_bm25f_for_serving
    from jesterj_ray.index.serving import BM25FShardedService
    table, dirs = field_indexes
    dead = {f: str(tmp_path / f) for f in dirs}
    for f, d in dirs.items():
        shutil.copytree(d, dead[f])
    victims = BM25FReader(dead).doc_keys(np.array(
        [d for d, _ in BM25FReader(dead).topk("merge dup", 3)],
        dtype=np.int64))
    for d in dead.values():
        assert delete_docs(d, victims) == 3
    dead_slices = repartition_bm25f_for_serving(
        dead, str(tmp_path / "slices"), n_slices=2)
    for family, slices in ((dirs, field_slices), (dead, dead_slices)):
        full = BM25FReader(family)
        svc = BM25FShardedService(slices)
        try:
            for query in ["merge sort", "dup", "window filter stream",
                          "zzzabsent", "hash join dup", "merge dup"]:
                want = full.topk(query, 10)
                got = svc.topk(query, 10)
                assert [d for d, _ in got] == [d for d, _ in want], query
                for (_, gs), (_, ws) in zip(got, want):
                    assert math.isclose(gs, ws, rel_tol=0, abs_tol=1e-12), \
                        query
        finally:
            svc.shutdown()
    assert not set(victims) & set(BM25FReader(dead).doc_keys(np.array(
        [d for d, _ in BM25FReader(dead).topk("merge dup", 10)],
        dtype=np.int64)))


def test_bm25f_slice_df_partials_sum_to_global(field_indexes, field_slices):
    table, dirs = field_indexes
    full = BM25FReader(dirs)
    terms = ["merge", "dup", "stream", "zzzabsent"]
    want = full.term_union_df(terms)
    sliced = [BM25FReader(d) for d in field_slices]
    got = {t: sum(r.term_union_df([t])[t] for r in sliced) for t in terms}
    assert got == want


def test_split_full_unicode_casing():
    """The split lowers with Python str.lower() (full casing) like the
    frozen tokenizer — 'İ' gains a combining dot and tokenizes to 'i',
    and the split offsets stay aligned with the token-list slices."""
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["İstanbul VIEW " * 5,
                                    "ẞtraße Maß İİİ x1 y2 z3 w4 v5 end9"],
                                   pa.string())})
    out = _split_title_body(t)
    for text, ti, bo in zip(t["text"].to_pylist(),
                            out["title"].to_pylist(),
                            out["body"].to_pylist()):
        toks = simple_tokenize(text)
        assert simple_tokenize(ti) == toks[:BM25F_TITLE_TOKENS]
        assert simple_tokenize(bo) == toks[BM25F_TITLE_TOKENS:]


def test_parse_boosted_query():
    from jesterj_ray.index.bm25 import parse_boosted_query
    t, b = parse_boosted_query("merge^2.5 sort stream^0.5 merge^9",
                               simple_tokenize)
    assert t == ["merge", "sort", "stream"]  # first occurrence wins
    assert b == [2.5, 1.0, 0.5]
    # a non-numeric suffix is not a boost; '^' itself never tokenizes
    t, b = parse_boosted_query("a^b c", simple_tokenize)
    assert t == ["a", "b", "c"] and b == [1.0, 1.0, 1.0]
    # multi-token part: every token takes the part's boost
    t, b = parse_boosted_query("Merge-Sort^3", simple_tokenize)
    assert t == ["merge", "sort"] and b == [3.0, 3.0]


def test_topk_boosted_semantics(field_indexes, tmp_path_factory):
    """boost=1 everywhere == plain topk (identical floats); boosting a
    term strictly raises every matching doc's score by (boost-1) x that
    term's contribution."""
    from jesterj_ray.index.build import build_index
    from jesterj_ray.index.query import IndexReader
    table, _ = field_indexes
    out = str(tmp_path_factory.mktemp("boostidx"))
    split = rd.from_arrow(table).map_batches(
        lambda t: t.append_column("doc_key", t["doc_id"].cast(pa.string())),
        batch_format="pyarrow")
    build_index(split, out, text_col="text", tokenizer="simple",
                num_partitions=4, num_shards=2, dedup=False)
    r = IndexReader(out)
    assert r.topk_boosted("merge sort", 10) == r.topk("merge sort", 10)
    plain = dict(r.topk("merge sort", 10_000))
    boosted = dict(r.topk_boosted("merge^2 sort", 10_000))
    merge_contrib = dict(r.topk("merge", 10_000))
    for did, s in plain.items():
        want = s + merge_contrib.get(did, 0.0)
        assert abs(boosted[did] - want) < 1e-9


def test_bm25f_repartitioned_serving_matches_full(field_indexes,
                                                  tmp_path_factory):
    """Repartitioned BM25F slices (self-contained per-slice field
    indexes, aligned by the doc-count plan) serve rank- and
    score-identically to the unsharded reader via the same two-phase
    df-gather protocol."""
    from jesterj_ray.index.repartition import repartition_bm25f_for_serving
    from jesterj_ray.index.serving import BM25FShardedService
    table, dirs = field_indexes
    out = str(tmp_path_factory.mktemp("bm25f-slices"))
    slice_dirs = repartition_bm25f_for_serving(dirs, out, n_slices=3)
    assert len(slice_dirs) == 3 and all(set(d) == {"title", "body"}
                                        for d in slice_dirs)
    full = BM25FReader(dirs)
    svc = BM25FShardedService(field_slice_dirs=slice_dirs)
    try:
        for query in ["merge sort", "dup", "window filter stream",
                      "zzzabsent"]:
            want = full.topk(query, 10)
            got = svc.topk(query, 10)
            assert [d for d, _ in got] == [d for d, _ in want], query
            for (_, gs), (_, ws) in zip(got, want):
                assert math.isclose(gs, ws, rel_tol=0, abs_tol=1e-12), query
    finally:
        svc.shutdown()


def test_topk_prefix_semantics(field_indexes, tmp_path_factory):
    """Prefix expansion matches a brute scan of the vocabulary (sorted,
    capped), scoring equals the disjunctive scorer over exactly those
    terms, and a no-match prefix returns empty."""
    from jesterj_ray.index.build import build_index
    from jesterj_ray.index.query import IndexReader
    table, _ = field_indexes
    out = str(tmp_path_factory.mktemp("prefixidx"))
    split = rd.from_arrow(table).map_batches(
        lambda t: t.append_column("doc_key", t["doc_id"].cast(pa.string())),
        batch_format="pyarrow")
    build_index(split, out, text_col="text", tokenizer="simple",
                num_partitions=4, num_shards=2, dedup=False)
    r = IndexReader(out)
    vocab = set()
    for txt in table["text"].to_pylist():
        vocab.update(simple_tokenize(txt))
    for prefix in ("s", "me", "shard", "qq"):
        want = sorted(t for t in vocab if t.startswith(prefix))[:50]
        assert r.terms_with_prefix(prefix, 50) == want, prefix
    # cap honors lexicographic-first semantics
    allt = sorted(vocab)
    assert r.terms_with_prefix("", 3) == allt[:3]
    assert r.topk_prefix("qq", 5) == []
    got = r.topk_prefix("s", 10_000)
    sterms = [t for t in sorted(vocab) if t.startswith("s")]
    want = r._topk_from_dense(r._scores_buf,
                              r._score_disjunctive(sterms), 10_000)
    assert got == want


def test_terms_within_edits(field_indexes, tmp_path_factory):
    """Fuzzy expansion == brute Levenshtein scan of the vocabulary."""
    from jesterj_ray.index.build import build_index
    from jesterj_ray.index.query import IndexReader, _edit_distance_leq
    table, _ = field_indexes
    out = str(tmp_path_factory.mktemp("fuzzyidx"))
    split = rd.from_arrow(table).map_batches(
        lambda t: t.append_column("doc_key", t["doc_id"].cast(pa.string())),
        batch_format="pyarrow")
    build_index(split, out, text_col="text", tokenizer="simple",
                num_partitions=4, num_shards=2, dedup=False)
    r = IndexReader(out)
    vocab = set()
    for txt in table["text"].to_pylist():
        vocab.update(simple_tokenize(txt))

    def brute_lev(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            nd = [i]
            for j, cb in enumerate(b, 1):
                nd.append(min(dp[j] + 1, nd[-1] + 1,
                              dp[j - 1] + (ca != cb)))
            dp = nd
        return dp[-1]

    for word, d in [("mergee", 1), ("strem", 1), ("hash", 0),
                    ("shird", 1), ("xy", 2), ("qqqq", 1)]:
        want = sorted(t for t in vocab if brute_lev(word, t) <= d)[:50]
        assert r.terms_within_edits(word, d, 50) == want, (word, d)
        assert _edit_distance_leq(word, word, 0)


def test_edit_leq_batch_matches_scalar():
    """The batched numpy banded DP (fuzzy expansion, r03 VERDICT #6) is
    cell-for-cell the scalar _edit_distance_leq: randomized parity over
    short alphabets (max collision pressure), plus the non-ASCII
    fallback, sliced-array offsets, and uint8 creep on long words."""
    from jesterj_ray.index.query import (_edit_distance_leq,
                                         _edit_leq_batch)
    rng = np.random.default_rng(0)
    alph = list("abcdz")
    for _ in range(200):
        word = "".join(rng.choice(alph, size=rng.integers(0, 10)))
        cands = ["".join(rng.choice(alph, size=rng.integers(0, 11)))
                 for _ in range(rng.integers(1, 30))]
        d = int(rng.integers(0, 4))
        got = _edit_leq_batch(word, pa.array(cands, pa.string()), d)
        want = np.array([_edit_distance_leq(word, c, d) for c in cands])
        assert np.array_equal(got, want), (word, cands, d)
    # non-ASCII falls back to the char-level scalar DP (byte-level
    # would count 'é' as two edits)
    got = _edit_leq_batch("cafe", pa.array(["café", "cafe", "crab"],
                                           pa.large_string()), 1)
    assert list(got) == [True, True, False]
    # sliced array: buffer offsets must be honored
    arr = pa.array(["xx", "abc", "abd", "zzz"]).slice(1, 3)
    assert list(_edit_leq_batch("abc", arr, 1)) == [True, True, False]
    # long-word creep: uint8 cells must clamp, not wrap
    got = _edit_leq_batch("a" * 120, pa.array(
        ["a" * 118, "a" * 60 + "b" * 60, "b" * 120]), 2)
    assert list(got) == [True, False, False]


def test_parse_boosted_query_rejects_nonfinite():
    """'nan'/'inf'/'1_0' are NOT boosts (float() would take them and a
    NaN boost poisons the score accumulator) — they stay literal text."""
    from jesterj_ray.index.bm25 import parse_boosted_query
    t, b = parse_boosted_query("merge^nan stream^inf dup^1_0 sort^2e1",
                               simple_tokenize)
    assert t == ["merge", "nan", "stream", "inf", "dup", "1", "0", "sort"]
    assert b == [1.0] * 7 + [20.0]


def test_bm25f_service_arg_validation():
    from jesterj_ray.index.serving import (BM25FShardedService,
                                           ShardedQueryService)
    with pytest.raises(ValueError, match="slice dirs"):
        BM25FShardedService([])
    with pytest.raises(ValueError, match="slice dirs"):
        ShardedQueryService([])
