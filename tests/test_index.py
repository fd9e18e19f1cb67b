"""Index correctness vs the brute-force oracle (FIXTURES.md tests 1,2,4,6,8)."""
import hashlib
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data as rd
from jesterj_ray.index.bm25 import BruteForceIndex
from jesterj_ray.index.build import DOC_BITS, build_index
from jesterj_ray.index.query import IndexReader
from jesterj_ray.sources.corpus import REFERENCE_QUERIES, generate_corpus
from jesterj_ray.tokenize.tokenizer import code_tokenize


def oracle_doc_assignment(t, num_partitions=8, dedup=True):
    """Independent reimplementation of dedup + docID assignment."""
    df = t.to_pandas()
    df["doc_key"] = df["repo"] + ":" + df["path"] + ":" + df["commit"]
    df["sha"] = df["content"].map(
        lambda c: hashlib.sha256(c.encode()).hexdigest())
    df["pid"] = df["sha"].map(lambda s: int(s[:8], 16) % num_partitions)
    if dedup:
        df = df.sort_values("doc_key").drop_duplicates(subset="sha",
                                                       keep="first")
    parts = []
    for pid, g in df.groupby("pid"):
        g = g.sort_values("doc_key").reset_index(drop=True)
        g["doc_id"] = (np.int64(pid) << DOC_BITS) | np.arange(
            len(g), dtype=np.int64)
        parts.append(g)
    return pd.concat(parts)


@pytest.fixture(scope="module")
def built(small_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("idx"))
    stats = build_index(rd.from_arrow(small_corpus), out, tokenizer="code",
                        num_partitions=8, num_shards=4, dedup=True)
    return out, stats


@pytest.fixture(scope="module")
def oracle(small_corpus):
    odf = oracle_doc_assignment(small_corpus)
    return odf, BruteForceIndex(odf["doc_id"].tolist(),
                                odf["content"].tolist(), code_tokenize)


def test_stats_match_oracle(built, oracle):
    _, stats = built
    odf, bf = oracle
    assert stats["n_docs"] == bf.n_docs
    assert stats["avgdl"] == pytest.approx(bf.avgdl, abs=1e-12)


def test_sha256_invariant(built, small_corpus):
    """Per-row content_sha256 equality vs an independent hash (the
    BASELINE.json per-row invariant)."""
    out, _ = built
    import glob, os
    docs = pd.concat([pq.read_table(p).to_pandas()
                      for p in sorted(glob.glob(os.path.join(out, "docs", "*.parquet")))])
    src = small_corpus.to_pandas()
    src["doc_key"] = src["repo"] + ":" + src["path"] + ":" + src["commit"]
    merged = docs.merge(src[["doc_key", "content"]], on="doc_key")
    assert len(merged) == len(docs)
    for _, r in merged.iterrows():
        assert r["content_sha256"] == hashlib.sha256(
            r["content"].encode()).hexdigest()


def test_dedup_planted(built, small_corpus, oracle):
    out, stats = built
    odf, _ = oracle
    raw = small_corpus.num_rows
    assert stats["n_docs"] == len(odf) < raw  # planted dups collapsed


def test_rank_identity_all_queries(built, oracle):
    """Engine top-k docIDs and scores rank-identical to the oracle."""
    out, _ = built
    _, bf = oracle
    reader = IndexReader(out)
    for q in REFERENCE_QUERIES:
        mine = reader.topk(q["query"], q["k"])
        ref = bf.topk(q["query"], q["k"])
        assert len(mine) == len(ref), q
        for (d1, s1), (d2, s2) in zip(mine, ref):
            assert d1 == d2, q
            assert s1 == pytest.approx(s2, abs=1e-9), q


def test_topk_matches_oracle_at_every_k(built, oracle):
    """Top-k cut-offs from 1 to 100, including multi-term queries whose
    k-th score ties: ids exact, scores to 1e-9 of the oracle."""
    out, _ = built
    _, bf = oracle
    reader = IndexReader(out)
    queries = [q["query"] for q in REFERENCE_QUERIES] + \
        ["import return", "def config parse error stream", "buffer"]
    for q in queries:
        for k in (1, 5, 10, 100):
            a = reader.topk(q, k)
            b = bf.topk(q, k)
            assert [x[0] for x in a] == [x[0] for x in b], (q, k)
            for (d1, s1), (d2, s2) in zip(a, b):
                assert s1 == pytest.approx(s2, abs=1e-9)


def test_deterministic_rebuild(small_corpus, tmp_path):
    """Same corpus -> byte-identical segment contents at different
    partition-group execution orders (parallelism invariance is evidenced
    cross-process by bench.py --scaling; here we assert rebuild identity)."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        build_index(rd.from_arrow(small_corpus), out, tokenizer="code",
                    num_partitions=8, num_shards=4, dedup=True)
    ra, rb = IndexReader(a), IndexReader(b)
    for q in REFERENCE_QUERIES:
        assert ra.topk(q["query"], q["k"]) == rb.topk(q["query"], q["k"])
    for term in ("import", "return", "parse"):
        da, ta = ra.postings(term)
        db, tb = rb.postings(term)
        assert np.array_equal(da, db) and np.array_equal(ta, tb)


def test_build_manifest_is_location_independent(small_corpus, tmp_path):
    """The same input built into two dirs whose paths differ in length
    writes byte-identical build manifests, and every file a manifest
    lists exists under its own index dir."""
    import glob
    import json
    import os
    from jesterj_ray.index.build_rows import build_index_rows
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    a = str(tmp_path / "a")
    b = str(tmp_path / "a-much-longer-directory-name" / "idx")
    manifests = []
    for out in (a, b):
        build_index_rows(src, out, text_col="content", tokenizer="code",
                         docs_per_partition=64, num_shards=4)
        paths = sorted(glob.glob(os.path.join(out, "manifest", "build",
                                              "part-*.json")))
        assert paths
        blobs = {os.path.basename(p): open(p, "rb").read() for p in paths}
        for blob in blobs.values():
            for rel in json.loads(blob)["output_files"]:
                assert not os.path.isabs(rel), rel
                assert os.path.isfile(os.path.join(out, rel)), rel
        manifests.append(blobs)
    assert manifests[0] == manifests[1]


def test_empty_and_comment_docs_counted(built, oracle):
    """Zero-token docs (planted empty/comment rows) are in n_docs and the
    doc table but produce no postings."""
    out, stats = built
    _, bf = oracle
    zero_dl = [d for d, l in bf.dl.items() if l == 0]
    assert zero_dl  # planted
    reader = IndexReader(out)
    dls = reader.doc_len(np.array(zero_dl, dtype=np.int64))
    assert (dls == 0).all()


def test_chunked_hot_term_merge(small_corpus, tmp_path):
    """A tiny chunk_target forces hot terms into multiple (term, chunk)
    segment rows; queries must be identical to the single-chunk index
    (bounded-memory merge for 10^12-doc hot terms)."""
    import os
    import pyarrow.parquet as pq
    import ray.data as rd
    from jesterj_ray.index.build import (make_partition_indexer, merge_runs,
                                         add_sha_and_partition)
    from jesterj_ray.index.build_rows import build_index_rows
    import pyarrow as _pa

    src = str(tmp_path / "corpus.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    a, b = str(tmp_path / "one"), str(tmp_path / "many")
    build_index_rows(src, a, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4)
    # second build with a 50-posting chunk target
    from jesterj_ray.index import build as build_mod
    build_index_rows(src, b, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4)
    # re-merge b with tiny chunks
    for f in os.listdir(os.path.join(b, "manifest", "merge")):
        os.unlink(os.path.join(b, "manifest", "merge", f))

    merge_runs(b, 4, chunk_target=50)
    from jesterj_ray.index.epoch import publish_epoch
    publish_epoch(b)  # manual re-merge = a writer cycle: publish last

    ra, rb = IndexReader(a), IndexReader(b)
    # 'import' is hot: must be chunked in b
    eb = rb.term_entry("import")
    assert eb is not None and len(eb["chunks"]) > 1
    ea = ra.term_entry("import")
    assert ea["df"] == eb["df"] and ea["count"] == eb["count"]
    da, ta = ra.postings("import")
    db, tb = rb.postings("import")
    assert np.array_equal(da, db) and np.array_equal(ta, tb)
    for q in REFERENCE_QUERIES:
        ha = ra.topk(q["query"], q["k"])
        hb = rb.topk(q["query"], q["k"])
        assert ha == hb


def test_positions_and_phrase_queries(small_corpus, tmp_path):
    """Positional index: positions round-trip exactly and phrase top-k is
    rank-identical to the brute-force phrase oracle."""
    import pyarrow.parquet as pq
    from jesterj_ray.index.build_rows import build_index_rows
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "posidx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4, positions=True)
    reader = IndexReader(out)

    # oracle with the same docID assignment (row order, 64-doc partitions)
    df = small_corpus.to_pandas()
    doc_ids, texts, streams = [], [], {}
    for i, content in enumerate(df["content"]):
        did = (np.int64(i // 64) << DOC_BITS) | np.int64(i % 64)
        doc_ids.append(int(did))
        texts.append(content)
        streams[int(did)] = code_tokenize(content)
    bf = BruteForceIndex(doc_ids, texts, code_tokenize)

    # positions round-trip vs the token streams
    for term in ("import", "return", "parse"):
        docs, tfs, flat, starts = reader.positions(term)
        for j in (0, docs.size // 2, docs.size - 1):
            did = int(docs[j])
            expect = [p for p, t in enumerate(streams[did]) if t == term]
            got = flat[starts[j]: starts[j] + tfs[j]].tolist()
            assert got == expect, (term, did)

    # phrase rank identity (incl. a camelCase phrase and an absent phrase)
    for phrase, k in [("import config", 10), ("return parse", 5),
                      ("parseConfig", 10), ("zzz absent phrase", 10),
                      ("validate schema", 10)]:
        mine = reader.phrase_topk(phrase, k)
        ref = bf.phrase_topk(phrase, k, token_streams=streams)
        assert [x[0] for x in mine] == [x[0] for x in ref], phrase
        for (d1, s1), (d2, s2) in zip(mine, ref):
            assert s1 == pytest.approx(s2, abs=1e-9)


def test_sharded_serving_rank_identical(small_corpus, tmp_path):
    """Doc-range-sharded actor serving over repartitioned slice dirs ==
    full-index reader exactly (each slice scores its docs with GLOBAL
    stats, the driver merges k-lists), for top-k and phrase queries."""
    import pyarrow.parquet as pq
    from jesterj_ray.index.build_rows import build_index_rows
    from jesterj_ray.index.repartition import repartition_for_serving
    from jesterj_ray.index.serving import ShardedQueryService
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4, positions=True)
    full = IndexReader(out)
    svc = ShardedQueryService(repartition_for_serving(
        out, str(tmp_path / "slices"), n_slices=3))
    try:
        for q in REFERENCE_QUERIES:
            a = full.topk(q["query"], q["k"])
            b = svc.topk(q["query"], q["k"])
            assert [x[0] for x in a] == [x[0] for x in b], q
            for (d1, s1), (d2, s2) in zip(a, b):
                assert s1 == pytest.approx(s2, abs=1e-12)
        for phrase, k in [("import config", 10), ("return parse", 5),
                          ("zzz absent phrase", 10)]:
            a = full.phrase_topk(phrase, k)
            b = svc.phrase_topk(phrase, k)
            assert [x[0] for x in a] == [x[0] for x in b], phrase
            for (d1, s1), (d2, s2) in zip(a, b):
                assert s1 == pytest.approx(s2, abs=1e-12)
        # throughput path: one RPC per actor for the whole batch — must
        # return exactly what per-query topk() returns, in order; the
        # shared k-list merge stops at k, returns every hit when k
        # exceeds them, and nothing for a query without hits
        batch = [(q["query"], q["k"]) for q in REFERENCE_QUERIES] + \
            [("encodeBuffer", 10_000), ("zzz_absent_term", 3)]
        many = svc.topk_many(batch)
        assert many == [svc.topk(q, k) for q, k in batch]
        assert [len(h) for h in many[-2:]] == \
            [len(full.topk("encodeBuffer", 10_000)), 0]
        assert 0 < len(many[-2]) < 10_000
    finally:
        svc.shutdown()


def test_tombstone_delete(small_corpus, tmp_path):
    """Operation.DELETE analog: tombstoned docs vanish from top-k (and
    phrase results); surviving docs keep their exact as-built scores until
    the next rebuild compacts (segment-tombstone semantics)."""
    import pyarrow.parquet as pq
    from jesterj_ray.index.build_rows import build_index_rows
    from jesterj_ray.index.query import delete_docs
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4, positions=True)
    before = IndexReader(out)
    top = before.topk("import", 5)
    assert top
    victim_id = top[0][0]
    victim_key = before.doc_keys(np.array([victim_id], dtype=np.int64))[0]

    assert delete_docs(out, [victim_key]) == 1
    after = IndexReader(out)  # new reader sees the tombstone
    got = after.topk("import", 5)
    assert victim_id not in [d for d, _ in got]
    # survivors keep identical scores, just shifted up one rank
    assert got[:4] == [h for h in top[1:5]]
    # deleting an unknown key is a no-op
    assert delete_docs(out, ["no-such-key"]) == 0


def test_wide_record_indexed(built, small_corpus, oracle):
    """The planted >1MB document (FIXTURES.md F1) is indexed and scored
    like any other (wide-record handling)."""
    _, bf = oracle
    big = max(bf.dl.items(), key=lambda kv: kv[1])
    assert big[1] > 100_000  # ~1MB of code ~ hundreds of thousands of tokens
    out, _ = built
    reader = IndexReader(out)
    assert reader.doc_len(np.array([big[0]], dtype=np.int64))[0] == big[1]


def test_streaming_merge_bounded_memory(small_corpus, tmp_path):
    """The k-way merge must produce an identical segment when forced to
    stream in the smallest possible units (flush after every emitted row,
    2-row read slabs) — evidence the merge never needs the whole shard in
    memory (r01 VERDICT #2)."""
    import os
    import pyarrow.parquet as pq
    from jesterj_ray.index import build as build_mod
    from jesterj_ray.index.build import merge_runs
    from jesterj_ray.index.build_rows import build_index_rows

    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=32)
    a, b = str(tmp_path / "norm"), str(tmp_path / "tiny")
    build_index_rows(src, a, text_col="content", tokenizer="code",
                     docs_per_partition=32, num_shards=4, positions=True)
    # knobs are CLOSURE-CAPTURED parameters (module-global patching never
    # reached the Ray workers — r3 fix): build runs, then re-merge with a
    # 1-row flush buffer and 2-row read slabs
    import shutil as _sh
    build_index_rows(src, b, text_col="content", tokenizer="code",
                     docs_per_partition=32, num_shards=4, positions=True)
    _sh.rmtree(os.path.join(b, "segments"))
    _sh.rmtree(os.path.join(b, "manifest", "merge"))
    merge_runs(b, 4, flush_terms=1, read_batch=2, round_rows=1)
    from jesterj_ray.index.epoch import publish_epoch
    publish_epoch(b)  # manual re-merge = a writer cycle: publish last
    for s in range(4):
        ta = pq.read_table(os.path.join(a, "segments", f"shard-{s:04d}.parquet"))
        tb = pq.read_table(os.path.join(b, "segments", f"shard-{s:04d}.parquet"))
        assert ta.num_rows == tb.num_rows
        assert ta.sort_by("term").equals(tb.sort_by("term"))
    ra, rb = IndexReader(a), IndexReader(b)
    for q in REFERENCE_QUERIES:
        assert ra.topk(q["query"], q["k"]) == rb.topk(q["query"], q["k"])
    # phrase path exercises pos blobs through the streamed merge
    assert ra.phrase_topk("import config", 5) == rb.phrase_topk("import config", 5)


def test_topk_and_matches_brute_force(built, oracle):
    """Conjunctive BM25 (topk_and): only docs containing ALL distinct
    query terms, scored identically to the disjunctive engine, ties
    ascending docID; an absent term empties the result."""
    from jesterj_ray.index.bm25 import dedup_keep_order
    out, _ = built
    _, bf = oracle
    r = IndexReader(out)
    for q in ("import return", "merge sort heap", "import zzzznope",
              "def"):
        terms = dedup_keep_order(code_tokenize(q))
        plists = [set(bf.postings.get(t, {})) for t in terms]
        conj = set.intersection(*plists) if plists else set()
        scores = bf.score_all(q)
        want = sorted(((d, scores[d]) for d in conj),
                      key=lambda h: (-h[1], h[0]))[:10]
        got = r.topk_and(q, 10)
        assert [x[0] for x in got] == [x[0] for x in want], q
        for (d1, s1), (d2, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, abs=1e-9)
    # buffer hygiene: a following disjunctive query is unaffected
    assert r.topk("import return", 10) == r.topk("import return", 10)


def test_topk_excluding_matches_brute_force(built, oracle):
    """Exclusion (MUST_NOT): disjunctive scores minus docs matching any
    exclude term; absent exclude terms are no-ops."""
    from jesterj_ray.index.bm25 import dedup_keep_order
    out, _ = built
    _, bf = oracle
    r = IndexReader(out)
    for q, x in (("import return", "merge"), ("merge sort", "zzzznope"),
                 ("def config", "import return def")):
        scores = bf.score_all(q)
        excluded = set()
        for t in dedup_keep_order(code_tokenize(x)):
            excluded |= set(bf.postings.get(t, {}))
        want = sorted(((d, s) for d, s in scores.items()
                       if d not in excluded),
                      key=lambda h: (-h[1], h[0]))[:10]
        got = r.topk_excluding(q, x, 10)
        assert [h[0] for h in got] == [h[0] for h in want], (q, x)
        for (d1, s1), (d2, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, abs=1e-9)
    # buffer hygiene across modes
    assert r.topk("import return", 10) == r.topk("import return", 10)


def test_alive_mask_consistency_for_raw_consumers(small_corpus, tmp_path):
    """Pipelines consuming raw postings/positions (facets, snippets) must
    apply alive_mask so deleted docs vanish there exactly as from top-k
    (code-review finding: they didn't)."""
    import os
    import pyarrow.parquet as pq
    from jesterj_ray.index.build_rows import build_index_rows
    from jesterj_ray.index.query import delete_docs
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4, positions=True)
    r0 = IndexReader(out)
    docs, _ = r0.postings("import")
    assert docs.size > 2
    victim = r0.doc_keys(docs[:1])[0]
    assert delete_docs(out, [victim]) == 1
    r = IndexReader(out)
    pdocs, _ = r.postings("import")
    mask = r.alive_mask(pdocs)
    assert mask.sum() == docs.size - 1  # victim masked, survivors kept
    assert set(r.doc_keys(pdocs[mask])) == \
        set(r0.doc_keys(docs)) - {victim}
    # positions path sees the same mask
    vdocs, _, _, _ = r.positions("import")
    assert not r.alive_mask(vdocs[np.isin(vdocs, pdocs[~mask])]).any()
    # and no topk mode ever returns the victim
    for hits in (r.topk("import", 100), r.topk_and("import", 100),
                 r.topk_excluding("import", "zzzznope", 100)):
        assert victim not in set(r.doc_keys(
            np.array([h[0] for h in hits], dtype=np.int64)))


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_QVOCAB = ["import", "return", "def", "merge", "sort", "heap", "config",
           "parse", "error", "stream", "buffer", "self", "zzzznope"]


@pytest.fixture(scope="module")
def reader(built):
    out, _ = built
    return IndexReader(out)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(qt=st.lists(st.sampled_from(_QVOCAB), min_size=1, max_size=4),
       xt=st.lists(st.sampled_from(_QVOCAB), min_size=0, max_size=2),
       k=st.integers(1, 25))
def test_query_modes_match_brute_force_random(reader, oracle, qt, xt, k):
    """Randomized sweep: OR / AND / NOT top-k all rank- and
    score-identical to the brute-force oracle for arbitrary vocabulary
    combinations (duplicate terms, absent terms, k edges)."""
    from jesterj_ray.index.bm25 import dedup_keep_order
    _, bf = oracle
    q, x = " ".join(qt), " ".join(xt)
    scores = bf.score_all(q)
    ranked = sorted(scores.items(), key=lambda h: (-h[1], h[0]))

    def check(got, want):
        assert [h[0] for h in got] == [h[0] for h in want]
        for (_, s1), (_, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, abs=1e-9)

    check(reader.topk(q, k), ranked[:k])
    terms = dedup_keep_order(code_tokenize(q))
    plists = [set(bf.postings.get(t, {})) for t in terms]
    conj = set.intersection(*plists) if plists else set()
    check(reader.topk_and(q, k),
          [h for h in ranked if h[0] in conj][:k])
    excluded = set()
    for t in dedup_keep_order(code_tokenize(x)):
        excluded |= set(bf.postings.get(t, {}))
    check(reader.topk_excluding(q, x, k),
          [h for h in ranked if h[0] not in excluded][:k])


# ---- phrase matching on position keys: property test vs brute force ----

_PVOCAB = ["ab", "cd", "ef", "gh", "kl"]


def _phrase_docs(n, seed, vocab=_PVOCAB):
    """Short docs over a tiny vocabulary (its first term is hot: its df
    is far above the chunked variant's chunk_target), plus two planted
    neighbours: doc 40 ends in ``zz`` and doc 41 starts with ``yy``, so
    ``"zz yy"`` matches only if a phrase crossed a doc boundary."""
    rng = np.random.default_rng(seed)
    texts = [" ".join(rng.choice(vocab, size=int(L),
                                 p=[.4, .2, .2, .1, .1]))
             for L in rng.integers(0, 14, size=n)]
    if n > 41:
        texts[40], texts[41] = "kl ab zz", "yy ab cd"
    return pd.DataFrame({"rid": np.arange(n, dtype=np.int64),
                         "text": texts})


def _index_variants(tmp, vocab):
    """name -> (index dir, brute-force oracle, token streams):
    ``plain`` (one chunk per term), ``chunked`` (re-merged with an
    8-posting chunk target) and ``delta`` (two delta rounds of edits,
    deletes and appends: generations plus tombstones, exact stats).
    The oracle indexes the ALIVE docs under the engine's doc ids."""
    import os
    import shutil
    import pyarrow as pa
    from jesterj_ray.index.build import merge_runs
    from jesterj_ray.index.build_rows import build_index_rows, delta_reindex
    from jesterj_ray.index.epoch import publish_epoch
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    df = _phrase_docs(160, 5, vocab)

    def write(frame, name):
        path = str(tmp / f"{name}.parquet")
        pq.write_table(pa.Table.from_pandas(frame, preserve_index=False),
                       path, row_group_size=32)
        return path

    opts = dict(text_col="text", key_col="rid", tokenizer="simple",
                docs_per_partition=32, num_shards=2, positions=True)
    plain = str(tmp / "plain")
    build_index_rows(write(df, "v0"), plain, **opts)
    chunked = str(tmp / "chunked")
    shutil.copytree(plain, chunked)
    merge_dir = os.path.join(chunked, "manifest", "merge")
    for f in os.listdir(merge_dir):
        os.unlink(os.path.join(merge_dir, f))
    merge_runs(chunked, 2, chunk_target=8)
    publish_epoch(chunked)
    delta = str(tmp / "delta")
    build_index_rows(write(df, "d0"), delta, **opts)
    cur = df
    for rnd, seed in ((1, 6), (2, 7)):
        extra = _phrase_docs(16, seed, vocab)
        cur = cur.copy()
        cur.loc[cur.index[5 * rnd:5 * rnd + 3], "text"] = \
            extra["text"][:3].to_numpy()
        cur = cur.drop(cur.index[20 * rnd:20 * rnd + 2])
        extra["rid"] += 1000 * rnd
        cur = pd.concat([cur, extra[3:]], ignore_index=True)
        delta_reindex(write(cur, f"d{rnd}"), delta, **opts)

    out = {}
    hot = vocab[0]
    for name, path, frame in (("plain", plain, df), ("chunked", chunked, df),
                              ("delta", delta, cur)):
        r = IndexReader(path)
        text_of = {str(k).zfill(12): t
                   for k, t in zip(frame["rid"], frame["text"])}
        ids = r.doc_id_of_dense(np.flatnonzero(~r._tombstone))
        texts = [text_of[key] for key in r.doc_keys(ids)]
        assert len(texts) == len(frame)
        streams = {int(d): simple_tokenize(t) for d, t in zip(ids, texts)}
        bf = BruteForceIndex([int(d) for d in ids], texts, simple_tokenize)
        out[name] = (path, bf, streams)
        if name == "chunked":
            assert len(r.term_entry(hot)["chunks"]) > 1
        if name == "delta":
            assert r._tombstone.any() and r._exact_stats
            assert len(r._load_shard(r._shard_of(hot))) > 1  # generations
    return out


@pytest.fixture(scope="module")
def phrase_variants(tmp_path_factory):
    """name -> (reader, tiny-cache reader, oracle, streams) over the
    :func:`_index_variants`; the tiny reader's position-key cache holds
    300 bytes, so it evicts on almost every decode."""
    out = {}
    built = _index_variants(tmp_path_factory.mktemp("phrase_props"),
                            _PVOCAB)
    for name, (path, bf, streams) in built.items():
        tiny = IndexReader(path)
        tiny._POS_CACHE_BYTES = 300
        out[name] = (IndexReader(path), tiny, bf, streams)
    return out


def _ordered_gap_match(toks, terms, slop, lo=0, hi=1 << 62):
    """Brute force: positions p_0 < ... < p_{L-1} with p_i = terms[i],
    every gap p_{i+1} - p_i in [1, slop + 1], span inside [lo, hi)."""
    reach = {p for p, t in enumerate(toks) if t == terms[0] and p >= lo}
    for t in terms[1:]:
        reach = {p for p, u in enumerate(toks) if u == t and
                 any(p - g in reach for g in range(1, slop + 2))}
    return any(p < hi for p in reach)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(variant=st.sampled_from(["plain", "chunked", "delta"]),
       terms=st.lists(st.sampled_from(_PVOCAB + ["zz", "yy", "nope"]),
                      min_size=1, max_size=4),
       slop=st.sampled_from([0, 1, 2]),
       span=st.tuples(st.integers(0, 6), st.integers(1, 16)),
       k=st.integers(1, 40))
def test_phrase_matching_matches_brute_force(phrase_variants, variant,
                                             terms, slop, span, k):
    """phrase_topk, phrase_topk(pos_range) and phrase_slop_topk equal a
    brute-force scan — repeated terms, multi-chunk terms, a delta-built
    index, the planted doc-boundary pair and a position-key cache
    small enough to evict on almost every decode."""
    reader, tiny, bf, streams = phrase_variants[variant]
    q = " ".join(terms)
    lo, hi = span[0], span[0] + span[1]
    scores = bf.score_all(q)

    def want(**kw):
        hits = [(d, scores[d]) for d, toks in streams.items()
                if _ordered_gap_match(toks, terms, **kw)]
        return sorted(hits, key=lambda h: (-h[1], h[0]))[:k]

    def same(got, ref):
        assert [d for d, _ in got] == [d for d, _ in ref], q
        for (_, s1), (_, s2) in zip(got, ref):
            assert s1 == pytest.approx(s2, abs=1e-6)

    for r in (reader, tiny):
        same(r.phrase_topk(q, k), bf.phrase_topk(q, k, streams))
        same(r.phrase_topk(q, k, pos_range=(lo, hi)),
             want(slop=0, lo=lo, hi=hi))
        same(r.phrase_slop_topk(q, slop, k), want(slop=slop))
    assert tiny._pos_cache_bytes <= 300


def test_phrase_keys_never_cross_a_doc_boundary(phrase_variants):
    """The planted neighbours never match, and neither do keys of the
    same two docs moved to the edge of the position range, where
    ``key - 1`` of the second doc IS the first doc's last key."""
    for r, *_ in phrase_variants.values():
        assert r.phrase_topk("zz yy", 10) == []
        assert r.phrase_slop_topk("zz yy", 2, 10) == []
    r = IndexReader(phrase_variants["plain"][0].dir)
    zz, yy = r._pos_keys("zz"), r._pos_keys("yy")
    assert (yy >> 32) - (zz >> 32) == 1           # adjacent dense docs
    r._pos_cache["zz"] = ((zz >> 32) << 32) | r._LOW
    r._pos_cache["yy"] = (yy >> 32) << 32
    assert r._pos_cache["yy"] - 1 == r._pos_cache["zz"]
    assert r.phrase_topk("zz yy", 10) == []
    for slop in (1, 2):
        assert r.phrase_slop_topk("zz yy", slop, 10) == []


def test_positions_need_a_positional_index(built):
    out, _ = built
    r = IndexReader(out)
    with pytest.raises(ValueError):
        r.positions("import")
    with pytest.raises(ValueError):
        r.phrase_topk("import config", 10)


# ---- cached per-term impacts: property test vs the uncached formula ----

# "abc"/"abd" differ only in their last character, "bd"/"cd" only in
# their first: a cache keyed on a term clipped at either end would serve
# one term's impacts for another
_IVOCAB = ["ab", "abc", "abd", "bd", "cd"]


@pytest.fixture(scope="module")
def impact_variants(tmp_path_factory):
    """name -> (reader, reader whose postings LRU holds 2 entries,
    oracle, streams) over the :func:`_index_variants`."""
    out = {}
    built = _index_variants(tmp_path_factory.mktemp("impacts"), _IVOCAB)
    for name, (path, bf, streams) in built.items():
        tiny = IndexReader(path)
        tiny._postings_cache_max = 2
        out[name] = (IndexReader(path), tiny, bf, streams)
    return out


def _uncached_scores(reader, bf, terms, boosts=None):
    """doc_id -> BM25 score: each term's contributions computed afresh
    from the oracle's postings (alive docs, alive df) with the engine's
    formula and float order, summed in ``terms`` order."""
    from jesterj_ray.index.bm25 import B, K1, idf
    scores = {}
    for i, t in enumerate(terms):
        plist = bf.postings.get(t)
        if not plist:
            continue
        ids = sorted(plist)
        tff = np.array([plist[d] for d in ids], dtype=np.float64)
        dls = np.array([bf.dl[d] for d in ids], dtype=np.float64)
        w = idf(reader.n_docs, len(plist))
        contrib = w * tff * (K1 + 1.0) / (
            tff + K1 * (1.0 - B + B * dls / reader.avgdl))
        if boosts is not None and boosts[i] != 1.0:
            contrib = contrib * boosts[i]
        for d, c in zip(ids, contrib.tolist()):
            scores[d] = scores.get(d, 0.0) + c
    return scores


def _ranked(scores, k, keep=lambda d: True):
    hits = sorted(scores.items(), key=lambda h: (-h[1], h[0]))
    return [h for h in hits if keep(h[0])][:k]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(variant=st.sampled_from(["plain", "chunked", "delta"]),
       terms=st.lists(st.sampled_from(_IVOCAB + ["nope"]),
                      min_size=1, max_size=4),
       boosts=st.lists(st.sampled_from([1.0, 0.5, 2.5, 3.0]),
                       min_size=4, max_size=4),
       mm=st.integers(1, 4), slop=st.sampled_from([1, 2]),
       k=st.integers(1, 40))
def test_cached_impacts_equal_uncached_formula(impact_variants, variant,
                                               terms, boosts, mm, slop, k):
    """Every BM25 path that scores from cached impacts returns, bit for
    bit, the scores of the uncached formula — plain, multi-chunk and
    delta-built (exact stats, tombstones) indexes, through a normal
    reader and through one whose 2-entry LRU evicts constantly."""
    from jesterj_ray.index.bm25 import dedup_keep_order
    reader, tiny, bf, streams = impact_variants[variant]
    q = " ".join(terms)
    distinct = dedup_keep_order(terms)
    scores = _uncached_scores(reader, bf, distinct)
    hits = {d: sum(d in bf.postings.get(t, {}) for t in distinct)
            for d in scores}
    first_boost = {}
    for t, b in zip(terms, boosts):
        first_boost.setdefault(t, b)
    boosted = " ".join(f"{t}^{b}" for t, b in zip(terms, boosts))
    b_scores = _uncached_scores(reader, bf, distinct,
                                [first_boost[t] for t in distinct])

    def phrase(gap):
        return _ranked(scores, k, lambda d: _ordered_gap_match(
            streams[d], terms, gap))

    for r in (reader, tiny):
        assert r.n_docs == bf.n_docs
        assert r.topk(q, k) == _ranked(scores, k)
        ids, vals = r.match_scores(q)
        assert dict(zip(ids.tolist(), vals.tolist())) == scores
        assert r.topk_and(q, k) == _ranked(
            scores, k, lambda d: hits[d] == len(distinct))
        assert r.topk_mm(q, k, mm) == _ranked(
            scores, k, lambda d: hits[d] >= min(mm, len(distinct)))
        assert r.topk_boosted(boosted, k) == _ranked(b_scores, k)
        assert r.phrase_topk(q, k) == phrase(0)
        assert r.phrase_slop_topk(q, slop, k) == phrase(slop)
    assert len(tiny._postings_cache) <= 2
