"""Regression tests for the round-1 ADVICE findings:

1. The (since removed) pruned scorer computed its k-th threshold over
   tombstoned docs, inflating the bound and dropping valid results after
   any delete; top-k after deletes is now pinned to the oracle.
3. merge_runs fingerprinted run files by path+size only, so a same-size
   in-place rewrite silently skipped the merge; re-planned builds left
   stale partition artifacts behind.
"""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd
from jesterj_ray.index.bm25 import BruteForceIndex
from jesterj_ray.index.build import DOC_BITS
from jesterj_ray.index.build_rows import build_index_rows
from jesterj_ray.index.query import IndexReader, delete_docs
from jesterj_ray.tokenize.tokenizer import code_tokenize, simple_tokenize


@pytest.fixture(scope="module")
def pos_index(small_corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("advice")
    src = str(d / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(d / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4, positions=True)
    return out


def _ranked_without(bf, query, k, dead):
    """Oracle top-k over ALL docs (as-built stats, as the index keeps
    after a delete), with the tombstoned docs then dropped."""
    hits = sorted(bf.score_all(query).items(), key=lambda h: (-h[1], h[0]))
    return [h for h in hits if h[0] not in dead][:k]


def _row_order_oracle(texts, docs_per_partition, tokenize):
    """BruteForceIndex under build_index_rows' docID assignment (row
    order, ``docs_per_partition`` docs per partition)."""
    ids = [(i // docs_per_partition) << DOC_BITS | i % docs_per_partition
           for i in range(len(texts))]
    return BruteForceIndex(ids, list(texts), tokenize)


def test_topk_after_delete_matches_oracle(pos_index, small_corpus, tmp_path):
    """ADVICE #1 scenario: delete the top docs of multi-term queries; the
    top-k must still equal the oracle's ranking minus the deleted docs
    (a k-th threshold that counted tombstoned scores once dropped
    valid results here)."""
    import shutil
    out = str(tmp_path / "idx")
    shutil.copytree(pos_index, out)
    queries = ["parse config error", "flush cache worker", "static void",
               "validate schema", "import return"]
    r0 = IndexReader(out)
    dead = set()
    for q in queries:
        dead.update(d for d, _ in r0.topk(q, 3))
    victims = r0.doc_keys(np.array(sorted(dead), dtype=np.int64))
    assert delete_docs(out, victims) == len(dead)
    bf = _row_order_oracle(small_corpus["content"].to_pylist(), 64,
                           code_tokenize)
    r = IndexReader(out)
    for q in queries:
        for k in (1, 2, 3, 5, 10):
            a = r.topk(q, k)
            b = _ranked_without(bf, q, k, dead)
            assert [x[0] for x in a] == [x[0] for x in b], (q, k)
            for (_, s1), (_, s2) in zip(a, b):
                assert s1 == pytest.approx(s2, abs=1e-9)


def test_topk_after_delete_planted(tmp_path):
    """Planted worst case: the rare term occurs ONLY in the deleted doc,
    the second term is corpus-wide.  A threshold that counted the
    tombstoned score returned [] here; the live common-term docs must
    rank exactly as the oracle ranks them."""
    texts = (["uniqterm uniqterm uniqterm common"] +
             [f"common filler{i} words here and more text {i}"
              for i in range(40)])
    t = pa.table({"text": pa.array(texts, pa.string()),
                  "rid": pa.array(range(len(texts)), pa.int64())})
    src = str(tmp_path / "c.parquet")
    pq.write_table(t, src, row_group_size=16)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=16, num_shards=2)
    r0 = IndexReader(out)
    top = r0.topk("uniqterm common", 1)
    victim = r0.doc_keys(np.array([top[0][0]], dtype=np.int64))[0]
    assert delete_docs(out, [victim]) == 1
    bf = _row_order_oracle(texts, 16, simple_tokenize)
    r = IndexReader(out)
    for k in (1, 2, 5):
        a = r.topk("uniqterm common", k)
        b = _ranked_without(bf, "uniqterm common", k, {top[0][0]})
        assert a, "live common-term docs must still be found"
        assert [x[0] for x in a] == [x[0] for x in b], k
        for (_, s1), (_, s2) in zip(a, b):
            assert s1 == pytest.approx(s2, abs=1e-9)


def test_merge_refires_on_same_size_rewrite(small_corpus, tmp_path):
    """ADVICE #3a: a run rewritten in place with identical size must still
    invalidate the merge (mtime_ns is in the fingerprint now)."""
    from jesterj_ray.index.build import merge_runs
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4)
    seg = os.path.join(out, "segments", "shard-0000.parquet")
    before = os.stat(seg).st_mtime_ns
    # same-size "rewrite": just bump mtime of one run file
    run = os.path.join(out, "runs", "shard-0000")
    f = os.path.join(run, sorted(os.listdir(run))[0])
    os.utime(f, ns=(os.stat(f).st_atime_ns, os.stat(f).st_mtime_ns + 10**9))
    merge_runs(out, 4)
    from jesterj_ray.index.epoch import publish_epoch
    publish_epoch(out)  # manual re-merge = a writer cycle: publish last
    assert os.stat(seg).st_mtime_ns != before  # shard re-merged


def test_stale_partitions_dropped_on_replan(small_corpus, tmp_path):
    """ADVICE #3b: a re-plan over a smaller input must delete the dropped
    partitions' manifest/docs/runs artifacts and exclude them from stats."""
    t = small_corpus
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t.slice(0, 150), a, row_group_size=64)
    pq.write_table(t.slice(150), b, row_group_size=64)
    out = str(tmp_path / "idx")
    s1 = build_index_rows([a, b], out, text_col="content", tokenizer="code",
                          docs_per_partition=64, num_shards=4)
    assert s1["n_docs"] == t.num_rows
    # re-plan with only the first file: partitions of b must vanish
    s2 = build_index_rows([a], out, text_col="content", tokenizer="code",
                          docs_per_partition=64, num_shards=4)
    assert s2["n_docs"] == 150
    docs = sorted(os.listdir(os.path.join(out, "docs")))
    assert len(docs) == s2["num_partitions"]
    r = IndexReader(out)
    assert r.n_docs == 150 and r.n_dense == 150
    # postings must no longer reference dropped docs
    docs_arr, _ = r.postings("import")
    assert ((docs_arr >> 32) < s2["num_partitions"]).all()
