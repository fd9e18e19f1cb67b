"""Serving repartition: per-slice self-contained indexes equal the global
reader exactly — every mode (OR top-k, phrase), since slices
keep global df/cf/stats."""
import numpy as np
import pyarrow.parquet as pq
import pytest

from jesterj_ray.index.build_rows import build_index_rows
from jesterj_ray.index.query import IndexReader, delete_docs
from jesterj_ray.index.repartition import repartition_for_serving
from jesterj_ray.sources.corpus import REFERENCE_QUERIES


@pytest.fixture(scope="module")
def split_index(small_corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("repart")
    src = str(d / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(d / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4, positions=True)
    slice_dirs = repartition_for_serving(out, str(d / "slices"), n_slices=3)
    return out, slice_dirs


def merged_topk(readers, fn_name, query, k):
    hits = []
    for r in readers:
        hits.extend(getattr(r, fn_name)(query, k))
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:k]


def test_slices_equal_global_all_modes(split_index):
    out, slice_dirs = split_index
    g = IndexReader(out)
    readers = [IndexReader(d) for d in slice_dirs]
    # every slice doc belongs to its slice; doc spaces partition exactly
    assert sum(r.n_dense for r in readers) == g.n_dense
    for r in readers:
        assert r.n_docs == g.n_docs and r.avgdl == g.avgdl  # GLOBAL stats
    for q in REFERENCE_QUERIES:
        want = g.topk(q["query"], q["k"])
        got = merged_topk(readers, "topk", q["query"], q["k"])
        assert [x[0] for x in want] == [x[0] for x in got], q
        for (_, a), (_, b) in zip(want, got):
            assert a == pytest.approx(b, abs=1e-12)
    # phrase queries work per slice (impossible with mask-based slicing)
    want = g.phrase_topk("import config", 10)
    got = merged_topk(readers, "phrase_topk", "import config", 10)
    assert [x[0] for x in want] == [x[0] for x in got]
    # df stays global in every slice
    for term in ("import", "return"):
        ge = g.term_entry(term)
        for r in readers:
            e = r.term_entry(term)
            if e is not None:
                assert e["df"] == ge["df"]


def test_slice_service_end_to_end(split_index):
    from jesterj_ray.index.serving import ShardedQueryService
    out, slice_dirs = split_index
    g = IndexReader(out)
    svc = ShardedQueryService(slice_dirs=slice_dirs)
    try:
        for q in REFERENCE_QUERIES:
            want = g.topk(q["query"], q["k"])
            got = svc.topk(q["query"], q["k"])
            assert [x[0] for x in want] == [x[0] for x in got], q
        assert [x[0] for x in svc.phrase_topk("import config", 5)] == \
            [x[0] for x in g.phrase_topk("import config", 5)]
        batch = [(q["query"], q["k"]) for q in REFERENCE_QUERIES]
        many = svc.topk_many(batch)  # batched == per-query, exactly
        assert many == [svc.topk(q, k) for q, k in batch]
    finally:
        svc.shutdown()


def test_repartition_carries_tombstones(small_corpus, tmp_path):
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4)
    g0 = IndexReader(out)
    victim = g0.doc_keys(np.array([g0.topk("import", 1)[0][0]],
                                  dtype=np.int64))[0]
    delete_docs(out, [victim])
    slice_dirs = repartition_for_serving(out, str(tmp_path / "sl"),
                                         n_slices=2)
    g = IndexReader(out)
    readers = [IndexReader(d) for d in slice_dirs]
    want = g.topk("import", 10)
    got = merged_topk(readers, "topk", "import", 10)
    assert [x[0] for x in want] == [x[0] for x in got]


def test_resplit_into_same_root_drops_stale_files(small_corpus, tmp_path):
    """The serving writer cycle (compact the source, re-split into the
    SAME slice root) must leave no file of the earlier split behind: a
    stale tombstones.json masks live renumbered docs, a doc table the
    plan moved would sit in two slices, a shard past the new num_shards
    is never read."""
    import os
    from jesterj_ray.index.compact import compact_index
    from jesterj_ray.index.epoch import read_epoch
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4)
    g0 = IndexReader(out)
    victims = g0.doc_keys(np.array([h[0] for h in g0.topk("import", 5)],
                                   dtype=np.int64))
    assert delete_docs(out, victims) == 5
    root = str(tmp_path / "slices")
    slice_dirs = repartition_for_serving(out, root, n_slices=2)
    assert any(os.path.exists(os.path.join(d, "tombstones.json"))
               for d in slice_dirs)

    def check(index_dir, slice_dirs):
        g = IndexReader(index_dir)
        readers = [IndexReader(d) for d in slice_dirs]
        assert sum(r.n_dense for r in readers) == g.n_dense
        for q in ("import", "return", "import return"):
            want = g.topk(q, 20)
            got = merged_topk(readers, "topk", q, 20)
            assert [x[0] for x in want] == [x[0] for x in got], q
            for (_, a), (_, b) in zip(want, got):
                assert a == pytest.approx(b, abs=1e-12)
        for d in slice_dirs:  # the published epoch is exactly what is on disk
            on_disk = {f"{sub}/{n}" for sub in ("docs", "segments")
                       for n in os.listdir(os.path.join(d, sub))}
            on_disk |= {n for n in ("stats.json", "tombstones.json")
                        if os.path.exists(os.path.join(d, n))}
            assert set(read_epoch(d)["files"]) == on_disk

    compact_index(out)
    assert not os.path.exists(os.path.join(out, "tombstones.json"))
    assert repartition_for_serving(out, root, n_slices=2) == slice_dirs
    check(out, slice_dirs)
    assert not any(os.path.exists(os.path.join(d, "tombstones.json"))
                   for d in slice_dirs)
    # a rebuild with fewer shards and smaller partitions: surplus shard
    # files and doc tables the plan moved must go too
    out2 = str(tmp_path / "idx2")
    build_index_rows(src, out2, text_col="content", tokenizer="code",
                     docs_per_partition=32, num_shards=2)
    assert repartition_for_serving(out2, root, n_slices=2) == slice_dirs
    for d in slice_dirs:
        assert sorted(os.listdir(os.path.join(d, "segments"))) == \
            ["shard-0000.parquet", "shard-0001.parquet"]
    check(out2, slice_dirs)


def test_repartition_deterministic(split_index, tmp_path):
    """A second distributed split of the same index writes the same
    slice segment tables (shard tasks run in any order on any worker)."""
    out, slice_dirs = split_index
    dirs2 = repartition_for_serving(out, str(tmp_path / "again"),
                                    n_slices=3)
    for a, b in zip(slice_dirs, dirs2):
        for s in range(4):
            name = f"segments/shard-{s:04d}.parquet"
            assert pq.read_table(f"{a}/{name}").equals(
                pq.read_table(f"{b}/{name}"))


@pytest.mark.parametrize("flush_rows", [1, 5])
def test_split_shard_bounded_decode_equal(split_index, tmp_path,
                                          monkeypatch, flush_rows):
    """Splitting a shard in-process with a tiny decode slab (rows decode
    a few postings at a time, big rows alone) and 1- or 5-row flushes
    writes the same slice segment tables as the default split.  In
    process, because the patched constants would not reach Ray workers."""
    import os
    from jesterj_ray.index import repartition as rp
    out, slice_dirs = split_index
    monkeypatch.setattr(rp, "REPART_DECODE_POSTINGS", 3)
    monkeypatch.setattr(rp, "REPART_FLUSH_ROWS", flush_rows)
    assign = rp._plan_slices(os.path.join(out, "docs"), 3)
    for shard in range(4):
        rp._split_shard(out, str(tmp_path), shard, 3, assign)
        for s, sdir in enumerate(slice_dirs):
            name = f"segments/shard-{shard:04d}.parquet"
            got = pq.read_table(f"{tmp_path}/slice-{s:03d}/{name}")
            assert got.equals(pq.read_table(f"{sdir}/{name}"))


def test_repartition_refuses_exact_stats(tmp_path):
    import json as _json
    import os as _os
    from jesterj_ray.index.repartition import repartition_for_serving
    idx = str(tmp_path / "idx")
    _os.makedirs(idx)
    with open(_os.path.join(idx, "stats.json"), "w") as f:
        _json.dump({"exact_stats": True, "num_shards": 2}, f)
    with pytest.raises(ValueError, match="exact_stats"):
        repartition_for_serving(idx, str(tmp_path / "s"), n_slices=2)


def test_repartition_chunked_hot_terms_keep_global_df(small_corpus,
                                                      tmp_path):
    """Multi-chunk hot terms: a slice holding docs in only SOME chunks
    must still reconstruct the GLOBAL df (metadata-only rows for its
    empty chunks) — scores must equal the global reader exactly."""
    import os
    from jesterj_ray.index.build import merge_runs
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=32)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=32, num_shards=4, positions=True)
    # re-merge with a tiny chunk target to force multi-chunk hot terms
    for f in os.listdir(os.path.join(out, "manifest", "merge")):
        os.unlink(os.path.join(out, "manifest", "merge", f))

    merge_runs(out, 4, chunk_target=50)
    from jesterj_ray.index.epoch import publish_epoch
    publish_epoch(out)  # manual re-merge = a writer cycle: publish last
    g = IndexReader(out)
    assert len(g.term_entry("import")["chunks"]) > 1  # chunked for real
    slice_dirs = repartition_for_serving(out, str(tmp_path / "sl"),
                                         n_slices=3)
    readers = [IndexReader(d) for d in slice_dirs]
    ge = g.term_entry("import")
    for r in readers:
        e = r.term_entry("import")
        assert e is not None and e["df"] == ge["df"]
    for q in REFERENCE_QUERIES + [{"query": "import return", "k": 20}]:
        want = g.topk(q["query"], q["k"])
        got = merged_topk(readers, "topk", q["query"], q["k"])
        assert [x[0] for x in want] == [x[0] for x in got], q
        for (_, a), (_, b) in zip(want, got):
            assert a == pytest.approx(b, abs=1e-12)
    want = g.phrase_topk("import config", 10)
    got = merged_topk(readers, "phrase_topk", "import config", 10)
    assert [x[0] for x in want] == [x[0] for x in got]


def test_stale_tombstone_of_dropped_partition_ignored(small_corpus,
                                                      tmp_path):
    """ADVICE r03: a tombstone whose pid has no doc table (e.g. left
    behind by a rebuild that dropped the partition) must not KeyError
    the slice routing — repartition skips it like compact_index does."""
    import json
    import os
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=2, positions=False)
    from jesterj_ray.index.epoch import publish_epoch
    g = IndexReader(out)
    real_did = int(g.topk("import", 1)[0][0])
    stale_did = ((1 << 19) + 12345) << 32  # pid far outside the built set
    with open(os.path.join(out, "tombstones.json"), "w") as f:
        json.dump({"doc_ids": [real_did, stale_did]}, f)
    publish_epoch(out)
    slice_dirs = repartition_for_serving(out, str(tmp_path / "slices"),
                                         n_slices=2)
    # the real tombstone landed in exactly one slice; the stale one nowhere
    tombs = []
    for d in slice_dirs:
        p = os.path.join(d, "tombstones.json")
        if os.path.exists(p):
            tombs.extend(json.load(open(p))["doc_ids"])
    assert tombs == [real_did]
