"""Epoch manifests (index/epoch.py): atomic point-in-time reader views.

Writers publish epoch.json LAST; readers pin its file list at open —
post-epoch generations are invisible (consistent old view through a
whole delta cycle), replaced pinned files raise IndexChangedError."""
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jesterj_ray.index.build_rows import build_index_rows, delta_reindex
from jesterj_ray.index.epoch import (IndexChangedError, publish_epoch,
                                     read_epoch)
from jesterj_ray.index.query import IndexReader


def _docs(n=200, seed=3):
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "omega"] + \
        [f"w{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, size=int(L)))
             for L in rng.integers(5, 40, size=n)]
    return pd.DataFrame({"rid": np.arange(n, dtype=np.int64),
                         "text": texts})


def _write(df, path):
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path,
                   row_group_size=64)


KW = dict(text_col="text", key_col="rid", tokenizer="simple",
          docs_per_partition=64, num_shards=2)


def test_epoch_published_bumped_and_stable(tmp_path):
    df = _docs()
    src = str(tmp_path / "c.parquet")
    _write(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, **KW)
    e1 = read_epoch(out)
    assert e1 is not None and e1["epoch"] == 1
    assert "stats.json" in e1["files"]
    assert any(r.startswith("segments/") for r in e1["files"])
    assert any(r.startswith("docs/") for r in e1["files"])
    # unchanged resume: epoch id stays stable
    build_index_rows(src, out, **KW)
    assert read_epoch(out)["epoch"] == 1
    # a delta cycle publishes a new epoch
    df.loc[5, "text"] = "changed omega alpha"
    _write(df, src)
    delta_reindex(src, out, **KW)
    e2 = read_epoch(out)
    assert e2["epoch"] == 2
    assert any("-gen-" in r for r in e2["files"])


def test_reader_pins_epoch_across_delta_cycle(tmp_path):
    """A reader opened before a delta cycle serves the OLD epoch for its
    whole lifetime: the cycle's generation segments, tombstone rewrite
    and stats rewrite are invisible (no torn view), while a reader opened
    after the publish sees the new state."""
    df = _docs()
    src = str(tmp_path / "c.parquet")
    _write(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, **KW)
    old = IndexReader(out)
    before = old.topk("omega", 50)
    df.loc[7, "text"] = "omega omega omega omega"
    _write(df, src)
    delta_reindex(src, out, **KW)
    # old reader: identical pre-delta results (gen files + new tombstones
    # exist on disk but are outside its pinned epoch)
    assert old.topk("omega", 50) == before
    new = IndexReader(out)
    assert new.topk("omega", 50) != before
    assert new._epoch["epoch"] == old._epoch["epoch"] + 1


def test_reader_detects_replaced_pinned_file(tmp_path):
    """A concurrent full re-merge os.replace()s base segments; a reader
    still on the old epoch must fail HONESTLY (IndexChangedError) on its
    next cold shard load instead of silently mixing views — and a fresh
    reader works once the writer publishes."""
    from jesterj_ray.index.build import merge_runs
    df = _docs()
    src = str(tmp_path / "c.parquet")
    _write(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, **KW)
    old = IndexReader(out)  # no queries yet: shard loads are lazy
    # simulate a mid-flight writer: re-merge (different chunking) without
    # publishing yet
    for f in os.listdir(os.path.join(out, "manifest", "merge")):
        os.unlink(os.path.join(out, "manifest", "merge", f))
    merge_runs(out, 2, chunk_target=50)
    with pytest.raises(IndexChangedError):
        old.topk("omega", 10)
    publish_epoch(out)
    fresh = IndexReader(out)
    assert fresh.topk("omega", 10)


def test_reader_without_epoch_keeps_listing_behavior(tmp_path):
    """Pre-epoch layouts (no epoch.json) keep the directory-listing
    behavior: the reader works and applies whatever files exist."""
    df = _docs()
    src = str(tmp_path / "c.parquet")
    _write(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, **KW)
    with_epoch = IndexReader(out).topk("omega", 20)
    os.unlink(os.path.join(out, "epoch.json"))
    r = IndexReader(out)
    assert r._epoch is None
    assert r.topk("omega", 20) == with_epoch


def test_compaction_vs_pinned_reader(tmp_path):
    """The epoch docstring's compaction claim: a reader pinned to the
    pre-compaction epoch either keeps serving (already-loaded state) or
    fails HONESTLY with IndexChangedError on a cold file load — never a
    raw FileNotFoundError, never a silently mixed view — and a reader
    opened after compaction serves the compacted index."""
    from jesterj_ray.index.compact import compact_index
    from jesterj_ray.index.query import delete_docs
    df = _docs(300)
    src = str(tmp_path / "c.parquet")
    _write(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, **KW)
    warm = IndexReader(out)
    warm_hits = warm.topk("omega", 20)     # shard 'omega' now cached
    cold = IndexReader(out)                # no shard loads yet
    victims = warm.doc_keys(
        np.array([h[0] for h in warm_hits[:3]], dtype=np.int64))
    assert delete_docs(out, victims) == 3
    assert compact_index(out)["compacted_partitions"] > 0
    # cold reader: pinned files were replaced -> honest error on use
    with pytest.raises(IndexChangedError):
        cold.topk("omega", 20)
    # fresh reader: compacted view, victims gone
    fresh = IndexReader(out)
    fresh_keys = fresh.doc_keys(np.array(
        [h[0] for h in fresh.topk("omega", 50)], dtype=np.int64))
    assert not set(victims) & set(fresh_keys)
    assert read_epoch(out)["epoch"] > warm._epoch["epoch"]


def test_sharded_service_reopens_across_delta_and_compaction(
        ray_session, tmp_path):
    """r03 VERDICT #7: with ``reopen_on_change=True`` the sharded
    service survives a whole writer cycle (per-doc delta on the source,
    compaction, re-split into the SAME slice root, which REPLACES pinned
    slice files) — queries keep succeeding, post-reopen results equal a
    fresh reader, and a pre-epoch reader's results stay unchanged
    throughout (the watch loop can publish while serving stays up)."""
    from jesterj_ray.index.compact import compact_index
    from jesterj_ray.index.repartition import repartition_for_serving
    from jesterj_ray.index.serving import ShardedQueryService
    df = _docs(300)
    src = str(tmp_path / "c.parquet")
    _write(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, **KW)
    root = str(tmp_path / "slices")
    slices = repartition_for_serving(out, root, n_slices=2)
    svc = ShardedQueryService(slices, reopen_on_change=True)
    before = svc.topk("omega", 20)
    pre = IndexReader(out)
    assert pre.topk("omega", 20) == before  # sharded == unsharded
    # delta cycle: generational append to the source — the slices are
    # untouched and keep serving the old view without error
    df.loc[7, "text"] = "omega omega omega omega"
    _write(df, src)
    delta_reindex(src, out, **KW)
    assert svc.topk("omega", 20) == before
    assert pre.topk("omega", 20) == before
    # compaction + re-split REPLACES pinned slice files: the actors'
    # next cold fetch raises IndexChangedError -> the service reopens
    # every actor at the new split's epoch and retries
    assert compact_index(out)["compacted_partitions"] > 0
    assert repartition_for_serving(out, root, n_slices=2) == slices
    fresh = IndexReader(out)
    assert svc.topk("alpha", 30) == fresh.topk("alpha", 30)  # cold term
    assert svc.topk("omega", 30) == fresh.topk("omega", 30)
    assert svc.topk_many([("beta", 10), ("gamma", 10)]) == [
        fresh.topk("beta", 10), fresh.topk("gamma", 10)]
    svc.shutdown()
    # without the opt-in, the same cycle surfaces the honest error
    svc2 = ShardedQueryService(slices)
    svc2.topk("omega", 5)  # warm the actors on this epoch
    df.loc[9, "text"] = "gamma gamma gamma"
    _write(df, src)
    delta_reindex(src, out, **KW)
    compact_index(out)
    repartition_for_serving(out, root, n_slices=2)
    with pytest.raises(Exception) as ei:
        for term in ("alpha", "beta", "delta", "omega", "gamma"):
            svc2.topk(term, 5)
    from jesterj_ray.index.serving import _caused_by_index_change
    assert _caused_by_index_change(ei.value)
    # a reopen that fails on one slice (a pinned file briefly missing)
    # must not leave the other slice's new reader merging with a stale
    # one: the next fan-out reopens every actor first
    doc = next(r for r in read_epoch(slices[1])["files"]
               if r.startswith("docs/"))
    hidden = os.path.join(slices[1], doc)
    os.rename(hidden, hidden + ".moved")
    with pytest.raises(Exception) as ei:
        svc2.reopen()
    assert _caused_by_index_change(ei.value)
    os.rename(hidden + ".moved", hidden)
    assert svc2.topk("omega", 30) == IndexReader(out).topk("omega", 30)
    svc2.shutdown()


def test_bm25f_service_reopens_after_family_delta_and_compaction(
        ray_session, tmp_path):
    """BM25F sharded serving across a family delta + per-field
    compaction: a delta-built family cannot be re-split until every
    field compacts; the re-split into the same slice root then lands
    with one explicit reopen, and queries succeed with exact parity to a
    fresh unsharded BM25FReader."""
    from jesterj_ray.index.bm25f import BM25FReader, delta_reindex_fields
    from jesterj_ray.index.compact import compact_index
    from jesterj_ray.index.repartition import repartition_bm25f_for_serving
    from jesterj_ray.index.serving import BM25FShardedService
    rng = np.random.default_rng(5)
    vocab = ["alpha", "beta", "gamma", "omega"] + \
        [f"w{i}" for i in range(40)]
    n = 200
    titles = [" ".join(rng.choice(vocab, size=3)) for _ in range(n)]
    bodies = [" ".join(rng.choice(vocab, size=int(L)))
              for L in rng.integers(5, 30, size=n)]
    df = pd.DataFrame({"rid": np.arange(n, dtype=np.int64),
                       "title": titles, "body": bodies,
                       "text": [f"{t} {b}" for t, b in
                                zip(titles, bodies)]})
    src = str(tmp_path / "fam.parquet")
    _write(df, src)
    dirs = {f: str(tmp_path / f"idx_{f}") for f in ("title", "body")}
    for f, d in dirs.items():
        build_index_rows(src, d, text_col=f, key_col="rid",
                         tokenizer="simple", docs_per_partition=64,
                         num_shards=2, change_col="text")
    root = str(tmp_path / "slices")
    slices = repartition_bm25f_for_serving(dirs, root, n_slices=2)
    svc = BM25FShardedService(slices, reopen_on_change=True)
    before = svc.topk("omega alpha", 15)
    assert before == BM25FReader(dirs).topk("omega alpha", 15)
    df.loc[7, "body"] = "omega omega omega"
    df.loc[7, "text"] = f"{df.loc[7, 'title']} {df.loc[7, 'body']}"
    _write(df, src)
    delta_reindex_fields(src, dirs, change_col="text", key_col="rid",
                         tokenizer="simple", docs_per_partition=64,
                         num_shards=2)
    with pytest.raises(ValueError, match="exact_stats"):
        repartition_bm25f_for_serving(dirs, root, n_slices=2)
    for d in dirs.values():
        compact_index(d)
    assert repartition_bm25f_for_serving(dirs, root, n_slices=2) == slices
    # warm actors keep serving the pinned pre-delta epoch CONSISTENTLY
    # (open handles outlive the os.replace) — correct, but stale
    assert svc.topk("omega alpha", 15) == before
    # the publisher's notification (Solr searcher-swap analog): one
    # explicit reopen re-pins every slice at the new split's epoch
    svc.reopen()
    fresh = BM25FReader(dirs)
    assert svc.topk("beta gamma", 10) == fresh.topk("beta gamma", 10)
    assert svc.topk("omega alpha", 15) == fresh.topk("omega alpha", 15)
    assert svc.topk("omega alpha", 15) != before
    svc.shutdown()


def test_epoch_chaos_concurrent_reader_writer(ray_session, tmp_path):
    """r04 VERDICT #8: delta -> compact -> re-split writer cycles in a
    background thread while a ShardedQueryService answers queries from
    the slice root — every answer must equal SOME published split's
    snapshot (never a torn view), or surface as an honest
    IndexChangedError; after the dust settles the service equals a fresh
    reader."""
    import threading
    import time

    from jesterj_ray.index.compact import compact_index
    from jesterj_ray.index.repartition import repartition_for_serving
    from jesterj_ray.index.serving import (ShardedQueryService,
                                           _caused_by_index_change)
    df = _docs(260, seed=11)
    src = str(tmp_path / "chaos.parquet")
    _write(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, **KW)
    root = str(tmp_path / "slices")
    slices = repartition_for_serving(out, root, n_slices=2)
    queries = ["omega", "alpha", "gamma beta"]
    k = 15
    snapshots = {q: [IndexReader(out).topk(q, k)] for q in queries}
    snap_lock = threading.Lock()
    writer_err = []

    def writer():
        try:
            for cycle in range(3):
                df.loc[7, "text"] = df.loc[7, "text"] + " omega"
                df.loc[90 + cycle, "text"] = "gamma beta gamma"
                _write(df, src)
                delta_reindex(src, out, **KW)
                time.sleep(0.05)
                compact_index(out)
                repartition_for_serving(out, root, n_slices=2)
                with snap_lock:
                    r = IndexReader(out)
                    for q in queries:
                        snapshots[q].append(r.topk(q, k))
                time.sleep(0.05)
        except BaseException as e:          # surfaced in the main thread
            writer_err.append(e)

    svc = ShardedQueryService(slices, reopen_on_change=True)
    try:
        for q in queries:
            assert svc.topk(q, k) == snapshots[q][0]
        t = threading.Thread(target=writer)
        t.start()
        observed = {q: [] for q in queries}
        errors = 0
        while t.is_alive():
            for q in queries:
                try:
                    observed[q].append(svc.topk(q, k))
                except Exception as e:
                    assert _caused_by_index_change(e), e
                    errors += 1
            time.sleep(0.01)
        t.join()
        assert not writer_err, writer_err
        # every observed answer is a published snapshot — never torn
        for q in queries:
            assert observed[q], "no queries overlapped the chaos window"
            for ans in observed[q]:
                assert ans in snapshots[q], (q, ans)
        # convergence: post-chaos service == fresh reader
        svc.reopen()
        fresh = IndexReader(out)
        for q in queries:
            assert svc.topk(q, k) == fresh.topk(q, k)
    finally:
        svc.shutdown()
