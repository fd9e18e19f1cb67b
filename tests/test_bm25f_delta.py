"""BM25F field-family per-doc delta (r03 VERDICT #5): one changed doc
re-tokenizes once per field, the family's doc spaces stay aligned
(identical delta pids + tombstones via change_col full-document sha),
and BM25F scores equal a full family rebuild exactly."""
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jesterj_ray.index.bm25f import BM25FReader, delta_reindex_fields
from jesterj_ray.index.build_rows import build_index_rows

FIELDS = ("title", "body")
QUERIES = ["alpha beta", "gamma changedword", "omega", "delta epsilon"]


def make_split(n=200, seed=11):
    """Synthetic pre-split corpus: title/body field columns plus the
    full-document text column (change_col)."""
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "omega", "kappa"] + [f"w{i}" for i in range(40)]
    titles = [" ".join(rng.choice(vocab, size=3)) for _ in range(n)]
    bodies = [" ".join(rng.choice(vocab, size=int(L)))
              for L in rng.integers(5, 40, size=n)]
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "title": titles, "body": bodies,
        "text": [f"{t} {b}" for t, b in zip(titles, bodies)]})


def write_split(df, path):
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path,
                   row_group_size=64)


def build_family(df, tmp_path, name):
    src = str(tmp_path / f"{name}.parquet")
    write_split(df, src)
    dirs = {f: str(tmp_path / f"idx_{name}_{f}") for f in FIELDS}
    for f, d in dirs.items():
        build_index_rows(src, d, text_col=f, key_col="doc_id",
                         tokenizer="simple", docs_per_partition=64,
                         num_shards=4, change_col="text")
    return src, dirs


def family_scores(dirs, k=10000):
    r = BM25FReader(dirs)
    out = {}
    for q in QUERIES:
        hits = r.topk(q, k)
        keys = r.doc_keys(np.array([d for d, _ in hits], dtype=np.int64))
        out[q] = {key: round(s, 9) for key, (_, s) in zip(keys, hits)}
    return out


def test_family_delta_matches_full_rebuild(ray_session, tmp_path):
    df = make_split()
    src, dirs = build_family(df, tmp_path, "base")

    # change ONE doc: body only — the field-sha trap (title slice
    # unchanged), which change_col='text' must still re-feed in BOTH
    # fields so the doc spaces stay aligned
    df2 = df.copy()
    df2.loc[7, "body"] = df2.loc[7, "body"] + " changedword"
    df2.loc[7, "text"] = f"{df2.loc[7, 'title']} {df2.loc[7, 'body']}"
    write_split(df2, src)

    stats = delta_reindex_fields(src, dirs, change_col="text",
                                 key_col="doc_id", tokenizer="simple",
                                 docs_per_partition=64, num_shards=4)
    for f in FIELDS:
        assert stats[f]["reindexed_docs"] == 1, stats
        assert stats[f]["tombstoned"] == 1, stats
    assert stats["title"]["delta_partitions"] == \
        stats["body"]["delta_partitions"]

    _, rebuilt = build_family(df2, tmp_path, "rebuild")
    got = family_scores(dirs)
    want = family_scores(rebuilt)
    assert got == want


def test_family_delta_deletion_and_second_round(ray_session, tmp_path):
    df = make_split(n=150, seed=4)
    src, dirs = build_family(df, tmp_path, "b2")

    # round 1: delete one doc, change another
    df2 = df.drop(index=20).reset_index(drop=True).copy()
    mask = df2["doc_id"] == 77
    df2.loc[mask, "title"] = "omega omega omega"
    df2.loc[mask, "text"] = (df2.loc[mask, "title"] + " " +
                             df2.loc[mask, "body"])
    write_split(df2, src)
    delta_reindex_fields(src, dirs, change_col="text", key_col="doc_id",
                         tokenizer="simple", docs_per_partition=64,
                         num_shards=4)
    # round 2: change the SAME doc again (overlay-catalog path)
    df3 = df2.copy()
    mask = df3["doc_id"] == 77
    df3.loc[mask, "body"] = df3.loc[mask, "body"] + " zeta zeta"
    df3.loc[mask, "text"] = (df3.loc[mask, "title"] + " " +
                             df3.loc[mask, "body"])
    write_split(df3, src)
    stats = delta_reindex_fields(src, dirs, change_col="text",
                                 key_col="doc_id", tokenizer="simple",
                                 docs_per_partition=64, num_shards=4)
    for f in FIELDS:
        assert stats[f]["reindexed_docs"] == 1

    _, rebuilt = build_family(df3, tmp_path, "r2")
    assert family_scores(dirs) == family_scores(rebuilt)


def test_misaligned_family_refused(ray_session, tmp_path):
    """A field delta'd ALONE diverges the family; the reader must refuse
    rather than score wrong."""
    from jesterj_ray.index.build_rows import delta_reindex
    df = make_split(n=100, seed=2)
    src, dirs = build_family(df, tmp_path, "mis")
    df2 = df.copy()
    df2.loc[3, "body"] = df2.loc[3, "body"] + " solobody"
    df2.loc[3, "text"] = f"{df2.loc[3, 'title']} {df2.loc[3, 'body']}"
    write_split(df2, src)
    delta_reindex(src, dirs["body"], text_col="body", key_col="doc_id",
                  tokenizer="simple", docs_per_partition=64,
                  num_shards=4, change_col="text")
    with pytest.raises(ValueError, match="doc space|tombstones"):
        BM25FReader(dirs)


def test_change_col_mismatch_refused(ray_session, tmp_path):
    df = make_split(n=80, seed=3)
    src, dirs = build_family(df, tmp_path, "cc")
    from jesterj_ray.index.build_rows import delta_reindex
    with pytest.raises(ValueError, match="change_col"):
        delta_reindex(src, dirs["title"], text_col="title",
                      key_col="doc_id", tokenizer="simple",
                      docs_per_partition=64, num_shards=4)


def test_watch_loop_family_with_serving_reopen(ray_session, tmp_path):
    """The full deployment cycle: family watch loop (base build, per-doc
    deltas, per-field compaction) publishing while a sharded BM25F
    service stays up — on_publish re-splits the compacted family into
    the same slice root and reopens the service — every cycle's queries
    equal a fresh unsharded reader over the current corpus."""
    from jesterj_ray.index.bm25f import watch_and_reindex_fields
    from jesterj_ray.index.repartition import repartition_bm25f_for_serving
    from jesterj_ray.index.serving import BM25FShardedService
    df = make_split(n=160, seed=9)
    src = str(tmp_path / "w.parquet")
    write_split(df, src)
    dirs = {f: str(tmp_path / f"w_{f}") for f in FIELDS}
    root = str(tmp_path / "slices")
    loop = watch_and_reindex_fields(
        src, dirs, change_col="text", key_col="doc_id",
        tokenizer="simple", interval_s=0.0, max_cycles=4,
        docs_per_partition=64, num_shards=4, compact_every=1)
    svc = None

    def resplit_and_reopen(stats):
        # a cycle without compaction leaves a delta-built (exact_stats)
        # family that cannot be re-split: serving keeps its last split
        if "compaction" in stats:
            repartition_bm25f_for_serving(dirs, root, n_slices=2)
            svc.reopen()

    try:
        stats = next(loop)
        assert stats["mode"] == "base"
        svc = BM25FShardedService(
            repartition_bm25f_for_serving(dirs, root, n_slices=2),
            reopen_on_change=True)
        assert svc.topk("alpha omega", 10) == \
            BM25FReader(dirs).topk("alpha omega", 10)

        # cycle 2: one change; compact_every=1 folds tombstones so the
        # family re-splits and the slices reopen cleanly
        df.loc[5, "body"] = df.loc[5, "body"] + " omega omega"
        df.loc[5, "text"] = f"{df.loc[5, 'title']} {df.loc[5, 'body']}"
        write_split(df, src)
        loop2 = watch_and_reindex_fields(
            src, dirs, change_col="text", key_col="doc_id",
            tokenizer="simple", interval_s=0.0, max_cycles=1,
            docs_per_partition=64, num_shards=4, compact_every=1,
            on_publish=resplit_and_reopen)
        stats = next(loop2)
        assert stats["mode"] == "delta"
        assert all(s["reindexed_docs"] == 1
                   for s in stats["fields"].values())
        assert "compaction" in stats
        fresh = BM25FReader(dirs)
        for q in ("alpha omega", "gamma delta", "omega"):
            assert svc.topk(q, 12) == fresh.topk(q, 12), q

        # cycle 3: no change -> zero re-feeds, serving unaffected
        loop3 = watch_and_reindex_fields(
            src, dirs, change_col="text", key_col="doc_id",
            tokenizer="simple", interval_s=0.0, max_cycles=1,
            docs_per_partition=64, num_shards=4,
            on_publish=resplit_and_reopen)
        stats = next(loop3)
        assert all(s["reindexed_docs"] == 0
                   for s in stats["fields"].values())
        assert svc.topk("omega", 12) == fresh.topk("omega", 12)
    finally:
        if svc is not None:
            svc.shutdown()
