"""Per-document incremental re-index (delta_reindex): only changed docs
re-tokenize; queries on the delta index score EXACTLY like a full rebuild
(exact-stats reader).  r01 VERDICT #5."""
import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jesterj_ray.index.build_rows import build_index_rows, delta_reindex
from jesterj_ray.index.query import IndexReader

QUERIES = ["alpha beta", "gamma", "delta epsilon zeta", "changedword",
           "omega alpha"]


def make_docs(n=300, seed=9):
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "omega",
             "kappa", "sigma", "tau"] + [f"w{i}" for i in range(80)]
    texts = [" ".join(rng.choice(vocab, size=int(L)))
             for L in rng.integers(5, 60, size=n)]
    return pd.DataFrame({"rid": np.arange(n, dtype=np.int64), "text": texts})


def write_docs(df, path):
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path,
                   row_group_size=64)


def score_map(index_dir, queries=QUERIES, k=10000):
    # k exceeds every match count: doc_id tie-breaks at a k-cutoff differ
    # between delta and rebuild (delta docs get fresh doc_ids), but the
    # full (doc_key -> score) map must be identical
    r = IndexReader(index_dir)
    out = {}
    for q in queries:
        hits = r.topk(q, k)
        keys = r.doc_keys(np.array([d for d, _ in hits], dtype=np.int64))
        out[q] = {key: round(s, 9) for key, (_, s) in zip(keys, hits)}
    return out


def build(df, tmp_path, name):
    src = str(tmp_path / f"{name}.parquet")
    write_docs(df, src)
    out = str(tmp_path / f"idx_{name}")
    build_index_rows(src, out, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=64,
                     num_shards=4, positions=True)
    return src, out


def test_modify_one_doc(tmp_path):
    df = make_docs()
    src, out = build(df, tmp_path, "base")
    run_mtimes = {f: os.stat(f).st_mtime_ns
                  for f in glob.glob(out + "/runs/*/*.parquet")}

    df2 = df.copy()
    df2.loc[57, "text"] = "changedword alpha beta changedword"
    write_docs(df2, src)
    d = delta_reindex(src, out, text_col="text", key_col="rid",
                      tokenizer="simple", docs_per_partition=64,
                      num_shards=4, positions=True)
    assert d["reindexed_docs"] == 1       # ONLY the changed doc tokenized
    assert d["tombstoned"] == 1
    assert d["n_docs"] == 300
    # base partitions' runs untouched (no re-tokenize, no rewrite)
    for f, m in run_mtimes.items():
        assert os.stat(f).st_mtime_ns == m, f

    _, full = build(df2, tmp_path, "full")
    assert score_map(out) == score_map(full)
    # the changed doc is findable, the old content is not
    r = IndexReader(out)
    hits = r.topk("changedword", 10)
    assert len(hits) == 1
    assert r.doc_keys(np.array([hits[0][0]]))[0] == f"{57:012d}"
    # the phrase path works on the delta index
    ph = r.phrase_topk("changedword alpha", 5)
    assert len(ph) == 1

    # idempotence: a second delta over unchanged input does nothing
    d2 = delta_reindex(src, out, text_col="text", key_col="rid",
                       tokenizer="simple", docs_per_partition=64,
                       num_shards=4, positions=True)
    assert d2["reindexed_docs"] == 0 and d2["tombstoned"] == 0


def test_append_docs(tmp_path):
    df = make_docs(n=200)
    src, out = build(df, tmp_path, "base")
    extra = make_docs(n=90, seed=77)
    extra["rid"] += 200
    df2 = pd.concat([df, extra], ignore_index=True)
    write_docs(df2, src)
    d = delta_reindex(src, out, text_col="text", key_col="rid",
                      tokenizer="simple", docs_per_partition=64,
                      num_shards=4, positions=True)
    assert d["n_docs"] == 290
    # appended docs tokenize; the unchanged 192 docs of full base
    # partitions do not (the tail partition's survivors diff as unchanged)
    assert d["reindexed_docs"] <= 90 + 64
    _, full = build(df2, tmp_path, "full")
    assert score_map(out) == score_map(full)


def test_delete_docs_rowshift(tmp_path):
    df = make_docs(n=300)
    src, out = build(df, tmp_path, "base")
    df2 = df.drop(index=[123]).reset_index(drop=True)  # one doc gone
    write_docs(df2, src)
    d = delta_reindex(src, out, text_col="text", key_col="rid",
                      tokenizer="simple", docs_per_partition=64,
                      num_shards=4, positions=True)
    assert d["n_docs"] == 299
    # within-partition shifts keep (key, sha) pairs -> only docs that
    # crossed a 64-row partition boundary re-tokenize (4 boundaries)
    assert d["reindexed_docs"] <= 4
    _, full = build(df2, tmp_path, "full")
    assert score_map(out) == score_map(full)


def test_match_scores_drops_tombstoned(tmp_path):
    """match_scores (the boost / RRF / block-join match set) hides
    tombstoned docs exactly like the top-k paths: after a delta that
    changes one doc and deletes another it returns the same
    (doc_key, score) set as a full rebuild of the current files."""
    df = make_docs(n=300)
    src, out = build(df, tmp_path, "base")
    df2 = df.copy()
    df2.loc[57, "text"] = "changedword alpha beta changedword"
    df2 = df2.drop(index=[123]).reset_index(drop=True)
    write_docs(df2, src)
    delta_reindex(src, out, text_col="text", key_col="rid",
                  tokenizer="simple", docs_per_partition=64,
                  num_shards=4, positions=True)
    _, full = build(df2, tmp_path, "full")

    def match_map(index_dir, q):
        r = IndexReader(index_dir)
        ids, scores = r.match_scores(q)
        return dict(zip(r.doc_keys(ids), np.round(scores, 9).tolist()))

    assert IndexReader(out)._tombstone.sum() >= 2
    for q in QUERIES:
        got = match_map(out, q)
        assert got == match_map(full, q), q
        assert f"{123:012d}" not in got


def test_watch_and_reindex_cycles(tmp_path):
    """Continuous rescan loop: base build on cycle 0, per-doc delta on
    later cycles (only the changed doc tokenizes), unchanged cycles
    no-op."""
    from jesterj_ray.index.build_rows import watch_and_reindex
    df = make_docs(n=150)
    src = str(tmp_path / "w.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    loop = watch_and_reindex(str(tmp_path / "*.parquet"), out,
                             interval_s=0.01, max_cycles=3,
                             key_col="rid", docs_per_partition=64,
                             num_shards=2)
    s0 = next(loop)
    assert s0["mode"] == "base" and s0["n_docs"] == 150
    df.loc[10, "text"] = "freshword omega"
    write_docs(df, src)
    s1 = next(loop)
    assert s1["mode"] == "delta" and s1["reindexed_docs"] == 1
    s2 = next(loop)          # nothing changed
    assert s2["mode"] == "delta" and s2["reindexed_docs"] == 0
    assert next(loop, None) is None      # max_cycles respected
    r = IndexReader(out)
    docs, _ = r.postings("freshword")
    assert docs.size == 1


def test_multi_round_delta(tmp_path):
    """Repeated deltas: a doc changed in round 1 and AGAIN in round 2 must
    leave exactly one alive copy (the round-1 delta copy tombstones); a
    doc whose content reverts also resolves to one copy; scores match a
    full rebuild after every round."""
    df = make_docs(n=200)
    src, out = build(df, tmp_path, "base")

    def delta(df2):
        write_docs(df2, src)
        return delta_reindex(src, out, text_col="text", key_col="rid",
                             tokenizer="simple", docs_per_partition=64,
                             num_shards=4, positions=True)

    df1 = df.copy(); df1.loc[8, "text"] = "roundone alpha"
    d1 = delta(df1)
    assert d1["reindexed_docs"] == 1
    df2 = df1.copy(); df2.loc[8, "text"] = "roundtwo beta"
    d2 = delta(df2)
    assert d2["reindexed_docs"] == 1
    r = IndexReader(out)
    assert len(r.topk("roundtwo", 10)) == 1
    assert len(r.topk("roundone", 10)) == 0      # round-1 copy tombstoned
    _, full = build(df2, tmp_path, "full2")
    assert score_map(out, ["alpha beta", "roundtwo beta"]) == \
        score_map(full, ["alpha beta", "roundtwo beta"])

    # revert to the ORIGINAL content: still exactly one alive copy
    df3 = df2.copy(); df3.loc[8, "text"] = df.loc[8, "text"]
    d3 = delta(df3)
    assert d3["reindexed_docs"] == 1
    r = IndexReader(out)
    assert len(r.topk("roundtwo", 10)) == 0
    _, full3 = build(df3, tmp_path, "full3")
    assert score_map(out) == score_map(full3)

    # unchanged round over a delta-served doc: nothing re-indexes
    d4 = delta(df3.assign())  # rewrite same content (new mtime)
    assert d4["reindexed_docs"] == 0 and d4["tombstoned"] == 0

    # delete the delta-served doc entirely (row shift): its delta copy
    # must tombstone even though it never existed in any base table
    df5 = df3.drop(index=[8]).reset_index(drop=True)
    d5 = delta(df5)
    assert d5["n_docs"] == 199
    _, full5 = build(df5, tmp_path, "full5")
    assert score_map(out) == score_map(full5)


def test_delta_remerges_only_touched_shards(tmp_path):
    """Per-shard merge invalidation: a 1-doc delta re-merges ONLY the term
    shards holding the changed doc's terms; other segments are untouched
    byte-for-byte (no rewrite)."""
    df = make_docs(n=300)
    src, out = build(df, tmp_path, "base")
    seg_mtimes = {s: os.stat(f"{out}/segments/shard-{s:04d}.parquet")
                  .st_mtime_ns for s in range(4)}
    df2 = df.copy()
    df2.loc[57, "text"] = "changedword"
    write_docs(df2, src)
    delta_reindex(src, out, text_col="text", key_col="rid",
                  tokenizer="simple", docs_per_partition=64,
                  num_shards=4, positions=True)
    # base segments are NEVER rewritten by a delta (generational merge)
    for s in range(4):
        assert os.stat(f"{out}/segments/shard-{s:04d}.parquet") \
            .st_mtime_ns == seg_mtimes[s], s
    # the delta's new runs merged into GENERATION files — only for the
    # shards holding the changed doc's terms ("changedword" -> 1 shard)
    gens = sorted(glob.glob(f"{out}/segments/shard-*-gen-*.parquet"))
    assert len(gens) == 1, gens
    # queries still correct vs full rebuild
    _, full = build(df2, tmp_path, "full")
    assert score_map(out, ["changedword", "alpha beta"]) == \
        score_map(full, ["changedword", "alpha beta"])


def test_generations_accumulate_and_compact(tmp_path):
    """Each delta round appends generation segments (base untouched);
    a full rebuild compacts them away and still scores identically."""
    df = make_docs(n=200)
    src, out = build(df, tmp_path, "base")
    for rnd in range(1, 3):
        df.loc[rnd, "text"] = f"genword{rnd} alpha"
        write_docs(df, src)
        delta_reindex(src, out, text_col="text", key_col="rid",
                      tokenizer="simple", docs_per_partition=64,
                      num_shards=4, positions=True)
    gens = glob.glob(f"{out}/segments/shard-*-gen-*.parquet")
    assert gens  # generational segments exist
    r = IndexReader(out)
    assert len(r.topk("genword1", 5)) == 1
    assert len(r.topk("genword2", 5)) == 1
    # postings of a common term span generations in ascending doc order
    docs, _ = r.postings("alpha")
    assert (np.diff(docs) > 0).all()
    # full rebuild (force: invalidate all partitions) compacts generations
    out2 = str(tmp_path / "idx_compact")
    build_index_rows(src, out2, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=64,
                     num_shards=4, positions=True)
    assert not glob.glob(f"{out2}/segments/shard-*-gen-*.parquet")
    assert score_map(out) == score_map(out2)
