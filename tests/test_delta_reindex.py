"""Per-document incremental re-index (delta_reindex): only changed docs
re-tokenize; queries on the delta index score EXACTLY like a full rebuild
(exact-stats reader).  r01 VERDICT #5."""
import glob
import os
import shutil

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


DELTA_KW = dict(text_col="text", key_col="rid", tokenizer="simple",
                docs_per_partition=64, num_shards=4, positions=True)


def write_split(df, paths, only=None):
    """``df`` in equal slices over ``paths`` — 60 rows each, so every
    file is ONE partition and a change to one file is a one-partition
    delta; ``only`` rewrites just those file indexes."""
    n = len(df) // len(paths)
    for i, path in enumerate(paths):
        if only is None or i in only:
            write_docs(df.iloc[i * n:(i + 1) * n].reset_index(drop=True),
                       path)


def build_split(df, tmp_path, name, n_files=5):
    os.makedirs(tmp_path / name)
    paths = [str(tmp_path / name / f"f{i}.parquet") for i in range(n_files)]
    write_split(df, paths)
    out = str(tmp_path / f"idx_{name}")
    build_index_rows(paths, out, **DELTA_KW)
    return paths, out


def _record_merge_jobs(monkeypatch, refuse=False):
    """Patch ``ray.data.from_items``: with ``refuse`` every job start
    raises; otherwise the shard lists of merge jobs (items that hold only
    a ``shard``) are recorded and the job runs."""
    import ray.data
    real = ray.data.from_items
    jobs = []

    def from_items(items, *a, **k):
        if refuse:
            raise AssertionError("a Ray Data job was started")
        if items and all(set(it) == {"shard"} for it in items):
            jobs.append(sorted(it["shard"] for it in items))
        return real(items, *a, **k)

    monkeypatch.setattr(ray.data, "from_items", from_items)
    return jobs


def _mtimes(pattern):
    return {f: os.stat(f).st_mtime_ns for f in glob.glob(pattern)}


def test_cheap_cycles_start_no_ray_job(tmp_path, monkeypatch):
    """The driver plans every shard's merge: a no-op resume, a delta of
    one doc in one file (one changed partition, so one delta run per
    touched shard), an idle delta cycle and COMPACT_AFTER_GENS + 1 more
    one-doc deltas (the last folds a shard) start no Ray Data job, and
    end at full-rebuild parity with the epoch id kept by the no-op
    cycles."""
    from jesterj_ray.index.build import COMPACT_AFTER_GENS
    from jesterj_ray.index.epoch import read_epoch
    df = make_docs()
    paths, out = build_split(df, tmp_path, "base")
    _record_merge_jobs(monkeypatch, refuse=True)
    epoch = read_epoch(out)["epoch"]
    build_index_rows(paths, out, **DELTA_KW)        # no-op resume
    assert read_epoch(out)["epoch"] == epoch
    df.loc[57, "text"] = "changedword alpha beta"
    write_split(df, paths, only={0})
    d = delta_reindex(paths, out, **DELTA_KW)       # one-doc delta
    assert d["reindexed_docs"] == 1 and d["tombstoned"] == 1
    assert glob.glob(f"{out}/segments/shard-*-gen-*.parquet")
    epoch = read_epoch(out)["epoch"]
    d = delta_reindex(paths, out, **DELTA_KW)       # idle watch cycle
    assert d["reindexed_docs"] == 0 and d["tombstoned"] == 0
    assert read_epoch(out)["epoch"] == epoch
    # enough one-doc deltas for alpha's shard to fold its segments
    bases = _mtimes(f"{out}/segments/shard-????.parquet")
    for rnd in range(COMPACT_AFTER_GENS + 1):
        df.loc[rnd + 10, "text"] = f"cheapword{rnd} alpha"
        write_split(df, paths, only={0})
        delta_reindex(paths, out, **DELTA_KW)
    assert _mtimes(f"{out}/segments/shard-????.parquet") != bases
    monkeypatch.undo()
    _, full = build_split(df, tmp_path, "full")
    assert score_map(out) == score_map(full)


def test_merge_job_gets_only_stale_shards(tmp_path, monkeypatch):
    """The merge job gets one item per shard that needs more than an
    append or fold of one delta run, and nothing else: shards gaining
    runs from two delta partitions and the one shard whose merge-manifest
    row was deleted before a resume.  A shard crossing COMPACT_AFTER_GENS
    with one new run folds in the driver."""
    from jesterj_ray.index.build import COMPACT_AFTER_GENS
    jobs = _record_merge_jobs(monkeypatch)
    df = make_docs()
    paths, out = build_split(df, tmp_path, "base")

    # a delta over two changed files: a shard gaining two delta runs
    # goes to the job, a shard gaining one is appended in the driver
    runs_before = set(glob.glob(f"{out}/runs/*/*.parquet"))
    df.loc[5, "text"] = "twofileword alpha"
    df.loc[67, "text"] = "otherfileword alpha"
    write_split(df, paths, only={0, 1})
    jobs.clear()
    delta_reindex(paths, out, **DELTA_KW)
    new_runs = {}
    for f in set(glob.glob(f"{out}/runs/*/*.parquet")) - runs_before:
        shard = int(os.path.basename(os.path.dirname(f)).split("-")[1])
        new_runs[shard] = new_runs.get(shard, 0) + 1
    two = sorted(s for s, n in new_runs.items() if n == 2)
    assert two and jobs == [two], (new_runs, jobs)
    gens = {int(os.path.basename(f).split("-")[1]) for f in
            glob.glob(f"{out}/segments/shard-*-gen-*.parquet")}
    assert gens == set(new_runs)
    _, full = build_split(df, tmp_path, "full")
    assert score_map(out) == score_map(full)

    # one-doc deltas until alpha's shard compacts: its one new run folds
    # into its segments in the driver, so no cycle starts a job
    compacted = []
    for rnd in range(COMPACT_AFTER_GENS + 1):
        df.loc[rnd + 10, "text"] = f"genword{rnd} alpha"
        write_split(df, paths, only={0})
        bases = _mtimes(f"{out}/segments/shard-????.parquet")
        jobs.clear()
        delta_reindex(paths, out, **DELTA_KW)
        compacted += [f for f, m in
                      _mtimes(f"{out}/segments/shard-????.parquet").items()
                      if bases[f] != m]
        assert jobs == [], (rnd, jobs)
    assert compacted
    full_paths, full2 = build_split(df, tmp_path, "full2")
    assert score_map(out) == score_map(full2)

    # a resume after one shard's merge-manifest row vanished re-merges
    # that shard alone (the build is plain: no delta partitions to drop)
    want = score_map(full2)
    os.unlink(f"{full2}/manifest/merge/part-00002.json")
    jobs.clear()
    build_index_rows(full_paths, full2, **DELTA_KW)
    assert jobs == [[2]]
    assert score_map(full2) == want


def test_driver_merge_crash_keeps_committed_epoch(tmp_path, monkeypatch):
    """A one-partition delta whose driver-side generation write fails
    raises, leaves the committed segments and epoch as they were (a reader
    opened before still answers), keeps the dead ids staged in
    tombstones.pending.json, and the next idle delta folds them in and
    matches a full rebuild; verify-index passes."""
    import json
    from jesterj_ray.__main__ import main
    df = make_docs()
    paths, out = build_split(df, tmp_path, "base")
    df.loc[10, "text"] = "firstword alpha"       # commit one generation
    write_split(df, paths, only={0})
    delta_reindex(paths, out, **DELTA_KW)
    segs = _mtimes(f"{out}/segments/*.parquet")
    assert any("-gen-" in f for f in segs)
    with open(f"{out}/epoch.json", "rb") as f:
        epoch = f.read()
    reader = IndexReader(out)
    before = score_map(out)

    df.loc[57, "text"] = "crashword alpha beta"
    write_split(df, paths, only={0})

    class Boom(Exception):
        pass

    def failing_writer(*a, **k):
        raise Boom("injected")

    monkeypatch.setattr(pq, "ParquetWriter", failing_writer)
    with pytest.raises(Boom):
        delta_reindex(paths, out, **DELTA_KW)
    monkeypatch.undo()

    assert _mtimes(f"{out}/segments/*.parquet") == segs
    assert not [f for f in os.listdir(f"{out}/segments")
                if f.startswith(".tmp-")]
    with open(f"{out}/epoch.json", "rb") as f:
        assert f.read() == epoch
    for q in QUERIES:      # the pre-crash reader still serves its epoch
        hits = reader.topk(q, 10000)
        keys = reader.doc_keys(np.array([d for d, _ in hits], np.int64))
        assert {k: round(s, 9) for k, (_, s) in zip(keys, hits)} == \
            before[q]
    with open(f"{out}/tombstones.pending.json") as f:
        assert json.load(f)["doc_ids"] == [57]    # pid 0, row 57

    d = delta_reindex(paths, out, **DELTA_KW)
    assert d["reindexed_docs"] == 0
    assert not os.path.exists(f"{out}/tombstones.pending.json")
    _, full = build_split(df, tmp_path, "full")
    assert score_map(out) == score_map(full)
    src = str(tmp_path / "all.parquet")
    write_docs(df, src)
    assert main(["verify-index", out, src, "--key-col", "rid",
                 "--sample", "20"]) == 0


def _record_plans(monkeypatch):
    """Patch ``build._plan_shard`` to record every plan the driver makes."""
    from jesterj_ray.index import build as build_mod
    real = build_mod._plan_shard
    plans = []

    def plan_shard(out_dir, shard):
        plans.append(real(out_dir, shard))
        return plans[-1]

    monkeypatch.setattr(build_mod, "_plan_shard", plan_shard)
    return plans


def test_fold_reads_a_bounded_number_of_files(tmp_path, monkeypatch):
    """Over 3 x (COMPACT_AFTER_GENS + 1) one-doc deltas, every fold reads
    the shard's base, its generations and the one new run — at most
    COMPACT_AFTER_GENS + 2 files, however many runs the shard has
    gathered — and the index scores like a full rebuild."""
    from jesterj_ray.index.build import COMPACT_AFTER_GENS
    df = make_docs()
    paths, out = build_split(df, tmp_path, "base")
    plans = _record_plans(monkeypatch)
    for rnd in range(3 * (COMPACT_AFTER_GENS + 1)):
        df.loc[rnd + 10, "text"] = f"foldword{rnd} alpha"
        write_split(df, paths, only={0})
        delta_reindex(paths, out, **DELTA_KW)
    folds = [p for p in plans if p["mode"] == "fold"]
    assert len({p["shard"] for p in folds}) >= 1 and len(folds) >= 3
    for p in folds:
        assert len(p["files"]) <= COMPACT_AFTER_GENS + 2, p["files"]
        assert p["new_runs"] == 1
        assert len(p["runs_merged"]) > len(p["files"])
    monkeypatch.undo()
    _, full = build_split(df, tmp_path, "full")
    assert score_map(out) == score_map(full)


def _shard_postings(index_dir, shard):
    """(term, chunk count) rows and the decoded (docs, tfs, pos) of one
    shard's segments, terms ascending, each term's chunks in order."""
    from jesterj_ray.index.codec import decode_runs
    t = pa.concat_tables(
        pq.read_table(f).replace_schema_metadata() for f in sorted(glob.glob(
            f"{index_dir}/segments/shard-{shard:04d}*.parquet")))
    t = t.sort_by([("term", "ascending"), ("chunk", "ascending")])
    return (list(zip(t["term"].to_pylist(), t["count"].to_pylist())),
            decode_runs(t))


def test_fold_with_tiny_chunks_keeps_postings(tmp_path, monkeypatch):
    """With ``chunk_target`` tiny and every run row below it, a fold's
    input rows (segment chunks) are coarser than runs, so its cut points
    may differ from a full re-merge's; the postings must not.  Every
    non-last chunk of a term holds at least chunk_target and fewer than
    2 x chunk_target postings in both."""
    import functools

    from jesterj_ray.index import build as build_mod
    from jesterj_ray.index import build_rows
    from jesterj_ray.index.build import COMPACT_AFTER_GENS
    ct = 12
    monkeypatch.setattr(build_rows, "merge_runs", functools.partial(
        build_mod.merge_runs, chunk_target=ct))
    kw = DELTA_KW | {"docs_per_partition": 10}
    df = make_docs()
    os.makedirs(tmp_path / "src")
    paths = [str(tmp_path / "src" / f"f{i}.parquet") for i in range(30)]
    write_split(df, paths)
    out = str(tmp_path / "idx")
    build_index_rows(paths, out, **kw)
    for rnd in range(COMPACT_AFTER_GENS + 1):
        df.loc[rnd + 3, "text"] = f"tinyword{rnd} " + \
            " ".join(f"w{j}" for j in range(20))     # every shard
        write_split(df, paths, only={0})
        delta_reindex(paths, out, **kw)
    assert not glob.glob(f"{out}/segments/*-gen-*")
    ref = str(tmp_path / "ref")
    shutil.copytree(out, ref)
    for f in glob.glob(f"{ref}/manifest/merge/*.json"):
        os.unlink(f)
    build_mod.merge_runs(ref, 4, chunk_target=ct)
    multi = 0
    for shard in range(4):
        rows, post = _shard_postings(out, shard)
        ref_rows, ref_post = _shard_postings(ref, shard)
        for a, b in zip(post, ref_post):
            assert np.array_equal(a, b)
        for got in (rows, ref_rows):
            per_term = {}
            for term, count in got:
                per_term.setdefault(term, []).append(count)
            for counts in per_term.values():
                multi += len(counts) > 1
                assert all(ct <= c < 2 * ct for c in counts[:-1]), counts
        assert {t for t, _ in rows} == {t for t, _ in ref_rows}
    assert multi


def _segment_tables(index_dir):
    return {os.path.basename(f): pq.read_table(f).replace_schema_metadata()
            for f in glob.glob(f"{index_dir}/segments/*.parquet")}


def test_crash_in_a_fold_replans_full(tmp_path, monkeypatch):
    """A fold that fails after its new base replaced the old one and
    before its merge-manifest row commits: a reader pinned to the old
    epoch raises IndexChangedError on that shard, and the next delta
    plans the shard 'full' from runs (the row's segment fingerprints no
    longer match, so the new base is never folded into itself).  The
    segments then equal an uninterrupted run's and score like a full
    rebuild."""
    from jesterj_ray.index import build as build_mod
    from jesterj_ray.index.build import COMPACT_AFTER_GENS, term_shard
    from jesterj_ray.index.epoch import IndexChangedError

    def cycle(df, paths, out, rnd):
        df.loc[rnd + 10, "text"] = f"crashgen{rnd} alpha"
        write_split(df, paths, only={0})
        return delta_reindex(paths, out, **DELTA_KW)

    df_ok = make_docs()
    paths_ok, out_ok = build_split(df_ok, tmp_path, "ok")
    for rnd in range(COMPACT_AFTER_GENS + 1):
        cycle(df_ok, paths_ok, out_ok, rnd)

    df = make_docs()
    paths, out = build_split(df, tmp_path, "base")
    for rnd in range(COMPACT_AFTER_GENS):
        cycle(df, paths, out, rnd)
    reader = IndexReader(out)        # pinned; no shard loaded yet

    class Boom(Exception):
        pass

    real_commit = build_mod.Manifest.commit
    crashed = []

    def commit(self, partition_id, **kw):
        if (kw.get("extra") or {}).get("mode") == "fold" and not crashed:
            crashed.append(partition_id)
            raise Boom("injected")
        return real_commit(self, partition_id, **kw)

    monkeypatch.setattr(build_mod.Manifest, "commit", commit)
    with pytest.raises(Boom):
        cycle(df, paths, out, COMPACT_AFTER_GENS)
    monkeypatch.undo()
    shard = crashed[0]
    term = next(t for t in ["alpha"] + [f"w{i}" for i in range(80)]
                if term_shard(pa.chunked_array([[t]]), 4)[0] == shard)
    with pytest.raises(IndexChangedError):
        reader.topk(term, 10)

    plans = _record_plans(monkeypatch)
    d = delta_reindex(paths, out, **DELTA_KW)
    assert d["reindexed_docs"] == 0
    assert [p["mode"] for p in plans if p["shard"] == shard] == ["full"]
    monkeypatch.undo()
    assert _segment_tables(out) == _segment_tables(out_ok)
    _, full = build_split(df, tmp_path, "full")
    assert score_map(out) == score_map(full)
