"""Checkpoint/resume — the FTI analog (FIXTURES.md test 7; reference
behavior: SimpleFileScannerImplFTITest.java:57-120 asserts previously
processed docs are NOT re-fed after reactivation)."""
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from jesterj_ray.index.build_rows import build_index_rows
from jesterj_ray.index.query import IndexReader
from jesterj_ray.sources.corpus import REFERENCE_QUERIES
from jesterj_ray.state.manifest import Manifest, STATUS_DEAD, STATUS_INDEXED


@pytest.fixture
def build(small_corpus, tmp_path):
    """Row build of ``small_corpus`` written in 8 row groups of 38 rows:
    8 partitions, pids 0-7."""
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(small_corpus, src, row_group_size=38)

    def run(out, **kw):
        return build_index_rows(src, out, text_col="content",
                                tokenizer="code", docs_per_partition=38,
                                num_shards=4, **kw)
    return run


def test_resume_after_injected_failure(build, tmp_path):
    out = str(tmp_path / "idx")
    # first run: partitions 2 and 5 fail (LogAndFail analog)
    with pytest.raises(Exception):
        build(out, fail_pids=[2, 5])
    man = Manifest(out, "build")
    done_first = set(man.completed_partitions())
    # the build raises only after its job ends: every other partition
    # committed, and no task of it is left to write files under the resume
    assert done_first == set(range(8)) - {2, 5}
    def run_file(p):
        return os.path.join(out, "runs", "shard-0000", f"part-{p:05d}.parquet")

    mtimes = {p: os.path.getmtime(run_file(p)) for p in done_first}

    # resume without the failure: only missing partitions run
    build(out)
    man2 = Manifest(out, "build")
    assert len(man2.completed_partitions()) == 8
    for p in done_first:  # committed run files were NOT rewritten
        assert os.path.getmtime(run_file(p)) == mtimes[p]

    # final index identical to a clean one-shot build
    clean = str(tmp_path / "clean")
    build(clean)
    ra, rb = IndexReader(out), IndexReader(clean)
    assert ra.n_docs == rb.n_docs and ra.avgdl == rb.avgdl
    for q in REFERENCE_QUERIES:
        assert ra.topk(q["query"], q["k"]) == rb.topk(q["query"], q["k"])


def test_poison_partition_goes_dead(build, tmp_path):
    """A partition that fails on every attempt is quarantined DEAD after
    MAX_ATTEMPTS (mirrors retry-then-DEAD, ScannerImpl.java:57,688-694)
    and the rest of the build completes."""
    out = str(tmp_path / "idx")
    for _ in range(3):
        try:
            build(out, fail_pids=[3])
        except Exception:
            continue
    man = Manifest(out, "build")
    rec = man.read(3)
    assert rec is not None and rec["status"] == STATUS_DEAD
    stats = json.load(open(os.path.join(out, "stats.json")))
    assert stats["dead_partitions"] == [3]
    # other partitions all indexed
    assert len(man.completed_partitions()) == 7


def test_merge_invalidation_on_new_runs(build, tmp_path):
    """Segments are re-merged when resume adds runs (merge fingerprint)."""
    out = str(tmp_path / "idx")
    with pytest.raises(Exception):
        build(out, fail_pids=[0])
    build(out)
    clean = str(tmp_path / "clean")
    build(clean)
    ra, rb = IndexReader(out), IndexReader(clean)
    for term in ("import", "return"):
        da, ta = ra.postings(term)
        db, tb = rb.postings(term)
        assert np.array_equal(da, db) and np.array_equal(ta, tb)


def test_manifest_atomic_commit(tmp_path):
    man = Manifest(str(tmp_path), "build")
    man.commit(1, status=STATUS_INDEXED, docs_seen=10, attempt=1)
    assert man.read(1)["docs_seen"] == 10
    assert man.completed_partitions() == [1]
    assert man.attempt_of(1) == 1
    assert man.read(99) is None
    # no temp files left behind
    leftover = [f for f in os.listdir(man.dir) if f.startswith(".tmp")]
    assert leftover == []


def test_rows_resume_invalidates_on_input_change(tmp_path, small_corpus):
    """Fingerprint-validated resume: a committed partition whose input
    slice changed is rebuilt; unchanged partitions are skipped."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    import time
    from jesterj_ray.index.build_rows import build_index_rows
    src = str(tmp_path / "c.parquet")
    pq.write_table(small_corpus, src, row_group_size=64)
    out = str(tmp_path / "idx")
    s1 = build_index_rows(src, out, text_col="content", tokenizer="code",
                          docs_per_partition=64, num_shards=4)
    # no-op resume: nothing rebuilt
    man = Manifest(out, "build")
    before = {p: man.read(p)["input_fingerprint"]
              for p in man.completed_partitions()}
    build_index_rows(src, out, text_col="content", tokenizer="code",
                     docs_per_partition=64, num_shards=4)
    # rewrite the source with one changed row (same shape/row count)
    df = small_corpus.to_pandas()
    df.loc[0, "content"] = "changed_token_xyz only"
    time.sleep(1.1)  # ensure mtime advances at 1s resolution
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=64)
    s2 = build_index_rows(src, out, text_col="content", tokenizer="code",
                          docs_per_partition=64, num_shards=4)
    man2 = Manifest(out, "build")
    after = {p: man2.read(p)["input_fingerprint"]
             for p in man2.completed_partitions()}
    assert before != after            # fingerprints rotated with the input
    # the changed token is now searchable
    from jesterj_ray.index.query import IndexReader
    r = IndexReader(out)
    docs, _ = r.postings("xyz")
    assert docs.size == 1


def test_per_row_poison_quarantine(tmp_path, small_corpus):
    """A document whose tokenization raises is quarantined (DEAD row file)
    and excluded from the index; the partition still commits (per-doc
    retry-then-DEAD analog at row granularity)."""
    import glob
    import pyarrow.parquet as pq
    import pandas as pd
    from jesterj_ray.index.build_rows import build_index_rows
    from jesterj_ray.tokenize import tokenizer as tokmod

    def poison_tok(text):
        if "poison_marker_xq" in text:
            raise ValueError("poison document")
        return tokmod.code_tokenize(text)

    df = small_corpus.to_pandas()
    df.loc[3, "content"] = "some poison_marker_xq content"
    df.loc[7, "content"] = "another poison_marker_xq row"
    src = str(tmp_path / "c.parquet")
    pq.write_table(
        __import__("pyarrow").Table.from_pandas(df, preserve_index=False),
        src, row_group_size=64)

    tokmod.TOKENIZERS["poison"] = poison_tok
    try:
        out = str(tmp_path / "idx")
        stats = build_index_rows(src, out, text_col="content",
                                 tokenizer="poison",
                                 docs_per_partition=1000, num_shards=4)
        qfiles = glob.glob(os.path.join(out, "quarantine", "*.parquet"))
        assert qfiles
        q = pd.concat([pq.read_table(f).to_pandas() for f in qfiles])
        assert len(q) == 2 and set(q["status"]) == {"DEAD"}
        assert all("poison" in m for m in q["message"])
        assert stats["n_docs"] == len(df) - 2
        # quarantined token never indexed
        r = IndexReader(out)
        docs, _ = r.postings("poison")
        assert docs.size == 0
    finally:
        del tokmod.TOKENIZERS["poison"]
