"""Round-3 fixes: distributed delta diff (no driver-side text), history
retention cap, generational compaction trigger, doc-count-balanced serving
slices."""
import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings, strategies as st

from jesterj_ray.index.build import COMPACT_AFTER_GENS
from jesterj_ray.index.build_rows import build_index_rows, delta_reindex
from jesterj_ray.index.query import IndexReader
from jesterj_ray.state.manifest import (HISTORY_MAX_LINES, Manifest)


def make_docs(n=300, seed=9):
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "omega",
             "kappa", "sigma", "tau"] + [f"w{i}" for i in range(80)]
    texts = [" ".join(rng.choice(vocab, size=int(L)))
             for L in rng.integers(5, 60, size=n)]
    return pd.DataFrame({"rid": np.arange(n, dtype=np.int64), "text": texts})


def write_docs(df, path, row_group_size=64):
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path,
                   row_group_size=row_group_size)


def score_map(index_dir, queries, k=10000):
    r = IndexReader(index_dir)
    out = {}
    for q in queries:
        hits = r.topk(q, k)
        keys = r.doc_keys(np.array([d for d, _ in hits], dtype=np.int64))
        out[q] = {key: round(s, 9) for key, (_, s) in zip(keys, hits)}
    return out


QUERIES = ["alpha beta", "gamma", "delta epsilon zeta", "omega alpha"]


def test_force_all_partitions_distributed(tmp_path):
    """FORCE-marking every partition of a multi-partition corpus re-feeds
    every doc through PER-PARTITION distributed diff tasks: each changed
    partition writes its own delta partition (text never accumulates on
    the driver — r02 VERDICT #1), and scores equal a full rebuild."""
    df = make_docs(n=300)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=64,
                     num_shards=4, positions=True)
    man = Manifest(out, "build")
    pids = man.completed_partitions()
    assert len(pids) >= 4  # multi-partition corpus
    for pid in pids:
        man.mark_force(pid)
    d = delta_reindex(src, out, text_col="text", key_col="rid",
                      tokenizer="simple", docs_per_partition=64,
                      num_shards=4, positions=True)
    assert d["reindexed_docs"] == 300       # every doc re-fed
    # one delta partition PER diffed source partition — the diff/tokenize/
    # write ran per-task, not as one driver-side accumulation
    assert len(d["delta_partitions"]) == len(pids)
    assert d["n_docs"] == 300
    out2 = str(tmp_path / "idx_full")
    build_index_rows(src, out2, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=64,
                     num_shards=4, positions=True)
    assert score_map(out, QUERIES) == score_map(out2, QUERIES)


def test_differ_bookkeeping_has_no_text(tmp_path):
    """The diff stage's returned rows carry only kind/key/id/sha/pid —
    document text stays inside the tasks."""
    import ray
    from jesterj_ray.index.build_rows import (_make_partition_differ,
                                              _part_fingerprint,
                                              plan_row_partitions)
    df = make_docs(n=100)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=64,
                     num_shards=2)
    df.loc[5, "text"] = "changedword alpha"
    write_docs(df, src)
    parts = plan_row_partitions([src], 64)
    p = parts[0] | {"fingerprint": _part_fingerprint(parts[0]),
                    "force": False, "delta_pid": (1 << 20)}
    differ = _make_partition_differ(
        out, text_col="text", key_col="rid", tokenizer="simple",
        num_shards=2, positions=False,
        cat_sha_ref=ray.put(pd.Series(dtype=object)),
        cat_id_ref=ray.put(pd.Series(dtype=np.int64)))
    book = differ(pd.DataFrame([p]))
    assert set(book.columns) == {"kind", "key", "id", "sha", "pid"}
    assert (book["kind"] == "catadd").sum() == 1  # only the changed doc
    assert not any("changedword" in str(v) for v in book.values.ravel())


def test_history_bounded_append(tmp_path, monkeypatch):
    """Manifest.log appends O(1) per transition and compacts beyond the
    retention cap: a long watch-style loop keeps history files bounded
    (reference FTI_TTL analog, JesterJAppender.java:56)."""
    import jesterj_ray.state.manifest as mmod
    monkeypatch.setattr(mmod, "_HIST_COMPACT_BYTES", 4096)
    monkeypatch.setattr(mmod, "HISTORY_MAX_LINES", 40)
    man = Manifest(str(tmp_path), "build")
    for i in range(2000):
        man.log(0, "PROCESSING", attempt=1, message=f"cycle {i}")
    path = man._hist_path(0)
    assert os.path.getsize(path) <= 2 * 4096  # bounded, never O(total)
    assert len(man.history(0)) <= 4096 // 40  # compacted to the tail
    # retry counting still reads the (retained) tail correctly
    man.log(0, "ERROR", attempt=1)
    man.log(0, "ERROR", attempt=2)
    assert man.consecutive_errors(0) == 2


def test_compaction_trigger_bounds_generations(tmp_path):
    """A shard accumulating > COMPACT_AFTER_GENS generations compacts
    (full re-merge into a new base) instead of appending — long delta
    loops keep segment counts bounded, scores stay full-rebuild-exact."""
    df = make_docs(n=200)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=64, num_shards=4, positions=True)
    build_index_rows(src, out, **kw)
    rounds = 2 * COMPACT_AFTER_GENS
    for rnd in range(1, rounds + 1):
        # every round's change contains "alpha", so alpha's shard gains a
        # generation each round and must hit the compaction trigger
        df.loc[rnd, "text"] = f"genword{rnd} alpha"
        write_docs(df, src)
        delta_reindex(src, out, **kw)
    gens_per_shard = {}
    for f in glob.glob(f"{out}/segments/shard-*-gen-*.parquet"):
        sh = os.path.basename(f).split("-")[1]
        gens_per_shard[sh] = gens_per_shard.get(sh, 0) + 1
    assert all(v <= COMPACT_AFTER_GENS for v in gens_per_shard.values()), \
        gens_per_shard
    # compaction happened at least once on alpha's shard (2N rounds, cap N)
    out2 = str(tmp_path / "idx_full")
    build_index_rows(src, out2, **kw)
    qs = QUERIES + [f"genword{rounds}"]
    assert score_map(out, qs) == score_map(out2, qs)


def test_slice_balance_skewed_partitions(tmp_path):
    """repartition_for_serving balances slices by DOC COUNT: with skewed
    partitions [60,50,40,10,10,10], pid%2 routing would give 110-vs-70;
    the greedy plan keeps max/min <= 1.2 (r02 VERDICT #8)."""
    from jesterj_ray.index.repartition import repartition_for_serving
    sizes = [60, 50, 40, 10, 10, 10]
    df = make_docs(n=sum(sizes))
    src = str(tmp_path / "c.parquet")
    w = pq.ParquetWriter(src, pa.Table.from_pandas(
        df, preserve_index=False).schema)
    off = 0
    for s in sizes:  # one row group per partition-to-be
        w.write_table(pa.Table.from_pandas(df.iloc[off:off + s],
                                           preserve_index=False))
        off += s
    w.close()
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=10,
                     num_shards=4, positions=True)
    # sanity: the plan produced the skewed partition sizes
    man = Manifest(out, "build")
    assert sorted((r["docs_seen"] for r in man.all().values()),
                  reverse=True) == sizes
    slice_dirs = repartition_for_serving(out, str(tmp_path / "slices"),
                                         n_slices=2)
    counts = []
    for d in slice_dirs:
        c = 0
        for name in os.listdir(os.path.join(d, "docs")):
            c += pq.ParquetFile(
                os.path.join(d, "docs", name)).metadata.num_rows
        counts.append(c)
    assert max(counts) <= 1.2 * min(counts), counts
    # slices still score exactly like the global reader
    g = IndexReader(out)
    readers = [IndexReader(d) for d in slice_dirs]
    assert sum(r.n_dense for r in readers) == g.n_dense
    want = g.topk("alpha beta", 20)
    got = sorted((h for r in readers for h in r.topk("alpha beta", 20)),
                 key=lambda h: (-h[1], h[0]))[:20]
    assert [x[0] for x in want] == [x[0] for x in got]
    for (_, a), (_, b) in zip(want, got):
        assert a == pytest.approx(b, abs=1e-12)


def test_repartition_refuses_generation_segments(tmp_path):
    """Local guard (ADVICE r02): _split_shard reads only base shard
    files, so an index with generation segments must be refused even if
    a future path produced them without exact_stats."""
    from jesterj_ray.index.repartition import repartition_for_serving
    df = make_docs(n=80)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    build_index_rows(src, out, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=64,
                     num_shards=2)
    # simulate a gen-producing path that did NOT set exact_stats
    with open(os.path.join(out, "segments", "shard-0000-gen-001.parquet"),
              "wb") as f:
        f.write(b"x")
    with pytest.raises(ValueError, match="generation segments"):
        repartition_for_serving(out, str(tmp_path / "s"), n_slices=2)


def test_gen_unlink_after_base_install(tmp_path):
    """Crash-safety ordering (ADVICE r02): a full re-merge must not
    destroy committed generation segments before the replacement base is
    atomically installed.  Simulate by failing the merge mid-flight and
    checking gens survive."""
    from jesterj_ray.index import build as bmod
    df = make_docs(n=120)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=64, num_shards=2, positions=False)
    build_index_rows(src, out, **kw)
    df.loc[3, "text"] = "deltaword alpha"
    write_docs(df, src)
    delta_reindex(src, out, **kw)
    gens = glob.glob(f"{out}/segments/shard-*-gen-*.parquet")
    assert gens
    # force a full re-merge ON A SHARD THAT HAS A GENERATION by
    # invalidating one of its base runs (touch mtime) and making the
    # segment write fail mid-merge
    shard = int(os.path.basename(gens[0]).split("-")[1])
    run = glob.glob(f"{out}/runs/shard-{shard:04d}/part-00000.parquet")[0]
    os.utime(run)
    import pyarrow.parquet as _pq
    real_writer = _pq.ParquetWriter

    class Boom(Exception):
        pass

    def failing_writer(*a, **k):
        raise Boom("injected")

    _pq.ParquetWriter = failing_writer
    try:
        writer = bmod.make_shard_writer(out)
        with pytest.raises(Boom):
            writer(pd.DataFrame({"shard": [int(os.path.basename(
                os.path.dirname(run)).split("-")[1])]}))
    finally:
        _pq.ParquetWriter = real_writer
    # the committed artifact set (base + gens) survived the failed merge
    for g in gens:
        assert os.path.exists(g), g


# ---- real PNG decode (r02 VERDICT #10) ----

def _filter_scanlines(img, filt, ch):
    """Apply a PNG filter forward (encoder side) so decode can be tested
    against all five filter types."""
    h, w, _ = img.shape
    stride = w * ch
    flat = img.reshape(h, stride).astype(np.int64)
    out = []
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        line = flat[y]
        rec = np.empty(stride, dtype=np.int64)
        for i in range(stride):
            a = line[i - ch] if i >= ch else 0
            b = prev[i]
            c = prev[i - ch] if i >= ch else 0
            if filt == 0:
                pred = 0
            elif filt == 1:
                pred = a
            elif filt == 2:
                pred = b
            elif filt == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc) else \
                    (b if pb <= pc else c)
            rec[i] = (line[i] - pred) & 0xFF
        out.append(bytes([filt]) + bytes(rec.astype(np.uint8)))
        prev = line
    return b"".join(out)


def test_png_roundtrip_all_color_types():
    from jesterj_ray.stages.png import decode_png, encode_png, is_png
    rng = np.random.default_rng(11)
    for ch in (1, 2, 3, 4):
        img = rng.integers(0, 256, size=(13, 7, ch), dtype=np.uint8)
        data = encode_png(img)
        assert is_png(data)
        out = decode_png(data)
        assert out.shape == img.shape
        assert np.array_equal(out, img), ch


def test_png_all_filters_decode():
    import struct
    import zlib
    from jesterj_ray.stages.png import decode_png
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(9, 5, 3), dtype=np.uint8)
    for filt in range(5):
        raw = _filter_scanlines(img, filt, 3)

        def chunk(ctype, body):
            crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
            return struct.pack(">I", len(body)) + ctype + body + \
                struct.pack(">I", crc)

        data = b"\x89PNG\r\n\x1a\n" + \
            chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 9, 8, 2, 0, 0, 0)) + \
            chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b"")
        out = decode_png(data)
        assert np.array_equal(out, img), filt


def test_image_decoder_strict_mode_png():
    """Strict (fake=False) ImageDecoder decodes a REAL PNG fixture via the
    actor-pool stage and emits normalized features."""
    import ray.data as rd
    from jesterj_ray.stages.multimodal import ImageDecoder
    from jesterj_ray.stages.png import encode_png
    rng = np.random.default_rng(3)
    tables = []
    for mid in range(6):
        img = rng.integers(0, 256, size=(40, 24, 3), dtype=np.uint8)
        tables.append({"media_id": mid, "payload": encode_png(img)})
    ds = rd.from_items(tables, override_num_blocks=2)
    out = ds.map_batches(ImageDecoder, batch_format="pyarrow",
                         fn_constructor_kwargs={"out_size": 8,
                                                "fake": False},
                         concurrency=1).to_pandas()
    assert len(out) == 6
    feats = np.asarray(out["feature"].tolist())
    assert feats.shape == (6, 64)
    assert (feats >= 0).all() and (feats <= 1).all()
    assert len({tuple(f) for f in feats}) == 6  # distinct images differ
    # non-PNG payload in strict mode stays an honest refusal
    bad = rd.from_items([{"media_id": 9, "payload": b"\xff\xd8JPEGish"}])
    with pytest.raises(Exception):
        bad.map_batches(ImageDecoder, batch_format="pyarrow",
                        fn_constructor_kwargs={"fake": False},
                        concurrency=1).to_pandas()


# ---- tombstone compaction (delta index -> plain dense index) ----

def test_compact_index_equals_rebuild(tmp_path):
    """After delta rounds (change, change-again, delete), compact_index
    folds tombstones + generations away: scores equal a full rebuild,
    stats drop exact_stats, and repartition_for_serving ACCEPTS the
    compacted index (it refuses delta-built ones)."""
    from jesterj_ray.index.compact import compact_index
    from jesterj_ray.index.repartition import repartition_for_serving
    df = make_docs(n=200)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=64, num_shards=4, positions=True)
    build_index_rows(src, out, **kw)
    df.loc[8, "text"] = "roundone alpha"
    write_docs(df, src)
    delta_reindex(src, out, **kw)
    df.loc[8, "text"] = "roundtwo beta"          # supersedes round-1 copy
    df.loc[30, "text"] = "otherchange gamma"
    write_docs(df, src)
    delta_reindex(src, out, **kw)
    df2 = df.drop(index=[77]).reset_index(drop=True)  # delete one doc
    write_docs(df2, src)
    delta_reindex(src, out, **kw)

    r = compact_index(out)
    assert r["n_docs"] == 199
    # physical state: no tombstones, no generations, no exact_stats
    assert not os.path.exists(os.path.join(out, "tombstones.json"))
    assert not glob.glob(f"{out}/segments/*-gen-*.parquet")
    with open(os.path.join(out, "stats.json")) as f:
        st = json.load(f)
    assert "exact_stats" not in st and st["n_docs"] == 199

    out2 = str(tmp_path / "idx_full")
    build_index_rows(src, out2, **kw)
    qs = QUERIES + ["roundtwo beta", "otherchange"]
    assert score_map(out, qs) == score_map(out2, qs)
    # phrase survives renumbering
    r_ = IndexReader(out)
    assert len(r_.phrase_topk("roundtwo beta", 5)) == 1

    # serving repartition now accepts it, rank-identical to global
    slice_dirs = repartition_for_serving(out, str(tmp_path / "slices"),
                                         n_slices=2)
    readers = [IndexReader(d) for d in slice_dirs]
    want = r_.topk("alpha beta", 15)
    got = sorted((h for rr in readers for h in rr.topk("alpha beta", 15)),
                 key=lambda h: (-h[1], h[0]))[:15]
    assert [x[0] for x in want] == [x[0] for x in got]


def test_delta_after_compact(tmp_path):
    """Compaction preserves the overlay catalog (with remapped ids): a
    further delta round on top of a compacted index still re-tokenizes
    only the changed doc and matches a full rebuild."""
    from jesterj_ray.index.compact import compact_index
    df = make_docs(n=150)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=64, num_shards=4, positions=True)
    build_index_rows(src, out, **kw)
    df.loc[5, "text"] = "firstchange alpha"
    write_docs(df, src)
    delta_reindex(src, out, **kw)
    compact_index(out)
    # unchanged round: the compacted catalog still shields doc 5
    d = delta_reindex(src, out, **kw)
    assert d["reindexed_docs"] == 0 and d["tombstoned"] == 0
    # changed round: exactly one doc re-tokenizes
    df.loc[9, "text"] = "secondchange beta"
    write_docs(df, src)
    d2 = delta_reindex(src, out, **kw)
    assert d2["reindexed_docs"] == 1
    out2 = str(tmp_path / "idx_full")
    build_index_rows(src, out2, **kw)
    qs = QUERIES + ["firstchange", "secondchange"]
    assert score_map(out, qs) == score_map(out2, qs)


def test_ngram_jaccard_exact_pairs_matches_python(tmp_path):
    """Exact all-pairs n-gram Jaccard equals a direct per-pair python
    computation on a planted-duplicate corpus."""
    import itertools
    import ray.data as rd
    from jesterj_ray.stages.dedup import ngram_jaccard_exact_pairs, ngram_set
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(40)]
    texts[7] = texts[3]                       # exact dup
    texts[12] = texts[3] + " extra token"     # near dup
    ds = rd.from_items([{"doc_id": i, "text": t}
                        for i, t in enumerate(texts)],
                       override_num_blocks=4)
    got = ngram_jaccard_exact_pairs(ds, text_field="text",
                                    id_field="doc_id", threshold=0.3,
                                    num_blocks=3)
    want = []
    for a, b in itertools.combinations(range(40), 2):
        sa, sb = ngram_set(texts[a]), ngram_set(texts[b])
        u = len(sa | sb)
        j = len(sa & sb) / u if u else 1.0
        if j >= 0.3:
            want.append((a, b, round(j, 6)))
    got_t = [(int(r.id_a), int(r.id_b), r.jaccard)
             for r in got.itertuples(index=False)]
    assert got_t == sorted(want)
    assert (3, 7) in {(a, b) for a, b, _ in got_t}
    assert (3, 12) in {(a, b) for a, b, _ in got_t}


def test_watch_loop_auto_compaction(tmp_path):
    """watch_and_reindex(compact_every=2) keeps tombstones bounded: after
    compacting cycles the tombstone file is gone, and queries still match
    a fresh full build."""
    from jesterj_ray.index.build_rows import watch_and_reindex
    df = make_docs(n=120)
    src = str(tmp_path / "w.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    loop = watch_and_reindex(str(tmp_path / "*.parquet"), out,
                             interval_s=0.01, max_cycles=6, key_col="rid",
                             docs_per_partition=64, num_shards=2,
                             compact_every=2)
    assert next(loop)["mode"] == "base"
    for cyc in range(1, 6):
        df.loc[cyc, "text"] = f"watchword{cyc} alpha"
        write_docs(df, src)
        s = next(loop)
        assert s["reindexed_docs"] == 1
        if cyc % 2 == 0:
            assert "compaction" in s
            assert not os.path.exists(os.path.join(out, "tombstones.json"))
    out2 = str(tmp_path / "idx_full")
    build_index_rows(src, out2, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=64,
                     num_shards=2)
    qs = QUERIES + ["watchword5"]
    assert score_map(out, qs) == score_map(out2, qs)


def test_fetch_file_url_real(tmp_path):
    """ThrottledFetcher strict mode fetches file:// URLs for real (the
    sandbox-possible scheme); http stays an honest refusal."""
    from jesterj_ray.stages.senders import ThrottledFetcher
    p = tmp_path / "page.txt"
    p.write_bytes(b"hello fetched body")
    f = ThrottledFetcher(fake=False, min_interval_s=0.0)
    t = pa.table({"url": pa.array([f"file://{p}", "http://example.com/x"])})
    out = f(t)
    assert out["http_status"].to_pylist() == [200, -1]
    assert out["raw_data"].to_pylist()[0] == b"hello fetched body"
    assert "file://" in out["fetch_error"].to_pylist()[1] or \
        "no network" in out["fetch_error"].to_pylist()[1]


def test_pending_tombstones_fold_in_after_crash(tmp_path):
    """Deletions staged by a crashed delta round (pending file written,
    serving tombstones not yet updated) fold into the serving set on the
    next round — changed docs can never end up served twice."""
    df = make_docs(n=120)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=64, num_shards=2)
    build_index_rows(src, out, **kw)
    # simulate the crash leftover: a staged deletion that never folded
    r = IndexReader(out)
    victim = r.topk("alpha", 1)[0][0]
    from jesterj_ray.state.manifest import atomic_write_bytes
    atomic_write_bytes(os.path.join(out, "tombstones.pending.json"),
                       json.dumps({"doc_ids": [int(victim)]}).encode())
    d = delta_reindex(src, out, **kw)  # no input change
    assert d["reindexed_docs"] == 0
    assert not os.path.exists(os.path.join(out, "tombstones.pending.json"))
    with open(os.path.join(out, "tombstones.json")) as f:
        assert int(victim) in json.load(f)["doc_ids"]
    r2 = IndexReader(out)
    assert all(h[0] != victim for h in r2.topk("alpha", 50))


def test_delta_pid_reuse_after_compaction_drop(tmp_path):
    """Compaction can drop a fully-superseded delta partition, freeing its
    pid; a later delta round may reuse that pid — the merge must still
    full-re-merge (append-only is gated on pid > prev max), keeping scores
    exact."""
    from jesterj_ray.index.compact import compact_index
    df = make_docs(n=120)
    src = str(tmp_path / "c.parquet")
    write_docs(df, src)
    out = str(tmp_path / "idx")
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=64, num_shards=2)
    build_index_rows(src, out, **kw)
    # round 1: change doc 3 -> delta partition P
    df.loc[3, "text"] = "roundone alpha"
    write_docs(df, src)
    d1 = delta_reindex(src, out, **kw)
    p1 = d1["delta_partitions"][0]
    # round 2: change doc 3 AGAIN -> its round-1 copy fully supersedes
    df.loc[3, "text"] = "roundtwo beta"
    write_docs(df, src)
    delta_reindex(src, out, **kw)
    compact_index(out)  # drops the fully-dead round-1 delta partition
    from jesterj_ray.state.manifest import Manifest
    assert p1 not in Manifest(out, "build").all()
    # round 3: another change may REUSE the freed pid
    df.loc[9, "text"] = "roundthree gamma"
    write_docs(df, src)
    d3 = delta_reindex(src, out, **kw)
    assert d3["reindexed_docs"] == 1
    out2 = str(tmp_path / "idx_full")
    build_index_rows(src, out2, **kw)
    qs = QUERIES + ["roundtwo beta", "roundthree"]
    assert score_map(out, qs) == score_map(out2, qs)


def _write_runs(root, pid, toks, positions, old_format=False):
    """One partition's run file for shard 0, written by the build's run
    encoder.  ``old_format`` appends the five block_* list columns the
    layout used to carry (one-block metadata per row, in the old column
    order: before pos_blob) — the merge must never read them."""
    from jesterj_ray.index.build import DOC_BITS, partition_runs
    dls = np.fromiter((len(t) for t in toks), dtype=np.int64,
                      count=len(toks))
    ids = (np.int64(pid) << DOC_BITS) | np.arange(len(toks), dtype=np.int64)
    t = partition_runs(toks, dls, ids, pid, positions)
    if old_format:
        one = {"block_last": t["last_doc"], "block_max_tf": t["cf"],
               "block_counts": t["count"]}
        one |= {f"block_{c}_off": pa.compute.binary_length(t[f"{c}_blob"])
                for c in ("doc", "tf")}
        cols = {n: t[n] for n in t.schema.names if n != "pos_blob"}
        cols |= {n: pa.array([[0, v] if n.endswith("_off") else [v]
                              for v in vals.to_pylist()],
                             pa.list_(pa.int64()))
                 for n, vals in one.items()}
        if positions:
            cols["pos_blob"] = t["pos_blob"]
        t = pa.table(cols)
    d = os.path.join(root, "runs", "shard-0000")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"part-{pid:05d}.parquet")
    pq.write_table(t, path, row_group_size=4096)
    return path


def fresh_encode(run_paths, chunk_target, positions):
    """The segment table a merge of ``run_paths`` must write, from its
    definition: the runs' postings decoded and concatenated in (term,
    first_doc) order, cut into (term, chunk) rows by the greedy rule
    (a chunk closes at the run that brings it to ``chunk_target``
    postings or more), every row encoded afresh by ``encode_runs``."""
    from jesterj_ray.index.build import _segment_schema
    from jesterj_ray.index.codec import _cum0, decode_runs, encode_runs
    names = ["term", "count", "first_doc", "doc_blob", "tf_blob"] + \
        (["pos_blob"] if positions else [])
    runs = pa.concat_tables([pq.read_table(p, columns=names)
                             for p in run_paths]) \
        .sort_by([("term", "ascending"), ("first_doc", "ascending")])
    rows = []  # [term, chunk, postings]
    for term, count in zip(runs["term"].to_pylist(),
                           runs["count"].to_pylist()):
        if not rows or rows[-1][0] != term:
            rows.append([term, 0, 0])
        elif rows[-1][2] >= chunk_target:
            rows.append([term, rows[-1][1] + 1, 0])
        rows[-1][2] += count
    enc = encode_runs(_cum0([r[2] for r in rows]), *decode_runs(runs))
    return pa.table({"term": [r[0] for r in rows],
                     "chunk": [r[1] for r in rows],
                     "df": enc["count"]} | enc,
                    schema=_segment_schema(positions))


@settings(max_examples=40, deadline=None)
@given(n_parts=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       positions=st.booleans(), chunk_target=st.integers(2, 300),
       read_batch=st.sampled_from([None, 2]),
       round_rows=st.sampled_from([None, 1, 8]),
       flush_terms=st.sampled_from([None, 1, 3]),
       delta=st.booleans(), blob_limit=st.sampled_from([None, 64]))
@example(n_parts=4, seed=1, positions=True, chunk_target=2, read_batch=2,
         round_rows=1, flush_terms=1, delta=True, blob_limit=64)
@example(n_parts=5, seed=2, positions=False, chunk_target=17, read_batch=2,
         round_rows=1, flush_terms=None, delta=True, blob_limit=None)
@example(n_parts=3, seed=3, positions=True, chunk_target=300,
         read_batch=None, round_rows=8, flush_terms=3, delta=False,
         blob_limit=None)
def test_merge_equals_fresh_encode(n_parts, seed, positions, chunk_target,
                                   read_batch, round_rows, flush_terms,
                                   delta, blob_limit):
    """Every segment row the merge writes equals ``encode_runs`` over
    that (term, chunk)'s concatenated postings, byte for byte — for the
    base segment and for a delta generation (which holds only the new
    runs), across chunk sizes, 2-row read slabs, 1- and 8-row rounds
    (hot terms carried across rounds with their next chunk id) and a
    blob-buffer limit small enough to split every stitch call."""
    import tempfile
    from unittest import mock
    from jesterj_ray.index import codec
    from jesterj_ray.index.build import DELTA_PID_BASE, make_shard_writer
    rng = np.random.default_rng(seed)
    # three hot terms (df reaches chunk_target) over a Zipf-ish tail
    vocab = np.array([f"h{i}" for i in range(3)] +
                     [f"t{i}" for i in range(60)])
    w = 1.0 / np.arange(1, vocab.size + 1)
    w /= w.sum()

    def docs():
        return [list(rng.choice(vocab, size=int(L), p=w))
                for L in rng.integers(1, 25, size=rng.integers(1, 40))]

    limit = blob_limit or codec.MAX_BLOB_BUFFER_BYTES
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(codec, "MAX_BLOB_BUFFER_BYTES", limit):
        base = [_write_runs(root, pid, docs(), positions)
                for pid in range(n_parts)]
        merge = make_shard_writer(root, chunk_target=chunk_target,
                                  flush_terms=flush_terms,
                                  read_batch=read_batch,
                                  round_rows=round_rows)
        merge(pd.DataFrame({"shard": [0]}))
        seg_dir = os.path.join(root, "segments")
        got = pq.read_table(os.path.join(seg_dir, "shard-0000.parquet"))
        assert got.equals(fresh_encode(base, chunk_target, positions))
        if delta:
            new = [_write_runs(root, DELTA_PID_BASE + i, docs(), positions)
                   for i in range(2)]
            merge(pd.DataFrame({"shard": [0]}))
            gen = pq.read_table(os.path.join(seg_dir,
                                             "shard-0000-gen-001.parquet"))
            assert gen.equals(fresh_encode(new, chunk_target, positions))


def test_old_format_runs_merge_like_new(tmp_path):
    """Run files written before the block_* columns left the layout still
    merge: a shard where some run files carry the five old columns and
    others do not merges to the same segment table as the all-new set."""
    from jesterj_ray.index.build import make_shard_writer
    rng = np.random.default_rng(11)
    vocab = [f"h{i}" for i in range(4)] + [f"t{i}" for i in range(80)]
    parts = [[list(rng.choice(vocab, size=int(L)))
              for L in rng.integers(1, 30, size=60)] for _ in range(5)]
    segs = {}
    for mode in ("new", "mixed"):
        root = str(tmp_path / mode)
        for pid, toks in enumerate(parts):
            _write_runs(root, pid, toks, True,
                        old_format=mode == "mixed" and pid % 2 == 0)
        make_shard_writer(root, chunk_target=20, read_batch=2,
                          round_rows=8)(pd.DataFrame({"shard": [0]}))
        segs[mode] = pq.read_table(
            os.path.join(root, "segments", "shard-0000.parquet"))
    old = pq.ParquetFile(str(tmp_path / "mixed" / "runs" / "shard-0000" /
                             "part-00000.parquet")).schema_arrow.names
    assert "block_counts" in old
    assert segs["mixed"].equals(segs["new"])
    assert segs["new"].filter(pa.compute.equal(
        segs["new"]["term"], "h0"))["chunk"].to_pylist()[-1] > 0
