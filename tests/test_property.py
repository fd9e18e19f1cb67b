"""Property-based tests (hypothesis): codec round-trips and vectorized
kernels hold for arbitrary inputs, not just the fixtures."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from jesterj_ray.index.codec import (decode_postings, encode_postings,
                                     varbyte_decode, varbyte_encode,
                                     varbyte_lengths)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
def test_varbyte_roundtrip(vals):
    v = np.array(vals, dtype=np.uint64)
    blob = varbyte_encode(v)
    assert len(blob) == int(varbyte_lengths(v).sum())
    out = varbyte_decode(blob, v.size)
    assert np.array_equal(out, v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(1, 1000)),
                min_size=1, max_size=400))
def test_postings_roundtrip_and_blocks(pairs):
    # strictly ascending doc ids from positive gaps
    gaps = np.array([p[0] + 1 for p in pairs], dtype=np.int64)
    docs = np.cumsum(gaps)
    tfs = np.array([p[1] for p in pairs], dtype=np.int64)
    doc_blob, tf_blob = encode_postings(docs, tfs)
    d2, t2 = decode_postings(doc_blob, tf_blob, docs.size)
    assert np.array_equal(d2, docs) and np.array_equal(t2, tfs)
    # the blobs are the plain varbyte streams: no block metadata rides
    # along (the name is kept for history)
    assert doc_blob == varbyte_encode(np.diff(docs, prepend=0)
                                      .astype(np.uint64))
    assert len(tf_blob) == int(varbyte_lengths(tfs.astype(np.uint64)).sum())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(
    ["ant", "bee", "cat", "dog", "elk", "fox"]), max_size=30), max_size=12))
def test_batch_simhash_equals_scalar_property(docs):
    from jesterj_ray.stages.dedup import batch_simhash64, simhash64
    got = batch_simhash64(docs)
    want = np.array([simhash64(d) for d in docs], dtype=np.uint64)
    assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="abc XYZ09 ", max_size=60), min_size=1,
                max_size=10),
       st.integers(1, 5))
def test_fingerprint_batch_split_invariance(texts, split):
    """Fingerprints are identical whether computed in one batch or any
    split of it (batch boundaries must never leak into values)."""
    import pyarrow as pa
    from jesterj_ray.stages.textstats import fingerprint

    def fp(ts):
        t = pa.table({"text": pa.array(ts, pa.string())})
        return fingerprint(t, field="text")["fingerprint"].to_pylist()

    whole = fp(texts)
    split = max(1, min(split, len(texts)))
    parts = []
    for i in range(0, len(texts), split):
        parts.extend(fp(texts[i:i + split]))
    assert parts == whole


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="abcd ", min_size=1, max_size=40),
                min_size=2, max_size=8))
def test_minhash_identical_docs_estimate_one(texts):
    from jesterj_ray.stages.dedup import minhash_signature
    for t in texts:
        a = minhash_signature(t)
        b = minhash_signature(t)
        assert np.array_equal(a, b)


def reference_run_table(toks_per_doc, doc_ids, pid, positions):
    """The per-term run encoder the build used before ``encode_runs``
    (kept verbatim as the layout reference): one numpy round and two or
    three varbyte calls per distinct term."""
    import pandas as pd
    import pyarrow as pa
    from itertools import chain
    n_g = len(toks_per_doc)
    dls = np.fromiter((len(t) for t in toks_per_doc), dtype=np.int64,
                      count=n_g)
    flat = list(chain.from_iterable(toks_per_doc))
    rows = {"term": [], "count": [], "cf": [], "first_doc": [], "last_doc": [],
            "doc_blob": [], "tf_blob": [], "pos_blob": []}
    if flat:
        codes, uniques = pd.factorize(np.asarray(flat, dtype=object),
                                      sort=False)
        local = np.repeat(np.arange(n_g, dtype=np.int64), dls)
        key = codes.astype(np.int64) * n_g + local
        uk, tfs_arr = np.unique(key, return_counts=True)
        t_idx = uk // n_g
        docs_arr = doc_ids[uk % n_g]
        uniques = np.asarray(uniques, dtype=object)
        if positions:
            doc_starts_flat = np.repeat(np.cumsum(dls) - dls, dls)
            pos_in_doc = np.arange(local.size, dtype=np.int64) - doc_starts_flat
            order = np.argsort(key, kind="stable")
            pos_sorted = pos_in_doc[order]
            pair_starts = np.cumsum(tfs_arr) - tfs_arr
            pos_deltas = pos_sorted.copy()
            inner = np.ones(pos_sorted.size, dtype=bool)
            inner[pair_starts] = False
            pos_deltas[inner] = pos_sorted[inner] - pos_sorted[
                np.flatnonzero(inner) - 1]
        starts = np.flatnonzero(np.r_[True, t_idx[1:] != t_idx[:-1]])
        ends = np.r_[starts[1:], t_idx.size]
        pair_ends = np.cumsum(tfs_arr)
        for s, e in zip(starts, ends):
            d = docs_arr[s:e]
            t = tfs_arr[s:e]
            deltas = np.empty_like(d)
            deltas[0] = d[0]
            np.subtract(d[1:], d[:-1], out=deltas[1:])
            rows["term"].append(uniques[t_idx[s]])
            rows["count"].append(e - s)
            rows["cf"].append(int(t.sum()))
            rows["first_doc"].append(int(d[0]))
            rows["last_doc"].append(int(d[-1]))
            rows["doc_blob"].append(varbyte_encode(deltas.astype(np.uint64)))
            rows["tf_blob"].append(varbyte_encode(t.astype(np.uint64)))
            if positions:
                lo = pair_ends[s] - tfs_arr[s]
                hi = pair_ends[e - 1]
                rows["pos_blob"].append(
                    varbyte_encode(pos_deltas[lo:hi].astype(np.uint64)))
    run_cols = {
        "term": pa.array(rows["term"], pa.string()),
        "pid": pa.array([pid] * len(rows["term"]), pa.int64()),
        "count": pa.array(rows["count"], pa.int64()),
        "cf": pa.array(rows["cf"], pa.int64()),
        "first_doc": pa.array(rows["first_doc"], pa.int64()),
        "last_doc": pa.array(rows["last_doc"], pa.int64()),
        "doc_blob": pa.array(rows["doc_blob"], pa.binary()),
        "tf_blob": pa.array(rows["tf_blob"], pa.binary()),
    }
    if positions:
        run_cols["pos_blob"] = pa.array(rows["pos_blob"], pa.binary())
    return pa.table(run_cols).sort_by("term")


# a few non-ASCII terms: the batched build sorts terms in Python string
# order, the reference in Arrow byte order — they must agree
VOCAB = np.array([f"w{i}" for i in range(300)] +
                 ["é", "zz", "ä", "日本", "aé", "\U0001F600"])
# pid 0, mid-range, the first delta pid and the largest pid that fits
PIDS = [0, 7, 1 << 20, (1 << 31) - 1]


def random_partition(n_docs, vocab_size, max_len, seed):
    """Token lists with a Zipf-ish term mix: with enough docs the head
    terms reach df > 128 / > 256 (long runs); tail terms land in
    docs far apart (multi-byte varbyte deltas)."""
    rng = np.random.default_rng(seed)
    vocab = VOCAB[rng.permutation(VOCAB.size)[:vocab_size]]
    w = 1.0 / np.arange(1, vocab.size + 1)
    return [list(rng.choice(vocab, size=int(L), p=w / w.sum()))
            for L in rng.integers(0, max_len + 1, size=n_docs)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 700), st.integers(1, VOCAB.size), st.integers(0, 40),
       st.integers(0, 2**32 - 1), st.sampled_from(PIDS), st.booleans())
@example(0, 5, 10, 0, 0, True)             # all-quarantined: no docs left
@example(40, 5, 0, 0, 7, True)             # docs, but not one token
@example(600, 4, 30, 1, 1 << 20, True)     # df > 256, delta pid
@example(300, 50, 20, 2, (1 << 31) - 1, False)
def test_partition_runs_equal_reference(n_docs, vocab_size, max_len, seed,
                                        pid, positions):
    from jesterj_ray.index.build import DOC_BITS, partition_runs
    toks = random_partition(n_docs, vocab_size, max_len, seed)
    dls = np.fromiter((len(t) for t in toks), dtype=np.int64,
                      count=len(toks))
    doc_ids = (np.int64(pid) << DOC_BITS) | np.arange(len(toks),
                                                      dtype=np.int64)
    got = partition_runs(toks, dls, doc_ids, pid, positions)
    want = reference_run_table(toks, doc_ids, pid, positions)
    assert got.equals(want)
    # decode_runs inverts the whole table: re-encoding it is the identity
    from jesterj_ray.index.codec import decode_runs, encode_runs
    counts = got["count"].to_numpy()
    again = encode_runs(np.r_[0, np.cumsum(counts)], *decode_runs(got))
    assert all(again[k].equals(got[k]) for k in again)


def test_encode_runs_int32_chunking(monkeypatch):
    """A blob buffer limit below the partition's bytes splits the encode
    into term-range chunks; the table is unchanged (each chunk's blob
    buffer stays under the limit)."""
    import jesterj_ray.index.codec as codec
    from jesterj_ray.index.build import DOC_BITS, partition_runs
    toks = random_partition(500, 120, 30, 3)
    dls = np.fromiter((len(t) for t in toks), dtype=np.int64)
    doc_ids = (np.int64(5) << DOC_BITS) | np.arange(len(toks))
    whole = partition_runs(toks, dls, doc_ids, 5, True)
    monkeypatch.setattr(codec, "MAX_BLOB_BUFFER_BYTES", 200)
    chunked = partition_runs(toks, dls, doc_ids, 5, True)
    assert chunked["doc_blob"].num_chunks > 3
    for col in ("doc_blob", "tf_blob", "pos_blob"):
        for ch in chunked[col].chunks:
            # a single term larger than the limit travels alone
            assert len(ch) == 1 or \
                sum(len(b) for b in ch.to_pylist()) <= 200
    assert chunked.equals(whole)
    assert chunked.equals(reference_run_table(toks, doc_ids, 5, True))
