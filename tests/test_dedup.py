"""Dedup operators: exact keep-first, MinHash-LSH near-dups, SimHash."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd
from jesterj_ray.stages.dedup import (exact_dedup, minhash_dedup_ids,
                                      minhash_lsh_pairs, minhash_signature,
                                      ngram_set, simhash64,
                                      simhash_near_dup_pairs,
                                      verify_jaccard_pairs)

BASE = ("the quick brown fox jumps over the lazy dog and runs far away "
        "into the deep green forest tonight while stars shine") * 3


@pytest.fixture(scope="module")
def docs():
    rows = []
    rng = np.random.default_rng(3)
    words = BASE.split()
    for i in range(40):
        w = list(rng.permutation(words))
        rows.append({"doc_id": i, "text": " ".join(w)})
    # planted exact duplicate
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    # planted near-duplicate of doc 1 (one word changed)
    w = rows[1]["text"].split()
    w[5] = "zzz"
    rows.append({"doc_id": 101, "text": " ".join(w)})
    # unrelated short doc
    rows.append({"doc_id": 102, "text": "completely different tiny text"})
    return pd.DataFrame(rows)


def test_exact_dedup_keep_first(docs):
    out = exact_dedup(rd.from_pandas(docs), field="text",
                      order_col="doc_id").to_pandas()
    assert 100 not in set(out["doc_id"])      # dup of 0 dropped
    assert 0 in set(out["doc_id"])            # keep-first
    assert 101 in set(out["doc_id"])          # near-dup survives exact dedup
    assert len(out) == len(docs) - 1


def test_minhash_estimates_jaccard():
    a = minhash_signature(BASE)
    b = minhash_signature(BASE)
    assert np.array_equal(a, b)
    w = BASE.split()
    w[10] = "changed"
    c = minhash_signature(" ".join(w))
    est = (a == c).mean()
    assert 0.7 < est < 1.0  # near-dup: high but not perfect


def test_minhash_lsh_finds_planted_pairs(docs):
    pairs = minhash_lsh_pairs(rd.from_pandas(docs), text_field="text",
                              id_field="doc_id", threshold=0.5).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 100) in found       # exact dup
    assert (1, 101) in found       # near dup
    assert all(b != 102 and a != 102 for a, b in found)  # unrelated not paired


def test_minhash_dedup_ids(docs):
    drops = minhash_dedup_ids(rd.from_pandas(docs), text_field="text",
                              id_field="doc_id", threshold=0.5).to_pandas()
    dropped = set(drops["node"].astype(int))
    assert 100 in dropped and 101 in dropped
    assert 0 not in dropped and 1 not in dropped


def test_simhash_near_dup(docs):
    pairs = simhash_near_dup_pairs(rd.from_pandas(docs), text_field="text",
                                   id_field="doc_id",
                                   max_hamming=6).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 100) in found
    h = simhash64(BASE.split())
    assert h == simhash64(BASE.split())
    assert h != 0


def test_ngram_jaccard_verify(docs):
    texts = dict(zip(docs["doc_id"], docs["text"]))
    pairs = pd.DataFrame({"id_a": [0, 1], "id_b": [100, 101]})
    v = verify_jaccard_pairs(pairs, texts)
    assert v.loc[0, "jaccard"] == 1.0          # exact dup
    assert 0.8 < v.loc[1, "jaccard"] < 1.0     # near dup


def test_ngram_set():
    assert ngram_set("a b c d", 3) == {"a b c", "b c d"}
    assert ngram_set("a b", 3) == {"a b"}
    assert ngram_set("", 3) == set()


def test_batch_simhash_equals_scalar():
    """Vectorized batch simhash pinned bit-identical to the scalar
    reference (r01 VERDICT #4)."""
    from jesterj_ray.stages.dedup import batch_simhash64
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(50)]
    docs = [[vocab[j] for j in rng.integers(0, 50, size=int(L))]
            for L in rng.integers(0, 40, size=30)] + [[], ["solo"]]
    got = batch_simhash64(docs)
    want = np.array([simhash64(d) for d in docs], dtype=np.uint64)
    assert np.array_equal(got, want)


def test_fingerprint_properties():
    """Fingerprint: whitespace/case-invariant, order- and
    content-sensitive, deterministic across batch splits."""
    from jesterj_ray.stages.textstats import fingerprint
    texts = ["Merge Sort the array", "merge   sort the ARRAY",
             "the array merge sort", "merge sort the arrays", "", "   "]
    t = pa.table({"text": pa.array(texts, pa.string())})
    fp = fingerprint(t, field="text")["fingerprint"].to_pylist()
    assert fp[0] == fp[1]          # whitespace/case normalize away
    assert fp[0] != fp[2]          # order-sensitive
    assert fp[0] != fp[3]          # content-sensitive
    assert fp[4] == fp[5]          # both empty token streams
    # batch-split determinism: one row at a time gives identical values
    singles = [fingerprint(pa.table({"text": pa.array([x], pa.string())}),
                           field="text")["fingerprint"][0].as_py()
               for x in texts]
    assert singles == fp


def test_min_label_components_chain():
    """Distributed min-label propagation equals union-find on a long chain
    (pointer-jump must converge well under max_rounds) and on a forest."""
    import ray.data as rd
    from jesterj_ray.stages.dedup import min_label_components
    chain = [(i, i + 1) for i in range(30)]          # one 31-node chain
    forest = [(100, 200), (200, 150), (300, 301)]     # two more components
    edges = pd.DataFrame(chain + forest, columns=["id_a", "id_b"])
    out = min_label_components(rd.from_pandas(edges)).to_pandas()
    got = dict(zip(out["node"].astype(int), out["label"].astype(int)))
    for i in range(31):
        assert got[i] == 0
    assert got[100] == got[150] == got[200] == 100
    assert got[300] == got[301] == 300
    assert len(got) == 31 + 5


def test_minhash_estimate_tracks_exact_jaccard(sf_dir):
    """Property check on the real driver table (sf0.001 documents): every
    emitted pair's signature-estimated Jaccard is within 0.25 of the
    exact word-3-shingle Jaccard, and exact duplicates estimate 1.0 —
    'no_oracle' does not mean unchecked (r01 VERDICT #6)."""
    import os
    import pyarrow.parquet as pq
    import ray.data as rd

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(rd.from_arrow(t), text_field="text",
                              id_field="doc_id", threshold=0.5).to_pandas()
    assert len(pairs) > 0
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))

    def shingles(s, k=3):
        w = s.split()
        return {tuple(w[i:i + k]) for i in range(max(0, len(w) - k + 1))} \
            or ({tuple(w)} if w else set())

    for _, r in pairs.iterrows():
        sa, sb = shingles(texts[r["id_a"]]), shingles(texts[r["id_b"]])
        exact = len(sa & sb) / len(sa | sb) if (sa | sb) else 1.0
        assert abs(r["est_jaccard"] - exact) <= 0.25, (r["id_a"], r["id_b"])
        if texts[r["id_a"]] == texts[r["id_b"]]:
            assert r["est_jaccard"] == 1.0
    # at least one planted exact duplicate pair is present
    assert (pairs["est_jaccard"] == 1.0).any()


def test_verify_jaccard_pairs_ds_matches_local(docs):
    """Distributed n-gram Jaccard verify (pair-text join) equals the
    driver-side reference implementation."""
    from jesterj_ray.stages.dedup import verify_jaccard_pairs_ds
    pairs = pd.DataFrame({"id_a": [0, 1, 0], "id_b": [100, 101, 102]})
    texts = dict(zip(docs["doc_id"], docs["text"]))
    want = verify_jaccard_pairs(pairs, texts)
    got = verify_jaccard_pairs_ds(
        rd.from_pandas(pairs), rd.from_pandas(docs[["doc_id", "text"]]),
        id_field="doc_id", text_field="text").to_pandas()
    got = got.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    want = want.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert np.allclose(got["jaccard"], want["jaccard"])
    assert got["id_a"].tolist() == want["id_a"].tolist()


def test_filter_seen_ds():
    """Distributed seenPreviously: anti-join against a seen-keys Dataset
    (duplicate seen keys must not fan out rows)."""
    from jesterj_ray.stages.fields import filter_seen_ds
    big = pd.DataFrame({"k": list(range(20)), "v": list(range(100, 120))})
    seen = pd.DataFrame({"key": [3, 7, 7, 7, 11, 99]})
    out = filter_seen_ds(rd.from_pandas(big), key_field="k",
                         seen=rd.from_pandas(seen),
                         seen_key_field="key").to_pandas()
    assert sorted(out["k"]) == [i for i in range(20) if i not in (3, 7, 11)]
    assert len(out) == 17
    assert set(out.columns) == {"k", "v"}


def test_minhash_pool_leaves_a_cpu_for_its_reads(sf_dir):
    """A MinHasher pool as large as the cluster holds every CPU, so the
    parquet read tasks that feed it never run and the stage never ends.
    Asking for ``concurrency`` = every CPU must still finish: run it in
    its own 2-CPU Ray session under a hard timeout (the session's whole
    process group is killed if it hangs)."""
    import os
    import signal
    import subprocess
    import sys
    code = f"""
import os, ray, ray.data as rd
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from jesterj_ray.stages.dedup import minhash_lsh_pairs
ds = rd.read_parquet(os.path.join({sf_dir!r}, "documents.parquet"),
                     columns=["doc_id", "text"], override_num_blocks=2)
n = minhash_lsh_pairs(ds, text_field="text", id_field="doc_id",
                      threshold=0.5, concurrency=2).count()
print("PAIRS", n)
ray.shutdown()
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, err[-2000:]
    assert "PAIRS" in out
