"""Embedding near-dup pairs: exact block-pair vs local oracle, and the
LSH-bucketed approximate variant's recall on planted near-dups."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd
from jesterj_ray.ann.knn import (_normalize, embedding_near_dup_pairs,
                                 list_vectors, lsh_embedding_near_dup_pairs)


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((60, 16))
    # plant 6 near-dup pairs: ids (i, 100+i) with tiny perturbations
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(60)]
    for i in range(6):
        v = base[i] + rng.standard_normal(16) * 0.05
        rows.append({"vec_id": 100 + i, "embedding": v.tolist()})
    return pd.DataFrame(rows)


def local_oracle(df, threshold):
    ids = df["vec_id"].to_numpy(dtype=np.int64)
    m = _normalize(np.asarray(df["embedding"].tolist(), dtype=np.float64))
    sims = m @ m.T
    r, c = np.triu_indices(ids.size, 1)
    keep = sims[r, c] >= threshold
    out = pd.DataFrame({"id_a": ids[r[keep]], "id_b": ids[c[keep]],
                        "cosine": sims[r[keep], c[keep]].round(6)})
    swap = out["id_a"] > out["id_b"]
    out.loc[swap, ["id_a", "id_b"]] = out.loc[swap, ["id_b", "id_a"]].values
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def test_block_pair_exact_matches_oracle(vectors):
    """The distributed block-pair cross product equals local all-pairs for
    several block counts (pair coverage is partition-invariant)."""
    want = local_oracle(vectors, 0.4)
    assert len(want) >= 6
    for nb in (1, 3, 8):
        got = embedding_near_dup_pairs(rd.from_pandas(vectors),
                                       threshold=0.4, num_blocks=nb)
        pd.testing.assert_frame_equal(
            got.astype({"id_a": np.int64, "id_b": np.int64}), want)


def test_lsh_near_dup_recall(vectors):
    """Bucketed approximate path: every emitted pair is exact-cosine
    verified (precision 1) and planted near-identical pairs are found
    (recall on cosine >= 0.95 pairs is ~1 with 4 tables x 6 planes)."""
    got = lsh_embedding_near_dup_pairs(rd.from_pandas(vectors),
                                       threshold=0.4)
    want = local_oracle(vectors, 0.4)
    wkeys = set(zip(want["id_a"], want["id_b"]))
    gkeys = set(zip(got["id_a"].astype(int), got["id_b"].astype(int)))
    assert gkeys <= wkeys                     # precision 1
    planted = {(i, 100 + i) for i in range(6)}
    assert planted <= wkeys
    assert planted <= gkeys                   # near-identical pairs found
    # emitted cosines are exact
    merged = got.merge(want, on=["id_a", "id_b"], suffixes=("", "_w"))
    assert np.allclose(merged["cosine"], merged["cosine_w"], atol=1e-9)


def test_list_vectors_decodes_like_pylist():
    """The one vector decoder is bit-identical to the per-value
    ``np.asarray(to_pylist())`` decode, on chunked and sliced float32
    and float64 columns, and refuses rows a flatten would misalign."""
    rng = np.random.default_rng(9)
    for src in (np.float32, np.float64):
        m = rng.standard_normal((40, 6)).astype(src)
        col = pa.chunked_array([pa.array(m[:15].tolist(),
                                         pa.list_(pa.from_numpy_dtype(src))),
                                pa.array(m[15:].tolist(),
                                         pa.list_(pa.from_numpy_dtype(src)))])
        for c in (col, col.slice(7, 20)):
            for dt in (np.float32, np.float64):
                want = np.asarray(c.to_pylist(), dtype=dt)
                got = list_vectors(c, dt)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    assert list_vectors(pa.array([], pa.list_(pa.float32())),
                        np.float32).shape == (0, 0)
    assert list_vectors(pa.array([], pa.list_(pa.float32(), 4)),
                        np.float64).shape == (0, 4)
    for bad in ([[1.0, 2.0], None], [[1.0, 2.0], [3.0]]):
        with pytest.raises(ValueError):
            list_vectors(pa.array(bad, pa.list_(pa.float64())), np.float64)
