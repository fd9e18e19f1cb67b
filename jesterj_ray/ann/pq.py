"""Product quantization (Jégou et al. 2011) — the compressed-vector
ANN tier: vectors shrink from d×4 bytes to m bytes (here 64×4 → 8),
so a 10^10-vector corpus's codes fit in cluster memory where raw
floats cannot, and search scans codes with per-query lookup tables
(ADC) instead of float matmuls.

Distributed shape:

- **train** on a BOUNDED deterministic sample gathered once to the
  driver (first ``sample`` rows by vec_id — fixed size regardless of
  corpus scale; at 10^10 vectors you still train on ~10^5): plain
  Lloyd k-means per subspace, seeded init from evenly-spaced sorted
  sample rows, fixed iterations — no RNG, identical at any
  parallelism.
- **encode** is one ``map_batches`` pass: per subspace a (batch × k)
  distance argmin; output (vec_id, uint8-code list) rows — the
  compressed corpus, a Dataset like any other.
- **search** (ADC): the query builds an (m × k) inner-product table
  against each codebook; every code block scores via two ``np.take``
  + sum — no float vectors touched — then per-block partial top-k
  rows merge on the driver (queries × k, the ``brute_force_topk``
  reduce shape).

Cosine: vectors L2-normalize BEFORE subspace split (query side too),
so summed subspace inner products equal the full-vector cosine
approximation.  Approximate by construction → rows-only driver entry;
recall vs the oracle-PASS exhaustive ``knn_cosine_top10`` is pinned in
``tests/test_pq.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from .knn import _normalize, list_vectors


def train_pq(ds: "ray.data.Dataset", *, m: int = 8, k: int = 16,
             iters: int = 10, sample: int = 4096,
             vec_field: str = "embedding",
             id_field: str = "vec_id") -> np.ndarray:
    """Fit per-subspace codebooks; returns (m, k, d/m) float32.

    Deterministic: the sample is the ``sample`` smallest vec_ids
    (input-derived), init centroids are evenly-spaced rows of the
    id-sorted sample, Lloyd runs exactly ``iters`` rounds, empty
    clusters re-seed to the farthest point (ties to the lowest index).
    """
    # bounded driver gather: per-block local prune to the smallest
    # `sample` ids, then one concat + global prune
    def prune(t: pa.Table) -> pa.Table:
        if t.num_rows <= sample:
            return t.select([id_field, vec_field])
        ids = t[id_field].to_numpy(zero_copy_only=False)
        keep = np.argpartition(ids, sample - 1)[:sample]
        return t.select([id_field, vec_field]) \
            .take(pa.array(np.sort(keep), pa.int64()))

    parts = ds.map_batches(prune, batch_format="pyarrow").take_all()
    df = pd.DataFrame(parts).sort_values(id_field).head(sample)
    x = _normalize(np.asarray(df[vec_field].to_list(),
                              dtype=np.float32))
    n, d = x.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    books = np.empty((m, k, sub), dtype=np.float32)
    for j in range(m):
        xs = x[:, j * sub:(j + 1) * sub]
        init = xs[np.linspace(0, n - 1, k).astype(np.int64)].copy()
        c = init
        for _ in range(iters):
            d2 = ((xs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            for ci in range(k):
                mask = assign == ci
                if mask.any():
                    c[ci] = xs[mask].mean(axis=0)
                else:
                    far = d2.min(axis=1).argmax()
                    c[ci] = xs[far]
        books[j] = c
    return books


class PQEncoder:
    """Actor-pool encode stage: codebooks fetched once per actor."""

    def __init__(self, books_ref, *, vec_field: str = "embedding",
                 id_field: str = "vec_id"):
        self.books = ray.get(books_ref) \
            if isinstance(books_ref, ray.ObjectRef) else books_ref
        self.vec_field = vec_field
        self.id_field = id_field

    def __call__(self, batch: pa.Table) -> pa.Table:
        m, k, sub = self.books.shape
        vecs = _normalize(list_vectors(batch[self.vec_field], np.float32))
        codes = np.empty((len(batch), m), dtype=np.uint8)
        for j in range(m):
            xs = vecs[:, j * sub:(j + 1) * sub]
            d2 = ((xs[:, None, :] - self.books[j][None, :, :]) ** 2
                  ).sum(axis=2)
            codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
        return pa.table({
            "vec_id": batch[self.id_field],
            "code": pa.array(list(codes), pa.list_(pa.uint8(), m))})


def encode_pq(ds: "ray.data.Dataset", books: np.ndarray,
              **kw) -> "ray.data.Dataset":
    return ds.map_batches(PQEncoder, batch_format="pyarrow",
                          fn_constructor_kwargs={
                              "books_ref": ray.put(books), **kw},
                          concurrency=2)


def pq_topk(codes_ds: "ray.data.Dataset", books: np.ndarray,
            query_vecs: np.ndarray, *, k: int = 10) -> pd.DataFrame:
    """ADC search: (qid, rank, vec_id, score) — score is the PQ
    inner-product approximation of cosine (normalized inputs)."""
    m, kc, sub = books.shape
    q = _normalize(np.asarray(query_vecs, dtype=np.float32))
    # per-query LUT: lut[qi, j, c] = <q_sub, centroid>
    lut = np.einsum("qjs,jcs->qjc",
                    q.reshape(q.shape[0], m, sub), books)
    lut_ref = ray.put(lut)

    def partial(t: pa.Table) -> pa.Table:
        lt = ray.get(lut_ref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        codes = np.asarray(t["code"].to_pylist(), dtype=np.int64)
        out_q, out_id, out_s = [], [], []
        if ids.size:
            kk = min(k, ids.size)
            for qi in range(lt.shape[0]):
                # sum LUT entries along the code columns
                s = lt[qi][np.arange(m)[None, :], codes].sum(axis=1)
                # PQ scores tie whenever codes collide: keep ALL rows
                # at the k-th boundary score so the (score, vec_id)
                # tie-break is exact and block-layout-independent
                # (the _topk_from_dense rule)
                kth = np.partition(-s, kk - 1)[kk - 1]
                idx = np.flatnonzero(-s <= kth)
                order = np.lexsort((ids[idx], -s[idx]))[:kk]
                sel = idx[order]
                out_q.extend([qi] * sel.size)
                out_id.extend(ids[sel].tolist())
                out_s.extend(s[sel].astype(np.float64).tolist())
        return pa.table({"qid": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_id, pa.int64()),
                         "score": pa.array(out_s, pa.float64())})

    partials = codes_ds.map_batches(partial,
                                    batch_format="pyarrow").to_pandas()
    out = {"qid": [], "rank": [], "vec_id": [], "score": []}
    for qi, g in partials.groupby("qid"):
        g = g.sort_values(["score", "vec_id"],
                          ascending=[False, True]).head(k)
        out["qid"].extend([int(qi)] * len(g))
        out["rank"].extend(range(1, len(g) + 1))
        out["vec_id"].extend(g["vec_id"].astype(np.int64))
        out["score"].extend(g["score"])
    return pd.DataFrame(out)


def knn_pq_pipeline(sf_dir: str, *, k: int = 10, m: int = 8,
                    kc: int = 16) -> pd.DataFrame:
    """embeddings → train codebooks → encode corpus → ADC top-k for
    the vec_id=0 query (the knn_cosine_top10 query)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd
    path = os.path.join(sf_dir, "embeddings.parquet")
    # materialize: train and encode both consume the read; the query
    # vector comes from a pushed-down single-row filter, not a full
    # driver read (r05 self-review #7)
    ds = rd.read_parquet(path, columns=["vec_id", "embedding"],
                         override_num_blocks=8).materialize()
    books = train_pq(ds, m=m, k=kc)
    codes = encode_pq(ds, books)
    qt = pq.read_table(path, columns=["vec_id", "embedding"],
                       filters=[("vec_id", "=", 0)])
    qvec = np.asarray(qt["embedding"][0].as_py(), dtype=np.float32)
    out = pq_topk(codes, books, qvec[None, :], k=k)
    return out[["rank", "vec_id", "score"]]
