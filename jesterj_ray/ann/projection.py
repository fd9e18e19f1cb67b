"""Johnson–Lindenstrauss random sign projection (embedding sketch).

Dimensionality reduction for the ANN tier: project ``list<float>``
embeddings to ``d_out`` dims with a +-1 sign matrix (Achlioptas 2003 —
database-friendly JL: sign entries preserve pairwise distances in
expectation like Gaussians, with one matmul and no RNG state).

Determinism: sign(i, j) derives from the FROZEN ``mix_rank`` hash of
``i * d_out + j`` — input-shape-derived, so the projection is identical
at any parallelism AND the DuckDB oracle replays it exactly.  The
1/sqrt(d_out) scale uses a power-of-two ``d_out`` (default 16), so
scaling is EXACT in IEEE floats and commutes with summation — the
engine's pre-scaled matmul equals the oracle's scaled sum bit-for-bit
term-wise (remaining association differences are ~1e-16; 6dp rounding
cannot straddle).

Shape at scale: the (d_in x d_out) sign matrix broadcasts once
(``ray.put``); each block is one numpy matmul; output streams.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..stages.sampling import mix_rank
from .knn import list_vectors


def sign_matrix(d_in: int, d_out: int) -> np.ndarray:
    """+-1 matrix from the frozen hash of i * d_out + j."""
    keys = (np.arange(d_in, dtype=np.int64)[:, None] * d_out
            + np.arange(d_out, dtype=np.int64)[None, :]).ravel()
    s = 1 - 2 * (mix_rank(keys) % 2)
    return s.reshape(d_in, d_out).astype(np.float64)


def jl_project(sf_dir: str, *, d_out: int = 16,
               vec_field: str = "embedding", id_field: str = "vec_id",
               num_blocks: int = 8) -> pd.DataFrame:
    """(vec_id, j, value) rows — each vector's d_out projected coords,
    value rounded 6dp, sorted (vec_id, j)."""
    if d_out & (d_out - 1):
        raise ValueError("d_out must be a power of two (exact scale)")
    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path, columns=[id_field, vec_field],
                         override_num_blocks=num_blocks)
    import pyarrow.parquet as pq
    # d_in from ONE row group, never a full-column driver read
    d_in = len(pq.ParquetFile(path).read_row_group(
        0, columns=[vec_field])[vec_field][0])
    s_ref = ray.put(sign_matrix(d_in, d_out) / np.sqrt(d_out))

    def project(t: pa.Table) -> pa.Table:
        s = ray.get(s_ref)
        ids = t[id_field].to_numpy(zero_copy_only=False).astype(np.int64)
        x = list_vectors(t[vec_field], np.float64)
        if x.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "j": pa.array([], pa.int64()),
                             "value": pa.array([], pa.float64())})
        p = x @ s                                    # (n, d_out)
        n = ids.size
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, d_out), pa.int64()),
            "j": pa.array(np.tile(np.arange(d_out, dtype=np.int64), n),
                          pa.int64()),
            "value": pa.array(np.floor(p.ravel() * 1e6 + 0.5) / 1e6,
                              pa.float64())})

    out = ds.map_batches(project, batch_format="pyarrow").to_pandas()
    return out.sort_values(["vec_id", "j"]).reset_index(drop=True)
