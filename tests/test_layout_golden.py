"""Golden digest of the on-disk run/segment layout.

A small seeded ``build_index_rows`` index is hashed table by table (Arrow
IPC bytes of every run and segment table, read back from parquet).  Any
change to the run encoder, the block metadata or the merge stitching
changes the digest, so layout drift fails here instead of in a reader.
Table contents are hashed, not parquet file bytes: writer metadata may
vary between pyarrow builds while the contents must not.
"""
import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jesterj_ray.index.build_rows import build_index_rows

GOLDEN = {
    False: "9e7f163217284d0e3caee213b08781891d7a4ef265a45ff2494f116daa017f3f",
    True: "f01b5d4f2256005b3644aebc209d59e90c0c3eea9054ae3e657984549f12010d",
}


def golden_corpus(n=600, seed=5):
    """Zipf-ish vocabulary: the head terms reach df > 256 per partition
    (multi-block runs), the tail stays at df 1-2."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f"t{i}" for i in range(400)])
    w = 1.0 / np.arange(1, vocab.size + 1)
    w /= w.sum()
    texts = [" ".join(rng.choice(vocab, size=int(L), p=w))
             for L in rng.integers(3, 80, size=n)]
    return pd.DataFrame({"rid": np.arange(n, dtype=np.int64), "text": texts})


def layout_digest(index_dir):
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(index_dir, "runs", "*", "*.parquet"))
                   + glob.glob(os.path.join(index_dir, "segments",
                                            "*.parquet")))
    assert paths
    for path in paths:
        t = pq.read_table(path).combine_chunks() \
            .replace_schema_metadata(None)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        h.update(os.path.relpath(path, index_dir).encode())
        h.update(sink.getvalue().to_pybytes())
    return h.hexdigest()


def build_golden(tmp_path, positions):
    src = str(tmp_path / "golden.parquet")
    pq.write_table(pa.Table.from_pandas(golden_corpus(),
                                        preserve_index=False),
                   src, row_group_size=100)
    out = str(tmp_path / f"idx_pos{int(positions)}")
    build_index_rows(src, out, text_col="text", key_col="rid",
                     tokenizer="simple", docs_per_partition=300,
                     num_shards=4, positions=positions)
    return out


@pytest.mark.parametrize("positions", [False, True])
def test_layout_golden_digest(tmp_path, positions):
    assert layout_digest(build_golden(tmp_path, positions)) == \
        GOLDEN[positions]
