"""Golden digest of the on-disk run/segment layout.

A small seeded ``build_index_rows`` index is hashed table by table (Arrow
IPC bytes of every run and segment table, read back from parquet).  Any
change to the run encoder or the merge stitching changes the digest, so
layout drift fails here instead of in a reader.
Table contents are hashed, not parquet file bytes: writer metadata may
vary between pyarrow builds while the contents must not.
"""
import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jesterj_ray.index.build_rows import build_index_rows

GOLDEN = {
    False: "d2e631644f991ee09a5afd2298746c1e9dd0c04de7b5d9c204e841a716e20c32",
    True: "28870b8bffdd22bcdfcdefc9c9cb726cac7419106c0a3879f8af490f70a1cafd",
}


# step -> (stats.json, tombstones.json, delta_overlay.json, epoch id)
GOLDEN_LEDGER = {
    False: {
        "build": ("b094d34709859e77", None, None, 1),
        "delta": ("620abf70f8889a4b", "310ba33b075d1578",
                  "f917cfda7b11cc8e", 2),
        "delete": ("620abf70f8889a4b", "e90ad8b5ef0cb0a9",
                   "f917cfda7b11cc8e", 3),
        "compact": ("6140a9070f964642", None, "23fe61e2322d594c", 4),
        "delete2": ("6140a9070f964642", "66dbd092292bbb32",
                    "23fe61e2322d594c", 5),
        "slice0": ("3268379a0caed7f0", "78ac8e2b35b708fe", None, 1),
        "slice1": ("451ebeccbda51271", "fd0ed94c67687752", None, 1),
        "churn0": ("d13ec5b2a0397b38", "a317a0b27099055a",
                   "8812fe5e02666517", 6),
        "churn1": ("8ddd7371b4315428", "6b89dd049a2b8900",
                   "4a531b042fdc11bb", 7),
        "churn2": ("1ed419bbf2c83a27", "06b706269c4e8460",
                   "090b8b35a674f44e", 8),
        "churn3": ("a1a1017f3f90c64d", "1330c65826a45dac",
                   "ff9b98e895a97bd3", 9),
        "churn4": ("e67e3d40336f2469", "207a83350aa4dff8",
                   "5578075b5921ed55", 10),
    },
    True: {
        "build": ("262fb39bfb3c8db7", None, None, 1),
        "delta": ("cd83da10d712549d", "310ba33b075d1578",
                  "f917cfda7b11cc8e", 2),
        "delete": ("cd83da10d712549d", "e90ad8b5ef0cb0a9",
                   "f917cfda7b11cc8e", 3),
        "compact": ("c1fade5bf24cebee", None, "23fe61e2322d594c", 4),
        "delete2": ("c1fade5bf24cebee", "66dbd092292bbb32",
                    "23fe61e2322d594c", 5),
        "slice0": ("cb4a43a714f65ba1", "78ac8e2b35b708fe", None, 1),
        "slice1": ("cbd1351a562ebbe7", "fd0ed94c67687752", None, 1),
        "churn0": ("6ca17736f27c3ade", "a317a0b27099055a",
                   "8812fe5e02666517", 6),
        "churn1": ("c2428462e34797c2", "6b89dd049a2b8900",
                   "4a531b042fdc11bb", 7),
        "churn2": ("eb8d8b0f159840d5", "06b706269c4e8460",
                   "090b8b35a674f44e", 8),
        "churn3": ("cd5fac6a24f1ec7e", "1330c65826a45dac",
                   "ff9b98e895a97bd3", 9),
        "churn4": ("3b35f70e0381ddf1", "207a83350aa4dff8",
                   "5578075b5921ed55", 10),
    },
}


def golden_corpus(n=600, seed=5):
    """Zipf-ish vocabulary: the head terms reach df > 256 per partition
    (long runs, stitched across both partitions), the tail stays at df
    1-2."""
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


def _ledger_snapshot(index_dir):
    """(sha256 prefix of stats.json, of tombstones.json, of
    delta_overlay.json — None when absent — and the epoch id); the
    pending tombstone file must be absent between writer steps."""
    assert not os.path.exists(
        os.path.join(index_dir, "tombstones.pending.json"))
    shas = []
    for name in ("stats.json", "tombstones.json", "delta_overlay.json"):
        p = os.path.join(index_dir, name)
        shas.append(hashlib.sha256(open(p, "rb").read()).hexdigest()[:16]
                    if os.path.exists(p) else None)
    with open(os.path.join(index_dir, "epoch.json")) as f:
        return (*shas, json.load(f)["epoch"])


@pytest.mark.parametrize("positions", [False, True])
def test_ledger_golden_over_writer_cycle(tmp_path, positions):
    """The bookkeeping files' bytes and the epoch ids over one seeded
    writer cycle: build, a delta that changes two docs of one partition
    (so its delta partition later compacts with a survivor whose id
    remaps in the overlay catalog), ``delete_docs``, ``compact_index``,
    a second ``delete_docs``, ``repartition_for_serving`` into two
    slices, then ``COMPACT_AFTER_GENS + 1`` one-doc deltas, the last of
    which compacts every shard.  ``tombstones.pending.json`` is absent
    after every step."""
    from jesterj_ray.index.build import COMPACT_AFTER_GENS
    from jesterj_ray.index.build_rows import delta_reindex
    from jesterj_ray.index.compact import compact_index
    from jesterj_ray.index.query import delete_docs
    from jesterj_ray.index.repartition import repartition_for_serving

    src = str(tmp_path / "golden.parquet")
    df = golden_corpus()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=100)
    out = str(tmp_path / "idx")
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=300, num_shards=4, positions=positions)
    got = {}
    build_index_rows(src, out, **kw)
    got["build"] = _ledger_snapshot(out)
    df.loc[7, "text"] = "t1 t2 brandnew t3"
    df.loc[8, "text"] = "t4 t5 other t3"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=100)
    delta_reindex(src, out, **kw)
    got["delta"] = _ledger_snapshot(out)
    delete_docs(out, ["000000000011", "000000000007"])
    got["delete"] = _ledger_snapshot(out)
    compact_index(out)
    got["compact"] = _ledger_snapshot(out)
    delete_docs(out, ["000000000020", "000000000450"])
    got["delete2"] = _ledger_snapshot(out)
    slices = repartition_for_serving(out, str(tmp_path / "serve"),
                                     n_slices=2)
    for s, d in enumerate(slices):
        got[f"slice{s}"] = _ledger_snapshot(d)
    # a compacting run of deltas: each one-doc delta touches every shard,
    # so the last one crosses COMPACT_AFTER_GENS on all of them
    for i in range(COMPACT_AFTER_GENS + 1):
        df.loc[30 + i, "text"] = " ".join(f"t{j}" for j in range(24)) + \
            f" fresh{i}"
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                       row_group_size=100)
        delta_reindex(src, out, **kw)
        got[f"churn{i}"] = _ledger_snapshot(out)
    assert not glob.glob(os.path.join(out, "segments", "*-gen-*"))
    assert got == GOLDEN_LEDGER[positions]


def _full_remerge_copy(index_dir, dest, num_shards=4):
    """A copy of ``index_dir`` whose segments are forced to re-merge from
    runs (every merge-manifest row forgotten)."""
    from jesterj_ray.index.build import merge_runs
    shutil.copytree(index_dir, dest)
    for f in glob.glob(os.path.join(dest, "manifest", "merge", "*.json")):
        os.unlink(f)
    merge_runs(dest, num_shards)
    return dest


@pytest.mark.parametrize("positions", [False, True])
def test_fold_equals_full_remerge(tmp_path, positions):
    """COMPACT_AFTER_GENS + 1 one-doc deltas fold every shard in the
    driver, and as many more, the last changing a doc in each of the two
    partitions, fold every shard in the Ray job: both times the segment
    and run tables have the layout digest of a full re-merge from runs."""
    from jesterj_ray.index.build import COMPACT_AFTER_GENS
    from jesterj_ray.index.build_rows import delta_reindex
    from jesterj_ray.state.manifest import Manifest
    out = build_golden(tmp_path, positions)
    src = str(tmp_path / "golden.parquet")
    df = golden_corpus()
    kw = dict(text_col="text", key_col="rid", tokenizer="simple",
              docs_per_partition=300, num_shards=4, positions=positions)
    every_shard = " ".join(f"t{j}" for j in range(24))
    for rnd in range(2 * (COMPACT_AFTER_GENS + 1)):
        rows = [30 + rnd] + ([330] if rnd == 2 * COMPACT_AFTER_GENS + 1
                             else [])
        for r in rows:
            df.loc[r, "text"] = f"{every_shard} fold{rnd}"
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                       row_group_size=100)
        delta_reindex(src, out, **kw)
        if rnd % (COMPACT_AFTER_GENS + 1) == COMPACT_AFTER_GENS:
            rows = Manifest(out, "merge").all()
            assert {r["mode"] for r in rows.values()} == {"fold"}
            ref = _full_remerge_copy(out, str(tmp_path / f"ref{rnd}"))
            assert layout_digest(out) == layout_digest(ref)


def test_only_the_ledger_names_the_bookkeeping_files():
    """No string constant outside ``index/ledger.py`` names one of the
    four bookkeeping files (docstrings aside): every reader and writer
    goes through the ledger's functions and name constants."""
    import ast

    from jesterj_ray.index import ledger
    names = (ledger.STATS, ledger.TOMBSTONES, ledger.PENDING, ledger.OVERLAY)
    root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "jesterj_ray")
    found = []
    for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
        if path == os.path.abspath(ledger.__file__):
            continue
        tree = ast.parse(open(path).read())
        docs = {id(n.body[0].value) for n in ast.walk(tree)
                if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                and n.body and isinstance(n.body[0], ast.Expr)
                and isinstance(n.body[0].value, ast.Constant)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and id(n) not in docs \
                    and any(name in n.value for name in names):
                found.append(f"{os.path.relpath(path, root)}:{n.lineno}")
    assert not found
