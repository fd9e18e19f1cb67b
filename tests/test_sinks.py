"""Resumable partitioned sink: crash-resume skips committed partitions,
bytes are parallelism-independent, manifest is the read-back truth."""
import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd
from jesterj_ray.stages.sink import read_partitioned, write_partitioned_parquet
from jesterj_ray.state.manifest import Manifest


def make_ds(n=1000, blocks=7, seed=3):
    rng = np.random.default_rng(seed)
    t = pa.table({"k": pa.array(rng.permutation(n), pa.int64()),
                  "v": pa.array(rng.normal(size=n))})
    return rd.from_arrow(t).repartition(blocks), t


def part_bytes(d):
    return {os.path.basename(f): open(f, "rb").read()
            for f in glob.glob(os.path.join(d, "part-*.parquet"))}


def test_write_read_roundtrip(ray_session, tmp_path):
    ds, t = make_ds()
    out = str(tmp_path / "sink")
    stats = write_partitioned_parquet(ds, out, key_col="k", rows_per_part=125)
    assert stats == {"n_rows": 1000, "n_parts": 8, "skipped": 0}
    back = read_partitioned(out).to_pandas().sort_values("k")
    want = t.to_pandas().sort_values("k")
    assert back["k"].tolist() == want["k"].tolist()
    assert np.allclose(back["v"].to_numpy(), want["v"].to_numpy())


def test_resume_skips_committed_and_is_deterministic(ray_session,
                                                     tmp_path):
    ds, _ = make_ds()
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_partitioned_parquet(ds, a, key_col="k", rows_per_part=125)
    # simulate a crashed first run at dir b: 3 committed partitions
    # (copied from a), one orphan uncommitted file
    os.makedirs(b)
    shutil.copy2(os.path.join(a, "layout.json"), b)
    man = Manifest(b, "sink")
    for pid in (1, 4, 6):
        shutil.copy2(os.path.join(a, f"part-{pid:05d}.parquet"), b)
        man.commit(pid, docs_seen=125)
    with open(os.path.join(b, "part-00002.parquet"), "wb") as f:
        f.write(b"garbage")
    ds2, _ = make_ds(blocks=13)  # different parallelism
    stats = write_partitioned_parquet(ds2, b, key_col="k",
                                      rows_per_part=125)
    assert stats == {"n_rows": 1000, "n_parts": 8, "skipped": 3}
    # every file is byte-identical to the clean run's (deterministic
    # sort inside each partition); the orphan was overwritten
    assert part_bytes(a) == part_bytes(b)
    assert read_partitioned(b).count() == 1000


def test_rerun_is_noop(ray_session, tmp_path):
    ds, _ = make_ds(n=200)
    out = str(tmp_path / "s")
    write_partitioned_parquet(ds, out, key_col="k", rows_per_part=50)
    before = {f: os.path.getmtime(f)
              for f in glob.glob(os.path.join(out, "part-*.parquet"))}
    ds2, _ = make_ds(n=200)
    stats = write_partitioned_parquet(ds2, out, key_col="k",
                                      rows_per_part=50)
    assert stats == {"n_rows": 200, "n_parts": 4, "skipped": 4}
    assert {f: os.path.getmtime(f) for f in before} == before


def test_layout_mismatch_refused(ray_session, tmp_path):
    """Resuming with a different rows_per_part (or key column) would
    skip committed pids that name other key ranges: 500 rows written
    at 100 per part, then resumed at 50, used to leave 750 rows on
    disk.  Refused loudly; the first run's parts stay as written."""
    t = pa.table({"k": pa.array(np.arange(500), pa.int64()),
                  "v": pa.array(np.arange(500), pa.int64())})
    out = str(tmp_path / "s")
    write_partitioned_parquet(rd.from_arrow(t).repartition(4), out,
                              key_col="k", rows_per_part=100)
    with pytest.raises(ValueError, match="layout"):
        write_partitioned_parquet(rd.from_arrow(t).repartition(4), out,
                                  key_col="k", rows_per_part=50)
    with pytest.raises(ValueError, match="layout"):
        write_partitioned_parquet(rd.from_arrow(t).repartition(4), out,
                                  key_col="v", rows_per_part=100)
    assert len(glob.glob(os.path.join(out, "part-*.parquet"))) == 5
    assert read_partitioned(out).count() == 500


def test_null_keys_refused(ray_session, tmp_path):
    """A null key has no range: it used to land in a garbage partition
    (``part-4611686018427387903.parquet``).  Refused, nothing written."""
    t = pa.table({"k": pa.array([1, None, 3], pa.int64()),
                  "v": pa.array([1.0, 2.0, 3.0])})
    out = str(tmp_path / "s")
    with pytest.raises(Exception, match="null"):
        write_partitioned_parquet(rd.from_arrow(t), out, key_col="k")
    assert not glob.glob(os.path.join(out, "part-*.parquet"))


def test_duplicate_keys_byte_deterministic(ray_session, tmp_path):
    """Repeated keys: rows sort by ALL columns, so file bytes stay
    identical across parallelism/shuffle orders (r03 review — key-only
    sort kept arrival order on ties)."""
    rng = np.random.default_rng(9)
    n = 600
    t = pa.table({"k": pa.array(rng.integers(0, 20, n), pa.int64()),
                  "v": pa.array(rng.normal(size=n)),
                  "w": pa.array(rng.integers(0, 5, n), pa.int64())})
    outs = []
    for blocks in (3, 17):
        d = str(tmp_path / f"s{blocks}")
        write_partitioned_parquet(rd.from_arrow(t).repartition(blocks),
                                  d, key_col="k", rows_per_part=5)
        outs.append(part_bytes(d))
    assert len(outs[0]) == 4 and outs[0] == outs[1]


def test_skewed_ints_spread(ray_session, tmp_path):
    """Strided integer keys (all ≡ 0 mod 8, which mod-routing would
    pile into one partition) spread over their key ranges."""
    t = pa.table({"k": pa.array(np.arange(0, 1600, 16), pa.int64()),
                  "v": pa.array(np.zeros(100))})
    d = str(tmp_path / "stride")
    stats = write_partitioned_parquet(rd.from_arrow(t).repartition(3), d,
                                      key_col="k", rows_per_part=200)
    assert stats["n_parts"] == 8
    assert read_partitioned(d).count() == 100
