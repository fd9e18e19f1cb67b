"""Resumable partitioned Parquet sink — the general-purpose output
shape the index build already uses internally (state/manifest.py),
exposed as a standalone Dataset op.

One output FILE per key-range partition, written task-side via temp +
``os.replace`` with the manifest row committed LAST (the repo's
durability invariant) — so a failed or killed run re-invoked with
``resume=True`` skips every completed partition and rewrites only the
missing ones, and a reader never sees a torn file.  At 100 TB this is
the difference between re-running a day of output and re-running one
partition.

Partitioning is BY KEY RANGE over a sortable int64 column (pid =
key // rows_per_part against the GLOBAL min — input-derived, so the
same rows land in the same file at any parallelism; the docID rule
applied to output layout).  Each partition's rows are sorted by key,
then by the other columns, inside the file, making the output
directory a deterministic function of the input alone — byte-stable
across resumes and CPU counts even when keys repeat.

Resume guards: the layout (key column, rows_per_part, min key) is
recorded in ``layout.json`` and a resume under a different layout
refuses (its committed pids name other key ranges); committed pids are
pruned map-side, before the groupby, so their rows never move; null
keys refuse (a null routes nowhere); read-back returns only the parts
the manifest has committed.

Reference analog: JesterJ's FTI re-feed marks per-scanner-batch status
rows (jj_output_step_status) so a restart does not resend; here the
manifest plays that role for bulk parquet output.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..state.manifest import Manifest, atomic_write_bytes, atomic_write_table


def write_partitioned_parquet(ds: "rd.Dataset", out_dir: str, *,
                              key_col: str,
                              rows_per_part: int = 1 << 20,
                              resume: bool = True,
                              fail_pids: Optional[List[int]] = None
                              ) -> dict:
    """Write ``ds`` as part-<pid>.parquet files keyed by
    ``key_col`` range.  Returns {n_rows, n_parts, skipped} —
    ``skipped`` counts partitions resumed from a prior run (their rows
    count from the manifest).  ``fail_pids`` (tests only) raises inside
    those partitions' write tasks to exercise the resume path."""
    man = Manifest(out_dir, "sink")  # creates out_dir
    done = set(man.completed_partitions()) if resume else set()

    lo = int(ds.min(key_col))
    layout = {"key_col": key_col, "rows_per_part": rows_per_part,
              "min_key": lo}
    layout_path = os.path.join(out_dir, "layout.json")
    if resume and os.path.exists(layout_path):
        with open(layout_path) as f:
            prev = json.load(f)
        if prev != layout:
            raise ValueError(
                f"resume layout mismatch: dir was written with {prev}, "
                f"got {layout} — its committed pids name other key "
                "ranges, so skipping them would drop or duplicate rows")
    else:
        atomic_write_bytes(layout_path, json.dumps(layout).encode())
    skip = pa.array(sorted(done), pa.int64())

    def add_pid(t: pa.Table) -> pa.Table:
        if t[key_col].null_count:
            raise ValueError(f"null values in partition column {key_col!r}")
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.append_column("__pid", pa.array((k - lo) // rows_per_part,
                                              pa.int64()))
        return t.filter(pc.invert(pc.is_in(t["__pid"], value_set=skip)))

    keyed = ds.map_batches(add_pid, batch_format="pyarrow")

    def write_part(g: pa.Table) -> pa.Table:
        # ARROW end to end: a pandas group would degrade
        # int64-with-nulls value columns to float64 (corrupting ids
        # >= 2^53) — the exact hazard a durability sink must not have
        pid = int(g["__pid"][0].as_py())
        if fail_pids and pid in fail_pids:
            raise RuntimeError(f"injected failure in partition {pid}")
        t = g.drop_columns("__pid")
        # key first, then every other flat column: ties on the key would
        # otherwise keep shuffle-arrival order and break byte identity
        t = t.sort_by([(key_col, "ascending")] + [
            (c, "ascending") for c, typ in zip(t.column_names,
                                                t.schema.types)
            if c != key_col and not pa.types.is_nested(typ)])
        atomic_write_table(
            os.path.join(out_dir, f"part-{pid:05d}.parquet"), t)
        man.commit(pid, docs_seen=g.num_rows,
                   output_files=[f"part-{pid:05d}.parquet"])
        return pa.table({"rows": pa.array([g.num_rows], pa.int64())})

    written = keyed.groupby("__pid").map_groups(
        write_part, batch_format="pyarrow").to_pandas()
    return {"n_rows": int(written["rows"].sum() if len(written) else 0)
            + sum(man.read(pid).get("docs_seen", 0) for pid in done),
            "n_parts": len(written) + len(done),
            "skipped": len(done)}


def read_partitioned(out_dir: str) -> "rd.Dataset":
    """Read back the COMMITTED parts only: uncommitted stragglers of a
    crashed run are invisible (the manifest is the source of truth, not
    the directory listing)."""
    return rd.read_parquet([
        os.path.join(out_dir, f"part-{pid:05d}.parquet")
        for pid in sorted(Manifest(out_dir, "sink").completed_partitions())])
