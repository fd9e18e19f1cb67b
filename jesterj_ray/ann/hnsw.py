"""Sharded HNSW — the log-scale ANN tier above LSH/IVF (r04 VERDICT #7).

HNSW (Malkov & Yashunin 2016): a layered proximity graph; inserts give
each node a geometrically-distributed top level, searches descend
greedily from the top layer and run a beam (ef) search at layer 0.
Query cost grows ~log(n) vs IVF's ~n/nprobe cell scans.

Distributed shape (the Lucene/Elasticsearch per-segment-HNSW pattern):
vectors hash to ``vec_id % num_shards`` (INPUT-derived, so the build is
identical at any parallelism — the repo's docID rule), each shard's
graph builds inside one ``map_groups`` task and is stored as one
serialized row of a materialized Dataset (the corpus lives in the
object store, never on the driver), and a query fans out over the shard
rows with ``map_batches`` — each task deserializes its shard, searches
all queries, and emits only per-shard top-k candidates; the driver
reduce merges (num_shards x k x queries) rows.  Recall is bounded by
per-shard HNSW recall alone, since every shard is searched.
"""

from __future__ import annotations

import heapq
import pickle
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .knn import _normalize, list_vectors


class HNSWGraph:
    """One shard's in-memory HNSW over NORMALIZED float32 vectors
    (cosine similarity = dot).  Deterministic: node levels come from a
    seeded RNG over the SORTED-by-id insertion order."""

    def __init__(self, M: int = 8, ef_construction: int = 80,
                 seed: int = 7):
        self.M = M
        self.Mmax0 = 2 * M
        self.efC = ef_construction
        self.mL = 1.0 / np.log(M)
        self.seed = seed
        self.ids: Optional[np.ndarray] = None
        self.vecs: Optional[np.ndarray] = None
        self.levels: Optional[np.ndarray] = None
        # links[level][node] = list[int] neighbor node indexes
        self.links: List[dict] = []
        self.entry = -1
        self.max_level = -1

    # ---- construction ----

    def build(self, ids: np.ndarray, vecs: np.ndarray) -> "HNSWGraph":
        order = np.argsort(ids, kind="stable")
        self.ids = ids[order].astype(np.int64)
        self.vecs = _normalize(np.asarray(vecs, dtype=np.float32)[order])
        rng = np.random.default_rng(self.seed)
        n = self.ids.size
        self.levels = np.minimum(
            (-np.log(rng.random(n)) * self.mL).astype(np.int64), 24)
        self.links = [dict() for _ in range(int(self.levels.max()) + 1)] \
            if n else []
        for i in range(n):
            self._insert(i)
        return self

    def _sim(self, i: int, q: np.ndarray) -> float:
        return float(self.vecs[i] @ q)

    def _search_layer(self, q: np.ndarray, eps: List[int], ef: int,
                      level: int) -> List[tuple]:
        """Beam search on one layer: returns [(sim, node)] best-first,
        at most ef entries."""
        lk = self.links[level]
        visited = set(eps)
        cand = [(-self._sim(e, q), e) for e in eps]     # max-heap by sim
        heapq.heapify(cand)
        best = [(-c[0], c[1]) for c in cand]            # min-heap of kept
        heapq.heapify(best)
        while cand:
            negs, u = heapq.heappop(cand)
            if best and -negs < best[0][0] and len(best) >= ef:
                break
            for v in lk.get(u, ()):
                if v in visited:
                    continue
                visited.add(v)
                sv = self._sim(v, q)
                if len(best) < ef or sv > best[0][0]:
                    heapq.heappush(cand, (-sv, v))
                    heapq.heappush(best, (sv, v))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted(((s, u) for s, u in best), reverse=True)

    def _insert(self, i: int) -> None:
        l = int(self.levels[i])
        for lev in range(l + 1):
            self.links[lev].setdefault(i, [])
        if self.entry < 0:
            self.entry, self.max_level = i, l
            return
        q = self.vecs[i]
        eps = [self.entry]
        for lev in range(self.max_level, l, -1):
            eps = [self._search_layer(q, eps, 1, lev)[0][1]]
        for lev in range(min(l, self.max_level), -1, -1):
            cands = self._search_layer(q, eps, self.efC, lev)
            mmax = self.Mmax0 if lev == 0 else self.M
            neigh = [u for _, u in cands[:self.M]]
            lk = self.links[lev]
            lk[i] = list(neigh)
            for u in neigh:
                lk.setdefault(u, []).append(i)
                if len(lk[u]) > mmax:
                    # prune to the mmax most-similar neighbors
                    sims = self.vecs[lk[u]] @ self.vecs[u]
                    keep = np.argsort(-sims, kind="stable")[:mmax]
                    lk[u] = [lk[u][j] for j in keep]
            eps = [u for _, u in cands]
        if l > self.max_level:
            self.entry, self.max_level = i, l

    # ---- search ----

    def search(self, q: np.ndarray, k: int = 10,
               ef_search: int = 64) -> List[tuple]:
        """[(vec_id, sim)] best-first; ties (post-rounding callers) by
        ascending id via the stable sort below."""
        if self.entry < 0:
            return []
        q = np.asarray(q, dtype=np.float32)
        eps = [self.entry]
        for lev in range(self.max_level, 0, -1):
            eps = [self._search_layer(q, eps, 1, lev)[0][1]]
        best = self._search_layer(q, eps, max(ef_search, k), 0)[:k]
        order = sorted(best, key=lambda t: (-t[0], self.ids[t[1]]))
        return [(int(self.ids[u]), float(s)) for s, u in order]

    # ---- serialization (arrow binary cell per shard) ----

    def to_bytes(self) -> bytes:
        return pickle.dumps({
            "M": self.M, "efC": self.efC, "seed": self.seed,
            "ids": self.ids, "vecs": self.vecs, "levels": self.levels,
            "links": self.links, "entry": self.entry,
            "max_level": self.max_level}, protocol=4)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HNSWGraph":
        d = pickle.loads(blob)
        g = cls(d["M"], d["efC"], d["seed"])
        g.ids, g.vecs, g.levels = d["ids"], d["vecs"], d["levels"]
        g.links, g.entry, g.max_level = \
            d["links"], d["entry"], d["max_level"]
        return g


def build_hnsw(ds: "ray.data.Dataset", *, num_shards: int = 4,
               M: int = 8, ef_construction: int = 80,
               vec_field: str = "embedding", id_field: str = "vec_id",
               seed: int = 7) -> "ray.data.Dataset":
    """Build per-shard HNSW graphs as a materialized Dataset (one row
    per shard: shard id + serialized graph).  Shard membership is
    ``vec_id % num_shards`` — input-derived, identical at any
    parallelism."""

    def tag(t: pa.Table) -> pa.Table:
        ids = t[id_field].to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = list_vectors(t[vec_field], np.float32)
        blobs = [v.tobytes() for v in vecs]
        return pa.table({
            "shard": pa.array(ids % num_shards, pa.int64()),
            "vid": pa.array(ids, pa.int64()),
            "vec_b": pa.array(blobs, pa.binary())})

    def build_one(g: pa.Table) -> pa.Table:
        ids = g["vid"].to_numpy(zero_copy_only=False)
        blobs = g["vec_b"].to_pylist()
        vecs = np.frombuffer(b"".join(blobs), dtype=np.float32) \
            .reshape(len(blobs), -1)
        shard = int(g["shard"][0].as_py())
        graph = HNSWGraph(M, ef_construction,
                          seed=seed + shard).build(ids, vecs)
        return pa.table({"shard": pa.array([shard], pa.int64()),
                         "graph": pa.array([graph.to_bytes()],
                                           pa.large_binary())})

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("shard").map_groups(build_one, batch_format="pyarrow") \
        .materialize()


def hnsw_topk(graph_ds: "ray.data.Dataset", query_vecs: np.ndarray, *,
              k: int = 10, ef_search: int = 64) -> pd.DataFrame:
    """Search every shard graph for every query (map_batches over the
    shard rows; queries broadcast once) and merge per-shard top-k on
    the driver — (shards x queries x k) candidate rows, never vectors.
    Returns (qid, rank, vec_id, score) like brute_force_topk."""
    q = _normalize(np.asarray(query_vecs, dtype=np.float32))
    q_ref = ray.put(q)

    def search_shard(t: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        out_q, out_id, out_s = [], [], []
        for blob in t["graph"].to_pylist():
            g = HNSWGraph.from_bytes(blob)
            for qi in range(qm.shape[0]):
                for vid, s in g.search(qm[qi], k, ef_search):
                    out_q.append(qi)
                    out_id.append(vid)
                    out_s.append(float(s))
        return pa.table({"qid": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_id, pa.int64()),
                         "score": pa.array(out_s, pa.float64())})

    partials = graph_ds.map_batches(search_shard,
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
