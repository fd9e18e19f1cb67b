"""Sharded query serving: one actor per repartitioned slice index.

The single-reader :class:`..index.query.QueryActor` holds the whole index;
at 10^12 docs no node can.  :func:`..repartition.repartition_for_serving`
splits a global index at rest into self-contained doc-range slice dirs
whose segments hold only the slice's postings but keep GLOBAL df/cf and
stats.json.  Each slice actor opens one slice dir with a plain
:class:`..query.IndexReader` — so every query mode (OR, AND, phrase)
works per slice and scores equal the unsharded engine's exactly — and
the driver merges the per-slice k-lists.  Tested rank-identical to the
full reader.

A changing index is served by one writer cycle: compact the source,
re-split it into the SAME slice root, then :meth:`_ReopenMixin.reopen`
(or let ``reopen_on_change=True`` catch the replaced pinned files).

Memory per actor = its slice's norms + score buffer + a bounded LRU of
touched segment row groups — node-sized at any corpus scale by raising
the slice count.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, List, Tuple

import ray

from .epoch import IndexChangedError
from .query import IndexReader


def _merge_topk(partials: Iterable[List[Tuple[int, float]]], k: int
                ) -> List[Tuple[int, float]]:
    """First ``k`` hits of the per-slice k-lists (each already ordered
    score desc, ties docID asc — slice doc spaces are disjoint)."""
    return list(itertools.islice(
        heapq.merge(*partials, key=lambda h: (-h[1], h[0])), k))


def _caused_by_index_change(e: BaseException) -> bool:
    """True if ``e`` is (or wraps, as a RayTaskError cause chain) an
    :class:`IndexChangedError` — the signal that a concurrent writer
    replaced a file the actor's reader had pinned."""
    seen = 0
    while e is not None and seen < 8:
        if isinstance(e, IndexChangedError):
            return True
        # RayTaskError carries the remote exception as .cause; plain
        # exceptions chain via __cause__
        e = getattr(e, "cause", None) or getattr(e, "__cause__", None)
        seen += 1
    return False


class _ReopenMixin:
    """Opt-in reopen-at-latest-epoch for the driver-side services
    (r03 VERDICT #7; reference analog: scanners keep feeding Solr while
    it serves — ``README.md:36-48`` — and Solr swaps searchers on
    commit).  Epoch pinning makes every actor's reader a consistent
    point-in-time view; a delta cycle on the source touches no slice
    file, but re-splitting a compacted source REPLACES pinned files.
    Serving stays up across writer cycles at the cost of one retried
    fan-out; bounded retries mean a writer racing every reopen attempt
    eventually surfaces the error honestly.

    Two triggers:

    - explicit :meth:`reopen` — the publisher notifies serving after a
      commit (Solr's searcher swap; the watch loop generator yields
      after each publish, which is the natural call site).  This is the
      PRIMARY path: pinned readers with warm file handles keep serving
      the old epoch consistently forever (POSIX inodes outlive the
      os.replace), so staleness need not ever surface as an error.
    - automatic — ``reopen_on_change=True`` additionally catches
      IndexChangedError from a COLD file open (an actor that outlived
      its epoch's files, e.g. after an actor restart or on shared
      storage without inode semantics), reopens every actor, and
      retries the fan-out.
    """

    _reopen = False
    _MAX_REOPENS = 3
    # True until one reopen of EVERY actor succeeds: after a partial one,
    # some slices serve the new split and others the old, so no fan-out
    # may merge their k-lists
    _stale = False

    def reopen(self) -> None:
        """Re-pin every slice actor at the latest published epoch
        (see :meth:`SliceQueryActor.reopen` for what is kept)."""
        self._stale = True
        ray.get([a.reopen.remote() for a in self.actors])
        self._stale = False

    def _with_reopen(self, fn):
        for attempt in range(self._MAX_REOPENS + 1):
            try:
                if self._stale:
                    self.reopen()
                return fn()
            except Exception as e:
                if (not self._reopen or attempt == self._MAX_REOPENS
                        or not _caused_by_index_change(e)):
                    raise
                self._stale = True


@ray.remote
class SliceQueryActor:
    """Actor over one repartitioned slice index: a plain IndexReader —
    the slice's segments hold only its docs but GLOBAL df/stats, so every
    query mode (OR, AND, phrase, positions) works per slice with scores
    identical to the global reader."""

    def __init__(self, slice_dir: str):
        self._dir = slice_dir
        self.reader = IndexReader(slice_dir)

    def reopen(self) -> None:
        """Re-pin at the slice's LATEST published epoch.  Files the new
        epoch pins unchanged keep their loaded docs tables and segment
        term indexes (shared per-file cores, re-verified against the
        pin); replaced or new files and every postings/impacts cache
        are loaded afresh, lazily, by the next queries."""
        self.reader = IndexReader(self._dir)

    def topk(self, query: str, k: int) -> List[Tuple[int, float]]:
        return self.reader.topk(query, k)

    def topk_batch(self, queries: List[Tuple[str, int]]
                   ) -> List[List[Tuple[int, float]]]:
        return [self.reader.topk(q, k) for q, k in queries]

    def phrase_topk(self, query: str, k: int) -> List[Tuple[int, float]]:
        return self.reader.phrase_topk(query, k)


class ShardedQueryService(_ReopenMixin):
    """Driver-side handle: fan a query to one actor per slice dir (from
    ``repartition_for_serving``), merge the k-lists.
    ``reopen_on_change=True``: on IndexChangedError from any slice,
    reopen every actor at the latest epoch and retry (serve across
    writer cycles — see :class:`_ReopenMixin`)."""

    def __init__(self, slice_dirs: List[str],
                 reopen_on_change: bool = False):
        if not slice_dirs:
            raise ValueError("ShardedQueryService needs slice dirs")
        self.actors = [SliceQueryActor.remote(d) for d in slice_dirs]
        self._reopen = reopen_on_change

    def topk(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        return _merge_topk(self._with_reopen(lambda: ray.get(
            [a.topk.remote(query, k) for a in self.actors])), k)

    def topk_many(self, queries: List[Tuple[str, int]]
                  ) -> List[List[Tuple[int, float]]]:
        """Throughput path: ONE RPC per actor for the whole query batch
        (vs one fan-out round trip per query in :meth:`topk`) — all
        actors score the full batch concurrently, the driver merges each
        query's k-lists.  This is how a real client drives sharded
        serving; sequential topk() measures LATENCY, this measures
        THROUGHPUT."""
        per_actor = self._with_reopen(lambda: ray.get(
            [a.topk_batch.remote(queries) for a in self.actors]))
        return [_merge_topk((p[qi] for p in per_actor), k)
                for qi, (_, k) in enumerate(queries)]

    def phrase_topk(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        return _merge_topk(self._with_reopen(lambda: ray.get(
            [a.phrase_topk.remote(query, k) for a in self.actors])), k)

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []


@ray.remote
class BM25FSliceDirActor:
    """Actor over one repartitioned slice of a BM25F field family
    (``repartition.repartition_bm25f_for_serving``): plain per-field
    IndexReaders over self-contained slice indexes; global df arrives
    via the service's df-gather round (any-field union df is not stored
    per field)."""

    def __init__(self, field_dirs):
        from .bm25f import BM25FReader
        self._dirs = field_dirs
        self.reader = BM25FReader(field_dirs)

    def reopen(self) -> None:
        from .bm25f import BM25FReader
        self.reader = BM25FReader(self._dirs)

    def df_counts(self, terms: List[str]):
        return self.reader.term_union_df(terms)

    def topk(self, query: str, k: int, dfs) -> List[Tuple[int, float]]:
        return self.reader.topk(query, k, df_override=dfs)


class BM25FShardedService(_ReopenMixin):
    """Driver-side BM25F sharded serving with EXACT score parity.

    BM25F's idf needs the global any-field df, which no single slice
    holds; slices' per-term union counts are disjoint-space partials
    that SUM to it exactly, so serving is the classic two-phase
    distributed-search protocol: RPC 1 gathers df partials from every
    slice (one round trip for all of a query's terms), RPC 2 scores
    with the summed global dfs; the driver heap-merges per-slice
    k-lists.  Rank-identical to the unsharded ``BM25FReader`` (pinned
    in tests/test_bm25f.py)."""

    def __init__(self, field_slice_dirs, reopen_on_change: bool = False):
        """``field_slice_dirs``: list over slices of {field: slice_dir},
        from ``repartition_bm25f_for_serving`` — the deployment shape
        where each node holds only its slice's files.
        ``reopen_on_change``: see :class:`_ReopenMixin`."""
        if not field_slice_dirs:
            raise ValueError("BM25FShardedService needs field slice dirs")
        self.actors = [BM25FSliceDirActor.remote(d) for d in field_slice_dirs]
        self._reopen = reopen_on_change
        # tokenizer for the df round: all fields share one (stats.json);
        # schema-driven analyzers re-register from the persisted config
        # (same open-in-any-process contract as IndexReader)
        import json
        import os
        any_dir = next(iter(field_slice_dirs[0].values()))
        with open(os.path.join(any_dir, "stats.json")) as f:
            stats = json.load(f)
        if stats.get("analyzer_config") is not None:
            from ..tokenize.analyzer import ensure_registered
            ensure_registered(stats["tokenizer"],
                              stats["analyzer_config"])
        from ..tokenize.tokenizer import TOKENIZERS
        self.tokenizer = TOKENIZERS[stats["tokenizer"]]

    def _global_dfs(self, terms: List[str]):
        partials = ray.get([a.df_counts.remote(terms)
                            for a in self.actors])
        return {t: sum(p[t] for p in partials) for t in terms}

    def topk(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        from .bm25 import dedup_keep_order
        terms = dedup_keep_order(self.tokenizer(query))

        def both_rounds():
            # df gather + score are retried TOGETHER: a reopen between
            # them would score with the previous epoch's global dfs
            dfs = self._global_dfs(terms)
            return ray.get([a.topk.remote(query, k, dfs)
                            for a in self.actors])

        return _merge_topk(self._with_reopen(both_rounds), k)

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []
