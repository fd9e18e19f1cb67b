"""Per-layer metrics of a traced run.

Span-derived numbers come from ``tracer.Tracer``; the rest are small
probes made after the timed window (tokenize throughput, cold vs warm
postings, pruned vs exhaustive scoring, fan-out overhead) and counts read
from the partition manifest.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np

from jesterj_ray.index import query
from jesterj_ray.state.manifest import Manifest
from jesterj_ray.tokenize.tokenizer import code_tokenize

from measure import median
from tracer import Tracer, child_time
from workloads import dir_bytes, vocabulary

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "tokenize.code_tokenize_mb_per_s": "MB/s",
    "index.build_rows.plan_ms": "ms",
    "index.build_rows.stage1_s": "s",
    "index.build.merge_runs_s": "s",
    "index.build.partitions": "count",
    "index.build.docs_seen": "count",
    "index.build.terms_emitted": "count",
    "index.build.run_bytes": "bytes",
    "index.build.partition_terms_skew": "ratio",
    "index.build.segment_bytes": "bytes",
    "index.epoch.publish_epoch_ms": "ms",
    "index.epoch.publish_epoch_calls": "count",
    "state.manifest.all_ms": "ms",
    "state.manifest.files": "count",
    "index.query.open_ms": "ms",
    "index.query.term_entry_us": "us",
    "index.query.postings_cold_us": "us",
    "index.query.postings_warm_us": "us",
    "index.query.postings_per_result": "count",
    "index.query.pruned_over_exhaustive": "ratio",
    "index.query.or_p50_ms": "ms",
    "index.query.and_p50_ms": "ms",
    "index.query.phrase_p50_ms": "ms",
    "index.repartition.repartition_for_serving_s": "s",
    "index.serving.fanout_overhead_ms": "ms",
    "index.serving.topk_many_s": "s",
    "index.delta.delta_reindex_s": "s",
    "index.delta.diff_s": "s",
    "index.delta.merge_runs_s": "s",
    "index.delta.publish_epoch_ms": "ms",
    "index.delta.reindexed_docs": "count",
    "index.delta.tombstoned": "count",
    "index.delta.delta_partitions": "count",
    "index.delta.generation_files": "count",
    "index.delta.compacting_cycles": "count",
    "index.compact.compact_index_s": "s",
    "index.compact.bytes_rewritten": "bytes",
    "setup.ray_init_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.span_coverage": "ratio",
    "trace.focus_share": "ratio",
}

# top-level spans that make up each workload's target layer
FOCUS = {"search": {"or", "and", "phrase", "sharded_topk", "topk_many",
                    "reader_open"},
         "churn": {"delta_reindex", "reader_open"}}


def _med(xs) -> float:
    xs = list(xs)
    return median(xs) if xs else 0.0


def _probe_queries(terms: List[str], seed: int) -> List[str]:
    rng = np.random.default_rng(seed + 41)
    top = terms[:400]
    return [" ".join(rng.choice(top, size=2, replace=False))
            for _ in range(30)]


def probe(w, tracer: Tracer) -> Dict[str, float]:
    """Standalone layer probes on the workload's own corpus and index
    (run with the tracer installed, outside the timed window)."""
    out: Dict[str, float] = {}
    texts = w.texts()
    mb = sum(len(t.encode()) for t in texts) / 1e6
    t0 = time.perf_counter()
    for t in texts:
        code_tokenize(t)
    out["tokenize.code_tokenize_mb_per_s"] = mb / (time.perf_counter() - t0)

    terms, _ = vocabulary(texts)
    reader = query.IndexReader(w.main_index())
    rng = np.random.default_rng(w.seed + 43)
    probe_terms = terms[:20] + list(rng.choice(terms, size=20, replace=False))
    cold, warm = [], []
    for t in probe_terms:
        t0 = time.perf_counter()
        reader.postings(t)
        t1 = time.perf_counter()
        reader.postings(t)
        cold.append(t1 - t0)
        warm.append(time.perf_counter() - t1)
    out["index.query.postings_cold_us"] = median(cold) * 1e6
    out["index.query.postings_warm_us"] = median(warm) * 1e6

    qs = _probe_queries(terms, w.seed)
    k = 10
    per_result = []
    for q in qs:
        dfs = sum((reader.term_entry(t) or {"df": 0})["df"]
                  for t in dict.fromkeys(code_tokenize(q)))
        per_result.append(dfs / k)
    out["index.query.postings_per_result"] = median(per_result)
    for q in qs:                                 # warm both paths
        reader.topk_pruned(q, k)
        reader.topk(q, k)
    pruned = exhaustive = 0.0
    for q in qs:
        t0 = time.perf_counter()
        reader.topk_pruned(q, k)
        t1 = time.perf_counter()
        reader.topk(q, k)
        pruned += t1 - t0
        exhaustive += time.perf_counter() - t1
    out["index.query.pruned_over_exhaustive"] = pruned / exhaustive

    if w.name == "search":
        slices = [query.IndexReader(d) for d in w.slices]
        over = []
        for _, text, kk in w.stream[:40]:
            for r in slices:
                r.topk_pruned(text, kk)
            w.svc.topk(text, kk)
            slowest = 0.0
            for r in slices:
                t0 = time.perf_counter()
                r.topk_pruned(text, kk)
                slowest = max(slowest, time.perf_counter() - t0)
            t0 = time.perf_counter()
            w.svc.topk(text, kk)
            over.append(time.perf_counter() - t0 - slowest)
        out["index.serving.fanout_overhead_ms"] = median(over) * 1e3
    return out


def _manifest_counts(index_dir: str) -> Dict[str, float]:
    recs = Manifest(index_dir, "build").all()
    terms = [r["terms_emitted"] for r in recs.values()]
    man_files = sum(len(f) for _, _, f in
                    os.walk(os.path.join(index_dir, "manifest")))
    return {
        "index.build.partitions": len(recs),
        "index.build.docs_seen": sum(r["docs_seen"] for r in recs.values()),
        "index.build.terms_emitted": sum(terms),
        "index.build.run_bytes": sum(r["bytes_written"]
                                     for r in recs.values()),
        "index.build.partition_terms_skew":
            (max(terms) / median(terms)) if terms and median(terms) else 0.0,
        "index.build.segment_bytes":
            dir_bytes(os.path.join(index_dir, "segments")),
        "state.manifest.files": man_files,
    }


def layer_metrics(w, tracer: Tracer, window: Tuple[float, float],
                  overhead: float, probes: Dict[str, float]
                  ) -> Dict[str, float]:
    """Every per-layer metric for workload ``w`` (tracer uninstalled)."""
    wall = window[1] - window[0]
    m = {name: 0.0 for name in UNITS}
    m.update(probes)

    builds = [s for s in tracer.select("build", parent=None)
              if "warm-" not in str(s.args[1])]
    noop = [s for s in builds
            if any(lo <= s.start < hi for lo, hi in getattr(w, "noop_windows", []))]
    fresh = [s for s in builds if s not in noop]
    plan = child_time(tracer, builds, "plan")
    merge = child_time(tracer, builds, "merge_runs")
    pub = child_time(tracer, builds, "publish_epoch")
    m["index.build_rows.plan_ms"] = _med(plan.values()) * 1e3
    stage1 = [s.dur - plan[i] - merge[i] - pub[i]
              for i, s in enumerate(builds) if s in fresh]
    m["index.build_rows.stage1_s"] = _med(stage1)
    m["index.build.merge_runs_s"] = _med(
        merge[i] for i, s in enumerate(builds) if s in fresh)
    m.update(_manifest_counts(w.main_index()))

    pubs = tracer.select("publish_epoch")
    m["index.epoch.publish_epoch_ms"] = _med(s.dur for s in pubs) * 1e3
    m["index.epoch.publish_epoch_calls"] = len(
        [s for s in pubs if window[0] <= s.start < window[1]])
    m["state.manifest.all_ms"] = _med(
        s.dur for s in tracer.select("manifest_all")) * 1e3
    m["index.query.open_ms"] = _med(
        s.dur for s in tracer.select("reader_open")) * 1e3
    m["index.query.term_entry_us"] = _med(
        s.dur for s in tracer.select("term_entry")) * 1e6
    for mode in ("or", "and", "phrase"):
        m[f"index.query.{mode}_p50_ms"] = _med(
            s.dur for s in tracer.select(mode, None, window)) * 1e3
    m["index.repartition.repartition_for_serving_s"] = _med(
        s.dur for s in tracer.select("repartition", None))
    m["index.serving.topk_many_s"] = _med(
        s.dur for s in tracer.select("topk_many", None, window))

    deltas = tracer.select("delta_reindex", None, window)
    if deltas:
        dm = child_time(tracer, deltas, "merge_runs")
        dp = child_time(tracer, deltas, "publish_epoch")
        m["index.delta.delta_reindex_s"] = _med(s.dur for s in deltas)
        m["index.delta.merge_runs_s"] = _med(dm.values())
        m["index.delta.publish_epoch_ms"] = _med(dp.values()) * 1e3
        m["index.delta.diff_s"] = _med(
            s.dur - dm[i] - dp[i] for i, s in enumerate(deltas))
        res = [s.result for s in deltas if s.result]
        m["index.delta.reindexed_docs"] = _med(r["reindexed_docs"] for r in res)
        m["index.delta.tombstoned"] = _med(r["tombstoned"] for r in res)
        m["index.delta.delta_partitions"] = _med(
            len(r["delta_partitions"]) for r in res)
        m["index.delta.generation_files"] = _med(w.gen_files)
        m["index.delta.compacting_cycles"] = w.auto_compactions
    # compaction runs once after the window, in the untraced check
    m["index.compact.compact_index_s"] = _med(getattr(w, "compact_s", []))
    m["index.compact.bytes_rewritten"] = _med(getattr(w, "compact_bytes", []))

    m["setup.ray_init_s"] = _med(w.setup_parts.get("setup.ray_init_s", []))
    m["setup.warmup_s"] = _med(w.setup_parts.get("setup.warmup_s", []))
    m["trace.overhead_frac"] = overhead
    m["trace.span_coverage"] = tracer.covered(window) / wall
    if w.name == "bulk":
        in_win = [i for i, s in enumerate(builds)
                  if window[0] <= s.start < window[1]]
        focus = sum(builds[i].dur - plan[i] - pub[i] for i in in_win)
    else:
        focus = tracer.covered(window, FOCUS[w.name])
    m["trace.focus_share"] = focus / wall
    return m


def split_table(tracer: Tracer, window: Tuple[float, float]) -> Dict[str, float]:
    """Seconds of the timed window per top-level span name, and per
    (parent > child) for direct children: the human-readable split."""
    out: Dict[str, float] = {}
    for s in tracer.spans:
        if not window[0] <= s.start < window[1]:
            continue
        key = s.name if s.parent is None else f"{s.parent} > {s.name}"
        out[key] = out.get(key, 0.0) + s.dur
    return {k: round(v, 4) for k, v in sorted(out.items())}
