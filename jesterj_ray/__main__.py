"""CLI entry point — the ``java -jar jesterj.jar <plan> ...`` analog
(reference ``ingest/Main.java:87-127``; docopt usage in
``usage.docopts.txt``).

    python -m jesterj_ray run PLAN.json [--out DIR] [--num-cpus N]
    python -m jesterj_ray visualize PLAN.json          # -z analog: print DAG
    python -m jesterj_ray build-index SRC.parquet OUT_DIR
        [--text-col C] [--key-col C] [--tokenizer simple|code]
    python -m jesterj_ray delta-index SRC.parquet OUT_DIR ...
                                                       # per-doc re-feed
    python -m jesterj_ray watch 'GLOB' OUT_DIR [--interval S] [--cycles N]
    python -m jesterj_ray mark OUT_DIR PID dirty|force  # external re-feed
    python -m jesterj_ray delete-docs INDEX_DIR KEY...  # tombstone by key
    python -m jesterj_ray status OUT_DIR [PID]          # manifest + history
    python -m jesterj_ray query INDEX_DIR "terms..." [-k N]

Owns its Ray session (guarded init) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus) -> bool:
    """Init Ray if nobody else owns a session; returns True when WE did
    (callers shut down only then — never kill a host session, e.g. the
    pytest fixture's)."""
    import ray
    owned = not ray.is_initialized()
    if owned:
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return owned


def _ray_done(owned: bool) -> None:
    if owned:
        import ray
        ray.shutdown()


def cmd_run(args) -> int:
    from jesterj_ray.model.registry import load_plan_file
    import ray
    import ray.data as rd
    plan = load_plan_file(args.plan)
    owned = _ray_init(args.num_cpus)
    with open(args.plan) as f:
        spec = json.load(f)
    src = spec["source"]
    ds = rd.read_parquet(src["parquet"], columns=src.get("columns"))
    results = plan.execute(ds)
    for leaf, out_ds in results.items():
        out_path = f"{args.out}/{leaf}"
        out_ds.write_parquet(out_path)
        print(f"{leaf}: wrote {out_path}")
    _ray_done(owned)
    return 0


def cmd_visualize(args) -> int:
    """-z analog: print the DAG instead of running it (Main.java:151-177
    prints DOT every 5s; we print once)."""
    from jesterj_ray.model.registry import load_plan_file
    plan = load_plan_file(args.plan)
    print(f"digraph {plan.name} {{")
    for pred, succs in plan.edges.items():
        for s in succs:
            print(f'  "{pred}" -> "{s}";')
    for root in plan.roots():
        print(f'  "SOURCE" -> "{root}";')
    print("}")
    return 0


def cmd_build_index(args) -> int:
    import ray
    from jesterj_ray.index.build_rows import build_index_rows
    tokenizer = args.tokenizer
    if args.schema:
        if not args.field_type:
            raise SystemExit("--schema requires --field-type")
        from jesterj_ray.tokenize.analyzer import (load_schema_analyzers,
                                                   register_analyzer)
        resources = {}
        for spec in args.resource:
            name, _, path = spec.partition("=")
            with open(path or name) as f:
                resources[name] = f.read()
        with open(args.schema) as f:
            cfgs = load_schema_analyzers(f.read(), resources)
        if args.field_type not in cfgs:
            raise SystemExit(
                f"fieldType {args.field_type!r} not in schema "
                f"(found: {sorted(cfgs)})")
        tokenizer = f"schema:{args.field_type}"
        register_analyzer(tokenizer, cfgs[args.field_type])
    owned = _ray_init(args.num_cpus)
    stats = build_index_rows(args.src, args.out, text_col=args.text_col,
                             key_col=args.key_col, tokenizer=tokenizer,
                             docs_per_partition=args.docs_per_partition)
    print(json.dumps(stats))
    _ray_done(owned)
    return 0


def cmd_delta_index(args) -> int:
    import ray
    from jesterj_ray.index.build_rows import delta_reindex
    owned = _ray_init(args.num_cpus)
    stats = delta_reindex(args.src, args.out, text_col=args.text_col,
                          key_col=args.key_col, tokenizer=args.tokenizer,
                          docs_per_partition=args.docs_per_partition)
    print(json.dumps(stats))
    _ray_done(owned)
    return 0


def cmd_watch(args) -> int:
    import os

    import ray
    owned = _ray_init(args.num_cpus)
    if getattr(args, "fields", None):
        from jesterj_ray.index.bm25f import watch_and_reindex_fields
        fields = [f.strip() for f in args.fields.split(",") if f.strip()]
        dirs = {f: os.path.join(args.out, f) for f in fields}
        gen = watch_and_reindex_fields(
            args.pattern, dirs, change_col=args.change_col,
            key_col=args.key_col, tokenizer=args.tokenizer,
            interval_s=args.interval, max_cycles=args.cycles,
            docs_per_partition=args.docs_per_partition,
            compact_every=args.compact_every)
    else:
        from jesterj_ray.index.build_rows import watch_and_reindex
        gen = watch_and_reindex(
            args.pattern, args.out, interval_s=args.interval,
            max_cycles=args.cycles, text_col=args.text_col,
            key_col=args.key_col, tokenizer=args.tokenizer,
            docs_per_partition=args.docs_per_partition,
            compact_every=args.compact_every)
    for stats in gen:
        print(json.dumps(stats), flush=True)
    _ray_done(owned)
    return 0


def cmd_mark(args) -> int:
    from jesterj_ray.state.manifest import Manifest
    man = Manifest(args.out, "build")
    if args.status == "dirty":
        man.mark_dirty(args.pid, "cli")
    else:
        man.mark_force(args.pid, "cli")
    print(json.dumps(man.read(args.pid)))
    return 0


def cmd_delete_docs(args) -> int:
    from jesterj_ray.index.query import delete_docs
    n = delete_docs(args.index_dir, args.keys)
    print(json.dumps({"tombstoned": n}))
    return 0


def cmd_status(args) -> int:
    from jesterj_ray.state.manifest import Manifest
    man = Manifest(args.out, "build")
    if args.pid is not None:
        print(json.dumps({"record": man.read(args.pid),
                          "history": man.history(args.pid)}, indent=2))
    else:
        recs = man.all()
        by_status: dict = {}
        for r in recs.values():
            by_status[r["status"]] = by_status.get(r["status"], 0) + 1
        # the shards' last merges: how many were full re-merges, appends
        # of a generation or folds, and the most segments (base +
        # generations) one shard holds
        merges = Manifest(args.out, "merge").all().values()
        by_mode: dict = {}
        for r in merges:
            mode = r.get("mode", "unrecorded")
            by_mode[mode] = by_mode.get(mode, 0) + 1
        print(json.dumps({"partitions": len(recs), "by_status": by_status,
                          "docs": sum(r.get("docs_seen", 0)
                                      for r in recs.values()),
                          "merge": {"shards": len(merges),
                                    "by_mode": by_mode,
                                    "max_generations": max(
                                        (r.get("generations", 1)
                                         for r in merges), default=0)}}))
    return 0


def cmd_repartition(args) -> int:
    import ray
    from jesterj_ray.index.repartition import repartition_for_serving
    owned = _ray_init(args.num_cpus)
    dirs = repartition_for_serving(args.index_dir, args.out,
                                   n_slices=args.slices)
    print(json.dumps({"slice_dirs": dirs}))
    _ray_done(owned)
    return 0


def cmd_delete_query(args) -> int:
    """Tombstone every alive doc matching the query (deleteByQuery)."""
    from jesterj_ray.index.query import delete_by_query
    n = delete_by_query(args.index_dir, args.query,
                        mode="and" if args.conjunctive else "or")
    print(json.dumps({"deleted": n}))
    return 0


def cmd_snapshot(args) -> int:
    """Consistent point-in-time backup of the epoch-pinned file set
    (no Ray needed; see index/epoch.snapshot_index)."""
    from jesterj_ray.index.epoch import snapshot_index
    n = snapshot_index(args.index_dir, args.dest)
    print(json.dumps({"snapshot_epoch": n, "dest": args.dest}))
    return 0


def cmd_compact(args) -> int:
    """Fold tombstones + generation segments out of a delta-built index
    (docids renumber; pause serving — see index/compact.py)."""
    import ray
    from jesterj_ray.index.compact import compact_index
    owned = _ray_init(args.num_cpus)
    print(json.dumps(compact_index(args.index_dir)))
    _ray_done(owned)
    return 0



def cmd_verify_index(args) -> int:
    """Operational integrity check: recompute doc count, vocabulary,
    token totals and sampled per-doc term-frequency vectors from the
    SOURCE parquet with the index's own tokenizer, and compare against
    what the index reports (epoch-pinned metadata + term dictionary +
    postings).  Exit 0 on full agreement, 1 with a diff report — the
    CLI face of the `index_stats_summary`/`term_vectors` oracle
    cross-checks.  Reads the whole source on the driver: a spot-check
    tool for operators, not the distributed stats pipeline.

    Delta-aware: on an index with tombstones (delta-reindexed or
    ``delete_docs``), doc count and token totals count ALIVE docs
    only, the vocabulary check is SKIPPED
    (Lucene df semantics keep stale terms until compaction — a
    healthy delta index would otherwise fail), and key lookups pick
    the alive copy of an updated doc (delta pids strictly ascend)."""
    import random
    from collections import Counter

    import numpy as _np
    import pyarrow.compute as _pc
    import pyarrow.parquet as pq
    from jesterj_ray.index.build import DOC_BITS
    from jesterj_ray.index.query import IndexReader

    reader = IndexReader(args.index_dir)
    tok = reader.tokenizer
    key_col = args.key_col or "doc_id"
    t = pq.read_table(args.source, columns=[key_col, args.text_col])
    keys = t[key_col].to_pylist()
    texts = t[args.text_col].to_pylist()
    toks = [tok(x or "") for x in texts]
    problems = []
    skipped = []
    n_docs, total = len(texts), sum(len(d) for d in toks)
    vocab = len({w for d in toks for w in d})
    has_tombs = bool(reader._tombstone.any())
    # _dl_dense (same internal index_stats_summary reads): alive-only
    # counts and totals, so an index with tombstones (delta-built, or
    # delete_docs on a build whose n_docs stays as-built) verifies
    # against its source
    alive = ~reader._tombstone
    idx_docs = int(alive.sum()) if has_tombs else int(reader.n_docs)
    if idx_docs != n_docs:
        problems.append(f"n_docs: index {idx_docs} != source {n_docs}")
    idx_total = int(reader._dl_dense[alive].sum())
    if idx_total != total:
        problems.append(f"total_tokens: index {idx_total} != source {total}")
    if has_tombs:
        skipped.append("vocab (tombstones present: stale terms decay "
                       "only at compaction)")
    else:
        idx_vocab = len(reader.prefix_term_dfs(""))
        if idx_vocab != vocab:
            problems.append(f"vocab: index {idx_vocab} != source {vocab}")

    def alive_internal(key: str):
        # an updated doc exists twice (tombstoned base + alive delta);
        # collect every internal id and serve the alive one — the
        # realtime_get lookup shape
        cands = []
        for pid, arr in reader._doc_key.items():
            i = _pc.index(arr, key).as_py()
            if i >= 0:
                cands.append((int(pid) << DOC_BITS) | int(i))
        live = [c for c in cands
                if reader.alive_mask(_np.asarray([c], _np.int64))[0]]
        return max(live) if live else None

    rng = random.Random(args.seed)
    sample = rng.sample(range(n_docs), min(args.sample, n_docs))
    for i in sample:
        # build_index_rows zfills EVERY key to 12 (build_rows doc_key
        # derivation) — mirror unconditionally, digits or not
        key = str(keys[i]).zfill(12)
        internal = alive_internal(key)
        if internal is None:
            problems.append(f"doc {keys[i]}: key not in index")
            continue
        want = Counter(toks[i])
        dl = int(reader.doc_len(_np.asarray([internal],
                                            _np.int64))[0])
        if dl != len(toks[i]):
            problems.append(f"doc {keys[i]}: doc_len {dl} != "
                            f"{len(toks[i])}")
        for term, tf in list(want.items())[:args.terms_per_doc]:
            docs, tfs = reader.postings(term)
            pos = _np.searchsorted(docs, internal)
            if pos >= docs.size or docs[pos] != internal:
                problems.append(f"doc {keys[i]}: term {term!r} "
                                f"missing from postings")
            elif int(tfs[pos]) != tf:
                problems.append(f"doc {keys[i]} term {term!r}: tf "
                                f"{int(tfs[pos])} != {tf}")
    report = {"n_docs": n_docs, "vocab": vocab,
              "total_tokens": total, "sampled_docs": len(sample),
              "skipped_checks": skipped, "problems": problems}
    print(json.dumps(report))
    return 1 if problems else 0


def cmd_query(args) -> int:
    """One query against an index dir, in any engine mode: disjunctive
    (default), conjunctive (--and), exclusion (--not TERMS), phrase
    (--phrase), boosted (term^2.5 syntax, --boosted), prefix (--prefix)
    or fuzzy (--fuzzy [edits])."""
    import os

    import numpy as np
    from jesterj_ray.index.query import IndexReader
    mode_flags = [name for name, on in [
        ("--phrase", args.phrase), ("--and", args.conjunctive),
        ("--not", bool(args.exclude)), ("--boosted", args.boosted),
        ("--prefix", args.prefix),
        ("--fuzzy", args.fuzzy is not None)] if on]
    if getattr(args, "fields", None):
        if mode_flags or getattr(args, "explain", None):
            raise SystemExit(
                f"--fields supports plain BM25F top-k only (got: "
                f"{' '.join(mode_flags) or '--explain'})")
        from jesterj_ray.index.bm25f import BM25FReader
        fields = [f.strip() for f in args.fields.split(",") if f.strip()]
        weights = {f: 1.0 for f in fields}
        for spec in (args.weights or "").split(","):
            if not spec.strip():
                continue
            fname, _, w = spec.partition("=")
            if fname.strip() not in weights:
                raise SystemExit(f"--weights field {fname!r} not in "
                                 f"--fields {fields}")
            weights[fname.strip()] = float(w)
        fr = BM25FReader({f: os.path.join(args.index_dir, f)
                          for f in fields},
                         weights=weights,
                         b={f: 0.75 for f in fields})
        hits = fr.topk(args.query, args.k)
        keys = fr.doc_keys(np.array([h[0] for h in hits],
                                    dtype=np.int64))
        for rank, ((_, score), key) in enumerate(zip(hits, keys), 1):
            print(f"{rank}\t{key}\t{score:.6f}")
        return 0
    reader = IndexReader(args.index_dir)
    if getattr(args, "explain", None):
        if mode_flags:
            raise SystemExit(
                f"--explain covers the plain disjunctive score only "
                f"(got: {' '.join(mode_flags)})")
        print(json.dumps(reader.explain(args.query, args.explain),
                         indent=2))
        return 0
    if args.phrase:
        hits = reader.phrase_topk(args.query, args.k)
    elif args.conjunctive:
        hits = reader.topk_and(args.query, args.k)
    elif args.exclude:
        hits = reader.topk_excluding(args.query, args.exclude, args.k)
    elif args.boosted:
        hits = reader.topk_boosted(args.query, args.k)
    elif args.prefix:
        hits = reader.topk_prefix(args.query, args.k)
    elif args.fuzzy is not None:
        hits = reader.topk_fuzzy(args.query, args.k,
                                 max_edits=args.fuzzy)
    else:
        hits = reader.topk(args.query, args.k)
    keys = reader.doc_keys(np.array([h[0] for h in hits], dtype=np.int64))
    for rank, ((doc, score), key) in enumerate(zip(hits, keys), 1):
        print(f"{rank}\t{key}\t{score:.6f}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="jesterj_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run")
    r.add_argument("plan")
    r.add_argument("--out", default="/tmp/jjray_out")
    r.add_argument("--num-cpus", type=int, default=8)

    v = sub.add_parser("visualize")
    v.add_argument("plan")

    b = sub.add_parser("build-index")
    b.add_argument("src")
    b.add_argument("out")
    b.add_argument("--text-col", default="text")
    b.add_argument("--key-col", default=None)
    b.add_argument("--tokenizer", default="simple",
                   choices=["simple", "code"])
    # schema-driven analyzer (SolrSchemaUtil analog): --schema + the
    # fieldType to use; --resource name=path supplies stopword/synonym
    # files the schema references.  Overrides --tokenizer.
    b.add_argument("--schema", default=None,
                   help="schema.xml path; build with a fieldType's "
                        "analyzer chain instead of a frozen tokenizer")
    b.add_argument("--field-type", default=None,
                   help="fieldType name inside --schema")
    b.add_argument("--resource", action="append", default=[],
                   metavar="NAME=PATH",
                   help="analyzer resource file (words/synonyms/...)")
    b.add_argument("--docs-per-partition", type=int, default=50_000)
    b.add_argument("--num-cpus", type=int, default=8)

    d = sub.add_parser("delta-index")
    d.add_argument("src")
    d.add_argument("out")
    d.add_argument("--text-col", default="text")
    d.add_argument("--key-col", default=None)
    # no choices: schema-built indexes carry custom tokenizer names —
    # delta validates against (and re-registers from) the base stats
    d.add_argument("--tokenizer", default="simple")
    d.add_argument("--docs-per-partition", type=int, default=50_000)
    d.add_argument("--num-cpus", type=int, default=8)

    w = sub.add_parser("watch")
    w.add_argument("pattern")
    w.add_argument("out")
    w.add_argument("--interval", type=float, default=5.0)
    w.add_argument("--cycles", type=int, default=None)
    w.add_argument("--text-col", default="text")
    w.add_argument("--key-col", default=None)
    w.add_argument("--tokenizer", default="simple",
                   choices=["simple", "code"])
    w.add_argument("--docs-per-partition", type=int, default=50_000)
    w.add_argument("--num-cpus", type=int, default=8)
    # BM25F family mode: watch a whole field family as a unit
    # (index/bm25f.watch_and_reindex_fields) — one dir per field under
    # OUT, change detection over --change-col (the full-doc column)
    w.add_argument("--fields", default=None, metavar="F1,F2",
                   help="comma-separated field columns: watch a BM25F "
                        "family (dirs OUT/<field>) instead of one index")
    w.add_argument("--change-col", default="text",
                   help="full-document column for family change "
                        "detection (with --fields)")
    w.add_argument("--compact-every", type=int, default=None)

    m = sub.add_parser("mark")
    m.add_argument("out")
    m.add_argument("pid", type=int)
    m.add_argument("status", choices=["dirty", "force"])

    dq = sub.add_parser("delete-query")
    dq.add_argument("index_dir")
    dq.add_argument("query")
    dq.add_argument("--and", dest="conjunctive", action="store_true")

    dd = sub.add_parser("delete-docs")
    dd.add_argument("index_dir")
    dd.add_argument("keys", nargs="+")

    st = sub.add_parser("status")
    st.add_argument("out")
    st.add_argument("pid", type=int, nargs="?", default=None)

    rp = sub.add_parser("repartition")
    rp.add_argument("index_dir")
    rp.add_argument("out")
    rp.add_argument("--slices", type=int, default=4)
    rp.add_argument("--num-cpus", type=int, default=8)

    sn = sub.add_parser("snapshot")
    sn.add_argument("index_dir")
    sn.add_argument("dest")

    cp = sub.add_parser("compact")
    cp.add_argument("index_dir")
    cp.add_argument("--num-cpus", type=int, default=8)

    vi = sub.add_parser("verify-index")
    vi.add_argument("index_dir")
    vi.add_argument("source")
    vi.add_argument("--text-col", default="text")
    vi.add_argument("--key-col", default=None)
    vi.add_argument("--sample", type=int, default=8)
    vi.add_argument("--terms-per-doc", type=int, default=10)
    vi.add_argument("--seed", type=int, default=7)

    q = sub.add_parser("query")
    q.add_argument("index_dir")
    q.add_argument("query")
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--and", dest="conjunctive", action="store_true",
                   help="all terms must match")
    q.add_argument("--not", dest="exclude", default=None, metavar="TERMS",
                   help="drop docs containing any of these terms")
    q.add_argument("--phrase", action="store_true",
                   help="exact phrase (positional index required)")
    q.add_argument("--boosted", action="store_true",
                   help="parse term^2.5 per-term boosts")
    q.add_argument("--prefix", action="store_true",
                   help="treat the query as a term prefix (prefix*)")
    q.add_argument("--fuzzy", type=int, default=None, metavar="EDITS",
                   help="expand to terms within EDITS Levenshtein edits")
    q.add_argument("--explain", default=None, metavar="DOC_KEY",
                   help="print the BM25 score breakdown for one doc "
                        "(Solr debugQuery analog) instead of top-k")
    q.add_argument("--fields", default=None, metavar="F1,F2",
                   help="query a BM25F family (dirs INDEX_DIR/<field>)")
    q.add_argument("--weights", default=None, metavar="F=W,F=W",
                   help="per-field weights with --fields (edismax qf; "
                        "default 1.0 per listed field)")

    args = p.parse_args(argv)
    return {"run": cmd_run, "visualize": cmd_visualize,
            "build-index": cmd_build_index, "delta-index": cmd_delta_index,
            "watch": cmd_watch, "mark": cmd_mark,
            "delete-docs": cmd_delete_docs, "status": cmd_status,
            "repartition": cmd_repartition, "compact": cmd_compact,
            "snapshot": cmd_snapshot, "delete-query": cmd_delete_query,
            "verify-index": cmd_verify_index,
            "query": cmd_query}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
