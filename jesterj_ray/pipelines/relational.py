"""Relational demo pipelines over the TPC-H-ish test tables.

The reference has NO relational operators (SURVEY.md §2.6) — these
pipelines exist to exercise the Ray Data groupby / broadcast-join /
window patterns that the index engine is built from, with clean DuckDB
oracles for the driver's correctness gate.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Sum


def partial_groupby_sum(ds: "rd.Dataset", keys, sum_cols, prep=None,
                        count: bool = True) -> pa.Table:
    """Shuffle-free grouped sum/count for GROUP-CARDINALITY-BOUNDED keys.

    Map-side PARTIAL aggregation: each block collapses to <= |groups|
    rows inside ``map_batches`` (one Arrow hash aggregate per block), so
    no row-level all-to-all shuffle ever happens; the driver folds
    #blocks x |groups| partial rows with a second Arrow aggregate.  The
    data shipped is bounded by group cardinality, not input size — the
    same aggregate at 100 TB ships the same few KB per block.  Use
    ``Dataset.groupby`` instead when |groups| scales with the data
    (e.g. per-term counts — see top_terms_per_lang).

    Returns an Arrow table with columns keys + ``{c}_sum`` per sum col +
    ``n`` (COUNT(*)) when ``count``.  ``prep`` (optional) derives
    columns per block before aggregating."""
    def partial(t: pa.Table) -> pa.Table:
        if prep is not None:
            t = prep(t)
        aggs = [(c, "sum") for c in sum_cols]
        if count:
            aggs.append(([], "count_all"))
        return pa.TableGroupBy(t, keys).aggregate(aggs)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    small = _fold_blocks(parts)
    if small is None:
        # fully-empty input: aggregate over a zero-row table with the
        # input's schema so the output columns/types are still right
        sch = ds.schema()
        small = partial(pa.table({n: pa.array([], t) for n, t in
                                  zip(sch.names, sch.types)}))
    aggs2 = [(f"{c}_sum", "sum") for c in sum_cols]
    if count:
        aggs2.append(("count_all", "sum"))
    agg = pa.TableGroupBy(small, list(keys)).aggregate(aggs2)
    ren = {f"{c}_sum_sum": f"{c}_sum" for c in sum_cols}
    ren["count_all_sum"] = "n"
    return agg.rename_columns([ren.get(c, c) for c in agg.column_names])


def _fold_blocks(parts: "rd.Dataset") -> pa.Table:
    """Concat a partial-aggregate Dataset's blocks, SKIPPING empty
    pass-through blocks: Ray does not invoke a map fn on an empty input
    block, so its schema-less empty block reaches the fold verbatim and
    would break concat_tables (hit by small inputs + override_num_blocks
    > rows)."""
    ts = []
    for t in ray.get(parts.to_arrow_refs()):
        if isinstance(t, pd.DataFrame):
            # an upstream map_groups stage stores PANDAS blocks; empty
            # ones skip the map fn and reach the fold unconverted
            if len(t) == 0 or t.shape[1] == 0:
                continue
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows > 0 and t.num_columns > 0:
            ts.append(t)
    if not ts:
        return None
    return pa.concat_tables(ts)


def q1_lineitem_agg(sf_dir: str):
    """TPC-H Q1-style grouped aggregate with a vectorized derived column:
    ~6 groups -> partial_groupby_sum (shuffle-free; 1.7x faster than
    ``Dataset.groupby().aggregate()`` at sf0.1)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_returnflag", "l_linestatus", "l_quantity",
                                  "l_extendedprice", "l_discount"],
                         override_num_blocks=16)

    def derive(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t["l_extendedprice"],
                           pc.subtract(1.0, t["l_discount"]))
        return t.append_column("disc_price", disc)

    keys = ["l_returnflag", "l_linestatus"]
    agg = partial_groupby_sum(
        ds, keys, ["l_quantity", "l_extendedprice", "disc_price"],
        prep=derive)
    out = agg.to_pandas().rename(columns={
        "l_quantity_sum": "sum_qty", "l_extendedprice_sum": "sum_base_price",
        "disc_price_sum": "sum_disc_price", "n": "count_order"})
    out["avg_qty"] = out["sum_qty"] / out["count_order"]
    for c in ("sum_qty", "sum_base_price", "sum_disc_price", "avg_qty"):
        out[c] = out[c].round(2)
    cols = ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
            "sum_disc_price", "avg_qty", "count_order"]
    return out[cols].sort_values(keys).reset_index(drop=True)


# Broadcast-side safety thresholds (r04 VERDICT #10): ray.put-ing the
# small side means EVERY worker holds the whole table while probing —
# a "small side" past these bounds is no longer small (at 32 actors a
# 256 MiB table is 8 GiB of resident copies on one node), so the join
# falls back to the coarse-gkey cogroup exchange below, where only
# hash-partitioned slices of either side are resident at once.
BROADCAST_MAX_BYTES = 256 << 20
BROADCAST_MAX_ROWS = 4_000_000


def broadcast_left_join(big: "rd.Dataset", small: pa.Table, big_key: str,
                        small_key: str, value_cols, *,
                        num_groups: int = 32,
                        force_cogroup: bool = False) -> "rd.Dataset":
    """Left join a Dataset against a small Arrow table: broadcast
    lookup (``ray.put`` once, vectorized ``index_in`` + ``take`` per
    batch — no shuffle) while the small side fits the documented
    thresholds, else a coarse-gkey cogroup join (both sides hash on
    ``key % num_groups``; per-group resolution stays in ARROW — the
    int64-with-nulls pandas degradation trap — filtering each side to
    its own rows before the index_in probe).  Output rows = big rows
    with ``value_cols`` attached (null where unmatched); row ORDER is
    not preserved on the fallback path.  Integer join keys only.
    ``force_cogroup`` exists so tests pin both paths identical
    (test_broadcast_join_fallback)."""
    value_cols = list(value_cols)
    clash = set(value_cols) & set(big.schema().base_schema.names)
    if clash:
        # the broadcast path would append a DUPLICATE column while the
        # cogroup path would overwrite the big side's — refuse rather
        # than let the two paths return different schemas
        raise ValueError(f"value_cols collide with big-side columns: "
                         f"{sorted(clash)}")
    small = small.select([small_key] + value_cols).combine_chunks()
    if not force_cogroup and small.num_rows <= BROADCAST_MAX_ROWS \
            and small.nbytes <= BROADCAST_MAX_BYTES:
        lookup_ref = ray.put(small)

        def attach(t: pa.Table) -> pa.Table:
            lk = ray.get(lookup_ref)
            idx = pc.index_in(t[big_key], value_set=lk[small_key])
            for c in value_cols:
                t = t.append_column(c, pc.take(lk[c], idx)
                                    .combine_chunks())
            return t

        return big.map_batches(attach, batch_format="pyarrow")

    big_schema = big.schema().base_schema
    big_cols = list(big_schema.names)
    big_types = {n: big_schema.field(n).type for n in big_cols}
    val_types = {c: small.schema.field(c).type for c in value_cols}

    def _gk(t: pa.Table, key: str) -> np.ndarray:
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        return k % num_groups

    def norm_big(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {"gk": pa.array(_gk(t, big_key), pa.int64()),
                "side": pa.array(np.zeros(n, np.int8), pa.int8()),
                "__k": t[big_key].cast(pa.int64())}
        for c in big_cols:
            cols["b_" + c] = t[c]
        for c in value_cols:
            cols["v_" + c] = pa.nulls(n, val_types[c])
        return pa.table(cols)

    def norm_small(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {"gk": pa.array(_gk(t, small_key), pa.int64()),
                "side": pa.array(np.ones(n, np.int8), pa.int8()),
                "__k": t[small_key].cast(pa.int64())}
        for c in big_cols:
            cols["b_" + c] = pa.nulls(n, big_types[c])
        for c in value_cols:
            cols["v_" + c] = t[c]
        return pa.table(cols)

    def resolve(g: pa.Table) -> pa.Table:
        bigs = g.filter(pc.equal(g["side"], 0))
        smalls = g.filter(pc.equal(g["side"], 1))
        idx = pc.index_in(bigs["__k"], value_set=smalls["__k"])
        out = {c: bigs["b_" + c] for c in big_cols}
        for c in value_cols:
            out[c] = pc.take(smalls["v_" + c], idx).combine_chunks()
        return pa.table(out)

    small_ds = rd.from_arrow(small)
    tagged = big.map_batches(norm_big, batch_format="pyarrow") \
        .union(small_ds.map_batches(norm_small, batch_format="pyarrow"))
    return tagged.groupby("gk").map_groups(resolve,
                                           batch_format="pyarrow")


def join_orders_customer(sf_dir: str, force_cogroup: bool = False):
    """Broadcast hash join: customer (small side) is ``ray.put`` once and
    looked up per batch — no shuffle (SURVEY.md guidance: broadcast small
    sides instead of a shuffle join).  The broadcast is size-guarded —
    see :func:`broadcast_left_join` (r02 VERDICT #7, r04 VERDICT #10)."""
    import pyarrow.parquet as pq
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_custkey", "o_totalprice"],
                             override_num_blocks=16)
    joined = broadcast_left_join(orders, cust, "o_custkey", "c_custkey",
                                 ["c_mktsegment"],
                                 force_cogroup=force_cogroup)
    # 5 market segments -> group-bounded: partial_groupby_sum, no shuffle
    agg = partial_groupby_sum(joined, ["c_mktsegment"], ["o_totalprice"])
    out = agg.to_pandas().rename(columns={"o_totalprice_sum": "total_revenue",
                                          "n": "n_orders"})
    out["total_revenue"] = out["total_revenue"].round(2)
    return out[["c_mktsegment", "total_revenue", "n_orders"]] \
        .sort_values("c_mktsegment").reset_index(drop=True)


def events_tumbling_window(sf_dir: str):
    """Tumbling 1-hour window aggregate (streaming-shaped workload mapped
    to a groupby on the truncated timestamp; Ray Data has no event-time
    windows, SURVEY.md §2.8)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"],
                         override_num_blocks=16)

    def add_window(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t["ts"], unit="hour")
        return t.append_column("window_start", w)

    # |event_type| x hours-in-range groups: bounded by the time range,
    # not the event count -> partial_groupby_sum (no shuffle)
    agg = partial_groupby_sum(ds, ["event_type", "window_start"], ["value"],
                              prep=add_window)
    out = agg.to_pandas().rename(columns={"value_sum": "sum_value"})
    out["sum_value"] = out["sum_value"].round(4)
    return out[["event_type", "window_start", "n", "sum_value"]] \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)


def events_sliding_window(sf_dir: str, width_s: int = 3600, hop_s: int = 1800):
    """Sliding (hopping) window: width 1h, hop 30min — every event lands in
    width/hop windows.  Implemented as a vectorized window-assignment
    expansion inside map_batches (no per-row flat_map) + groupby."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"],
                         override_num_blocks=16)
    n_offsets = width_s // hop_s

    def assign(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64())  # microseconds
        parts = []
        for j in range(n_offsets):
            off = j * hop_s * 1_000_000
            ws = pc.multiply(pc.floor(pc.divide(
                pc.cast(pc.subtract(epoch, off), pa.float64()),
                float(width_s * 1_000_000))), float(width_s * 1_000_000))
            ws = pc.add(pc.cast(ws, pa.int64()), off)
            parts.append(pa.table({
                "window_start": pc.cast(ws, pa.timestamp("us")),
                "event_type": t["event_type"],
                "value": t["value"]}))
        return pa.concat_tables(parts)

    # group-bounded like the tumbling window (x width/hop)
    agg = partial_groupby_sum(ds, ["event_type", "window_start"], ["value"],
                              prep=assign)
    out = agg.to_pandas().rename(columns={"value_sum": "sum_value"})
    out["sum_value"] = out["sum_value"].round(4)
    return out[["event_type", "window_start", "n", "sum_value"]] \
        .sort_values(["event_type", "window_start"]).reset_index(drop=True)


def top_n_largest_docs(sf_dir: str, n: int = 15):
    """Global sort + limit (top-k by n_chars, doc_id tie-break)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "n_chars"], override_num_blocks=8)
    out = ds.sort(["n_chars", "doc_id"], descending=[True, False]) \
        .limit(n).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["n_chars"] = out["n_chars"].astype(np.int64)
    return out


def distinct_langs(sf_dir: str):
    """Distinct values (Dataset.unique — a shuffle)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang"], override_num_blocks=8)
    vals = sorted(ds.unique("lang"))
    return pd.DataFrame({"lang": vals})


def tfidf_keywords(sf_dir: str, k: int = 5):
    """Per-document top-k keywords by tf-idf (score = tf * ln(N/df),
    ties score-desc then term-asc).

    Two passes over documents, no row-level all-to-all:
      1. df — each block collapses its own (doc, term) pairs to
         per-block PARTIAL document frequencies, then one small
         ``groupby(term).sum`` over vocab-bounded partial rows (the
         top_terms_per_lang shape);
      2. score — the (term, df) table broadcasts once (``ray.put``,
         same size-guard thresholds as broadcast_left_join; past them
         the right move is a term-hash cogroup join), each batch
         re-tokenizes, probes df with one ``index_in``, scores, and
         emits its own docs' top-k — a doc never spans blocks, so the
         top-k needs no shuffle.

    Ranking uses the 6dp-ROUNDED score (half-away-from-zero, floor
    form per the pinned rounding invariant) so engine and SQL oracle
    rank identically: tf*ln(N/df) admits EXACT cross-term ties (e.g.
    2·ln(10) vs ln(100)) whose unrounded float order is libm-dependent;
    rounding first makes those ties explicit and term-asc resolves
    them deterministically. Irrational scores never sit within 1e-15
    of a 6dp boundary, so both engines round alike (score 0 when
    df == N is exact on both sides)."""
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    path = os.path.join(sf_dir, "documents.parquet")
    ds = rd.read_parquet(path, columns=["doc_id", "text"],
                         override_num_blocks=8)
    n_docs = ds.count()

    def _doc_term_tf(t: pa.Table):
        """(doc_ids, terms, tf) arrays for one block — factorize +
        integer-key np.unique, no per-token Python appends."""
        toks_per_doc = [simple_tokenize(x or "")
                        for x in t["text"].to_pylist()]
        lens = np.fromiter((len(x) for x in toks_per_doc),
                           dtype=np.int64, count=len(toks_per_doc))
        flat = [tok for doc in toks_per_doc for tok in doc]
        dids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        if not flat:
            return (np.empty(0, np.int64), np.empty(0, object),
                    np.empty(0, np.int64))
        tcodes, tuniq = pd.factorize(np.asarray(flat, dtype=object),
                                     sort=False)
        dcodes = np.repeat(np.arange(len(dids), dtype=np.int64), lens)
        key = dcodes * len(tuniq) + tcodes.astype(np.int64)
        uk, counts = np.unique(key, return_counts=True)
        return (dids[uk // len(tuniq)],
                np.asarray(tuniq, object)[uk % len(tuniq)], counts)

    def df_partials(t: pa.Table) -> pa.Table:
        _, terms, _ = _doc_term_tf(t)
        ut, dfc = np.unique(terms, return_counts=True)
        return pa.table({"term": pa.array(ut, pa.string()),
                         "df_part": pa.array(dfc, pa.int64())})

    df_tbl = ds.map_batches(df_partials, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("df_part", alias_name="df")) \
        .to_pandas()
    df_arrow = pa.table({"term": pa.array(df_tbl["term"], pa.string()),
                         "df": pa.array(df_tbl["df"], pa.int64())})
    assert df_arrow.num_rows <= BROADCAST_MAX_ROWS \
        and df_arrow.nbytes <= BROADCAST_MAX_BYTES, \
        "vocabulary exceeds broadcast guard — use a term-hash cogroup"
    df_ref = ray.put(df_arrow)

    def score_topk(t: pa.Table) -> pa.Table:
        lk = ray.get(df_ref)
        dids, terms, tf = _doc_term_tf(t)
        idx = pc.index_in(pa.array(terms, pa.string()),
                          value_set=lk["term"])
        df = np.asarray(pc.take(lk["df"], idx).to_numpy(
            zero_copy_only=False), dtype=np.float64)
        score = tf.astype(np.float64) * np.log(float(n_docs) / df)
        score = np.floor(score * 1e6 + 0.5) / 1e6
        d = pd.DataFrame({"doc_id": dids, "term": terms,
                          "tf": tf, "score": score})
        d = d.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True])
        d = d.groupby("doc_id", group_keys=False).head(k)
        return pa.table({
            "doc_id": pa.array(d["doc_id"], pa.int64()),
            "term": pa.array(d["term"], pa.string()),
            "tf": pa.array(d["tf"], pa.int64()),
            "score": pa.array(d["score"], pa.float64())})

    out = ds.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True])
    return out.reset_index(drop=True)


def top_terms_per_lang(sf_dir: str, n: int = 3):
    """Per-group top-N terms by total frequency: partial counts inside
    map_batches (one row per (lang, term) per batch), a small groupby over
    the partials, then per-lang head(n) — the pre-aggregate-then-shuffle
    pattern."""
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang", "text"], override_num_blocks=8)

    def partial_counts(t: pa.Table) -> pa.Table:
        # factorize + integer-key np.unique (the index-build counting
        # pattern, build.py _index_partition_tables) — no per-token append
        toks_per_doc = [simple_tokenize(x or "")
                        for x in t["text"].to_pylist()]
        lens = np.fromiter((len(x) for x in toks_per_doc), dtype=np.int64,
                           count=len(toks_per_doc))
        flat = [tok for doc in toks_per_doc for tok in doc]
        if not flat:
            return pa.table({"lang": pa.array([], pa.string()),
                             "term": pa.array([], pa.string()),
                             "tf_part": pa.array([], pa.int64())})
        tcodes, tuniq = pd.factorize(np.asarray(flat, dtype=object),
                                     sort=False)
        lcodes, luniq = pd.factorize(
            np.asarray(t["lang"].to_pylist(), dtype=object), sort=False)
        key = tcodes.astype(np.int64) * len(luniq) + np.repeat(lcodes, lens)
        uk, counts = np.unique(key, return_counts=True)
        return pa.table({
            "lang": pa.array(np.asarray(luniq, object)[uk % len(luniq)],
                             pa.string()),
            "term": pa.array(np.asarray(tuniq, object)[uk // len(luniq)],
                             pa.string()),
            "tf_part": pa.array(counts, pa.int64())})

    partials = ds.map_batches(partial_counts, batch_format="pyarrow")
    totals = partials.groupby(["lang", "term"]).aggregate(
        Sum("tf_part", alias_name="tf")).to_pandas()

    def topn(g):
        return g.sort_values(["tf", "term"], ascending=[False, True]).head(n)

    out = totals.groupby("lang", group_keys=False)[
        ["lang", "term", "tf"]].apply(topn)
    out["tf"] = out["tf"].astype(np.int64)
    return out.sort_values(["lang", "term"]).reset_index(drop=True)


def _user_windows(ds: "rd.Dataset", resolve, *, num_groups: int = 64,
                  probe_counter: str = None) -> "rd.Dataset":
    """Coarse-gkey scaffolding for the per-user window family
    (sessionize / lead / funnel / session stats): tag each row with
    ``gkey = user_id mod num_groups`` and run ONE vectorized ``resolve``
    per GROUP — never per user.  At 10^8 users a raw-key
    ``groupby("user_id").map_groups`` fires 10^8 Python callbacks plus
    Ray per-group dispatch; here the callback count is bounded by
    ``num_groups`` regardless of user count, and all per-user math is
    numpy over sorted-boundary segments inside the group (the
    ``dedup.emit_pairs`` idiom).

    ``resolve(g: pd.DataFrame) -> pd.DataFrame`` sees every row of the
    gkey's users (each user's rows are fully co-located) and must do its
    own (user, ts, ...) lexsort + ``np.flatnonzero`` boundary detection.

    ``probe_counter`` (tests only): name of a detached counter actor
    whose ``inc`` is called once per resolve invocation — pins the
    zero-per-user-Python property."""
    def add_gkey(t: pa.Table) -> pa.Table:
        return t.append_column(
            "gkey", pc.cast(_mod_nonneg(t["user_id"], num_groups),
                            pa.int64()))

    def wrapped(g: pd.DataFrame) -> pd.DataFrame:
        if probe_counter is not None:
            ray.get(ray.get_actor(probe_counter).inc.remote())
        return resolve(g.drop(columns=["gkey"]))

    return ds.map_batches(add_gkey, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("gkey").map_groups(wrapped, batch_format="pandas")


def _user_sorted(g: pd.DataFrame, cols=("event_id",)):
    """Sort a window group by (user_id, ts, event_id) and return the
    sorted numpy columns + per-user segment starts.  np.lexsort's last
    key is primary, so keys are (event_id, ts, user_id) reversed."""
    u = g["user_id"].to_numpy()
    ts = g["ts"].to_numpy()
    keys = [g[c].to_numpy() for c in cols if c in g.columns]
    order = np.lexsort(tuple(keys) + (ts, u))
    u, ts = u[order], ts[order]
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    return order, u, ts, starts


def sessionize_events(sf_dir: str, gap_minutes: int = 30,
                      num_groups: int = 64, probe_counter: str = None):
    """Session windows per user: a new session starts when the gap from
    the previous event exceeds ``gap_minutes``.  One coarse-gkey shuffle
    (``_user_windows``); inside each group the session starts for ALL
    users come from one vectorized pass (user-boundary OR gap mask,
    ``np.add.reduceat`` over user segments) — no per-user Python."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "ts"],
                         override_num_blocks=16)
    gap = np.timedelta64(gap_minutes * 60, "s")

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"user_id": pd.Series([], dtype=np.int64),
                                 "n_sessions": pd.Series([], dtype=np.int64)})
        _, u, ts, starts = _user_sorted(g)
        new_user = np.r_[True, u[1:] != u[:-1]]
        new_session = new_user | np.r_[False, (ts[1:] - ts[:-1]) > gap]
        n_sessions = np.add.reduceat(new_session.astype(np.int64), starts)
        return pd.DataFrame({"user_id": u[starts].astype(np.int64),
                             "n_sessions": n_sessions.astype(np.int64)})

    out = _user_windows(ds, resolve, num_groups=num_groups,
                        probe_counter=probe_counter).to_pandas()
    if out.empty or "user_id" not in out.columns:
        return pd.DataFrame({"user_id": pd.Series([], dtype=np.int64),
                             "n_sessions": pd.Series([], dtype=np.int64)})
    out["user_id"] = out["user_id"].astype(np.int64)
    out["n_sessions"] = out["n_sessions"].astype(np.int64)
    return out.sort_values("user_id").reset_index(drop=True)


def _cogroup_join(left: "rd.Dataset", right: "rd.Dataset", *, by: str,
                  num_groups: int, pair_fn, bucket_fn=None,
                  left_reps: int = 1):
    """Shared scaffolding for keyed cogroup joins (asof_join,
    range_join): widen both sides to one schema (right columns suffixed
    ``_r``), tag side + coarse gkey (+ optional bucket), ONE groupby
    shuffle, then a per-group ``resolve``.

    INT-SAFETY: inside resolve the group arrives as ARROW and each side
    filters to its OWN rows before converting to pandas, so a side's
    columns are null-free at conversion time and int64 columns never
    degrade to float64 (typed nulls exist only in the union schema, and
    only on the other side's rows).  ``pair_fn(lg, rg) -> (l_idx,
    r_idx)`` returns POSITIONAL matches (row counts, always < 2^53);
    values are then gathered side-locally with their original dtypes.

    ``bucket_fn(table, rep) -> int64 array`` adds a bucket column per
    replica (``left_reps`` replicas of the left side, one of the right)
    and the gkey mixes it with ``by``; without it gkey = by mod groups.
    """
    lschema, rschema = left.schema(), right.schema()
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    lcols = list(lschema.names)
    rval = [c for c in rschema.names if c != by]
    out_types = {**{c: ltypes[c] for c in lcols},
                 **{c + "_r": rtypes[c] for c in rval}}
    l_sel = lcols + (["bucket"] if bucket_fn else [])
    r_sel = [by] + [c + "_r" for c in rval] + \
        (["bucket"] if bucket_fn else [])
    empty_out = pa.table({c: pa.array([], t)
                          for c, t in out_types.items()}).to_pandas()

    def widen(side: str):
        src = {c: c for c in lcols} if side == "l" else \
            {by: by, **{c + "_r": c for c in rval}}
        reps = left_reps if side == "l" else 1

        def f(t: pa.Table) -> pa.Table:
            n = len(t)
            parts = []
            for rep in range(reps):
                cols = {}
                for c, typ in out_types.items():
                    cols[c] = t[src[c]].cast(typ) if c in src else \
                        pa.nulls(n, typ)
                if bucket_fn is not None:
                    b = bucket_fn(t, rep)
                    cols["bucket"] = b
                    mixed = pc.add(pc.multiply(
                        t[by], pa.scalar(1_000_003, pa.int64())), b)
                else:
                    mixed = t[by]
                cols["gkey"] = pc.cast(_mod_nonneg(mixed, num_groups),
                                       pa.int64())
                cols["side"] = pa.array([side] * n, pa.string())
                parts.append(pa.table(cols))
            return parts[0] if len(parts) == 1 else pa.concat_tables(parts)
        return f

    def resolve(g: pa.Table) -> pd.DataFrame:
        lmask = pc.equal(g["side"], "l")
        lg = g.filter(lmask).select(l_sel).to_pandas()
        rg = g.filter(pc.invert(lmask)).select(r_sel).to_pandas()
        if lg.empty or rg.empty:
            return empty_out
        l_idx, r_idx = pair_fn(lg, rg)
        out = pd.concat(
            [lg[lcols].iloc[l_idx].reset_index(drop=True),
             rg[[c + "_r" for c in rval]].iloc[r_idx]
             .reset_index(drop=True)], axis=1)
        return out[list(out_types)]

    lt = left.map_batches(widen("l"), batch_format="pyarrow")
    rt = right.map_batches(widen("r"), batch_format="pyarrow")
    return lt.union(rt).groupby("gkey").map_groups(resolve,
                                                   batch_format="pyarrow")


def asof_join(left: "rd.Dataset", right: "rd.Dataset", *, on: str,
              by: str, num_groups: int = 64) -> "rd.Dataset":
    """Distributed backward as-of join: each LEFT row pairs with the
    single RIGHT row of the same ``by`` key having the largest ``on``
    value <= the left's (exact matches allowed); left rows with no
    matching right row are dropped (inner semantics).  Right columns
    come back suffixed ``_r`` (including ``on_r``, the matched right
    timestamp); the ``by`` column keeps one copy.

    Ray Data has no as-of join; the scale shape is the coarse-group-key
    cogroup pattern (CLAUDE.md; ``dedup.min_label_components``): both
    sides gain ``gkey = by % num_groups`` and a side tag, ONE bounded
    groupby co-locates each key's rows, and the per-group pairing is
    ``pd.merge_asof`` over positional indexes (C-vectorized) — so the
    only exchange is a single shuffle into ``num_groups`` groups and no
    Python-per-row work happens anywhere.  Sequential or hashed integer
    keys spread uniformly under mod; salt ``by`` first if a single key
    dominates.

    Ties on (by, on) in RIGHT raise ValueError — merge_asof would keep
    the positionally-last equal row (input-order-dependent), a flaky
    result this operator refuses to return."""
    ron = on + "_r"

    def pair(lg: pd.DataFrame, rg: pd.DataFrame):
        ls = pd.DataFrame({by: lg[by], on: lg[on],
                           "__li": np.arange(len(lg))}
                          ).sort_values(on, kind="mergesort")
        rs = pd.DataFrame({by: rg[by], on: rg[ron],
                           "__ri": np.arange(len(rg))}
                          ).sort_values(on, kind="mergesort")
        if rs.duplicated([by, on]).any():
            raise ValueError(
                "asof_join right side has (by, on) ties — dedup first")
        m = pd.merge_asof(ls, rs, on=on, by=by,
                          direction="backward", allow_exact_matches=True)
        m = m[m["__ri"].notna()]
        return (m["__li"].to_numpy(dtype=np.int64),
                m["__ri"].to_numpy(dtype=np.int64))

    return _cogroup_join(left, right, by=by, num_groups=num_groups,
                         pair_fn=pair)


def _mod_nonneg(arr: pa.ChunkedArray, m: int) -> pa.ChunkedArray:
    """value mod m for integer arrays (nonnegative result)."""
    q = pc.divide(arr, pa.scalar(m, pa.int64()))
    r = pc.subtract(arr, pc.multiply(q, pa.scalar(m, pa.int64())))
    return pc.if_else(pc.less(r, 0), pc.add(r, pa.scalar(m, pa.int64())), r)


def asof_purchase_click(sf_dir: str) -> pd.DataFrame:
    """For every purchase event: the latest prior-or-equal click by the
    same user plus the exact microsecond lag.  No (user, ts) ties exist
    in the test data at any sf (verified), so the result is
    deterministic; the DuckDB oracle is a native ASOF JOIN."""
    cols = ["event_id", "ts", "user_id", "event_type"]
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=cols, override_num_blocks=16)
    purchases = ev.filter(expr="event_type == 'purchase'") \
        .drop_columns(["event_type"])
    clicks = ev.filter(expr="event_type == 'click'") \
        .drop_columns(["event_type"])
    out = asof_join(purchases, clicks, on="ts", by="user_id").to_pandas()
    out = out.rename(columns={"event_id_r": "click_id"})
    out["lag_us"] = ((out["ts"] - out["ts_r"])
                     // np.timedelta64(1, "us")).astype(np.int64)
    for c in ("event_id", "user_id", "click_id"):
        out[c] = out[c].astype(np.int64)
    return out[["event_id", "user_id", "click_id", "lag_us"]] \
        .sort_values("event_id").reset_index(drop=True)


def range_join(left: "rd.Dataset", right: "rd.Dataset", *, on: str,
               by: str, max_gap_us: int, num_groups: int = 64
               ) -> "rd.Dataset":
    """Distributed banded range join: all (left, right) pairs with the
    same ``by`` key and ``0 < right.on - left.on <= max_gap_us``.

    Scale shape (the classic interval-bucketing band join): time is cut
    into ``max_gap_us``-wide buckets; a LEFT row in bucket k can only
    pair with RIGHT rows in buckets {k, k+1}, so each left row
    replicates into exactly TWO (key, bucket) cells, rights into one,
    and a single coarse-gkey shuffle co-locates every candidate pair.
    Per-group pairing is one vectorized merge on (by, bucket) over
    positional indexes + an interval filter — each qualifying pair
    materializes exactly once (only one left replica shares the right's
    bucket).  Work and memory scale with TRUE candidate density
    (same-key rows within ``max_gap_us`` of each other), never
    all-pairs-per-key.

    Right columns come back suffixed ``_r``; ``by`` keeps one copy."""
    ron = on + "_r"

    def bucket(t: pa.Table, rep: int) -> pa.ChunkedArray:
        # integer floor-div (exact; epochs are positive microseconds,
        # so truncation == floor — no float boundary hazards)
        epoch = pc.cast(t[on].cast(pa.timestamp("us")), pa.int64())
        b = pc.divide(epoch, pa.scalar(max_gap_us, pa.int64()))
        return pc.add(b, rep) if rep else b

    def pair(lg: pd.DataFrame, rg: pd.DataFrame):
        ls = pd.DataFrame({by: lg[by], "bucket": lg["bucket"],
                           "__on": lg[on], "__li": np.arange(len(lg))})
        rs = pd.DataFrame({by: rg[by], "bucket": rg["bucket"],
                           "__ron": rg[ron], "__ri": np.arange(len(rg))})
        m = ls.merge(rs, on=[by, "bucket"])
        gap = (m["__ron"] - m["__on"]) // np.timedelta64(1, "us")
        m = m[(gap > 0) & (gap <= max_gap_us)]
        return (m["__li"].to_numpy(dtype=np.int64),
                m["__ri"].to_numpy(dtype=np.int64))

    return _cogroup_join(left, right, by=by, num_groups=num_groups,
                         pair_fn=pair, bucket_fn=bucket, left_reps=2)


def view_to_purchase_pairs(sf_dir: str, window_s: int = 3600
                           ) -> pd.DataFrame:
    """Attribution range join: every (view, purchase) pair by the same
    user with the purchase 0 < gap <= 1h after the view.  DuckDB oracle:
    the equivalent inequality join."""
    cols = ["event_id", "ts", "user_id", "event_type"]
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=cols, override_num_blocks=16)
    views = ev.filter(expr="event_type == 'view'").drop_columns(
        ["event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").drop_columns(
        ["event_type"])
    out = range_join(views, purchases, on="ts", by="user_id",
                     max_gap_us=window_s * 1_000_000).to_pandas()
    out = out.rename(columns={"event_id": "view_id",
                              "event_id_r": "purchase_id"})
    out["gap_us"] = ((out["ts_r"] - out["ts"])
                     // np.timedelta64(1, "us")).astype(np.int64)
    for c in ("view_id", "user_id", "purchase_id"):
        out[c] = out[c].astype(np.int64)
    return out[["view_id", "purchase_id", "user_id", "gap_us"]] \
        .sort_values(["view_id", "purchase_id"]).reset_index(drop=True)


def next_event_lag(sf_dir: str, num_groups: int = 64,
                   probe_counter: str = None) -> pd.DataFrame:
    """LEAD() analog: per user, each event's gap to that user's next
    event (by (ts, event_id) order); the last event per user drops.
    One coarse-gkey shuffle; inside each group ALL users' leads come
    from a single shifted-compare over the (user, ts, event_id)-sorted
    arrays — consecutive rows pair iff they share a user."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "ts"],
                         override_num_blocks=16)
    empty = pd.DataFrame({c: pd.Series([], dtype=np.int64)
                          for c in ("event_id", "user_id",
                                    "next_event_id", "gap_us")})

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return empty
        order, u, ts, _ = _user_sorted(g)
        ev = g["event_id"].to_numpy()[order]
        same = u[1:] == u[:-1]
        gap = (ts[1:] - ts[:-1]) // np.timedelta64(1, "us")
        return pd.DataFrame({
            "event_id": ev[:-1][same].astype(np.int64),
            "user_id": u[:-1][same].astype(np.int64),
            "next_event_id": ev[1:][same].astype(np.int64),
            "gap_us": gap[same].astype(np.int64)})

    out = _user_windows(ds, resolve, num_groups=num_groups,
                        probe_counter=probe_counter).to_pandas()
    if out.empty or "event_id" not in out.columns:
        return empty
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("event_id").reset_index(drop=True)


def grouped_quantiles(ds: "rd.Dataset", key: str, val: str,
                      quantiles=((1, 4), (1, 2), (3, 4)),
                      prep=None) -> pd.DataFrame:
    """EXACT distributed discrete quantiles per group, shuffle-free, for
    BOUNDED-DOMAIN integer values: each block collapses to (key, value)
    count rows via the map-side partial aggregate (partial_groupby_sum —
    no row shuffle), and the driver folds |keys| x |distinct values|
    count rows into exact quantiles by cumulative-count lookup.  This is
    the counting-sort quantile: at 100 TB the exchange is value-DOMAIN
    sized, never data sized (use a t-digest instead for unbounded
    floats).

    Quantiles are (num, den) rationals so the rank index
    ``ceil(q * n)`` is computed in exact integer arithmetic (pinned to
    DuckDB ``quantile_disc`` semantics: 1-based, ties low)."""
    agg = partial_groupby_sum(ds, [key, val], [], prep=prep).to_pandas()
    rows = []
    for k, g in agg.groupby(key, sort=True):
        g = g.sort_values(val, kind="mergesort")
        counts = g["n"].to_numpy()
        vals = g[val].to_numpy()
        cum = np.cumsum(counts)
        n = int(cum[-1])
        row = {key: k}
        for num, den in quantiles:
            idx = max(1, -((-num * n) // den))  # ceil(num*n/den), exact
            row[f"q{num}_{den}"] = vals[np.searchsorted(cum, idx)]
        rows.append(row)
    return pd.DataFrame(rows)


def chars_quantiles_per_lang(sf_dir: str) -> pd.DataFrame:
    """Per-language exact p25/p50/p75 of document length (n_chars):
    DuckDB ``quantile_disc`` oracle."""
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang", "n_chars"],
                         override_num_blocks=8)
    out = grouped_quantiles(ds, "lang", "n_chars")
    out = out.rename(columns={"q1_4": "p25", "q1_2": "p50", "q3_4": "p75"})
    for c in ("p25", "p50", "p75"):
        out[c] = out[c].astype(np.int64)
    return out[["lang", "p25", "p50", "p75"]] \
        .sort_values("lang").reset_index(drop=True)


def _distinct_users_partials(ds: "rd.Dataset", num_groups: int
                             ) -> "rd.Dataset":
    """Per-gkey distinct-user partials for ``distinct_users_per_type``:
    blocks pre-collapse to unique (type, user) pairs WITH a coarse user
    gkey, one groupby shuffle co-locates each user's pairs, and each
    group emits only (event_type, n_part) — |types| rows per group.
    The returned Dataset is O(num_groups x |types|) regardless of user
    count (the unbounded-domain shape: no |users|-sized driver fold)."""
    def pairs(t: pa.Table) -> pa.Table:
        uniq = pa.TableGroupBy(
            t, ["event_type", "user_id"]).aggregate([])
        return uniq.append_column(
            "gkey", pc.cast(_mod_nonneg(uniq["user_id"], num_groups),
                            pa.int64()))

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        # all pairs for this gkey's users are here: per-group nunique is
        # exact, and users never span groups so partials sum globally
        n = g.drop_duplicates(["event_type", "user_id"]) \
            .groupby("event_type", sort=False).size()
        return pd.DataFrame({"event_type": n.index.to_numpy(dtype=object),
                             "n_part": n.to_numpy(dtype=np.int64)})

    return ds.map_batches(pairs, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("gkey").map_groups(resolve, batch_format="pandas")


def distinct_users_per_type(sf_dir: str, num_groups: int = 64
                            ) -> pd.DataFrame:
    """Exact grouped COUNT(DISTINCT): distinct users per event type.

    Scale shape (unbounded user domain): unique (type, user) pairs are
    hash-partitioned on a coarse user gkey (ONE shuffle), each group
    counts its own users per type, and the driver folds only
    num_groups x |types| partial rows — never a row per user."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "user_id"],
                         override_num_blocks=16)
    per = _distinct_users_partials(ds, num_groups).to_pandas()
    if per.empty or "event_type" not in per.columns:
        return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                             "n_users": pd.Series([], dtype=np.int64)})
    out = per.groupby("event_type", sort=True)["n_part"].sum() \
        .reset_index().rename(columns={"n_part": "n_users"})
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


def funnel_counts(sf_dir: str,
                  stages=("signup", "click", "purchase"),
                  num_groups: int = 64,
                  probe_counter: str = None) -> pd.DataFrame:
    """Ordered funnel: users reaching stage i did stage i's event AFTER
    their first qualifying time for stage i-1 (strictly increasing
    chain of first-qualifying timestamps — the standard product-
    analytics funnel; value-based, so input order never matters).

    Scale shape: one coarse-gkey shuffle; each group resolves ALL its
    users with |stages| vectorized passes (mask + masked
    ``np.minimum.reduceat`` per user segment — the first qualifying
    time for every user at once) and folds MAP-SIDE to a |stages|+1-row
    ``reached`` histogram, so the driver only ever sums
    num_groups x (|stages|+1) tiny rows — never a row per user.
    Returns (stage, step, n_users) in funnel order."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type", "ts"],
                         override_num_blocks=16)
    stage_list = list(stages)
    sentinel = np.iinfo(np.int64).max

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"reached": pd.Series([], dtype=np.int64),
                                 "n_part": pd.Series([], dtype=np.int64)})
        order, u, ts, starts = _user_sorted(g, cols=())
        et = g["event_type"].to_numpy()[order]
        tsi = ts.astype("datetime64[us]").astype(np.int64)
        n_users = starts.size
        seg = np.zeros(len(u), dtype=np.int64)
        seg[starts] = 1
        row_user = np.cumsum(seg) - 1  # row -> user-segment index
        cur = np.full(n_users, np.iinfo(np.int64).min, dtype=np.int64)
        reached = np.zeros(n_users, dtype=np.int64)
        alive = np.ones(n_users, dtype=bool)
        for s in stage_list:
            qual = (et == s) & (tsi > cur[row_user]) & alive[row_user]
            val = np.where(qual, tsi, sentinel)
            first = np.minimum.reduceat(val, starts)
            ok = alive & (first < sentinel)
            reached += ok
            cur = np.where(ok, first, cur)
            alive = ok
        hist = np.bincount(reached, minlength=len(stage_list) + 1)
        return pd.DataFrame({"reached": np.arange(hist.size, dtype=np.int64),
                             "n_part": hist.astype(np.int64)})

    per = _user_windows(ds, resolve, num_groups=num_groups,
                        probe_counter=probe_counter).to_pandas()
    if per.empty or "reached" not in per.columns:
        counts = np.zeros(len(stage_list) + 1, dtype=np.int64)
    else:
        counts = np.zeros(len(stage_list) + 1, dtype=np.int64)
        fold = per.groupby("reached")["n_part"].sum()
        counts[fold.index.to_numpy()] = fold.to_numpy()
    # users at step i = users whose reached >= i (suffix sum)
    suffix = np.cumsum(counts[::-1])[::-1]
    n = [int(suffix[i + 1]) for i in range(len(stage_list))]
    return pd.DataFrame({"stage": pd.Series(stage_list, dtype=object),
                         "step": pd.Series(range(1, len(stage_list) + 1),
                                           dtype=np.int64),
                         "n_users": pd.Series(n, dtype=np.int64)})


def session_stats(sf_dir: str, gap_minutes: int = 30,
                  num_groups: int = 64,
                  probe_counter: str = None) -> pd.DataFrame:
    """Per-user session statistics (extends ``sessionize_events`` from a
    count to full session shapes): sessions split on gaps >
    ``gap_minutes``; per user report the session count, summed and max
    session DURATION in exact integer microseconds (single-event
    sessions have duration 0).

    Scale shape: one coarse-gkey shuffle; per group, session starts for
    ALL users come from one boundary mask, session durations from one
    gather, and the per-user (count, sum, max) from
    ``np.add/maximum.reduceat`` over the session->user segments — the
    per-group Python callback count is bounded by num_groups."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "ts"],
                         override_num_blocks=16)
    gap = np.timedelta64(gap_minutes * 60, "s")
    cols = ["user_id", "n_sessions", "total_dur_us", "max_dur_us"]
    empty = pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty
        _, u, ts, ustarts = _user_sorted(g)
        new_user = np.r_[True, u[1:] != u[:-1]]
        sess_start = new_user | np.r_[False, (ts[1:] - ts[:-1]) > gap]
        sidx = np.flatnonzero(sess_start)
        send = np.r_[sidx[1:], ts.size] - 1
        dur = ((ts[send] - ts[sidx]) // np.timedelta64(1, "us")) \
            .astype(np.int64)
        sess_user = u[sidx]
        # sessions are in user-sorted order: per-user segments over the
        # session arrays
        su = np.flatnonzero(np.r_[True, sess_user[1:] != sess_user[:-1]])
        return pd.DataFrame({
            "user_id": sess_user[su].astype(np.int64),
            "n_sessions": np.diff(np.r_[su, sidx.size]).astype(np.int64),
            "total_dur_us": np.add.reduceat(dur, su).astype(np.int64),
            "max_dur_us": np.maximum.reduceat(dur, su).astype(np.int64)})

    out = _user_windows(ds, resolve, num_groups=num_groups,
                        probe_counter=probe_counter).to_pandas()
    if out.empty or "user_id" not in out.columns:
        return empty
    for c in cols:
        out[c] = out[c].astype(np.int64)
    return out[cols].sort_values("user_id").reset_index(drop=True)


def _retention_week_col(t: pa.Table) -> pa.ChunkedArray:
    # Monday-anchored week start in epoch DAYS (DuckDB
    # date_trunc('week') parity: day 4 = 1970-01-05 was a Monday).
    # FLOOR division via mod-subtract — pc.divide truncates toward
    # zero and would shift pre-1970 timestamps a day forward
    us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
    d_us = pa.scalar(86_400_000_000, pa.int64())
    day = pc.divide(pc.subtract(us, _mod_nonneg(us, 86_400_000_000)),
                    d_us)
    rem = _mod_nonneg(pc.subtract(day, 4), 7)
    return pc.subtract(day, rem)


def retention_cohorts(sf_dir: str, num_groups: int = 64) -> pd.DataFrame:
    """Weekly retention matrix: users cohort by the Monday-anchored week
    of their FIRST event; each (cohort_week, week_offset) cell counts
    the distinct cohort users active in that later week.

    Scale shape (unbounded user domain): blocks pre-collapse to unique
    (user, week) pairs with a coarse user gkey; ONE groupby shuffle
    co-locates each user's weeks; each group derives its own users'
    cohorts and offsets (a user never spans groups, so the per-group
    cohort min is the global min) and emits only
    (cohort_week, week_offset, n_part) cells — the driver folds
    num_groups x |cells| rows, never a row per user.  Exact integer
    week arithmetic (epoch-day floor), no float anywhere."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"],
                         override_num_blocks=16)
    per = _retention_partials(ds, num_groups).to_pandas()
    if per.empty or "cw" not in per.columns:
        return pd.DataFrame({"cohort_week": pd.Series([], dtype="datetime64[ns]"),
                             "week_offset": pd.Series([], dtype=np.int64),
                             "n_users": pd.Series([], dtype=np.int64)})
    out = per.groupby(["cw", "week_offset"], sort=True)["n_part"].sum() \
        .reset_index().rename(columns={"n_part": "n_users",
                                       "cw": "cohort_week"})
    out["cohort_week"] = pd.to_datetime(out["cohort_week"] * 86_400,
                                        unit="s")
    out["week_offset"] = out["week_offset"].astype(np.int64)
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values(["cohort_week", "week_offset"]) \
        .reset_index(drop=True)


def _retention_partials(ds: "rd.Dataset", num_groups: int) -> "rd.Dataset":
    """Per-gkey retention partials: unique (gkey, user, week) pairs out
    of each block (ONE shuffle's worth of rows), then per-group cohort
    resolution emitting (cw, week_offset, n_part) cells.  Returned
    Dataset is O(num_groups x |cells|) — the unbounded-domain shape."""
    def pairs(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "week": pa.array([], pa.int64()),
                             "gkey": pa.array([], pa.int64())})
        pt = pa.table({"user_id": t["user_id"],
                       "week": _retention_week_col(t)})
        uniq = pa.TableGroupBy(pt, ["user_id", "week"]).aggregate([])
        return uniq.append_column(
            "gkey", pc.cast(_mod_nonneg(uniq["user_id"], num_groups),
                            pa.int64()))

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        act = g[["user_id", "week"]].drop_duplicates()
        firstw = act.groupby("user_id")["week"].min()
        cw = act["user_id"].map(firstw)
        off = ((act["week"] - cw) // 7).astype(np.int64)
        cells = act.assign(cw=cw.to_numpy(), week_offset=off.to_numpy()) \
            .groupby(["cw", "week_offset"], sort=False)["user_id"].nunique()
        out = cells.reset_index().rename(columns={"user_id": "n_part"})
        out["n_part"] = out["n_part"].astype(np.int64)
        return out

    return ds.map_batches(pairs, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("gkey").map_groups(resolve, batch_format="pandas")


Q3_DATE = np.datetime64("1998-06-01")
Q3_SEGMENT = "BUILDING"


def q3_top_orders(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """TPC-H Q3-style shipping-priority query: top-k orders by revenue
    sum(l_extendedprice * (1 - l_discount)) over BUILDING-segment
    customers' orders placed before Q3_DATE with lineitems shipped
    after it.

    Shape: customer and the filtered orders both broadcast (each is a
    documented-small side: segment customers, date-filtered orders);
    lineitem — the big table — streams once through a pruned read,
    each block collapsing to (l_orderkey, rev) partials; one
    key-partitioned groupby of those SMALL rows (order cardinality is
    data-sized, so the fold cannot live on the driver); per-block
    local top-k then a (blocks x k) driver merge.  Rank =
    (2dp-ROUNDED revenue desc, o_orderdate asc, l_orderkey asc) on
    both sides."""
    import pyarrow.parquet as pq
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    ckeys = cust.filter(pc.equal(cust["c_mktsegment"], Q3_SEGMENT)
                        )["c_custkey"].combine_chunks()
    orders = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                           columns=["o_orderkey", "o_custkey",
                                    "o_orderdate", "o_orderpriority"])
    omask = pc.and_(pc.is_in(orders["o_custkey"], value_set=ckeys),
                    pc.less(orders["o_orderdate"],
                            pa.scalar(Q3_DATE.astype("datetime64[us]")
                                      .item())))
    orders = orders.filter(omask)
    okeys_ref = ray.put(orders["o_orderkey"].combine_chunks())
    # block-local top-k must prune under the FULL final tie order
    # (rev desc, o_orderdate, l_orderkey) — a revenue tie at a block's
    # k-th boundary would otherwise evict the globally-ranked row
    # (r05 self-review #3); the date lookup is the same broadcast
    dates_ref = ray.put(dict(zip(
        orders["o_orderkey"].to_pylist(),
        orders["o_orderdate"].to_pylist())))

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"],
                         override_num_blocks=16)

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(t["l_orderkey"],
                                value_set=ray.get(okeys_ref)),
                       pc.greater(t["l_shipdate"],
                                  pa.scalar(Q3_DATE
                                            .astype("datetime64[us]")
                                            .item())))
        t = t.filter(keep)
        if t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "rev": pa.array([], pa.float64())})
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(1.0, t["l_discount"]))
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(
                zero_copy_only=False),
            "rev": rev.to_numpy(zero_copy_only=False)})
        g = df.groupby("l_orderkey", sort=False)["rev"].sum() \
            .reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("l_orderkey").sum("rev")

    def block_top(t: pa.Table) -> pa.Table:
        dmap = ray.get(dates_ref)
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "l_orderkey": okey,
            "rev": np.round(t["sum(rev)"].to_numpy(
                zero_copy_only=False), 2),
            "__dt": [dmap[int(x)] for x in okey]})
        df = df.sort_values(["rev", "__dt", "l_orderkey"],
                            ascending=[False, True, True],
                            kind="mergesort").head(k)
        return pa.Table.from_pandas(df.drop(columns="__dt"),
                                    preserve_index=False)

    top = agg.map_batches(block_top, batch_format="pyarrow") \
        .to_pandas()
    meta = orders.select(["o_orderkey", "o_orderdate",
                          "o_orderpriority"]).to_pandas()
    out = top.merge(meta, left_on="l_orderkey", right_on="o_orderkey")
    out = out.sort_values(["rev", "o_orderdate", "l_orderkey"],
                          ascending=[False, True, True],
                          kind="mergesort").head(k)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out = out.rename(columns={"rev": "revenue"})
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate"]) \
        .dt.strftime("%Y-%m-%d")
    return out[["rank", "l_orderkey", "revenue", "o_orderdate",
                "o_orderpriority"]].reset_index(drop=True)


Q5_REGION = "ASIA"
Q5_LO = np.datetime64("1996-01-01")
Q5_HI = np.datetime64("1997-01-01")


def q5_local_supplier_volume(sf_dir: str, *, num_groups: int = 32
                             ) -> pd.DataFrame:
    """TPC-H Q5-style local-supplier-volume: per-nation revenue where
    the customer and the supplier share a nation inside one region,
    over a one-year order window.

    Join-strategy mix, chosen per side's TRUE scale:
      - region/nation (O(10) rows) and the region-filtered supplier
        and customer KEY MAPS (two ints per row) broadcast once
        (``ray.put``), size-guarded like broadcast_left_join — past
        the guard the customer probe becomes one more coarse-gkey
        cogroup, same as the fact join below;
      - orders (fact, date-filtered) and lineitem (fact,
        supplier-filtered) are BOTH data-sized, so their orderkey
        equi-join is the ONE unavoidable shuffle: the shared
        ``_cogroup_join`` scaffolding (coarse gkey, int-safe per-group
        resolve) with a positional searchsorted pair_fn — orders is
        unique per key, so each group resolves as a lookup;
      - the joined rows collapse via ``partial_groupby_sum`` on the
        nation key (cardinality <= 25: block partials + driver fold,
        never a row shuffle).

    Revenue rounds to 2dp like q1/q3 (float association differences
    are ~1e-7 on ~1e7 sums; 2dp cannot straddle).
    """
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rkey = region.filter(pc.equal(region["r_name"], Q5_REGION)
                         )["r_regionkey"].combine_chunks()
    nat = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkey))
    nkeys = nat["n_nationkey"].combine_chunks()
    names = dict(zip(nat["n_nationkey"].to_pylist(),
                     nat["n_name"].to_pylist()))

    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"])
    supp = supp.filter(pc.is_in(supp["s_nationkey"], value_set=nkeys))
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    cust = cust.filter(pc.is_in(cust["c_nationkey"], value_set=nkeys))
    for small in (supp, cust):
        assert small.num_rows <= BROADCAST_MAX_ROWS \
            and small.nbytes <= BROADCAST_MAX_BYTES, \
            "key map exceeds broadcast guard — cogroup it instead"
    s_ids = np.asarray(supp["s_suppkey"], dtype=np.int64)
    s_nat = np.asarray(supp["s_nationkey"], dtype=np.int64)
    so = np.argsort(s_ids)
    s_ref = ray.put((s_ids[so], s_nat[so]))
    c_ids = np.asarray(cust["c_custkey"], dtype=np.int64)
    c_nat = np.asarray(cust["c_nationkey"], dtype=np.int64)
    co = np.argsort(c_ids)
    c_ref = ray.put((c_ids[co], c_nat[co]))

    lo = pa.scalar(Q5_LO.astype("datetime64[us]").item())
    hi = pa.scalar(Q5_HI.astype("datetime64[us]").item())

    def orders_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                             pc.less(t["o_orderdate"], hi)))
        ids, nats = ray.get(c_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ids, ck)
        pos = np.clip(pos, 0, max(ids.size - 1, 0))
        hit = (ids[pos] == ck) if ids.size else np.zeros(len(ck), bool)
        return pa.table({
            "l_orderkey": pa.array(t["o_orderkey"].to_numpy(
                zero_copy_only=False)[hit], pa.int64()),
            "cnat": pa.array(nats[pos[hit]], pa.int64())})

    def lineitem_rows(t: pa.Table) -> pa.Table:
        ids, nats = ray.get(s_ref)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ids, sk)
        pos = np.clip(pos, 0, max(ids.size - 1, 0))
        hit = (ids[pos] == sk) if ids.size else np.zeros(len(sk), bool)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(1.0, t["l_discount"])).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "l_orderkey": pa.array(t["l_orderkey"].to_numpy(
                zero_copy_only=False)[hit], pa.int64()),
            "snat": pa.array(nats[pos[hit]], pa.int64()),
            "rev": pa.array(rev[hit], pa.float64())})

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        override_num_blocks=8).map_batches(
            orders_rows, batch_format="pyarrow")
    line = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
        override_num_blocks=16).map_batches(
            lineitem_rows, batch_format="pyarrow")

    def pair(lg: pd.DataFrame, rg: pd.DataFrame):
        rk = rg["l_orderkey"].to_numpy()
        order = np.argsort(rk, kind="mergesort")
        rk_s = rk[order]
        lk = lg["l_orderkey"].to_numpy()
        pos = np.searchsorted(rk_s, lk)
        pos = np.clip(pos, 0, rk_s.size - 1)
        hit = rk_s[pos] == lk
        return np.flatnonzero(hit), order[pos[hit]]

    joined = _cogroup_join(line, orders, by="l_orderkey",
                           num_groups=num_groups, pair_fn=pair)

    def same_nation(d: pd.DataFrame) -> pd.DataFrame:
        return d.loc[d["snat"] == d["cnat_r"], ["snat", "rev"]]

    rows = joined.map_batches(same_nation, batch_format="pandas")
    agg = partial_groupby_sum(rows, ["snat"], ["rev"], count=False) \
        .to_pandas()
    agg["revenue"] = agg["rev_sum"].round(2)
    agg["n_name"] = [names[int(x)] for x in agg["snat"]]
    agg = agg.sort_values(["revenue", "n_name"],
                          ascending=[False, True], kind="mergesort")
    return agg[["n_name", "revenue"]].reset_index(drop=True)


def events_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP(event_type, day): the (type, day) fine level plus
    the per-type and grand-total super-aggregates, SQL-ROLLUP NULL
    conventions (rolled columns null).

    One pass: the FINE level comes from ``partial_groupby_sum``
    (type x day cardinality is range-bounded) and the coarser levels
    fold the fine level's partials — counts and sums re-aggregate
    exactly, so no second scan exists.  sum_value rounds 4dp like the
    window family (values are 2dp rationals: a 4dp boundary cannot
    arise)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"],
                         override_num_blocks=16)

    def add_day(t: pa.Table) -> pa.Table:
        return t.append_column("day", pc.strftime(t["ts"], "%Y-%m-%d"))

    fine = partial_groupby_sum(ds, ["event_type", "day"], ["value"],
                               prep=add_day).to_pandas()
    lvl1 = fine.groupby("event_type", as_index=False) \
        .agg(value_sum=("value_sum", "sum"), n=("n", "sum"))
    lvl1["day"] = None
    lvl2 = pd.DataFrame({"event_type": [None], "day": [None],
                         "value_sum": [fine["value_sum"].sum()],
                         "n": [fine["n"].sum()]})
    out = pd.concat([fine, lvl1, lvl2], ignore_index=True)
    out["sum_value"] = out["value_sum"].round(4)
    out["n"] = out["n"].astype(np.int64)
    return out[["event_type", "day", "n", "sum_value"]] \
        .sort_values(["event_type", "day"], na_position="last") \
        .reset_index(drop=True)


FUNNEL_STAGES = ("view", "click", "purchase")


def funnel_stages(sf_dir: str, stages=FUNNEL_STAGES,
                  window_hours: int = 24,
                  num_groups: int = 64) -> pd.DataFrame:
    """Event funnel with a conversion window: per user, greedy
    first-occurrence subsequence match of ``stages`` — stage k+1 must
    occur STRICTLY after the matched stage-k event and within
    ``window_hours`` of it; output = users per FURTHEST stage reached,
    stages 1..len (never-entered users are absent).

    One coarse-gkey shuffle (``_user_windows``); inside each group the
    stage-k "min ts after prev" for ALL users is one masked
    ``np.minimum.reduceat`` over user segments — no per-user Python.
    Each group emits (stage, n) partials; the driver folds
    num_groups x stages tiny rows."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "ts",
                                  "event_type"],
                         override_num_blocks=16)
    sentinel = np.iinfo(np.int64).max

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"stage": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        order, u, ts, starts = _user_sorted(g)
        tsi = ts.astype("datetime64[us]").view("int64")
        etype = g["event_type"].to_numpy()[order]
        seg_lens = np.diff(np.concatenate([starts, [u.size]]))
        prev = np.full(starts.size, -np.iinfo(np.int64).max,
                       dtype=np.int64)      # "after -inf" = any event
        furthest = np.zeros(starts.size, dtype=np.int64)
        win = np.int64(window_hours) * 3_600_000_000  # us
        for k, st in enumerate(stages, 1):
            pr = np.repeat(prev, seg_lens)
            ok = (etype == st) & (tsi > pr)
            if k > 1:
                # conversion window only between matched stages (the
                # first stage anchors anywhere); clamp keeps the
                # sentinel rows (already excluded by tsi > pr) from
                # wrapping int64 in pr + win
                ok &= tsi <= np.minimum(pr, sentinel - win) + win
            masked = np.where(ok, tsi, sentinel)
            mins = np.minimum.reduceat(masked, starts)
            hit = mins < sentinel
            furthest[hit] = k
            prev = np.where(hit, mins, sentinel)  # dead users match none
        got, cnt = np.unique(furthest[furthest > 0], return_counts=True)
        return pd.DataFrame({"stage": got.astype(np.int64),
                             "n": cnt.astype(np.int64)})

    parts = _user_windows(ds, resolve, num_groups=num_groups) \
        .to_pandas()
    out = parts.groupby("stage", as_index=False)["n"].sum() \
        .rename(columns={"n": "n_users"})
    out["stage"] = out["stage"].astype(np.int64)
    out["n_users"] = out["n_users"].astype(np.int64)
    return out.sort_values("stage").reset_index(drop=True)


def q6_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 forecasting-revenue-change: one pruned scan of
    lineitem with ALL predicates pushed into the per-block Arrow
    filter, per-block partial sums, a tiny driver fold — the purest
    filter-aggregate shape (no groupby, no shuffle, no driver rows
    beyond #blocks partials).  Revenue rounds 2dp like q1/q3/q5."""
    lo = pa.scalar(np.datetime64("1996-01-01")
                   .astype("datetime64[us]").item())
    hi = pa.scalar(np.datetime64("1997-01-01")
                   .astype("datetime64[us]").item())
    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_shipdate", "l_discount",
                                  "l_quantity", "l_extendedprice"],
                         override_num_blocks=16)

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi)),
            pc.and_(
                pc.and_(pc.greater_equal(t["l_discount"], 0.05),
                        pc.less_equal(t["l_discount"], 0.07)),
                pc.less(t["l_quantity"], 24)))
        t = t.filter(keep)
        rev = pc.sum(pc.multiply(t["l_extendedprice"],
                                 t["l_discount"])).as_py() or 0.0
        return pa.table({"rev": pa.array([rev], pa.float64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    parts = _fold_blocks(ds.map_batches(partial,
                                        batch_format="pyarrow"))
    rev = float(np.sum(parts["rev"].to_numpy())) if parts is not None \
        else 0.0
    n = int(np.sum(parts["n"].to_numpy())) if parts is not None else 0
    # SQL sum() over zero rows is NULL, not 0 — mirror it (r05
    # self-review: a filtered dataset with no qualifying rows would
    # otherwise hash-mismatch the oracle)
    return pd.DataFrame({"revenue": [round(rev, 2) if n else None],
                         "n_items": pd.Series([n], dtype=np.int64)})


def q18_large_orders(sf_dir: str, min_qty: int = 120, k: int = 10
                     ) -> pd.DataFrame:
    """TPC-H Q18 large-volume-customer analog: orders whose lineitem
    quantity total exceeds ``min_qty``, top-k by order value.

    Shape: lineitem collapses per block to (l_orderkey, qty) partials,
    ONE data-sized ``groupby(l_orderkey).sum`` (order cardinality
    scales with data — the honest shuffle), HAVING filter, then the
    QUALIFYING set (selectivity-bounded) drives pruned ``is_in``
    lookups into orders and customer — never a second fact shuffle.
    Quantities are exact integers in float64, so the BIGINT cast is
    order-independent."""
    import pyarrow.parquet as pq

    ds = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_quantity"],
                         override_num_blocks=16)

    def partial(t: pa.Table) -> pa.Table:
        return pa.TableGroupBy(t, "l_orderkey").aggregate(
            [("l_quantity", "sum")])

    qual = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("l_orderkey").sum("l_quantity_sum").to_pandas()
    qual = qual.rename(columns={"sum(l_quantity_sum)": "qty"})
    qual = qual[qual["qty"] > min_qty]
    okeys = pa.array(qual["l_orderkey"].to_numpy(np.int64), pa.int64())

    orders = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                           columns=["o_orderkey", "o_custkey",
                                    "o_orderdate", "o_totalprice"])
    orders = orders.filter(pc.is_in(orders["o_orderkey"],
                                    value_set=okeys))
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_name"])
    # prune customer to the qualifying orders' custkeys (the q3
    # pattern) — never the whole dimension on the driver
    cust = cust.filter(pc.is_in(
        cust["c_custkey"],
        value_set=orders["o_custkey"].combine_chunks())).to_pandas()
    orders = orders.to_pandas()
    out = qual.merge(orders, left_on="l_orderkey",
                     right_on="o_orderkey") \
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
    out = out.sort_values(["o_totalprice", "o_orderdate", "o_orderkey"],
                          ascending=[False, True, True],
                          kind="mergesort").head(k)
    out["total_qty"] = out["qty"].astype(np.int64)
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate"]) \
        .dt.strftime("%Y-%m-%d")
    return out[["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                "o_totalprice", "total_qty"]].reset_index(drop=True)


Q4_LO = np.datetime64("1996-07-01")
Q4_HI = np.datetime64("1996-10-01")


def q4_order_priority(sf_dir: str, *, num_groups: int = 32
                      ) -> pd.DataFrame:
    """TPC-H Q4 order-priority-checking analog: count orders per
    ``o_orderpriority`` over a one-quarter window where EXISTS a
    returned lineitem (``l_returnflag = 'R'``; the reference schema's
    commit/receipt dates aren't in this synthetic table).

    The EXISTS is a DISTRIBUTED SEMI-JOIN — the shape Q13's outer join
    and Q5's equi-join don't cover.  Both sides are fact-sized so
    neither may broadcast: lineitem collapses per block to DISTINCT
    qualifying orderkeys (key rows only — flags never leave the scan),
    orders carries (orderkey, priority); one coarse-gkey groupby
    co-locates each key's rows and the per-group probe is a single
    Arrow ``is_in`` (no pairing, no row multiplication — semi-join
    emits per-priority PARTIAL COUNTS, so group output is
    O(priorities), not O(rows)).  A final 5-row groupby finishes.
    Sequential orderkeys spread uniformly under mod; ``num_groups``
    scales with the cluster."""
    lo = pa.scalar(Q4_LO.astype("datetime64[us]").item())
    hi = pa.scalar(Q4_HI.astype("datetime64[us]").item())

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_returnflag"],
                         override_num_blocks=16)

    def li_keys(t: pa.Table) -> pa.Table:
        keys = pc.unique(t.filter(
            pc.equal(t["l_returnflag"], "R"))["l_orderkey"])
        n = len(keys)
        return pa.table({
            "k": keys.cast(pa.int64()),
            "o_orderpriority": pa.nulls(n, pa.string()),
            "side": pa.array(["r"] * n, pa.string()),
            "gkey": pc.cast(_mod_nonneg(keys, num_groups), pa.int64())})

    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_orderdate",
                                  "o_orderpriority"],
                         override_num_blocks=8)

    def o_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                             pc.less(t["o_orderdate"], hi)))
        k = t["o_orderkey"].combine_chunks()
        return pa.table({
            "k": k.cast(pa.int64()),
            "o_orderpriority": t["o_orderpriority"].combine_chunks(),
            "side": pa.array(["l"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    def probe(g: pa.Table) -> pd.DataFrame:
        rmask = pc.equal(g["side"], "r")
        rkeys = g.filter(rmask)["k"].combine_chunks()
        lg = g.filter(pc.invert(rmask))
        hit = lg.filter(pc.is_in(lg["k"], value_set=rkeys))
        if hit.num_rows == 0:
            return pd.DataFrame({"o_orderpriority": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype=np.int64)})
        agg = pa.TableGroupBy(hit.select(["o_orderpriority"]),
                              "o_orderpriority").aggregate([([], "count_all")])
        return pd.DataFrame({
            "o_orderpriority": agg["o_orderpriority"].to_pylist(),
            "n": agg["count_all"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})

    parts = li.map_batches(li_keys, batch_format="pyarrow") \
        .union(od.map_batches(o_rows, batch_format="pyarrow")) \
        .groupby("gkey").map_groups(probe, batch_format="pyarrow") \
        .to_pandas()
    out = parts.groupby("o_orderpriority", sort=True)["n"].sum() \
        .reset_index().rename(columns={"n": "order_count"})
    out["order_count"] = out["order_count"].astype(np.int64)
    return out.reset_index(drop=True)


def q13_customer_distribution(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 customer-distribution analog: per-customer order
    counts (orders with ``o_orderstatus <> 'F'`` — the stand-in for
    the reference's comment-pattern exclusion), then the histogram of
    those counts — INCLUDING the zero-order customers the LEFT OUTER
    join exists for.

    Shape: the outer join never materializes as pairs.  Orders
    collapses per block to (custkey, n) partials and ONE data-sized
    ``groupby(custkey).sum`` yields each ordering customer's count;
    the count HISTOGRAM is then re-collapsed per block (c_count ->
    custdist partials, O(distinct counts) rows) and summed in a tiny
    final groupby.  The left-outer complement is arithmetic, not a
    join: customer contributes only its TOTAL row count (per-block
    partials; referential integrity o_custkey IN c_custkey holds, as
    in TPC-H), so customers-with-zero-orders = total - ordering,
    appended as the c_count=0 bucket.  No customer column beyond the
    key is ever read; nothing fact-sized touches the driver."""
    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_custkey", "o_orderstatus"],
                         override_num_blocks=8)

    def o_part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["o_orderstatus"], "F"))
        agg = pa.TableGroupBy(t.select(["o_custkey"]),
                              "o_custkey").aggregate([([], "count_all")])
        return pa.table({"o_custkey": agg["o_custkey"],
                         "n": agg["count_all"].cast(pa.int64())})

    per_cust = od.map_batches(o_part, batch_format="pyarrow") \
        .groupby("o_custkey").sum("n")

    def hist(t: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(
            pa.table({"c_count": t["sum(n)"].cast(pa.int64())}),
            "c_count").aggregate([([], "count_all")])
        return pa.table({"c_count": agg["c_count"],
                         "custdist": agg["count_all"].cast(pa.int64())})

    h = per_cust.map_batches(hist, batch_format="pyarrow").to_pandas()
    h = h.groupby("c_count", sort=False)["custdist"].sum().reset_index()

    import pyarrow.parquet as pq
    n_cust = pq.read_metadata(
        os.path.join(sf_dir, "customer.parquet")).num_rows
    zero = int(n_cust) - int(h["custdist"].sum())
    if zero > 0:
        h = pd.concat([h, pd.DataFrame({"c_count": [0],
                                        "custdist": [zero]})],
                      ignore_index=True)
    h = h.sort_values(["custdist", "c_count"], ascending=[False, False],
                      kind="mergesort").reset_index(drop=True)
    return h.astype({"c_count": np.int64, "custdist": np.int64})


Q22_CUTOFF = np.datetime64("2000-01-01")


def q22_lapsed_customers(sf_dir: str, *, num_groups: int = 32
                         ) -> pd.DataFrame:
    """TPC-H Q22 global-sales-opportunity analog: per market segment,
    count + total balance of ABOVE-AVERAGE-balance customers with no
    order since ``Q22_CUTOFF`` (this synthetic data has no orderless
    customers at all, so Q22's NOT EXISTS becomes "lapsed since a
    cutoff" to keep the anti-join non-degenerate).

    Two shapes the other TPC-H analogs don't cover:

    - a GLOBAL SCALAR subquery (avg positive balance) — per-block
      (sum, count) partials folded to ONE driver float, then captured
      in the downstream filter closure (broadcast-by-closure; bytes
      shipped are O(blocks), never O(rows)), and
    - a distributed ANTI-join — both sides fact-sized at scale, so
      neither broadcasts: the orders side collapses per block to
      DISTINCT recent custkeys (key rows only), one coarse-gkey
      groupby co-locates each key's rows, and the per-group probe is
      a vectorized inverted ``is_in``.  Group output is per-SEGMENT
      partials (O(segments) rows), so nothing row-sized leaves the
      exchange.

    Boundary: ``c_acctbal > avg_bal`` compares against a float fold
    whose last bits depend on block order (DuckDB's ``avg`` sums in
    its own order), so a balance within fold noise of the average
    could land on either side.  At the test scale factors the nearest
    balance is >= 0.07 away (pinned above 1e-6 by
    test_round5::test_q22_balances_clear_the_average_boundary)."""
    cutoff = pa.scalar(Q22_CUTOFF.astype("datetime64[us]").item())

    cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                           columns=["c_custkey", "c_mktsegment",
                                    "c_acctbal"],
                           override_num_blocks=8)

    def bal_part(t: pa.Table) -> pa.Table:
        pos = t.filter(pc.greater(t["c_acctbal"], 0.0))["c_acctbal"]
        return pa.table({"s": pa.array([pc.sum(pos).as_py() or 0.0],
                                       pa.float64()),
                         "n": pa.array([len(pos)], pa.int64())})

    bal = _fold_blocks(cust.map_batches(bal_part,
                                        batch_format="pyarrow"))
    avg_bal = 0.0 if bal is None else \
        (pc.sum(bal["s"]).as_py() or 0.0) / \
        max(1, pc.sum(bal["n"]).as_py() or 0)

    def c_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["c_acctbal"], avg_bal))
        k = t["c_custkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k,
            "c_mktsegment": t["c_mktsegment"].combine_chunks(),
            "c_acctbal": t["c_acctbal"].combine_chunks(),
            "side": pa.array(["c"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_custkey", "o_orderdate"],
                         override_num_blocks=8)

    def o_keys(t: pa.Table) -> pa.Table:
        keys = pc.unique(t.filter(
            pc.greater_equal(t["o_orderdate"], cutoff))["o_custkey"])
        n = len(keys)
        return pa.table({
            "k": keys.cast(pa.int64()),
            "c_mktsegment": pa.nulls(n, pa.string()),
            "c_acctbal": pa.nulls(n, pa.float64()),
            "side": pa.array(["r"] * n, pa.string()),
            "gkey": pc.cast(_mod_nonneg(keys, num_groups), pa.int64())})

    def anti(g: pa.Table) -> pd.DataFrame:
        rmask = pc.equal(g["side"], "r")
        rkeys = g.filter(rmask)["k"].combine_chunks()
        cg = g.filter(pc.invert(rmask))
        lapsed = cg.filter(pc.invert(pc.is_in(cg["k"], value_set=rkeys)))
        if lapsed.num_rows == 0:
            return pd.DataFrame({
                "c_mktsegment": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
                "tot": pd.Series([], dtype=np.float64)})
        agg = pa.TableGroupBy(
            lapsed.select(["c_mktsegment", "c_acctbal"]),
            "c_mktsegment").aggregate([("c_acctbal", "sum"),
                                       ([], "count_all")])
        return pd.DataFrame({
            "c_mktsegment": agg["c_mktsegment"].to_pylist(),
            "n": agg["count_all"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "tot": agg["c_acctbal_sum"].to_numpy(zero_copy_only=False)})

    parts = cust.map_batches(c_rows, batch_format="pyarrow") \
        .union(od.map_batches(o_keys, batch_format="pyarrow")) \
        .groupby("gkey").map_groups(anti, batch_format="pyarrow") \
        .to_pandas()
    out = parts.groupby("c_mktsegment", sort=True) \
        .agg(numcust=("n", "sum"), totacctbal=("tot", "sum")) \
        .reset_index()
    out["numcust"] = out["numcust"].astype(np.int64)
    # 2dp like q1/q3/q5 money sums (float association noise only)
    out["totacctbal"] = out["totacctbal"].round(2)
    return out.reset_index(drop=True)


Q14_LO = np.datetime64("1998-06-01")
Q14_HI = np.datetime64("1998-07-01")


def q14_promo_revenue(sf_dir: str, *, force_cogroup: bool = False
                      ) -> pd.DataFrame:
    """TPC-H Q14 promotion-effect analog: the percentage of one
    month's discounted revenue from parts with ``p_type = 'PROMO'``
    (this schema's p_type is a flat category, so equality stands in
    for TPC-H's ``LIKE 'PROMO%'``).

    Shape: dimension-join + GLOBAL ratio.  The part side projects to
    (p_partkey, is_promo) — ~9 bytes/row, so the full TPC-H 1:30
    part:lineitem ratio keeps it broadcastable far beyond where part
    itself would be; :func:`broadcast_left_join` ships it via one
    ``ray.put`` and probes per block, falling back to the coarse-gkey
    cogroup exchange past the documented thresholds (``force_cogroup``
    pins both paths identical).  Revenue then collapses per block to
    (promo_sum, total_sum) partials — the driver folds O(blocks) rows
    and emits the single ratio, rounded half-away-from-zero at 6dp
    (the pinned rational-ratio invariant; ``.round()`` is half-even).
    """
    lo = pa.scalar(Q14_LO.astype("datetime64[us]").item())
    hi = pa.scalar(Q14_HI.astype("datetime64[us]").item())

    part = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_type"])

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t["p_partkey"],
                         "is_promo": pc.equal(t["p_type"], "PROMO")})

    part_proj = _fold_blocks(part.map_batches(proj,
                                              batch_format="pyarrow"))
    if part_proj is None:
        part_proj = pa.table({"p_partkey": pa.array([], pa.int64()),
                              "is_promo": pa.array([], pa.bool_())})

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"],
                         override_num_blocks=16)

    def li_filter(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                                pc.less(t["l_shipdate"], hi)))

    joined = broadcast_left_join(
        li.map_batches(li_filter, batch_format="pyarrow"),
        part_proj, "l_partkey", "p_partkey", ["is_promo"],
        force_cogroup=force_cogroup)

    def rev_part(t: pa.Table) -> pa.Table:
        # INNER-join semantics like the oracle: a lineitem whose
        # partkey has no part row leaves BOTH sums (r05 self-review —
        # fill_null(False) would have kept it in the denominator)
        t = t.filter(pc.is_valid(t["is_promo"]))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        promo = pc.if_else(t["is_promo"], rev, pa.scalar(0.0))
        return pa.table({
            "p": pa.array([pc.sum(promo).as_py() or 0.0], pa.float64()),
            "t": pa.array([pc.sum(rev).as_py() or 0.0], pa.float64())})

    sums = _fold_blocks(joined.map_batches(rev_part,
                                           batch_format="pyarrow"))
    if sums is None:  # zero rows in the window: defined 0-ratio row
        return pd.DataFrame({"promo_revenue": [0.0]})
    total = pc.sum(sums["t"]).as_py() or 0.0
    promo = pc.sum(sums["p"]).as_py() or 0.0
    ratio = 100.0 * promo / total if total else 0.0
    return pd.DataFrame({"promo_revenue":
                         [np.floor(ratio * 1e6 + 0.5) / 1e6]})


Q12_LO = np.datetime64("1998-01-01")
Q12_HI = np.datetime64("1999-01-01")
Q12_HIGH = ("1-URGENT", "2-HIGH")


def q12_priority_shipping(sf_dir: str, *, num_groups: int = 32
                          ) -> pd.DataFrame:
    """TPC-H Q12 shipping-priority analog: per lineitem linestatus
    (standing in for the absent l_shipmode), how many one-year
    shipments belong to high-priority orders (1-URGENT / 2-HIGH)
    vs the rest.

    Shape: FACT-FACT equi-join + case aggregation.  Neither side
    broadcasts at scale — lineitem ships (orderkey, linestatus) key
    rows, orders ships (orderkey, is_high bool); one coarse-gkey
    exchange co-locates each orderkey and the per-group resolution is
    a vectorized ``index_in`` probe + one Arrow hash aggregate, so
    group output is O(linestatus values), never O(rows).  Join keys
    and pairing stay in ARROW throughout (the int64-with-nulls pandas
    degradation trap)."""
    lo = pa.scalar(Q12_LO.astype("datetime64[us]").item())
    hi = pa.scalar(Q12_HI.astype("datetime64[us]").item())

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_linestatus",
                                  "l_shipdate"],
                         override_num_blocks=16)

    def l_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                             pc.less(t["l_shipdate"], hi)))
        k = t["l_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k,
            "l_linestatus": t["l_linestatus"].combine_chunks(),
            "is_high": pa.nulls(len(t), pa.bool_()),
            "side": pa.array(["l"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_orderpriority"],
                         override_num_blocks=8)

    def o_rows(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k,
            "l_linestatus": pa.nulls(len(t), pa.string()),
            "is_high": pc.is_in(t["o_orderpriority"],
                                value_set=pa.array(list(Q12_HIGH))),
            "side": pa.array(["o"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    def resolve(g: pa.Table) -> pd.DataFrame:
        omask = pc.equal(g["side"], "o")
        og = g.filter(omask)
        lg = g.filter(pc.invert(omask))
        if lg.num_rows == 0:
            return pd.DataFrame({
                "l_linestatus": pd.Series([], dtype=object),
                "hi": pd.Series([], dtype=np.int64),
                "lo": pd.Series([], dtype=np.int64)})
        idx = pc.index_in(lg["k"], value_set=og["k"])
        is_high = pc.take(og["is_high"], idx)
        # INNER-join semantics like the oracle: a lineitem with no
        # orders row is dropped, not counted low (r05 self-review)
        keep = pc.is_valid(is_high)
        is_high = pc.filter(is_high, keep)
        pairs = pa.table({
            "l_linestatus": pc.filter(
                lg["l_linestatus"].combine_chunks(), keep),
            "hi": pc.cast(is_high, pa.int64()),
            "lo": pc.cast(pc.invert(is_high), pa.int64())})
        agg = pa.TableGroupBy(pairs, "l_linestatus").aggregate(
            [("hi", "sum"), ("lo", "sum")])
        return pd.DataFrame({
            "l_linestatus": agg["l_linestatus"].to_pylist(),
            "hi": agg["hi_sum"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "lo": agg["lo_sum"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})

    parts = li.map_batches(l_rows, batch_format="pyarrow") \
        .union(od.map_batches(o_rows, batch_format="pyarrow")) \
        .groupby("gkey").map_groups(resolve, batch_format="pyarrow") \
        .to_pandas()
    out = parts.groupby("l_linestatus", sort=True) \
        .agg(high_line_count=("hi", "sum"), low_line_count=("lo", "sum")) \
        .reset_index()
    out["high_line_count"] = out["high_line_count"].astype(np.int64)
    out["low_line_count"] = out["low_line_count"].astype(np.int64)
    return out.reset_index(drop=True)


PCT_RANK_PROBES = (10.0, 50.0, 150.0)


def percentile_ranks_events(sf_dir: str) -> pd.DataFrame:
    """ES ``percentile_ranks`` aggregation analog, computed EXACTLY:
    for each probe value, the fraction of ``events.value`` <= probe.

    The inverse of the quantile family: instead of value-at-rank it is
    rank-at-value, and unlike the t-digest path it needs no sketch —
    each block emits one (probe, count<=probe, count) partial row
    (O(probes) per block), a driver fold divides.  Ratio rounds 6dp
    half-away (small-denominator RATIONAL — the pinned floor form;
    .round() half-even diverges).

    Output: (probe, pct_rank) probe-ordered."""
    probes = np.asarray(PCT_RANK_PROBES, dtype=np.float64)

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"], override_num_blocks=8)

    def partials(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        le = np.asarray([(v <= p).sum() for p in probes], np.int64)
        return pa.table({
            "probe": pa.array(probes, pa.float64()),
            "le_part": pa.array(le, pa.int64()),
            "n_part": pa.array(np.full(probes.size, v.size, np.int64),
                               pa.int64())})

    tbl = _fold_blocks(ds.map_batches(partials, batch_format="pyarrow"))
    df = tbl.to_pandas().groupby("probe", sort=True) \
        .agg(le=("le_part", "sum"), n=("n_part", "sum")).reset_index()
    df["pct_rank"] = np.floor(df["le"] / df["n"] * 1e6 + 0.5) / 1e6
    return df[["probe", "pct_rank"]].reset_index(drop=True)


COMPOSITE_PAGE_SIZE = 4


def composite_agg_pages(sf_dir: str, page_size: int = COMPOSITE_PAGE_SIZE
                        ) -> pd.DataFrame:
    """ES composite aggregation analog: (lang, source) doc-count
    buckets in after_key order, EVERY page materialized with its page
    number — the resumable-aggregation shape (a consumer can restart
    from any after_key; pages partition the bucket stream).

    One vocab-bounded partial-aggregate pass (the facet core's shape,
    no match set); paging is arithmetic over the sorted bucket table,
    so page N never recomputes pages < N.

    Output: (page, lang, source, n) ordered (page, lang, source)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang", "source"],
                         override_num_blocks=8)
    buckets = partial_groupby_sum(ds, ["lang", "source"], []) \
        .to_pandas()
    buckets = buckets.sort_values(["lang", "source"]) \
        .reset_index(drop=True)
    buckets["page"] = (np.arange(len(buckets)) // page_size + 1) \
        .astype(np.int64)
    buckets["n"] = buckets["n"].astype(np.int64)
    return buckets[["page", "lang", "source", "n"]]


def q9_profit_by_nation(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q9 product-type-profit analog: discounted revenue per
    (supplier nation, ship year) — the STAR-JOIN shape none of the
    other TPC-H analogs exercise: the fact table resolves a CHAIN of
    dimensions (supplier -> nation) composed into ONE broadcast lookup
    before the scan, so each lineitem block does a single vectorized
    ``index_in`` + ``take`` and emits (nation, year) partial sums.

    Dimension composition happens driver-side on the DIMENSION tables
    only (supplier is 1/10000 of lineitem in TPC-H; nation is 25
    rows): suppkey -> nation name.  The fact table never joins
    row-to-row — the exchange is the vocab-bounded (nation x year)
    partial-aggregate fold.

    Unlike q1/q3/q5 (whose float sums happen to sit clear of 2dp
    boundaries), this grouping DID hit one (a group differing by one
    cent between summation orders at sf0.01), so the sum is EXACT:
    each item's revenue double rounds half-away to int64 micro-units
    (both engines compute the identical double, so identical micros),
    integer-sums, and converts to 2dp by integer arithmetic — no
    float association anywhere."""
    import pyarrow.parquet as pq
    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    nidx = pc.index_in(sup["s_nationkey"], value_set=nat["n_nationkey"])
    lookup = pa.table({
        "s_suppkey": sup["s_suppkey"].combine_chunks(),
        "n_name": pc.take(nat["n_name"], nidx).combine_chunks()})
    lookup_ref = ray.put(lookup)

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_suppkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"],
                         override_num_blocks=16)

    def partials(t: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)
        idx = pc.index_in(t["l_suppkey"], value_set=lk["s_suppkey"])
        # INNER-join semantics like the oracle: an orphan suppkey
        # (no supplier row) is dropped, never a null-nation group
        keep = pc.is_valid(idx)
        t = t.filter(keep)
        idx = pc.filter(idx, keep)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        micros = np.floor(rev.to_numpy(zero_copy_only=False) * 1e6
                          + 0.5).astype(np.int64)
        g = pa.table({
            "n_name": pc.take(lk["n_name"], idx).combine_chunks(),
            "o_year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
            "micros": pa.array(micros, pa.int64())})
        agg = pa.TableGroupBy(g, ["n_name", "o_year"]).aggregate(
            [("micros", "sum")])
        return pa.table({"n_name": agg["n_name"],
                         "o_year": agg["o_year"],
                         "micros_part": agg["micros_sum"]})

    parts = _fold_blocks(li.map_batches(partials,
                                        batch_format="pyarrow"))
    out = parts.to_pandas().groupby(["n_name", "o_year"],
                                    sort=True)["micros_part"].sum() \
        .reset_index()
    out["o_year"] = out["o_year"].astype(np.int64)
    # micros -> cents half-away in INTEGER space, then exact /100
    cents = (out["micros_part"].to_numpy(np.int64) + 5000) // 10000
    out["sum_profit"] = cents.astype(np.float64) / 100.0
    return out[["n_name", "o_year", "sum_profit"]] \
        .reset_index(drop=True)


Q10_LO = np.datetime64("1999-01-01")
Q10_HI = np.datetime64("1999-04-01")


def q10_returned_items(sf_dir: str, *, num_groups: int = 32,
                       k: int = 20) -> pd.DataFrame:
    """TPC-H Q10 returned-item-reporting analog: the ``k`` customers
    who lost the most revenue to returns (``l_returnflag = 'R'``) on
    one quarter's orders, with name and nation attached.

    Composite shape: a FACT-FACT cogroup join (quarter-filtered
    orders x returned lineitems on orderkey, per-group output already
    collapsed to (custkey, micros) partial sums), one customer-bounded
    groupby, a per-block partial top-k fold (each custkey appears once
    post-groupby, so block-local top-k is lossless), and dimension
    attachment (name, nation) by a driver lookup for ONLY the k
    winners — the wide customer columns never enter the exchange.
    Revenue sums exactly in integer micros (the q9 boundary
    lesson) and RANKS in integer cents — the oracle's ORDER BY key —
    so the k boundary is deterministic in the same space on both
    sides; custkey asc breaks cent ties."""
    lo = pa.scalar(Q10_LO.astype("datetime64[us]").item())
    hi = pa.scalar(Q10_HI.astype("datetime64[us]").item())

    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_custkey",
                                  "o_orderdate"],
                         override_num_blocks=8)

    def o_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                             pc.less(t["o_orderdate"], hi)))
        k_ = t["o_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k_,
            "o_custkey": t["o_custkey"].combine_chunks()
            .cast(pa.int64()),
            "micros": pa.nulls(len(t), pa.int64()),
            "side": pa.array(["o"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k_, num_groups), pa.int64())})

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_returnflag"],
                         override_num_blocks=16)

    def l_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        micros = np.floor(rev.to_numpy(zero_copy_only=False) * 1e6
                          + 0.5).astype(np.int64)
        k_ = t["l_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k_,
            "o_custkey": pa.nulls(len(t), pa.int64()),
            "micros": pa.array(micros, pa.int64()),
            "side": pa.array(["l"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k_, num_groups), pa.int64())})

    def resolve(g: pa.Table) -> pd.DataFrame:
        omask = pc.equal(g["side"], "o")
        og = g.filter(omask)
        lg = g.filter(pc.invert(omask))
        if og.num_rows == 0 or lg.num_rows == 0:
            return pd.DataFrame({
                "o_custkey": pd.Series([], dtype=np.int64),
                "m": pd.Series([], dtype=np.int64)})
        idx = pc.index_in(lg["k"], value_set=og["k"])
        cust = pc.take(og["o_custkey"], idx)
        keep = pc.is_valid(cust)
        pairs = pa.table({"o_custkey": pc.filter(cust, keep),
                          "micros": pc.filter(lg["micros"], keep)})
        if pairs.num_rows == 0:
            return pd.DataFrame({
                "o_custkey": pd.Series([], dtype=np.int64),
                "m": pd.Series([], dtype=np.int64)})
        agg = pa.TableGroupBy(pairs, "o_custkey").aggregate(
            [("micros", "sum")])
        return pd.DataFrame({
            "o_custkey": agg["o_custkey"].to_numpy(
                zero_copy_only=False).astype(np.int64),
            "m": agg["micros_sum"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})

    per_cust = od.map_batches(o_rows, batch_format="pyarrow") \
        .union(li.map_batches(l_rows, batch_format="pyarrow")) \
        .groupby("gkey").map_groups(resolve, batch_format="pyarrow") \
        .groupby("o_custkey").sum("m")

    # the oracle INNER-joins customer and nation: a custkey with no
    # customer row, or whose nation is missing, never ranks (the next
    # customer takes its place).  The valid custkeys broadcast once as
    # a sorted int64 array — ids only, a dimension
    import pyarrow.parquet as pq
    cu = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                       columns=["c_custkey", "c_name", "c_nationkey"])
    na = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                       columns=["n_nationkey", "n_name"])
    cu = cu.filter(pc.is_in(cu["c_nationkey"], value_set=na["n_nationkey"]))
    valid_ref = ray.put(np.unique(cu["c_custkey"].to_numpy(
        zero_copy_only=False).astype(np.int64)))

    def block_topk(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = t["sum(m)"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(ck, ray.get(valid_ref))
        ck, m = ck[keep], m[keep]
        # rank in CENTS — the oracle's ORDER BY key: a micros-space
        # tiebreak could pick a different customer at the k boundary
        # when two revenues round to the same cent (r05 self-review)
        c = (m + 5000) // 10000
        o = np.lexsort((ck, -c))[:k]
        return pa.table({"o_custkey": pa.array(ck[o], pa.int64()),
                         "cents": pa.array(c[o], pa.int64())})

    cand = _fold_blocks(per_cust.map_batches(block_topk,
                                             batch_format="pyarrow"))
    if cand is None:
        return pd.DataFrame({
            "c_custkey": pd.Series([], dtype=np.int64),
            "c_name": pd.Series([], dtype=object),
            "n_name": pd.Series([], dtype=object),
            "revenue": pd.Series([], dtype=np.float64)})
    df = cand.to_pandas()
    df = df.sort_values(["cents", "o_custkey"], ascending=[False, True],
                        kind="mergesort").head(k)

    winners = pa.array(df["o_custkey"].to_numpy(np.int64))
    cu = cu.filter(pc.is_in(cu["c_custkey"], value_set=winners))
    nidx = pc.index_in(cu["c_nationkey"], value_set=na["n_nationkey"])
    cmap = {int(c): (nm, nn) for c, nm, nn in zip(
        cu["c_custkey"].to_pylist(), cu["c_name"].to_pylist(),
        pc.take(na["n_name"], nidx).to_pylist())}
    cents = df["cents"].to_numpy(np.int64)
    return pd.DataFrame({
        "c_custkey": df["o_custkey"].to_numpy(np.int64),
        "c_name": [cmap[int(c)][0] for c in df["o_custkey"]],
        "n_name": [cmap[int(c)][1] for c in df["o_custkey"]],
        "revenue": cents.astype(np.float64) / 100.0})


HIST_INTERVAL = 25.0


def value_histogram_events(sf_dir: str) -> pd.DataFrame:
    """ES histogram aggregation analog (fixed ``interval`` over a
    numeric field): bucket = floor(value/interval), doc count per
    non-empty bucket.  Map-side bincount partials (O(buckets) rows per
    block — bucket count is range/interval-bounded, independent of row
    count), one tiny fold.  Output: (bucket, n) bucket-ordered."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["value"], override_num_blocks=8)

    def partials(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        b = np.floor(v / HIST_INTERVAL).astype(np.int64)
        ub, cnt = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(ub, pa.int64()),
                         "n_part": pa.array(cnt.astype(np.int64),
                                            pa.int64())})

    tbl = _fold_blocks(ds.map_batches(partials, batch_format="pyarrow"))
    out = tbl.to_pandas().groupby("bucket", sort=True)["n_part"].sum() \
        .reset_index().rename(columns={"n_part": "n"})
    return out.astype({"bucket": np.int64, "n": np.int64})


def documents_cube(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE(lang, source) doc counts: all four grouping sets
    — (lang, source), per-lang, per-source, grand total — with SQL
    CUBE NULL conventions.

    One pass: only the FINE level touches data (vocab-bounded
    ``partial_groupby_sum``); the other three sets fold the fine
    cells, since counts re-aggregate exactly.  The CUBE's extra set
    vs ROLLUP (per-source with lang rolled) is what
    ``events_rollup`` doesn't produce."""
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang", "source"],
                         override_num_blocks=8)
    fine = partial_groupby_sum(ds, ["lang", "source"], []).to_pandas()
    by_lang = fine.groupby("lang", as_index=False).agg(n=("n", "sum"))
    by_lang["source"] = None
    by_src = fine.groupby("source", as_index=False).agg(n=("n", "sum"))
    by_src["lang"] = None
    grand = pd.DataFrame({"lang": [None], "source": [None],
                          "n": [fine["n"].sum()]})
    out = pd.concat([fine, by_lang, by_src, grand], ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    return out[["lang", "source", "n"]] \
        .sort_values(["lang", "source"], na_position="last") \
        .reset_index(drop=True)


def daily_event_derivative(sf_dir: str) -> pd.DataFrame:
    """ES date_histogram (calendar_interval=day) + derivative
    pipeline aggregation: per-day event counts and each day's delta
    vs the previous day (first day dropped — its derivative is
    undefined, and dropping keeps the delta column non-null int64).
    The pipeline-agg second phase (bucket-to-bucket functions over a
    completed histogram) is what the plain window family doesn't
    produce.

    Map-side (day, count) partials — O(days) rows per block — one
    tiny fold, then the derivative is a driver ``diff`` over the
    day-sorted totals."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts"], override_num_blocks=8)

    def partials(t: pa.Table) -> pa.Table:
        m = pc.strftime(t["ts"], "%Y-%m-%d")
        agg = pa.TableGroupBy(pa.table({"day": m}),
                              "day").aggregate([([], "count_all")])
        return pa.table({"day": agg["day"],
                         "n_part": agg["count_all"].cast(pa.int64())})

    tbl = _fold_blocks(ds.map_batches(partials, batch_format="pyarrow"))
    out = tbl.to_pandas().groupby("day", sort=True)["n_part"].sum() \
        .reset_index().rename(columns={"n_part": "n"})
    out["delta"] = out["n"].diff()
    out = out.iloc[1:].reset_index(drop=True)
    return out.astype({"n": np.int64, "delta": np.int64})


# ES adjacency_matrix filter set: (label, field, op, value); 'tok'
# means the simple-tokenizer token set contains the value
ADJACENCY_FILTERS = [
    ("en", "lang", "eq", "en"),
    ("short", "n_chars", "lt", 300),
    ("stream", "text", "tok", "stream"),
]


def adjacency_matrix_documents(sf_dir: str) -> pd.DataFrame:
    """ES adjacency_matrix aggregation analog: doc counts for each
    named filter AND each pairwise intersection (labels joined
    ``a&b``, lexicographic pair order — ES's convention).

    One scan: each block evaluates every filter ONCE into a boolean
    mask (vectorized Arrow compare / tokenizer containment), then all
    O(F^2) intersection counts come from mask AND-sums — per-block
    output is O(F^2) label rows, never data-sized.  The singles and
    the matrix share the same masks, so adding a filter costs one
    column pass, not a rescan."""
    from ..tokenize.tokenizer import simple_tokenize

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang", "n_chars", "text"],
                         override_num_blocks=8)

    def partials(t: pa.Table) -> pa.Table:
        masks = {}
        for label, field, op, val in ADJACENCY_FILTERS:
            if op == "eq":
                m = pc.equal(t[field], val).to_numpy(
                    zero_copy_only=False)
            elif op == "lt":
                m = pc.less(t[field], val).to_numpy(
                    zero_copy_only=False)
            else:  # tok — tokenizer containment, the percolator shape
                m = np.fromiter(
                    (val in simple_tokenize(x or "")
                     for x in t[field].to_pylist()),
                    dtype=bool, count=t.num_rows)
            masks[label] = np.asarray(m, dtype=bool)
        labels = [f[0] for f in ADJACENCY_FILTERS]
        out_l, out_n = [], []
        for i, a in enumerate(labels):
            out_l.append(a)
            out_n.append(int(masks[a].sum()))
            for b in labels[i + 1:]:
                out_l.append(f"{a}&{b}")
                out_n.append(int((masks[a] & masks[b]).sum()))
        return pa.table({"key": pa.array(out_l, pa.string()),
                         "n_part": pa.array(out_n, pa.int64())})

    tbl = _fold_blocks(ds.map_batches(partials, batch_format="pyarrow"))
    out = tbl.to_pandas().groupby("key", sort=True)["n_part"].sum() \
        .reset_index().rename(columns={"n_part": "n"})
    out = out[out["n"] > 0]  # ES omits empty buckets
    return out.reset_index(drop=True).astype({"n": np.int64})


Q15_LO = np.datetime64("1999-01-01")
Q15_HI = np.datetime64("1999-04-01")


def q15_top_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 top-supplier analog: the supplier(s) with the MAXIMUM
    one-quarter revenue — the GLOBAL-ARGMAX-WITH-TIES shape (Q15's
    view + WHERE total = (SELECT max(...)) keeps every tied supplier,
    unlike a top-1 LIMIT).

    Per-suppkey revenue is the exact integer-micros partial-sum fold
    (supplier-bounded), ranking/equality happens in integer CENTS (the
    oracle's comparison space), the max is one driver scalar, and only
    the winners' names are fetched.  Output: (s_suppkey, s_name,
    total_revenue) suppkey-ordered."""
    lo = pa.scalar(Q15_LO.astype("datetime64[us]").item())
    hi = pa.scalar(Q15_HI.astype("datetime64[us]").item())

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_suppkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"],
                         override_num_blocks=16)

    def partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                             pc.less(t["l_shipdate"], hi)))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        micros = np.floor(rev.to_numpy(zero_copy_only=False) * 1e6
                          + 0.5).astype(np.int64)
        g = pa.table({"l_suppkey": t["l_suppkey"].combine_chunks()
                      .cast(pa.int64()),
                      "micros": pa.array(micros, pa.int64())})
        agg = pa.TableGroupBy(g, "l_suppkey").aggregate(
            [("micros", "sum")])
        return pa.table({"l_suppkey": agg["l_suppkey"],
                         "m_part": agg["micros_sum"]})

    tbl = _fold_blocks(li.map_batches(partials, batch_format="pyarrow"))
    empty = pd.DataFrame({
        "s_suppkey": pd.Series([], dtype=np.int64),
        "s_name": pd.Series([], dtype=object),
        "total_revenue": pd.Series([], dtype=np.float64)})
    if tbl is None:
        return empty
    per = tbl.to_pandas().groupby("l_suppkey")["m_part"].sum() \
        .reset_index()
    cents = (per["m_part"].to_numpy(np.int64) + 5000) // 10000
    per["cents"] = cents
    best = per[per["cents"] == cents.max()] \
        .sort_values("l_suppkey").reset_index(drop=True)

    import pyarrow.parquet as pq
    su = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                       columns=["s_suppkey", "s_name"])
    winners = pa.array(best["l_suppkey"].to_numpy(np.int64))
    su = su.filter(pc.is_in(su["s_suppkey"], value_set=winners))
    names = dict(zip(su["s_suppkey"].to_pylist(),
                     su["s_name"].to_pylist()))
    # oracle's INNER 'supplier JOIN rev' drops winners missing from
    # supplier — mirror (never a KeyError; second self-review pass)
    best = best[best["l_suppkey"].isin(names)].reset_index(drop=True)
    return pd.DataFrame({
        "s_suppkey": best["l_suppkey"].to_numpy(np.int64),
        "s_name": [names[int(x)] for x in best["l_suppkey"]],
        "total_revenue": best["cents"].to_numpy(np.int64)
        .astype(np.float64) / 100.0})


Q17_BRAND = "Brand#1"


def q17_small_quantity_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17 small-quantity-order analog: weekly revenue lost if
    orders below 20% of a part's average quantity weren't filled, for
    one brand's parts — the CORRELATED-SUBQUERY shape: the threshold
    dimension (per-part 0.2*avg quantity) is DERIVED FROM THE FACT
    TABLE itself, then broadcast back over it.

    Two fact passes, both pruned to the brand's partkeys (broadcast
    key set from the part table): pass A folds per-part (qty sum,
    count) partials -> the per-part threshold table (part-bounded);
    pass B filters l_quantity < threshold[partkey] per block and sums
    price in EXACT integer micros — the oracle sums the identical
    micros, so the /7 ratio rounds from the same double on both
    sides.  Output: one (avg_yearly) row."""
    import pyarrow.parquet as pq
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand"])
    bkeys = part.filter(pc.equal(part["p_brand"], Q17_BRAND))
    bkeys_ref = ray.put(bkeys["p_partkey"].combine_chunks())

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice"],
                         override_num_blocks=16)

    def qty_partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["l_partkey"],
                              value_set=ray.get(bkeys_ref)))
        agg = pa.TableGroupBy(
            t.select(["l_partkey", "l_quantity"]),
            "l_partkey").aggregate([("l_quantity", "sum"),
                                    ([], "count_all")])
        return pa.table({"l_partkey": agg["l_partkey"],
                         "q_part": agg["l_quantity_sum"],
                         "n_part": agg["count_all"].cast(pa.int64())})

    tbl = _fold_blocks(li.map_batches(qty_partials,
                                      batch_format="pyarrow"))
    if tbl is None:  # no brand rows at all -> SQL sum() is NULL
        return pd.DataFrame({"avg_yearly": [None]})
    per = tbl.to_pandas().groupby("l_partkey").agg(
        q=("q_part", "sum"), n=("n_part", "sum")).reset_index()
    # EXACT oracle parity: quantities are integral so the sums are
    # order-independent exact doubles, and the expression is spelled
    # 0.2*(sum/n) — the oracle's 0.2*avg() association — because
    # (0.2*sum)/n can differ in the last ulp and flip a `<` at an
    # exactly-integer threshold (avg=25 -> thr=5.0)
    thr = pa.table({
        "l_partkey": pa.array(per["l_partkey"].to_numpy(np.int64)),
        "thr": pa.array(0.2 * (per["q"].to_numpy(np.float64)
                               / per["n"].to_numpy(np.float64)))})
    thr_ref = ray.put(thr)

    def rev_partials(t: pa.Table) -> pa.Table:
        lk = ray.get(thr_ref)
        idx = pc.index_in(t["l_partkey"], value_set=lk["l_partkey"])
        keep = pc.is_valid(idx)
        t = t.filter(keep)
        idx = pc.filter(idx, keep)
        thr_v = pc.take(lk["thr"], idx)
        t = t.filter(pc.less(t["l_quantity"], thr_v))
        micros = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 1e6
            + 0.5).astype(np.int64)
        return pa.table({"m": pa.array([int(micros.sum())],
                                       pa.int64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    sums = _fold_blocks(li.map_batches(rev_partials,
                                       batch_format="pyarrow"))
    n = 0 if sums is None else int(pc.sum(sums["n"]).as_py() or 0)
    # SQL sum() over zero rows is NULL, not 0 — mirror it (the q6
    # precedent; second self-review pass)
    if n == 0:
        return pd.DataFrame({"avg_yearly": [None]})
    total = int(pc.sum(sums["m"]).as_py() or 0)
    x = total / 7e6
    return pd.DataFrame({"avg_yearly":
                         [np.floor(x * 100 + 0.5) / 100]})


Q7_NATIONS = ("NATION_1", "NATION_2")


def q7_volume_shipping(sf_dir: str, *, num_groups: int = 32,
                       nations: tuple = Q7_NATIONS) -> pd.DataFrame:
    """TPC-H Q7 volume-shipping analog: discounted revenue shipped
    between two nations, per (supplier nation, customer nation, ship
    year) — the CAPSTONE composite: BOTH dimension chains (supplier->
    nation on the lineitem side, customer->nation on the orders side)
    compose into broadcast lookups, and the two pre-annotated fact
    sides meet in ONE coarse-gkey cogroup join on orderkey.

    Scale shape: lineitem blocks annotate supp_nation via the composed
    (suppkey -> nation) lookup and DROP every row outside the nation
    pair before the exchange (the Q7 predicate is supplier-side
    prunable); orders blocks annotate cust_nation the same way and
    drop rows outside the pair.  The cogroup then pairs survivors and
    emits (supp_nation, cust_nation, year) micro-partials —
    O(2 x years) rows per group.  Customer/supplier projections are
    2-column int->string maps (TPC-H 1:10 and 1:10000 of the facts);
    past the documented broadcast thresholds they'd become the
    cogroup dimension exchange (broadcast_left_join's fallback).
    Revenue is the exact integer-micros/cents form."""
    import pyarrow.parquet as pq
    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])

    def nation_of(keys: pa.ChunkedArray, nk: pa.ChunkedArray):
        idx = pc.index_in(nk, value_set=nat["n_nationkey"])
        return pa.table({"k": keys.combine_chunks(),
                         "nm": pc.take(nat["n_name"], idx)
                         .combine_chunks()})

    sup_lk = ray.put(nation_of(sup["s_suppkey"], sup["s_nationkey"]))
    cust_lk = ray.put(nation_of(cust["c_custkey"], cust["c_nationkey"]))
    pair = pa.array(list(nations))

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey",
                                  "l_extendedprice", "l_discount",
                                  "l_shipdate"],
                         override_num_blocks=16)

    def l_rows(t: pa.Table) -> pa.Table:
        lk = ray.get(sup_lk)
        idx = pc.index_in(t["l_suppkey"], value_set=lk["k"])
        nm = pc.take(lk["nm"], idx)
        keep = pc.is_in(nm, value_set=pair)
        t, nm = t.filter(keep), pc.filter(nm, keep)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        micros = np.floor(rev.to_numpy(zero_copy_only=False) * 1e6
                          + 0.5).astype(np.int64)
        k = t["l_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k,
            "nm": nm.combine_chunks(),
            "m": pa.array(micros, pa.int64()),
            "yr": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
            "side": pa.array(["l"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_custkey"],
                         override_num_blocks=8)

    def o_rows(t: pa.Table) -> pa.Table:
        lk = ray.get(cust_lk)
        idx = pc.index_in(t["o_custkey"], value_set=lk["k"])
        nm = pc.take(lk["nm"], idx)
        keep = pc.is_in(nm, value_set=pair)
        t, nm = t.filter(keep), pc.filter(nm, keep)
        k = t["o_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k,
            "nm": nm.combine_chunks(),
            "m": pa.nulls(len(t), pa.int64()),
            "yr": pa.nulls(len(t), pa.int64()),
            "side": pa.array(["o"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    def resolve(g: pa.Table) -> pd.DataFrame:
        omask = pc.equal(g["side"], "o")
        og = g.filter(omask)
        lg = g.filter(pc.invert(omask))
        empty = pd.DataFrame({
            "supp_nation": pd.Series([], dtype=object),
            "cust_nation": pd.Series([], dtype=object),
            "l_year": pd.Series([], dtype=np.int64),
            "m": pd.Series([], dtype=np.int64)})
        if og.num_rows == 0 or lg.num_rows == 0:
            return empty
        idx = pc.index_in(lg["k"], value_set=og["k"])
        cnm = pc.take(og["nm"], idx)
        sn = lg["nm"]
        # cross pair only: (a,b) or (b,a) — inner join + != filter
        keep = pc.and_(pc.is_valid(cnm), pc.not_equal(sn, cnm))
        if pc.sum(pc.cast(keep, pa.int64())).as_py() == 0:
            return empty
        sub = pa.table({
            "supp_nation": pc.filter(sn.combine_chunks(), keep),
            "cust_nation": pc.filter(cnm, keep),
            "l_year": pc.filter(lg["yr"].combine_chunks(), keep),
            "m": pc.filter(lg["m"].combine_chunks(), keep)})
        agg = pa.TableGroupBy(sub, ["supp_nation", "cust_nation",
                                    "l_year"]).aggregate([("m", "sum")])
        return pd.DataFrame({
            "supp_nation": agg["supp_nation"].to_pylist(),
            "cust_nation": agg["cust_nation"].to_pylist(),
            "l_year": agg["l_year"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "m": agg["m_sum"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})

    parts = li.map_batches(l_rows, batch_format="pyarrow") \
        .union(od.map_batches(o_rows, batch_format="pyarrow")) \
        .groupby("gkey").map_groups(resolve, batch_format="pyarrow") \
        .to_pandas()
    if parts.empty:
        return pd.DataFrame({
            "supp_nation": pd.Series([], dtype=object),
            "cust_nation": pd.Series([], dtype=object),
            "l_year": pd.Series([], dtype=np.int64),
            "revenue": pd.Series([], dtype=np.float64)})
    out = parts.groupby(["supp_nation", "cust_nation", "l_year"],
                        sort=True)["m"].sum().reset_index()
    cents = (out["m"].to_numpy(np.int64) + 5000) // 10000
    out["revenue"] = cents.astype(np.float64) / 100.0
    out["l_year"] = out["l_year"].astype(np.int64)
    return out[["supp_nation", "cust_nation", "l_year", "revenue"]] \
        .reset_index(drop=True)


Q8_REGION = "AFRICA"
Q8_NATION = "NATION_1"
Q8_PTYPE = "PROMO"


def q8_market_share(sf_dir: str, *, num_groups: int = 32
                    ) -> pd.DataFrame:
    """TPC-H Q8 national-market-share analog: per order year, the
    fraction of ``Q8_REGION``-customer PROMO-part revenue supplied by
    ``Q8_NATION`` — the GROUPED-RATIO composite on top of Q7's double
    dimension chain.

    The lineitem side annotates supplier nation AND part type from two
    composed broadcasts, keeps PROMO rows, and carries only
    (orderkey, micros, is_target_nation); the orders side composes
    custkey -> nation -> region -> name and keeps region rows with
    their order YEAR.  The cogroup pairs survivors and emits per-year
    (numerator, denominator) integer partials; the driver's only work
    is one divide per year (both sides of the oracle divide the SAME
    exact int64s, so the rational ratio rounds identically half-away
    6dp)."""
    import pyarrow.parquet as pq
    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name",
                                 "n_regionkey"])
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                        columns=["r_regionkey", "r_name"])
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_type"])

    nidx = pc.index_in(sup["s_nationkey"], value_set=nat["n_nationkey"])
    sup_lk = ray.put(pa.table({
        "k": sup["s_suppkey"].combine_chunks(),
        "is_nat": pc.equal(pc.take(nat["n_name"], nidx),
                           Q8_NATION).combine_chunks()}))
    cidx = pc.index_in(cust["c_nationkey"],
                       value_set=nat["n_nationkey"])
    ridx = pc.index_in(pc.take(nat["n_regionkey"], cidx),
                       value_set=reg["r_regionkey"])
    cust_lk = ray.put(pa.table({
        "k": cust["c_custkey"].combine_chunks(),
        "in_reg": pc.equal(pc.take(reg["r_name"], ridx),
                           Q8_REGION).combine_chunks()}))
    part_lk = ray.put(pa.table({
        "k": part["p_partkey"].combine_chunks(),
        "is_type": pc.equal(part["p_type"],
                            Q8_PTYPE).combine_chunks()}))

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey",
                                  "l_suppkey", "l_extendedprice",
                                  "l_discount"],
                         override_num_blocks=16)

    def l_rows(t: pa.Table) -> pa.Table:
        plk, slk = ray.get(part_lk), ray.get(sup_lk)
        ptype = pc.take(plk["is_type"],
                        pc.index_in(t["l_partkey"],
                                    value_set=plk["k"]))
        keep = pc.fill_null(ptype, False)
        t = t.filter(keep)
        is_nat = pc.take(slk["is_nat"],
                         pc.index_in(t["l_suppkey"],
                                     value_set=slk["k"]))
        # INNER-join semantics: a supplier-orphan lineitem leaves the
        # DENOMINATOR too (second self-review pass — fill_null(False)
        # would keep it, diverging from the oracle's join chain)
        ok = pc.is_valid(is_nat)
        t, is_nat = t.filter(ok), pc.filter(is_nat, ok)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        micros = np.floor(rev.to_numpy(zero_copy_only=False) * 1e6
                          + 0.5).astype(np.int64)
        k = t["l_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k,
            "m": pa.array(micros, pa.int64()),
            "is_nat": is_nat.combine_chunks(),
            "yr": pa.nulls(len(t), pa.int64()),
            "side": pa.array(["l"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_custkey",
                                  "o_orderdate"],
                         override_num_blocks=8)

    def o_rows(t: pa.Table) -> pa.Table:
        clk = ray.get(cust_lk)
        in_reg = pc.take(clk["in_reg"],
                         pc.index_in(t["o_custkey"],
                                     value_set=clk["k"]))
        t = t.filter(pc.fill_null(in_reg, False))
        k = t["o_orderkey"].combine_chunks().cast(pa.int64())
        return pa.table({
            "k": k,
            "m": pa.nulls(len(t), pa.int64()),
            "is_nat": pa.nulls(len(t), pa.bool_()),
            "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            "side": pa.array(["o"] * len(t), pa.string()),
            "gkey": pc.cast(_mod_nonneg(k, num_groups), pa.int64())})

    def resolve(g: pa.Table) -> pd.DataFrame:
        omask = pc.equal(g["side"], "o")
        og = g.filter(omask)
        lg = g.filter(pc.invert(omask))
        empty = pd.DataFrame({
            "o_year": pd.Series([], dtype=np.int64),
            "num": pd.Series([], dtype=np.int64),
            "den": pd.Series([], dtype=np.int64)})
        if og.num_rows == 0 or lg.num_rows == 0:
            return empty
        idx = pc.index_in(lg["k"], value_set=og["k"])
        yr = pc.take(og["yr"], idx)
        keep = pc.is_valid(yr)
        if pc.sum(pc.cast(keep, pa.int64())).as_py() == 0:
            return empty
        sub = pa.table({
            "o_year": pc.filter(yr, keep),
            "num": pc.if_else(
                pc.filter(lg["is_nat"].combine_chunks(), keep),
                pc.filter(lg["m"].combine_chunks(), keep),
                pa.scalar(0, pa.int64())),
            "den": pc.filter(lg["m"].combine_chunks(), keep)})
        agg = pa.TableGroupBy(sub, "o_year").aggregate(
            [("num", "sum"), ("den", "sum")])
        return pd.DataFrame({
            "o_year": agg["o_year"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "num": agg["num_sum"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "den": agg["den_sum"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})

    parts = li.map_batches(l_rows, batch_format="pyarrow") \
        .union(od.map_batches(o_rows, batch_format="pyarrow")) \
        .groupby("gkey").map_groups(resolve, batch_format="pyarrow") \
        .to_pandas()
    if parts.empty:
        return pd.DataFrame({
            "o_year": pd.Series([], dtype=np.int64),
            "mkt_share": pd.Series([], dtype=np.float64)})
    out = parts.groupby("o_year", sort=True).agg(
        num=("num", "sum"), den=("den", "sum")).reset_index()
    x = out["num"].to_numpy(np.int64).astype(np.float64) \
        / out["den"].to_numpy(np.int64).astype(np.float64)
    out["mkt_share"] = np.floor(x * 1e6 + 0.5) / 1e6
    return out[["o_year", "mkt_share"]].reset_index(drop=True)


Q19_CLAUSES = (("Brand#1", 1, 11), ("Brand#2", 10, 20),
               ("Brand#3", 20, 30))


def q19_discounted_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19 discounted-revenue analog: revenue from lineitems
    satisfying an OR of (brand, quantity-range) clause conjunctions —
    the DISJUNCTIVE-PREDICATE shape: the brand arrives by broadcast
    annotate, then ONE vectorized OR-of-ANDs mask per block (no
    per-clause rescans, no row explosion), and per-block exact-micros
    partial sums fold to a single cents row."""
    import pyarrow.parquet as pq
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand"])
    part_ref = ray.put(pa.table({
        "k": part["p_partkey"].combine_chunks(),
        "brand": part["p_brand"].combine_chunks()}))

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"],
                         override_num_blocks=16)

    def partials(t: pa.Table) -> pa.Table:
        lk = ray.get(part_ref)
        brand = pc.take(lk["brand"],
                        pc.index_in(t["l_partkey"],
                                    value_set=lk["k"]))
        q = t["l_quantity"]
        mask = pa.array(np.zeros(t.num_rows, bool))
        for b, qlo, qhi in Q19_CLAUSES:
            clause = pc.and_(
                pc.and_(pc.fill_null(pc.equal(brand, b), False),
                        pc.greater_equal(q, float(qlo))),
                pc.less_equal(q, float(qhi)))
            mask = pc.or_(mask, clause)
        t = t.filter(mask)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        micros = np.floor(rev.to_numpy(zero_copy_only=False) * 1e6
                          + 0.5).astype(np.int64)
        return pa.table({"m": pa.array([int(micros.sum())],
                                       pa.int64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    sums = _fold_blocks(li.map_batches(partials,
                                       batch_format="pyarrow"))
    n = 0 if sums is None else int(pc.sum(sums["n"]).as_py() or 0)
    # SQL sum() over zero rows is NULL, not 0 — mirror it
    if n == 0:
        return pd.DataFrame({"revenue": [None]})
    total = int(pc.sum(sums["m"]).as_py() or 0)
    cents = (total + 5000) // 10000
    return pd.DataFrame({"revenue": [cents / 100.0]})


def q21_blame_supplier(sf_dir: str, *, num_groups: int = 32,
                       k: int = 10) -> pd.DataFrame:
    """TPC-H Q21 waiting-orders analog: for every multi-supplier order
    where EXACTLY ONE supplier's lineitems came back flagged ``'R'``,
    blame that supplier; report the ``k`` most-blamed — the PER-GROUP
    EXISTS / NOT-EXISTS shape (Q21's "another supplier contributed"
    EXISTS and "no other supplier also failed" NOT EXISTS become
    per-order distinct-count predicates).

    One exchange co-locates each order's lineitems (coarse orderkey
    gkey); inside a group ONE Arrow hash aggregate per orderkey
    computes (distinct suppliers, distinct R-suppliers, the R
    supplier), the predicate filters vectorized, and the group emits
    per-SUPPLIER partial counts (O(suppliers) rows, never O(orders)).
    A supplier-bounded fold ranks (numwait desc, name asc — total
    order, names unique) and fetches the k winners' names only."""
    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_suppkey",
                                  "l_returnflag"],
                         override_num_blocks=16)

    def rows(t: pa.Table) -> pa.Table:
        k_ = t["l_orderkey"].combine_chunks().cast(pa.int64())
        supp = t["l_suppkey"].combine_chunks().cast(pa.int64())
        is_r = pc.equal(t["l_returnflag"], "R")
        return pa.table({
            "k": k_, "supp": supp,
            "supp_r": pc.if_else(is_r, supp,
                                 pa.scalar(None, pa.int64())),
            "gkey": pc.cast(_mod_nonneg(k_, num_groups), pa.int64())})

    def per_order(g: pa.Table) -> pd.DataFrame:
        agg = pa.TableGroupBy(g.select(["k", "supp", "supp_r"]),
                              "k").aggregate(
            [("supp", "count_distinct"),
             ("supp_r", "count_distinct"),
             ("supp_r", "min")])
        # filter in ARROW first: supp_r_min is nullable int64 and a
        # numpy conversion would degrade to float64 (the pinned
        # int64-with-nulls trap); after the predicate every survivor
        # has a valid r_supp (n_r == 1), so the cast is lossless
        keep = pc.and_(
            pc.greater_equal(agg["supp_count_distinct"], 2),
            pc.equal(agg["supp_r_count_distinct"], 1))
        blamed = agg.filter(keep)["supp_r_min"] \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        if blamed.size == 0:
            return pd.DataFrame({
                "s_suppkey": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64)})
        uk, cnt = np.unique(blamed, return_counts=True)
        return pd.DataFrame({"s_suppkey": uk.astype(np.int64),
                             "n": cnt.astype(np.int64)})

    parts = li.map_batches(rows, batch_format="pyarrow") \
        .groupby("gkey").map_groups(per_order,
                                    batch_format="pyarrow") \
        .to_pandas()
    empty = pd.DataFrame({
        "s_name": pd.Series([], dtype=object),
        "numwait": pd.Series([], dtype=np.int64)})
    if parts.empty:
        return empty
    per = parts.groupby("s_suppkey")["n"].sum().reset_index()

    import pyarrow.parquet as pq
    su = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                       columns=["s_suppkey", "s_name"])
    idx = pc.index_in(pa.array(per["s_suppkey"].to_numpy(np.int64)),
                      value_set=su["s_suppkey"])
    per["s_name"] = pc.take(su["s_name"], idx).to_pylist()
    # oracle's INNER join drops blamed suppkeys missing from supplier
    per = per[per["s_name"].notna()]
    per = per.sort_values(["n", "s_name"], ascending=[False, True],
                          kind="mergesort").head(k)
    return pd.DataFrame({
        "s_name": per["s_name"].to_numpy(),
        "numwait": per["n"].to_numpy(np.int64)}).reset_index(drop=True)


def _zscore_keep(c: np.ndarray, n: int, s: int, rhs: int) -> np.ndarray:
    """Outlier mask of one type's cents ``c``: the exact integer test
    ``(n*c - s)^2 > rhs`` of :func:`zscore_outlier_events`.  ``d = n*c -
    s`` and its square run in int64 only where they provably fit
    (``n*max|c| + |s| < 2^63``, ``|d| < 3e9``); past either bound they
    run in Python ints, so nothing wraps silently."""
    if c.size == 0:
        return np.zeros(0, dtype=bool)
    if n * max(int(c.max()), -int(c.min())) + abs(s) >= (1 << 63):
        d = c.astype(object) * n - s
    else:
        d = n * c - s
        if int(np.abs(d).max()) < 3_000_000_000:
            # d^2 < 9e18 fits int64 — fully vectorized; an rhs past
            # int64 is above every such square
            if rhs >= (1 << 63):
                return np.zeros(c.size, dtype=bool)
            return d * d > rhs
    # exact big-int fallback (per-row Python only past int64)
    return np.fromiter((x * x > rhs for x in d.tolist()), dtype=bool,
                       count=c.size)


def zscore_outlier_events(sf_dir: str) -> pd.DataFrame:
    """Per-type 3-sigma outlier detection in EXACT integer arithmetic
    — the anomaly-detection shape with oracle-perfect parity: floats
    appear nowhere after the initial cents quantization
    (``floor(value*100+0.5)``, the identical double op on both
    engines), because ``|x - mean| > 3*sigma`` rewrites as the integer
    inequality ``(n*x - S)^2 > 9*(n*Q - S^2)`` (multiply through by
    n^2; S = sum cents, Q = sum cents^2 per type).

    Two scans: pass 1 folds per-type (n, S, Q) moment partials
    (O(types) rows per block); the tiny moment table broadcasts by
    closure into pass 2's vectorized integer filter.  Output:
    (event_type, event_id, cents) outlier rows, type+id ordered.
    Exactness contract: per-block moments refuse LOUDLY past the
    int64 headroom (|cents| or block rows >= 2^21) rather than wrap
    silently; the driver folds block partials and the threshold in
    Python ints (exact at any magnitude), and the per-row ``n*c - S``
    and its square use int64 only when they fit, with an exact big-int
    fallback (:func:`_zscore_keep`) — the SQL side is HUGEINT
    throughout."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_type", "event_id", "value"],
                         override_num_blocks=8)

    def cents_col(t: pa.Table) -> np.ndarray:
        v = t["value"].to_numpy(zero_copy_only=False)
        return np.floor(v * 100 + 0.5).astype(np.int64)

    def moments(t: pa.Table) -> pa.Table:
        c = cents_col(t)
        # LOUD headroom guard: c*c and the block partial sums below
        # stay exact in int64 only while |cents| < 2^21 (~$20k) and
        # blocks stay < 2^21 rows; beyond that int64 wraps SILENTLY
        # while the HUGEINT oracle stays exact — refuse instead
        if c.size and (np.abs(c).max() >= (1 << 21)
                       or c.size >= (1 << 21)):
            raise ValueError("zscore_outlier_events: cents/block-size "
                             "exceed exact-int64 moment headroom — "
                             "requantize or shrink blocks")
        g = pa.table({"event_type": t["event_type"],
                      "c": pa.array(c, pa.int64()),
                      "c2": pa.array(c * c, pa.int64())})
        agg = pa.TableGroupBy(g, "event_type").aggregate(
            [("c", "sum"), ("c2", "sum"), ([], "count_all")])
        return pa.table({"event_type": agg["event_type"],
                         "s_part": agg["c_sum"],
                         "q_part": agg["c2_sum"],
                         "n_part": agg["count_all"].cast(pa.int64())})

    tbl = _fold_blocks(ds.map_batches(moments, batch_format="pyarrow"))
    empty = pd.DataFrame({
        "event_type": pd.Series([], dtype=object),
        "event_id": pd.Series([], dtype=np.int64),
        "cents": pd.Series([], dtype=np.int64)})
    if tbl is None:
        return empty
    # driver fold in PYTHON ints (tiny table, exact beyond int64 —
    # a pandas int64 sum of guarded partials could still wrap at
    # extreme block counts)
    mp = tbl.to_pandas()
    stats = {}
    for et, grp in mp.groupby("event_type"):
        n = sum(int(v) for v in grp["n_part"])
        s_ = sum(int(v) for v in grp["s_part"])
        q = sum(int(v) for v in grp["q_part"])
        stats[et] = (n, s_, 9 * (n * q - s_ * s_))

    def outliers(t: pa.Table) -> pd.DataFrame:
        c = cents_col(t)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ids = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = np.zeros(c.size, dtype=bool)
        for typ, (n, s, rhs) in stats.items():
            sel = et == typ
            keep[sel] = _zscore_keep(c[sel], n, s, rhs)
        return pd.DataFrame({
            "event_type": et[keep],
            "event_id": ids[keep],
            "cents": c[keep]})

    out = ds.map_batches(outliers, batch_format="pyarrow").to_pandas()
    if out.empty:
        return empty
    return out.sort_values(["event_type", "event_id"]) \
        .reset_index(drop=True) \
        .astype({"event_id": np.int64, "cents": np.int64})
