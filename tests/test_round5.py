"""Regression tests for the round-4 ADVICE findings (round-5 fixes):

1. heavy_hitters crashed on null column values (pd.factorize -> code -1
   -> np.bincount negative) and stringified non-string counter values
   through its JSON exchange.
2. heavy_hitter_terms documented but did not enforce k >= 1/phi.
3. The stop filter defaulted ignoreCase=True where Lucene/Solr
   StopFilterFactory defaults false.
4. delta_reindex_fields detected family divergence only after every
   field had been delta'd + epoch-published (availability cliff).
"""
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd


def test_heavy_hitters_nulls_and_int64_values(ray_session):
    """ADVICE #1: nulls must count (not crash), and an int64 column must
    come back as ints, never JSON-stringified keys."""
    from jesterj_ray.stages.sketch import heavy_hitters
    vals = [7] * 400 + [None] * 300 + [11] * 50 + \
        [int(i) for i in range(200)]
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    ds = ds.repartition(5)
    out = heavy_hitters(ds, "v", k=32, phi=0.05)
    got = {None if pd.isna(v) else int(v) for v in out["value"]}
    assert 7 in got                       # ~42%
    assert None in got                    # ~32% of rows are null
    non_null = [v for v in out["value"] if not pd.isna(v)]
    assert all(not isinstance(v, str) for v in non_null)
    for _, r in out.iterrows():
        v = None if pd.isna(r["value"]) else int(r["value"])
        true = sum(1 for x in vals if x == v) if v is not None \
            else sum(1 for x in vals if x is None)
        assert r["count_lo"] <= true <= r["count_hi"]


def test_mg_summary_null_values():
    from jesterj_ray.stages.sketch import mg_merge, mg_summary
    s = mg_summary(["a", None, "a", None, None, "b"], k=8)
    assert s["counts"]["a"] == 2 and s["counts"][None] == 3
    m = mg_merge(s, mg_summary([None, "b"], k=8), k=8)
    assert m["counts"][None] == 4 and m["n"] == 8
    # reduction path (len > k) with nulls present must not crash
    s2 = mg_summary(["x", "y", "z", None, None], k=2)
    assert s2["n"] == 5


def test_heavy_hitter_terms_guard():
    """ADVICE #2: phi < 1/k breaks the no-miss precondition -> raise."""
    from jesterj_ray.stages.sketch import heavy_hitter_terms
    with pytest.raises(ValueError, match="1/phi"):
        heavy_hitter_terms("/nonexistent", phi=0.001, k=64)


def test_correct_offsets_mapping_filter():
    """r04 VERDICT #3: a length-CHANGING mapping charFilter must yield
    token offsets into the ORIGINAL string (Lucene correctOffset)."""
    from jesterj_ray.tokenize.analyzer import (
        build_analyzer_with_corrected_offsets, build_analyzer_with_offsets)
    cfg = {"charFilters": [{"class": "mapping",
                            "mapping": {"ß": "ss", "œ": "oe"}}],
           "tokenizer": {"class": "whitespace"}}
    src = "straße cœur X"
    toks = build_analyzer_with_corrected_offsets(cfg)(src)
    assert [(t["t"], t["s"], t["e"]) for t in toks] == \
        [("strasse", 0, 6), ("coeur", 7, 11), ("X", 12, 13)]
    for t in toks[2:]:                       # untouched region: exact
        assert src[t["s"]:t["e"]] == t["t"]
    # the default (post-charFilter) mode is unchanged
    post = build_analyzer_with_offsets(cfg)(src)
    assert [(t["t"], t["s"], t["e"]) for t in post] == \
        [("strasse", 0, 7), ("coeur", 8, 13), ("X", 14, 15)]


def test_correct_offsets_patternreplace_and_htmlstrip():
    from jesterj_ray.tokenize.analyzer import (
        build_analyzer_with_corrected_offsets, build_preanalyzer)
    cfg = {"charFilters": [{"class": "patternReplace",
                            "pattern": "[0-9]+", "replacement": "N"}],
           "tokenizer": {"class": "whitespace"}}
    src = "a11 b222 c"
    toks = build_analyzer_with_corrected_offsets(cfg)(src)
    assert [(t["t"], t["s"], t["e"]) for t in toks] == \
        [("aN", 0, 3), ("bN", 4, 8), ("c", 9, 10)]
    cfg = {"charFilters": [{"class": "htmlStrip"}],
           "tokenizer": {"class": "whitespace"}}
    src = "<b>hi</b> &amp; yo"
    toks = build_analyzer_with_corrected_offsets(cfg)(src)
    # 'hi' sits at [3,5) in the source; '&' covers the entity [10,15);
    # 'yo' at [16,18)
    assert [(t["t"], t["s"], t["e"]) for t in toks] == \
        [("hi", 3, 5), ("&", 10, 15), ("yo", 16, 18)]
    assert src[3:5] == "hi" and src[10:15] == "&amp;" \
        and src[16:18] == "yo"
    # preanalyzer Lucene-parity mode: original text + corrected spans
    pre = build_preanalyzer(cfg, correct_offsets=True)
    stext, ptoks = pre(src)
    assert stext == src
    assert [(t["t"], t["s"], t["e"]) for t in ptoks] == \
        [("hi", 3, 5), ("&", 10, 15), ("yo", 16, 18)]


def test_correct_offsets_growing_edit_and_composition():
    """A growing replacement followed by a shrinking one: corrections
    compose in reverse through both maps."""
    from jesterj_ray.tokenize.analyzer import \
        build_analyzer_with_corrected_offsets
    cfg = {"charFilters": [
        {"class": "mapping", "mapping": {"x": "xxx"}},   # grow 1->3
        {"class": "patternReplace", "pattern": "b+",
         "replacement": "B"}],                            # shrink
        "tokenizer": {"class": "whitespace"}}
    src = "x bbb end"
    toks = build_analyzer_with_corrected_offsets(cfg)(src)
    # post-filters string: "xxx B end"
    assert [(t["t"], t["s"], t["e"]) for t in toks] == \
        [("xxx", 0, 1), ("B", 2, 5), ("end", 6, 9)]
    assert src[2:5] == "bbb" and src[6:9] == "end"


def test_stop_filter_lucene_case_default():
    """ADVICE #3: StopFilterFactory defaults ignoreCase=false — 'The'
    survives a lowercase stop list unless ignoreCase is set."""
    from jesterj_ray.tokenize.analyzer import build_analyzer
    base = {"tokenizer": {"class": "whitespace"}}
    keep = build_analyzer({**base, "filters": [
        {"class": "stop", "words": ["the"]}]})
    assert keep("The theater the") == ["The", "theater"]
    fold = build_analyzer({**base, "filters": [
        {"class": "stop", "words": ["the"], "ignoreCase": "true"}]})
    assert fold("The theater the") == ["theater"]


def test_langid_vector_parity():
    """The vectorized LangId batch path must equal the scalar reference
    loop on adversarial inputs: unicode whitespace inside tokens, CJK,
    mixed case, ties, empties, nulls."""
    from jesterj_ray.stages.textstats import LangId
    texts = [
        "the cat and the dog is in it",
        "le chat et la maison est pour que",
        "el perro y la casa es para que",
        "der hund und die katze ist für nicht",
        "中文文本处理 test",
        "THE AND OF TO A IN IS",              # case folding
        "le la el y",                          # fr/es tie -> first wins
        "", None, "   ", " nbsp glued",  # unicode ws stays glued
        "word\tword\nword\fmix the",
        "一" * 3,                          # pure CJK
    ]
    st = LangId()
    batch = pa.table({"text": pa.array(texts, pa.string())})
    out = st(batch)
    got = list(zip(out["lang_pred"].to_pylist(),
                   out["lang_score"].to_pylist()))
    want = [st.score_one(t) for t in texts]
    assert got == want


def test_mix_block_count_independence(ray_session):
    """r04 VERDICT #6: the token-budget mix's two-level fold must give
    the same answer at any block split (8 vs 64), uniform and weighted."""
    from jesterj_ray.stages.sampling import mix_by_token_budget
    sf = "/root/testdata/sf0.001"
    a = mix_by_token_budget(sf, budget=800, num_blocks=8)
    b = mix_by_token_budget(sf, budget=800, num_blocks=64)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0
    w = {"en": 600, "fr": 200}
    aw = mix_by_token_budget(sf, budget=w, num_blocks=8)
    bw = mix_by_token_budget(sf, budget=w, num_blocks=64)
    pd.testing.assert_frame_equal(aw, bw)
    assert set(aw["lang"]) <= set(w)


def test_broadcast_join_fallback(ray_session):
    """r04 VERDICT #10: the size-guarded broadcast join's cogroup
    fallback must produce the same answer as the broadcast path."""
    from jesterj_ray.pipelines.relational import join_orders_customer
    sf = "/root/testdata/sf0.001"
    a = join_orders_customer(sf, force_cogroup=False)
    b = join_orders_customer(sf, force_cogroup=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_broadcast_left_join_rows(ray_session):
    """Row-level equivalence of the two join paths, including unmatched
    (null) big rows and huge int64 keys that pandas float64 would
    corrupt (the cogroup resolution must stay in Arrow)."""
    import ray.data as rd
    from jesterj_ray.pipelines.relational import broadcast_left_join
    huge = (1 << 60) + 3
    big = pa.table({"k": pa.array([1, 2, 3, huge, 5], pa.int64()),
                    "payload": pa.array([10., 20., 30., 40., 50.])})
    small = pa.table({"sk": pa.array([2, huge, 7], pa.int64()),
                      "tag": pa.array(["b", "h", "x"], pa.string())})
    outs = {}
    for force in (False, True):
        ds = rd.from_arrow(big).repartition(3)
        j = broadcast_left_join(ds, small, "k", "sk", ["tag"],
                                force_cogroup=force).to_pandas()
        outs[force] = j.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(outs[False], outs[True])
    got = dict(zip(outs[True]["k"], outs[True]["tag"]))
    assert got[2] == "b" and got[huge] == "h"
    assert got[1] is None and got[3] is None and got[5] is None
    assert outs[True]["k"].dtype == np.int64


def test_redact_pii_chain_semantics():
    """Rule order is load-bearing: a URL-embedded email redacts as part
    of the URL (and counts as URL only); IPs never count as phones."""
    from jesterj_ray.stages.redact import redact_pii
    t = pa.table({"text": pa.array([
        "mail a.b+c@x-y.org now",
        "see https://h.example/p?e=z@q.io trailing",
        "ip 192.168.0.1 phone 555-123-4567",
        "no pii at all", ""], pa.string())})
    out = redact_pii(t, field="text")
    got = out["text_redacted"].to_pylist()
    assert got[0] == "mail <EMAIL> now"
    assert got[1] == "see <URL> trailing"
    assert got[2] == "ip <IP> phone <PHONE>"
    assert got[3] == "no pii at all" and got[4] == ""
    assert out["n_email"].to_pylist() == [1, 0, 0, 0, 0]
    assert out["n_url"].to_pylist() == [0, 1, 0, 0, 0]
    assert out["n_ip"].to_pylist() == [0, 0, 1, 0, 0]
    assert out["n_phone"].to_pylist() == [0, 0, 1, 0, 0]


def test_markdown_to_text_constructs():
    from jesterj_ray.stages.markdown import markdown_to_text
    md = ("## Head\n> quote\n**bold** *it* _u_ `c`\n"
          "[txt](http://u) ![alt](i.png)\n```\ndrop me\n```\n"
          "- a\n+ b\n3. c\n---\ntail")
    t = pa.table({"x": pa.array([md, "", "plain"], pa.string())})
    out = markdown_to_text(t, field="x")
    assert out["text_md"].to_pylist() == [
        "Head quote bold it u c txt alt a b c tail", "", "plain"]


def test_html_sanitize_tika_parity():
    """TikaProcessor.java:90-100 — letters survive, EVERYTHING else
    (digits included) becomes underscore."""
    from jesterj_ray.stages.html import sanitize_field
    assert sanitize_field("dc:creator") == "dc_creator"
    assert sanitize_field("og:image2") == "og_image_"
    assert sanitize_field("X-Parsed-By") == "X_Parsed_By"
    assert sanitize_field("") == ""


def test_html_extract_semantics():
    from jesterj_ray.stages.html import extract_html
    html = (b'<html><head><title>T &amp; U</title>'
            b'<meta name="a:b" content="v1"/>'
            b'<meta http-equiv="C-D" content="v2">'
            b'<style>p { x: 1 }</style></head>'
            b'<body><!-- no --><p>one <b>two</b>\nthree</p>'
            b'<script>var s = "</p>" + (1 < 2);</script>'
            b'<div>four &lt;five&gt;</div></body></html>')
    text, title, metas = extract_html(html)
    assert text == "one two three four <five>"   # no head/script leak
    assert title == "T & U"
    assert metas == {"a:b": "v1", "C-D": "v2"}
    assert extract_html("") == ("", None, {})
    assert extract_html(None) == ("", None, {})


def test_html_extractor_stage_options():
    from jesterj_ray.stages.html import HtmlExtractor
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "raw_html": pa.array(
            ["<html><head><title>A</title>"
             '<meta name="k:1" content="m"/></head>'
             "<body>hello world</body></html>",
             "<body>plain</body>"], pa.string())})
    ex = HtmlExtractor(meta_fields=["k:1"], suffix="_t", max_chars=8,
                       replace_raw=True)
    out = ex(t)
    assert out.column_names == ["doc_id", "content", "title_t", "k___t",
                                "raw_html"]
    assert out["content"].to_pylist() == ["hello wo", "plain"]
    assert out["title_t"].to_pylist() == ["A", None]
    assert out["k___t"].to_pylist() == ["m", None]
    assert out["raw_html"].to_pylist() == out["content"].to_pylist()
    with pytest.raises(ValueError, match="colliding"):
        HtmlExtractor(meta_fields=["a:b", "a-b"])


def test_family_delta_preflight_aborts_before_any_epoch(ray_session,
                                                        tmp_path):
    """ADVICE #4: a family whose bookkeeping already diverged must abort
    BEFORE any field mutates — every field's epoch.json and stats.json
    stay byte-identical, so serving never hits the refuse-to-open cliff
    mid-family."""
    from jesterj_ray.index.build_rows import build_index_rows, delta_reindex
    from jesterj_ray.index.bm25f import delta_reindex_fields

    rng = np.random.default_rng(5)
    vocab = ["alpha", "beta", "gamma", "omega"] + \
        [f"w{i}" for i in range(30)]
    n = 120
    titles = [" ".join(rng.choice(vocab, size=3)) for _ in range(n)]
    bodies = [" ".join(rng.choice(vocab, size=12)) for _ in range(n)]
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "title": titles, "body": bodies,
        "text": [f"{t} {b}" for t, b in zip(titles, bodies)]})
    src = str(tmp_path / "fam.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=64)
    dirs = {f: str(tmp_path / f"idx_{f}") for f in ("title", "body")}
    for f, d in dirs.items():
        build_index_rows(src, d, text_col=f, key_col="doc_id",
                         tokenizer="simple", docs_per_partition=64,
                         num_shards=4, change_col="text")

    # diverge: delta ONE field alone through the single-index API
    df.loc[3, "body"] = df.loc[3, "body"] + " solobody"
    df.loc[3, "text"] = f"{df.loc[3, 'title']} {df.loc[3, 'body']}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=64)
    delta_reindex(src, dirs["body"], text_col="body", key_col="doc_id",
                  tokenizer="simple", docs_per_partition=64,
                  num_shards=4, change_col="text")

    def snap(d):
        out = {}
        for name in ("epoch.json", "stats.json", "tombstones.json"):
            p = os.path.join(d, name)
            out[name] = open(p, "rb").read() if os.path.exists(p) else None
        return out

    before = {f: snap(d) for f, d in dirs.items()}
    with pytest.raises(RuntimeError, match="BEFORE the delta"):
        delta_reindex_fields(src, dirs, change_col="text",
                             key_col="doc_id", tokenizer="simple",
                             docs_per_partition=64, num_shards=4)
    assert {f: snap(d) for f, d in dirs.items()} == before


def test_langid_vector_parity_special_casing():
    """r05 self-review fix: Arrow utf8_lower's SIMPLE mapping sends
    'İN' (U+0130) to marker 'in'; Python full casing does not.  The
    vectorized path must match the scalar str.lower reference."""
    from jesterj_ray.stages.textstats import LangId
    texts = ["İN İN İN the", "le İN et la de un est"]
    st = LangId()
    out = st(pa.table({"text": pa.array(texts, pa.string())}))
    got = list(zip(out["lang_pred"].to_pylist(),
                   out["lang_score"].to_pylist()))
    want = [st.score_one(t) for t in texts]
    assert got == want


def test_heavy_hitters_huge_int64_with_nulls(ray_session):
    """r05 self-review fix: int64 + nulls must not degrade to float64
    (values >= 2^53 would corrupt)."""
    import ray.data as rd
    from jesterj_ray.stages.sketch import heavy_hitters
    big = (1 << 60) + 3
    vals = [big] * 400 + [None] * 300 + [7] * 50
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    out = heavy_hitters(ds.repartition(3), "v", k=32, phi=0.05)
    got = {None if pd.isna(v) else int(v) for v in out["value"]}
    assert big in got          # exact, not 1152921504606846976.0
    assert None in got


def test_heavy_hitters_native_tie_order(ray_session):
    """r05 self-review fix: count-tied values order NATIVELY in the
    output (stringified order would emit [10, 100, 9])."""
    import ray.data as rd
    from jesterj_ray.stages.sketch import heavy_hitters
    vals = [9] * 5 + [10] * 5 + [100] * 5
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    out = heavy_hitters(ds, "v", k=32, phi=0.1)
    assert [int(v) for v in out["value"]] == [9, 10, 100]


def test_broadcast_join_value_col_collision(ray_session):
    import ray.data as rd
    from jesterj_ray.pipelines.relational import broadcast_left_join
    big = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                  "tag": pa.array(["a", "b"])}))
    small = pa.table({"k": pa.array([1], pa.int64()),
                      "tag": pa.array(["x"])})
    with pytest.raises(ValueError, match="collide"):
        broadcast_left_join(big, small, "k", "k", ["tag"])


def test_function_boost_reorders_and_matches_exhaustive(ray_session,
                                                        tmp_path):
    """r05: Solr function-query boost. match_scores must agree with
    exhaustive topk at k=corpus, and the n_chars factor must genuinely
    REORDER at least one query's top-k (otherwise the oracle row would
    be vacuously equal to bm25_topk's)."""
    sf = "/root/testdata/sf0.001"
    from jesterj_ray.pipelines.flagship import (
        bm25_function_boost_documents, bm25_topk_documents,
        documents_index)
    from jesterj_ray.index.query import IndexReader

    reader = IndexReader(documents_index(sf))
    docs, scores = reader.match_scores("merge sort")
    hits = dict(reader.topk("merge sort", k=len(docs)))
    assert len(hits) == len(docs)
    for d, s in zip(docs, scores):
        assert abs(hits[int(d)] - float(s)) < 1e-12

    plain = bm25_topk_documents(sf)
    boosted = bm25_function_boost_documents(sf)
    assert set(boosted["qid"]) == set(plain["qid"])  # qid4 empty in both
    changed = False
    for qid in set(plain["qid"]):
        p = plain[plain.qid == qid].doc_id.tolist()
        b = boosted[boosted.qid == qid].doc_id.tolist()
        if p != b:
            changed = True
    assert changed, "factor never reordered any query - vacuous fixture"
    # boosted score == plain bm25 * (1 + ln(1 + n_chars/1000)): check
    # every qid-1 row exactly against a recomputation from match_scores
    import pyarrow.parquet as _pq
    t = _pq.read_table(f"{sf}/documents.parquet",
                       columns=["doc_id", "n_chars"]).to_pandas()
    nmap = dict(zip(t.doc_id, t.n_chars))
    docs1, scores1 = reader.match_scores("merge sort")
    keys1 = np.array([int(k) for k in reader.doc_keys(docs1)])
    smap = dict(zip(keys1.tolist(), scores1.tolist()))
    for _, row in boosted[boosted.qid == 1].iterrows():
        exp = smap[int(row.doc_id)] * \
            (1.0 + np.log(1.0 + nmap[int(row.doc_id)] / 1000.0))
        assert abs(round(exp, 6) - row.score) < 1e-9


def test_mm_semantics_bracket_or_and(ray_session):
    """r05: topk_mm — mm=1 == plain OR; mm >= n_terms == AND (terms all
    present); mm=2 on a 3-term query sits strictly between; single-term
    queries clamp (Solr behavior)."""
    sf = "/root/testdata/sf0.001"
    from jesterj_ray.pipelines.flagship import documents_index
    from jesterj_ray.index.query import IndexReader
    r = IndexReader(documents_index(sf))
    q = "window filter stream"
    k = 10_000
    or_ = r.topk(q, k)
    and_ = r.topk_and(q, k)
    mm1 = r.topk_mm(q, k, mm=1)
    mm2 = r.topk_mm(q, k, mm=2)
    mm3 = r.topk_mm(q, k, mm=3)
    assert mm1 == or_
    assert mm3 == and_
    n_or, n_2, n_and = len(or_), len(mm2), len(and_)
    assert n_and < n_2 < n_or, (n_and, n_2, n_or)
    # mm2 docs are exactly the or_ docs minus single-term matches;
    # surviving scores identical to OR scores
    or_map = dict(or_)
    for d, s in mm2:
        assert abs(or_map[d] - s) < 1e-12
    # clamp: single-term query with mm=2 behaves as plain OR
    assert r.topk_mm("customer", 10, mm=2) == r.topk("customer", 10)


def test_filter_query_discriminates(ray_session):
    """r05: fq restricts but never rescopes scores; the n_chars >= 300
    threshold must actually drop some top docs (non-vacuous)."""
    sf = "/root/testdata/sf0.001"
    from jesterj_ray.pipelines.flagship import (
        bm25_filter_query_documents, bm25_topk_documents)
    import pyarrow.parquet as _pq
    plain = bm25_topk_documents(sf)
    fq = bm25_filter_query_documents(sf)
    t = _pq.read_table(f"{sf}/documents.parquet",
                       columns=["doc_id", "n_chars"]).to_pandas()
    nmap = dict(zip(t.doc_id, t.n_chars))
    assert (fq.doc_id.map(nmap) >= 300).all()
    assert sorted(fq.doc_id.tolist()) != sorted(plain.doc_id.tolist())
    # scores of surviving docs unchanged vs plain BM25
    pmap = {(r.qid, r.doc_id): r.score for r in plain.itertuples()}
    hits = 0
    for r in fq.itertuples():
        if (r.qid, r.doc_id) in pmap:
            assert abs(pmap[(r.qid, r.doc_id)] - r.score) < 1e-9
            hits += 1
    assert hits > 0


def test_tfidf_keywords_semantics(ray_session):
    """tfidf_keywords: score = tf*ln(N/df) rounded 6dp BEFORE ranking
    (ties term-asc), per-doc top-k, block-count independent, and a
    hand-check against a brute-force pandas recompute at sf0.001."""
    from jesterj_ray.pipelines.relational import tfidf_keywords
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    sf = "/root/testdata/sf0.001"
    out = tfidf_keywords(sf, k=5)
    assert list(out.columns) == ["doc_id", "term", "tf", "score"]
    # brute-force oracle over the same table
    docs = pq.read_table(os.path.join(sf, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    n = len(docs)
    rows = []
    df_cnt: dict = {}
    per_doc = {}
    for did, txt in zip(docs["doc_id"], docs["text"]):
        toks = simple_tokenize(txt or "")
        cnt: dict = {}
        for t in toks:
            cnt[t] = cnt.get(t, 0) + 1
        per_doc[did] = cnt
        for t in cnt:
            df_cnt[t] = df_cnt.get(t, 0) + 1
    for did, cnt in per_doc.items():
        scored = sorted(
            ((np.floor(tf * np.log(n / df_cnt[t]) * 1e6 + 0.5) / 1e6, t,
              tf) for t, tf in cnt.items()),
            key=lambda x: (-x[0], x[1]))[:5]
        for s, t, tf in scored:
            rows.append((did, t, tf, s))
    exp = pd.DataFrame(rows, columns=["doc_id", "term", "tf", "score"])
    exp = exp.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, exp)
    # every doc with any token contributes at most k rows
    assert out.groupby("doc_id").size().max() <= 5


def test_block_join_parent_semantics(ray_session, tmp_path):
    """Block-join: max-mode parent score equals the best child BM25 hit
    recomputed brute-force over the synthesized 8-token children;
    sum >= max per parent; ranks contiguous; bad score_mode raises."""
    from jesterj_ray.pipelines.flagship import (
        block_join_parent_topk, CHILD_TOKENS)
    from jesterj_ray.index.bm25 import BruteForceIndex
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    sf = "/root/testdata/sf0.001"
    mx = block_join_parent_topk(sf, score_mode="max")
    sm = block_join_parent_topk(sf, score_mode="sum")
    assert list(mx.columns) == ["qid", "rank", "doc_id", "score",
                                "n_child_hits"]
    for df in (mx, sm):
        for _, g in df.groupby("qid"):
            assert list(g["rank"]) == list(range(1, len(g) + 1))
    # same match sets, and per (qid, parent) sum >= max
    j = mx.merge(sm, on=["qid", "doc_id"], suffixes=("_mx", "_sm"))
    assert (j["n_child_hits_mx"] == j["n_child_hits_sm"]).all()
    assert (j["score_sm"] >= j["score_mx"] - 1e-9).all()
    # brute-force cross-check of max mode
    docs = pq.read_table(os.path.join(sf, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    ckeys, ctexts = [], []
    for did, txt in zip(docs["doc_id"], docs["text"]):
        toks = simple_tokenize(txt or "")
        for p in range(0, len(toks), CHILD_TOKENS):
            ckeys.append((int(did), p // CHILD_TOKENS))
            ctexts.append(" ".join(toks[p:p + CHILD_TOKENS]))
    bf = BruteForceIndex(range(len(ctexts)), ctexts, simple_tokenize)
    for qid, query, k in [(1, "merge sort", 10), (6, "dup stream", 10)]:
        per_parent: dict = {}
        hits: dict = {}
        for ci, s in bf.score_all(query).items():
            p = ckeys[ci][0]
            per_parent[p] = max(per_parent.get(p, -1e18), s)
            hits[p] = hits.get(p, 0) + 1
        exp = sorted(((-s, p) for p, s in per_parent.items()))[:k]
        got = mx[mx["qid"] == qid]
        assert list(got["doc_id"]) == [p for _, p in exp]
        for (_, p), (_, row) in zip(exp, got.iterrows()):
            assert abs(per_parent[p] - row["score"]) < 1e-5
            assert hits[p] == row["n_child_hits"]
    with pytest.raises(ValueError):
        block_join_parent_topk(sf, "avg")


def test_kmeans_block_count_independence(ray_session):
    """Lloyd's partial-sum reduce must be parallelism-invariant: the
    assignment table is identical at 4 vs 32 blocks (the docID rule
    applied to clustering)."""
    from jesterj_ray.stages.clustering import kmeans_embeddings
    sf = "/root/testdata/sf0.001"
    a = kmeans_embeddings(sf, k=4, iters=3, num_blocks=4)
    b = kmeans_embeddings(sf, k=4, iters=3, num_blocks=32)
    pd.testing.assert_frame_equal(a, b)
    assert set(a.columns) == {"vec_id", "cluster", "sim"}
    assert a["cluster"].nunique() <= 4 and len(a) > 0


def test_semdedup_drop_rule(ray_session):
    """Every dropped vector has an EARLIER same-cluster mate with
    cosine >= tau; every survivor has none (brute-force recheck)."""
    from jesterj_ray.stages.clustering import (kmeans_embeddings,
                                               semdedup, _normalize)
    sf = "/root/testdata/sf0.001"
    tau = 0.35
    km = kmeans_embeddings(sf, k=4, iters=3)
    sd = semdedup(sf, k=4, iters=3, tau=tau)
    emb = pq.read_table(os.path.join(sf, "embeddings.parquet")) \
        .to_pandas().sort_values("vec_id")
    vecs = _normalize(np.asarray(emb["embedding"].tolist(),
                                 dtype=np.float64))
    cl = km.set_index("vec_id")["cluster"]
    dropped = set(sd["vec_id"])
    for vid in emb["vec_id"]:
        mates = [u for u in emb["vec_id"]
                 if u < vid and cl[u] == cl[vid]]
        mx = max((vecs[u] @ vecs[vid] for u in mates), default=-2.0)
        assert (vid in dropped) == (mx >= tau), vid
        if vid in dropped:
            row = sd[sd["vec_id"] == vid].iloc[0]
            assert abs(row["max_cos"] - mx) < 1e-6
            assert row["cluster"] == cl[vid]


def test_hybrid_rrf_fusion_semantics(ray_session):
    """RRF output must equal a brute-force recompute: both lists ranked
    on rounded score with id ties, cut at depth, fused 1/(c+r)."""
    from jesterj_ray.pipelines.flagship import (hybrid_rrf_topk,
                                                HYBRID_QUERIES, RRF_C,
                                                RRF_DEPTH)
    from jesterj_ray.index.bm25 import BruteForceIndex
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    from jesterj_ray.stages.clustering import _normalize
    sf = "/root/testdata/sf0.001"
    out = hybrid_rrf_topk(sf, k=10)
    docs = pq.read_table(os.path.join(sf, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    emb = pq.read_table(os.path.join(sf, "embeddings.parquet")) \
        .to_pandas().sort_values("vec_id")
    vecs = _normalize(np.asarray(emb["embedding"].tolist(),
                                 dtype=np.float64))
    vids = emb["vec_id"].to_numpy()
    bf = BruteForceIndex(docs["doc_id"], docs["text"], simple_tokenize)

    def rounded_ranks(ids, scores):
        r6 = np.floor(np.asarray(scores) * 1e6 + 0.5) / 1e6
        order = np.lexsort((ids, -r6))
        return {int(ids[i]): r + 1 for r, i in enumerate(order)}

    for q in HYBRID_QUERIES:
        sc = bf.score_all(q["query"])
        br = rounded_ranks(np.array(list(sc)), np.array(list(sc.values())))
        qv = vecs[np.flatnonzero(vids == q["qvec"])[0]]
        kr = rounded_ranks(vids, vecs @ qv)
        fused = {}
        for d, r in br.items():
            if r <= RRF_DEPTH:
                fused[d] = fused.get(d, 0.0) + 1.0 / (RRF_C + r)
        for d, r in kr.items():
            if r <= RRF_DEPTH:
                fused[d] = fused.get(d, 0.0) + 1.0 / (RRF_C + r)
        exp = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        got = out[out["qid"] == q["qid"]]
        assert list(got["doc_id"]) == [d for d, _ in exp]
        for (d, w), (_, row) in zip(exp, got.iterrows()):
            assert row["rrf"] == np.floor(w * 1e6 + 0.5) / 1e6


def test_q5_num_groups_independence(ray_session):
    """Q5's cogroup fact join must give the same answer at any group
    count, and match a direct pandas recompute."""
    from jesterj_ray.pipelines.relational import (
        q5_local_supplier_volume, Q5_REGION, Q5_LO, Q5_HI)
    sf = "/root/testdata/sf0.001"
    a = q5_local_supplier_volume(sf, num_groups=4)
    b = q5_local_supplier_volume(sf, num_groups=64)
    pd.testing.assert_frame_equal(a, b)
    # brute-force recompute
    rd_ = lambda n, cols=None: pq.read_table(
        os.path.join(sf, n + ".parquet"), columns=cols).to_pandas()
    nation, region = rd_("nation"), rd_("region")
    nk = nation.merge(region, left_on="n_regionkey",
                      right_on="r_regionkey")
    nk = nk[nk["r_name"] == Q5_REGION]
    cust = rd_("customer", ["c_custkey", "c_nationkey"])
    supp = rd_("supplier", ["s_suppkey", "s_nationkey"])
    orders = rd_("orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders[(orders["o_orderdate"] >= pd.Timestamp(str(Q5_LO)))
                    & (orders["o_orderdate"] < pd.Timestamp(str(Q5_HI)))]
    li = rd_("lineitem", ["l_orderkey", "l_suppkey",
                          "l_extendedprice", "l_discount"])
    j = li.merge(orders, left_on="l_orderkey", right_on="o_orderkey") \
        .merge(cust, left_on="o_custkey", right_on="c_custkey") \
        .merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    j = j[(j["c_nationkey"] == j["s_nationkey"])
          & j["s_nationkey"].isin(nk["n_nationkey"])]
    j["rev"] = j["l_extendedprice"] * (1 - j["l_discount"])
    exp = j.groupby("s_nationkey")["rev"].sum().round(2)
    got = a.merge(nk[["n_nationkey", "n_name"]], on="n_name")
    assert len(got) == len(exp)
    for _, r in got.iterrows():
        assert abs(r["revenue"] - exp[r["n_nationkey"]]) < 0.02


def test_group_quantiles_exact_selection(ray_session):
    """group_quantiles must equal direct ceil(q*n)-1 selection on
    adversarial data (negatives, duplicates, singleton groups), at any
    bucket_bits and block split."""
    import math
    from jesterj_ray.stages.quantiles import group_quantiles
    rng = np.random.RandomState(7)
    g = np.repeat(["a", "b", "c", "d"], [997, 100, 3, 1])
    v = np.concatenate([rng.randn(997) * 100,
                        np.repeat(-5.25, 100),        # constant group
                        [0.1, -0.1, 0.0], [42.0]])
    t = pa.table({"g": pa.array(g), "v": pa.array(v, pa.float64())})
    qs = (0.01, 0.25, 0.5, 0.9, 0.99, 1.0)
    outs = []
    for bits, nb in ((16, 4), (6, 4), (16, 32)):
        ds = rd.from_arrow(t).repartition(nb)
        outs.append(group_quantiles(ds, "g", "v", qs,
                                    bucket_bits=bits))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[0], outs[2])
    out = outs[0].set_index(["group", "q"])["value"]
    for grp in "abcd":
        sv = np.sort(v[g == grp])
        for q in qs:
            idx = max(0, math.ceil(q * sv.size) - 1)
            assert out[(grp, q)] == sv[idx], (grp, q)


def test_dsir_scores_properties(ray_session):
    """DSIR: block-count independent, covers exactly the docs with
    >= 2 tokens, and discriminates — target-language docs average a
    higher importance score than the rest (the method's whole point)."""
    from jesterj_ray.stages.dsir import dsir_scores
    sf = "/root/testdata/sf0.001"
    a = dsir_scores(sf, num_blocks=4)
    b = dsir_scores(sf, num_blocks=32)
    pd.testing.assert_frame_equal(a, b)
    docs = pq.read_table(os.path.join(sf, "documents.parquet"),
                         columns=["doc_id", "lang", "text"]).to_pandas()
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    want = {int(d) for d, t in zip(docs["doc_id"], docs["text"])
            if len(simple_tokenize(t or "")) >= 2}
    assert set(a["doc_id"]) == want
    m = a.merge(docs[["doc_id", "lang"]], on="doc_id")
    t_mean = m.loc[m["lang"] == "en", "score"].mean()
    r_mean = m.loc[m["lang"] != "en", "score"].mean()
    assert t_mean > r_mean


def test_wildcard_term_expansion(ray_session):
    """terms_matching: * and ? translate to LIKE semantics over the
    dictionary; leading-* scans; expansion is sorted and capped."""
    from jesterj_ray.pipelines.flagship import documents_index
    from jesterj_ray.index.query import IndexReader
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    sf = "/root/testdata/sf0.001"
    reader = IndexReader(documents_index(sf))
    docs = pq.read_table(os.path.join(sf, "documents.parquet"),
                         columns=["text"]).to_pandas()
    vocab = sorted({t for x in docs["text"]
                    for t in simple_tokenize(x or "")})
    import fnmatch
    for pat in ("m*ge", "s?ream", "*er", "*zzz*", "a*"):
        exp = sorted(t for t in vocab if fnmatch.fnmatchcase(t, pat))[:50]
        assert reader.terms_matching(pat, 50) == exp, pat
    assert len(reader.terms_matching("*", 10)) == 10  # cap applies


def test_jl_projection_properties(ray_session):
    """JL sign projection: deterministic sign matrix, power-of-two
    guard, block-count independence, and the JL property — projected
    pairwise distances correlate strongly with the originals."""
    from jesterj_ray.ann.projection import jl_project, sign_matrix
    s = sign_matrix(64, 16)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert np.array_equal(s, sign_matrix(64, 16))
    with pytest.raises(ValueError, match="power of two"):
        jl_project("/root/testdata/sf0.001", d_out=12)
    sf = "/root/testdata/sf0.001"
    a = jl_project(sf, num_blocks=4)
    b = jl_project(sf, num_blocks=32)
    pd.testing.assert_frame_equal(a, b)
    emb = pq.read_table(os.path.join(sf, "embeddings.parquet")) \
        .to_pandas().sort_values("vec_id")
    x = np.asarray(emb["embedding"].tolist(), dtype=np.float64)
    p = a.pivot(index="vec_id", columns="j", values="value") \
        .loc[emb["vec_id"]].to_numpy()
    # E[||Sx/sqrt(d)||^2] = ||x||^2 (the JL expectation); per-vector
    # deviation at d_out=16 is large, but the corpus mean concentrates
    n0 = (x ** 2).sum(axis=1)
    n1 = (p ** 2).sum(axis=1)
    assert 0.85 < n1.mean() / n0.mean() < 1.15
    # per-vector variance at d_out=16 is large (these embeddings are
    # structured, not isotropic) — only the aggregate is pinned


def test_events_rollup_levels(ray_session):
    """ROLLUP levels must be internally consistent: fine rows sum to
    the per-type rows, which sum to the grand total."""
    from jesterj_ray.pipelines.relational import events_rollup
    out = events_rollup("/root/testdata/sf0.001")
    fine = out[out["day"].notna()]
    per_type = out[out["day"].isna() & out["event_type"].notna()]
    total = out[out["event_type"].isna()]
    assert len(total) == 1
    assert int(total["n"].iloc[0]) == int(fine["n"].sum())
    for _, r in per_type.iterrows():
        f = fine[fine["event_type"] == r["event_type"]]
        assert int(r["n"]) == int(f["n"].sum())
        assert abs(r["sum_value"] - f["sum_value"].sum()) < 0.01


def test_funnel_greedy_window_semantics(ray_session, tmp_path):
    """Hand-built sequences pin the funnel rules: strict after,
    conversion window, greedy FIRST match (a later click that would
    fit the window cannot resurrect an expired funnel), dead users
    stay dead, never-entered users absent."""
    from jesterj_ray.pipelines.relational import funnel_stages
    H = 3_600_000_000  # us per hour
    base = np.datetime64("2020-01-01T00:00:00", "us").astype(np.int64)
    rows = []  # (user, ts_hours, type)

    def add(u, h, t):
        rows.append((u, base + h * H, t))
    add(1, 0, "view"); add(1, 1, "click"); add(1, 2, "purchase")  # 3
    add(2, 0, "view"); add(2, 30, "click")       # click outside 24h -> 1
    add(3, 0, "view"); add(3, 1, "click"); add(3, 40, "purchase")  # 2
    # greedy: FIRST click at +1h anchors; purchase at +26h is outside
    # ITS window even though a second click at +20h would fit
    add(4, 0, "view"); add(4, 1, "click"); add(4, 20, "click")
    add(4, 26, "purchase")                                         # 2
    add(5, 0, "click"); add(5, 1, "purchase")    # no view -> absent
    add(6, 0, "view"); add(6, 0, "click")        # same ts: not after -> 1
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_id": pa.array(list(range(len(rows))), pa.int64()),
        "ts": pa.array(np.array([r[1] for r in rows],
                                dtype="datetime64[us]")),
        "event_type": pa.array([r[2] for r in rows], pa.string())})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = funnel_stages(str(tmp_path), num_groups=4)
    got = dict(zip(out["stage"], out["n_users"]))
    assert got == {1: 2, 2: 2, 3: 1}


def test_ann_recall_report(ray_session):
    """Recall floors per ANN tier at sf0.001 (8 queries, k=10): HNSW
    near-exact, IVF nprobe=2 substantial, multiprobe beats single
    probe, counts consistent."""
    from jesterj_ray.ann.recall import ann_recall_report
    out = ann_recall_report("/root/testdata/sf0.001")
    r = out.set_index("method")["recall"]
    assert r["hnsw"] >= 0.9
    assert r["ivf_nprobe2"] >= 0.3
    assert r["lsh_mp2"] >= r["lsh_mp1"]
    assert (out["hits"] <= out["total"]).all()
    assert (out["recall"] * out["total"] - out["hits"]).abs().max() < 1e-3


def test_partitioned_sink_resume(ray_session, tmp_path):
    """Kill one partition's write (injected), resume: completed
    partitions skip (files untouched by mtime), the failed one
    completes, and the directory equals a one-shot write."""
    from jesterj_ray.stages.sink import write_partitioned_parquet
    t = pa.table({"k": pa.array(list(range(1000, 1500)), pa.int64()),
                  "v": pa.array([f"v{i}" for i in range(500)])})
    one_shot = str(tmp_path / "oneshot")
    write_partitioned_parquet(rd.from_arrow(t).repartition(8),
                              one_shot, key_col="k", rows_per_part=100)
    out = str(tmp_path / "resumed")
    with pytest.raises(Exception):
        write_partitioned_parquet(rd.from_arrow(t).repartition(8), out,
                                  key_col="k", rows_per_part=100,
                                  fail_pids=[2])
    import glob
    done_before = {f: os.path.getmtime(f) for f in
                   glob.glob(os.path.join(out, "part-*.parquet"))}
    assert 0 < len(done_before) < 5          # some parts landed, not all
    st = write_partitioned_parquet(rd.from_arrow(t).repartition(8), out,
                                   key_col="k", rows_per_part=100)
    assert st["n_parts"] == 5 and st["skipped"] == len(done_before)
    for f, m in done_before.items():
        assert os.path.getmtime(f) == m      # resume never rewrote them
    def read_parts(d):
        fs = sorted(glob.glob(os.path.join(d, "part-*.parquet")))
        return pa.concat_tables([pq.read_table(f) for f in fs]) \
            .to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(read_parts(one_shot), read_parts(out))
    # per-file contents identical too (layout is input-derived)
    for f in glob.glob(os.path.join(one_shot, "part-*.parquet")):
        g = os.path.join(out, os.path.basename(f))
        pd.testing.assert_frame_equal(pq.read_table(f).to_pandas(),
                                      pq.read_table(g).to_pandas())


def test_dsir_empty_first_doc_in_block(ray_session, tmp_path):
    """Self-review: a block whose FIRST doc has zero tokens used to
    wrap keep[-1] and desync lens vs buckets (IndexError); bigram
    seams must also never cross an empty doc."""
    from jesterj_ray.stages.dsir import dsir_scores
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "lang": pa.array(["en"] * 4, pa.string()),
        "text": pa.array(["", "a b c", "...", "x y"], pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    # num_blocks > rows forces single-doc blocks, several empty-led
    out = dsir_scores(str(tmp_path), num_blocks=8)
    assert set(out["doc_id"]) == {1, 3}   # docs with >= 1 bigram
    out2 = dsir_scores(str(tmp_path), num_blocks=1)
    pd.testing.assert_frame_equal(out, out2)


def test_sink_preserves_int64_with_nulls(ray_session, tmp_path):
    """Self-review: the sink resolves groups in ARROW — an int64
    column with nulls and ids >= 2^53 must round-trip exactly."""
    from jesterj_ray.stages.sink import (read_partitioned,
                                         write_partitioned_parquet)
    big = (1 << 53) + 1
    t = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                  "v": pa.array([big, None, big + 2, None], pa.int64())})
    out = str(tmp_path / "o")
    write_partitioned_parquet(rd.from_arrow(t).repartition(2), out,
                              key_col="k", rows_per_part=2)
    sch = read_partitioned(out).schema()
    assert dict(zip(sch.names, sch.types))["v"] == pa.int64()
    got = pq.read_table(os.path.join(out, "part-00000.parquet"))
    assert got["v"].type == pa.int64()
    assert got["v"][0].as_py() == big      # not 2^53-corrupted
    assert got["v"][1].as_py() is None     # null survives too


def test_group_quantiles_empty_input(ray_session):
    """Self-review: fully empty input returns an empty typed frame."""
    from jesterj_ray.stages.quantiles import group_quantiles
    t = pa.table({"g": pa.array([], pa.string()),
                  "v": pa.array([], pa.float64())})
    out = group_quantiles(rd.from_arrow(t), "g", "v", (0.5,))
    assert list(out.columns) == ["group", "q", "value"] and len(out) == 0


def test_count_min_sketch_properties(ray_session):
    """CM sketch: never underestimates, block-split independent,
    within the e/w * N bound for all queried values."""
    from jesterj_ray.stages.sketch import cm_count_column, cm_query, cm_rows
    rng = np.random.RandomState(3)
    vals = [f"v{int(x)}" for x in rng.zipf(1.5, 5000) % 300]
    true = pd.Series(vals).value_counts()
    qs = list(true.index[:20]) + ["absent1", "absent2"]
    t = pa.table({"c": pa.array(vals, pa.string())})
    outs = []
    for nb in (2, 16):
        ds = rd.from_arrow(t).repartition(nb)
        outs.append(cm_count_column(ds, "c", qs, w=512, d=4))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    est = outs[0].set_index("value")["est"]
    n = len(vals)
    for q in qs:
        tv = int(true.get(q, 0))
        assert est[q] >= tv                      # never under
        assert est[q] <= tv + np.e / 512 * n + 1  # CM bound (loose)
    # merge law: sum of partials == whole
    whole = cm_rows(vals, w=512, d=4)
    half = cm_rows(vals[:2500], w=512, d=4) + cm_rows(vals[2500:],
                                                      w=512, d=4)
    assert np.array_equal(whole, half)
    assert (cm_query(whole, qs) == est.to_numpy()).all()


def test_curation_pipeline_stages_bite(ray_session):
    """The composed curation chain is block-count independent and each
    stage actually filters: no holdout (doc_id%20==0) doc is selected,
    no duplicate text survives, every selected doc meets the quality
    floor, per-lang cumulative tokens respect the budget crossing
    rule."""
    from jesterj_ray.pipelines.curation import curation_pipeline
    from jesterj_ray.stages.textstats import quality_score
    sf = "/root/testdata/sf0.001"
    a = curation_pipeline(sf, num_blocks=4)
    b = curation_pipeline(sf, num_blocks=16)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0
    assert (a["doc_id"] % 20 != 0).all()
    docs = pq.read_table(os.path.join(sf, "documents.parquet")) \
        .to_pandas().set_index("doc_id")
    texts = docs.loc[a["doc_id"], "text"]
    assert texts.nunique() == len(texts)       # dedup held
    qt = quality_score(pa.table({"text": pa.array(texts)}),
                       field="text")
    assert (np.asarray(qt["quality"]) >= 0.05).all()
    for _, g in a.groupby("lang"):
        before = g["cum_tokens"] - g["n_tok"]
        assert (before < 2000).all()           # budget crossing rule
        assert list(g["rank"]) == list(range(1, len(g) + 1))


def test_q4_semi_join_num_groups_invariant():
    """Q4's cogroup semi-join output is independent of the partition
    count (the gkey exchange must not affect semantics) and matches a
    direct pandas EXISTS evaluation."""
    from jesterj_ray.pipelines.relational import (Q4_HI, Q4_LO,
                                                  q4_order_priority)
    sf = "/root/testdata/sf0.001"
    a = q4_order_priority(sf, num_groups=4)
    b = q4_order_priority(sf, num_groups=64)
    pd.testing.assert_frame_equal(a, b)

    li = pq.read_table(os.path.join(sf, "lineitem.parquet"),
                       columns=["l_orderkey", "l_returnflag"]).to_pandas()
    keys = set(li.loc[li["l_returnflag"] == "R", "l_orderkey"])
    od = pq.read_table(os.path.join(sf, "orders.parquet"),
                       columns=["o_orderkey", "o_orderdate",
                                "o_orderpriority"]).to_pandas()
    od = od[(od["o_orderdate"] >= pd.Timestamp(Q4_LO.item()))
            & (od["o_orderdate"] < pd.Timestamp(Q4_HI.item()))]
    od = od[od["o_orderkey"].isin(keys)]
    want = od.groupby("o_orderpriority", sort=True).size()
    got = a.set_index("o_orderpriority")["order_count"]
    assert dict(got) == dict(want)


def test_q13_zero_bucket_and_mass_conservation():
    """Q13's histogram must include the zero-order customers (the
    LEFT-OUTER complement) and its custdist column must sum to the
    customer table's row count exactly."""
    from jesterj_ray.pipelines.relational import q13_customer_distribution
    sf = "/root/testdata/sf0.001"
    h = q13_customer_distribution(sf)
    n_cust = pq.read_metadata(
        os.path.join(sf, "customer.parquet")).num_rows
    assert int(h["custdist"].sum()) == n_cust
    od = pq.read_table(os.path.join(sf, "orders.parquet"),
                       columns=["o_custkey", "o_orderstatus"]).to_pandas()
    ordering = od.loc[od["o_orderstatus"] != "F", "o_custkey"].nunique()
    zero_rows = h.loc[h["c_count"] == 0, "custdist"]
    if n_cust > ordering:
        assert int(zero_rows.iloc[0]) == n_cust - ordering
    # sorted by (custdist desc, c_count desc) — pinned output order
    key = list(zip(-h["custdist"], -h["c_count"]))
    assert key == sorted(key)


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01", "sf0.1"])
def test_q22_balances_clear_the_average_boundary(sf):
    """Q22 keeps ``c_acctbal > avg(positive balances)``, and the average
    is a float fold whose last bits depend on block order (the engine
    and DuckDB sum in different orders).  A balance within fold noise
    of the average could flip sides, so pin that no balance sits within
    1e-6 of it at any test scale factor."""
    cu = pq.read_table(os.path.join("/root/testdata", sf, "customer.parquet"),
                       columns=["c_acctbal"]).to_pandas()["c_acctbal"]
    avg_bal = cu[cu > 0].mean()
    assert (cu - avg_bal).abs().min() > 1e-6


def test_q22_anti_join_matches_direct_and_groups_invariant(ray_session):
    """Q22's cogroup anti-join must be partition-count invariant and
    equal a direct pandas NOT-IN evaluation (incl. the global avg
    subquery)."""
    from jesterj_ray.pipelines.relational import (Q22_CUTOFF,
                                                  q22_lapsed_customers)
    sf = "/root/testdata/sf0.001"
    a = q22_lapsed_customers(sf, num_groups=4)
    b = q22_lapsed_customers(sf, num_groups=64)
    pd.testing.assert_frame_equal(a, b)

    cu = pq.read_table(os.path.join(sf, "customer.parquet")).to_pandas()
    od = pq.read_table(os.path.join(sf, "orders.parquet"),
                       columns=["o_custkey", "o_orderdate"]).to_pandas()
    avg_bal = cu.loc[cu["c_acctbal"] > 0, "c_acctbal"].mean()
    active = set(od.loc[od["o_orderdate"]
                        >= pd.Timestamp(Q22_CUTOFF.item()), "o_custkey"])
    lapsed = cu[(cu["c_acctbal"] > avg_bal)
                & ~cu["c_custkey"].isin(active)]
    want = lapsed.groupby("c_mktsegment").agg(
        numcust=("c_custkey", "size"), totacctbal=("c_acctbal", "sum"))
    got = a.set_index("c_mktsegment")
    assert dict(got["numcust"]) == dict(want["numcust"])
    for seg in want.index:
        assert abs(got.loc[seg, "totacctbal"]
                   - round(want.loc[seg, "totacctbal"], 2)) < 1e-6


def test_q14_broadcast_and_cogroup_paths_identical(ray_session):
    """Q14 through the broadcast join and through the forced cogroup
    fallback must produce the identical ratio."""
    from jesterj_ray.pipelines.relational import q14_promo_revenue
    sf = "/root/testdata/sf0.001"
    a = q14_promo_revenue(sf)
    b = q14_promo_revenue(sf, force_cogroup=True)
    pd.testing.assert_frame_equal(a, b)
    assert 0.0 < a["promo_revenue"].iloc[0] < 100.0


def test_q12_join_groups_invariant_and_mass(ray_session):
    """Q12's fact-fact cogroup join: partition-count invariant, and
    hi+lo per linestatus equals the plain filtered join cardinality."""
    from jesterj_ray.pipelines.relational import (Q12_HI, Q12_LO,
                                                  q12_priority_shipping)
    sf = "/root/testdata/sf0.001"
    a = q12_priority_shipping(sf, num_groups=4)
    b = q12_priority_shipping(sf, num_groups=64)
    pd.testing.assert_frame_equal(a, b)

    li = pq.read_table(os.path.join(sf, "lineitem.parquet"),
                       columns=["l_orderkey", "l_linestatus",
                                "l_shipdate"]).to_pandas()
    li = li[(li["l_shipdate"] >= pd.Timestamp(Q12_LO.item()))
            & (li["l_shipdate"] < pd.Timestamp(Q12_HI.item()))]
    want = li.groupby("l_linestatus").size()
    got = a.set_index("l_linestatus")
    tot = got["high_line_count"] + got["low_line_count"]
    assert dict(tot) == dict(want)


def test_boost_function_reorders_and_rounds(ray_session):
    """The function boost must actually change the ranking vs plain
    BM25 for at least one query (otherwise the op is vacuous), and
    scores must be 6dp half-away rounded."""
    from jesterj_ray.index.query import IndexReader
    from jesterj_ray.pipelines.flagship import (boost_function_topk,
                                                documents_index)
    sf = "/root/testdata/sf0.001"
    out = boost_function_topk(sf)
    assert (np.floor(out["score"] * 1e6 + 0.5) / 1e6
            == out["score"]).all()
    reader = IndexReader(documents_index(sf))
    changed = False
    for qid, q in [(1, "merge sort"), (2, "customer"),
                   (3, "dup stream")]:
        plain = [d for d, _ in reader.topk(q, 10)]
        plain_keys = [int(x) for x in reader.doc_keys(
            np.asarray(plain, np.int64))]
        boosted = list(out.loc[out["qid"] == qid, "doc_id"])
        if boosted != plain_keys:
            changed = True
    assert changed


def test_facet_intervals_partition_match_set(ray_session):
    """The three n_chars intervals partition the match set exactly
    (disjoint + exhaustive), and every count is <= the match size."""
    from jesterj_ray.index.query import IndexReader
    from jesterj_ray.pipelines.flagship import (_match_doc_ids,
                                                documents_index,
                                                facet_query_intervals)
    sf = "/root/testdata/sf0.001"
    out = facet_query_intervals(sf).set_index("facet")["n"]
    reader = IndexReader(documents_index(sf))
    m = _match_doc_ids(reader, "dup stream").size
    assert (out[["chars_lt200", "chars_200to400", "chars_ge400"]]
            .sum() == m)
    assert (out <= m).all()


def test_rank_eval_bounds_and_perfect_case(ray_session):
    """NDCG/MRR are in [0,1]; a single-term query's NDCG@k is 1 when
    its top-k equals the ideal ordering prefix (all rel equal), and
    full-match MRR is 1 when rank 1 contains every term."""
    from jesterj_ray.pipelines.flagship import rank_eval_metrics
    sf = "/root/testdata/sf0.001"
    out = rank_eval_metrics(sf)
    assert len(out) == 4
    assert ((out["ndcg"] >= 0) & (out["ndcg"] <= 1)).all()
    assert ((out["mrr_full"] >= 0) & (out["mrr_full"] <= 1)).all()
    # single-term query: every matched doc has rel=1, so any top-k is
    # ideal -> ndcg == 1 and the first hit is a full match -> mrr == 1
    one = rank_eval_metrics(sf, queries=[{"qid": 9, "query": "customer"}])
    assert float(one["ndcg"].iloc[0]) == 1.0
    assert float(one["mrr_full"].iloc[0]) == 1.0
    # absent term: no match set -> no row, never a crash
    none = rank_eval_metrics(sf, queries=[{"qid": 8, "query": "zzzabsent"}])
    assert len(none) == 0


def test_percentile_ranks_exact_and_monotone(ray_session):
    """Exact inverse quantile: matches a direct numpy evaluation and
    is monotone nondecreasing in the probe."""
    from jesterj_ray.pipelines.relational import (PCT_RANK_PROBES,
                                                  percentile_ranks_events)
    sf = "/root/testdata/sf0.001"
    out = percentile_ranks_events(sf)
    v = pq.read_table(os.path.join(sf, "events.parquet"),
                      columns=["value"])["value"] \
        .to_numpy(zero_copy_only=False)
    for probe, got in zip(out["probe"], out["pct_rank"]):
        want = np.floor((v <= probe).sum() / v.size * 1e6 + 0.5) / 1e6
        assert got == want
    assert (np.diff(out["pct_rank"]) >= 0).all()


def test_composite_pages_partition_buckets(ray_session):
    """Pages partition the bucket stream: 4 buckets per page (last
    partial), contiguous page numbers, counts sum to the row count."""
    from jesterj_ray.pipelines.relational import composite_agg_pages
    sf = "/root/testdata/sf0.001"
    out = composite_agg_pages(sf)
    n_rows = pq.read_metadata(
        os.path.join(sf, "documents.parquet")).num_rows
    assert int(out["n"].sum()) == n_rows
    sizes = out.groupby("page").size()
    assert list(sizes.index) == list(range(1, len(sizes) + 1))
    assert (sizes.iloc[:-1] == 4).all() and sizes.iloc[-1] <= 4
    # after_key order inside and across pages
    keys = list(zip(out["lang"], out["source"]))
    assert keys == sorted(keys)


def test_q9_star_join_matches_direct(ray_session):
    """Q9's composed dimension-chain broadcast + exact micro-unit sum
    must equal a direct pandas evaluation with the same per-item
    rounding."""
    from jesterj_ray.pipelines.relational import q9_profit_by_nation
    sf = "/root/testdata/sf0.001"
    got = q9_profit_by_nation(sf)
    li = pq.read_table(os.path.join(sf, "lineitem.parquet"),
                       columns=["l_suppkey", "l_extendedprice",
                                "l_discount", "l_shipdate"]).to_pandas()
    su = pq.read_table(os.path.join(sf, "supplier.parquet")).to_pandas()
    na = pq.read_table(os.path.join(sf, "nation.parquet")).to_pandas()
    j = li.merge(su, left_on="l_suppkey", right_on="s_suppkey") \
        .merge(na, left_on="s_nationkey", right_on="n_nationkey")
    j["micros"] = np.floor(j["l_extendedprice"]
                           * (1 - j["l_discount"]) * 1e6
                           + 0.5).astype(np.int64)
    j["o_year"] = j["l_shipdate"].dt.year.astype(np.int64)
    want = j.groupby(["n_name", "o_year"], sort=True)["micros"].sum() \
        .reset_index()
    cents = (want["micros"].to_numpy(np.int64) + 5000) // 10000
    want["sum_profit"] = cents.astype(np.float64) / 100.0
    pd.testing.assert_frame_equal(
        got, want[["n_name", "o_year", "sum_profit"]]
        .reset_index(drop=True))


def test_q10_topk_matches_direct_and_groups_invariant(ray_session):
    """Q10: partition-count invariant; equals a direct pandas
    evaluation incl. the integer-micros revenue and (revenue desc,
    custkey) tie order."""
    from jesterj_ray.pipelines.relational import (Q10_HI, Q10_LO,
                                                  q10_returned_items)
    sf = "/root/testdata/sf0.001"
    a = q10_returned_items(sf, num_groups=4)
    b = q10_returned_items(sf, num_groups=64)
    pd.testing.assert_frame_equal(a, b)

    od = pq.read_table(os.path.join(sf, "orders.parquet")).to_pandas()
    od = od[(od["o_orderdate"] >= pd.Timestamp(Q10_LO.item()))
            & (od["o_orderdate"] < pd.Timestamp(Q10_HI.item()))]
    li = pq.read_table(os.path.join(sf, "lineitem.parquet")).to_pandas()
    li = li[li["l_returnflag"] == "R"].copy()
    li["micros"] = np.floor(li["l_extendedprice"]
                            * (1 - li["l_discount"]) * 1e6
                            + 0.5).astype(np.int64)
    j = li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
    per = j.groupby("o_custkey")["micros"].sum().reset_index()
    # rank in CENTS — the oracle's (and engine's) ORDER BY space
    per["cents"] = (per["micros"].to_numpy(np.int64) + 5000) // 10000
    per = per.sort_values(["cents", "o_custkey"],
                          ascending=[False, True],
                          kind="mergesort").head(20)
    assert list(a["c_custkey"]) == list(per["o_custkey"])
    assert list(a["revenue"]) == list(
        per["cents"].to_numpy(np.int64).astype(np.float64) / 100.0)


def test_q10_orphan_winner_is_skipped(ray_session, sf_dir, tmp_path):
    """A returns leader with no customer row never ranks: the oracle
    INNER-joins customer and nation, so it drops the orphan custkey and
    promotes the next customer.  The top winner's customer row is
    deleted from a copy of the sf0.001 tables; the engine equals the
    DuckDB oracle on that copy."""
    import shutil

    import duckdb
    import pyarrow.compute as pc
    import __ray_entry__ as entry
    from jesterj_ray.pipelines.relational import q10_returned_items
    for f in os.listdir(sf_dir):
        shutil.copy(os.path.join(sf_dir, f), tmp_path / f)
    top = int(q10_returned_items(sf_dir)["c_custkey"].iloc[0])
    cu = pq.read_table(os.path.join(sf_dir, "customer.parquet"))
    pq.write_table(cu.filter(pc.not_equal(cu["c_custkey"], top)),
                   tmp_path / "customer.parquet")
    got = q10_returned_items(str(tmp_path))
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "nation"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{tmp_path / t}.parquet')")
    want = con.sql(entry.oracle_sql()["q10_returned_items"]).df()
    assert top not in set(got["c_custkey"]) and len(got) == 20
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_index_stats_vs_corpus_and_delta_visibility(ray_session):
    """Index stats equal direct corpus recomputation; doc count is
    the BM25 invariant N (counts empty docs)."""
    from jesterj_ray.pipelines.flagship import index_stats_summary
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    sf = "/root/testdata/sf0.001"
    out = index_stats_summary(sf)
    texts = pq.read_table(os.path.join(sf, "documents.parquet"),
                          columns=["text"]).column(0).to_pylist()
    toks = [simple_tokenize(x or "") for x in texts]
    assert int(out["n_docs"].iloc[0]) == len(texts)
    assert int(out["vocab_size"].iloc[0]) \
        == len({t for d in toks for t in d})
    total = sum(len(d) for d in toks)
    assert int(out["total_tokens"].iloc[0]) == total
    assert float(out["avgdl"].iloc[0]) \
        == np.floor(total / len(texts) * 1e6 + 0.5) / 1e6


def test_value_histogram_mass_and_bounds(ray_session):
    """Histogram counts sum to the row count; bucket keys are the
    exact floor-division of the min/max range."""
    from jesterj_ray.pipelines.relational import (HIST_INTERVAL,
                                                  value_histogram_events)
    sf = "/root/testdata/sf0.001"
    out = value_histogram_events(sf)
    v = pq.read_table(os.path.join(sf, "events.parquet"),
                      columns=["value"])["value"] \
        .to_numpy(zero_copy_only=False)
    assert int(out["n"].sum()) == v.size
    assert int(out["bucket"].min()) == int(np.floor(v.min()
                                                    / HIST_INTERVAL))
    assert int(out["bucket"].max()) == int(np.floor(v.max()
                                                    / HIST_INTERVAL))


def test_cube_grouping_set_laws(ray_session):
    """CUBE mass conservation: every grouping set's counts sum to the
    table row count; the per-source set (absent from ROLLUP) exists."""
    from jesterj_ray.pipelines.relational import documents_cube
    sf = "/root/testdata/sf0.001"
    out = documents_cube(sf)
    n_rows = pq.read_metadata(
        os.path.join(sf, "documents.parquet")).num_rows
    fine = out[out["lang"].notna() & out["source"].notna()]
    by_lang = out[out["lang"].notna() & out["source"].isna()]
    by_src = out[out["lang"].isna() & out["source"].notna()]
    grand = out[out["lang"].isna() & out["source"].isna()]
    for part in (fine, by_lang, by_src, grand):
        assert int(part["n"].sum()) == n_rows
    assert len(by_src) > 0 and len(grand) == 1


def test_daily_derivative_telescopes(ray_session):
    """Derivative law: the deltas telescope — sum(delta) equals
    last-day count minus first-day count."""
    from jesterj_ray.pipelines.relational import daily_event_derivative
    sf = "/root/testdata/sf0.001"
    out = daily_event_derivative(sf)
    assert len(out) > 0
    first_n = int(out["n"].iloc[0]) - int(out["delta"].iloc[0])
    assert int(out["delta"].sum()) == int(out["n"].iloc[-1]) - first_n


def test_knn_filtered_respects_predicate(ray_session):
    """Every filtered-ANN hit carries label==1, and the result differs
    from the unfiltered top-10 (the filter bites)."""
    import __ray_entry__ as entry
    sf = "/root/testdata/sf0.001"
    filt = entry.queries()["knn_filtered_top10"](sf)
    emb = pq.read_table(os.path.join(sf, "embeddings.parquet"),
                        columns=["vec_id", "label"]).to_pandas()
    labels = dict(zip(emb["vec_id"], emb["label"]))
    assert all(labels[int(v)] == 1 for v in filt["vec_id"])
    plain = entry.queries()["knn_cosine_top10"](sf)
    assert list(filt["vec_id"]) != list(plain["vec_id"])


def test_regexp_expansion_and_rounded_ranking(ray_session):
    """terms_regexp is a FULL match (no substring hits unless the
    pattern says so); topk family ranks by rounded score then doc-id
    (monotone non-increasing rounded scores, strictly increasing
    doc_id inside a tie cluster)."""
    import re
    from jesterj_ray.index.query import IndexReader
    from jesterj_ray.pipelines.flagship import (
        bm25_regexp_topk_documents, documents_index)
    sf = "/root/testdata/sf0.001"
    reader = IndexReader(documents_index(sf))
    terms = reader.terms_regexp("cust.*")
    assert terms and all(re.fullmatch("cust.*", t) for t in terms)
    assert reader.terms_regexp("m.rge") == ["merge"]
    assert reader.terms_regexp("zzznevermatches") == []

    out = bm25_regexp_topk_documents(sf)
    for _, g in out.groupby("qid"):
        s = g["score"].to_numpy()
        assert (np.diff(s) <= 0).all()
        for sc in np.unique(s):
            cluster = g.loc[g["score"] == sc, "doc_id"].to_numpy()
            assert (np.diff(cluster) > 0).all()
    assert (out["qid"] == 4).sum() == 0  # absent-term pattern: empty


def test_adjacency_matrix_set_laws(ray_session):
    """Intersection laws: n(a&b) <= min(n(a), n(b)); singles match
    direct recomputation."""
    from jesterj_ray.pipelines.relational import \
        adjacency_matrix_documents
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    sf = "/root/testdata/sf0.001"
    out = adjacency_matrix_documents(sf).set_index("key")["n"]
    d = pq.read_table(os.path.join(sf, "documents.parquet"),
                      columns=["lang", "n_chars", "text"]).to_pandas()
    en = (d["lang"] == "en")
    short = (d["n_chars"] < 300)
    stream = d["text"].map(lambda x: "stream" in simple_tokenize(x or ""))
    assert int(out["en"]) == int(en.sum())
    assert int(out["short"]) == int(short.sum())
    assert int(out["stream"]) == int(stream.sum())
    for a, b in [("en", "short"), ("en", "stream"),
                 ("short", "stream")]:
        k = f"{a}&{b}"
        if k in out.index:
            assert out[k] <= min(out[a], out[b])
    assert int(out["en&short"]) == int((en & short).sum())


def test_rare_terms_threshold_law(ray_session):
    """rare_terms returns exactly the dictionary terms with
    200*df <= 11*N, (df, term)-ordered."""
    from jesterj_ray.index.query import IndexReader
    from jesterj_ray.pipelines.flagship import (documents_index,
                                                rare_terms_documents)
    sf = "/root/testdata/sf0.001"
    out = rare_terms_documents(sf)
    reader = IndexReader(documents_index(sf))
    n = int(reader.n_docs)
    dfs = reader.prefix_term_dfs("")
    want = sorted(((t, d) for t, d in dfs.items()
                   if 200 * d <= 11 * n), key=lambda x: (x[1], x[0]))
    assert list(zip(out["term"], out["df"])) == want
    assert len(out) >= 1  # the synthetic tail term exists


def test_q15_argmax_ties_and_direct(ray_session):
    """Q15 keeps every cents-tied max supplier and matches a direct
    evaluation."""
    from jesterj_ray.pipelines.relational import (Q15_HI, Q15_LO,
                                                  q15_top_supplier)
    sf = "/root/testdata/sf0.001"
    out = q15_top_supplier(sf)
    li = pq.read_table(os.path.join(sf, "lineitem.parquet")).to_pandas()
    li = li[(li["l_shipdate"] >= pd.Timestamp(Q15_LO.item()))
            & (li["l_shipdate"] < pd.Timestamp(Q15_HI.item()))].copy()
    li["micros"] = np.floor(li["l_extendedprice"]
                            * (1 - li["l_discount"]) * 1e6
                            + 0.5).astype(np.int64)
    per = li.groupby("l_suppkey")["micros"].sum()
    cents = (per.to_numpy(np.int64) + 5000) // 10000
    best = per.index.to_numpy()[cents == cents.max()]
    assert sorted(out["s_suppkey"]) == sorted(best)
    assert (out["total_revenue"] == cents.max() / 100.0).all()


def test_q17_threshold_direct(ray_session):
    """Q17 equals a direct evaluation with the oracle's exact
    0.2*(sum/n) threshold association."""
    from jesterj_ray.pipelines.relational import (Q17_BRAND,
                                                  q17_small_quantity_revenue)
    sf = "/root/testdata/sf0.001"
    out = q17_small_quantity_revenue(sf)
    li = pq.read_table(os.path.join(sf, "lineitem.parquet"),
                       columns=["l_partkey", "l_quantity",
                                "l_extendedprice"]).to_pandas()
    part = pq.read_table(os.path.join(sf, "part.parquet"),
                         columns=["p_partkey", "p_brand"]).to_pandas()
    bk = set(part.loc[part["p_brand"] == Q17_BRAND, "p_partkey"])
    sub = li[li["l_partkey"].isin(bk)]
    agg = sub.groupby("l_partkey")["l_quantity"].agg(["sum", "count"])
    thr = 0.2 * (agg["sum"] / agg["count"])
    m = sub.merge(thr.rename("thr"), left_on="l_partkey",
                  right_index=True)
    cand = m[m["l_quantity"] < m["thr"]]
    micros = np.floor(cand["l_extendedprice"].to_numpy(np.float64)
                      * 1e6 + 0.5).astype(np.int64).sum()
    x = micros / 7e6
    assert float(out["avg_yearly"].iloc[0]) \
        == np.floor(x * 100 + 0.5) / 100


def test_term_vectors_against_tokenizer(ray_session):
    """Per-doc term vectors from postings equal direct tokenization of
    the raw docs (tf mass = doc length; missing doc yields no rows)."""
    from collections import Counter
    from jesterj_ray.pipelines.flagship import term_vectors_documents
    from jesterj_ray.tokenize.tokenizer import simple_tokenize
    sf = "/root/testdata/sf0.001"
    out = term_vectors_documents(sf, doc_ids=(3, 42, 9999999))
    d = pq.read_table(os.path.join(sf, "documents.parquet"),
                      columns=["doc_id", "text"]).to_pandas() \
        .set_index("doc_id")["text"]
    for did in (3, 42):
        want = Counter(simple_tokenize(d.loc[did] or ""))
        got = dict(zip(out.loc[out["doc_id"] == did, "term"],
                       out.loc[out["doc_id"] == did, "tf"]))
        assert got == dict(want)
    assert (out["doc_id"] == 9999999).sum() == 0


def test_q7_double_chain_matches_direct(ray_session):
    """Q7's double dimension chain + cogroup equals a direct pandas
    evaluation on a nation pair with traffic at sf0.001, and is
    partition-count invariant."""
    from jesterj_ray.pipelines.relational import q7_volume_shipping
    sf = "/root/testdata/sf0.001"
    pair = ("NATION_20", "NATION_11")
    a = q7_volume_shipping(sf, num_groups=4, nations=pair)
    b = q7_volume_shipping(sf, num_groups=64, nations=pair)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0

    li = pq.read_table(os.path.join(sf, "lineitem.parquet")).to_pandas()
    su = pq.read_table(os.path.join(sf, "supplier.parquet")).to_pandas()
    na = pq.read_table(os.path.join(sf, "nation.parquet")).to_pandas()
    od = pq.read_table(os.path.join(sf, "orders.parquet")).to_pandas()
    cu = pq.read_table(os.path.join(sf, "customer.parquet")).to_pandas()
    j = li.merge(su, left_on="l_suppkey", right_on="s_suppkey") \
        .merge(na.rename(columns={"n_name": "supp_nation"}),
               left_on="s_nationkey", right_on="n_nationkey") \
        .merge(od, left_on="l_orderkey", right_on="o_orderkey") \
        .merge(cu, left_on="o_custkey", right_on="c_custkey") \
        .merge(na.rename(columns={"n_name": "cust_nation"}),
               left_on="c_nationkey", right_on="n_nationkey")
    j = j[((j["supp_nation"] == pair[0]) & (j["cust_nation"] == pair[1]))
          | ((j["supp_nation"] == pair[1])
             & (j["cust_nation"] == pair[0]))].copy()
    j["m"] = np.floor(j["l_extendedprice"] * (1 - j["l_discount"])
                      * 1e6 + 0.5).astype(np.int64)
    j["l_year"] = j["l_shipdate"].dt.year.astype(np.int64)
    want = j.groupby(["supp_nation", "cust_nation", "l_year"],
                     sort=True)["m"].sum().reset_index()
    cents = (want["m"].to_numpy(np.int64) + 5000) // 10000
    want["revenue"] = cents.astype(np.float64) / 100.0
    pd.testing.assert_frame_equal(
        a, want[["supp_nation", "cust_nation", "l_year", "revenue"]]
        .reset_index(drop=True))


def test_q8_share_bounds_and_mass(ray_session):
    """Market shares are in [0,1], partition-count invariant, and
    equal a full direct pandas evaluation of the Q8 join chain."""
    from jesterj_ray.pipelines.relational import (Q8_NATION, Q8_PTYPE,
                                                  Q8_REGION,
                                                  q8_market_share)
    sf = "/root/testdata/sf0.001"
    out = q8_market_share(sf)
    assert len(out) > 0
    assert ((out["mkt_share"] >= 0) & (out["mkt_share"] <= 1)).all()
    a = q8_market_share(sf, num_groups=4)
    b = q8_market_share(sf, num_groups=64)
    pd.testing.assert_frame_equal(a, b)

    li = pq.read_table(os.path.join(sf, "lineitem.parquet")).to_pandas()
    pt = pq.read_table(os.path.join(sf, "part.parquet")).to_pandas()
    su = pq.read_table(os.path.join(sf, "supplier.parquet")).to_pandas()
    na = pq.read_table(os.path.join(sf, "nation.parquet")).to_pandas()
    rg = pq.read_table(os.path.join(sf, "region.parquet")).to_pandas()
    od = pq.read_table(os.path.join(sf, "orders.parquet")).to_pandas()
    cu = pq.read_table(os.path.join(sf, "customer.parquet")).to_pandas()
    j = li.merge(pt, left_on="l_partkey", right_on="p_partkey") \
        .merge(su, left_on="l_suppkey", right_on="s_suppkey") \
        .merge(na.rename(columns={"n_name": "supp_nation"}),
               left_on="s_nationkey", right_on="n_nationkey") \
        .merge(od, left_on="l_orderkey", right_on="o_orderkey") \
        .merge(cu, left_on="o_custkey", right_on="c_custkey") \
        .merge(na.rename(columns={"n_name": "cust_nation",
                                  "n_regionkey": "c_regionkey"}),
               left_on="c_nationkey", right_on="n_nationkey") \
        .merge(rg, left_on="c_regionkey", right_on="r_regionkey")
    j = j[(j["r_name"] == Q8_REGION) & (j["p_type"] == Q8_PTYPE)].copy()
    j["m"] = np.floor(j["l_extendedprice"] * (1 - j["l_discount"])
                      * 1e6 + 0.5).astype(np.int64)
    j["o_year"] = j["o_orderdate"].dt.year.astype(np.int64)
    j["num"] = np.where(j["supp_nation"] == Q8_NATION, j["m"], 0)
    w = j.groupby("o_year", sort=True).agg(
        num=("num", "sum"), den=("m", "sum")).reset_index()
    x = w["num"].to_numpy(np.float64) / w["den"].to_numpy(np.float64)
    w["mkt_share"] = np.floor(x * 1e6 + 0.5) / 1e6
    pd.testing.assert_frame_equal(
        out, w[["o_year", "mkt_share"]].reset_index(drop=True))


def test_q19_disjunction_matches_direct(ray_session):
    """Q19's OR-of-ANDs mask equals a direct pandas evaluation."""
    from jesterj_ray.pipelines.relational import (Q19_CLAUSES,
                                                  q19_discounted_revenue)
    sf = "/root/testdata/sf0.001"
    out = q19_discounted_revenue(sf)
    li = pq.read_table(os.path.join(sf, "lineitem.parquet"),
                       columns=["l_partkey", "l_quantity",
                                "l_extendedprice",
                                "l_discount"]).to_pandas()
    part = pq.read_table(os.path.join(sf, "part.parquet"),
                         columns=["p_partkey", "p_brand"]).to_pandas()
    j = li.merge(part, left_on="l_partkey", right_on="p_partkey")
    mask = np.zeros(len(j), bool)
    for b_, lo, hi in Q19_CLAUSES:
        mask |= ((j["p_brand"] == b_) & (j["l_quantity"] >= lo)
                 & (j["l_quantity"] <= hi)).to_numpy()
    sel = j[mask]
    micros = np.floor(sel["l_extendedprice"].to_numpy(np.float64)
                      * (1 - sel["l_discount"].to_numpy(np.float64))
                      * 1e6 + 0.5).astype(np.int64).sum()
    cents = (micros + 5000) // 10000
    assert float(out["revenue"].iloc[0]) == cents / 100.0


def test_q21_predicate_matches_direct_and_groups_invariant(ray_session):
    """Q21's per-order distinct-count predicate equals a direct pandas
    evaluation; partition-count invariant."""
    from jesterj_ray.pipelines.relational import q21_blame_supplier
    sf = "/root/testdata/sf0.001"
    a = q21_blame_supplier(sf, num_groups=4)
    b = q21_blame_supplier(sf, num_groups=64)
    pd.testing.assert_frame_equal(a, b)

    li = pq.read_table(os.path.join(sf, "lineitem.parquet"),
                       columns=["l_orderkey", "l_suppkey",
                                "l_returnflag"]).to_pandas()
    g = li.groupby("l_orderkey").agg(
        n_supp=("l_suppkey", "nunique"))
    r = li[li["l_returnflag"] == "R"].groupby("l_orderkey") \
        .agg(n_r=("l_suppkey", "nunique"), r_supp=("l_suppkey", "min"))
    m = g.join(r, how="inner")
    blamed = m[(m["n_supp"] >= 2) & (m["n_r"] == 1)]["r_supp"]
    su = pq.read_table(os.path.join(sf, "supplier.parquet"),
                       columns=["s_suppkey", "s_name"]).to_pandas() \
        .set_index("s_suppkey")["s_name"]
    want = blamed.map(su).value_counts()
    want = want.reset_index()
    want.columns = ["s_name", "numwait"]
    want = want.sort_values(["numwait", "s_name"],
                            ascending=[False, True],
                            kind="mergesort").head(10)
    assert list(a["s_name"]) == list(want["s_name"])
    assert list(a["numwait"]) == list(want["numwait"])


def test_wav_spectral_features_vs_direct_numpy(ray_session):
    """Spectral features through encode->decode->rfft equal a direct
    numpy recompute from the raw formula samples (codec and DSP both
    cross-checked); matryoshka search respects the truncation."""
    import __ray_entry__ as entry
    out = entry.queries()["wav_spectral_features"](
        "/root/testdata/sf0.001")
    assert len(out) == 64 * 4  # 64 docs x 1024/256 frames
    i = np.arange(1024, dtype=np.int64)
    for did in (0, 17, 63):
        s = (((did * 31 + i * 7) % 4096) - 2048).astype(np.float64)
        frames = s.reshape(-1, 256)
        mag = np.abs(np.fft.rfft(frames, axis=1))[:, 1:]
        k = np.arange(1, mag.shape[1] + 1, dtype=np.float64)
        cent = np.floor((mag * k).sum(axis=1) / mag.sum(axis=1)
                        * 1e6 + 0.5) / 1e6
        dom = np.argmax(mag, axis=1) + 1
        g = out[out["doc_id"] == did].sort_values("frame_idx")
        assert list(g["dominant_bin"]) == list(dom)
        assert list(g["centroid"]) == list(cent)


def test_knn_matryoshka_truncation_bites(ray_session):
    """The truncated-prefix ranking must differ from the full-vector
    ranking (otherwise the op is vacuous), and score 1.0 for the
    query vector itself."""
    import __ray_entry__ as entry
    sf = "/root/testdata/sf0.001"
    mrl = entry.queries()["knn_matryoshka_top10"](sf)
    full = entry.queries()["knn_cosine_top10"](sf)
    assert float(mrl.loc[mrl["rank"] == 1, "score"].iloc[0]) == 1.0
    assert list(mrl["vec_id"]) != list(full["vec_id"])


def test_image_phash_pairs_vs_direct(ray_session):
    """Perceptual near-dup pairs through encode->decode->aHash->bands
    equal a direct numpy recompute from the raw formula pixels
    (codec, hashing and the pigeonhole banding all cross-checked —
    banding must lose NO pair at dist <= 3)."""
    from itertools import combinations
    from jesterj_ray.stages.multimodal import image_phash_near_dup
    out = image_phash_near_dup("/root/testdata/sf0.001")

    yy, xx = np.mgrid[0:24, 0:16]
    hashes = {}
    for did in range(64):
        img = ((did * 31 + yy * 7 + xx * 3) % 256).astype(np.float64)
        cells = img[:24, :16].reshape(8, 3, 8, 2).mean(axis=(1, 3))
        bits = (cells > cells.mean()).astype(np.uint64).ravel()
        v = np.uint64(0)
        for b in bits:
            v = np.uint64(v << np.uint64(1)) | b
        hashes[did] = int(v)
    want = []
    for a, b in combinations(range(64), 2):
        d = bin(hashes[a] ^ hashes[b]).count("1")
        if d <= 3:
            want.append((a, b, d))
    got = list(zip(out["id_a"], out["id_b"], out["dist"]))
    assert got == want
    assert len(want) > 0


def test_cli_verify_index_roundtrip(ray_session, tmp_path):
    """verify-index agrees with a fresh build (exit 0, no problems)
    and flags a mismatched source (exit 1, problems listed)."""
    import json
    import subprocess
    import sys
    idx = str(tmp_path / "vix")
    src = "/root/testdata/sf0.001/documents.parquet"
    r = subprocess.run([sys.executable, "-m", "jesterj_ray",
                        "build-index", src, idx, "--key-col", "doc_id",
                        "--num-cpus", "2"],
                       capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0, r.stderr[-500:]
    v = subprocess.run([sys.executable, "-m", "jesterj_ray",
                        "verify-index", idx, src, "--key-col",
                        "doc_id"],
                       capture_output=True, text=True, cwd="/root/repo")
    assert v.returncode == 0, v.stdout + v.stderr[-300:]
    rep = json.loads(v.stdout.strip().splitlines()[-1])
    assert rep["problems"] == [] and rep["n_docs"] == 500

    bad = subprocess.run([sys.executable, "-m", "jesterj_ray",
                          "verify-index", idx,
                          "/root/testdata/sf0.001/events.parquet",
                          "--key-col", "event_id",
                          "--text-col", "event_type"],
                         capture_output=True, text=True,
                         cwd="/root/repo")
    assert bad.returncode == 1
    rep = json.loads(bad.stdout.strip().splitlines()[-1])
    assert rep["problems"]


def test_zscore_outliers_exact_integer_rule(ray_session):
    """The integer inequality equals the literal 3-sigma rule computed
    directly (population sigma over cents), per type."""
    from jesterj_ray.pipelines.relational import zscore_outlier_events
    sf = "/root/testdata/sf0.001"
    out = zscore_outlier_events(sf)
    ev = pq.read_table(os.path.join(sf, "events.parquet"),
                       columns=["event_type", "event_id",
                                "value"]).to_pandas()
    ev["cents"] = np.floor(ev["value"].to_numpy(np.float64) * 100
                           + 0.5).astype(np.int64)
    want = []
    for typ, g in ev.groupby("event_type"):
        c = g["cents"].to_numpy(np.int64)
        n, s, q = len(c), int(c.sum()), int((c * c).sum())
        rhs = 9 * (n * q - s * s)
        d = n * c - s
        hits = g.loc[(d.astype(object) ** 2 > rhs).astype(bool),
                     "event_id"]
        want.extend((typ, int(i)) for i in sorted(hits))
    got = list(zip(out["event_type"], out["event_id"]))
    assert got == sorted(want)
    assert len(got) > 0


def test_zscore_keep_exact_past_int64():
    """The pass-2 keep test ``(n*c - s)^2 > rhs`` stays exact when
    ``n*c`` itself overflows int64 (n = 2^50, |c| = 2^20 gives 2^70,
    which a plain int64 product wraps silently)."""
    from jesterj_ray.pipelines.relational import _zscore_keep
    n = 1 << 50
    c = np.array([1 << 20, -(1 << 20), 3, 0, (1 << 20) - 1, -7],
                 dtype=np.int64)
    s = 5 * n
    d = [n * int(x) - s for x in c]
    for rhs in (0, d[2] ** 2, d[0] ** 2 - 1, d[0] ** 2, 1 << 200):
        want = [x * x > rhs for x in d]
        assert _zscore_keep(c, n, s, rhs).tolist() == want
    # the wrap this guards against: int64 n*c is not the exact product
    assert int((n * c)[0]) != n * (1 << 20)
    # int64 fast path and empty input agree with Python ints too
    c2 = np.array([40, -3, 5, 0], dtype=np.int64)
    want = [(10 * int(x) - 20) ** 2 > 900 for x in c2]
    assert _zscore_keep(c2, 10, 20, 900).tolist() == want
    assert _zscore_keep(c2[:0], 10, 20, 900).size == 0


def test_spectral_stereo_channel_sum(ray_session):
    """A stereo payload must channel-sum before framing (not
    interleave), matching the mono of the summed signal."""
    from jesterj_ray.stages.multimodal import AudioSpectralFeatures
    from jesterj_ray.stages import wav as wavmod
    i = np.arange(1024, dtype=np.int64)
    left = (((7 * i) % 512) - 256).astype(np.int16)
    right = (((11 * i) % 512) - 256).astype(np.int16)
    stereo = np.stack([left, right], axis=1)
    mono = (left.astype(np.int64) + right.astype(np.int64))
    st = AudioSpectralFeatures(frame_len=256)
    out_st = st(pa.table({
        "media_id": pa.array([1], pa.int64()),
        "payload": pa.array([wavmod.encode_wav(stereo)], pa.binary())}))
    out_mono = st(pa.table({
        "media_id": pa.array([1], pa.int64()),
        "payload": pa.array([wavmod.encode_wav(
            mono.astype(np.int16))], pa.binary())}))
    assert out_st.num_rows == 4  # 1024/256, NOT doubled
    assert out_st["dominant_bin"].to_pylist() \
        == out_mono["dominant_bin"].to_pylist()


def test_phash_max_dist_guard(ray_session):
    """max_dist > 3 must refuse loudly (4-band pigeonhole bound)."""
    import pytest as _pytest
    from jesterj_ray.stages.multimodal import image_phash_near_dup
    with _pytest.raises(ValueError):
        image_phash_near_dup("/root/testdata/sf0.001", max_dist=4)


def test_cli_verify_index_after_delete_docs(ray_session, tmp_path):
    """verify-index on a tombstoned index that was NOT delta-built: its
    as-built n_docs still counts the deleted docs, so the doc count is
    compared over alive docs, like the token total — a source without
    the deleted rows verifies clean."""
    import json
    import os
    import subprocess
    import sys

    import pyarrow as _pa
    import pyarrow.parquet as _pq
    from jesterj_ray.index.build_rows import build_index_rows
    from jesterj_ray.index.query import delete_docs
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    n, gone = 120, {3, 50, 97}
    texts = [f"doc {i} " + " ".join(["alpha", "beta", "gamma"][:i % 4])
             for i in range(n)]

    def write(rows, name):
        path = str(tmp_path / name)
        _pq.write_table(_pa.table({
            "doc_id": _pa.array(rows, _pa.int64()),
            "text": [texts[i] for i in rows]}), path)
        return path

    idx = str(tmp_path / "vix3")
    build_index_rows(write(list(range(n)), "all.parquet"), idx,
                     text_col="text", key_col="doc_id",
                     docs_per_partition=32, num_shards=2)
    assert delete_docs(idx, [str(i).zfill(12) for i in gone]) == 3
    src = write([i for i in range(n) if i not in gone], "alive.parquet")
    v = subprocess.run([sys.executable, "-m", "jesterj_ray",
                        "verify-index", idx, src, "--key-col", "doc_id",
                        "--sample", "20"],
                       capture_output=True, text=True, cwd=repo)
    rep = json.loads(v.stdout.strip().splitlines()[-1])
    assert v.returncode == 0, rep
    assert rep["problems"] == [] and rep["n_docs"] == n - len(gone)


def test_cli_verify_index_delta_and_string_keys(ray_session, tmp_path):
    """verify-index stays green after a delta reindex (alive-only
    totals, vocab skipped, alive-copy lookups)."""
    import json
    import subprocess
    import sys

    import pyarrow as _pa
    import pyarrow.parquet as _pq
    idx = str(tmp_path / "vix2")
    src0 = "/root/testdata/sf0.001/documents.parquet"
    mod = str(tmp_path / "mod.parquet")
    t = _pq.read_table(src0, columns=["doc_id", "text"])
    texts = t["text"].to_pylist()
    texts[3] = (texts[3] or "") + " freshly delta verified tokens"
    _pq.write_table(_pa.table({"doc_id": t["doc_id"],
                               "text": _pa.array(texts, _pa.string())}),
                    mod)
    for cmd in (["build-index", src0, idx, "--key-col", "doc_id",
                 "--num-cpus", "2"],
                ["delta-index", mod, idx, "--key-col", "doc_id",
                 "--num-cpus", "2"]):
        r = subprocess.run([sys.executable, "-m", "jesterj_ray"] + cmd,
                           capture_output=True, text=True,
                           cwd="/root/repo")
        assert r.returncode == 0, r.stderr[-400:]
    v = subprocess.run([sys.executable, "-m", "jesterj_ray",
                        "verify-index", idx, mod, "--key-col",
                        "doc_id", "--sample", "6", "--seed", "3"],
                       capture_output=True, text=True, cwd="/root/repo")
    rep = json.loads(v.stdout.strip().splitlines()[-1])
    assert v.returncode == 0, rep
    assert rep["problems"] == []
    assert any("vocab" in s for s in rep["skipped_checks"])
