"""Tests for scanners, extraction, senders, pre-analyze, registry/CLI."""
import json
import os

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd


def test_scan_files(tmp_path):
    from jesterj_ray.sources.scanners import scan_files
    (tmp_path / "a.txt").write_text("hello")
    (tmp_path / "b.log").write_text("world!")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.txt").write_text("nested")
    ds = scan_files(str(tmp_path), include_glob="*.txt")
    df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 2
    assert df["doc_id"][0].startswith("file:///")
    assert df["raw_data"][0] == b"hello"
    assert df["file_size"][0] == 5 == df["doc_raw_size"][0]
    assert df["modified"][0].isdigit()  # epoch-millis string


def test_scan_files_empty(tmp_path):
    from jesterj_ray.sources.scanners import scan_files
    ds = scan_files(str(tmp_path))
    assert ds.count() == 0


def test_scan_sql(sf_dir):
    from jesterj_ray.sources.scanners import scan_sql
    sql = (f"SELECT doc_id, lang, text FROM "
           f"read_parquet('{sf_dir}/documents.parquet') WHERE lang = 'en'")
    ds = scan_sql(sql, table="documents", pk_column="doc_id",
                  content_column="text")
    df = ds.to_pandas()
    assert len(df) == 193
    assert df["doc_id"].iloc[0].startswith("duckdb://:memory:/documents/")
    assert isinstance(df["raw_data"].iloc[0], bytes)
    assert "text" not in df.columns


def test_make_children_and_nonce():
    from jesterj_ray.sources.scanners import CHILD_SEP, add_nonce, make_children
    b = pa.table({"doc_id": pa.array(["d1", "d2"]),
                  "parts": pa.array([["x", "y"], ["z"]],
                                    pa.list_(pa.string())),
                  "lang": pa.array(["en", "fr"])})
    out = make_children(b, parent_id_field="doc_id", items_field="parts",
                        child_field="raw_data", keep_cols=["lang"])
    assert out["doc_id"].to_pylist() == [f"d1{CHILD_SEP}0", f"d1{CHILD_SEP}1",
                                         f"d2{CHILD_SEP}0"]
    assert out["parent_id"].to_pylist() == ["d1", "d1", "d2"]
    assert out["raw_data"].to_pylist() == ["x", "y", "z"]
    assert out["lang"].to_pylist() == ["en", "en", "fr"]
    n = add_nonce(out, fields=["doc_id"])
    assert len(set(n["nonce"].to_pylist())) == 3
    # deterministic (retry-safe, unlike the reference's AtomicLong)
    n2 = add_nonce(out, fields=["doc_id"])
    assert n["nonce"].to_pylist() == n2["nonce"].to_pylist()


def test_xml_extraction():
    from jesterj_ray.stages.extract import XmlPathSpec, extract_xml_paths
    xml = ("<article><front><title>T1</title><title>T2</title></front>"
           "<body lang='en'>text</body></article>")
    b = pa.table({"xml": pa.array([xml, "<bad", None])})
    out = extract_xml_paths(b, xml_field="xml", specs=[
        XmlPathSpec("article/front/title", "titles"),
        XmlPathSpec("article/body", "body_lang", attr="lang"),
    ])
    assert out["titles"].to_pylist() == [["T1", "T2"], [], []]
    assert out["body_lang"].to_pylist() == [["en"], [], []]
    assert out["xml_error"].to_pylist() == [False, True, False]


def test_json_extraction():
    from jesterj_ray.stages.extract import extract_json_field
    b = pa.table({"props": pa.array(['{"k": 87}', '{"x": 1}', "notjson", None])})
    out = extract_json_field(b, json_field="props", key="k",
                             out_field="k", as_type="int64")
    assert out["k"].to_pylist() == [87, None, None, None]


def test_status_sink(tmp_path, sf_dir):
    import pyarrow.parquet as pq
    import glob
    from jesterj_ray.stages.senders import StatusSink
    from jesterj_ray.stages.dedup import add_sha256
    out = str(tmp_path / "status")
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    ds = ds.map_batches(add_sha256, batch_format="pyarrow",
                        fn_kwargs={"field": "text"})
    ds.map_batches(StatusSink, fn_constructor_kwargs={
        "out_dir": out, "destination": "index"},
        batch_format="pyarrow", concurrency=2).materialize()
    files = glob.glob(out + "/*.parquet")
    assert files
    t = pa.concat_tables([pq.read_table(f) for f in files])
    assert t.num_rows == 500
    assert set(t["status"].to_pylist()) == {"INDEXED"}
    assert len(set(t["doc_id"].to_pylist())) == 500


def test_batch_sender_fallback():
    from jesterj_ray.stages.senders import BatchSender

    class Flaky(BatchSender):
        def send(self, payloads):
            raise RuntimeError("batch failed")

        def send_one(self, payload):
            if payload["id"] == 2:
                raise RuntimeError("doc 2 is poison")

    b = pa.table({"id": pa.array([1, 2, 3], pa.int64())})
    out = Flaky()(b)
    errs = out["send_error"].to_pylist()
    assert errs[0] == "" and errs[2] == ""
    assert "poison" in errs[1]


def test_throttled_fetcher():
    import time
    from jesterj_ray.stages.senders import ThrottledFetcher
    f = ThrottledFetcher(link_field="url", min_interval_s=0.05, fake=True)
    b = pa.table({"url": pa.array(
        ["http://a.example/1", "http://a.example/2", "http://b.example/1"])})
    t0 = time.monotonic()
    out = f(b)
    elapsed = time.monotonic() - t0
    assert out["http_status"].to_pylist() == [200, 200, 200]
    assert f.sleeps == 1          # same-host second hit throttled
    assert elapsed >= 0.049       # actually waited
    # deterministic fake bodies
    assert out["raw_data"].to_pylist()[0] == f._fake_fetch("http://a.example/1")[1]
    # strict mode raises per-row, recorded in fetch_error
    strict = ThrottledFetcher(link_field="url", fake=False)
    out2 = strict(b.slice(0, 1))
    assert out2["http_status"].to_pylist() == [-1]
    assert "no network" in out2["fetch_error"].to_pylist()[0]


def test_pre_analyze_field():
    from jesterj_ray.tokenize.preanalyze import pre_analyze_field
    b = pa.table({"text": pa.array(["parseConfig my_var", ""])})
    out = pre_analyze_field(b, field="text", tokenizer="code")
    payload = json.loads(out["text_preanalyzed"].to_pylist()[0])
    assert payload["v"] == "1" and payload["str"] == "parseConfig my_var"
    toks = payload["tokens"]
    assert [t["t"] for t in toks] == ["parse", "config", "my", "var"]
    assert toks[0]["s"] == 0 and toks[0]["e"] == len("parseConfig")
    assert json.loads(out["text_preanalyzed"].to_pylist()[1])["tokens"] == []


def test_registry_and_plan(tmp_path, sf_dir):
    from jesterj_ray.model.registry import load_plan, resolve_processor
    with pytest.raises(KeyError):
        resolve_processor("nope")
    spec = {"name": "p", "source": {"parquet": "x"},
            "steps": [
                {"name": "trim", "processor": "trim_values",
                 "kwargs": {"field": "text"}},
                {"name": "count", "processor": "token_count",
                 "kwargs": {"field": "text"}},
            ]}
    plan = load_plan(spec)
    src = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text"])
    out = plan.execute(src)["count"].to_pandas()
    assert "n_tokens" in out.columns and len(out) == 500


def test_cli_visualize_and_query(tmp_path, capsys, sf_dir):
    from jesterj_ray.__main__ import main
    spec = {"name": "p", "source": {"parquet": "x"},
            "steps": [{"name": "a", "processor": "noop"},
                      {"name": "b", "processor": "noop"}]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(spec))
    assert main(["visualize", str(plan_path)]) == 0
    outp = capsys.readouterr().out
    assert '"a" -> "b";' in outp and '"SOURCE" -> "a";' in outp

    from jesterj_ray.pipelines.flagship import documents_index
    idx = documents_index(sf_dir)
    assert main(["query", idx, "merge sort", "-k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("1\t")


def test_cli_delta_and_status(tmp_path, capsys):
    """CLI round-trip: build-index -> delta-index -> mark -> status ->
    delete-docs -> query."""
    import json as _json
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from jesterj_ray.__main__ import main

    df = pd.DataFrame({"rid": np.arange(120, dtype=np.int64),
                       "text": [f"alpha beta tok{i}" for i in range(120)]})
    src = str(tmp_path / "c.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=64)
    out = str(tmp_path / "idx")
    assert main(["build-index", src, out, "--key-col", "rid",
                 "--docs-per-partition", "64", "--num-cpus", "4"]) == 0
    df.loc[5, "text"] = "gammafresh delta"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src,
                   row_group_size=64)
    assert main(["delta-index", src, out, "--key-col", "rid",
                 "--docs-per-partition", "64", "--num-cpus", "4"]) == 0
    stats = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["reindexed_docs"] == 1
    assert main(["mark", out, "0", "dirty"]) == 0
    rec = _json.loads(capsys.readouterr().out.strip())
    assert rec["status"] == "DIRTY"
    assert main(["status", out]) == 0
    s = _json.loads(capsys.readouterr().out.strip())
    assert s["by_status"].get("DIRTY") == 1
    # the build merged all 8 shards fully; the one-doc delta appended a
    # generation to the shards holding its terms
    merge = s["merge"]
    assert merge["shards"] == 8 and merge["max_generations"] == 2
    assert set(merge["by_mode"]) == {"full", "append"}
    assert sum(merge["by_mode"].values()) == 8
    assert main(["status", out, "0"]) == 0
    h = _json.loads(capsys.readouterr().out.strip())
    assert any(e["status"] == "DIRTY" for e in h["history"])
    assert main(["query", out, "gammafresh", "-k", "3"]) == 0
    q = capsys.readouterr().out.strip()
    assert f"{5:012d}" in q
    assert main(["delete-docs", out, f"{5:012d}"]) == 0
    # the key matches both the stale base row (already tombstoned by the
    # delta) and its delta copy — both tombstone
    assert _json.loads(capsys.readouterr().out)["tombstoned"] == 2
