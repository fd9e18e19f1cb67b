"""HTML/markup text + metadata extraction — the reference's Tika slot.

Reference analog: ``TikaProcessor`` feeds a document's raw bytes through
Tika and gets back extracted text plus metadata fields
(``ingest/processors/TikaProcessor.java:50-84``): the text replaces the
raw data (``replaceRaw``) and/or lands in ``destField``; every metadata
name is sanitized (non-letters become ``_``,
``TikaProcessor.java:90-100``) with an optional suffix appended
(``appendingSuffix``), and ``truncatingTextTo`` caps the extracted text.

Rich-binary formats (PDF, DOCX) need parser libraries this sandbox does
not have, but HTML/XHTML — the first format a real ingest user feeds —
extracts exactly with the stdlib parser:

- ``<script>``/``<style>`` content dropped (CDATA-aware: a literal
  ``"</p>"`` inside a script does not end it),
- ``<head>`` content excluded from body text, with ``<title>`` captured
  as metadata (Tika's ``dc:title``),
- ``<meta name=... content=...>`` / ``http-equiv`` pairs captured as
  metadata fields,
- character references decoded (``&amp;`` -> ``&``), comments dropped,
- every tag boundary separates words; whitespace runs collapse to one
  space (Tika's ``BodyContentHandler`` text-normalization shape).

The stage is an actor-pool ``map_batches`` class: fixed output schema
(columnar engines need stable columns, so callers name the metadata
fields they want up front — unlike Tika's dynamic field fan-out) and
per-document parsing inside the batch loop, the same shape as
``multimodal.ImageDecoder``.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import Dict, List, Optional, Sequence, Tuple

import pyarrow as pa

from .. import pool_size

_SKIP_TEXT = frozenset({"script", "style", "head"})


def sanitize_field(dirty: str) -> str:
    """Tika metadata-name sanitization (``TikaProcessor.java:90-100``):
    ASCII letters survive, EVERYTHING else — digits included — becomes
    ``_``."""
    return "".join(c if ("a" <= c <= "z") or ("A" <= c <= "Z") else "_"
                   for c in dirty)


class _Extractor(HTMLParser):
    """One document's parse state: body text pieces, title, metas."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.pieces: List[str] = []
        self.title_pieces: List[str] = []
        self.metas: Dict[str, str] = {}
        self._skip = 0
        self._in_title = False

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TEXT:
            self._skip += 1
        elif tag == "title":
            self._in_title = True
        elif tag == "meta":
            d = dict(attrs)
            name = d.get("name") or d.get("http-equiv")
            if name is not None and d.get("content") is not None:
                self.metas.setdefault(name, d["content"])
        self.pieces.append(" ")

    def handle_endtag(self, tag):
        if tag in _SKIP_TEXT and self._skip:
            self._skip -= 1
        elif tag == "title":
            self._in_title = False
        self.pieces.append(" ")

    def handle_data(self, data):
        if self._in_title:
            self.title_pieces.append(data)
        elif not self._skip:
            self.pieces.append(data)


def extract_html(raw) -> Tuple[str, Optional[str], Dict[str, str]]:
    """Parse one HTML document: (text, title, raw-name metadata dict).

    ``raw`` may be ``str`` or ``bytes`` (utf-8, errors replaced — the
    reference hands Tika raw bytes)."""
    if isinstance(raw, (bytes, bytearray, memoryview)):
        raw = bytes(raw).decode("utf-8", errors="replace")
    p = _Extractor()
    p.feed(raw or "")
    p.close()
    text = " ".join("".join(p.pieces).split())
    title = " ".join("".join(p.title_pieces).split()) \
        if p.title_pieces else None
    return text, title, p.metas


class HtmlExtractor:
    """Actor-pool stage: raw HTML column -> extracted text + metadata.

    Output schema is fixed: ``id_col``, ``dest_field`` (the extracted
    text; Tika's ``intoField``), ``title`` (when ``want_title``), and
    one column per requested metadata name — sanitized + suffixed like
    the reference (``appendingSuffix``).  ``max_chars`` mirrors
    ``truncatingTextTo`` (-1 = unlimited).  ``replace_raw=True`` also
    re-emits ``src_col`` holding the extracted text (the reference's
    rawData overwrite); otherwise the raw column is dropped.
    """

    def __init__(self, src_col: str = "raw_html", id_col: str = "doc_id",
                 meta_fields: Sequence[str] = (), suffix: str = "",
                 dest_field: str = "content", want_title: bool = True,
                 max_chars: int = -1, replace_raw: bool = False):
        self.src_col = src_col
        self.id_col = id_col
        self.meta_fields = list(meta_fields)
        self.out_meta = [sanitize_field(m) + suffix
                         for m in self.meta_fields]
        if len(set(self.out_meta)) != len(self.out_meta):
            raise ValueError(
                f"meta_fields sanitize to colliding columns: "
                f"{self.out_meta}")
        self.suffix = suffix
        self.dest_field = dest_field
        self.want_title = want_title
        self.max_chars = max_chars
        self.replace_raw = replace_raw

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts: List[str] = []
        titles: List[Optional[str]] = []
        metas: List[List[Optional[str]]] = [[] for _ in self.meta_fields]
        for raw in batch[self.src_col].to_pylist():
            text, title, md = extract_html(raw)
            if self.max_chars >= 0:
                text = text[:self.max_chars]
            texts.append(text)
            titles.append(title)
            for i, name in enumerate(self.meta_fields):
                metas[i].append(md.get(name))
        cols = {self.id_col: batch[self.id_col],
                self.dest_field: pa.array(texts, pa.string())}
        if self.want_title:
            cols["title" + self.suffix] = pa.array(titles, pa.string())
        for out_name, vals in zip(self.out_meta, metas):
            cols[out_name] = pa.array(vals, pa.string())
        if self.replace_raw:
            cols[self.src_col] = pa.array(texts, pa.string())
        return pa.table(cols)


# ------------------------------------------------- oracle pipeline

def _synth_html(did: int, text: str) -> str:
    """Deterministic HTML document over (doc_id, text) — the extraction
    oracle's input.  Deliberately adversarial: entities in title and
    body, a comment, a script whose body contains a fake close tag
    (CDATA trap), a style block, head content that must NOT leak into
    the body text, and a bolded word that must not split the text."""
    words = text.split()
    body = (f"<b>{words[0]}</b> " + " ".join(words[1:])) if words else ""
    return (
        f'<html><head><title>Document {did} &amp; Co</title>\n'
        f'<meta name="dc:creator" content="author{did % 7}"/>\n'
        f'<meta http-equiv="Content-Type" content="text/html"/>\n'
        f'<style>body {{ color: #fff; }}</style></head>\n'
        f'<body><!-- comment {did} --><h1 class="hd">Doc {did}</h1>\n'
        f'<p>{body}</p>\n'
        f'<script type="text/javascript">var x = {did} < 5 && "</p>";'
        f'</script>\n'
        f'<div>tail &lt;tag&gt; {did % 13}</div></body></html>')


def html_extract_fields_pipeline(sf_dir: str):
    """Synthesize HTML from the documents table, run the REAL stdlib
    extraction in an actor pool, and emit (doc_id, title, dc_creator,
    content_type, content) — which DuckDB recomputes directly from the
    synthesis template (same shape as the codec oracles): any parsing
    bug (CDATA handling, head leakage, entity decode, whitespace
    normalization, meta capture) breaks the value hash."""
    import os

    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"],
                         override_num_blocks=8)

    def synth(t: pa.Table) -> pa.Table:
        raws = [_synth_html(int(d), x or "")
                for d, x in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist())]
        return pa.table({"doc_id": t["doc_id"],
                         "raw_html": pa.array(raws, pa.string())})

    out = ds.map_batches(synth, batch_format="pyarrow").map_batches(
        HtmlExtractor,
        fn_constructor_kwargs={
            "src_col": "raw_html",
            "meta_fields": ["dc:creator", "Content-Type"]},
        batch_format="pyarrow", concurrency=pool_size(2)).to_pandas()
    out = out.rename(columns={"Content_Type": "content_type"})
    return out.sort_values("doc_id").reset_index(drop=True)
