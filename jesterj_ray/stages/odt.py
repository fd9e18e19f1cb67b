"""ODT (OpenDocument Text) -> text extraction — the ninth
rich-document slice of the Tika slot (``TikaProcessor.java:50-84``).
An .odt is a zip whose ``content.xml`` carries paragraphs as
``text:p`` / ``text:h`` elements; whitespace is ELEMENT-encoded:
``<text:s text:c="N"/>`` is N spaces (default 1), ``<text:tab/>`` a
tab, ``<text:line-break/>`` a newline, and character runs nest inside
``text:span`` elements whose tails matter.

Extraction semantics (Tika-like): each ``text:p`` / ``text:h`` in
document order becomes one line (recursive flatten of text, spans,
and whitespace elements); lines join with a newline.

The driver pipeline synthesizes REAL .odt archives (mimetype part
first + manifest, 7-word paragraphs, alternating literal-space /
``<text:s/>`` separators, alternating words wrapped in spans) — the
expected extraction is the PLAIN paragraph text, so any span-tail /
text:s-expansion / paragraph-order bug breaks the hash.  pytest
covers tabs, line-breaks, multi-space runs, headings and nesting.
"""

from __future__ import annotations

import io
import zipfile
import xml.etree.ElementTree as ET
from typing import List, Tuple
from xml.sax.saxutils import escape

import pyarrow as pa

import ray

from .. import pool_size

_T = "{urn:oasis:names:tc:opendocument:xmlns:text:1.0}"
_OFFICE_NS = "urn:oasis:names:tc:opendocument:xmlns:office:1.0"
_MIME = "application/vnd.oasis.opendocument.text"

_MANIFEST = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    '<manifest:manifest xmlns:manifest="urn:oasis:names:tc:'
    'opendocument:xmlns:manifest:1.0">'
    f'<manifest:file-entry manifest:media-type="{_MIME}" '
    'manifest:full-path="/"/>'
    '<manifest:file-entry manifest:media-type="text/xml" '
    'manifest:full-path="content.xml"/>'
    "</manifest:manifest>")


def _flatten(el: ET.Element) -> str:
    """Recursive text of one paragraph: expand whitespace elements,
    keep span tails."""
    buf: List[str] = []

    def walk(node: ET.Element) -> None:
        if node.tag == _T + "s":
            buf.append(" " * int(node.get(_T + "c", "1")))
        elif node.tag == _T + "tab":
            buf.append("\t")
        elif node.tag == _T + "line-break":
            buf.append("\n")
        else:
            if node.text:
                buf.append(node.text)
            for ch in node:
                walk(ch)
                if ch.tail:
                    buf.append(ch.tail)

    if el.text:
        buf.append(el.text)
    for ch in el:
        walk(ch)
        if ch.tail:
            buf.append(ch.tail)
    return "".join(buf)


def odt_extract_one(data: bytes) -> Tuple[str, int]:
    """(text, n_paras) from real .odt zip bytes."""
    zf = zipfile.ZipFile(io.BytesIO(data))
    root = ET.fromstring(zf.read("content.xml"))
    paras = [_flatten(el) for el in root.iter()
             if el.tag in (_T + "p", _T + "h")]
    return "\n".join(paras), len(paras)


class OdtExtractor:
    """Actor-pool stage: (doc_id, raw_odt binary) -> fixed-schema
    (doc_id, text_extracted, n_paras)."""

    def __init__(self, *, src_col: str = "raw_odt",
                 id_col: str = "doc_id"):
        self.src_col = src_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, counts = [], []
        for raw in batch[self.src_col].to_pylist():
            t, n = odt_extract_one(raw)
            texts.append(t)
            counts.append(n)
        return pa.table({
            "doc_id": batch[self.id_col],
            "text_extracted": pa.array(texts, pa.string()),
            "n_paras": pa.array(counts, pa.int64())})


def make_odt(paras: List[str], *, headings: bool = False) -> bytes:
    """A REAL minimal .odt: stored mimetype part FIRST (ODF packaging
    rule), manifest, and a content.xml where word separators alternate
    literal space / ``<text:s/>`` and alternate words sit in spans —
    the extracted text must equal the plain paragraphs regardless."""
    body = []
    for pi, para in enumerate(paras):
        words = para.split(" ")
        parts = []
        for wi, w in enumerate(words):
            if wi:
                parts.append(" " if wi % 2 else "<text:s/>")
            word = escape(w)
            parts.append(f"<text:span>{word}</text:span>"
                         if wi % 2 else word)
        tag = "text:h" if headings and pi == 0 else "text:p"
        body.append(f"<{tag}>" + "".join(parts) + f"</{tag}>")
    xml = ('<?xml version="1.0" encoding="UTF-8"?>'
           f'<office:document-content xmlns:office="{_OFFICE_NS}" '
           'xmlns:text="urn:oasis:names:tc:opendocument:xmlns:text:1.0">'
           "<office:body><office:text>" + "".join(body)
           + "</office:text></office:body></office:document-content>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        zi = zipfile.ZipInfo("mimetype", date_time=(2024, 1, 1, 0, 0, 0))
        zf.writestr(zi, _MIME)
        zi = zipfile.ZipInfo("META-INF/manifest.xml",
                             date_time=(2024, 1, 1, 0, 0, 0))
        zf.writestr(zi, _MANIFEST)
        zi = zipfile.ZipInfo("content.xml",
                             date_time=(2024, 1, 1, 0, 0, 0))
        zf.writestr(zi, xml)
    return buf.getvalue()


def _synth_odt(batch: pa.Table, *, field: str = "text",
               id_col: str = "doc_id") -> pa.Table:
    """Deterministic synthesis (frozen; oracle mirrors): paragraphs
    of 7 words."""
    texts = batch[field].to_pylist()
    raws = []
    for t in texts:
        words = (t or "").split(" ")
        paras = [" ".join(words[i:i + 7])
                 for i in range(0, len(words), 7)]
        raws.append(make_odt(paras))
    return batch.append_column("raw_odt", pa.array(raws, pa.binary()))


def odt_extract_pipeline(sf_dir: str, *, num_blocks: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    out = ds.map_batches(_synth_odt, batch_format="pyarrow") \
        .map_batches(OdtExtractor, batch_format="pyarrow",
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "text_extracted", "n_paras"])
    return out.sort("doc_id")
