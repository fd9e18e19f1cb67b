"""DOCX (OOXML WordprocessingML) -> text extraction — the fifth
rich-document slice of the Tika slot (``TikaProcessor.java:50-84``;
.docx is THE office ingest format and, being a zip of XML, needs no
codec libraries: stdlib ``zipfile`` + ``xml.etree`` parse it for real).

Extraction semantics (mirroring Tika's DOCX handler at the text
level):

- ``word/document.xml``: each ``w:p`` paragraph becomes one output
  line; inside it, ``w:t`` run text concatenates in document order,
  ``w:tab`` -> tab, ``w:br``/``w:cr`` -> newline.  Paragraphs join
  with ``\\n``.
- ``docProps/core.xml``: Dublin-Core ``dc:title`` / ``dc:creator``
  surface as metadata fields (sanitized Tika-style elsewhere; here
  they are already clean identifiers).

The driver pipeline synthesizes REAL .docx zip archives from the
documents table (paragraphs of 8 words, each paragraph split into
multiple ``w:r`` runs of <=3 words to exercise run concatenation, a
``[Content_Types].xml`` + core-properties part) and the oracle
recomputes the expected extraction with DuckDB list slicing — any
zip / XML-namespace / run-joining / paragraph-ordering bug breaks the
hash.  pytest covers tabs, breaks, XML escapes and missing parts.
"""

from __future__ import annotations

import io
import zipfile
import xml.etree.ElementTree as ET
from typing import Dict, Tuple
from xml.sax.saxutils import escape

import pyarrow as pa

import ray

from .. import pool_size

_W = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"
_DC = "{http://purl.org/dc/elements/1.1/}"

_CONTENT_TYPES = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
    'content-types">'
    '<Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/word/document.xml" ContentType="application/'
    'vnd.openxmlformats-officedocument.wordprocessingml.document.main'
    '+xml"/>'
    '<Override PartName="/docProps/core.xml" ContentType="application/'
    'vnd.openxmlformats-package.core-properties+xml"/>'
    "</Types>")


def docx_extract_one(data: bytes) -> Tuple[str, Dict[str, str]]:
    """(text, metadata) from real .docx zip bytes.

    Text: paragraphs (``w:p``) joined with newlines; runs (``w:t``)
    concatenated in order; ``w:tab``/``w:br``/``w:cr`` mapped.
    Metadata: ``dc:title`` / ``dc:creator`` from core properties when
    the part exists.
    """
    zf = zipfile.ZipFile(io.BytesIO(data))
    root = ET.fromstring(zf.read("word/document.xml"))
    paras = []
    for p in root.iter(_W + "p"):
        buf = []
        for node in p.iter():
            tag = node.tag
            if tag == _W + "t":
                buf.append(node.text or "")
            elif tag == _W + "tab":
                buf.append("\t")
            elif tag in (_W + "br", _W + "cr"):
                buf.append("\n")
        paras.append("".join(buf))
    meta: Dict[str, str] = {}
    try:
        core = ET.fromstring(zf.read("docProps/core.xml"))
    except KeyError:
        core = None
    if core is not None:
        for key in ("title", "creator"):
            el = core.find(_DC + key)
            if el is not None and el.text is not None:
                meta["dc_" + key] = el.text
    return "\n".join(paras), meta


class DocxExtractor:
    """Actor-pool stage: (doc_id, raw_docx binary) -> fixed-schema
    (doc_id, text_extracted, dc_title, dc_creator); missing metadata
    NULL."""

    def __init__(self, *, src_col: str = "raw_docx",
                 id_col: str = "doc_id"):
        self.src_col = src_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, titles, creators = [], [], []
        for raw in batch[self.src_col].to_pylist():
            t, m = docx_extract_one(raw)
            texts.append(t)
            titles.append(m.get("dc_title"))
            creators.append(m.get("dc_creator"))
        return pa.table({
            "doc_id": batch[self.id_col],
            "text_extracted": pa.array(texts, pa.string()),
            "dc_title": pa.array(titles, pa.string()),
            "dc_creator": pa.array(creators, pa.string())})


def make_docx(paragraphs, *, title: str = None, creator: str = None,
              run_words: int = 3) -> bytes:
    """A REAL minimal .docx: zip with [Content_Types].xml,
    word/document.xml (each paragraph split into <=run_words-word
    runs) and docProps/core.xml.  Deterministic (fixed timestamps,
    stored entries)."""
    body = []
    for para in paragraphs:
        words = para.split(" ")
        runs = []
        for i in range(0, len(words), run_words):
            chunk = " ".join(words[i:i + run_words])
            if i:
                chunk = " " + chunk  # re-attach the separating space
            runs.append('<w:r><w:t xml:space="preserve">'
                        + escape(chunk) + "</w:t></w:r>")
        body.append("<w:p>" + "".join(runs) + "</w:p>")
    document = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<w:document xmlns:w="http://schemas.openxmlformats.org/'
        'wordprocessingml/2006/main"><w:body>'
        + "".join(body) + "</w:body></w:document>")
    core = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<cp:coreProperties xmlns:cp="http://schemas.openxmlformats.'
        'org/package/2006/metadata/core-properties" xmlns:dc="http://'
        'purl.org/dc/elements/1.1/">'
        + ("<dc:title>" + escape(title) + "</dc:title>" if title
           is not None else "")
        + ("<dc:creator>" + escape(creator) + "</dc:creator>"
           if creator is not None else "")
        + "</cp:coreProperties>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, payload in (("[Content_Types].xml", _CONTENT_TYPES),
                              ("word/document.xml", document),
                              ("docProps/core.xml", core)):
            zi = zipfile.ZipInfo(name, date_time=(2024, 1, 1, 0, 0, 0))
            zf.writestr(zi, payload)
    return buf.getvalue()


def _synth_docx(batch: pa.Table, *, field: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """Deterministic synthesis (frozen; oracle mirrors): paragraphs of
    8 words, title 'doc {id}', creator 'author{id%7}'."""
    ids = batch[id_col].to_pylist()
    texts = batch[field].to_pylist()
    raws = []
    for d, t in zip(ids, texts):
        words = (t or "").split(" ")
        paras = [" ".join(words[i:i + 8])
                 for i in range(0, len(words), 8)]
        raws.append(make_docx(paras, title=f"doc {d}",
                              creator=f"author{d % 7}"))
    return batch.append_column("raw_docx", pa.array(raws, pa.binary()))


def docx_extract_pipeline(sf_dir: str, *, num_blocks: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    out = ds.map_batches(_synth_docx, batch_format="pyarrow") \
        .map_batches(DocxExtractor, batch_format="pyarrow",
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "text_extracted", "dc_title",
                         "dc_creator"])
    return out.sort("doc_id")
