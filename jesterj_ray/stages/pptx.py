"""PPTX (OOXML PresentationML) -> text extraction — the eighth
rich-document slice of the Tika slot (``TikaProcessor.java:50-84``).
Slides are zipped DrawingML: text lives in ``a:t`` runs inside
``a:p`` paragraphs inside shape text bodies.

Extraction semantics (Tika-like): per slide (``ppt/slides/slideN.xml``
in slide order), each ``a:p`` paragraph becomes a line (its ``a:t``
runs concatenated, ``a:br`` -> newline); slides concatenate with a
newline between them.

The driver pipeline synthesizes REAL .pptx archives from the
documents table (2 six-word paragraphs per slide, each paragraph
split into <=3-word runs) and the oracle recomputes the expected
extraction plus the slide count — any zip / run-join / slide-order
bug breaks the hash.  pytest covers breaks, escapes and multi-shape
slides.
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

_A = "{http://schemas.openxmlformats.org/drawingml/2006/main}"

_CONTENT_TYPES = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
    'content-types">'
    '<Default Extension="xml" ContentType="application/xml"/>'
    "</Types>")


def pptx_extract_one(data: bytes) -> Tuple[str, int]:
    """(text, n_slides) from real .pptx zip bytes."""
    zf = zipfile.ZipFile(io.BytesIO(data))
    slides = sorted(
        (n for n in zf.namelist()
         if n.startswith("ppt/slides/slide") and n.endswith(".xml")),
        key=lambda n: int(n[len("ppt/slides/slide"):-4]))
    texts: List[str] = []
    for name in slides:
        root = ET.fromstring(zf.read(name))
        lines = []
        for p in root.iter(_A + "p"):
            buf = []
            for node in p.iter():
                if node.tag == _A + "t":
                    buf.append(node.text or "")
                elif node.tag == _A + "br":
                    buf.append("\n")
            lines.append("".join(buf))
        texts.append("\n".join(lines))
    return "\n".join(texts), len(slides)


class PptxExtractor:
    """Actor-pool stage: (doc_id, raw_pptx binary) -> fixed-schema
    (doc_id, text_extracted, n_slides)."""

    def __init__(self, *, src_col: str = "raw_pptx",
                 id_col: str = "doc_id"):
        self.src_col = src_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, counts = [], []
        for raw in batch[self.src_col].to_pylist():
            t, n = pptx_extract_one(raw)
            texts.append(t)
            counts.append(n)
        return pa.table({
            "doc_id": batch[self.id_col],
            "text_extracted": pa.array(texts, pa.string()),
            "n_slides": pa.array(counts, pa.int64())})


def make_pptx(slides: List[List[str]], *, run_words: int = 3) -> bytes:
    """A REAL minimal .pptx: one slideN.xml per slide, each paragraph
    split into <=run_words-word ``a:r`` runs inside one shape."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        zi = zipfile.ZipInfo("[Content_Types].xml",
                             date_time=(2024, 1, 1, 0, 0, 0))
        zf.writestr(zi, _CONTENT_TYPES)
        ns = "http://schemas.openxmlformats.org/drawingml/2006/main"
        for si, paras in enumerate(slides, start=1):
            body = []
            for para in paras:
                words = para.split(" ")
                runs = []
                for i in range(0, len(words), run_words):
                    chunk = " ".join(words[i:i + run_words])
                    if i:
                        chunk = " " + chunk
                    runs.append('<a:r><a:t xml:space="preserve">'
                                + escape(chunk) + "</a:t></a:r>")
                body.append("<a:p>" + "".join(runs) + "</a:p>")
            xml = (f'<?xml version="1.0"?><p:sld xmlns:a="{ns}" '
                   'xmlns:p="http://schemas.openxmlformats.org/'
                   'presentationml/2006/main"><p:cSld><p:spTree>'
                   "<p:sp><p:txBody>" + "".join(body)
                   + "</p:txBody></p:sp></p:spTree></p:cSld></p:sld>")
            zi = zipfile.ZipInfo(f"ppt/slides/slide{si}.xml",
                                 date_time=(2024, 1, 1, 0, 0, 0))
            zf.writestr(zi, xml)
    return buf.getvalue()


def _synth_pptx(batch: pa.Table, *, field: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """Deterministic synthesis (frozen; oracle mirrors): paragraphs of
    6 words, 2 paragraphs per slide."""
    texts = batch[field].to_pylist()
    raws = []
    for t in texts:
        words = (t or "").split(" ")
        paras = [" ".join(words[i:i + 6])
                 for i in range(0, len(words), 6)]
        slides = [paras[i:i + 2] for i in range(0, len(paras), 2)]
        raws.append(make_pptx(slides))
    return batch.append_column("raw_pptx", pa.array(raws, pa.binary()))


def pptx_extract_pipeline(sf_dir: str, *, num_blocks: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    out = ds.map_batches(_synth_pptx, batch_format="pyarrow") \
        .map_batches(PptxExtractor, batch_format="pyarrow",
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "text_extracted", "n_slides"])
    return out.sort("doc_id")
