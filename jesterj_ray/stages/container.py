"""Recursive container extraction — Tika's RecursiveParserWrapper
analog for the Tika slot (``TikaProcessor.java:50-84``), composed with
the reference's child-document semantics (``makeChild``,
``Scanner.java`` nonce children): a zip container explodes into one
CHILD document per embedded entry, each routed through the matching
extractor by content sniffing, with Tika's
``X-TIKA:embedded_resource_path`` naming (``/entry`` and
``/inner.zip/deep.txt`` for nested containers).

Dispatch is magic-byte based (like Tika's detector, not filename
trust): ``PK\\x03\\x04`` recurses as a zip (depth-capped), a ``<``
lead routes to the HTML extractor (:mod:`.html`), anything else is
utf-8 plain text.

The driver pipeline synthesizes REAL zip containers per document
(plain-text part + HTML part + a NESTED zip), and the oracle
recomputes every child's text — entry ordering, recursion paths,
HTML-vs-text routing and whitespace normalization are all hash-gated.
"""

from __future__ import annotations

import io
import zipfile
from typing import List, Tuple
from xml.sax.saxutils import escape

import pyarrow as pa

import ray

from .html import extract_html
from .. import pool_size

_ZIP_MAGIC = b"PK\x03\x04"


def _extract_leaf(payload: bytes) -> str:
    """Route one non-container payload by sniff."""
    head = payload.lstrip()[:1]
    if head == b"<":
        return extract_html(payload)[0]
    return " ".join(payload.decode("utf-8", errors="replace").split())


def explode_container(data: bytes, *, max_depth: int = 10,
                      _prefix: str = "") -> List[Tuple[str, str]]:
    """[(embedded_resource_path, text)] for every leaf entry, depth
    first in entry order; nested containers extend the path like
    Tika's RecursiveParserWrapper."""
    if max_depth <= 0:
        raise ValueError("container recursion depth exceeded")
    out: List[Tuple[str, str]] = []
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        for info in zf.infolist():
            if info.is_dir():
                continue
            payload = zf.read(info)
            path = f"{_prefix}/{info.filename}"
            if payload[:4] == _ZIP_MAGIC:
                out.extend(explode_container(
                    payload, max_depth=max_depth - 1, _prefix=path))
            else:
                out.append((path, _extract_leaf(payload)))
    return out


class ContainerExploder:
    """Actor-pool stage: (doc_id, raw_zip binary) -> one row per leaf
    child: (doc_id, child_path, text_extracted)."""

    def __init__(self, *, src_col: str = "raw_zip",
                 id_col: str = "doc_id", max_depth: int = 10):
        self.src_col = src_col
        self.id_col = id_col
        self.max_depth = max_depth

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, paths, texts = [], [], []
        for did, raw in zip(batch[self.id_col].to_pylist(),
                            batch[self.src_col].to_pylist()):
            for path, text in explode_container(
                    raw, max_depth=self.max_depth):
                ids.append(did)
                paths.append(path)
                texts.append(text)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "child_path": pa.array(paths, pa.string()),
            "text_extracted": pa.array(texts, pa.string())})


def make_container(entries: List[Tuple[str, bytes]]) -> bytes:
    """A real zip with the given (name, payload) entries in order."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, payload in entries:
            zi = zipfile.ZipInfo(name, date_time=(2024, 1, 1, 0, 0, 0))
            zf.writestr(zi, payload)
    return buf.getvalue()


def _synth_container(batch: pa.Table, *, field: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Deterministic synthesis (frozen; oracle mirrors): per doc a zip
    of part1.txt = first ceil(n/2) words, part2.html = the rest inside
    a real HTML page, inner.zip/deep.txt = the first 3 words."""
    raws = []
    for did, t in zip(batch[id_col].to_pylist(),
                      batch[field].to_pylist()):
        words = (t or "").split(" ")
        half = (len(words) + 1) // 2
        part1 = " ".join(words[:half])
        part2 = " ".join(words[half:])
        html = (f"<html><head><title>Doc {did}</title></head>"
                f"<body><p>{escape(part2)}</p></body></html>")
        inner = make_container([("deep.txt",
                                 " ".join(words[:3]).encode())])
        raws.append(make_container([
            ("part1.txt", part1.encode()),
            ("part2.html", html.encode()),
            ("inner.zip", inner)]))
    return batch.append_column("raw_zip", pa.array(raws, pa.binary()))


def container_explode_pipeline(sf_dir: str, *, num_blocks: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    out = ds.map_batches(_synth_container, batch_format="pyarrow") \
        .map_batches(ContainerExploder, batch_format="pyarrow",
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "child_path", "text_extracted"])
    return out.sort(["doc_id", "child_path"])
