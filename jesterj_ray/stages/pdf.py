"""PDF -> text extraction — the sixth rich-document slice of the Tika
slot (``TikaProcessor.java:50-84``).  PDF's text layer needs no codec
libraries for the common case: FlateDecode is stdlib ``zlib`` and the
content-stream text operators are a small grammar.

A real, pure-Python extractor for the format's text core:

- indirect-object table scan (``N 0 obj .. endobj``), then a REAL
  object-graph walk: trailer ``/Root`` -> catalog ``/Pages`` ->
  ``/Kids`` -> each page's ``/Contents`` (so stray non-page streams
  are never mistaken for text),
- stream decode: ``/FlateDecode`` via ``zlib``; uncompressed streams
  pass through,
- content-stream tokenizer: ``( )`` string literals with nested
  parens and the escape set (``\\( \\) \\\\ \\n \\r \\t`` + octal
  ``\\ddd``), ``<hex>`` strings, arrays; text assembly per the naive-
  extractor convention — shows (``Tj``/``TJ``/``'``) append, a line
  motion (``Td``/``TD``/``T*``/``'``) after at least one show emits a
  newline,
- ``/Info`` dict ``/Title`` surfaces as metadata.

Honest subset: no xref-stream / object-stream (PDF 1.5+) parsing, no
encryption, no CMap/ToUnicode font decoding (strings are assumed
latin-1/ASCII show text, true for the standard-14-font class this
targets).  The driver pipeline synthesizes REAL PDFs (correct xref
byte offsets, Flate-compressed content, Info dict) from the documents
table and the oracle recomputes the expected extraction — any
object-walk / inflate / string-escape / line-motion bug breaks the
hash.  pytest covers escapes, TJ arrays, hex strings and uncompressed
streams.
"""

from __future__ import annotations

import re
import zlib
from typing import Dict, List, Optional, Tuple

import pyarrow as pa

import ray

from .. import pool_size

_OBJ_RE = re.compile(rb"(\d+)\s+0\s+obj(.*?)endobj", re.S)
_STREAM_RE = re.compile(rb"stream\r?\n(.*?)endstream", re.S)
_REF_RE_T = rb"/%s\s+(\d+)\s+0\s+R"
_ESCAPES = {ord("n"): "\n", ord("r"): "\r", ord("t"): "\t",
            ord("b"): "\b", ord("f"): "\f",
            ord("("): "(", ord(")"): ")", ord("\\"): "\\"}


def _objects(data: bytes) -> Dict[int, bytes]:
    return {int(m.group(1)): m.group(2)
            for m in _OBJ_RE.finditer(data)}


def _ref(body: bytes, name: str) -> Optional[int]:
    m = re.search(_REF_RE_T % name.encode(), body)
    return int(m.group(1)) if m else None


def _stream_bytes(body: bytes) -> Optional[bytes]:
    m = _STREAM_RE.search(body)
    if m is None:
        return None
    raw = m.group(1)
    if b"/FlateDecode" in body[:m.start()]:
        raw = zlib.decompress(raw)
    return raw


def _parse_string(data: bytes, i: int) -> Tuple[str, int]:
    """Parse a ( ) literal starting at data[i] == '('; returns
    (decoded text, index past the closing paren)."""
    out: List[str] = []
    depth = 1
    i += 1
    n = len(data)
    while i < n and depth:
        c = data[i]
        if c == 0x5C:                       # backslash
            nxt = data[i + 1] if i + 1 < n else 0
            if 0x30 <= nxt <= 0x37:         # octal \ddd (1-3 digits)
                j = i + 1
                oct_ds = []
                while j < n and len(oct_ds) < 3 and 0x30 <= data[j] <= 0x37:
                    oct_ds.append(data[j] - 0x30)
                    j += 1
                code = 0
                for d in oct_ds:
                    code = code * 8 + d
                out.append(chr(code))
                i = j
            elif nxt in _ESCAPES:
                out.append(_ESCAPES[nxt])
                i += 2
            elif nxt in (0x0A, 0x0D):       # \<EOL>: line continuation
                i += 2
                if nxt == 0x0D and i < n and data[i] == 0x0A:
                    i += 1
            else:                           # \<other>: drop backslash
                i += 1
            continue
        if c == 0x28:                       # (
            depth += 1
        elif c == 0x29:                     # )
            depth -= 1
            if not depth:
                i += 1
                break
        out.append(chr(c))
        i += 1
    return "".join(out), i


def _is_op_char(c: int) -> bool:
    return (0x41 <= c <= 0x5A) or (0x61 <= c <= 0x7A) \
        or c == 0x27 or c == 0x2A or c == 0x22   # A-Z a-z ' * "


def _extract_text_ops(content: bytes) -> str:
    """Naive-extractor text assembly over one content stream: string
    operands accumulate; ``Tj``/``TJ`` show them on the current line,
    ``'`` moves to the next line first (PDF 9.4.3); ``Td``/``TD``/
    ``T*`` emit a newline once anything has been shown on the line."""
    lines: List[str] = []
    cur: List[str] = []
    operands: List[str] = []
    shown = False

    def newline():
        nonlocal shown
        if shown:
            lines.append("".join(cur))
            cur.clear()
            shown = False

    def show():
        nonlocal shown
        if operands:
            cur.extend(operands)
            operands.clear()
        shown = True

    i, n = 0, len(content)
    while i < n:
        c = content[i]
        if c == 0x28:                       # ( string literal
            s, i = _parse_string(content, i)
            operands.append(s)
            continue
        if c == 0x3C and not content.startswith(b"<<", i):  # <hex>
            j = content.index(b">", i)
            hx = re.sub(rb"\s", b"", content[i + 1:j])
            if len(hx) % 2:
                hx += b"0"
            operands.append(
                bytes.fromhex(hx.decode()).decode("latin-1"))
            i = j + 1
            continue
        if c == 0x2F:                       # /Name: skip whole token
            i += 1
            while i < n and content[i] not in b" \t\r\n()<>[]/":
                i += 1
            continue
        if _is_op_char(c):
            j = i
            while j < n and _is_op_char(content[j]) \
                    and content[j] not in (0x27, 0x22):
                j += 1
            op = content[i:j] if j > i else content[i:i + 1]
            if op in (b"Td", b"TD", b"T*"):
                newline()
                operands.clear()
            elif op == b"Tj" or op == b"TJ":
                show()
            elif op == b"'" or op == b'"':
                newline()
                show()
            elif op == b"ET":
                newline()
                operands.clear()
            else:
                operands.clear()            # Tf, Tc, ... eat operands
            i = max(j, i + 1)
            continue
        i += 1
    if cur:
        lines.append("".join(cur))
    return "\n".join(lines)


def pdf_extract_one(data: bytes) -> Tuple[str, Dict[str, str]]:
    """(text, metadata) from PDF bytes via the real object-graph walk."""
    objs = _objects(data)
    trailer_at = data.rfind(b"trailer")
    trailer = data[trailer_at:] if trailer_at >= 0 else data
    meta: Dict[str, str] = {}
    info_n = _ref(trailer, "Info")
    if info_n in objs:
        m = re.search(rb"/Title\s*\(", objs[info_n])
        if m:
            title, _ = _parse_string(objs[info_n], m.end() - 1)
            meta["pdf_title"] = title
    texts: List[str] = []
    root_n = _ref(trailer, "Root")
    pages_n = _ref(objs.get(root_n, b""), "Pages") \
        if root_n in objs else None
    kid_ns: List[int] = []
    if pages_n in objs:
        m = re.search(rb"/Kids\s*\[([^\]]*)\]", objs[pages_n])
        if m:
            kid_ns = [int(x) for x in
                      re.findall(rb"(\d+)\s+0\s+R", m.group(1))]
    for kn in kid_ns:
        cn = _ref(objs.get(kn, b""), "Contents")
        if cn in objs:
            raw = _stream_bytes(objs[cn])
            if raw is not None:
                texts.append(_extract_text_ops(raw))
    return "\n".join(texts), meta


class PdfExtractor:
    """Actor-pool stage: (doc_id, raw_pdf binary) -> fixed-schema
    (doc_id, text_extracted, pdf_title)."""

    def __init__(self, *, src_col: str = "raw_pdf",
                 id_col: str = "doc_id"):
        self.src_col = src_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, titles = [], []
        for raw in batch[self.src_col].to_pylist():
            t, m = pdf_extract_one(raw or b"")
            texts.append(t)
            titles.append(m.get("pdf_title"))
        return pa.table({
            "doc_id": batch[self.id_col],
            "text_extracted": pa.array(texts, pa.string()),
            "pdf_title": pa.array(titles, pa.string())})


def _pdf_escape(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def make_pdf(lines: List[str], *, title: str = None,
             compress: bool = True) -> bytes:
    """A REAL single-page PDF: catalog/pages/page/font object graph,
    (optionally Flate-compressed) content stream showing each line
    with ``Tj`` + ``0 -14 Td`` motions, Info dict, and a correct xref
    table with byte offsets."""
    ops = ["BT", "/F1 12 Tf", "72 720 Td"]
    for k, line in enumerate(lines):
        if k:
            ops.append("0 -14 Td")
        ops.append("(" + _pdf_escape(line) + ") Tj")
    ops.append("ET")
    content = "\n".join(ops).encode("latin-1")
    filt = b""
    if compress:
        content = zlib.compress(content, 6)
        filt = b" /Filter /FlateDecode"
    bodies = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> "
            b">> >>"),
        4: (b"<< /Length " + str(len(content)).encode() + filt
            + b" >>\nstream\n" + content + b"\nendstream"),
        5: (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
            b">>"),
    }
    if title is not None:
        bodies[6] = (b"<< /Title ("
                     + _pdf_escape(title).encode("latin-1") + b") >>")
    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for n in sorted(bodies):
        offsets[n] = len(out)
        out += (str(n).encode() + b" 0 obj\n" + bodies[n]
                + b"\nendobj\n")
    xref_at = len(out)
    size = max(bodies) + 1
    out += b"xref\n0 " + str(size).encode() + b"\n"
    out += b"0000000000 65535 f \n"
    for n in range(1, size):
        out += ("%010d 00000 n \n" % offsets[n]).encode()
    trailer = (b"trailer\n<< /Size " + str(size).encode()
               + b" /Root 1 0 R"
               + (b" /Info 6 0 R" if title is not None else b"")
               + b" >>\nstartxref\n" + str(xref_at).encode()
               + b"\n%%EOF\n")
    out += trailer
    return bytes(out)


def _synth_pdf(batch: pa.Table, *, field: str = "text",
               id_col: str = "doc_id") -> pa.Table:
    """Deterministic synthesis (frozen; oracle mirrors): lines of 10
    words, Info /Title 'doc {id}', Flate-compressed content."""
    ids = batch[id_col].to_pylist()
    texts = batch[field].to_pylist()
    raws = []
    for d, t in zip(ids, texts):
        words = (t or "").split(" ")
        lines = [" ".join(words[i:i + 10])
                 for i in range(0, len(words), 10)]
        raws.append(make_pdf(lines, title=f"doc {d}"))
    return batch.append_column("raw_pdf", pa.array(raws, pa.binary()))


def pdf_extract_pipeline(sf_dir: str, *, num_blocks: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    out = ds.map_batches(_synth_pdf, batch_format="pyarrow") \
        .map_batches(PdfExtractor, batch_format="pyarrow",
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "text_extracted", "pdf_title"])
    return out.sort("doc_id")
