"""XLSX (OOXML SpreadsheetML) -> text extraction — the seventh
rich-document slice of the Tika slot (``TikaProcessor.java:50-84``;
spreadsheets are the second office staple and, like .docx, are zips
of XML parsed for real by stdlib ``zipfile`` + ``xml.etree``).

Extraction semantics (Tika-like text level):

- ``xl/sharedStrings.xml``: the shared-string table, including
  rich-text ``<si><r><t>`` runs (concatenated),
- ``xl/workbook.xml``: sheet names in workbook order,
- ``xl/worksheets/sheetN.xml``: rows -> lines, cells -> tab-separated
  values; cell value resolution by type — ``t="s"`` shared-string
  index, ``t="inlineStr"`` inline ``<is><t>``, ``t="str"`` /numeric
  raw ``<v>`` text,
- sheets concatenate in workbook order.

The driver pipeline synthesizes REAL .xlsx archives from the
documents table (rows of 4 cells, all routed through a DEDUPLICATED
shared-string table so repeated words exercise index indirection, the
sheet named ``doc_{id}``) and the oracle recomputes the expected
extraction with DuckDB list slicing — any zip / shared-string /
row-order / cell-join bug breaks the hash.  pytest covers numeric and
inline cells, rich-text runs and missing parts.
"""

from __future__ import annotations

import io
import zipfile
import xml.etree.ElementTree as ET
from typing import Dict, List, Tuple
from xml.sax.saxutils import escape

import pyarrow as pa

import ray

from .. import pool_size

_S = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"

_CONTENT_TYPES = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
    'content-types">'
    '<Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/xl/workbook.xml" ContentType="application/'
    'vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
    '<Override PartName="/xl/worksheets/sheet1.xml" ContentType='
    '"application/vnd.openxmlformats-officedocument.spreadsheetml.'
    'worksheet+xml"/>'
    '<Override PartName="/xl/sharedStrings.xml" ContentType='
    '"application/vnd.openxmlformats-officedocument.spreadsheetml.'
    'sharedStrings+xml"/>'
    "</Types>")


def _cell_text(c, sst: List[str]) -> str:
    t = c.get("t", "n")
    if t == "inlineStr":
        is_el = c.find(_S + "is")
        return "".join(el.text or ""
                       for el in is_el.iter(_S + "t")) \
            if is_el is not None else ""
    v = c.find(_S + "v")
    raw = v.text if v is not None and v.text is not None else ""
    if t == "s":
        return sst[int(raw)] if raw else ""
    return raw


def xlsx_extract_one(data: bytes) -> Tuple[str, List[str], int]:
    """(text, sheet_names, n_cells) from real .xlsx zip bytes."""
    zf = zipfile.ZipFile(io.BytesIO(data))
    sst: List[str] = []
    try:
        sroot = ET.fromstring(zf.read("xl/sharedStrings.xml"))
    except KeyError:
        sroot = None
    if sroot is not None:
        for si in sroot.iter(_S + "si"):
            sst.append("".join(t.text or ""
                               for t in si.iter(_S + "t")))
    names: List[str] = []
    try:
        wb = ET.fromstring(zf.read("xl/workbook.xml"))
        names = [s.get("name", "") for s in wb.iter(_S + "sheet")]
    except KeyError:
        pass
    texts: List[str] = []
    n_cells = 0
    for k in range(1, max(1, len(names)) + 1):
        try:
            sheet = ET.fromstring(
                zf.read(f"xl/worksheets/sheet{k}.xml"))
        except KeyError:
            break
        lines = []
        for row in sheet.iter(_S + "row"):
            cells = [_cell_text(c, sst) for c in row.iter(_S + "c")]
            n_cells += len(cells)
            lines.append("\t".join(cells))
        texts.append("\n".join(lines))
    return "\n".join(texts), names, n_cells


class XlsxExtractor:
    """Actor-pool stage: (doc_id, raw_xlsx binary) -> fixed-schema
    (doc_id, sheet_name, text_extracted, n_cells)."""

    def __init__(self, *, src_col: str = "raw_xlsx",
                 id_col: str = "doc_id"):
        self.src_col = src_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, sheets, counts = [], [], []
        for raw in batch[self.src_col].to_pylist():
            t, names, n = xlsx_extract_one(raw)
            texts.append(t)
            sheets.append(names[0] if names else None)
            counts.append(n)
        return pa.table({
            "doc_id": batch[self.id_col],
            "sheet_name": pa.array(sheets, pa.string()),
            "text_extracted": pa.array(texts, pa.string()),
            "n_cells": pa.array(counts, pa.int64())})


def make_xlsx(rows: List[List[str]], *, sheet_name: str = "Sheet1") \
        -> bytes:
    """A REAL minimal .xlsx: [Content_Types].xml, workbook, one
    worksheet, and a DEDUPLICATED shared-string table (repeated cell
    values share one index, as real writers emit)."""
    sst_index: Dict[str, int] = {}
    order: List[str] = []

    def sid(s: str) -> int:
        if s not in sst_index:
            sst_index[s] = len(order)
            order.append(s)
        return sst_index[s]

    body = []
    for ri, row in enumerate(rows, start=1):
        cells = []
        for ci, val in enumerate(row):
            ref = chr(ord("A") + ci) + str(ri)
            cells.append(f'<c r="{ref}" t="s"><v>{sid(val)}</v></c>')
        body.append(f'<row r="{ri}">' + "".join(cells) + "</row>")
    ns = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    sheet = (f'<?xml version="1.0"?><worksheet xmlns="{ns}">'
             "<sheetData>" + "".join(body) + "</sheetData></worksheet>")
    sst = (f'<?xml version="1.0"?><sst xmlns="{ns}" count='
           f'"{len(order)}" uniqueCount="{len(order)}">'
           + "".join("<si><t xml:space=\"preserve\">" + escape(s)
                     + "</t></si>" for s in order) + "</sst>")
    wb = (f'<?xml version="1.0"?><workbook xmlns="{ns}"><sheets>'
          f'<sheet name="{escape(sheet_name)}" sheetId="1"/>'
          "</sheets></workbook>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, payload in (("[Content_Types].xml", _CONTENT_TYPES),
                              ("xl/workbook.xml", wb),
                              ("xl/sharedStrings.xml", sst),
                              ("xl/worksheets/sheet1.xml", sheet)):
            zi = zipfile.ZipInfo(name, date_time=(2024, 1, 1, 0, 0, 0))
            zf.writestr(zi, payload)
    return buf.getvalue()


def _synth_xlsx(batch: pa.Table, *, field: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """Deterministic synthesis (frozen; oracle mirrors): rows of 4
    word cells, sheet 'doc_{id}'."""
    ids = batch[id_col].to_pylist()
    texts = batch[field].to_pylist()
    raws = []
    for d, t in zip(ids, texts):
        words = (t or "").split(" ")
        rows = [words[i:i + 4] for i in range(0, len(words), 4)]
        raws.append(make_xlsx(rows, sheet_name=f"doc_{d}"))
    return batch.append_column("raw_xlsx", pa.array(raws, pa.binary()))


def xlsx_extract_pipeline(sf_dir: str, *, num_blocks: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    out = ds.map_batches(_synth_xlsx, batch_format="pyarrow") \
        .map_batches(XlsxExtractor, batch_format="pyarrow",
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "sheet_name", "text_extracted",
                         "n_cells"])
    return out.sort("doc_id")
