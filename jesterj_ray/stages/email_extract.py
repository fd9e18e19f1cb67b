"""Email (RFC-822 / .eml) extraction — the third rich-document slice
of the Tika slot (``TikaProcessor.java:50-84``; mail archives are a
staple JesterJ/Tika ingest source).

The engine parses REAL RFC-822 bytes with the stdlib ``email`` package
(header decode incl. RFC 2047 encoded-words, multipart walk selecting
the first ``text/plain`` part, quoted-printable/base64 transfer
decoding) — an actor-pool ``map_batches`` stage like
``html.HtmlExtractor``.  Metadata field names sanitize Tika-style
(``[^a-zA-Z]`` -> ``_``) via ``html.sanitize_field``.

The driver pipeline synthesizes simple single-part messages from the
documents table (deterministic, mirrored in the ``email_extract``
oracle with regexp header pulls — the stdlib parser and the regexes
agree exactly on this synthesis class, while pytest covers the parser
behaviors SQL cannot express: multipart, base64, encoded-words).
"""

from __future__ import annotations

import email
import email.policy
from typing import Optional, Tuple

import pyarrow as pa

import ray

from .. import pool_size


def extract_email(raw: bytes) -> Tuple[str, dict]:
    """(body_text, headers) from RFC-822 bytes; body = the first
    text/plain part (empty when none)."""
    msg = email.message_from_bytes(raw, policy=email.policy.default)
    headers = {k.lower(): str(msg[k]) for k in
               ("Subject", "From", "To", "Date") if msg[k] is not None}
    body = ""
    part = msg.get_body(preferencelist=("plain",))
    if part is not None:
        body = part.get_content()
    return body, headers


class EmailExtractor:
    """Actor-pool stage: (doc_id, raw_email binary) -> fixed-schema
    (doc_id, subject, from_, to_, body) rows; missing headers NULL."""

    def __init__(self, *, src_col: str = "raw_email",
                 id_col: str = "doc_id"):
        self.src_col = src_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj, frm, to, body = [], [], [], []
        for raw in batch[self.src_col].to_pylist():
            b, h = extract_email(raw or b"")
            subj.append(h.get("subject"))
            frm.append(h.get("from"))
            to.append(h.get("to"))
            body.append(b)
        return pa.table({
            "doc_id": batch[self.id_col],
            "subject": pa.array(subj, pa.string()),
            "from_addr": pa.array(frm, pa.string()),
            "to_addr": pa.array(to, pa.string()),
            "body": pa.array(body, pa.string())})


def _synth_email(batch: pa.Table, *, field: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """Deterministic single-part message synthesis (oracle mirrors)."""
    ids = batch[id_col].to_pylist()
    texts = batch[field].to_pylist()
    raws = []
    for d, t in zip(ids, texts):
        raws.append((
            f"Subject: doc {d} report\r\n"
            f"From: sender{d % 13}@example.com\r\n"
            f"To: list{d % 5}@example.org\r\n"
            f"Date: Mon, 01 Jan 2024 00:00:00 +0000\r\n"
            f"Content-Type: text/plain; charset=utf-8\r\n"
            f"\r\n"
            f"{t or ''}\r\n").encode())
    return batch.append_column("raw_email",
                               pa.array(raws, pa.binary()))


def email_extract_pipeline(sf_dir: str, *, num_blocks: int = 16):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"],
                               override_num_blocks=num_blocks)
    out = ds.map_batches(_synth_email, batch_format="pyarrow") \
        .map_batches(EmailExtractor, batch_format="pyarrow",
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "subject", "from_addr", "to_addr",
                         "body"])
    return out.sort("doc_id")
