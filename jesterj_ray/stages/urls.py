"""URL/domain operators — the provenance-filter pass of a web corpus.

Web-scale pipelines (C4, RefinedWeb, Dolma) filter documents by their
source domain against curated blocklists before any content-level
work.  The operators here are the vectorized Ray stages for that:
domain extraction is one RE2 capture kernel per batch
(``pc.extract_regex``), the blocklist is broadcast once (``ray.put``)
and probed with ``pc.is_in`` — the broadcast-small-side shape used by
``decontam`` and the relational joins; no shuffle at any size.

The test corpus has no URL column, so the ``url_domain_filter``
pipeline synthesizes one deterministically from ``doc_id`` (the
redact/markdown fixture pattern) — mirrored verbatim in the oracle.
"""

from __future__ import annotations

from typing import Iterable

import pyarrow as pa
import pyarrow.compute as pc

import ray

from .. import pool_size

# Arrow extract_regex needs a NAMED group; the oracle's regexp_extract
# uses the equivalent numbered form '^https?://([^/]+)'
DOMAIN_RE = r"^https?://(?P<domain>[^/]+)"

# frozen demo blocklist (oracle mirrors); hosts that the synthesis
# below actually produces
DEMO_BLOCKLIST = ("site3.example.com", "site7.example.org",
                  "site11.example.org")


def extract_domain(batch: pa.Table, *, url_col: str,
                   out_col: str = "domain") -> pa.Table:
    """One vectorized RE2 capture: scheme-stripped authority."""
    dom = pc.struct_field(
        pc.extract_regex(batch[url_col], pattern=DOMAIN_RE), "domain")
    return batch.append_column(out_col, dom)


class DomainFilter:
    """Actor-pool stage: blocklist fetched once per actor; per batch
    one ``is_in`` probe appends ``kept`` (False = blocklisted)."""

    def __init__(self, blocklist_ref, *, url_col: str = "url"):
        bl = ray.get(blocklist_ref) \
            if isinstance(blocklist_ref, ray.ObjectRef) else blocklist_ref
        self.block = pa.array(sorted(set(bl)), pa.string())
        self.url_col = url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = extract_domain(batch, url_col=self.url_col)
        kept = pc.invert(pc.is_in(batch["domain"],
                                  value_set=self.block))
        return batch.append_column("kept", kept.fill_null(True))


def _synth_url(batch: pa.Table, *, id_col: str = "doc_id") -> pa.Table:
    """Deterministic URL synthesis (frozen; oracle mirrors):
    https://site{doc_id%23}.example.{com|org by parity}/p/{doc_id}."""
    ids = batch[id_col].to_pylist()
    urls = [f"https://site{d % 23}.example."
            f"{'com' if d % 2 == 0 else 'org'}/p/{d}" for d in ids]
    return batch.append_column("url", pa.array(urls, pa.string()))


def url_domain_filter_pipeline(sf_dir: str,
                               blocklist: Iterable[str] = DEMO_BLOCKLIST):
    """documents → synth url → domain extract + blocklist verdict.

    Output (doc_id, domain, kept) sorted by doc_id — every row kept
    with its verdict so the filter is auditable (the C4 practice of
    logging removals)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id"],
                               override_num_blocks=16)
    ref = ray.put(tuple(blocklist))
    out = ds.map_batches(_synth_url, batch_format="pyarrow") \
        .map_batches(DomainFilter, batch_format="pyarrow",
                     fn_constructor_kwargs={"blocklist_ref": ref},
                     concurrency=pool_size(2)) \
        .select_columns(["doc_id", "domain", "kept"])
    return out.sort("doc_id")
