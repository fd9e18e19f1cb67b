"""The index writer's bookkeeping files: one owner for their names, their
JSON formats and the order of the pending-tombstone protocol.

- ``stats.json``: corpus totals and build config;
- ``tombstones.json``: ``{"doc_ids": [...]}`` sorted, the deleted docs
  every reader masks;
- ``tombstones.pending.json``: same format, a delta round's deletions,
  staged before its merge and folded in after it (:func:`deletions_staged`);
- ``delta_overlay.json``: the catalog of alive delta copies,
  ``{doc_key: {"id", "sha", "home"}}`` (``build_rows.delta_reindex``).

Every write is whole-file and atomic.  Only ``READER_FILES`` are
reader-visible (pinned by the epoch); the other two are writer state.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Dict, Iterable, List

from ..state.manifest import STATUS_INDEXED, atomic_write_bytes

STATS = "stats.json"
TOMBSTONES = "tombstones.json"
PENDING = "tombstones.pending.json"
OVERLAY = "delta_overlay.json"
READER_FILES = (STATS, TOMBSTONES)


def _write(index_dir: str, name: str, obj) -> None:
    atomic_write_bytes(os.path.join(index_dir, name), json.dumps(obj).encode())


def _unlink(index_dir: str, *names: str) -> None:
    for name in names:
        try:
            os.unlink(os.path.join(index_dir, name))
        except FileNotFoundError:
            pass


def has_stats(index_dir: str) -> bool:
    """Whether a build has committed ``index_dir``."""
    return os.path.exists(os.path.join(index_dir, STATS))


def read_stats(index_dir: str) -> Dict:
    with open(os.path.join(index_dir, STATS)) as f:
        return json.load(f)


def write_stats(index_dir: str, stats: Dict) -> None:
    _write(index_dir, STATS, stats)


def commit_stats(index_dir: str, recs: Dict[int, Dict], fields: Dict) -> Dict:
    """The writers' one stats tail: the totals over the INDEXED rows of
    the build manifest ``recs``, then ``fields`` in order.  Returns it."""
    indexed = [r for r in recs.values() if r["status"] == STATUS_INDEXED]
    n_docs = sum(r["docs_seen"] for r in indexed)
    dl_sum = sum(r.get("dl_sum", 0) for r in indexed)
    stats = {"n_docs": int(n_docs), "dl_sum": int(dl_sum),
             "avgdl": (dl_sum / n_docs) if n_docs else 0.0}
    stats |= {k: v for k, v in fields.items() if k not in stats}
    write_stats(index_dir, stats)
    return stats


def tokenizer_of(stats: Dict):
    """The index's tokenizer; a schema-driven analyzer re-registers from
    its persisted config, so the index opens in any process."""
    if stats.get("analyzer_config") is not None:
        from ..tokenize.analyzer import ensure_registered
        ensure_registered(stats["tokenizer"], stats["analyzer_config"])
    from ..tokenize.tokenizer import TOKENIZERS
    return TOKENIZERS[stats["tokenizer"]]


def tombstone_ids(index_dir: str, names: Iterable[str] = (TOMBSTONES,),
                  missing_ok: bool = True) -> List[int]:
    """One tombstone file's ids as stored, or several files' sorted
    union.  An absent file is empty, or raises unless ``missing_ok``."""
    parts = []
    for name in names:
        path = os.path.join(index_dir, name)
        if missing_ok and not os.path.exists(path):
            continue
        with open(path) as f:
            parts.append(json.load(f).get("doc_ids", []))
    return parts[0] if len(parts) == 1 else sorted(set().union(*parts))


def write_tombstones(index_dir: str, ids: Iterable[int],
                     name: str = TOMBSTONES) -> None:
    _write(index_dir, name, {"doc_ids": sorted(ids)})


def add_tombstones(index_dir: str, ids: Iterable[int],
                   name: str = TOMBSTONES) -> None:
    write_tombstones(index_dir, set(tombstone_ids(index_dir, (name,)))
                     | set(ids), name)


@contextmanager
def deletions_staged(index_dir: str, ids: List[int]):
    """Stage ``ids`` as pending, run the body (the merge), then fold
    every pending id into the tombstones.  If the body raises, the
    pending set stays for the next round (or compaction) to fold, so
    deletions and their replacement postings become visible together."""
    if ids:
        add_tombstones(index_dir, ids, PENDING)
    yield
    if os.path.exists(os.path.join(index_dir, PENDING)):
        add_tombstones(index_dir, tombstone_ids(index_dir, (PENDING,)))
        _unlink(index_dir, PENDING)


def clear_tombstones(index_dir: str) -> None:
    """Deletions became physical (compaction)."""
    _unlink(index_dir, TOMBSTONES, PENDING)


def clear_delta_state(index_dir: str) -> None:
    """A full rebuild subsumes every delta round."""
    _unlink(index_dir, TOMBSTONES, PENDING, OVERLAY)


def read_overlay(index_dir: str) -> Dict[str, Dict]:
    path = os.path.join(index_dir, OVERLAY)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def write_overlay(index_dir: str, catalog: Dict[str, Dict]) -> None:
    _write(index_dir, OVERLAY, catalog)
