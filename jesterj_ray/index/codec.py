"""Posting-list codec: docID delta encoding + varbyte compression.

From-scratch per the north_rule ("delta-encoded, varbyte-compressed posting
lists with per-block max-score metadata").  The reference delegates all
posting storage to Solr/OpenSearch; this module replaces that.

Layout of one encoded posting list (for one term, one doc-id shard):

    varbyte( delta(doc_ids) )  ++  varbyte( tfs )

with docIDs strictly ascending.  No per-block metadata is stored: the
query engine decodes and scores every posting of a term, so block
maxima, where a tight bound pays, come cheaper from the reader's cached
per-term impacts in memory than from disk.

All encode/decode paths are vectorized numpy (no per-posting Python loop):
varbyte encode works by computing per-value byte lengths, a byte-position
prefix sum, and scattered writes; decode by masking continuation bits and
segment-summing 7-bit groups.

``encode_runs`` is the one writer of the run/segment row layout (the
build's partition runs, compaction's rewritten runs, serving slices): it
encodes a whole batch of term-sorted posting lists in one pass — one
varbyte call per blob column, per-term blobs cut from the length prefix
sums.  Blob columns are ``pa.binary()`` with int32 offsets, so a batch
whose blob bytes would pass ``MAX_BLOB_BUFFER_BYTES`` is encoded in
term-range chunks and returned as chunked arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

# largest data buffer of one encoded blob chunk: pa.binary() offsets are
# int32.  Patchable in tests to force multi-chunk encodes.
MAX_BLOB_BUFFER_BYTES = (1 << 31) - 1


def varbyte_encode(values: np.ndarray) -> bytes:
    """Vectorized varbyte (LEB128, little-endian 7-bit groups) encode.

    ``values``: uint64/int64 ndarray, all >= 0.
    """
    v = np.asarray(values, dtype=np.uint64)
    return _varbyte_write(v, varbyte_lengths(v)).tobytes()


def _varbyte_write(v: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """varbyte bytes of uint64 ``v`` given its per-value ``nbytes``."""
    if v.size == 0:
        return np.empty(0, dtype=np.uint8)
    ends = np.cumsum(nbytes)
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    starts = ends - nbytes
    # write byte k of each value (k < nbytes[i]) with continuation bits
    for k in range(int(nbytes.max())):
        mask = nbytes > k
        vals = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1) > k
        out[starts[mask] + k] = vals.astype(np.uint8) | \
            (cont.astype(np.uint8) << 7)
    return out


def varbyte_decode(buf: bytes, count: int) -> np.ndarray:
    """Vectorized varbyte decode of ``count`` values.

    A value's 7-bit groups are CONTIGUOUS bytes, so the final gather is a
    segment sum over sorted boundaries — ``np.add.reduceat`` (18x faster
    than the scatter-add it replaces)."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    b = np.frombuffer(buf, dtype=np.uint8)
    is_last = (b & 0x80) == 0
    # index of the value each byte belongs to = count of terminator bytes before it
    value_idx = np.zeros(b.size, dtype=np.int64)
    np.cumsum(is_last[:-1], out=value_idx[1:])
    # byte offset within its value = byte position - first byte position of the value
    last_pos = np.flatnonzero(is_last)
    first_byte_of_value = np.zeros(count, dtype=np.int64)
    first_byte_of_value[1:] = last_pos[:-1] + 1
    offset_in_value = np.arange(b.size, dtype=np.int64) - first_byte_of_value[value_idx]
    contrib = (b.astype(np.uint64) & np.uint64(0x7F)) << (np.uint64(7) * offset_in_value.astype(np.uint64))
    return np.add.reduceat(contrib, first_byte_of_value)


def varbyte_lengths(values: np.ndarray) -> np.ndarray:
    """Per-value encoded byte length (same formula as varbyte_encode)."""
    v = np.asarray(values, dtype=np.uint64)
    # significant bits per value (float log2 exact for values < 2**53;
    # doc-id deltas / tfs stay far below that)
    nz = v > 0
    with np.errstate(divide="ignore"):
        nbits = np.where(nz, np.floor(np.log2(v.astype(np.float64) + 0.5))
                         .astype(np.int64) + 1, 1)
    return (nbits + 6) // 7


def _cum0(a: np.ndarray) -> np.ndarray:
    """Prefix sum with a leading 0: ``[0, a0, a0+a1, ...]`` (int64)."""
    return np.concatenate(([0], np.cumsum(a, dtype=np.int64)))


def _blob(values: np.ndarray, nbytes: np.ndarray, cum: np.ndarray,
          bounds: np.ndarray) -> pa.Array:
    """pa.binary() whose row i is the varbyte encoding of
    ``values[bounds[i]:bounds[i + 1]]`` (``cum``: prefix sum of
    ``nbytes``) — one encode call for all rows."""
    lo, hi = int(bounds[0]), int(bounds[-1])
    offsets = cum[bounds] - cum[lo]
    if offsets[-1] > (1 << 31) - 1:
        raise OverflowError("one term's blob exceeds the 2 GiB limit of "
                            "pa.binary() offsets")
    return pa.Array.from_buffers(
        pa.binary(), offsets.size - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)),
         pa.py_buffer(_varbyte_write(values[lo:hi], nbytes[lo:hi]))])


def range_cuts(bounds: List[np.ndarray], limit: int) -> List[int]:
    """Greedy cut points ``[0, ..., n]`` over n rows such that no range
    ``[cuts[i], cuts[i + 1])`` grows any of the ``bounds`` prefix sums
    (n + 1 entries each) by more than ``limit``; a single row over the
    limit forms a range alone.  n == 0 gives one empty range."""
    n = bounds[0].size - 1
    cuts = [0] if n else [0, 0]
    while cuts[-1] < n:
        a = cuts[-1]
        b = min(int(np.searchsorted(c, c[a] + limit, side="right")) - 1
                for c in bounds)
        cuts.append(max(b, a + 1))
    return cuts


def encode_runs(offsets: np.ndarray, doc_ids: np.ndarray, tfs: np.ndarray,
                pos_deltas: Optional[np.ndarray] = None
                ) -> Dict[str, pa.ChunkedArray]:
    """Encode a batch of posting lists, one per term group, in one pass.

    ``offsets`` (n_terms + 1 entries, ``offsets[0] == 0``,
    ``offsets[-1] == doc_ids.size``) bounds each term's postings in
    ``doc_ids`` (strictly ascending within a term) and ``tfs`` (>= 1).
    A group may be empty: its row carries no postings (a metadata-only
    serving row).  ``pos_deltas``, when given, holds every posting's
    ``tf`` position deltas back to back.

    Returns one column per run-row field, in run-table order: count, cf,
    first_doc, last_doc, doc_blob, tf_blob[, pos_blob].
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    # doc deltas of the whole batch; each term restarts at its absolute id
    deltas = np.empty_like(doc_ids)
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    heads = offsets[:-1][offsets[1:] > offsets[:-1]]
    deltas[heads] = doc_ids[heads]
    deltas = deltas.view(np.uint64)
    tfs_u = tfs.view(np.uint64)
    dlen, tlen = varbyte_lengths(deltas), varbyte_lengths(tfs_u)
    dcum, tcum = _cum0(dlen), _cum0(tlen)
    pos_off = _cum0(tfs)[offsets]  # each term's slice of pos_deltas
    term_bytes = [dcum[offsets], tcum[offsets]]
    if pos_deltas is not None:
        pos = np.asarray(pos_deltas, dtype=np.int64).view(np.uint64)
        plen = varbyte_lengths(pos)
        pcum = _cum0(plen)
        term_bytes.append(pcum[pos_off])

    # term ranges whose blob buffers each stay within the int32 limit
    cuts = range_cuts(term_bytes, MAX_BLOB_BUFFER_BYTES)
    chunks = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        offs = offsets[a:b + 1]
        counts = np.diff(offs)
        # an empty group reads a neighbour's (or the pad's) first/last doc:
        # only serving rows are empty, and they carry neither column
        pad = np.append(doc_ids, 0)
        col = {
            "count": pa.array(counts, pa.int64()),
            "cf": pa.array(np.diff(pos_off[a:b + 1]), pa.int64()),
            "first_doc": pa.array(pad[offs[:-1]], pa.int64()),
            "last_doc": pa.array(pad[offs[1:] - 1], pa.int64()),
            "doc_blob": _blob(deltas, dlen, dcum, offs),
            "tf_blob": _blob(tfs_u, tlen, tcum, offs),
        }
        if pos_deltas is not None:
            col["pos_blob"] = _blob(pos, plen, pcum, pos_off[a:b + 1])
        chunks.append(col)
    return {k: pa.chunked_array([c[k] for c in chunks], chunks[0][k].type)
            for k in chunks[0]}


def _bin_view(arr: pa.Array):
    """(absolute int64 offsets, uint8 data view) of a Binary array.
    Binary layout is gap-free by construction — row i's bytes are exactly
    ``data[off[i]:off[i+1]]`` — so group concatenation never needs to
    touch the data buffer."""
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1].astype(np.int64)
    dbuf = arr.buffers()[2]
    data = (np.frombuffer(dbuf, dtype=np.uint8) if dbuf is not None
            else np.empty(0, np.uint8))
    return off, data


def _blob_values(col, count: int) -> np.ndarray:
    """The ``count`` varbyte values of every row of a blob column, back
    to back (rows are contiguous in the data buffer: one decode call)."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off, data = _bin_view(col)
    return varbyte_decode(data[off[0]:off[-1]], count)


def decode_runs(rows) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Inverse of ``encode_runs`` over a table or record batch of run /
    segment rows: (doc_ids, tfs, pos_deltas or None) int64, every row's
    postings back to back in row order."""
    counts = np.asarray(rows.column("count"), dtype=np.int64)
    n = int(counts.sum())
    # each row's first delta is absolute: a row's doc ids are the running
    # sum minus the sum before the row (uint64 wraps; the result is exact)
    run = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(_blob_values(rows.column("doc_blob"), n), out=run[1:])
    docs = (run[1:] - np.repeat(run[_cum0(counts)[:-1]], counts)) \
        .view(np.int64)
    tfs = _blob_values(rows.column("tf_blob"), n).view(np.int64)
    pos = (_blob_values(rows.column("pos_blob"), int(tfs.sum())).view(np.int64)
           if "pos_blob" in rows.schema.names else None)
    return docs, tfs, pos


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray
                    ) -> Tuple[bytes, bytes]:
    """Encode one posting list (``encode_runs`` over a single term):
    (doc_blob, tf_blob).  ``doc_ids`` must be strictly ascending int64;
    ``tfs`` positive int64."""
    cols = encode_runs([0, len(doc_ids)], doc_ids, tfs)
    return cols["doc_blob"][0].as_py(), cols["tf_blob"][0].as_py()


def decode_postings(doc_blob: bytes, tf_blob: bytes, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Decode (doc_ids ascending int64, tfs int64)."""
    deltas = varbyte_decode(doc_blob, count).astype(np.int64)
    doc_ids = np.cumsum(deltas)
    tfs = varbyte_decode(tf_blob, count).astype(np.int64)
    return doc_ids, tfs
