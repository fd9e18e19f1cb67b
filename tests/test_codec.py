"""Codec round-trips (FIXTURES.md test 5)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jesterj_ray.index.codec import (decode_postings, encode_postings,
                                     varbyte_decode, varbyte_encode)


def test_varbyte_known_values():
    vals = np.array([0, 1, 127, 128, 16383, 16384, 2**32, 2**52], dtype=np.uint64)
    assert np.array_equal(varbyte_decode(varbyte_encode(vals), vals.size), vals)


def test_varbyte_empty():
    assert varbyte_encode(np.empty(0, dtype=np.uint64)) == b""
    assert varbyte_decode(b"", 0).size == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**50), max_size=2000))
def test_varbyte_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert np.array_equal(varbyte_decode(varbyte_encode(arr), arr.size), arr)


def test_postings_roundtrip_and_blockmax():
    """One posting list round-trips through its two blobs (the layout
    carries no block metadata any more; the name is kept for history)."""
    rng = np.random.default_rng(7)
    docs = np.unique(rng.integers(0, 10**12, size=5000)).astype(np.int64)
    tfs = rng.integers(1, 1000, size=docs.size).astype(np.int64)
    doc_blob, tf_blob = encode_postings(docs, tfs)
    d2, t2 = decode_postings(doc_blob, tf_blob, docs.size)
    assert np.array_equal(docs, d2)
    assert np.array_equal(tfs, t2)
    # the doc blob is exactly the varbyte of the deltas (first absolute)
    assert doc_blob == varbyte_encode(
        np.diff(docs, prepend=0).astype(np.uint64))
    assert tf_blob == varbyte_encode(tfs.astype(np.uint64))


def test_delta_compression_is_compact():
    # dense ascending docIDs must take ~1 byte per posting after delta
    docs = np.arange(10000, dtype=np.int64) + 5
    tfs = np.ones(10000, dtype=np.int64)
    doc_blob, tf_blob = encode_postings(docs, tfs)
    assert len(doc_blob) < 10100
    assert len(tf_blob) == 10000
