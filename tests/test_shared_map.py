"""The shared map: a map whose versions share structure (``ledger.SharedMap``).

Every version must read as a plain dict with the same writes would, after
any later write to it or to a version made from it, and a write must copy
one chunk, not the map: a model test checks the first against dicts, over
random writes from random earlier versions across several chunks, and a
sharing test pins the second without timing anything.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakeclaim.ledger import _CHUNK, SharedMap

# Ints below the start overwrite, the rest append; names append to the end.
KEYS = st.integers(min_value=0, max_value=4 * _CHUNK) | st.sampled_from(["alice", "bob", "carol"])
NEVER_WRITTEN = (-1, 4 * _CHUNK + 1, "dave", 1.5)


def assert_reads_like(m: SharedMap, model: dict) -> None:
    """Every read of `m` gives what the same read of `model` gives."""
    assert len(m) == len(model)
    assert list(m) == list(model)
    assert list(m.items()) == list(model.items())
    assert list(m.values()) == list(model.values())
    assert m == model and model == m
    for key, value in model.items():
        assert key in m and m[key] == value and m.get(key) == value
    for key in NEVER_WRITTEN:
        assert key not in m and m.get(key, "none") == "none"
        with pytest.raises(KeyError):
            m[key]
    again = pickle.loads(pickle.dumps(m))
    assert type(again) is SharedMap and list(again.items()) == list(model.items())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2 * _CHUNK + 1, max_value=3 * _CHUNK), st.data())
def test_every_version_reads_like_its_dict(start, data):
    base = {k: -k for k in range(start)}        # three chunks or more
    versions = [(SharedMap(base), base)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        m, model = versions[data.draw(st.integers(min_value=0, max_value=len(versions) - 1))]
        key = data.draw(KEYS)
        if key in model and data.draw(st.integers(min_value=0, max_value=7)) == 0:
            versions.append((m.delete(key), {k: v for k, v in model.items() if k != key}))
        else:
            value = data.draw(st.integers())
            versions.append((m.set(key, value), {**model, key: value}))
    for m, model in versions:       # each as it was made, whatever was written after it
        assert_reads_like(m, model)


def test_versions_that_branch_keep_their_own_keys():
    m = SharedMap({"a": 1})
    b = m.set("b", 2)       # takes position 1 in the index the versions share
    c = m.set("c", 3)       # position 1 is b's: c's version copies the index
    b2 = m.set("b", 4)      # position 1 is already "b": shared again
    assert [list(x.items()) for x in (m, b, c, b2)] == [
        [("a", 1)], [("a", 1), ("b", 2)], [("a", 1), ("c", 3)], [("a", 1), ("b", 4)]]
    assert b2._index is b._index is m._index and c._index is not m._index
    assert "c" not in b and "b" not in c and "b" not in m


def test_a_write_shares_every_chunk_but_one_with_its_input():
    # 10,000 entries: 312 full chunks and a tail of 16. Each write, an
    # overwrite at the start, the middle, the end of the spine or in the
    # tail, or an append, copies one chunk and keeps every other object.
    m = SharedMap((k, k) for k in range(10_000))
    chunks = (*m._spine, m._tail)
    assert len(chunks) == 313 and len(m._tail) == 16
    for key in (0, 5_000, 9_983, 9_990, 10_000):
        new = m.set(key, -1)
        shared = sum(a is b for a, b in zip(chunks, (*new._spine, new._tail)))
        assert shared == len(chunks) - 1, key
        assert new._index is m._index
        assert new[key] == -1 and m.get(key) == (None if key == 10_000 else key)
