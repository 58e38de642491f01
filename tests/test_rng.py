"""Substreams against numpy's own SeedSequence -> PCG64 derivation.

The reference for every stream is ``np.random.default_rng(SeedSequence(
entropy, spawn_key=key + path))``, built here and nowhere in ``cptopt``;
the reference stream id is the ``SeedSequence``-based string the package
has always recorded in run traces.
"""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptopt import rng
from cptopt.rng import stream_id, subseed, substream

# word-boundary values: one, two and three 32-bit words
_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**128, 2**160 + 7)

words = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**32 - 1), st.integers(0, 2**200))
path_elements = st.one_of(words, st.integers(0, 2**63 - 1).map(np.int64))
paths = st.lists(path_elements, min_size=0, max_size=3).map(tuple)
entropies = st.one_of(words, st.lists(st.integers(0, 2**40), min_size=1, max_size=6))
keys = st.lists(st.integers(0, 2**40), min_size=0, max_size=2).map(tuple)


def reference_rng(entropy, key, path):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key + path))


def reference_stream_id(entropy, key, path):
    ss = np.random.SeedSequence(entropy, spawn_key=key + path)
    return f"{ss.entropy}:{','.join(str(k) for k in ss.spawn_key)}"


def roots(entropy, key):
    """The int root (when it addresses this stream) and the SeedSequence root."""
    out = [np.random.SeedSequence(entropy, spawn_key=key)]
    if isinstance(entropy, int) and not key:
        out.append(entropy)
    return out


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(5).tolist() == want.random(5).tolist()


@given(entropy=entropies, key=keys, path=paths)
@settings(max_examples=400, deadline=None)
def test_substream_matches_numpy(entropy, key, path):
    want_id = reference_stream_id(entropy, key, tuple(int(p) for p in path))
    for root in roots(entropy, key):
        assert_same_stream(substream(root, *path), reference_rng(entropy, key, path))
        assert stream_id(root, *path) == want_id


@given(entropy=entropies, key=keys, path=paths)
@settings(max_examples=100, deadline=None)
def test_repeated_calls_give_the_same_stream(entropy, key, path):
    for root in roots(entropy, key):
        first = substream(root, *path).bit_generator.state
        assert substream(root, *path).bit_generator.state == first


@pytest.mark.parametrize("path", [(), (0,), (2**32,), (2**64 + 1,), (7, 2**32, 0), (np.int64(5), 1)])
@pytest.mark.parametrize("entropy,key", [(0, ()), (12345, ()), (2**130, ()), (3, (0,)), ([1, 2, 3, 4, 5], (9, 2**33))])
def test_edge_paths_match_numpy(entropy, key, path):
    for root in roots(entropy, key):
        assert_same_stream(substream(root, *path), reference_rng(entropy, key, path))
        assert stream_id(root, *path) == reference_stream_id(entropy, key, tuple(int(p) for p in path))


def test_sibling_streams_share_a_prefix_but_differ():
    # the iteration loop's four roles under one (seed, n)
    states = [substream(11, 4, role).bit_generator.state for role in range(4)]
    assert all(s == reference_rng(11, (), (4, role)).bit_generator.state for role, s in enumerate(states))
    assert len({str(s) for s in states}) == 4


@pytest.mark.parametrize("root", [5, np.random.SeedSequence(5, spawn_key=(1,))])
def test_generator_spawn_gives_numpys_children(root):
    got = substream(root, 3, 2).spawn(2)
    want = reference_rng(5, tuple(getattr(root, "spawn_key", ())), (3, 2)).spawn(2)
    for g, w in zip(got, want):
        assert_same_stream(g, w)
    again = substream(root, 3, 2).bit_generator.seed_seq.spawn(1)[0]
    assert again.spawn_key == tuple(getattr(root, "spawn_key", ())) + (3, 2, 0)


@pytest.mark.parametrize("path", [(-1,), (0, -1), (-(2**40), 3)])
@pytest.mark.parametrize("root", [7, np.random.SeedSequence(7, spawn_key=(2,))])
def test_negative_path_element_rejected(root, path):
    with pytest.raises(ValueError):
        substream(root, *path)
    with pytest.raises(ValueError):
        stream_id(root, *path)


def test_negative_root_rejected():
    with pytest.raises(ValueError):
        substream(-3, 1)


@pytest.mark.parametrize("root", [3.7, 3.0, np.float64(3.0)])
def test_float_root_rejected(root):
    for derive in (substream, stream_id, subseed):
        with pytest.raises(TypeError):
            derive(root, 1)


@pytest.mark.parametrize(
    "root, path, name",
    [
        (True, (1,), "root"), (np.True_, (1,), "root"), (1, (True,), "path[0]"),
        (np.random.SeedSequence(1), (2, False), "path[1]"), (3, (1, 3.7), "path[1]"),
        (3, (1, 3.0), "path[1]"), (3, (1, np.float64(3.0)), "path[1]"),
    ],
)
def test_bool_or_float_root_or_path_element_rejected(root, path, name):
    for derive in (substream, stream_id, subseed):
        with pytest.raises(TypeError, match=rf"^{re.escape(name)} must be an integer, got "):
            derive(root, *path)


@pytest.mark.parametrize("root", [3, np.int64(3), np.uint32(3)])
def test_integer_roots_address_their_int_value(root):
    value = int(root)
    assert stream_id(root, 1) == f"{value}:1"
    assert_same_stream(substream(root, 1), reference_rng(value, (), (1,)))
    assert subseed(root, 1).entropy == value


def test_integer_like_path_elements_address_their_int_value():
    path = (np.int64(3), np.uint8(2))
    assert stream_id(5, *path) == "5:3,2"
    assert_same_stream(substream(5, *path), reference_rng(5, (), (3, 2)))
    assert subseed(5, *path).spawn_key == (3, 2)


def test_subseed_is_a_seed_sequence():
    ss = subseed(np.random.SeedSequence(9, spawn_key=(1,)), 2, 3)
    assert isinstance(ss, np.random.SeedSequence)
    assert ss.entropy == 9 and ss.spawn_key == (1, 2, 3)
    assert_same_stream(substream(ss), reference_rng(9, (1,), (2, 3)))


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
@pytest.mark.parametrize("path", [(), (3,), (3, 2**33)])
def test_seed_seq_generate_state_matches_numpy(path, dtype):
    seed_seq = substream(np.random.SeedSequence(4, spawn_key=(1,)), *path).bit_generator.seed_seq
    want = np.random.SeedSequence(4, spawn_key=(1,) + path)
    for n in range(10):
        assert seed_seq.generate_state(n, dtype).tolist() == want.generate_state(n, dtype).tolist()
    with pytest.raises(ValueError):
        seed_seq.generate_state(2, np.float64)


def test_threads_sharing_the_caches_draw_numpys_streams(monkeypatch):
    # every draw starts from an empty state-hash table and every fourth from
    # an empty prefix dict, so the threads keep racing to rebuild both; a
    # lost, duplicated or half-seen update would change a stream
    monkeypatch.setattr(rng, "_STATE_HASHES", ())
    monkeypatch.setattr(rng, "_PREFIXES", {})
    paths = [(seed, n, role) for seed in range(5) for n in range(60) for role in range(4)]
    want = {p: reference_rng(p[0], (), p[1:]).bit_generator.state for p in paths}
    bad, start = [], threading.Barrier(8)

    def work(offset):
        start.wait(timeout=10)
        for i, p in enumerate(paths[offset:] + paths[:offset]):
            rng._STATE_HASHES = ()
            if i % 4 == 0:
                rng._PREFIXES.clear()
            if substream(*p).bit_generator.state != want[p]:
                bad.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(17 * i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


# the one-pass derivation of an iteration's role streams


@given(
    entropy=entropies,
    key=keys,
    n=st.one_of(
        st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 + 1)),
        st.integers(0, 2**70),
        st.integers(0, 2**63 - 1).map(np.int64),
    ),
    count=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_role_streams_match_substream_and_numpy(entropy, key, n, count):
    for root in roots(entropy, key):
        got = rng._role_streams(root, n, count)
        assert len(got) == count
        for r, stream in enumerate(got):
            want = substream(root, n, r)
            assert stream.bit_generator.state == want.bit_generator.state
            assert stream.bit_generator.seed_seq.spawn_key == tuple(key) + (int(n), r)
            assert_same_stream(stream, reference_rng(entropy, key, (n, r)))
            assert_same_stream(want, reference_rng(entropy, key, (n, r)))


@pytest.mark.parametrize("root", [7, np.random.SeedSequence(7, spawn_key=(0,))])
def test_role_streams_spawn_numpys_children(root):
    key = tuple(getattr(root, "spawn_key", ()))
    for r, stream in enumerate(rng._role_streams(root, 3, 4)):
        for got, want in zip(stream.spawn(2), reference_rng(7, key, (3, r)).spawn(2)):
            assert_same_stream(got, want)
        seed_seq = stream.bit_generator.seed_seq
        for n_words, dtype in ((4, np.uint64), (3, np.uint64), (5, np.uint32)):
            want = np.random.SeedSequence(7, spawn_key=key + (3, r)).generate_state(n_words, dtype)
            assert seed_seq.generate_state(n_words, dtype).tolist() == want.tolist()


@pytest.mark.parametrize(
    "root, n, error",
    [(-1, 1, ValueError), (1, -1, ValueError), (True, 1, TypeError), (1, True, TypeError),
     (1, 2.0, TypeError), (1.0, 2, TypeError)],
)
def test_role_streams_check_the_address(root, n, error):
    with pytest.raises(error):
        rng._role_streams(root, n, 4)


def test_threads_deriving_role_streams_draw_numpys_streams(monkeypatch):
    # every derivation starts from an empty state-hash table and every fourth
    # from an empty prefix dict, while the threads derive each iteration's
    # four streams in one pass; a shared or half-seen state would change a
    # stream
    monkeypatch.setattr(rng, "_STATE_HASHES", ())
    monkeypatch.setattr(rng, "_PREFIXES", {})
    roots_ = [seed if seed % 2 else np.random.SeedSequence(seed, spawn_key=(0,)) for seed in range(5)]
    iterations = [(i, n) for i in range(len(roots_)) for n in range(60)]
    want = {
        (i, n): [
            reference_rng(i, tuple(getattr(roots_[i], "spawn_key", ())), (n, r))
            .bit_generator.state
            for r in range(4)
        ]
        for i, n in iterations
    }
    bad, start = [], threading.Barrier(8)

    def work(offset):
        start.wait(timeout=10)
        for j, (i, n) in enumerate(iterations[offset:] + iterations[:offset]):
            rng._STATE_HASHES = ()
            if j % 4 == 0:
                rng._PREFIXES.clear()
            got = [s.bit_generator.state for s in rng._role_streams(roots_[i], n, 4)]
            if got != want[i, n]:
                bad.append((i, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(17 * t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
