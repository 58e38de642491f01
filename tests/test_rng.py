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
from numpy.random import PCG64, Generator
from hypothesis import given, settings
from hypothesis import strategies as st

from cptopt import rng
from cptopt.rng import stream_id, subseed, substream
from cptopt.spsa import rademacher_vector

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


# an optimizer run's role streams, derived a chunk of iterations at a time


def reference_signs(entropy, key, n, count):
    """``rademacher_vector``'s draw of ``count`` signs from numpy's own
    stream of ``(entropy, key + (n, 0))``."""
    return rademacher_vector(reference_rng(entropy, tuple(key), (n, 0)), count)


def assert_chunk_matches_numpy(root, first, count, roles, signs=3):
    """``_chunk_pools`` against each stream's numpy ``SeedSequence``: its
    mixed pool and the four words ``PCG64`` seeds itself from; and role 0's
    signs against the draws of ``rademacher_vector`` from its stream."""
    entropy, key = rng._address(root, ())
    ns = range(first, first + count)
    pools, words, got_signs = rng._chunk_pools(entropy, key, ns, roles, signs)
    assert pools.shape == words.shape == (count, roles, 4)
    assert pools.dtype == words.dtype == np.uint64
    assert got_signs.shape == (count, signs)
    for i, n in enumerate(ns):
        assert got_signs[i].tobytes() == reference_signs(entropy, key, n, signs).tobytes()
        for r in range(roles):
            want = np.random.SeedSequence(entropy, spawn_key=tuple(key) + (n, r))
            assert pools[i, r].tolist() == want.pool.tolist()
            assert words[i, r].tolist() == want.generate_state(4, np.uint64).tolist()


# a chunk's first n: the array mixing up to 2**32 - 1, then the scalar one
firsts = st.one_of(
    st.sampled_from((0, 1, 256, 257, 2**32 - 8, 2**32 - 2, 2**32, 2**64 + 1)),
    st.integers(0, 2**33),
    st.integers(0, 2**70),
)


@given(
    entropy=entropies,
    key=keys,
    first=firsts,
    count=st.integers(1, 9),
    roles=st.integers(1, 4),
    signs=st.integers(1, 97),
)
@settings(max_examples=200, deadline=None)
def test_chunk_pools_match_numpy(entropy, key, first, count, roles, signs):
    for root in roots(entropy, key):
        assert_chunk_matches_numpy(root, first, count, roles, signs)


@given(
    words=st.lists(
        st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4), min_size=1, max_size=5
    ),
    count=st.integers(0, 40),
)
@settings(max_examples=200, deadline=None)
def test_raw_outputs_are_a_fresh_pcg64s(words, count):
    words = np.array(words, np.uint64)
    got = rng._raw_outputs(words, count)
    assert got.shape == (len(words), count) and got.dtype == np.uint64
    for row, w in zip(got, words):
        bits = PCG64(rng._StreamSeed(0, (), (0, 0, 0, 0), w))
        assert row.tolist() == bits.random_raw(count).tolist()


@pytest.mark.parametrize(
    "first, count",
    [(1, 1), (1, 256), (257, 256), (2**32 - 256, 256), (2**32 - 2, 256), (2**32 - 2, 3)],
)
@pytest.mark.parametrize(
    "entropy, key", [(2**200 + 3, ()), (7, (0,)), ([1, 2**33, 5], (3, 2**40))]
)
def test_full_chunks_and_the_word_edge_match_numpy(entropy, key, first, count):
    for root in roots(entropy, key):
        assert_chunk_matches_numpy(root, first, count, 4 if count < 256 else 2)


@pytest.mark.parametrize("iters", [0, 1, 2, 255, 256, 257, 600])
@pytest.mark.parametrize("roles", [1, 3, 4])
@pytest.mark.parametrize("root", [2**200 + 3, np.random.SeedSequence(5, spawn_key=(2,))])
def test_iteration_streams_chunk_the_run_and_stop_at_its_last_iteration(
    monkeypatch, root, iters, roles
):
    chunks, chunk_pools = [], rng._chunk_pools

    def spy(entropy, key, ns, roles, signs):
        chunks.append((ns.start, ns.stop, roles, signs))
        return chunk_pools(entropy, key, ns, roles, signs)

    monkeypatch.setattr(rng, "_chunk_pools", spy)
    got = list(rng._iteration_streams(root, iters, roles, 5))
    starts = range(1, iters + 1, rng._CHUNK)
    assert chunks == [(s, min(s + rng._CHUNK, iters + 1), roles, 5) for s in starts]
    assert len(got) == iters
    entropy, key = rng._address(root, ())
    for n, (signs, row) in enumerate(got, 1):
        assert signs.tobytes() == reference_signs(entropy, key, n, 5).tobytes()
        assert [type(b) for b in row] == [PCG64] * (roles - 1)  # none for role 0
        for r, bits in enumerate(row, 1):
            assert bits.seed_seq.spawn_key == key + (n, r)
            assert bits.state == substream(root, n, r).bit_generator.state


@pytest.mark.parametrize("root", [7, np.random.SeedSequence(7, spawn_key=(0,))])
def test_iteration_streams_spawn_and_generate_numpys_state(root):
    key = tuple(getattr(root, "spawn_key", ()))
    for n, (_, row) in enumerate(rng._iteration_streams(root, 3, 4, 1), 1):
        for r, bits in enumerate(row, 1):
            stream = Generator(bits)
            assert_same_stream(stream, reference_rng(7, key, (n, r)))
            for got, want in zip(stream.spawn(2), reference_rng(7, key, (n, r)).spawn(2)):
                assert_same_stream(got, want)
            for n_words, dtype in ((4, np.uint64), (3, np.uint64), (5, np.uint32), (8, np.uint64)):
                want = np.random.SeedSequence(7, spawn_key=key + (n, r))
                want = want.generate_state(n_words, dtype)
                assert bits.seed_seq.generate_state(n_words, dtype).tolist() == want.tolist()
            with pytest.raises(ValueError):
                bits.seed_seq.generate_state(2, np.float64)


def test_seeding_words_are_a_fresh_copy_each_call():
    seed_seq = list(rng._iteration_streams(11, 2, 3, 1))[1][1][1].seed_seq  # n = 2, role 2
    want = np.random.SeedSequence(11, spawn_key=(2, 2)).generate_state(4, np.uint64)
    first = seed_seq.generate_state(4, np.uint64)
    first[:] = 0
    second = seed_seq.generate_state(4, np.uint64)
    assert second is not first and second.flags.c_contiguous
    assert second.dtype == np.uint64 and second.tolist() == want.tolist()
    assert PCG64(seed_seq).state == PCG64(np.random.SeedSequence(11, spawn_key=(2, 2))).state


@pytest.mark.parametrize(
    "root, error", [(-1, ValueError), (True, TypeError), (np.True_, TypeError), (1.0, TypeError)]
)
def test_iteration_streams_check_the_root(root, error):
    with pytest.raises(error):
        next(rng._iteration_streams(root, 3, 4, 2))


def test_threads_deriving_iteration_streams_draw_numpys_streams(monkeypatch):
    # every run starts from an empty state-hash table and output-jump table,
    # and every fourth from an empty prefix dict, while the threads seed their
    # runs chunk by chunk (a chunk of 4 iterations, so each 60-iteration run
    # takes 15) and draw runs of 2..6 signs, so the jump table keeps growing;
    # a shared or half-seen state would change a stream or a sign
    monkeypatch.setattr(rng, "_STATE_HASHES", ())
    monkeypatch.setattr(rng, "_PREFIXES", {})
    monkeypatch.setattr(rng, "_OUTPUT_JUMPS", rng._OUTPUT_JUMPS[..., :0])
    monkeypatch.setattr(rng, "_CHUNK", 4)
    roots_ = [seed if seed % 2 else np.random.SeedSequence(seed, spawn_key=(0,)) for seed in range(5)]
    want = {
        i: [
            [reference_signs(i, getattr(root, "spawn_key", ()), n, 2 + i).tolist()]
            + [reference_rng(i, tuple(getattr(root, "spawn_key", ())), (n, r)).bit_generator.state
               for r in range(1, 4)]
            for n in range(1, 61)
        ]
        for i, root in enumerate(roots_)
    }
    bad, start = [], threading.Barrier(8)

    def work(offset):
        start.wait(timeout=10)
        for j in range(3 * len(roots_)):
            i = (offset + j) % len(roots_)
            rng._STATE_HASHES = ()
            rng._OUTPUT_JUMPS = rng._OUTPUT_JUMPS[..., :0]
            if j % 4 == 0:
                rng._PREFIXES.clear()
            streams = rng._iteration_streams(roots_[i], 60, 4, 2 + i)
            got = [[signs.tolist()] + [b.state for b in row] for signs, row in streams]
            if got != want[i]:
                bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
