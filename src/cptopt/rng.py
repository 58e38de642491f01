"""Counter-based random substreams.

Every stochastic component in this package draws from a substream addressed
by a root seed plus an integer path, e.g. ``substream(seed, iteration, role)``.
Substreams derived from distinct paths are statistically independent, and the
same (seed, path) always reproduces the same stream, so batches may be
evaluated in any order or in parallel without changing results.

The stream of ``substream(root, *path)`` is, bit for bit, numpy's
``default_rng(SeedSequence(entropy, spawn_key=key + path))``, where
``entropy`` and ``key`` are the root's (an int root, read as an integer like
the path elements, so that a bool is refused, has an empty key).  The
seed sequence's mixing is done here, in Python, on 32-bit integer words; it
is the algorithm numpy documents as stable across versions (the hashmix and
mix constants, a pool of four words, and the entropy zero-padded to the pool
size when a spawn key follows).  The mixing is sequential: after the first
four words the pool absorbs one word at a time, so the pool and hash
constant reached after the entropy and all but the last key element are
shared by every sibling stream.  They are kept in a small dict (cleared when
full), and a stream costs the last element's mixing plus the eight state
words that numpy's ``PCG64`` seeds itself from (four 64-bit words, whose hash
constants are computed at import).

An optimizer run draws, at each iteration n, from the streams
``substream(seed, n, role)`` of its roles (perturbation, then one per
objective evaluation).  :func:`_iteration_streams` derives them a chunk of
``_CHUNK`` iterations at a time (the last chunk stops at the run's last
iteration): :func:`_chunk_pools` mixes every iteration's word, then every
role's word, into the pool after the seed, and works out the four PCG64
seeding words of each stream, all on numpy ``uint64`` arrays; each
iteration then only builds its ``PCG64`` bit generators from those words.
An iteration number of two or more 32-bit words changes the hash constants
its role mixes with, so a chunk that reaches ``n >= 2**32`` mixes its pools
one stream at a time in Python.  The streams are those of :func:`substream`,
bit for bit; :func:`substream` itself keeps the Python mixing, which is
cheaper for a single stream than any array call.

``substream(...).bit_generator.seed_seq`` is not a
``SeedSequence`` but a lighter :class:`numpy.random.bit_generator.
ISpawnableSeedSequence` with the same ``entropy``, ``spawn_key`` and
``generate_state``; its ``spawn`` delegates to one ``SeedSequence`` built on
first use, so ``Generator.spawn`` returns numpy's own children.
:func:`subseed` still returns a real ``SeedSequence``.
"""

from __future__ import annotations

import operator
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISpawnableSeedSequence

from ._codec import as_int

RootSeed = Union[int, np.random.SeedSequence]

# numpy's SeedSequence constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# (entropy, key prefix) -> (pool, hash constant) after mixing both in.  An
# entry is a pure function of its key, so threads racing on the dict can only
# recompute an entry, never read a wrong one.
_PREFIXES: dict = {}
_PREFIXES_MAX = 256


def _words(n: int) -> tuple[int, ...]:
    """Little-endian 32-bit words of a nonnegative int (0 is one word)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    if n <= _MASK32:
        return (n,)
    out = []
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return tuple(out)


def _entropy_words(entropy) -> tuple[int, ...]:
    """Words of an int or a (nested) sequence of ints, concatenated."""
    if hasattr(entropy, "__index__"):
        return _words(operator.index(entropy))
    return tuple(w for part in entropy for w in _entropy_words(part))


def _chain(h: int) -> tuple[int, int, int, int, int]:
    """The hash constant ``h`` and the four it steps through while a word is
    absorbed; they do not depend on the word or the pool."""
    h1 = (h * _MULT_A) & _MASK32
    h2 = (h1 * _MULT_A) & _MASK32
    h3 = (h2 * _MULT_A) & _MASK32
    return h, h1, h2, h3, (h3 * _MULT_A) & _MASK32


def _absorb(pool: tuple, chain: tuple, word: int) -> tuple:
    """Mix one more word into every pool entry (the tail of numpy's
    mix_entropy), unrolled over the four entries; ``chain`` is
    :func:`_chain` of the hash constant, and its last entry the next one."""
    a, b, c, d = pool
    h0, h1, h2, h3, h4 = chain
    v = ((word ^ h0) * h1) & _MASK32
    r = (_MIX_MULT_L * a - _MIX_MULT_R * (v ^ (v >> _XSHIFT))) & _MASK32
    a = r ^ (r >> _XSHIFT)
    v = ((word ^ h1) * h2) & _MASK32
    r = (_MIX_MULT_L * b - _MIX_MULT_R * (v ^ (v >> _XSHIFT))) & _MASK32
    b = r ^ (r >> _XSHIFT)
    v = ((word ^ h2) * h3) & _MASK32
    r = (_MIX_MULT_L * c - _MIX_MULT_R * (v ^ (v >> _XSHIFT))) & _MASK32
    c = r ^ (r >> _XSHIFT)
    v = ((word ^ h3) * h4) & _MASK32
    r = (_MIX_MULT_L * d - _MIX_MULT_R * (v ^ (v >> _XSHIFT))) & _MASK32
    return a, b, c, r ^ (r >> _XSHIFT)


def _extend(state: tuple[tuple, int], element: int) -> tuple[tuple, int]:
    """Mix the words of one key element into a (pool, hash constant) state."""
    pool, h = state
    for w in _words(element):
        chain = _chain(h)
        pool, h = _absorb(pool, chain, w), chain[-1]
    return pool, h


def _root_state(words: tuple[int, ...]) -> tuple[tuple, int]:
    """Pool and hash constant after mixing the (zero-padded) entropy words."""
    words = words + (0,) * (_POOL_SIZE - len(words))
    h = _INIT_A
    mixer = []
    for v in words[:_POOL_SIZE]:
        v ^= h
        h = (h * _MULT_A) & _MASK32
        v = (v * h) & _MASK32
        mixer.append(v ^ (v >> _XSHIFT))
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v = mixer[src] ^ h
                h = (h * _MULT_A) & _MASK32
                v = (v * h) & _MASK32
                v ^= v >> _XSHIFT
                r = (_MIX_MULT_L * mixer[dst] - _MIX_MULT_R * v) & _MASK32
                mixer[dst] = r ^ (r >> _XSHIFT)
    state = tuple(mixer), h
    for w in words[_POOL_SIZE:]:
        state = _extend(state, w)
    return state


def _prefix_state(entropy, prefix: tuple[int, ...]) -> tuple[tuple, int]:
    """Pool and hash constant after the entropy and the key words ``prefix``."""
    ck = (entropy if type(entropy) is int else _entropy_words(entropy), prefix)
    state = _PREFIXES.get(ck)
    if state is None:
        if prefix:
            state = _extend(_prefix_state(entropy, prefix[:-1]), prefix[-1])
        else:
            state = _root_state(_entropy_words(entropy))
        if len(_PREFIXES) >= _PREFIXES_MAX:
            _PREFIXES.clear()
        _PREFIXES[ck] = state
    return state


def _hash_table(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Hash constants of numpy's generate_state, (before, after) for the low
    and the high half of each of ``n`` 64-bit words; they do not depend on
    the pool."""
    table, h = [], _INIT_B
    for _ in range(n):
        h1 = (h * _MULT_B) & _MASK32
        h2 = (h1 * _MULT_B) & _MASK32
        table.append((h, h1, h1, h2))
        h = h2
    return tuple(table)


# the table for any n, grown by rebinding a new tuple, so no thread sees it
# half built; and the four words PCG64 seeds itself from, made at import
_STATE_HASHES: tuple[tuple[int, int, int, int], ...] = ()
_SEED_HASHES = _hash_table(4)


def _state_words64(pool: tuple, n: int) -> list[int]:
    """numpy's ``generate_state(n, np.uint64)`` from a mixed pool, as ints."""
    global _STATE_HASHES
    hashes = _STATE_HASHES
    if len(hashes) < n:
        _STATE_HASHES = hashes = _hash_table(n)
    out = []
    for i, (lo_before, lo_after, hi_before, hi_after) in enumerate(hashes[:n]):
        lo = ((pool[(2 * i) % _POOL_SIZE] ^ lo_before) * lo_after) & _MASK32
        hi = ((pool[(2 * i + 1) % _POOL_SIZE] ^ hi_before) * hi_after) & _MASK32
        out.append((lo ^ (lo >> _XSHIFT)) | ((hi ^ (hi >> _XSHIFT)) << 32))
    return out


def _seed_words(pool: tuple) -> np.ndarray:
    """``generate_state(4, np.uint64)``, the one call ``PCG64`` makes,
    unrolled: word i reads pool entries 2i and 2i + 1, modulo the pool size."""
    a, b, c, d = pool
    (lb0, la0, hb0, ha0), (lb1, la1, hb1, ha1), (lb2, la2, hb2, ha2), (lb3, la3, hb3, ha3) = (
        _SEED_HASHES
    )
    lo, hi = ((a ^ lb0) * la0) & _MASK32, ((b ^ hb0) * ha0) & _MASK32
    w0 = (lo ^ (lo >> _XSHIFT)) | (hi ^ (hi >> _XSHIFT)) << 32
    lo, hi = ((c ^ lb1) * la1) & _MASK32, ((d ^ hb1) * ha1) & _MASK32
    w1 = (lo ^ (lo >> _XSHIFT)) | (hi ^ (hi >> _XSHIFT)) << 32
    lo, hi = ((a ^ lb2) * la2) & _MASK32, ((b ^ hb2) * ha2) & _MASK32
    w2 = (lo ^ (lo >> _XSHIFT)) | (hi ^ (hi >> _XSHIFT)) << 32
    lo, hi = ((c ^ lb3) * la3) & _MASK32, ((d ^ hb3) * ha3) & _MASK32
    w3 = (lo ^ (lo >> _XSHIFT)) | (hi ^ (hi >> _XSHIFT)) << 32
    return np.array([w0, w1, w2, w3], np.uint64)


def _address(root: RootSeed, path: tuple) -> tuple[object, tuple[int, ...]]:
    """The root's entropy and the full spawn key ``root key + path``.

    An int root and each path element are read by :func:`as_int`, so a bool
    or a float raises TypeError; a negative one raises ValueError.
    """
    if isinstance(root, np.random.SeedSequence):
        entropy, key = root.entropy, root.spawn_key
    else:
        # an exact int, the usual root and path element, is read as given
        entropy, key = root if type(root) is int else as_int("root", root), ()
        if entropy < 0:
            raise ValueError("expected non-negative integer")
    if not all(type(p) is int for p in path):
        path = tuple([as_int(f"path[{i}]", p) for i, p in enumerate(path)])
    if path and min(path) < 0:
        raise ValueError("expected non-negative integer")
    return entropy, key + path


class _StreamSeed(ISpawnableSeedSequence):
    """Mixed pool of one substream, in the role numpy's SeedSequence plays;
    ``words``, when given, are the pool's precomputed PCG64 seeding words."""

    def __init__(self, entropy, spawn_key: tuple[int, ...], pool: Sequence[int], words=None):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self._pool = pool
        self._words: Optional[np.ndarray] = words
        self._spawner: Optional[np.random.SeedSequence] = None

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:  # the one call PCG64 makes
            return _seed_words(self._pool) if self._words is None else self._words.copy()
        dtype = np.dtype(dtype)
        if dtype == np.uint64:
            return np.array(_state_words64(self._pool, n_words), np.uint64)
        if dtype == np.uint32:
            wide = _state_words64(self._pool, (n_words + 1) // 2)
            words = [w for x in wide for w in (x & _MASK32, x >> 32)]
            return np.array(words[:n_words], np.uint32)
        raise ValueError("only support uint32 or uint64")

    def spawn(self, n_children):
        if self._spawner is None:
            self._spawner = np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key)
        return self._spawner.spawn(n_children)


def subseed(root: RootSeed, *path: int) -> np.random.SeedSequence:
    """Derive the seed sequence for ``path`` under ``root``."""
    entropy, key = _address(root, path)
    return np.random.SeedSequence(entropy=entropy, spawn_key=key)


def substream(root: RootSeed, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by ``path`` under ``root``."""
    entropy, key = _address(root, path)
    state = _prefix_state(entropy, key[:-1])
    if key:
        state = _extend(state, key[-1])
    return Generator(PCG64(_StreamSeed(entropy, key, state[0])))


# iterations seeded by one array pass: enough that the pass's fixed cost
# (about 40 us of ufunc calls) is small beside its streams', few enough that
# a long run never holds more than one chunk of seeds
_CHUNK = 256

# _SEED_HASHES as arrays over the four seeding words: word i hashes pool
# entries 2i and 2i + 1 (mod 4) into its low and its high half
_LO_BEFORE, _LO_AFTER, _HI_BEFORE, _HI_AFTER = (
    np.array(column, np.uint64) for column in zip(*_SEED_HASHES)
)
_LO_ENTRIES, _HI_ENTRIES = [0, 2, 0, 2], [1, 3, 1, 3]


def _absorb_array(pool: np.ndarray, chain: tuple, words: np.ndarray) -> np.ndarray:
    """:func:`_absorb` on ``uint64`` arrays of 32-bit values: each
    ``words[..., 0]`` mixed into the four-entry ``pool[..., :]``, broadcast."""
    v = ((words ^ np.array(chain[:-1], np.uint64)) * np.array(chain[1:], np.uint64)) & _MASK32
    r = (_MIX_MULT_L * pool - _MIX_MULT_R * (v ^ (v >> _XSHIFT))) & _MASK32
    return r ^ (r >> _XSHIFT)


def _chunk_pools(entropy, key: tuple, ns: range, roles: int) -> tuple[np.ndarray, np.ndarray]:
    """The mixed pools and the four PCG64 seeding words of the streams
    ``substream(root, n, r)`` for ``n`` in ``ns`` and ``r < roles``, where
    the root's address is ``entropy`` and ``key``: two ``uint64`` arrays of
    shape ``(len(ns), roles, 4)``.

    While every n is one 32-bit word, the mixing runs on arrays: each n, then
    each role (its own word), is absorbed into the pool after the root.
    """
    pool, h = _prefix_state(entropy, key)
    if ns[-1] > _MASK32:  # the hash constants depend on each n's word count
        pools = []
        for n in ns:
            pool_n, h_n = _extend((pool, h), n)
            chain = _chain(h_n)
            pools.append([_absorb(pool_n, chain, r) for r in range(roles)])
        pools = np.array(pools, np.uint64)
    else:
        chain = _chain(h)
        pools = _absorb_array(np.array(pool, np.uint64), chain, np.array(ns, np.uint64)[:, None])
        pools = _absorb_array(
            pools[:, None, :], _chain(chain[-1]), np.arange(roles, dtype=np.uint64)[:, None]
        )
    lo = ((pools[..., _LO_ENTRIES] ^ _LO_BEFORE) * _LO_AFTER) & _MASK32
    hi = ((pools[..., _HI_ENTRIES] ^ _HI_BEFORE) * _HI_AFTER) & _MASK32
    return pools, (lo ^ (lo >> _XSHIFT)) | ((hi ^ (hi >> _XSHIFT)) << 32)


def _iteration_streams(root: RootSeed, iters: int, roles: int) -> Iterator[list[PCG64]]:
    """For n = 1..iters in turn, the bit generators of ``substream(root, n,
    r)`` for ``r < roles``, mixed by :func:`_chunk_pools` a chunk of up to
    ``_CHUNK`` iterations at a time; each iteration builds only its own."""
    entropy, key = _address(root, ())
    for first in range(1, iters + 1, _CHUNK):
        ns = range(first, min(first + _CHUNK, iters + 1))
        pools, words = _chunk_pools(entropy, key, ns, roles)
        for n, pool, word in zip(ns, pools, words):
            yield [
                PCG64(_StreamSeed(entropy, key + (n, r), p, w))
                for r, (p, w) in enumerate(zip(pool.tolist(), word))
            ]


def stream_id(root: RootSeed, *path: int) -> str:
    """Stable textual identifier of a substream, ``"<entropy>:<key,...>"``;
    run summaries record each variant's training stream by it."""
    entropy, key = _address(root, path)
    return f"{entropy}:{','.join(map(str, key))}"
