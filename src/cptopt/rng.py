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
words that numpy's ``PCG64`` seeds itself from.

``substream(...).bit_generator.seed_seq`` is not a
``SeedSequence`` but a lighter :class:`numpy.random.bit_generator.
ISpawnableSeedSequence` with the same ``entropy``, ``spawn_key`` and
``generate_state``; its ``spawn`` delegates to one ``SeedSequence`` built on
first use, so ``Generator.spawn`` returns numpy's own children.
:func:`subseed` still returns a real ``SeedSequence``.
"""

from __future__ import annotations

import operator
from typing import Optional, Union

import numpy as np
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


def _absorb(pool: tuple, h: int, word: int) -> tuple[tuple, int]:
    """Mix one more word into every pool entry (the tail of numpy's mix_entropy)."""
    out = []
    for x in pool:
        v = word ^ h
        h = (h * _MULT_A) & _MASK32
        v = (v * h) & _MASK32
        v ^= v >> _XSHIFT
        r = (_MIX_MULT_L * x - _MIX_MULT_R * v) & _MASK32
        out.append(r ^ (r >> _XSHIFT))
    return tuple(out), h


def _extend(state: tuple[tuple, int], element: int) -> tuple[tuple, int]:
    """Mix the words of one key element into a (pool, hash constant) state."""
    pool, h = state
    for w in _words(element):
        pool, h = _absorb(pool, h, w)
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
    pool = tuple(mixer)
    for w in words[_POOL_SIZE:]:
        pool, h = _absorb(pool, h, w)
    return pool, h


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


# hash constants of numpy's generate_state, (before, after) for the low and
# the high half of each 64-bit word; they do not depend on the pool.  The
# table grows by rebinding a new tuple, so no thread sees it half built.
_STATE_HASHES: tuple[tuple[int, int, int, int], ...] = ()


def _state_words64(pool: tuple, n: int) -> list[int]:
    """numpy's ``generate_state(n, np.uint64)`` from a mixed pool, as ints."""
    global _STATE_HASHES
    hashes = _STATE_HASHES
    if len(hashes) < n:
        table, h = [], _INIT_B
        for _ in range(n):
            h1 = (h * _MULT_B) & _MASK32
            h2 = (h1 * _MULT_B) & _MASK32
            table.append((h, h1, h1, h2))
            h = h2
        _STATE_HASHES = hashes = tuple(table)
    out = []
    for i, (lo_before, lo_after, hi_before, hi_after) in enumerate(hashes[:n]):
        lo = ((pool[(2 * i) % _POOL_SIZE] ^ lo_before) * lo_after) & _MASK32
        hi = ((pool[(2 * i + 1) % _POOL_SIZE] ^ hi_before) * hi_after) & _MASK32
        out.append((lo ^ (lo >> _XSHIFT)) | ((hi ^ (hi >> _XSHIFT)) << 32))
    return out


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
    """Mixed pool of one substream, in the role numpy's SeedSequence plays."""

    def __init__(self, entropy, spawn_key: tuple[int, ...]):
        self.entropy = entropy
        self.spawn_key = spawn_key
        state = _prefix_state(entropy, spawn_key[:-1])
        if spawn_key:
            state = _extend(state, spawn_key[-1])
        self._pool = state[0]
        self._spawner: Optional[np.random.SeedSequence] = None

    def generate_state(self, n_words, dtype=np.uint32):
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
    return np.random.Generator(np.random.PCG64(_StreamSeed(*_address(root, path))))


def stream_id(root: RootSeed, *path: int) -> str:
    """Stable textual identifier of a substream, ``"<entropy>:<key,...>"``;
    run summaries record each variant's training stream by it."""
    entropy, key = _address(root, path)
    return f"{entropy}:{','.join(map(str, key))}"
