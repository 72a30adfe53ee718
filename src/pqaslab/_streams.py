"""Deterministic keyed random streams.

All keyed or seeded randomness in the package flows through one derivation:
a BLAKE2b hash (keyed where a secret key is involved) maps an arbitrary
context tuple to 256 bits of entropy, read as four big-endian 64-bit words,
which seed a PCG64 generator through numpy's ``SeedSequence``.  The
derivation is counter-free at this level; callers that need a sequence of
independent streams include a counter or trial index in the context.

``spawn_rngs`` derives the streams of many trial indices at once: the
context prefix is hashed once, and the ``SeedSequence`` pool mixing and
output hash run for all digests together in numpy uint32 arithmetic.  Each
generator is bitwise the one ``SeedSequence(words)`` gives.

``GENERATOR_ID`` names this derivation so that a report can state which
generator produced its numbers; the experiment records and CSV/JSON outputs
do not carry it.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

GENERATOR_ID = "blake2b-256/pcg64"

# numpy's SeedSequence: a pool of four 32-bit words, and the hash constant
# sequences its entropy mixing (A) and its output (B) step through
_POOL = 4
_MASK = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# below this many digests numpy's own SeedSequence is faster than the batch
_BATCH_MIN = 16
# trial streams spawn_rngs derives at a time
SPAWN_BATCH = 256


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The (xor, multiplier) pairs of ``count`` successive hashmix steps."""
    out, const = [], init
    for _ in range(count):
        nxt = (const * mult) & _MASK
        out.append((const, nxt))
        const = nxt
    return np.array(out, dtype=np.uint32)


# 4 entropy words, 4 x 3 cross mixes, up to 4 x 4 further entropy mixes
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12 + 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _encode(part) -> bytes:
    if isinstance(part, bytes):
        return b"B" + part
    if isinstance(part, str):
        return b"S" + part.encode("utf-8")
    if isinstance(part, (int, np.integer)):
        return b"I" + int(part).to_bytes(16, "big", signed=True)
    if isinstance(part, (tuple, list)):
        body = b"".join(_encode(p) for p in part)
        return b"T" + len(body).to_bytes(4, "big") + body
    raise TypeError(f"cannot derive a stream from {type(part).__name__}")


def _absorb(h, part) -> None:
    piece = _encode(part)
    h.update(len(piece).to_bytes(4, "big"))
    h.update(piece)


def _hasher(key: bytes | None, context, n: int):
    h = hashlib.blake2b(key=key or b"", digest_size=n)
    for part in context:
        _absorb(h, part)
    return h


def derive_bytes(key: bytes | None, *context, n: int = 32) -> bytes:
    """Hash (key, context) to ``n`` bytes, n <= 64."""
    return _hasher(key, context, n).digest()


def _entropy(digests: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The SeedSequence entropy of each digest's four big-endian 64-bit words,
    as a (k, 8) uint32 array and the length of each row.

    numpy splits each word into 32-bit limbs, low limb first, with no high
    limb when the word is below 2^32 (one zero limb for a zero word), so a
    row holds 4 to 8 words."""
    words = np.frombuffer(b"".join(digests), dtype=">u8").reshape(-1, 4)
    low = (words & _MASK).astype(np.uint32)
    high = (words >> 32).astype(np.uint32)
    rows = np.arange(len(words))
    entropy = np.zeros((len(words), 2 * _POOL), dtype=np.uint32)
    length = np.zeros(len(words), dtype=np.intp)
    for j in range(_POOL):
        entropy[rows, length] = low[:, j]
        length += 1
        has_high = high[:, j] != 0
        entropy[rows[has_high], length[has_high]] = high[has_high, j]
        length += has_high
    return entropy, length


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (value ^ consts[..., 0]) * consts[..., 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> 16)


def _seed_states(digests: Sequence[bytes]) -> np.ndarray:
    """The (k, 4) uint64 PCG64 seed words ``SeedSequence(words)`` gives for
    each digest: its pool mixing and ``generate_state(4, uint64)``, run over
    all digests at once.  Within each step of numpy's loops the pool words
    that change are independent of each other, so each step is one
    vectorized update over the digests and those words."""
    entropy, length = _entropy(digests)
    pool = _hashmix(entropy[:, :_POOL], _HASH_A[:_POOL])
    step = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], _HASH_A[step : step + 3]))
        step += 3
    # entropy beyond the pool; a row shorter than src + 1 stops before src
    for src in range(_POOL, 2 * _POOL):
        mixed = _mix(pool, _hashmix(entropy[:, src, None], _HASH_A[step : step + _POOL]))
        pool = np.where((length > src)[:, None], mixed, pool)
        step += _POOL
    state = _hashmix(np.tile(pool, 2), _HASH_B)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A precomputed PCG64 seed: the four words ``generate_state`` returns."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed serves PCG64 only")
        return self.words


def _generators(digests: Sequence[bytes]) -> list[np.random.Generator]:
    """One PCG64 generator per 32-byte digest, seeded by numpy's SeedSequence
    of its four big-endian 64-bit words (reproduced in one batch from
    ``_BATCH_MIN`` digests on)."""
    if len(digests) < _BATCH_MIN:
        seeds = [np.random.SeedSequence(np.frombuffer(d, dtype=">u8").tolist()) for d in digests]
    else:
        seeds = [_SeedState(words) for words in _seed_states(digests)]
    return [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]


def keyed_rng(key: bytes | None, *context) -> np.random.Generator:
    """Deterministic PCG64 generator for a (key, context) pair."""
    return _generators([derive_bytes(key, *context, n=32)])[0]


def spawn_rng(master_seed: int, *context) -> np.random.Generator:
    """Per-trial stream derived from an unkeyed master seed and context."""
    return keyed_rng(None, master_seed, *context)


def spawn_rngs(master_seed: int, context: tuple, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """``spawn_rng(master_seed, *context, i)`` for each i in ``indices``, in
    order, derived ``SPAWN_BATCH`` at a time: the (master_seed, *context)
    prefix is hashed once, and each batch's seeds in one ``_seed_states``."""
    prefix = _hasher(None, (master_seed, *context), 32)
    indices = iter(indices)
    while batch := list(itertools.islice(indices, SPAWN_BATCH)):
        digests = []
        for i in batch:
            h = prefix.copy()
            _absorb(h, i)
            digests.append(h.digest())
        yield from _generators(digests)
