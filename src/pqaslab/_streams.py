"""Deterministic keyed random streams.

All keyed or seeded randomness in the package flows through one derivation:
a BLAKE2b hash (keyed where a secret key is involved) maps an arbitrary
context tuple to 256 bits of entropy, read as four big-endian 64-bit words,
which seed a PCG64 generator through numpy's ``SeedSequence``.  The
derivation is counter-free at this level; callers that need a sequence of
independent streams include a counter or trial index in the context.

Every generator, one key's or one of many trials', is numpy's own
``PCG64(SeedSequence(words))``; ``spawn_rngs`` is ``spawn_rng`` over an
iterable of trial indices, deriving each stream only when it is reached.

``GENERATOR_ID`` names this derivation so that a report can state which
generator produced its numbers; the experiment records and CSV/JSON outputs
do not carry it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

GENERATOR_ID = "blake2b-256/pcg64"


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


def derive_bytes(key: bytes | None, *context, n: int = 32) -> bytes:
    """Hash (key, context) to ``n`` bytes, n <= 64."""
    h = hashlib.blake2b(key=key or b"", digest_size=n)
    for part in context:
        piece = _encode(part)
        h.update(len(piece).to_bytes(4, "big"))
        h.update(piece)
    return h.digest()


def _generator(digest: bytes) -> Generator:
    """PCG64 seeded by numpy's SeedSequence of a 32-byte digest's four
    big-endian 64-bit words."""
    return Generator(PCG64(SeedSequence(np.frombuffer(digest, dtype=">u8").tolist())))


def keyed_rng(key: bytes | None, *context) -> Generator:
    """Deterministic PCG64 generator for a (key, context) pair."""
    return _generator(derive_bytes(key, *context, n=32))


def spawn_rng(master_seed: int, *context) -> Generator:
    """Per-trial stream derived from an unkeyed master seed and context."""
    return keyed_rng(None, master_seed, *context)


def spawn_rngs(master_seed: int, context: tuple, indices: Iterable[int]) -> Iterator[Generator]:
    """``spawn_rng(master_seed, *context, i)`` for each i in ``indices``, in
    order, each derived when it is reached."""
    return (spawn_rng(master_seed, *context, i) for i in indices)
