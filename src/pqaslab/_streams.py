"""Deterministic keyed random streams.

All keyed or seeded randomness in the package flows through one derivation:
a BLAKE2b hash (keyed where a secret key is involved) maps an arbitrary
context tuple to 256 bits of entropy, which seeds a PCG64 generator.  The
derivation is counter-free at this level; callers that need a sequence of
independent streams include a counter or trial index in the context.

``GENERATOR_ID`` names this derivation so that a report can state which
generator produced its numbers; the experiment records and CSV/JSON outputs
do not carry it.
"""

from __future__ import annotations

import hashlib

import numpy as np

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


def keyed_rng(key: bytes | None, *context) -> np.random.Generator:
    """Deterministic PCG64 generator for a (key, context) pair."""
    digest = derive_bytes(key, *context, n=32)
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def spawn_rng(master_seed: int, *context) -> np.random.Generator:
    """Per-trial stream derived from an unkeyed master seed and context."""
    return keyed_rng(None, master_seed, *context)
