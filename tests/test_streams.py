"""Keyed random streams: every generator is numpy's own SeedSequence of the digest."""

import hashlib

import numpy as np
import pytest

from pqaslab import _streams
from pqaslab._streams import GENERATOR_ID, derive_bytes, keyed_rng, spawn_rng, spawn_rngs


def numpy_generator(digest: bytes) -> np.random.Generator:
    """numpy's own derivation: SeedSequence of the four big-endian 64-bit words."""
    words = [int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def constructed_digests() -> list[bytes]:
    """Digests whose entropy array is shorter than eight 32-bit words: a 64-bit
    word below 2^32 has no high limb, and a zero word is one zero limb."""
    rng = np.random.default_rng(5)
    small = (12345).to_bytes(8, "big")
    out = [bytes(32), small * 4, (1 << 32).to_bytes(8, "big") * 4]
    for position in range(4):
        for word in (bytes(8), small, (2**32 - 1).to_bytes(8, "big")):
            digest = bytearray(rng.bytes(32))
            digest[8 * position : 8 * position + 8] = word
            out.append(bytes(digest))
    return out


def test_generator_id_is_unchanged():
    assert GENERATOR_ID == "blake2b-256/pcg64"


def test_generators_are_numpy_seed_sequence():
    digests = [hashlib.blake2b(str(i).encode(), digest_size=32).digest() for i in range(5000)]
    digests += constructed_digests()
    for digest in digests:
        assert _streams._generator(digest).bit_generator.state == numpy_generator(digest).bit_generator.state


def test_constructed_digests_are_shorter_entropy():
    for digest in constructed_digests():
        gen, ref = _streams._generator(digest), numpy_generator(digest)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))


@pytest.mark.parametrize("count", [0, 1, 3, 16, 250, 519])
def test_spawn_rngs_is_spawn_rng(count):
    gens = list(spawn_rngs(41, ("auth-sweep",), range(count)))
    assert len(gens) == count
    for i, gen in enumerate(gens):
        ref = spawn_rng(41, "auth-sweep", i)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.integers(0, 2**62, size=4), ref.integers(0, 2**62, size=4))


def test_spawn_rngs_takes_any_indices_and_context():
    indices = [7, -3, 2**40, 0]
    gens = list(spawn_rngs(-5, ("scan", 2, b"x"), indices))
    for i, gen in zip(indices, gens):
        assert gen.bit_generator.state == spawn_rng(-5, "scan", 2, b"x", i).bit_generator.state


def test_keyed_rng_is_numpy_seed_sequence_of_the_digest():
    for key in (None, b"k" * 16):
        digest = derive_bytes(key, "ctx", 3, n=32)
        assert keyed_rng(key, "ctx", 3).bit_generator.state == numpy_generator(digest).bit_generator.state

