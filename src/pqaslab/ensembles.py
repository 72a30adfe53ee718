"""Keyed and random samplers for the unitary ensembles the scheme composes.

Every keyed sampler is a pure function of (key, size, options): the key and a
fixed context label are hashed into a counter-mode byte stream (see
:mod:`pqaslab._streams`) and all randomness is consumed from it in a fixed
documented order, so repeated calls are bitwise identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qcore
from ._clifford import sample_clifford_dense
from ._streams import GENERATOR_ID, keyed_rng

__all__ = [
    "GENERATOR_ID",
    "SecretKey",
    "ScramblerSpec",
    "sample_haar",
    "sample_haar_batch",
    "sample_clifford",
    "sample_design4_surrogate",
    "sample_pru_surrogate",
    "build_scrambler",
    "sample_scramblers",
    "sample_ghse",
    "random_pure_state",
]

KEY_BYTES = 16


@dataclass(frozen=True)
class SecretKey:
    """Seed triple (k1, k2, k3) selecting the scrambler; equality is bitwise."""

    k1: bytes
    k2: bytes
    k3: bytes

    def __post_init__(self):
        for part in (self.k1, self.k2, self.k3):
            if len(part) != KEY_BYTES:
                raise ValueError(f"key parts must be {KEY_BYTES} bytes")

    @property
    def bits(self) -> int:
        return 8 * (len(self.k1) + len(self.k2) + len(self.k3))

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "SecretKey":
        return cls(rng.bytes(KEY_BYTES), rng.bytes(KEY_BYTES), rng.bytes(KEY_BYTES))

    @classmethod
    def from_int(cls, value: int) -> "SecretKey":
        """Deterministic key for an integer label; parts derived by hashing."""
        from ._streams import derive_bytes

        parts = [derive_bytes(None, "secret-key", value, i, n=KEY_BYTES) for i in range(3)]
        return cls(*parts)


MODES = ("composed", "haar_exact", "pru_only")


@dataclass(frozen=True)
class ScramblerSpec:
    """How the keyed scrambler is realized.

    composed   -- pseudorandom brickwork circuit x keyed exact-Haar 4-design
                  surrogate x uniform Clifford (exact 2-design), applied in
                  that operator order so the Clifford acts first on the state.
    haar_exact -- a single keyed Haar unitary; the reference ensemble used by
                  all quantitative experiments.
    pru_only   -- just the brickwork factor.
    """

    mode: str = "composed"
    pru_depth: int | None = None  # None means 4 * z

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.pru_depth is not None and self.pru_depth < 1:
            raise ValueError("pru_depth must be at least 1")

    def depth_for(self, z: int) -> int:
        return self.pru_depth if self.pru_depth is not None else 4 * z


# ---------------------------------------------------------------------------
# samplers


def _haar(dim: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Stack of Haar unitaries, one per generator: Ginibre matrices, one
    batched QR, R-diagonal phases normalized.

    Each Ginibre matrix is drawn from its own generator in the same order as a
    lone draw, and the batched QR factors every matrix separately, so entry i
    is bitwise the unitary a batch of one would give for ``rngs[i]``.
    """
    g = np.empty((len(rngs), dim, dim), dtype=complex)
    for i, rng in enumerate(rngs):
        g[i] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g /= np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def sample_haar_batch(z: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Haar-random unitaries on z qubits, shape (len(rngs), 2^z, 2^z)."""
    qcore.check_qubits(z)
    return _haar(2**z, rngs)


def sample_haar(z: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary on z qubits."""
    return sample_haar_batch(z, [rng])[0]


def sample_clifford(z: int, source) -> np.ndarray:
    """Uniformly random z-qubit Clifford as a dense matrix.

    ``source`` is either a Generator (random draw) or a bytes key seed
    (deterministic draw).  The tableau is sampled exactly uniformly and then
    synthesized; see :mod:`pqaslab._clifford`.
    """
    qcore.check_qubits(z)
    rng = keyed_rng(source, "clifford", z) if isinstance(source, bytes) else source
    u, _, _ = sample_clifford_dense(z, rng)
    return u


def sample_design4_surrogate(z: int, key_seed: bytes) -> np.ndarray:
    """Keyed stand-in for the approximate 4-design factor.

    A key-seeded exact Haar sample: an exact Haar draw realizes every
    t-design with relative error 0, which exceeds the requirement; the
    low-depth circuit realizations are out of scope here.
    """
    qcore.check_qubits(z)
    return _haar(2**z, [keyed_rng(key_seed, "design4", z)])[0]


def _brickwork_layer(z: int, key_seed: bytes, layer: int) -> np.ndarray:
    """One brickwork layer; every gate gets its own (key, counter) stream."""
    offset = layer % 2
    blocks = []
    q = 0
    if offset == 1 and z > 1:
        blocks.append((1, q))
        q = 1
    while q + 1 < z:
        blocks.append((2, q))
        q += 2
    if q < z:
        blocks.append((1, q))
    out = None
    for width, pos in blocks:
        gate = _haar(2**width, [keyed_rng(key_seed, "pru-gate", z, layer, pos)])[0]
        out = gate if out is None else np.kron(out, gate)
    return out


def sample_pru_surrogate(z: int, key_seed: bytes, depth: int) -> np.ndarray:
    """Keyed brickwork random circuit standing in for a pseudorandom unitary.

    No provable construction exists at desk scale; this surrogate is a
    heuristic whose low moments converge to Haar with depth.  Each two-qubit
    gate is a Haar 4x4 unitary whose parameters come from a keyed counter
    stream indexed by (layer, position), so the circuit is a pure function of
    the key seed.
    """
    qcore.check_qubits(z)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    u = np.eye(2**z, dtype=complex)
    for layer in range(depth):
        u = _brickwork_layer(z, key_seed, layer) @ u
    return u


@lru_cache(maxsize=64)
def build_scrambler(key: SecretKey, z: int, spec: ScramblerSpec) -> np.ndarray:
    """The keyed scrambling unitary for the given spec, deterministic in key.

    Cached: encrypt/decrypt/verify calls with the same key reuse the matrix,
    so it is returned read-only.
    """
    qcore.check_qubits(z)
    if spec.mode == "haar_exact":
        u = _haar(2**z, [keyed_rng(key.k1 + key.k2 + key.k3, "haar_exact", z)])[0]
    elif spec.mode == "pru_only":
        u = sample_pru_surrogate(z, key.k1, spec.depth_for(z))
    else:
        v_pru = sample_pru_surrogate(z, key.k1, spec.depth_for(z))
        v_4 = sample_design4_surrogate(z, key.k2)
        v_2 = sample_clifford(z, key.k3)
        u = v_pru @ v_4 @ v_2
    u.flags.writeable = False
    return u


def sample_scramblers(z: int, mode: str, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One trial scrambler per generator, shape (len(rngs), 2^z, 2^z).

    In ``haar_exact`` mode each unitary is drawn directly from its generator
    (``sample_haar_batch``); in any other mode it is the keyed scrambler of a
    key freshly generated from it.
    """
    if mode == "haar_exact":
        return sample_haar_batch(z, rngs)
    spec = ScramblerSpec(mode=mode)
    return np.stack([build_scrambler(SecretKey.generate(rng), z, spec) for rng in rngs])


def random_pure_state(z: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector on z qubits."""
    qcore.check_qubits(z)
    v = rng.standard_normal(2**z) + 1j * rng.standard_normal(2**z)
    return v / np.linalg.norm(v)


def sample_ghse(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Random mixed state: trace m qubits from an (n+m)-qubit Haar pure state.

    Rank is at most 2^m; m = 0 reproduces Haar-random pure states and m = n
    the Hilbert-Schmidt ensemble.
    """
    qcore.check_qubits(n + m)
    psi = random_pure_state(n + m, rng)
    mat = psi.reshape(2**n, 2**m)
    return mat @ mat.conj().T
