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

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "SecretKey":
        return cls(rng.bytes(KEY_BYTES), rng.bytes(KEY_BYTES), rng.bytes(KEY_BYTES))


MODES = ("composed", "haar_exact", "pru_only")


@dataclass(frozen=True)
class ScramblerSpec:
    """How the keyed scrambler is realized.

    composed   -- pseudorandom brickwork circuit of depth 4z x keyed
                  exact-Haar 4-design surrogate x uniform Clifford (exact
                  2-design), applied in that operator order so the Clifford
                  acts first on the state.
    haar_exact -- a single keyed Haar unitary; the reference ensemble used by
                  all quantitative experiments.
    pru_only   -- just the brickwork factor.

    Each factor is drawn from its own single keyed stream.
    """

    mode: str = "composed"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


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


def _layer_blocks(z: int, layer: int) -> list[tuple[int, int]]:
    """(width, first qubit) of each gate of one brickwork layer, qubit 0 first.

    Even layers pair qubits (0, 1), (2, 3), ...; odd layers put a one-qubit
    gate on qubit 0 and pair (1, 2), (3, 4), ...; a leftover last qubit gets a
    one-qubit gate.
    """
    blocks = []
    q = 0
    if layer % 2 == 1 and z > 1:
        blocks.append((1, q))
        q = 1
    while q + 1 < z:
        blocks.append((2, q))
        q += 2
    if q < z:
        blocks.append((1, q))
    return blocks


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of square matrices, the first factor most significant.

    The same elementwise products as chained ``np.kron``, built by broadcast
    and reshape.
    """
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        n = len(out) * len(f)
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(n, n)
    return out


def sample_pru_surrogate(z: int, key_seed: bytes, depth: int) -> np.ndarray:
    """Keyed brickwork random circuit standing in for a pseudorandom unitary.

    No provable construction exists at desk scale; this surrogate is a
    heuristic whose low moments converge to Haar with depth.  Each gate is a
    Haar unitary on one or two qubits.  All gates come from the one keyed
    stream ``(key_seed, "pru", z)``, so the circuit is a pure function of the
    key seed: first every two-qubit gate, then every one-qubit gate, each in
    (layer, position) order, one stacked ``_haar`` call per width.

    No layer is formed as a 2^z x 2^z matrix: each layer is split at the gate
    boundary nearest qubit z/2 into Kronecker factors A (the leading qubits)
    and B, and applied as A on ``u.reshape(dim A, -1)`` followed by one
    broadcast product with B, O(2^z)^2 (dim A + dim B) work instead of
    O(2^z)^3.
    """
    qcore.check_qubits(z)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    layers = [_layer_blocks(z, layer) for layer in range(depth)]
    widths = [width for blocks in layers for width, _ in blocks]
    rng = keyed_rng(key_seed, "pru", z)
    # drawn in this order: the two-qubit gates first
    gates = {width: iter(_haar(2**width, [rng] * widths.count(width))) for width in (2, 1)}
    d = 2**z
    u = np.eye(d, dtype=complex)
    for blocks in layers:
        layer = [next(gates[width]) for width, _ in blocks]
        starts = [pos for _, pos in blocks] + [z]
        cut = min(range(len(starts)), key=lambda i: abs(2 * starts[i] - z))
        a, b = _kron(layer[:cut]), _kron(layer[cut:])
        u = (a @ u.reshape(len(a), -1)).reshape(len(a), len(b), d)
        u = np.matmul(b, u).reshape(d, d)
    return u


def _scrambler(key: SecretKey, z: int, spec: ScramblerSpec) -> np.ndarray:
    """The keyed scrambling unitary for the given spec, deterministic in key."""
    qcore.check_qubits(z)
    if spec.mode == "haar_exact":
        return _haar(2**z, [keyed_rng(key.k1 + key.k2 + key.k3, "haar_exact", z)])[0]
    v_pru = sample_pru_surrogate(z, key.k1, 4 * z)
    if spec.mode == "pru_only":
        return v_pru
    v_4 = sample_design4_surrogate(z, key.k2)
    v_2 = sample_clifford(z, key.k3)
    return v_pru @ v_4 @ v_2


@lru_cache(maxsize=64)
def build_scrambler(key: SecretKey, z: int, spec: ScramblerSpec) -> np.ndarray:
    """The keyed scrambling unitary for the given spec, deterministic in key.

    Cached: encrypt/decrypt/verify calls with the same key reuse the matrix,
    so it is returned read-only.
    """
    u = _scrambler(key, z, spec)
    u.flags.writeable = False
    return u


def sample_scramblers(z: int, mode: str, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One trial scrambler per generator, shape (len(rngs), 2^z, 2^z).

    In ``haar_exact`` mode each unitary is drawn directly from its generator
    (``sample_haar_batch``); in any other mode it is the keyed scrambler of a
    key freshly generated from it.  These one-shot keys are never reused, so
    they bypass ``build_scrambler``'s cache.
    """
    if mode == "haar_exact":
        return sample_haar_batch(z, rngs)
    spec = ScramblerSpec(mode=mode)
    return np.stack([_scrambler(SecretKey.generate(rng), z, spec) for rng in rngs])


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
