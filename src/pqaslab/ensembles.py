"""Keyed and random samplers for the unitary ensembles the scheme composes.

Every keyed sampler is a pure function of (key, size, options): the key and a
fixed context label are hashed into the seed of one generator (see
:mod:`pqaslab._streams`) and all randomness is consumed from it in a fixed
documented order, so repeated calls are bitwise identical.

The scrambler of ``SecretKey(k1, k2, k3)`` on z qubits (d = 2^z) reads each
factor from its own stream, in this order within the stream:

- ``haar_exact``: stream (k1 + k2 + k3, "haar_exact", z), one (2, d, d)
  block of standard normals, the real and then the imaginary Ginibre part;
- brickwork (``composed`` and ``pru_only``): stream (k1, "pru", z), one
  (count, 2, 4, 4) block for all two-qubit gates, then one (count, 2, 2, 2)
  block for all one-qubit gates, each in (layer, position) order;
- keyed Haar factor (``composed``): stream (k2, "design4", z), one
  (2, d, d) block;
- Clifford (``composed``): stream (k3, "clifford", z), the Sp(2z, 2) index
  by rejection and then 2z sign bits.

``build_scramblers`` builds a list of keys as one (k, d, d) stack, each entry
bitwise what the key alone gives.  The brickwork is evaluated as merged
pairs of layers, two Kronecker halves and one gate across the cut per pair
(see ``sample_pru_surrogate``), and in ``composed`` mode it is applied
straight onto the product of the other two factors.

U only ever acts on a padded input rho (x) |0><0|_tag (x) I_m, so most
readers need a fixed block of its columns, and ``build_scramblers`` builds
just that block when given a column selection: the keyed Haar factor is
still drawn and QR'd whole (its draw is the key's), but it multiplies only
the Clifford's selected columns, and the brickwork acts on the (d, cols)
block; ``pru_only`` starts from the identity's columns and keyed
``haar_exact`` slices its whole draw.  A block is built a multiple of
MIN_BLOCK = 4 columns wide (the selection repeated to fill it) and then
sliced: BLAS takes other kernels for the last one to three columns of a
product, so only such a block is bitwise the full build's columns.  The
readers:

- a Monte Carlo trial (``sample_scramblers``) reads the tag-|0> columns Y
  |a, 0, j> (``tag_zero_index``).  In ``haar_exact`` mode its generator (one
  per trial, from ``_streams.spawn_rngs``) gives one (2, d, 2^(n+m)) block of
  standard normals, real and then imaginary part, whose thin QR is a Haar
  isometry; in the keyed modes it gives a ``SecretKey`` and Y is that key's
  column block (``sample_scrambler_columns``);
- the vprdm and decoy runners of the harness read message |0>'s 2^m columns,
  the first 2^m (a (d, 2^m) isometry in ``haar_exact`` mode), and the EFI
  ensembles the first 2^m1, which serve both arms;
- ``vprdm_verify`` reads the first 2^m columns through ``leading_columns``;
- ``encrypt`` and ``authenticate`` read the tag-|0> columns and ``decrypt``
  all of them, from the cached whole unitary of ``build_scrambler``.

Cache policy: ``build_scrambler`` caches whole unitaries only, for the
session readers that come back to a key.  A one-shot trial key or an EFI key
never enters it, and ``leading_columns`` slices a key the cache already
holds but builds any other key's columns alone without inserting them, so
the cache holds only keys some caller read in full.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import wraps

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
    "sample_pru_surrogate",
    "build_scrambler",
    "build_scramblers",
    "sample_scramblers",
    "sample_scrambler_columns",
    "leading_columns",
    "tag_zero_columns",
    "tag_zero_index",
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


# Complex entries in the output of one stack of keyed unitaries: 64 keys at
# z = 5, one at z >= 8.  It caps the stack, not its build: the gate draws, their
# QR, the Haar and Clifford factors and the merged brickwork halves peak at
# several times the output (4.8 MB of numpy allocations for a 0.5 MB stack of
# 128 keys at z = 4, 7.5 MB for a full 1 MB chunk at z = 5, by tracemalloc).
STACK_ENTRIES = 2**16


def stack_size(z: int) -> int:
    """Keys per stack of z-qubit unitaries under STACK_ENTRIES, at least one."""
    return max(1, STACK_ENTRIES // 4**z)


# ---------------------------------------------------------------------------
# samplers


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """Ginibre matrices from (..., 2, dim, dim) standard normals, the real and
    then the imaginary part of each."""
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    g /= np.sqrt(2.0)
    return g


def _unitarize(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of Ginibre matrices: one batched QR,
    R-diagonal phases normalized.  The QR factors every matrix separately,
    so each entry is bitwise what a stack of one gives."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def _haar(rows: int, cols: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Stack of Haar isometries, one (rows, cols) matrix per generator, each
    drawn as one (2, rows, cols) block of standard normals (real part, then
    imaginary) and thin-QR'd.  The Q factor of a thin Ginibre block is
    distributed as any cols columns of a Haar unitary (Mezzadri, Notices AMS
    54, 2007); cols == rows gives Haar unitaries.  Each generator fills its
    slot of one preallocated buffer, the same normals it would draw alone."""
    normals = np.empty((len(rngs), 2, rows, cols))
    for rng, block in zip(rngs, normals):
        rng.standard_normal(out=block)
    return _unitarize(_ginibre(normals))


def sample_haar_batch(z: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Haar-random unitaries on z qubits, shape (len(rngs), 2^z, 2^z)."""
    qcore.check_qubits(z)
    return _haar(2**z, 2**z, rngs)


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
    return sample_clifford_dense(z, rng)


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


def _even_cut(z: int) -> int:
    """The even qubit cut c, 2 <= c < z, minimizing 2^c + 2^(z-c); z if none.

    No even layer has a gate across c, and every odd layer has exactly one,
    on qubits (c - 1, c)."""
    return min(range(2, z, 2), key=lambda c: 2**c + 2 ** (z - c), default=z)


def _kron(factors: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Kronecker product of stacks of k square matrices, the first factor most
    significant, by broadcast and reshape."""
    out = np.ones((k, 1, 1), dtype=complex)
    for f in factors:
        n = out.shape[-1] * f.shape[-1]
        out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(k, n, n)
    return out


def sample_pru_surrogate(
    z: int, key_seeds: Sequence[bytes], depth: int, u: np.ndarray | None = None
) -> np.ndarray:
    """Keyed brickwork random circuits standing in for a pseudorandom unitary,
    one per key seed, applied to the matching entry of the (k, 2^z, cols)
    stack ``u`` (the identity by default); the result has u's shape.

    No provable construction exists at desk scale; this surrogate is a
    heuristic whose low moments converge to Haar with depth.  Each gate is a
    Haar unitary on one or two qubits.  All gates of a key come from its one
    stream ``(key_seed, "pru", z)``, so the circuit is a pure function of the
    key seed: one (count, 2, 4, 4) block of standard normals for every
    two-qubit gate, then one (count, 2, 2, 2) block for every one-qubit gate,
    each in (layer, position) order.  One batched QR per width covers the
    whole stack.

    No layer is formed as a 2^z x 2^z matrix.  At the even cut c of
    ``_even_cut``, even layer 2j and odd layer 2j + 1 are merged into one
    pair: their gates on qubits below c (A) and at or above c (B) multiply
    into two Kronecker halves, and the odd layer's one gate across the cut
    follows.  A pair costs (2^c + 2^(z-c) + 4) (2^z)^2 multiply-adds per key
    instead of two layers of (dim A + dim B) (2^z)^2 each.
    """
    qcore.check_qubits(z)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    k, d, c = len(key_seeds), 2**z, _even_cut(z)
    layers = [_layer_blocks(z, layer) for layer in range(depth)]
    widths = [width for blocks in layers for width, _ in blocks]
    rngs = [keyed_rng(seed, "pru", z) for seed in key_seeds]
    # per stream, the two-qubit gates are drawn first
    gates = {}
    for w in (2, 1):
        g = _ginibre(np.stack([rng.standard_normal((widths.count(w), 2, 2**w, 2**w)) for rng in rngs]))
        gates[w] = iter(np.moveaxis(_unitarize(g), 1, 0))
    eye = np.broadcast_to(np.eye(2, dtype=complex), (k, 2, 2))
    halves = []
    for blocks in layers:
        a, b, cross = [], [], None
        for width, q in blocks:
            gate = next(gates[width])
            if q + width <= c:
                a.append(gate)
            elif q >= c:
                b.append(gate)
            else:
                a.append(eye)
                b.append(eye)
                cross = gate[:, None]
        halves.append((_kron(a, k), _kron(b, k)[:, None], cross))
    if u is None:
        u = np.broadcast_to(np.eye(d, dtype=complex), (k, d, d))
    cols = u.shape[-1]
    for even in range(0, depth, 2):
        a, b, _ = halves[even]
        cross = None
        if even + 1 < depth:
            a_odd, b_odd, cross = halves[even + 1]
            a, b = a_odd @ a, b_odd @ b
        u = a @ u.reshape(k, 2**c, -1)
        u = b @ u.reshape(k, 2**c, -1, cols)
        if cross is not None:
            u = cross @ u.reshape(k, 2 ** (c - 1), 4, -1)
    return u.reshape(k, d, cols)


# A column build computes a multiple of this many columns: such a block is
# bitwise those columns of the full build, while one of 1, 2 or 5 columns was
# found an ulp off (BLAS takes other kernels for a product's last columns).
MIN_BLOCK = 4


def _build_stack(keys: Sequence[SecretKey], z: int, spec: ScramblerSpec, cols) -> np.ndarray:
    """One chunk of ``build_scramblers``: columns ``cols`` (an index array, or
    ``slice(None)`` for all) of each key's unitary."""
    d = 2**z
    if spec.mode == "haar_exact":
        return _haar(d, d, [keyed_rng(key.k1 + key.k2 + key.k3, "haar_exact", z) for key in keys])[:, :, cols]
    if spec.mode == "composed":
        # keyed exact-Haar stand-in for the approximate 4-design factor: an
        # exact Haar draw realizes every t-design with zero error
        v_4 = _haar(d, d, [keyed_rng(key.k2, "design4", z) for key in keys])
        v_2 = np.stack([sample_clifford(z, key.k3) for key in keys])
        u = v_4 @ v_2[:, :, cols]
    else:
        eye = np.eye(d, dtype=complex)[:, cols]
        u = np.broadcast_to(eye, (len(keys), *eye.shape))
    return sample_pru_surrogate(z, [key.k1 for key in keys], 4 * z, u)


def build_scramblers(
    keys: Sequence[SecretKey], z: int, spec: ScramblerSpec, cols: np.ndarray | None = None
) -> np.ndarray:
    """The keyed scrambling unitaries of ``keys`` for the given spec, shape
    (len(keys), 2^z, 2^z), or only their columns ``cols`` (an index array),
    shape (len(keys), 2^z, len(cols)); deterministic in each key.

    Entry i is bitwise what ``[keys[i]]`` alone gives, and a column block is
    bitwise those columns of the full build (see the module docstring).  The
    stack is built in chunks of ``stack_size(z)`` keys.  In ``composed`` mode
    the brickwork of ``sample_pru_surrogate`` is applied straight onto the
    product v_4 v_2 of the keyed Haar factor and the Clifford's columns.  A
    selection is built padded to a multiple of MIN_BLOCK columns (repeating
    it) and sliced, or as the whole unitary if that would fill d columns.
    """
    qcore.check_qubits(z)
    size = stack_size(z)
    width = None if cols is None else -(-len(cols) // MIN_BLOCK) * MIN_BLOCK
    if width is None or width >= 2**z:
        sel, pick = slice(None), cols  # the whole unitary
    else:
        sel, pick = np.resize(cols, width), slice(len(cols))
    chunks = [_build_stack(keys[i : i + size], z, spec, sel) for i in range(0, len(keys), size)]
    stack = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return stack if pick is None else stack[:, :, pick]


CACHE_KEYS = 64
CACHE_ENTRIES = 2**22  # complex entries, 64 MiB
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _scrambler_cache(build):
    """Least-recently-used cache of ``build``'s unitaries, bounded by
    CACHE_KEYS keys and by CACHE_ENTRIES complex entries, whichever binds
    first: 64 keys up to z = 8, 16 at z = 9 and 4 at z = 10.  Like
    ``functools.lru_cache`` it has ``cache_info()`` (``maxsize`` is
    CACHE_KEYS) and ``cache_clear()``, and ``peek`` reads a held unitary
    without touching the counts or the order."""
    cache = OrderedDict()
    counts = {"hits": 0, "misses": 0}
    lock = threading.Lock()

    @wraps(build)
    def cached(key: SecretKey, z: int, spec: ScramblerSpec) -> np.ndarray:
        args = (key, z, spec)
        with lock:
            if args in cache:
                counts["hits"] += 1
                cache.move_to_end(args)
                return cache[args]
            counts["misses"] += 1
        u = build(*args)
        with lock:
            cache[args] = u
            while len(cache) > CACHE_KEYS or sum(v.size for v in cache.values()) > CACHE_ENTRIES:
                cache.popitem(last=False)
        return u

    def peek(key: SecretKey, z: int, spec: ScramblerSpec) -> np.ndarray | None:
        """The held unitary, or None; neither counted nor made more recent."""
        with lock:
            return cache.get((key, z, spec))

    def cache_clear() -> None:
        with lock:
            cache.clear()
            counts.update(hits=0, misses=0)

    cached.cache_info = lambda: CacheInfo(counts["hits"], counts["misses"], CACHE_KEYS, len(cache))
    cached.cache_clear = cache_clear
    cached.peek = peek
    return cached


@_scrambler_cache
def build_scrambler(key: SecretKey, z: int, spec: ScramblerSpec) -> np.ndarray:
    """The keyed scrambling unitary for the given spec, deterministic in key.

    Cached (see ``_scrambler_cache``: at most 64 keys and 2^22 complex
    entries): encrypt/decrypt/verify calls with the same key reuse the
    matrix, so it is returned read-only, as an array that owns its memory
    (no writable base to reach it through).
    """
    u = build_scramblers([key], z, spec)[0].copy()
    u.flags.writeable = False
    return u


def leading_columns(key: SecretKey, z: int, spec: ScramblerSpec, count: int) -> np.ndarray:
    """The first ``count`` columns of the key's scrambler as a (2^z, count)
    view: of the cached unitary when ``build_scrambler`` holds the key, else
    of a block built alone by ``build_scramblers`` and not cached, so a key
    read only in part never takes a cache slot.  A single column is a
    strided view either way, as slicing the whole unitary gives it."""
    u = build_scrambler.peek(key, z, spec)
    return u[:, :count] if u is not None else build_scramblers([key], z, spec, np.arange(count))[0]


def tag_zero_columns(u: np.ndarray, partition: qcore.QubitPartition) -> np.ndarray:
    """The tag-|0> columns of U (or of each U in a stack) as a (..., d, dn, dm)
    view, Y[x, a, j] = <x|U|a, 0, j>; read-only when U is."""
    dn, dl, dm = partition.dims
    return u.reshape(*u.shape[:-1], dn, dl, dm)[..., 0, :]


def tag_zero_index(partition: qcore.QubitPartition) -> np.ndarray:
    """Indices of the tag-|0> columns |a, 0, j>, a-major: the columns
    ``tag_zero_columns`` views."""
    dn, dl, dm = partition.dims
    return (np.arange(dn)[:, None] * (dl * dm) + np.arange(dm)).ravel()


def sample_scrambler_columns(z: int, mode: str, rngs: Sequence[np.random.Generator], cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of one trial scrambler on z qubits per generator,
    shape (len(rngs), 2^z, len(cols)).

    In ``haar_exact`` mode they are a Haar isometry drawn from the generator
    (``_haar``: one (2, 2^z, len(cols)) block of normals thin-QR'd),
    distributed as any len(cols) columns of a Haar unitary.  In any other
    mode they are the column build of a key freshly generated from the
    generator; these one-shot keys bypass ``build_scrambler``'s cache.
    """
    qcore.check_qubits(z)
    if mode == "haar_exact":
        return _haar(2**z, len(cols), rngs)
    return build_scramblers([SecretKey.generate(rng) for rng in rngs], z, ScramblerSpec(mode=mode), cols)


def sample_scramblers(partition: qcore.QubitPartition, mode: str, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The tag-|0> columns Y of one trial scrambler per generator, shape
    (len(rngs), d, 2^n, 2^m), from ``sample_scrambler_columns``: every Monte
    Carlo consumer reads U only on the padded input rho (x) |0><0|_tag (x)
    I_m, so only on these columns.  Its consumers are the security scan, the
    auth sweep, the qubit-count interception and the multistate runner of
    the harness.  In ``haar_exact`` mode Y is one (2, d, 2^(n+m)) block of
    standard normals thin-QR'd.
    """
    dn, _, dm = partition.dims
    ys = sample_scrambler_columns(partition.z, mode, rngs, tag_zero_index(partition))
    return ys.reshape(len(rngs), 2**partition.z, dn, dm)


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
