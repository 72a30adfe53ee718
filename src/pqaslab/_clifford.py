"""Uniform Clifford-group sampling with dense-matrix synthesis.

Sampling is exact-uniform by construction: a uniform integer index is mapped
bijectively to an element of the binary symplectic group Sp(2n, 2) using the
transvection decomposition of Koenig and Smolin (J. Math. Phys. 55, 122202),
and 2n uniform sign bits fix the Pauli part.  The group has

    |Sp(2n, 2)| = prod_{j=1..n} (4^j - 1) 4^j / 2

elements; see :func:`symplectic_group_order`.

The dense unitary is rebuilt from the tableau without circuit synthesis:
the column U|x> equals (prod_i Qi^{x_i}) |phi0>, where Qi is the signed Pauli
image of X_i and |phi0> is the unique state stabilized by the signed images
of the Z_i.  The 2n signed images are one pair of (2n, 2^n) tables, a source
index and an amplitude per basis state, computed with integer bit operations
over every tableau row at once (``_signed_paulis``).  The global phase is
fixed canonically so key-seeded sampling is bitwise reproducible.

Binary symplectic vectors use the interleaved basis (x1, z1, x2, z2, ...).
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Sp(2n, 2) via transvections


def symplectic_group_order(n: int) -> int:
    order = 1
    for j in range(1, n + 1):
        order *= (4**j - 1) * (4**j // 2)
    return order


# Symplectic vectors are Python ints: bit j holds entry j of (x1, z1, x2, z2, ...).
_EVEN = int("01" * 64, 2)  # the x positions 0, 2, 4, ... of up to 64 qubits


def _inner(v: int, w: int) -> int:
    """Symplectic form sum_i v_xi w_zi + v_zi w_xi (mod 2), as a popcount parity."""
    return (((v >> 1) & w ^ v & (w >> 1)) & _EVEN).bit_count() & 1


def _transvection(k: int, v: int) -> int:
    return v ^ k if _inner(k, v) else v


def _find_transvection(x: int, y: int, n: int) -> tuple[int, int]:
    """Two transvection vectors (h0, h1) with Z_h1 Z_h0 x = y, on n qubits."""
    if x == y:
        return 0, 0
    if _inner(x, y):
        return x ^ y, 0
    # look for a qubit where both vectors have support; (v >> i) & 3 holds
    # the (x, z) bits of qubit i / 2
    for i in range(0, 2 * n, 2):
        xi, yi = (x >> i) & 3, (y >> i) & 3
        if xi and yi:
            zi = xi ^ yi
            if not zi:  # same support pattern on this qubit
                zi = 2 | (xi != 3)
            return x ^ (zi << i), y ^ (zi << i)
    # disjoint supports: bridge through a qubit touched by only one of them
    z = 0
    for own, other in ((x, y), (y, x)):
        for i in range(0, 2 * n, 2):
            bits = (own >> i) & 3
            if bits and not (other >> i) & 3:
                z |= (2 if bits == 3 else (bits & 1) << 1 | bits >> 1) << i
                break
    return x ^ z, y ^ z


def _symplectic_rows(index: int, n: int) -> list[int]:
    """Rows of the index-th element of Sp(2n, 2) as ints, the images of the
    basis vectors (x1, z1, x2, z2, ...); a bijection for 0 <= index < order."""
    nn = 2 * n
    s = (1 << nn) - 1
    f1 = (index % s) + 1
    index //= s
    t0, t1 = _find_transvection(1, f1, n)  # maps e1 to f1
    bits = index % (1 << (nn - 1))
    index >>= nn - 1
    h0 = _transvection(t1, _transvection(t0, 1 | (bits >> 1) << 2))
    if bits & 1:
        f1 = 0
    rows = [1, 2] if n == 1 else [1, 2] + [row << 2 for row in _symplectic_rows(index, n - 1)]
    return [_transvection(f1, _transvection(h0, _transvection(t1, _transvection(t0, row)))) for row in rows]


# ---------------------------------------------------------------------------
# signed Pauli images as index/amplitude tables, and the dense unitary


def _signed_paulis(n: int, rows: list[int], signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source-index and amplitude tables, each (len(rows), 2^n), of the signed
    Paulis (-1)^sign i^(x.z) X^x Z^z of the symplectic ``rows``.

    x and z are a row's qubit bitmasks, qubit 0 the most significant bit.
    Row r acts on a vector as (P_r v)[b] = amps[r, b] * v[source[r, b]], with
    source[r, b] = b XOR x and amps[r, b] = phase (-1)^(z.source[r, b]); the
    i^(x.z) factor of the phase makes P_r Hermitian.
    """
    packed = np.array(rows, dtype=np.int64)[:, None]
    basis = np.arange(2**n)
    source = np.repeat(basis[None], len(rows), axis=0)
    zpar = np.zeros_like(source)
    for i in range(n):  # qubit i: bits 2i and 2i + 1 of a row, bit n - 1 - i of a basis index
        x, z = packed >> 2 * i & 1, packed >> 2 * i + 1 & 1
        source ^= x << n - 1 - i
        zpar ^= z & (basis >> n - 1 - i ^ x)
    # x.z counts the qubits whose x and z bits are both set
    phases = np.array([(-1.0) ** int(s) * (1j) ** ((r >> 1 & r & _EVEN).bit_count() % 4) for r, s in zip(rows, signs)])
    return source, phases[:, None] * (-1.0) ** zpar


def _stabilized_state(source: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Unit vector fixed by every signed Pauli of the tables, found by
    sequential projection."""
    dim = source.shape[1]
    for start in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[start] = 1.0
        for src, amp in zip(source, amps):
            v = 0.5 * (v + amp * v[src])
            if np.vdot(v, v).real < 1e-12:
                break
        else:
            v = v / np.sqrt(np.vdot(v, v).real)
            # canonical global phase: first sizable entry made real positive
            j = int(np.argmax(np.abs(v) > 1e-8))
            return v * (abs(v[j]) / v[j])
    raise ArithmeticError("no stabilized state found; tableau is inconsistent")


def clifford_dense_from_tableau(n: int, rows: list[int], signs: np.ndarray) -> np.ndarray:
    """Dense unitary whose conjugation action realizes the tableau.

    ``rows`` are the symplectic rows as ints (see ``_symplectic_rows``): row
    2i is the image of X_i, row 2i+1 the image of Z_i, with sign bits
    attached per row.
    """
    dim = 2**n
    source, amps = _signed_paulis(n, rows, signs)
    cols = np.empty((dim, dim), dtype=complex)  # row x holds the column U|x>
    cols[0] = _stabilized_state(source[1::2], amps[1::2])
    # U|x> is the X image of the qubit holding x's lowest set bit applied to
    # U|prev>, prev = x with that bit cleared; all columns whose lowest set
    # bit is b are built at once, from b = n - 1 (qubit 0) down
    for q in range(n):
        step = dim >> q
        cols[step // 2 :: step] = amps[2 * q] * cols[::step, source[2 * q]]
    return np.ascontiguousarray(cols.T)


def _uniform_index(order: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, order) for arbitrarily large order, by rejection."""
    nbits = order.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        raw = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - nbits)
        if raw < order:
            return raw


def sample_clifford_dense(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random n-qubit Clifford as a dense unitary."""
    rows = _symplectic_rows(_uniform_index(symplectic_group_order(n), rng), n)
    signs = rng.integers(0, 2, size=2 * n)
    return clifford_dense_from_tableau(n, rows, signs)
