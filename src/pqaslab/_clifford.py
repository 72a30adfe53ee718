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
of the Z_i.  The global phase is fixed canonically so key-seeded sampling is
bitwise reproducible.

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
# signed Pauli operators as index/phase pairs


def _pauli_masks(row: int, n: int) -> tuple[int, int]:
    """The (x, z) qubit bitmasks, qubit 0 most significant, of an interleaved
    symplectic row (x1, z1, x2, z2, ...)."""
    x = z = 0
    for i in range(n):
        x |= (row >> 2 * i & 1) << (n - 1 - i)
        z |= (row >> 2 * i + 1 & 1) << (n - 1 - i)
    return x, z


class SignedPauli:
    """(-1)^sign i^(x.z) X^x Z^z on n qubits, stored as an amplitude permutation.

    ``x`` and ``z`` are bitmasks over the qubits, qubit 0 the most significant
    bit.  Acting on basis state |b>:  P|b> = phase * (-1)^(z.b) |b XOR x>,
    with phase = (-1)^sign i^(x.z); the i^(x.z) factor makes P Hermitian.
    """

    def __init__(self, n: int, x: int, z: int, sign: int):
        self.n = n
        self.source = np.arange(2**n) ^ x
        zsupport = self.source & z
        zpar = np.zeros(2**n, dtype=np.int64)
        for q in range(n):
            zpar ^= (zsupport >> q) & 1
        phase = (-1.0) ** int(sign) * (1j) ** ((x & z).bit_count() % 4)
        self.amps = phase * (-1.0) ** zpar

    def apply(self, v: np.ndarray) -> np.ndarray:
        """P @ v without materializing the matrix."""
        return self.amps * v[self.source]


# ---------------------------------------------------------------------------
# tableau -> dense unitary


def _stabilized_state(stabilizers: list[SignedPauli], dim: int) -> np.ndarray:
    """Unit vector fixed by every stabilizer, found by sequential projection."""
    for start in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[start] = 1.0
        ok = True
        for p in stabilizers:
            v = 0.5 * (v + p.apply(v))
            if np.vdot(v, v).real < 1e-12:
                ok = False
                break
        if ok:
            v = v / np.sqrt(np.vdot(v, v).real)
            # canonical global phase: first sizable entry made real positive
            j = int(np.argmax(np.abs(v) > 1e-8))
            v = v * (abs(v[j]) / v[j])
            return v
    raise ArithmeticError("no stabilized state found; tableau is inconsistent")


def clifford_dense_from_tableau(n: int, rows: list[int], signs: np.ndarray) -> np.ndarray:
    """Dense unitary whose conjugation action realizes the tableau.

    ``rows`` are the symplectic rows as ints (see ``_symplectic_rows``): row
    2i is the image of X_i, row 2i+1 the image of Z_i, with sign bits
    attached per row.
    """
    dim = 2**n
    images = [SignedPauli(n, *_pauli_masks(row, n), sign) for row, sign in zip(rows, signs)]
    ximages, zimages = images[0::2], images[1::2]
    cols = np.empty((dim, dim), dtype=complex)  # row x holds the column U|x>
    cols[0] = _stabilized_state(zimages, dim)
    # U|x> is the X image of the qubit holding x's lowest set bit applied to
    # U|prev>, prev = x with that bit cleared; all columns whose lowest set
    # bit is b are built at once, from b = n - 1 (qubit 0) down
    for q, p in enumerate(ximages):
        step = dim >> q
        cols[step // 2 :: step] = p.amps * cols[::step, p.source]
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
