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


def _inner(v: np.ndarray, w: np.ndarray) -> int:
    t = 0
    for i in range(0, len(v), 2):
        t += int(v[i]) * int(w[i + 1]) + int(v[i + 1]) * int(w[i])
    return t % 2


def _transvection(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + _inner(k, v) * k) % 2


def _int_to_bits(i: int, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int8)
    for j in range(n):
        out[j] = i & 1
        i >>= 1
    return out


def _find_transvection(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two transvection vectors (h0, h1) with Z_h1 Z_h0 x = y."""
    out = np.zeros((2, len(x)), dtype=np.int8)
    if np.array_equal(x, y):
        return out
    if _inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    # look for a qubit where both vectors have support
    z = np.zeros(len(x), dtype=np.int8)
    for i in range(0, len(x), 2):
        if (x[i] + x[i + 1]) != 0 and (y[i] + y[i + 1]) != 0:
            z[i] = (x[i] + y[i]) % 2
            z[i + 1] = (x[i + 1] + y[i + 1]) % 2
            if z[i] + z[i + 1] == 0:  # same support pattern on this qubit
                z[i + 1] = 1
                if x[i] != x[i + 1]:
                    z[i] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    # disjoint supports: bridge through a qubit touched by only one of them
    for i in range(0, len(x), 2):
        if (x[i] + x[i + 1]) != 0 and (y[i] + y[i + 1]) == 0:
            if x[i] == x[i + 1]:
                z[i + 1] = 1
            else:
                z[i + 1] = x[i]
                z[i] = x[i + 1]
            break
    for i in range(0, len(x), 2):
        if (x[i] + x[i + 1]) == 0 and (y[i] + y[i + 1]) != 0:
            if y[i] == y[i + 1]:
                z[i + 1] = 1
            else:
                z[i + 1] = y[i]
                z[i] = y[i + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def symplectic_element(index: int, n: int) -> np.ndarray:
    """The index-th element of Sp(2n, 2); a bijection for 0 <= index < order.

    Rows are images of the basis vectors (x1, z1, x2, z2, ...).
    """
    nn = 2 * n
    s = (1 << nn) - 1
    k = (index % s) + 1
    index //= s
    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.int8)
    e1[0] = 1
    tv = _find_transvection(e1, f1)  # maps e1 to f1
    bits = _int_to_bits(index % (1 << (nn - 1)), nn - 1)
    index >>= nn - 1
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvection(tv[0], eprime)
    h0 = _transvection(tv[1], h0)
    if bits[0] == 1:
        f1 = f1 * 0
    if n == 1:
        g = np.eye(2, dtype=np.int8)
    else:
        g = np.zeros((nn, nn), dtype=np.int8)
        g[:2, :2] = np.eye(2, dtype=np.int8)
        g[2:, 2:] = symplectic_element(index, n - 1)
    for j in range(nn):
        row = g[j]
        row = _transvection(tv[0], row)
        row = _transvection(tv[1], row)
        row = _transvection(h0, row)
        row = _transvection(f1, row)
        g[j] = row
    return g


# ---------------------------------------------------------------------------
# signed Pauli operators as index/phase pairs


class SignedPauli:
    """(-1)^sign i^(x.z) X^x Z^z on n qubits, stored as an amplitude permutation.

    Acting on basis state |b>:  P|b> = phase * (-1)^(z.b) |b XOR x>,
    with phase = (-1)^sign i^(x.z); the i^(x.z) factor makes P Hermitian.
    Qubit 0 is the most significant bit.
    """

    def __init__(self, n: int, xbits: np.ndarray, zbits: np.ndarray, sign: int):
        self.n = n
        self.xbits = np.asarray(xbits, dtype=np.int8)
        self.zbits = np.asarray(zbits, dtype=np.int8)
        self.sign = int(sign)
        dim = 2**n
        xmask = 0
        zmask = 0
        for q in range(n):
            if self.xbits[q]:
                xmask |= 1 << (n - 1 - q)
            if self.zbits[q]:
                zmask |= 1 << (n - 1 - q)
        idx = np.arange(dim)
        self.source = idx ^ xmask
        zpar = np.zeros(dim, dtype=np.int64)
        for q in range(n):
            if zmask & (1 << q):
                zpar ^= (self.source >> q) & 1
        phase = (-1.0) ** self.sign * (1j) ** int(np.dot(self.xbits, self.zbits) % 4)
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


def clifford_dense_from_tableau(n: int, g: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Dense unitary whose conjugation action realizes the tableau.

    Row 2i of g is the image of X_i, row 2i+1 the image of Z_i (interleaved
    x/z bit convention), with sign bits attached per row.
    """
    dim = 2**n
    ximages = []
    zimages = []
    for i in range(n):
        xrow = g[2 * i]
        zrow = g[2 * i + 1]
        ximages.append(SignedPauli(n, xrow[0::2], xrow[1::2], signs[2 * i]))
        zimages.append(SignedPauli(n, zrow[0::2], zrow[1::2], signs[2 * i + 1]))
    phi0 = _stabilized_state(zimages, dim)
    u = np.empty((dim, dim), dtype=complex)
    u[:, 0] = phi0
    for col in range(1, dim):
        # build U|col> from a previously computed column via one X-image flip
        prev = col & (col - 1)  # clear lowest set bit
        q = n - (col ^ prev).bit_length()  # qubit holding that bit (0 = msb)
        u[:, col] = ximages[q].apply(u[:, prev])
    return u


def _uniform_index(order: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, order) for arbitrarily large order, by rejection."""
    nbits = order.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        raw = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - nbits)
        if raw < order:
            return raw


def sample_clifford_dense(n: int, rng: np.random.Generator):
    """Uniformly random n-qubit Clifford as (dense unitary, tableau, signs)."""
    index = _uniform_index(symplectic_group_order(n), rng)
    g = symplectic_element(index, n)
    signs = rng.integers(0, 2, size=2 * n)
    return clifford_dense_from_tableau(n, g, signs), g, signs
