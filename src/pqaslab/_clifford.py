"""Uniform Clifford-group sampling with dense-matrix synthesis.

Sampling is exact-uniform by construction: a uniform integer index is mapped
bijectively to an element of the binary symplectic group Sp(2n, 2) using the
transvection decomposition of Koenig and Smolin (J. Math. Phys. 55, 122202),
and 2n uniform sign bits fix the Pauli part.  The group has

    |Sp(2n, 2)| = prod_{j=1..n} (4^j - 1) 4^j / 2

elements; see :func:`symplectic_group_order`.

The unitary is rebuilt from the tableau without circuit synthesis, any
selection of its columns or all of them: the column U|x> equals
(prod_i Qi^{x_i}) |phi0>, where Qi is the signed Pauli image of X_i and
|phi0> is the unique state stabilized by the signed images of the Z_i.
The 2n signed images are one pair of (2n, 2^n) tables, a source
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


def clifford_columns(n: int, tableaus, cols=None) -> np.ndarray:
    """Columns U|x>, x in ``cols`` (an index array; every x by default), of
    the unitary whose conjugation action realizes each tableau, as a
    (len(tableaus), 2^n, len(cols)) stack.

    A tableau is (rows, signs): the symplectic rows as ints (see
    ``_symplectic_rows``), row 2i the image of X_i and row 2i+1 the image of
    Z_i, with sign bits attached per row.  U|x> is the X image of the qubit
    holding x's lowest set bit applied to U|prev>, prev = x with that bit
    cleared, so a column needs the chain of x down to U|0> = |phi0>.  Every
    column on the chains of the selection is built once, all those whose
    lowest set bit is b at once, from b = n - 1 (qubit 0) down: each column
    is the same products in any selection or stack, so bitwise the same,
    and the dense unitaries are the selection of every column, built in
    place.
    """
    dim, k = 2**n, len(tableaus)
    sel = np.arange(dim) if cols is None else np.asarray(cols)
    out = np.empty((k, dim, len(sel)), dtype=complex)
    source, amps = _signed_paulis(n, [row for rows, _ in tableaus for row in rows], [s for _, signs in tableaus for s in signs])
    source, amps = source.reshape(k, 2 * n, dim), amps.reshape(k, 2 * n, dim)
    offset = dim * np.arange(k)[:, None]  # tableau i's rows in the (k dim, cols) view of the stack
    # the chain of x is x with its lowest j bits cleared, j = 0 .. n; at[x]
    # is a chain column's position among them
    need = np.zeros(dim, dtype=bool)
    need[sel[:, None] & -(1 << np.arange(n + 1))] = True
    chain, at = np.flatnonzero(need), np.cumsum(need) - 1
    whole = chain.size == sel.size and np.array_equal(chain, sel)
    work = out if whole else np.empty((k, dim, chain.size), dtype=complex)
    for w, src, amp in zip(work, source, amps):
        w[:, 0] = _stabilized_state(src[1::2], amp[1::2])
    for q in range(n):
        bit = dim >> q + 1
        if chain.size == dim:  # every column: those with lowest set bit b are b, 3b, 5b, ...
            child, parent = slice(bit, None, 2 * bit), slice(0, None, 2 * bit)
        else:
            child = np.flatnonzero((chain & 2 * bit - 1) == bit)
            parent = at[chain[child] ^ bit]
        step = work[:, :, parent].reshape(k * dim, -1).take((source[:, 2 * q] + offset).ravel(), axis=0)
        step *= amps[:, 2 * q].reshape(-1, 1)
        work[:, :, child] = step.reshape(k, dim, -1)
    if not whole:
        out[...] = work[:, :, at[sel]]
    return out


def _uniform_index(order: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, order) for arbitrarily large order, by rejection."""
    nbits = order.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        raw = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - nbits)
        if raw < order:
            return raw


def sample_tableau(n: int, rng: np.random.Generator) -> tuple[list[int], np.ndarray]:
    """Uniformly random n-qubit Clifford tableau: the symplectic rows of a
    uniform Sp(2n, 2) index, then 2n sign bits."""
    rows = _symplectic_rows(_uniform_index(symplectic_group_order(n), rng), n)
    return rows, rng.integers(0, 2, size=2 * n)
