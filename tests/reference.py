"""Dense references and helpers that only the tests use: each is the oracle
or fixture its tests compare against, with the tolerances it checks by.
pytest's default import mode puts this directory on ``sys.path``, so test
modules ``import reference``.
"""

import itertools
import math
from functools import reduce

import numpy as np

from pqaslab import moments, pqas, qcore
from pqaslab._streams import derive_bytes
from pqaslab.ensembles import KEY_BYTES, SecretKey
from pqaslab.moments import Perm
from pqaslab.qcore import HERMITICITY_TOL, PSD_TOL, UNITARITY_TOL, Channel, QubitPartition

TRACE_TOL = 1e-10


# ---------------------------------------------------------------------------
# states and metrics


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise unless rho is Hermitian, unit trace and PSD within tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -PSD_TOL:
        raise ValueError("density matrix has a negative eigenvalue")


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def fidelity_with_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference state."""
    if psi.shape[0] != rho.shape[0]:
        raise ValueError("dimension mismatch")
    return float(np.vdot(psi, rho @ psi).real)


def maximally_mixed(m: int) -> np.ndarray:
    """m-qubit maximally mixed state I / 2^m; m = 0 gives the scalar 1."""
    if m < 0:
        raise ValueError("register size must be nonnegative")
    qcore.check_qubits(m)
    d = 2**m
    return np.eye(d, dtype=complex) / d


def pad_state(rho: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """Append the tag state and the maximally mixed register to the message."""
    return qcore.tensor(rho, qcore.zero_tag_state(partition.l), maximally_mixed(partition.m))


# ---------------------------------------------------------------------------
# channels with no structured form


class KrausChannel(Channel):
    """Channel given by an explicit Kraus operator list."""

    def __init__(self, kraus_ops, check: bool = True):
        ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        self.kraus_ops = ops
        self.dim = ops[0].shape[0]
        if check:
            acc = sum(k.conj().T @ k for k in ops)
            if np.max(np.abs(acc - np.eye(self.dim))) > UNITARITY_TOL:
                raise ValueError("Kraus operators are not trace preserving")

    def apply(self, rho):
        out = np.zeros_like(rho)
        for k in self.kraus_ops:
            out += k @ rho @ k.conj().T
        return out

    def kraus_trace_square_sum(self):
        return float(sum(abs(np.trace(k)) ** 2 for k in self.kraus_ops))


class MixtureChannel(Channel):
    """Convex mixture of channels, used for linearity checks."""

    def __init__(self, weights, channels):
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        self.weights = list(weights)
        self.channels = list(channels)
        self.dim = channels[0].dim

    def apply(self, rho):
        return sum(w * c.apply(rho) for w, c in zip(self.weights, self.channels))

    def kraus_trace_square_sum(self):
        return float(sum(w * c.kraus_trace_square_sum() for w, c in zip(self.weights, self.channels)))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def kraus_operators(channel: Channel) -> list[np.ndarray]:
    """A Kraus list of the identity, unitary, local depolarizing and explicit
    Kraus channels; the local depolarizing one is every tensor product of the
    single-qubit Paulis weighted sqrt(1 - 3p/4) (I) and sqrt(p/4) (X, Y, Z)."""
    if isinstance(channel, qcore.IdentityChannel):
        return [np.eye(channel.dim)]
    if isinstance(channel, qcore.UnitaryChannel):
        return [channel.v]
    if isinstance(channel, KrausChannel):
        return channel.kraus_ops
    if isinstance(channel, qcore.LocalDepolarizingChannel):
        p = channel.p
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
        weights = [np.sqrt(1 - 3 * p / 4)] + [np.sqrt(p / 4)] * 3
        single = [w * s for w, s in zip(weights, paulis)]
        return [reduce(np.kron, ops) for ops in itertools.product(single, repeat=channel.qubits)]
    raise TypeError(f"no Kraus list for {type(channel).__name__}")


def compress_reference(channel: Channel, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Y^dag Gamma(W W^dag) Y for (..., d, r) W and (..., d, c) Y stacks, read
    off neither ``apply`` nor ``compress``: sum_K (Y^dag K W)(Y^dag K W)^dag
    over a Kraus list, the written-out (1 - p) Y^dag W W^dag Y +
    p tr(W^dag W) Y^dag Y / d for the global depolarizing channel, and the
    weighted sum of the parts for a mixture."""
    if isinstance(channel, MixtureChannel):
        return sum(p * compress_reference(c, w, y) for p, c in zip(channel.weights, channel.channels))
    if isinstance(channel, qcore.DepolarizingChannel):
        yw = _adjoint(y) @ w
        norm = np.sum(np.abs(w) ** 2, axis=(-2, -1))[..., None, None]
        return (1 - channel.p) * yw @ _adjoint(yw) + channel.p * norm * (_adjoint(y) @ y) / channel.dim
    terms = [_adjoint(y) @ k @ w for k in kraus_operators(channel)]
    return sum(t @ _adjoint(t) for t in terms)


# ---------------------------------------------------------------------------
# dense t-copy closeness


def _hermitian_trace_norm(gap: np.ndarray) -> float:
    assert np.max(np.abs(gap - gap.conj().T)) <= HERMITICITY_TOL, "dense moment lost Hermiticity"
    return qcore.trace_norm(gap)


def closeness_dense(partition: QubitPartition, rho: np.ndarray, t: int) -> float:
    """``moments.closeness_exact`` from the dense Haar twirl of the padded
    input's t copies, minus the maximally mixed target I / d^t.  A rho with
    zero imaginary part is padded as a real operator, so its moment is
    float64 and its trace norm comes from the real symmetric eigensolver."""
    factors = (rho, qcore.zero_tag_state(partition.l), maximally_mixed(partition.m))
    if not np.any(np.imag(rho)):
        factors = tuple(np.real(f) for f in factors)
    padded = reduce(np.kron, factors)
    moment = moments.haar_moment(reduce(np.kron, [padded] * t), t, 2**partition.z)
    return _hermitian_trace_norm(moment - np.eye(len(moment)) / len(moment))


def ghse_closeness_dense(n: int, m: int, t: int) -> float:
    """``primitives.ghse_closeness`` from the dense moments: the GHSE average
    against the Haar twirl of (|0><0|^(n-m) (x) I / 2^m)^(x t)."""
    base = qcore.tensor(qcore.zero_tag_state(n - m), maximally_mixed(m))
    scrambled = moments.haar_moment(reduce(np.kron, [base] * t), t, 2**n)
    return 0.5 * _hermitian_trace_norm(moments.ghse_moment(n, m, t) - scrambled)


# ---------------------------------------------------------------------------
# isotypic blocks of (C^d)^(x t)


def isotypic_projector(lam, d: int) -> np.ndarray:
    """Dense Pi_lam = (f_lam / t!) sum_pi chi_lam(pi) P(pi) on (C^d)^(x t).

    Real and symmetric, since chi_lam(pi) = chi_lam(pi^-1).  The integer
    characters are summed exactly and scaled once, so each entry is rounded
    once.
    """
    t = sum(lam)
    f, _ = moments.irrep_dims(lam, d)
    chars = {p: float(moments.character(lam, moments.cycle_type(p))) for p in moments.permutations(t)}
    return moments._perm_sum(chars, d) * (f / math.factorial(t))


def dense_isotypic_basis(lam, d: int) -> np.ndarray:
    """An orthonormal basis of the range of the dense projector, from its eigh."""
    vals, vecs = np.linalg.eigh(isotypic_projector(lam, d))
    return vecs[:, vals > 0.5]


def orbit_basis_dense(basis, dim: int) -> np.ndarray:
    """The dim x D matrix B_lam that ``moments.isotypic_bases`` stores as
    (index, weight) tables: each weight table's columns on each orbit's rows."""
    cols = []
    for index, weight in basis:
        for rows in index:
            block = np.zeros((dim, weight.shape[1]))
            block[rows] = weight
            cols.append(block)
    return np.hstack(cols)


def product_blocks_dense(gram: np.ndarray, bases, d: int, t: int) -> list[np.ndarray]:
    """The security scan's product-input blocks B^T X B as whole (s, s)
    arrays, the storage the scan kept before it packed lower triangles: for
    every orbit pair (each row table against every column table) the raveled
    ``pqas._product_batch_gram`` product X gathered at the row orbit's first
    row and contracted with the folded weights, the pieces laid out with
    ``np.block``."""
    power = d ** np.arange(t - 1, -1, -1)

    def digits(flat):
        return flat[..., None] // power % d

    spread = digits(np.arange(d**t)) @ power**2
    blocks = []
    for basis in bases:
        rows = []
        for row_index, row_weight in basis:
            first = digits(row_index[0])
            pinv = np.empty_like(first)
            np.put_along_axis(pinv, np.argsort(first, axis=1, kind="stable"), np.argsort(first[0], kind="stable"), 1)
            rows.append([])
            for col_index, col_weight in basis:
                moved = digits(col_index[0])[:, pinv] @ power
                sorter = np.argsort(col_index[0])
                image = sorter[np.searchsorted(col_index[0], moved, sorter=sorter)]
                k = np.einsum("ea,geb->gab", row_weight, col_weight[image]).astype(complex)
                at = d * spread[row_index[:, 0]][:, None, None] + spread[col_index]
                o, p, u = at.shape
                h = (gram[at].reshape(o * p, u) @ k.reshape(u, -1)).reshape(o, p, *k.shape[1:])
                rows[-1].append(h.transpose(0, 2, 1, 3).reshape(o * k.shape[1], p * k.shape[2]))
        blocks.append(np.block(rows))
    return blocks


# ---------------------------------------------------------------------------
# protocol functionals, keys, group structure


def p0_fprime_for_unitary(psi: np.ndarray, u: np.ndarray, partition: QubitPartition, channel: Channel):
    """(P0, F') for one scrambler realization and a pure message state."""
    p0, fprime = pqas._p0_fprime_stack(pqas.tag_zero_columns(u, partition)[None], psi, channel)
    return float(p0[0]), float(fprime[0])


def decode_tensordot(rho: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """sum_j C_j^dag rho C_j over the last axis of a (d, a, dm) column block C,
    contracted by ``np.tensordot`` on C's own layout."""
    d, a, dm = columns.shape
    rho_c = (rho @ columns.reshape(d, a * dm)).reshape(columns.shape)
    return np.tensordot(columns.conj(), rho_c, axes=([0, 2], [0, 2]))


def ginibre_qr(rng, rows, cols):
    """The unbatched Ginibre-QR recipe: one (rows, cols) block of real and
    then one of imaginary normals, QR'd, with the R phases moved into Q."""
    g = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embed_tag_columns(y: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """The d x d matrix whose tag-|0> columns are Y (d, dn, dm) and whose other
    columns are zero: it acts on every padded input rho (x) |0><0| (x) I_m as
    the scrambler Y was sliced from."""
    dn, dl, dm = partition.dims
    u = np.zeros((y.shape[0], dn, dl, dm), dtype=complex)
    u[:, :, 0, :] = y
    return u.reshape(y.shape[0], -1)


def jackknife_se_loop(batch_means, target):
    """The security scan's delete-one-batch jackknife SE, one left-out batch
    at a time: the dense trace distance of the other batches' mean."""
    batches = len(batch_means)
    thetas = np.array(
        [qcore.trace_distance(np.delete(batch_means, j, axis=0).mean(axis=0), target) for j in range(batches)]
    )
    return float(np.sqrt((batches - 1) / batches * np.sum((thetas - thetas.mean()) ** 2)))


def witness_loop(batch_means, target):
    """The security scan's cross-fitted witness, one batch at a time: half of
    tr(S (mean_b - target)), with S the sign of the dense gap of the mean over
    the half (first or second) of the batches that b is not in.  Returns the
    per-batch values; the witness is their mean and its SE the mean of the
    two halves' batch SEs."""
    half = len(batch_means) // 2
    signs = []
    for part in (batch_means[:half], batch_means[half:]):
        vals, vecs = np.linalg.eigh(part.mean(axis=0) - target)
        signs.append(vecs @ np.diag(np.sign(vals)) @ vecs.conj().T)
    return np.array(
        [0.5 * np.trace(signs[b < half] @ (mean - target)).real for b, mean in enumerate(batch_means)]
    )


def key_from_int(value: int) -> SecretKey:
    """Deterministic key for an integer label; parts derived by hashing."""
    parts = [derive_bytes(None, "secret-key", value, i, n=KEY_BYTES) for i in range(3)]
    return SecretKey(*parts)


def permutation_operator(p: Perm, d: int) -> np.ndarray:
    """Dense operator on (C^d)^(x t) permuting the tensor copies."""
    return moments._perm_sum({p: 1.0 + 0j}, d)


def is_symplectic(g: np.ndarray) -> bool:
    n = g.shape[0] // 2
    lam = np.zeros((2 * n, 2 * n), dtype=np.int8)
    for i in range(n):
        lam[2 * i, 2 * i + 1] = 1
        lam[2 * i + 1, 2 * i] = 1
    return np.array_equal((g @ lam @ g.T) % 2, lam)


def signed_pauli_dense(source: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The dense matrix of one row of ``_clifford._signed_paulis``'s tables,
    (P v)[b] = amps[b] v[source[b]]."""
    dim = source.size
    out = np.zeros((dim, dim), dtype=complex)
    out[np.arange(dim), source] = amps
    return out


# ---------------------------------------------------------------------------
# Sp(2n, 2) on int8 arrays: the transvection decomposition of Koenig and
# Smolin element by element, the reference for ``_clifford``'s bitmask version


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
