"""Dense multi-qubit linear algebra.

States are density matrices (complex128 ndarrays), unitaries are square
ndarrays, and channels are the small class hierarchy at the bottom of this
module.  Register order is fixed everywhere as (message, tag, mixed):
``tensor(a, b)`` puts ``a`` on the most significant qubits, and all
projectors, partial traces and register layouts follow that convention.

Values are treated as immutable after construction; every operation
returns a fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
UNITARITY_TOL = 1e-9
EIG_CLIP = 1e-12
PROJECT_FLOOR = 1e-12

QUBIT_CAP = 10


def check_qubits(z: int) -> None:
    if z > QUBIT_CAP:
        raise ValueError(f"{z} qubits exceeds the cap of {QUBIT_CAP}")


@dataclass(frozen=True)
class QubitPartition:
    """Register layout (n message, l tag, m mixed qubits); z = n + l + m."""

    n: int
    l: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one message qubit (n >= 1)")
        if self.l < 0 or self.m < 0:
            raise ValueError("tag and mixed register sizes must be nonnegative")
        check_qubits(self.z)

    @property
    def z(self) -> int:
        return self.n + self.l + self.m

    @property
    def dims(self) -> tuple[int, int, int]:
        return (2**self.n, 2**self.l, 2**self.m)


# ---------------------------------------------------------------------------
# validation


def check_pure_state(psi: np.ndarray) -> None:
    if psi.ndim != 1:
        raise ValueError("pure state must be a vector")
    if abs(np.vdot(psi, psi).real - 1.0) > HERMITICITY_TOL:
        raise ValueError("pure state is not normalized")


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise unless rho is Hermitian, unit trace and PSD within tolerance."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > HERMITICITY_TOL:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -PSD_TOL:
        raise ValueError("density matrix has a negative eigenvalue")


def check_unitary(u: np.ndarray) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    d = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > UNITARITY_TOL:
        raise ValueError("matrix is not unitary")


# ---------------------------------------------------------------------------
# construction


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def pure_dm(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a state vector."""
    return np.outer(psi, psi.conj())


def zero_tag_state(l: int) -> np.ndarray:
    """Tag register |0...0><0...0| on l qubits (scalar 1 for l = 0)."""
    return pure_dm(basis_ket(2**l, 0))


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor ends up on the most significant
    qubits.  A product past the qubit cap is refused before it is formed."""
    if math.prod(np.shape(op)[0] for op in ops) > 2**QUBIT_CAP:
        raise ValueError("tensor product exceeds the qubit cap")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


# ---------------------------------------------------------------------------
# register surgery


def _as_tensor(rho: np.ndarray, dims) -> np.ndarray:
    dims = list(dims)
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"layout {dims} does not match dimension {rho.shape[0]}")
    return rho.reshape(dims + dims)


def partial_trace(rho: np.ndarray, dims, discard) -> np.ndarray:
    """Trace out the registers in ``discard`` (indices into ``dims``).

    ``dims`` lists register dimensions most-significant first, matching the
    ``tensor`` convention; ordering of the kept registers is preserved.
    """
    dims = list(dims)
    discard = sorted(set(discard))
    if any(i < 0 or i >= len(dims) for i in discard):
        raise ValueError("discard index out of range")
    t = _as_tensor(rho, dims)
    k = len(dims)
    for offset, i in enumerate(discard):
        j = i - offset  # axes shift as earlier registers are traced
        t = np.trace(t, axis1=j, axis2=j + (k - offset))
    kept = [d for i, d in enumerate(dims) if i not in discard]
    dk = int(np.prod(kept)) if kept else 1
    return t.reshape(dk, dk)


def permute_registers(rho: np.ndarray, dims, order) -> np.ndarray:
    """Reorder registers so that new register i is old register order[i]."""
    dims = list(dims)
    k = len(dims)
    if sorted(order) != list(range(k)):
        raise ValueError("order must be a permutation of the registers")
    t = _as_tensor(rho, dims)
    axes = list(order) + [k + o for o in order]
    t = np.transpose(t, axes)
    d = int(np.prod(dims))
    return t.reshape(d, d)


# ---------------------------------------------------------------------------
# dynamics and measurement


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U rho U^dagger for one (d, d) matrix or a (k, d, d) stack."""
    if u.shape[0] != rho.shape[-1]:
        raise ValueError("dimension mismatch between state and unitary")
    return u @ rho @ u.conj().T


def project(rho: np.ndarray, proj: np.ndarray):
    """Born-rule projection.

    Returns ``(prob, post)``;  ``post`` is None (a reject) when the outcome
    probability falls below the 1e-12 floor.
    """
    if proj.shape != rho.shape:
        raise ValueError("dimension mismatch between state and projector")
    if np.max(np.abs(proj @ proj - proj)) > PSD_TOL:
        raise ValueError("projector is not idempotent")
    prob = float(np.trace(proj @ rho @ proj).real)
    if prob <= PROJECT_FLOOR:
        return 0.0, None
    return prob, (proj @ rho @ proj) / prob


# ---------------------------------------------------------------------------
# metrics


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix via eigendecomposition.

    Only the lower triangle of ``a`` is read (``eigvalsh``'s UPLO='L'); the
    security scan relies on this when it passes its packed blocks unpacked
    into the lower triangle with zeros above it."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return 0.5 * trace_norm(a - b)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a b), as sum_ij a_ij b_ji in O(d^2); tr(a b) is real for Hermitian a, b."""
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.einsum("ij,ji->", a, b).real)


def vn_entropy_bits(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits; eigenvalues below 1e-12 are clipped to 0."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > EIG_CLIP]
    return float(-np.sum(evals * np.log2(evals)))


def swap_test_accept(a: np.ndarray, b: np.ndarray) -> float:
    """Acceptance probability (1 + tr(a b)) / 2 of a SWAP test between a and b."""
    return 0.5 * (1.0 + overlap(a, b))


# ---------------------------------------------------------------------------
# channels


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


class Channel:
    """CPTP map with enough structure for the closed-form fidelity functionals.

    Subclasses provide ``apply`` and ``kraus_trace_square_sum`` =
    sum_i |tr K_i|^2, which fixes the Haar-twirled channel and with it the
    exact P0/F' means.  ``apply`` acts on one (d, d) matrix or on a
    (..., d, d) stack of them, each matrix separately.  ``compress`` reads
    the channel's output on a rank-r input through c columns only; the
    default goes through ``apply``.  ``UnitaryChannel`` overrides it with a
    Gram form, and ``LocalDepolarizingChannel`` acts on the W W^dag it forms,
    in place, where ``apply`` would work on a copy.
    """

    dim: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compress(self, w: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Y^dag Gamma(W W^dag) Y for (..., d, r) W and (..., d, c) Y stacks,
        shape (..., c, c); here densely, through the (..., d, d) output."""
        return _adjoint(y) @ self.apply(w @ _adjoint(w)) @ y

    def kraus_trace_square_sum(self) -> float:
        raise NotImplementedError


class IdentityChannel(Channel):
    def __init__(self, dim: int):
        self.dim = dim

    def apply(self, rho):
        return rho.copy()

    def kraus_trace_square_sum(self):
        return float(self.dim**2)


class UnitaryChannel(Channel):
    """Coherent tamper rho -> V rho V^dagger."""

    def __init__(self, v: np.ndarray):
        check_unitary(v)
        self.v = np.asarray(v, dtype=complex)
        self.dim = v.shape[0]

    def apply(self, rho):
        return apply_unitary(rho, self.v)

    def compress(self, w, y):
        # Y^dag V W W^dag V^dag Y as (Y^dag V W)(Y^dag V W)^dag, never forming W W^dag
        yvw = _adjoint(y) @ (self.v @ w)
        return yvw @ _adjoint(yvw)

    def kraus_trace_square_sum(self):
        return float(abs(np.trace(self.v)) ** 2)


class DepolarizingChannel(Channel):
    """Global depolarizing map rho -> (1-p) rho + p tr(rho) I/d.

    Kept structural rather than as an explicit Kraus list: the Pauli Kraus
    decomposition has d^2 operators, which is impractical above a few qubits.
    """

    def __init__(self, dim: int, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("depolarizing strength must lie in [0, 1]")
        self.dim = dim
        self.p = p

    def apply(self, rho):
        d = self.dim
        return (1 - self.p) * rho + self.p * np.trace(rho, axis1=-2, axis2=-1)[..., None, None] * np.eye(d) / d

    def kraus_trace_square_sum(self):
        # only the identity Kraus operator sqrt(1 - p + p/d^2) I has a trace
        return float((1.0 - self.p + self.p / self.dim**2) * self.dim**2)


class LocalDepolarizingChannel(Channel):
    """Single-qubit depolarizing noise applied independently to every qubit.

    ``apply`` depolarizes a copy of its input; ``compress`` depolarizes the
    W W^dag stack it has just formed, in place, so it holds one (..., d, d)
    stack where the default holds two.  Both give the same bits."""

    def __init__(self, qubits: int, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("depolarizing strength must lie in [0, 1]")
        self.qubits = qubits
        self.dim = 2**qubits
        self.p = p

    def apply(self, rho):
        return self._depolarize(rho.copy())

    def compress(self, w, y):
        return _adjoint(y) @ self._depolarize(w @ _adjoint(w)) @ y

    def _depolarize(self, out):
        # per qubit q: rho_q -> (1-p) rho_q + p tr_q(rho) I/2, in place
        for q in range(self.qubits):
            right = 2 ** (self.qubits - q - 1)
            t = out.reshape(out.shape[:-2] + (2**q, 2, right, 2**q, 2, right))
            a, b = t[..., 0, :, :, 0, :], t[..., 1, :, :, 1, :]
            s = a + b
            s *= self.p / 2
            t *= 1.0 - self.p
            a += s
            b += s
        return out

    def kraus_trace_square_sum(self):
        # per qubit only the identity Kraus has nonzero trace
        return float((1.0 - 0.75 * self.p) ** self.qubits * self.dim**2)


def apply_channel(rho: np.ndarray, channel: Channel) -> np.ndarray:
    """``channel.apply`` on one matrix or a stack, after a dimension check."""
    if rho.shape[-2:] != (channel.dim, channel.dim):
        raise ValueError("dimension mismatch between state and channel")
    return channel.apply(rho)
