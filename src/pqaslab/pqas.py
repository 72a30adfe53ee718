"""The protocol: keyed encryption, decryption, tag authentication, the
channel-fidelity functionals governing acceptance, and the Monte Carlo /
exact-oracle experiments behind the authentication and security statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import moments, qcore
from ._streams import spawn_rng
from .ensembles import ScramblerSpec, SecretKey, build_scrambler, sample_scramblers, stack_size
from .qcore import Channel, QubitPartition


@dataclass(frozen=True)
class Ciphertext:
    """Encrypted state on z = n + l + m qubits with its register layout."""

    state: np.ndarray
    partition: QubitPartition


@dataclass
class AuthOutcome:
    """Result of tag verification.

    ``post_message`` is the normalized message-register state after the tag
    projection succeeded (tag and mixed registers traced out); it is None on
    reject.
    """

    accept_prob: float
    accepted: bool
    post_message: np.ndarray | None = field(repr=False, default=None)


# Largest entry of P(pi) rho_g P(pi)^dag - rho_g, over adjacent copy swaps pi,
# for which security_scan treats a joint input as copy-symmetric.
SYMMETRY_TOL = 1e-12

# Fewest trials auth_sweep accepts, and the number of batches security_scan
# splits its trials into (trials must be a multiple of it).
MIN_AUTH_TRIALS = 100
SCAN_BATCHES = 20


def tag_zero_columns(u: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """The tag-|0> columns of U (or of each U in a stack) as a (..., d, dn, dm)
    view, Y[x, a, j] = <x|U|a, 0, j>; read-only when U is."""
    dn, dl, dm = partition.dims
    return u.reshape(*u.shape[:-1], dn, dl, dm)[..., 0, :]


def scramble_padded(rho: np.ndarray, u: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """U (rho (x) |0><0|_tag (x) I_m / 2^m) U^dag from the tag-|0> columns Y of U
    (or of each U in a (..., d, d) stack): W W^dag / 2^m with W = Y psi for a
    pure-state vector psi, and the linear Y (rho (x) I_m) Y^dag / 2^m for any
    operator rho."""
    y = tag_zero_columns(u, partition)
    *keys, d, dn, dm = y.shape
    if rho.ndim == 1:
        w = np.einsum("...xaj,a->...xj", y, rho)
        return w @ w.conj().swapaxes(-1, -2) / dm
    y_rho = np.einsum("...xaj,ab->...xbj", y, rho).reshape(*keys, d, dn * dm)
    return y_rho @ y.reshape(*keys, d, dn * dm).conj().swapaxes(-1, -2) / dm


def _decode(rho: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """sum_j C_j^dag rho C_j over the last axis of a (d, a, dm) block C of U's
    columns: U^dag rho U on those columns, mixed register traced, never formed."""
    d, a, dm = columns.shape
    rho_c = (rho @ columns.reshape(d, a * dm)).reshape(columns.shape)
    return np.tensordot(columns.conj(), rho_c, axes=([0, 2], [0, 2]))


def encrypt(rho: np.ndarray, key: SecretKey, partition: QubitPartition, spec: ScramblerSpec) -> Ciphertext:
    """Scramble (message (x) tag (x) mixed) with the keyed unitary.

    ``rho`` may be a density matrix or a pure-state vector on the message
    register.  Deterministic in (rho, key, spec); see ``scramble_padded``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != 2**partition.n:
        raise ValueError("message state does not match the partition")
    return Ciphertext(scramble_padded(rho, build_scrambler(key, partition.z, spec), partition), partition)


def decrypt(c: Ciphertext, key: SecretKey, spec: ScramblerSpec) -> np.ndarray:
    """Unscramble and trace the mixed register; returns the (message, tag) state,
    sum_k U_k^dag (rho U)_k over the mixed-register column blocks U_k of U.

    On untampered input this is exactly message (x) |0...0><0...0|_tag.
    """
    dn, dl, dm = c.partition.dims
    return _decode(c.state, build_scrambler(key, c.partition.z, spec).reshape(-1, dn * dl, dm))


def tamper(c: Ciphertext, channel: Channel) -> Ciphertext:
    """Adversarial channel acting on the ciphertext."""
    return Ciphertext(qcore.apply_channel(c.state, channel), c.partition)


def authenticate(c: Ciphertext, key: SecretKey, spec: ScramblerSpec) -> AuthOutcome:
    """Unscramble, project the tag register onto |0...0>, and on success return
    the message state sum_j Y_j^dag rho Y_j / P0 over the tag-|0> columns Y of U."""
    y = tag_zero_columns(build_scrambler(key, c.partition.z, spec), c.partition)
    message = _decode(c.state, y)
    prob = float(np.trace(message).real)
    if prob <= qcore.PROJECT_FLOOR:
        return AuthOutcome(accept_prob=0.0, accepted=False)
    return AuthOutcome(accept_prob=prob, accepted=True, post_message=message / prob)


# ---------------------------------------------------------------------------
# channel-fidelity functionals


def entanglement_fidelity(channel: Channel) -> float:
    """F_e = d^-2 sum_i |tr K_i|^2."""
    return channel.kraus_trace_square_sum() / channel.dim**2


def channel_fidelity(channel: Channel) -> float:
    """F_c = (d^-1 sum_i |tr K_i|^2 + 1) / (d + 1)."""
    d = channel.dim
    return (channel.kraus_trace_square_sum() / d + 1.0) / (d + 1.0)


def predicted_p0(partition: QubitPartition, channel: Channel) -> float:
    """Leading-order Haar mean of the tag-acceptance probability."""
    fc = channel_fidelity(channel)
    w = 2.0**-partition.l
    return (1.0 - w) * fc + w


def predicted_fprime(partition: QubitPartition, channel: Channel) -> float:
    """Leading-order Haar mean of the unnormalized fidelity."""
    fc = channel_fidelity(channel)
    w = 2.0 ** -(partition.n + partition.l)
    return (1.0 - w) * fc + w


def prediction_slack(partition: QubitPartition, channel: Channel) -> float:
    """Documented error allowance of the leading-order formulas at finite d.

    The closed forms above are written in terms of the channel fidelity F_c,
    which differs from the entanglement fidelity F_e by (1 - F_e)/(d + 1);
    the exact Haar averages track the F_e form up to O(d^-2).  The allowance
    below bounds both contributions with margin.
    """
    d = 2.0**partition.z
    return (1.0 - entanglement_fidelity(channel)) / (d + 1.0) + 10.0 / d**2


# ---------------------------------------------------------------------------
# per-key functionals and their exact Haar averages


def _p0_fprime_stack(us: np.ndarray, psi: np.ndarray, partition: QubitPartition, channel: Channel):
    """(P0, F') of every key in a (keys, d, d) stack, for a pure message psi.

    The padded input is rho_ext = C C^dag / 2^m with C = psi (x) |0>_tag (x) I_m
    of rank 2^m, so the encrypted state is W W^dag / 2^m with W = U C.  With
    G = Gamma(W W^dag / 2^m), P0 = sum_y y^dag G y over the tag-|0> columns y
    of U and F' = sum_j w_j^dag G w_j over the columns w_j of W; G y is
    computed once and contracted with psi for G W.  U^dag G U is never
    formed.
    """
    tagged = tag_zero_columns(us, partition)
    keys, d, dn, dm = tagged.shape
    w = np.einsum("kxaj,a->kxj", tagged, psi)
    gamma = channel.apply(w @ w.conj().transpose(0, 2, 1) / dm)
    y = tagged.reshape(keys, d, dn * dm)
    gamma_y = gamma @ y
    p0 = np.einsum("kxc,kxc->k", y.conj(), gamma_y).real
    gamma_w = np.einsum("kxaj,a->kxj", gamma_y.reshape(keys, d, dn, dm), psi)
    fprime = np.einsum("kxj,kxj->k", w.conj(), gamma_w).real
    return p0, fprime


def _twirled_weight(partition: QubitPartition, channel: Channel, psi: np.ndarray) -> float:
    """Weight p of the Haar-twirled tamper channel.

    E_U[U^dag Gamma(U X U^dag) U] = p X + (1 - p) tr(X) I/d with
    p = (d^2 F_e - 1)/(d^2 - 1), and d^2 F_e = sum_i |tr K_i|^2.  The Haar
    means of P0 and F' follow for every normalized message state psi.
    """
    d = 2**partition.z
    if channel.dim != d:
        raise ValueError("channel does not act on the ciphertext")
    if psi.shape != (2**partition.n,):
        raise ValueError("message state does not match the partition")
    qcore.check_pure_state(psi)
    return (channel.kraus_trace_square_sum() - 1.0) / (float(d) ** 2 - 1.0)


def exact_haar_p0(partition: QubitPartition, channel: Channel, psi: np.ndarray) -> float:
    """Exact Haar mean of P0: p + (1 - p) 2^-l from the two-fold twirl."""
    p = _twirled_weight(partition, channel, psi)
    return p + (1.0 - p) * 2.0**-partition.l


def exact_haar_fprime(partition: QubitPartition, channel: Channel, psi: np.ndarray) -> float:
    """Exact Haar mean of F': p + (1 - p) 2^-(n + l) from the two-fold twirl."""
    p = _twirled_weight(partition, channel, psi)
    return p + (1.0 - p) * 2.0 ** -(partition.n + partition.l)


# ---------------------------------------------------------------------------
# Monte Carlo experiments


@dataclass
class AuthSweepStats:
    trials: int
    mean_p0: float
    stderr_p0: float
    mean_fprime: float
    stderr_fprime: float
    mean_fidelity: float
    stderr_fidelity: float
    mean_one_minus_f: float
    min_p0_minus_fprime: float
    predicted_p0: float
    predicted_fprime: float


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def _auth_key_stacks(z: int, mode: str, seed: int, trials: int):
    """The trial keys of an auth sweep, as stacks of ``stack_size(z)`` keys
    (at most ``ensembles.STACK_ENTRIES`` entries, at least one key each);
    trial i draws from its own ``spawn_rng(seed, "auth-sweep", i)`` stream."""
    size = stack_size(z)
    for start in range(0, trials, size):
        rngs = [spawn_rng(seed, "auth-sweep", i) for i in range(start, min(start + size, trials))]
        yield sample_scramblers(z, mode, rngs)


def auth_sweep(
    psi: np.ndarray,
    partition: QubitPartition,
    channel: Channel,
    trials: int,
    mode: str = "haar_exact",
    seed: int = 0,
) -> AuthSweepStats:
    """Monte Carlo over keys of the authentication functionals under a fixed
    tamper channel.

    Each trial draws an independent scrambler from the requested ensemble and
    records P0, F' and the accepted-state fidelity F = F'/P0.  The keys are
    drawn and evaluated in stacks of at most ``ensembles.STACK_ENTRIES``
    complex entries (64 keys at z = 5, one key from z = 8 on), each key
    bitwise the one a lone draw from its trial stream gives.  A stack is
    pushed through the channel as its rank-2^m factors W = U C of the padded
    input rho_ext = C C^dag / 2^m, and P0 and F' are read off as traces
    against the tag-|0> columns of U and against W.
    """
    if trials < MIN_AUTH_TRIALS:
        raise ValueError(f"need at least {MIN_AUTH_TRIALS} trials for stable statistics")
    stacks = [_p0_fprime_stack(us, psi, partition, channel) for us in _auth_key_stacks(partition.z, mode, seed, trials)]
    p0s = np.concatenate([p0 for p0, _ in stacks])
    fps = np.concatenate([fp for _, fp in stacks])
    fids = fps / p0s
    mean_p0, se_p0 = _mean_stderr(p0s)
    mean_fp, se_fp = _mean_stderr(fps)
    mean_f, se_f = _mean_stderr(fids)
    return AuthSweepStats(
        trials=trials,
        mean_p0=mean_p0,
        stderr_p0=se_p0,
        mean_fprime=mean_fp,
        stderr_fprime=se_fp,
        mean_fidelity=mean_f,
        stderr_fidelity=se_f,
        mean_one_minus_f=float(np.mean(1.0 - fids)),
        min_p0_minus_fprime=float(np.min(p0s - fps)),
        predicted_p0=predicted_p0(partition, channel),
        predicted_fprime=predicted_fprime(partition, channel),
    )


@dataclass
class ScanReport:
    estimate: float            # bias-corrected trace distance
    raw_estimate: float
    stderr: float
    exact: float | None
    trials: int


def _pad_joint_state(rho_g: np.ndarray, partition: QubitPartition, t: int, q: int) -> np.ndarray:
    """Interleave per-copy tag and mixed registers into a t-copy joint state.

    ``rho_g`` lives on (message_1 ... message_t, purification); the output
    register order is (msg_1, tag_1, mix_1, ..., msg_t, tag_t, mix_t, purif).
    """
    dn, dl, dm = partition.dims
    pads = [qcore.zero_tag_state(partition.l) for _ in range(t)]
    pads += [qcore.maximally_mixed(partition.m) for _ in range(t)]
    full = rho_g
    for p in pads:
        full = np.kron(full, p)
    dims = [dn] * t + [2**q] + [dl] * t + [dm] * t
    # old positions: messages 0..t-1, purification t, tags t+1..2t, mixes 2t+1..3t
    order = []
    for i in range(t):
        order += [i, t + 1 + i, 2 * t + 1 + i]
    order.append(t)
    return qcore.permute_registers(full, dims, order)


def _copy_symmetric(rho_g: np.ndarray, dn: int, t: int, dq: int) -> bool:
    """Whether rho_g commutes with every permutation of its t message copies."""
    dims = [dn] * t + [dq]
    for k in range(t - 1):
        order = list(range(t + 1))
        order[k], order[k + 1] = k + 1, k
        if np.max(np.abs(qcore.permute_registers(rho_g, dims, order) - rho_g)) > SYMMETRY_TOL:
            return False
    return True


def _psd_factor(rho: np.ndarray) -> np.ndarray:
    """V with V V^dag = rho, keeping eigenvalues above the numerical rank cut."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > rho.shape[0] * np.finfo(float).eps * max(vals[-1], 0.0)
    return vecs[:, keep] * np.sqrt(vals[keep])


def _product_batch_sum(phis: np.ndarray, t: int) -> np.ndarray:
    """sum_i phi_i^(x t) as one Gram product of the vec(phi_i).

    Row i of ``flat`` is vec(phi_i); ``rows`` holds its Khatri-Rao power of
    t - 1 copies, so flat^T rows carries every entry of the sum with index
    order (a_1, c_1, ..., a_t, c_t), transposed here to rows then columns.
    """
    n, d, _ = phis.shape
    flat = phis.reshape(n, d * d)
    rows = np.ones((n, 1), dtype=complex)
    for _ in range(t - 1):
        rows = (rows[:, :, None] * flat[:, None, :]).reshape(n, -1)
    gram = flat.T @ rows
    axes = list(range(0, 2 * t, 2)) + list(range(1, 2 * t, 2))
    return gram.reshape((d,) * (2 * t)).transpose(axes).reshape(d**t, d**t)


def _joint_batch_sum(us: np.ndarray, factor: np.ndarray, t: int) -> np.ndarray:
    """sum_i W_i W_i^dag with W_i = (U_i^(x t) (x) I) V, as one Gram product."""
    n, d, _ = us.shape
    w = factor[None]
    for copy in range(t):
        w = np.matmul(us[:, None], w.reshape(w.shape[0], d**copy, d, -1))
    w = w.reshape(n, *factor.shape).transpose(1, 0, 2).reshape(factor.shape[0], -1)
    return w @ w.conj().T


def security_scan(
    partition: QubitPartition,
    t: int,
    q: int,
    trials: int,
    seed: int = 0,
    rho: np.ndarray | None = None,
    rho_g: np.ndarray | None = None,
    mode: str = "haar_exact",
    batches: int = SCAN_BATCHES,
    bootstrap: int = 200,
) -> ScanReport:
    """Monte Carlo distance between the averaged t-copy encrypted state and
    the maximally mixed target, with the purification register untouched.

    Pass ``rho`` (a single-copy message state, replicated as a product) or a
    general joint state ``rho_g`` on t message registers plus q purification
    qubits.  For product inputs with q = 0 the exact closed-form value is
    attached for cross-checking.  The estimate is bootstrap bias-corrected,
    with the standard error taken over resampled batch means.

    Each batch draws its keys as one stack (trial i from its own
    ``spawn_rng(seed, "security-scan", i)`` stream) and sums the encrypted
    copies in one Gram product: of the vec(phi_i) over their Khatri-Rao
    powers for product input, each phi_i the ``scramble_padded`` ciphertext,
    or of W_i = (U_i^(x t) (x) I) V for a joint input padded as V V^dag.
    When the input commutes with permutations of the copies, so does every
    batch mean, and each is kept only as its blocks B_lam^T (mean - target)
    B_lam on the isotypic components of the copy action; the raw estimate
    and every bootstrap replicate are sums of block trace norms.  A joint input that is not copy-symmetric (to 1e-12),
    or t beyond ``moments.MAX_T``, gets the single identity block.
    """
    if (rho is None) == (rho_g is None):
        raise ValueError("pass exactly one of rho or rho_g")
    z = partition.z
    exact = None
    if rho is not None:
        rho = np.asarray(rho, dtype=complex)
        rho = qcore.pure_dm(rho) if rho.ndim == 1 else rho
        if q != 0:
            raise ValueError("product form has no purification register")
        exact = 0.5 * moments.closeness_exact(partition, rho, t)
    qcore.check_qubits(t * z + q)
    if trials % batches:
        raise ValueError("trials must be divisible by the batch count")
    per_batch = trials // batches
    dq = 2**q
    dz = 2**z
    dzt = dz**t
    dim = dzt * dq
    if rho is not None:
        target = np.eye(dim, dtype=complex) / dim
        symmetric = True
    else:
        factor = _psd_factor(_pad_joint_state(rho_g, partition, t, q))
        rho_q = qcore.partial_trace(rho_g, [2 ** (partition.n * t), dq], {0})
        target = np.kron(np.eye(dzt, dtype=complex) / dzt, rho_q)
        symmetric = _copy_symmetric(rho_g, 2**partition.n, t, dq)
    if symmetric and t <= moments.MAX_T:
        bases = [np.kron(basis, np.eye(dq)) for basis in moments.isotypic_bases(t, dz)]
    else:
        bases = [np.eye(dim)]

    diffs = [np.empty((batches, basis.shape[1], basis.shape[1]), dtype=complex) for basis in bases]
    for b in range(batches):
        rngs = [spawn_rng(seed, "security-scan", b * per_batch + i) for i in range(per_batch)]
        us = sample_scramblers(z, mode, rngs)
        if rho is not None:
            total = _product_batch_sum(scramble_padded(rho, us, partition), t)
        else:
            total = _joint_batch_sum(us, factor, t)
        gap = total / per_batch - target
        for basis, diff in zip(bases, diffs):
            diff[b] = basis.T @ gap @ basis

    raw = 0.5 * sum(qcore.trace_norm(np.mean(diff, axis=0)) for diff in diffs)
    boot_rng = spawn_rng(seed, "security-scan", "bootstrap")
    flats = [diff.reshape(batches, -1) for diff in diffs]
    replicates = np.empty(bootstrap)
    for r in range(bootstrap):
        weights = np.bincount(boot_rng.integers(0, batches, size=batches), minlength=batches) / batches
        replicates[r] = 0.5 * sum(
            qcore.trace_norm((weights @ flat).reshape(diff.shape[1:])) for flat, diff in zip(flats, diffs)
        )
    stderr = float(np.std(replicates, ddof=1))
    bias = float(np.mean(replicates)) - raw
    return ScanReport(
        estimate=raw - bias,
        raw_estimate=raw,
        stderr=stderr,
        exact=exact,
        trials=trials,
    )
