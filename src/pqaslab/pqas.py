"""The protocol: keyed encryption, decryption, tag authentication, the
channel-fidelity functionals governing acceptance, and the Monte Carlo /
exact-oracle experiments behind the authentication and security statements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import moments, qcore
from ._streams import spawn_rngs
from .ensembles import (
    ScramblerSpec,
    SecretKey,
    build_scrambler,
    sample_scrambler_columns,
    sample_scramblers,
    stack_size,
    tag_zero_columns,
)
from .moments import _read_only
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


# Largest entry of P(pi) X P(pi)^dag - X, over adjacent copy swaps pi,
# for which security_scan treats a joint input X as copy-symmetric.
SYMMETRY_TOL = 1e-12

# Fewest trials auth_sweep accepts, and the number of batches security_scan
# splits its trials into (trials must be a multiple of it).
MIN_AUTH_TRIALS = 100
SCAN_BATCHES = 20


def scramble_padded(rho: np.ndarray, y: np.ndarray) -> np.ndarray:
    """U (rho (x) |0><0|_tag (x) I_m / 2^m) U^dag from the tag-|0> columns Y of U
    (``tag_zero_columns``; a (..., d, dn, dm) stack for a stack of keys):
    W W^dag / 2^m with W = Y psi for a pure-state vector psi, and the linear
    Y (rho (x) I_m) Y^dag / 2^m for any operator rho."""
    *keys, d, dn, dm = y.shape
    if rho.ndim == 1:
        w = np.einsum("...xaj,a->...xj", y, rho)
        return w @ w.conj().swapaxes(-1, -2) / dm
    y_rho = np.einsum("...xaj,ab->...xbj", y, rho).reshape(*keys, d, dn * dm)
    return y_rho @ y.reshape(*keys, d, dn * dm).conj().swapaxes(-1, -2) / dm


def scramble_zero(y: np.ndarray) -> np.ndarray:
    """``scramble_padded`` of message |0> from U's first 2^m columns |0, 0, j>
    alone, a (..., d, 2^m) block Y: Y Y^dag / 2^m, bitwise what the whole
    tag-|0> block gives."""
    return scramble_padded(qcore.basis_ket(1, 0), y[..., None, :])


def _decode(rho: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """sum_j C_j^dag rho C_j over the last axis of a (d, a, dm) block C of U's
    columns: U^dag rho U on those columns, mixed register traced, never formed.
    C is copied once in (x, j, a) order, so (x, j) contracts as one
    (a, d dm) x (d dm, a) product."""
    d, a, dm = columns.shape
    c = columns.transpose(0, 2, 1).copy().reshape(d * dm, a)
    rho_c = (rho @ c.reshape(d, dm * a)).reshape(d * dm, a)
    return np.conjugate(c, out=c).T @ rho_c


def encrypt(rho: np.ndarray, key: SecretKey, partition: QubitPartition, spec: ScramblerSpec) -> Ciphertext:
    """Scramble (message (x) tag (x) mixed) with the keyed unitary.

    ``rho`` may be a density matrix or a pure-state vector on the message
    register.  Deterministic in (rho, key, spec); see ``scramble_padded``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != 2**partition.n:
        raise ValueError("message state does not match the partition")
    y = tag_zero_columns(build_scrambler(key, partition.z, spec), partition)
    return Ciphertext(scramble_padded(rho, y), partition)


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


def _p0_fprime_stack(tagged: np.ndarray, psi: np.ndarray, channel: Channel):
    """(P0, F') of every key in a stack of tag-|0> columns Y, shape
    (keys, d, dn, dm), for a pure message psi.

    The padded input is rho_ext = C C^dag / 2^m with C = psi (x) |0>_tag (x) I_m
    of rank 2^m, so the encrypted state is W W^dag / 2^m with W = Y (psi (x) I_m).
    Everything is read off the (2^n 2^m)^2 matrix
    M = Y^dag Gamma(W W^dag / 2^m) Y (``Channel.compress``): P0 = tr M, and
    F' = tr((psi (x) I)^dag M (psi (x) I)) = sum_j w_j^dag Gamma(.) w_j over
    the columns w_j of W.  Only ``UnitaryChannel`` keeps a Gram form that
    builds no d x d matrix.  ``LocalDepolarizingChannel`` acts on the stack
    W W^dag in place, and every other channel goes through its ``apply``.
    """
    keys, d, dn, dm = tagged.shape
    w = np.einsum("kxaj,a->kxj", tagged, psi)
    m = channel.compress(w, tagged.reshape(keys, d, dn * dm)) / dm
    p0 = np.trace(m, axis1=1, axis2=2).real
    fprime = np.einsum("a,kajbj,b->k", psi.conj(), m.reshape(keys, dn, dm, dn, dm), psi).real
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
    mean_p0: float
    stderr_p0: float
    mean_fprime: float
    stderr_fprime: float
    mean_fidelity: float
    stderr_fidelity: float


# trials an experiment that reports a standard error needs
MIN_STDERR_TRIALS = 2


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The sample mean of ``values`` and its standard error (0 for one value)."""
    n = len(values)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def _auth_key_stacks(partition: QubitPartition, mode: str, seed: int, trials: int):
    """The trial keys of an auth sweep as tag-|0> column stacks
    (``sample_scramblers``) of ``stack_size(z)`` keys (at most
    ``ensembles.STACK_ENTRIES`` entries of U, at least one key each); trial i
    draws from its own ``spawn_rng(seed, "auth-sweep", i)`` stream."""
    rngs = spawn_rngs(seed, ("auth-sweep",), range(trials))
    while chunk := list(itertools.islice(rngs, stack_size(partition.z))):
        yield sample_scramblers(partition, mode, chunk)


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
    records P0, F' and the accepted-state fidelity F = F'/P0.  A trial reads
    only its scrambler's tag-|0> columns (``sample_scramblers``; a Haar
    isometry in ``haar_exact`` mode).  The keys are drawn and evaluated in
    stacks of at most ``ensembles.STACK_ENTRIES`` complex entries of U (64
    keys at z = 5, one key from z = 8 on), each key bitwise the one a lone
    draw from its trial stream gives.  A stack is pushed through the
    channel as its rank-2^m factors W = U C of the padded input
    rho_ext = C C^dag / 2^m, and P0 and F' are read off
    Y^dag Gamma(W W^dag) Y (``_p0_fprime_stack``).
    """
    if trials < MIN_AUTH_TRIALS:
        raise ValueError(f"need at least {MIN_AUTH_TRIALS} trials for stable statistics")
    stacks = [_p0_fprime_stack(ys, psi, channel) for ys in _auth_key_stacks(partition, mode, seed, trials)]
    p0s = np.concatenate([p0 for p0, _ in stacks])
    fps = np.concatenate([fp for _, fp in stacks])
    return AuthSweepStats(*mean_stderr(p0s), *mean_stderr(fps), *mean_stderr(fps / p0s))


@dataclass
class ScanReport:
    """A bracket [lower, upper] on the trace distance (``security_scan``),
    printed as ``estimate ± 2 stderr``: its midpoint and a quarter of its width."""

    estimate: float
    raw_estimate: float
    stderr: float
    exact: float | None
    prediction: float | None
    lower: float
    upper: float


def _copy_symmetric(joint: np.ndarray, dn: int, t: int, dq: int) -> bool:
    """Whether a joint state commutes with every permutation of its t message copies."""
    dims = [dn] * t + [dq]
    for k in range(t - 1):
        order = list(range(t + 1))
        order[k], order[k + 1] = k + 1, k
        if np.max(np.abs(qcore.permute_registers(joint, dims, order) - joint)) > SYMMETRY_TOL:
            return False
    return True


def _psd_factor(rho: np.ndarray) -> np.ndarray:
    """V with V V^dag = rho, keeping eigenvalues above the numerical rank cut."""
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > rho.shape[0] * np.finfo(float).eps * max(vals[-1], 0.0)
    return vecs[:, keep] * np.sqrt(vals[keep])


def _packed_side(length: int) -> int:
    """s from the length s(s + 1)/2 of a packed lower triangle."""
    return (math.isqrt(8 * length + 1) - 1) // 2


def _int32(a: np.ndarray) -> np.ndarray:
    return _read_only(a.astype(np.int32))


@lru_cache(maxsize=None)
def _tril_flat(s: int) -> np.ndarray:
    """Flat positions i s + j (j <= i) of an (s, s) lower triangle, in the
    order of a packed row, which holds entry (i, j) at i(i + 1)/2 + j;
    read-only and cached per s."""
    return _int32(np.flatnonzero(np.tri(s, dtype=bool)))


def _unpack(packed: np.ndarray) -> np.ndarray:
    """(..., s, s) matrices with packed rows (..., s(s + 1)/2) in their lower
    triangle and zeros above it; ``eigvalsh`` and ``eigh`` read only the
    lower triangle (UPLO='L')."""
    s = _packed_side(packed.shape[-1])
    dense = np.zeros((*packed.shape[:-1], s * s), dtype=complex)
    dense[..., _tril_flat(s)] = packed
    return dense.reshape(*packed.shape[:-1], s, s)


def _identity_basis(dim: int):
    """The single orbit basis of one block, the identity on all dim tuples."""
    return (((np.arange(dim)[:, None], np.ones((1, 1))),),)


def _orbit_gathers(bases, d: int, t: int):
    """What ``_product_blocks`` reads for each orbit basis B of the product
    X = sum_i phi_i^(x t): the widths s of the bases and a list of row
    blocks (rows, cols, gathers).

    X is held as the Gram product G = F^T K of the vec(phi_i) F and their
    Khatri-Rao power K of t - 1 copies: row (a_1, c_1) of G against column
    (a_2, c_2, ..., a_t, c_t), for row tuple I = (a_1, ..., a_t) and column
    tuple J = (c_1, ..., c_t) of X.  A row block is the slice ``rows`` of
    the rows of a range of whole first digits a_1, and the slice ``cols``
    from the lowest column its gathers read to the last; it holds at most
    one batch's packed entries, or else the d rows of one first digit.  Its
    product agrees with the same entries of the whole product to rounding,
    not bit for bit: BLAS takes other micro-kernels for other shapes.  A gather
    is (block, at, k, keep, dest) for one pair of tables of basis ``block``
    (a row table, then a column table up to it) and the orbit pairs (o, p)
    on or below the block diagonal whose row orbit o starts in the row
    block.  ``at`` (n, u) holds the positions, in the raveled row-block
    product, of X[I_o, J] for the first tuple I_o of row orbit o and every
    tuple J of column orbit p; ``k`` (u, a b) has
    sum_g X[I_o, J_pg] k[g] = the (o, p) block of B^T X B.  ``keep`` picks
    the entries of the (n, a, b) product on or below the diagonal of
    B^T X B, and ``dest`` their places in its packed lower triangle.  Index
    arrays are int32, and every array is read-only.

    X commutes with every P(pi), so X[pi I_o, J] = X[I_o, pi^-1 J]: each row
    of an orbit pair's block of X is a permutation of its first, and k folds
    that permutation into the weights, k[g, a, b] = sum_e R[e, a] C[pi_e g, b]
    with pi_e taking I_o to the e-th tuple of its orbit.  The second digit
    of every first tuple I_o is at least its first, so a row block whose
    first digits start at a_1 reads only the columns with a_2 >= a_1.
    """
    power = d ** np.arange(t - 1, -1, -1)

    def digits(flat):
        return flat[..., None] // power % d

    # row I and column J of X sit at d s(I) + s(J) of the raveled G, s(I) the digits of I spread to every second place
    spread = digits(np.arange(d**t)) @ power**2
    width = d ** (2 * t - 2)
    sizes, gathers = [], []
    for block, basis in enumerate(bases):
        starts = np.cumsum([0] + [moments.basis_width((table,)) for table in basis])
        for i, (row_index, row_weight) in enumerate(basis):
            first = digits(row_index[0])
            # pinv[e] permutes tuple 0 of the orbit into tuple e: first[0][pinv[e]] == first[e]
            pinv = np.empty_like(first)
            np.put_along_axis(pinv, np.argsort(first, axis=1, kind="stable"), np.argsort(first[0], kind="stable"), 1)
            for j, (col_index, col_weight) in enumerate(basis[: i + 1]):
                moved = digits(col_index[0])[:, pinv] @ power  # (u, s): pi_e applied to tuple g
                sorter = np.argsort(col_index[0])
                image = sorter[np.searchsorted(col_index[0], moved, sorter=sorter)]
                k = np.einsum("ea,geb->gab", row_weight, col_weight[image]).astype(complex)
                u, a, b = k.shape
                o, p = len(row_index), len(col_index)
                pairs = np.tril_indices(o) if i == j else np.indices((o, p)).reshape(2, -1)
                at = d * spread[row_index[pairs[0], 0]][:, None] + spread[col_index[pairs[1]]]
                rows = starts[i] + pairs[0][:, None, None] * a + np.arange(a)[:, None]
                cols = starts[j] + pairs[1][:, None, None] * b + np.arange(b)
                keep = np.flatnonzero(rows >= cols)
                dest = (rows * (rows + 1) // 2 + cols).ravel()[keep]
                # orbits come in order of their first digit, so each row block's pairs are a slice
                lead = row_index[pairs[0], 0] // d ** (t - 1)
                gathers.append((block, at, _read_only(k.reshape(u, a * b)), keep, dest, lead))
        sizes.append(int(starts[-1]))
    budget = sum(s * (s + 1) // 2 for s in sizes)
    lowest = np.full(d, width)
    for _, at, _, _, _, lead in gathers:
        np.minimum.at(lowest, lead, at.min(axis=1) % width)
    row_blocks = []
    lo = 0
    while lo < d:
        hi = lo + 1
        while hi < d and (hi + 1 - lo) * d * (width - lowest[lo : hi + 1].min()) <= budget:
            hi += 1
        start = lowest[lo:hi].min()
        planned = []
        for block, at, k, keep, dest, lead in gathers:
            first, last = np.searchsorted(lead, [lo, hi])
            if first == last:
                continue
            ab = k.shape[1]
            kept = slice(*np.searchsorted(keep, [first * ab, last * ab]))
            at = at[first:last]
            local = (at // width - lo * d) * (width - start) + at % width - start
            planned.append((block, _int32(local), k, _int32(keep[kept] - first * ab), _int32(dest[kept])))
        row_blocks.append((slice(lo * d, hi * d), slice(int(start), width), tuple(planned)))
        lo = hi
    return tuple(sizes), tuple(row_blocks)


@lru_cache(maxsize=None)
def _product_plans(t: int, d: int):
    """``_orbit_gathers`` of the blocks a product input gets (the isotypic
    bases, or the identity block beyond ``moments.MAX_T``), cached per (t, d)."""
    bases = moments.isotypic_bases(t, d) if t <= moments.MAX_T else _identity_basis(d**t)
    return _orbit_gathers(bases, d, t)


def _product_blocks(phis: np.ndarray, t: int, plans) -> list[np.ndarray]:
    """The packed lower triangle of B^T X B for each orbit basis B
    (``moments.isotypic_bases``) of X = sum_i phi_i^(x t), for a (n, d, d)
    stack phis, by the gathers ``_orbit_gathers`` planned.

    Row i of ``flat`` is vec(phi_i); ``power`` holds its Khatri-Rao power of
    t - 1 copies (``flat`` itself at t = 2, a column of ones at t = 1).  The
    Gram product flat^T power carries every entry of X, and is formed one
    row block at a time, on the columns that block's gathers read; each
    gather takes one row per orbit pair, contracts it with its folded
    weights and writes the result into the packed rows."""
    n, d, _ = phis.shape
    flat = phis.reshape(n, d * d)
    power = flat if t > 1 else np.ones((n, 1), dtype=complex)
    for _ in range(t - 2):
        power = (power[:, :, None] * flat[:, None, :]).reshape(n, -1)
    sizes, row_blocks = plans
    blocks = [np.empty(s * (s + 1) // 2, dtype=complex) for s in sizes]
    for rows, cols, gathers in row_blocks:
        gram = (flat[:, rows].T @ power[:, cols]).ravel()
        for block, at, k, keep, dest in gathers:
            blocks[block][dest] = (gram[at] @ k).ravel()[keep]
    return blocks


def _joint_batch_factor(ys: np.ndarray, factor: np.ndarray, t: int) -> np.ndarray:
    """W = [W_1 ... W_n] with W_i = (Y_i^(x t) (x) I) V, for tag-|0> column
    stacks ys (n, d, dn, dm) and V, rows (msg_1, mix_1, ..., msg_t, mix_t,
    purif), a factor of the joint input with each copy's I_m / 2^m appended:
    the batch sum is W W^dag, with rows (copies, purification)."""
    n, d, dn, dm = ys.shape
    y = ys.reshape(n, d, dn * dm)
    w = factor[None]
    for copy in range(t):
        w = np.matmul(y[:, None], w.reshape(w.shape[0], d**copy, dn * dm, -1))
    return w.reshape(n, -1, factor.shape[1]).transpose(1, 0, 2).reshape(-1, n * factor.shape[1])


def _joint_blocks(w: np.ndarray, bases, dq: int) -> list[np.ndarray]:
    """The packed lower triangle of (B_lam (x) I_q)^T W W^dag (B_lam (x) I_q)
    for each orbit basis, from Z Z^dag with Z = (B_lam (x) I_q)^T W: each
    orbit's rows of W are gathered and contracted with its weight table, the
    purification index riding along as a trailing axis."""
    w = w.reshape(-1, dq, w.shape[1])
    blocks = []
    for basis in bases:
        z = np.concatenate(
            [np.einsum("sr,osqc->orqc", weight, w[index]).reshape(-1, w.shape[2]) for index, weight in basis]
        )
        blocks.append((z @ z.conj().T).ravel()[_tril_flat(len(z))])
    return blocks


def _packed_target(s: int, rho_q: np.ndarray, dzt: int) -> tuple[np.ndarray, np.ndarray]:
    """Places in a packed row and values of the lower triangle of the (s, s)
    target block I (x) rho_q / d^t: the diagonal when rho_q is 1 x 1."""
    dq = len(rho_q)
    i, j = np.tril_indices(dq)
    rows = (np.arange(0, s, dq)[:, None] + i).ravel()
    cols = (np.arange(0, s, dq)[:, None] + j).ravel()
    return rows * (rows + 1) // 2 + cols, np.tile(rho_q[i, j] / dzt, s // dq)


def _half_sums(batch, sizes: list[int]) -> list[list[np.ndarray]]:
    """Pass 1 of ``security_scan``: per block, the running sums of the
    packed blocks D_b = ``batch(b)`` over the first and over the second
    half of the SCAN_BATCHES batches, each batch freed before the next is
    drawn."""
    sums = [[np.zeros(s * (s + 1) // 2, dtype=complex) for _ in range(2)] for s in sizes]
    for b in range(SCAN_BATCHES):
        diff = batch(b)
        for pair, block in zip(sums, diff):
            pair[2 * b // SCAN_BATCHES] += block
        del diff, block
    return sums


def _leave_one_out(totals: list[np.ndarray], diff: list[np.ndarray]) -> float:
    """The jackknife value of leaving one batch out: half the trace norm of
    (total - diff) / (batches - 1) summed over the packed blocks, from the
    batch total and the left-out batch's blocks ``diff``; each block is
    unpacked and solved alone, one (s, s) block beyond the packed ones."""
    value = 0.0
    for total, d in zip(totals, diff):
        gap = np.subtract(total, d)
        gap /= SCAN_BATCHES - 1
        value += qcore.trace_norm(_unpack(gap))
    return 0.5 * value


def _jackknife_se(thetas: np.ndarray) -> float:
    """Delete-one-batch jackknife SE of the raw estimate from its
    leave-one-out values ``thetas`` (``_leave_one_out``; Efron and Stein,
    Ann. Stat. 9, 586 (1981))."""
    batches = len(thetas)
    return float(np.sqrt((batches - 1) / batches * np.sum((thetas - thetas.mean()) ** 2)))


def _packed_sign(total: np.ndarray, count: int) -> np.ndarray:
    """The packed lower triangle of sign(total / count) for a packed
    Hermitian block ``total``, its diagonal halved, so that a real product
    with a packed block D gives tr(sign(mean) D) / 2 (``_witness``).  The
    mean is divided out after unpacking, and V sign(Lambda) V^dag is formed
    from V sign(Lambda) and V conjugated in place: three (s, s) arrays at
    most, besides ``eigh``'s own."""
    s = _packed_side(len(total))
    mean = _unpack(total)
    mean /= count
    vals, vecs = np.linalg.eigh(mean)
    del mean
    scaled = vecs * np.sign(vals)
    sign = scaled @ np.conjugate(vecs, out=vecs).T
    del scaled, vecs
    sign = sign.ravel()[_tril_flat(s)]
    sign[np.arange(s) * (np.arange(s) + 3) // 2] /= 2
    return sign


def _witness(diff: list[np.ndarray], signs: list[np.ndarray]) -> float:
    """One batch's value of the cross-fitted Helstrom witness: half of
    tr(S diff) summed over the packed blocks, with S the sign of the other
    half's block mean (``_packed_sign``).  For Hermitian S and D,
    tr(S D) / 2 = sum_i S_ii D_ii / 2 + Re sum_(i>j) conj(S_ij) D_ij: one
    real product of the packed rows with S's packed lower triangle, its
    diagonal halved."""
    return sum(float(d.view(float) @ sign.view(float)) for d, sign in zip(diff, signs))


def _two_pass(batch, sizes: list[int]) -> tuple[float, float, np.ndarray]:
    """The raw estimate, its jackknife SE and the per-batch witness values
    from the packed blocks D_b = ``batch(b)`` of widths ``sizes``, each batch
    read twice and none kept:
    - pass 1 sums each half's D_b (``_half_sums``); the raw estimate comes
      from their total T, and each half's sign S_h from its mean
      (``_packed_sign``);
    - pass 2 reads every batch again for its witness value
      <D_b, S_other half> (``_witness``) and its leave-one-out value
      (``_leave_one_out``).
    T, S_0, S_1 and the batch in hand are all it holds at once."""
    half = SCAN_BATCHES // 2
    sums = _half_sums(batch, sizes)
    signs, totals = ([], []), []
    # block by block: a block's second-half sum is freed once its signs and total are formed
    while sums:
        first, second = sums.pop(0)
        signs[0].append(_packed_sign(first, half))
        signs[1].append(_packed_sign(second, half))
        totals.append(np.add(first, second, out=first))
    del first, second
    raw = 0.5 * sum(qcore.trace_norm(_unpack(total / SCAN_BATCHES)) for total in totals)
    thetas, witnesses = np.zeros(SCAN_BATCHES), np.zeros(SCAN_BATCHES)
    for b in range(SCAN_BATCHES):
        diff = batch(b)
        witnesses[b] = _witness(diff, signs[1 - b // half])
        thetas[b] = _leave_one_out(totals, diff)
        del diff
    return raw, _jackknife_se(thetas), witnesses


def security_scan(
    partition: QubitPartition,
    state: np.ndarray,
    t: int,
    trials: int,
    seed: int = 0,
    mode: str = "haar_exact",
) -> ScanReport:
    """Monte Carlo distance between the averaged t-copy encrypted state and
    the maximally mixed target, with the purification register untouched.

    ``state`` (a density matrix or a pure-state vector) is read by its
    dimension: at 2^n it is one message copy, scanned as the product
    state^(x t), and at 2^(n t + q) it is a joint state on the t message
    registers and q purification qubits (at t = 1, q = 0 the two readings
    agree); any other dimension raises ``ValueError``.  A product input
    gets the Haar closed form (``moments.closeness_exact``) as ``exact``; in
    ``pru_only`` mode, whose brickwork ensemble is not Haar, it is the
    ``prediction`` instead and ``exact`` is None.  The report brackets the
    distance over
    ``SCAN_BATCHES`` batches.  The raw estimate errs high (the trace norm is
    convex) and ``upper`` adds two delete-one-batch jackknife SEs to it.
    The witness errs low: each half of the batches is traced against the
    sign of the other half's mean, and ``lower`` subtracts two SEs of the
    witness.  That SE is the mean of the two halves' batch SEs, which bounds
    it however the cross-fitted halves correlate.

    Batch b draws its trials in order from one generator,
    ``spawn_rng(seed, "security-scan", b)`` (all SCAN_BATCHES derived at
    once by ``spawn_rngs``): its stack of trial scramblers is drawn over
    that generator repeated, per_batch times.  In ``haar_exact`` mode a
    product input of rank r reads only r 2^m columns: each trial is a Haar
    isometry W of that width (``sample_scrambler_columns``, one
    (2, d, r 2^m) block of normals thin-QR'd; Mezzadri, Notices AMS 54,
    2007), its k-th block of 2^m columns scaled by the square root of rho's
    k-th eigenvalue (the column norms of ``_psd_factor``), and
    phi = W W^dag / 2^m, distributed as the ciphertext of rho.  Joint inputs
    and the keyed modes read the tag-|0> columns Y_i
    (``sample_scramblers``).  When the input commutes with permutations of
    the copies, so does every batch mean, and each is kept only as its
    blocks B_lam^T (mean - target) B_lam on the isotypic components of the
    copy action; the raw estimate, the jackknife's leave-one-out values and
    the witness are sums over blocks.  Every column of B_lam lives on one
    S_t orbit of basis tuples (``moments.isotypic_bases``), so the blocks
    are read by gathers and no d^t x d^t basis product, transpose or gap is
    formed:
    - product input: the batch sum of phi_i^(x t) is a Gram product of the
      vec(phi_i) over their Khatri-Rao powers, formed one row block at a
      time and read at one row per orbit pair (``_orbit_gathers``,
      ``_product_blocks``);
    - joint input: factored as F F^dag and padded in the factor,
      V = F (x) I_(m t) / 2^(m t / 2) with its rows reordered to (msg_1,
      mix_1, ..., msg_t, mix_t, purif), so the padded state is never
      formed; the batch sum is W W^dag with W = [(Y_i^(x t) (x) I) V]_i
      (``_joint_batch_factor``), and each block is
      Z Z^dag with Z the orbit rows of W contracted with the weights, the
      purification register a trailing index (``_joint_blocks``).
    The blocks are Hermitian, so a batch is held only as their lower
    triangles, packed row by row (LAPACK's packed Hermitian storage):
    sum_lam s_lam (s_lam + 1)/2 complex values D_b for blocks of width
    s_lam.  The product gathers read only the orbit pairs on or below the
    block diagonal, and the target I/d^t (x) rho_q is subtracted at its
    packed places (the diagonal for a product input).  No batch is kept:
    each is drawn twice, from the start of its generator, once into its
    half's running sum and once for its witness and leave-one-out values
    (``_two_pass``).  The scan holds the total, the two halves' signs and
    the batch in hand, four batches' worth of packed blocks (4 x 4.2 MB at
    z = 5, t = 2, where s_lam = 528 and 496), not SCAN_BATCHES.  Beside
    them it holds, for a product input, one row block of the batch's Gram
    product, never the whole d^2 x d^(2t-2) of it: the rows of a range of
    first digits, and the columns from the lowest one their gathers read,
    at most one batch's packed entries.  The gather plans (int32, about one
    batch's worth) are built once per (t, d) and cached.  Taking a half's
    sign or a leave-one-out value unpacks one (s, s) block at a time.  A joint
    input that is not copy-symmetric (to 1e-12), or t beyond
    ``moments.MAX_T``, gets the single identity block.
    """
    state = np.asarray(state, dtype=complex)
    state = qcore.pure_dm(state) if state.ndim == 1 else state
    dim, z = state.shape[0], partition.z
    product = dim == 2**partition.n
    q = 0 if product else dim.bit_length() - 1 - partition.n * t
    if q < 0 or dim & (dim - 1):
        raise ValueError("state dimension is neither 2^n (one message copy) nor 2^(n t + q) (a joint state)")
    qcore.check_qubits(t * z + q)
    if trials <= 0 or trials % SCAN_BATCHES:
        raise ValueError("trials must be a positive multiple of the batch count")
    haar = 0.5 * moments.closeness_exact(partition, state, t) if product else None
    per_batch = trials // SCAN_BATCHES
    dq = 2**q
    dz = 2**z
    dzt = dz**t
    dn, _, dm = partition.dims
    if product:
        rho_q = np.ones((1, 1))
        symmetric = True
        if mode == "haar_exact":
            # phi = W W^dag / 2^m, W a Haar isometry's r 2^m columns scaled blockwise by sqrt(lambda_k)
            scales = np.repeat(np.linalg.norm(_psd_factor(state), axis=0), dm)
            columns = np.arange(len(scales))

            def ciphertexts(draws):
                w = sample_scrambler_columns(z, mode, draws, columns) * scales
                phis = w @ w.conj().swapaxes(-1, -2)
                phis /= dm
                return phis

        else:

            def ciphertexts(draws):
                return scramble_padded(state, sample_scramblers(partition, mode, draws))

    else:
        # V V^dag is the joint state with I_m / 2^m appended per copy, rows reordered to (msg_1, mix_1, ..., purif)
        factor = np.kron(_psd_factor(state), np.eye(dm**t) / np.sqrt(dm**t))
        order = [reg for i in range(t) for reg in (i, t + 1 + i)] + [t, 2 * t + 1]
        factor = factor.reshape([dn] * t + [dq] + [dm] * t + [-1]).transpose(order).reshape(-1, factor.shape[1])
        rho_q = qcore.partial_trace(state, [dn**t, dq], {0})
        symmetric = _copy_symmetric(state, dn, t, dq)
    if symmetric and t <= moments.MAX_T:
        bases = moments.isotypic_bases(t, dz)
    else:
        bases = _identity_basis(dzt)
    sizes = [moments.basis_width(basis) * dq for basis in bases]
    targets = [_packed_target(s, rho_q, dzt) for s in sizes]
    plans = _product_plans(t, dz) if product else None

    rngs = list(spawn_rngs(seed, ("security-scan",), range(SCAN_BATCHES)))
    starts = [rng.bit_generator.state for rng in rngs]

    def batch(b: int) -> list[np.ndarray]:
        """D_b: batch b's packed blocks less the target, drawn from the start of its generator."""
        rngs[b].bit_generator.state = starts[b]
        draws = [rngs[b]] * per_batch
        if product:
            blocks = _product_blocks(ciphertexts(draws), t, plans)
        else:
            blocks = _joint_blocks(_joint_batch_factor(sample_scramblers(partition, mode, draws), factor, t), bases, dq)
        for block, (at, values) in zip(blocks, targets):
            block /= per_batch
            block[at] -= values
        return blocks

    raw, jackknife_se, witnesses = _two_pass(batch, sizes)
    witness = float(np.mean(witnesses))
    # sd(X + Y) <= sd X + sd Y: the halves' mean SE bounds SE(W) however they correlate
    witness_se = sum(mean_stderr(half)[1] for half in np.split(witnesses, 2)) / 2
    lower, upper = witness - 2 * witness_se, raw + 2 * jackknife_se
    pru = mode == "pru_only"
    return ScanReport(
        estimate=(lower + upper) / 2,
        raw_estimate=raw,
        stderr=(upper - lower) / 4,
        exact=None if pru else haar,
        prediction=haar if pru else None,
        lower=lower,
        upper=upper,
    )
