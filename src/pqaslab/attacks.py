"""Adversary games separating padded (randomized) encryption from the
deterministic pure-state variant.

The left-or-right game simulates the strongest pairwise-SWAP adversary
exactly: conditioned on the sampled pads the t received states are a pure
product state, so the probability that a whole sequence of pairwise
symmetric-subspace projections accepts reduces to a permutation-group sum
over Gram-matrix cycle products, whose weights are built once per (t, pair
order) with ``moments.convolve`` and cached.  No t-copy joint state is ever
materialized.  The ciphertext for pad k is U|v, 0_tag, k>, so for every key
U the Gram matrix is delta(k_i, k_j) <v_i|v_j>: the game draws no key and
reads the pad-embedded vectors e_k (x) v instead, so it takes only the
plaintext lists and the pad width m, never a tag length or a key.

The qubit-number attack measures copy pairs transversally in the Bell
basis.  The copies share the key but carry independent uniform pads, so
every pair is in the state rho (x) rho of the pad-averaged copy rho, and
every shot of every pair is drawn in one call.  Both Bell estimators read
one outcome law, a Walsh-Hadamard transform of a correlation table: an XOR
autocorrelation of rho here, one index gather of a general state in
``bell_parity_purity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import moments, qcore
from ._streams import spawn_rngs
from .ensembles import random_pure_state, sample_scramblers
from .pqas import MIN_STDERR_TRIALS, Ciphertext, mean_stderr, scramble_padded
from .qcore import QubitPartition


@dataclass
class AttackReport:
    advantage: float
    success_rate: float
    standard_error: float


# ---------------------------------------------------------------------------
# left-or-right CPA game

MAX_CPA_QUERIES = 8  # oracle queries per game


def standard_cpa_lists(t: int, n: int):
    """The canonical adversary choice: left all |0>, right mutually orthogonal."""
    qcore.check_qubits(n)
    if t > 2**n:
        raise ValueError("need 2^n >= t for mutually orthogonal right states")
    dim = 2**n
    left = [qcore.basis_ket(dim, 0) for _ in range(t)]
    right = [qcore.basis_ket(dim, i) for i in range(t)]
    return left, right


@lru_cache(maxsize=None)
def _chain_weights(t: int, pairs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the SWAP chain's permutation sum, cached per (t, pairs).

    The chain is A = S_k ... S_1 with S = (e + s_ij)/2 for the pairs in
    order, so <psi|A^dag A|psi> = sum_sigma w(sigma) <psi|P(sigma)|psi> with
    w = A~ * A and A~(x) = A(x^-1).  Returned read-only: the inverse of each
    permutation in the support of w, one per row, and its weight.
    """
    e = moments.identity_perm(t)
    factors = []
    for i, j in pairs:
        swap = list(e)
        swap[i], swap[j] = j, i
        factors.append({e: 0.5, tuple(swap): 0.5})
    chain = reduce(moments.convolve, reversed(factors), {e: 1.0})
    w = moments.convolve({moments.invert(p): c for p, c in chain.items()}, chain)
    support = [p for p, c in w.items() if c]
    inverses = np.array([moments.invert(p) for p in support], dtype=np.intp)
    weights = np.array([w[p] for p in support])
    inverses.flags.writeable = weights.flags.writeable = False
    return inverses, weights


def _swap_chain_accept_prob(states: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    """Probability that sequential SWAP tests on the given pairs all accept.

    ``states`` (one per row) are pure and mutually independent, so the
    ordered product of pair-symmetrizers expands over the symmetric group and
    every term <psi|P(sigma)|psi> = prod_k G[k, sigma^-1(k)] is a product of
    Gram-matrix entries along permutation cycles.
    """
    t = len(states)
    inverses, weights = _chain_weights(t, tuple(map(tuple, pairs)))
    vecs = np.asarray(states)
    gram = vecs.conj() @ vecs.T
    total = float(weights @ np.prod(gram[np.arange(t), inverses], axis=1).real)
    return min(max(total, 0.0), 1.0)


def _padded_states(vectors, pads: list[int], dm: int) -> np.ndarray:
    """The vectors e_{k_i} (x) v_i, one per row, for pads k_i < dm.

    Their Gram matrix delta(k_i, k_j) <v_i|v_j> is exactly that of the pure
    ciphertexts U|v_i, 0_tag, k_i> under any unitary U.
    """
    return np.array([np.kron(qcore.basis_ket(dm, k), v) for k, v in zip(pads, vectors)])


def lr_cpa_game(left: list, right: list, m: int, trials: int = 500, seed: int = 0) -> AttackReport:
    """Run the left-or-right experiment with the pairwise-SWAP adversary.

    ``left`` and ``right`` are equal-length lists of message-state vectors of
    one dimension, one per oracle query.  The scheme pads each query with m
    maximally mixed qubits: m = 0 is the deterministic pure-state variant,
    m > 0 the padded scheme.  The adversary guesses "left" exactly when every
    SWAP test accepts.  Per game the accept-all probability is evaluated for
    both oracle branches with common pads, giving the empirical success rate
    of the Bernoulli game together with a variance-reduced estimate of the
    distinguishing advantage 2 Pr[success] - 1.

    Game g draws from its own ``spawn_rng(seed, "lr-cpa", g)`` stream: its
    t pads (none when m = 0), then its coin and the accept draw.  No key is
    drawn: the SWAP chain reads only the Gram matrix of the ciphertexts,
    which ``_padded_states`` reproduces exactly.
    """
    if len(left) != len(right):
        raise ValueError("left and right lists must have equal length")
    if len({np.shape(v) for v in [*left, *right]}) != 1 or np.ndim(left[0]) != 1:
        raise ValueError("plaintexts must be state vectors of one dimension")
    if m < 0:
        raise ValueError("the pad register needs m >= 0 qubits")
    qcore.check_qubits(int(np.log2(len(left[0]))) + m)
    t = len(left)
    if t > MAX_CPA_QUERIES:
        raise ValueError(f"at most {MAX_CPA_QUERIES} oracle queries are supported")
    if trials < MIN_STDERR_TRIALS:
        raise ValueError(f"need at least {MIN_STDERR_TRIALS} trials for a standard error")
    if t <= 6:
        pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    else:
        pairs = [(i, i + 1) for i in range(0, t - 1, 2)]
    dm = 2**m
    wins = 0
    gaps = np.empty(trials)
    for g, rng in enumerate(spawn_rngs(seed, ("lr-cpa",), range(trials))):
        pads = [int(rng.integers(dm)) if dm > 1 else 0 for _ in range(t)]
        p_branch = [_swap_chain_accept_prob(_padded_states(side, pads, dm), pairs) for side in (left, right)]
        gaps[g] = p_branch[0] - p_branch[1]
        b = int(rng.integers(2))
        accepted_all = rng.random() < p_branch[b]
        guess = 0 if accepted_all else 1
        wins += int(guess == b)
    mean, stderr = mean_stderr(gaps)
    return AttackReport(advantage=abs(mean), success_rate=wins / trials, standard_error=stderr)


# ---------------------------------------------------------------------------
# purity probe and multi-state attack


def _pair_swap_tests(ciphertexts: list[Ciphertext], rng: np.random.Generator):
    """Whether the SWAP test of each disjoint consecutive pair accepts, in
    order; one uniform is drawn per pair, when that pair is reached."""
    for k in range(len(ciphertexts) // 2):
        yield rng.random() < qcore.swap_test_accept(ciphertexts[2 * k].state, ciphertexts[2 * k + 1].state)


def purity_probe(ciphertexts: list[Ciphertext], rng: np.random.Generator) -> float:
    """Estimate tr(rho^2) from SWAP tests on disjoint ciphertext pairs.

    Returns 2 * (accept fraction) - 1; with K pairs the standard error is
    2 sqrt(a(1-a)/K) for accept fraction a.
    """
    if len(ciphertexts) < 2 or len(ciphertexts) % 2:
        raise ValueError("need an even number of ciphertext copies")
    return 2.0 * sum(_pair_swap_tests(ciphertexts, rng)) / (len(ciphertexts) // 2) - 1.0


def multi_state_attack(ciphertexts: list[Ciphertext], rng: np.random.Generator) -> int:
    """Decide whether the ciphertexts encrypt one state (1) or several (2).

    SWAP tests run on disjoint consecutive pairs; the first failure reveals
    that at least two distinct states were sent, and no later pair is tested.
    """
    if len(ciphertexts) < 2:
        raise ValueError("need at least two ciphertexts")
    return 1 if all(_pair_swap_tests(ciphertexts, rng)) else 2


# ---------------------------------------------------------------------------
# Bell-measurement machinery


def _wht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 of a 2-d array."""
    d = x.shape[0]
    h = 1
    while h < d:
        y = x.reshape(d // (2 * h), 2, h, -1)
        x = np.stack((y[:, 0] + y[:, 1], y[:, 0] - y[:, 1]), axis=1)
        h *= 2
    return x.reshape(d, -1)


def _bell_law(corr: np.ndarray) -> np.ndarray:
    """Transversal Bell outcome law from its correlation table, outcome index
    (a << h) | b.

    corr[b, r] = D^-1 sum_i sigma[(i, i^b), (i^r, i^r^b)] for the measured
    2h-qubit state sigma; CNOT(j -> j+h) and H on the first half give
    P(a, b) = sum_r (-1)^(a.r) corr[b, r], a Walsh-Hadamard transform over r.
    The law is normalized here, so corr may carry any positive scale.
    """
    law = np.clip(_wht(corr.T).real, 0.0, None).ravel()  # [a, b]
    return law / law.sum()


def _bell_pair_law(rho: np.ndarray) -> np.ndarray:
    """Transversal Bell outcome law of rho (x) rho, outcome index (a << z) | b.

    Here corr[b, r] is proportional to sum_i rho[i, i^r] rho[i^b, i^r^b], an
    XOR autocorrelation over i taken by two Walsh-Hadamard transforms.
    O(4^z) memory; the 4^z x 4^z pair state is never formed.
    """
    d = rho.shape[0]
    idx = np.arange(d)
    shifted = rho[idx[:, None], idx[:, None] ^ idx]      # [i, r] = rho[i, i^r]
    spec = _wht(shifted)
    return _bell_law(_wht(spec * spec) / d)              # corr [b, r]


def _bell_state_law(state: np.ndarray, half: int) -> np.ndarray:
    """Transversal Bell outcome law of a general state on 2 * half qubits,
    from one D^3 gather of its entries (D = 2^half)."""
    d = 2**half
    b, r, i = np.ix_(*(np.arange(d),) * 3)
    corr = state[i * d + (i ^ b), (i ^ r) * d + (i ^ r ^ b)].sum(axis=-1)
    return _bell_law(corr)


def _and_bits(outcomes: np.ndarray, half: int) -> np.ndarray:
    """Per-outcome AND bitstring (as ints) between the two measured halves."""
    a = outcomes >> half
    b = outcomes & ((1 << half) - 1)
    return a & b


def _prefix_parity(nu: np.ndarray, half: int, prefix: int) -> np.ndarray:
    """Parity of the first ``prefix`` bits (msb side) of each AND bitstring."""
    mask = ((1 << prefix) - 1) << (half - prefix)
    vals = nu & mask
    par = np.zeros_like(vals)
    while np.any(vals):
        par ^= vals & 1
        vals >>= 1
    return par & 1


def _qubits(dim: int) -> int:
    """The qubit count of a dimension, which must be a power of two."""
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two, so not a whole number of qubits")
    return dim.bit_length() - 1


def bell_parity_purity(state: np.ndarray, b: int, shots: int, rng: np.random.Generator) -> float:
    """Transversal-Bell-measurement purity estimator Z_b = 1 - 2 P_odd(b).

    ``state`` is a density matrix on 2h qubits holding two h-qubit halves;
    pairs (j, j+h) are measured in the Bell basis and the odd-parity
    frequency of the first b AND bits is converted to Z_b.  For halves in a
    product state rho (x) rho' the estimator is unbiased for
    tr(tr_rest(rho) tr_rest(rho')) restricted to the first b qubits.
    """
    qubits = _qubits(state.shape[0])
    if qubits % 2:
        raise ValueError("state must hold two equal halves")
    half = qubits // 2
    if not 1 <= b <= half:
        raise ValueError("prefix length out of range")
    probs = _bell_state_law(state, half)
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    nu = _and_bits(outcomes, half)
    return 1.0 - 2.0 * float(np.mean(_prefix_parity(nu, half, b)))


# ---------------------------------------------------------------------------
# qubit-number attack

# desk scale (n, s_max), and the bound on delta: the statistic Z lies in [-1, 1]
MAX_DESK_N, MAX_DESK_S, DELTA_BOUND = 2, 3, 2


@dataclass
class QubitCountReport:
    decision: int | None            # smallest prefix count with Z ~ 1, or abstain
    z_values: list[float]


def _check_desk_scale(n: int, s_max: int) -> None:
    if s_max > MAX_DESK_S or n > MAX_DESK_N:
        raise ValueError(f"desk scale supports s_max <= {MAX_DESK_S} and n <= {MAX_DESK_N}")


def qubit_count_interception(
    n: int,
    true_s: int,
    s_max: int,
    rng: np.random.Generator,
    l: int = 0,
    m: int = 0,
    mode: str = "haar_exact",
) -> tuple[np.ndarray, int]:
    """One intercepted stream: the pad-averaged copy state and the copy count.

    Draws a pure message on n * true_s qubits, then the tag-|0> columns Y of
    the key (see ``sample_scramblers``), and returns
    rho = U (psi (x) |0><0|_l (x) I/2^m) U^dag (``scramble_padded`` from Y)
    with the stream length 2 * s_max!/true_s.
    """
    _check_desk_scale(n, s_max)
    part = QubitPartition(n * true_s, l, m)
    psi = random_pure_state(part.n, rng)
    y = sample_scramblers(part, mode, [rng])[0]
    return scramble_padded(psi, y), 2 * (math.factorial(s_max) // true_s)


def qubit_count_attack(
    state: np.ndarray,
    copies: int,
    n: int,
    s_max: int,
    delta: float = 0.1,
    shots: int = 800,
    *,
    rng: np.random.Generator,
) -> QubitCountReport:
    """Recover the per-message qubit multiple s from an intercepted stream.

    The stream holds ``copies`` copies of ``state`` with independent pads;
    copy c is Bell-measured against copy copies/2 + c.  Every pair follows
    the law of ``_bell_pair_law``, and all copies/2 x shots outcomes are
    drawn in one call.  The purity proxy Z_{n s'} is estimated for every
    s' = 1..s_max.  The decision is the smallest s' with Z >= 1 - delta,
    0 <= delta < DELTA_BOUND (prefix purity is 1 exactly when the prefix
    holds whole copies).  Abstains (None) when no prefix qualifies.
    """
    _check_desk_scale(n, s_max)
    if not 0 <= delta < DELTA_BOUND:
        raise ValueError(f"delta must lie in [0, {DELTA_BOUND}): Z lies in [-1, 1]")
    pairs = copies // 2
    width = _qubits(state.shape[0])
    law = _bell_pair_law(state)
    segments = _and_bits(rng.choice(len(law), size=(pairs, shots), p=law), width)
    shifts = (pairs - 1 - np.arange(pairs)) * width
    nus = np.bitwise_or.reduce(segments << shifts[:, None], axis=0)
    odd_counts = np.array([np.sum(_prefix_parity(nus, pairs * width, n * s)) for s in range(1, s_max + 1)])
    z_values = list(1.0 - 2.0 * odd_counts / shots)
    decision = next((s + 1 for s in range(s_max) if z_values[s] >= 1.0 - delta), None)
    return QubitCountReport(decision=decision, z_values=z_values)


# ---------------------------------------------------------------------------
# decoy scenario


def decoy_indistinguishability(partition: QubitPartition, t: int) -> float:
    """Exact t-copy trace distance between the averaged ciphertexts of the
    message |0...0> and the maximally mixed decoys an eavesdropper would
    have to tell apart.

    Decoy preparation is free for this scheme (the decoy is the maximally
    mixed state); the returned distance is the oracle closeness value halved
    into trace-distance form.
    """
    rho = qcore.pure_dm(qcore.basis_ket(2**partition.n, 0))
    return 0.5 * moments.closeness_exact(partition, rho, t)
