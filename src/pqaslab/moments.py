"""Exact unitary moments on t copies, built on symmetric-group machinery.

Every moment the package needs commutes with U^(x t), so by Schur-Weyl
duality it is a scalar on each isotypic block lambda of (C^d)^(x t): one block
per Young diagram lambda with at most d rows, of dimension
D_lambda = f_lambda * s_lambda(1^d).  The production oracles work in that
block-scalar form: characters chi_lambda come from the Murnaghan-Nakayama
rule, f_lambda from the hook-length formula and s_lambda(1^d) from the
hook-content formula, so a t-copy trace norm becomes a sum over p(t)
diagrams and never builds a d^t matrix.  Sampled operators that commute with
the copy permutations but not with U^(x t) are only block diagonal, not
block scalar; ``isotypic_bases`` gives orthonormal bases of those blocks,
orbit by orbit, as gather tables.

The Weingarten function is the same character sum (Collins-Sniady),

    Wg(pi, d) = (1/t!^2) sum_lambda f_lambda^2 chi_lambda(pi) / s_lambda(1^d),

over the diagrams with at most d rows, so it exists for every d and t <= 12.
No experiment builds a d^t matrix.  The two dense moments, ``haar_moment``
(Wg summed against permutation traces) and ``ghse_moment``, are references:
the tests hold the block sums to them, and selftest criterion 3 holds sampled
Haar twirls to ``haar_moment``.  A dense moment takes its operator's dtype,
since Wg and the permutation operators are real.
Permutations on t letters are plain tuples ``p`` with ``p[i]`` the image of
letter i (0-indexed), and the permutation-operator convention is

    P(pi) |i_1 ... i_t>  =  |i_{pi^-1(1)} ... i_{pi^-1(t)}>

so that P(pi) P(sigma) = P(pi o sigma).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import qcore

MAX_T = 6
MAX_CLASS_T = 12
MAX_MOMENT_DIM = 4096

Perm = tuple[int, ...]
Shape = tuple[int, ...]


# ---------------------------------------------------------------------------
# symmetric group


def permutations(t: int) -> list[Perm]:
    """All elements of S_t as image tuples."""
    if t < 1 or t > MAX_T:
        raise ValueError(f"t must be between 1 and {MAX_T}")
    return list(itertools.permutations(range(t)))


def identity_perm(t: int) -> Perm:
    return tuple(range(t))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple([p[i] for i in q])


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def convolve(f: dict[Perm, complex], g: dict[Perm, complex]) -> dict[Perm, complex]:
    """Group-algebra product (f * g)(sigma) = sum_a f(a) g(a^-1 sigma).

    Summed over the supports of f and g only, so S_t is never enumerated;
    with P(p) P(q) = P(p o q) it is the coefficient dict of
    (sum_a f(a) P(a)) (sum_b g(b) P(b)).
    """
    out: dict[Perm, complex] = {}
    for a, fa in f.items():
        for b, gb in g.items():
            s = compose(a, b)
            out[s] = out.get(s, 0) + fa * gb
    return out


def cycle_lengths(p: Perm) -> list[int]:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return out


def cycle_type(p: Perm) -> Shape:
    """Cycle lengths of p as a partition of t, largest first."""
    return tuple(sorted(cycle_lengths(p), reverse=True))


def _perm_rows(p: Perm, d: int) -> np.ndarray:
    """Row index hit by each column of P(p): P(p)[rows[c], c] = 1."""
    t = len(p)
    dim = d**t
    pinv = invert(p)
    cols = np.arange(dim)
    digits = [(cols // d ** (t - 1 - k)) % d for k in range(t)]
    rows = np.zeros(dim, dtype=np.int64)
    for k in range(t):
        rows += digits[pinv[k]] * d ** (t - 1 - k)
    return rows


def _perm_sum(coeffs: dict[Perm, complex], d: int) -> np.ndarray:
    """Dense sum_p c_p P(p) on (C^d)^(x t), in the dtype of the coefficients."""
    dim = d ** len(next(iter(coeffs)))
    if dim > MAX_MOMENT_DIM:
        raise ValueError(f"d^t = {dim} exceeds the size cap {MAX_MOMENT_DIM}")
    out = np.zeros((dim, dim), dtype=np.asarray(list(coeffs.values())).dtype)
    cols = np.arange(dim)
    for p, c in coeffs.items():
        out[_perm_rows(p, d), cols] += c
    return out


def _perm_trace(op: np.ndarray, p: Perm, d: int) -> complex:
    """tr(op @ P(p)^dagger) without materializing P(p), as a Python scalar of
    op's kind: a float for a real op, a complex for a complex one."""
    dim = d ** len(p)
    rows = _perm_rows(p, d)
    # P has its 1-entries at (rows[c], c), so tr(op P^dag) = sum_c op[rows[c], c]
    return np.sum(op[rows, np.arange(dim)]).item()


# ---------------------------------------------------------------------------
# class functions on S_t
#
# Young diagrams and cycle types are both integer partitions of t, written as
# nonincreasing tuples.


def _check_class_t(t: int) -> None:
    """Raise unless t is within the class-function range 1..MAX_CLASS_T; callers
    that loop over t check first, so a huge t fails at once."""
    if t < 1 or t > MAX_CLASS_T:
        raise ValueError(f"t must be between 1 and {MAX_CLASS_T}")


@lru_cache(maxsize=None)
def partitions(t: int) -> tuple[Shape, ...]:
    """All partitions of t, largest parts first."""
    _check_class_t(t)

    def below(rest: int, cap: int):
        if rest == 0:
            yield ()
        for part in range(min(rest, cap), 0, -1):
            for tail in below(rest - part, part):
                yield (part,) + tail

    return tuple(below(t, t))


def class_size(mu: Shape) -> int:
    """Number of permutations of cycle type mu: t! / prod_k k^(m_k) m_k!."""
    z = math.prod(k**mult * math.factorial(mult) for k, mult in Counter(mu).items())
    return math.factorial(sum(mu)) // z


@lru_cache(maxsize=None)
def character(lam: Shape, mu: Shape) -> int:
    """Irreducible character chi_lam at cycle type mu (Murnaghan-Nakayama).

    Rim hooks of length mu[0] are stripped on the beta set of lam: moving a
    bead from b to b - k removes one, with sign (-1)^(beads strictly between).
    """
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    r = len(lam)
    beta = [part + r - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        if b < k or b - k in beta:
            continue
        sign = -1 if sum(b - k < c < b for c in beta) % 2 else 1
        moved = sorted((b - k if c == b else c for c in beta), reverse=True)
        shape = tuple(x for x in (c - (r - 1 - i) for i, c in enumerate(moved)) if x > 0)
        total += sign * character(shape, rest)
    return total


@lru_cache(maxsize=None)
def irrep_dims(lam: Shape, d: int) -> tuple[int, int]:
    """(f_lam, s_lam(1^d)): the S_t irrep dimension by the hook-length formula
    and the U(d) irrep dimension by the hook-content formula.

    s_lam(1^d) is 0 when lam has more than d rows: that block does not exist.
    """
    cols = [sum(part > j for part in lam) for j in range(lam[0])]
    hooks = contents = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + cols[j] - i - 1
            contents *= d + j - i
    return math.factorial(sum(lam)) // hooks, contents // hooks


def character_sum(lam: Shape, weight: Callable[[Shape], float]) -> float:
    """sum over pi in S_t of chi_lam(pi) weight(cycle type of pi)."""
    return float(sum(class_size(mu) * character(lam, mu) * weight(mu) for mu in partitions(sum(lam))))


def block_traces(weight: Callable[[Shape], float], t: int, d: int) -> dict[Shape, float]:
    """tr(Pi_lam X) on every isotypic block of (C^d)^(x t).

    ``weight(mu)`` must be tr(X P(pi)) for pi of cycle type mu, so X is any
    operator whose permutation traces are a class function, for example
    rho^(x t) or its Haar twirl (the two share every block trace).  The
    isotypic projector is Pi_lam = (f_lam / t!) sum_pi chi_lam(pi) P(pi).
    """
    out = {}
    for lam in partitions(t):
        f, s = irrep_dims(lam, d)
        if s:
            out[lam] = f * character_sum(lam, weight) / math.factorial(t)
    return out


def _orbit_letters(mu: Shape) -> np.ndarray:
    """The S_t orbit of the letter tuple with mu[a] copies of letter a, as a
    (size, t) array in lexicographic order."""
    word = [a for a, k in enumerate(mu) for _ in range(k)]
    return np.array(sorted(set(itertools.permutations(word))), dtype=np.int64)


def _orbit_values(mu: Shape, d: int) -> np.ndarray:
    """One row of distinct values v_a < d per S_t orbit of pattern mu in
    (C^d)^(x t): letter a of the pattern stands for value v_a, and letters
    with equal multiplicity take increasing values, so each orbit is listed
    once."""
    rows = [
        v
        for v in itertools.permutations(range(d), len(mu))
        if all(v[a] < v[a + 1] for a in range(len(mu) - 1) if mu[a] == mu[a + 1])
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(mu))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def basis_width(basis) -> int:
    """Number of columns of a basis stored as (index, weight) tables: orbits
    times rank, summed over the tables."""
    return sum(index.shape[0] * weight.shape[1] for index, weight in basis)


@lru_cache(maxsize=None)
def isotypic_bases(t: int, d: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
    """Orthonormal bases B_lam of the isotypic blocks of (C^d)^(x t), built
    orbit by orbit.

    Pi_lam = (f_lam / t!) sum_pi chi_lam(pi) P(pi) commutes with every P(pi),
    so it maps the span of each S_t orbit of computational-basis tuples to
    itself, and every column of B_lam can be chosen on one orbit.  Orbits
    with the same multiplicity pattern mu (a partition of t with at most d
    parts) are relabellings of one letter orbit, so one ``eigh`` per pattern,
    of sum_lam k_lam Pi_lam on that orbit (at most t! x t!), splits it into
    its blocks; no d^t x d^t matrix is formed.

    One entry per Young diagram lam with at most d rows, in ``partitions``
    order: a tuple of (index, weight) pairs, one per pattern on which lam
    lives.  ``index`` (orbits, size) holds the flat indices of the tuples of
    each orbit of the pattern, in the order of its letter orbit, and
    ``weight`` (size, rank) is real with orthonormal columns.  B_lam has the
    columns of ``weight`` on the rows ``index[o]`` of each orbit o, pattern
    by pattern and orbit by orbit: D_lam = f_lam s_lam(1^d) columns, and the
    B_lam together are an orthogonal matrix.  An operator X that commutes
    with every P(pi) is block diagonal in them, so
    ||X||_1 = sum_lam ||B_lam^T X B_lam||_1.  The tables are read-only and
    cached per (t, d).
    """
    lams = partitions(t)
    perms = permutations(t)
    fact = math.factorial(t)
    # label lam by its position k_lam; P(pi) sends letter tuple e to e[pi^-1]
    coeffs = [
        sum(k * irrep_dims(lam, d)[0] * character(lam, cycle_type(p)) for k, lam in enumerate(lams)) / fact
        for p in perms
    ]
    pinvs = np.array([invert(p) for p in perms], dtype=np.int64)
    place = t ** np.arange(t - 1, -1, -1)
    power = d ** np.arange(t - 1, -1, -1)
    pairs: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in lams]
    for mu in lams:
        if len(mu) > d:
            continue
        letters = _orbit_letters(mu)
        codes = letters @ place
        size = len(letters)
        images = np.searchsorted(codes, letters[:, pinvs] @ place)  # (size, perms)
        op = np.zeros((size, size))
        np.add.at(op, (images, np.arange(size)[:, None]), np.array(coeffs))
        vals, vecs = np.linalg.eigh(op)
        labels = np.rint(vals).astype(int)
        index = _read_only(_orbit_values(mu, d)[:, letters] @ power)
        for k in sorted(set(labels.tolist())):
            pairs[k].append((index, _read_only(vecs[:, labels == k])))
    bases = []
    for lam, lam_pairs in zip(lams, pairs):
        f, s = irrep_dims(lam, d)
        if s:
            rank = basis_width(lam_pairs)
            if rank != f * s:
                raise ArithmeticError(f"block {lam} has rank {rank}, expected {f * s}")
            bases.append(tuple(lam_pairs))
    return tuple(bases)


# ---------------------------------------------------------------------------
# Weingarten coefficients


@lru_cache(maxsize=None)
def weingarten_class(mu: Shape, d: int) -> float:
    """Wg on the permutations of cycle type mu, from the S_t characters.

    (1/t!^2) sum_lam f_lam^2 chi_lam(mu) / s_lam(1^d) over the diagrams with
    s_lam(1^d) != 0.  For d >= t this inverts the Gram matrix
    [d^#cycles(p q^-1)]_{p,q}; for d < t it is its pseudo-inverse, with which
    the twirl formula still holds.  The terms cancel heavily, so the sum is
    taken in exact rationals and rounded once.
    """
    t = sum(mu)
    total = Fraction(0)
    for lam in partitions(t):
        f, s = irrep_dims(lam, d)
        if s:
            total += Fraction(f * f * character(lam, mu), s)
    return float(total / math.factorial(t) ** 2)


def weingarten(p: Perm, d: int) -> float:
    """Weingarten coefficient Wg(p, d)."""
    return weingarten_class(cycle_type(p), d)


def sum_abs_weingarten(t: int, d: int) -> float:
    """sum over S_t of |Wg(pi, d)|, class by class."""
    return math.fsum(class_size(mu) * abs(weingarten_class(mu, d)) for mu in partitions(t))


def sum_abs_weingarten_exact(t: int, d: int) -> float:
    """Closed form (d - t)! / d! for the absolute Weingarten sum (d >= t)."""
    if d < t:
        raise ValueError(f"the absolute Weingarten sum has no closed form for d = {d} < t = {t}")
    return 1.0 / math.prod(range(d - t + 1, d + 1))


# ---------------------------------------------------------------------------
# exact twirls


def haar_moment(op: np.ndarray, t: int, d: int) -> np.ndarray:
    """Exact t-fold Haar twirl E_U[U^(x t) op U^dagger(x t)].

    Direct Weingarten sum: sum_{pi,eta} Wg(eta^-1 pi, d) tr(op P(pi)^dag) P(eta).
    Wg is a class function, so Wg(eta^-1 pi) = Wg(pi^-1 eta) and the
    coefficient of P(eta) is the convolution of the traces with Wg.

    The moment takes op's dtype: Wg and the P(eta) are real, so a real op
    has real permutation traces and a float64 moment, and a complex op a
    complex128 one.
    """
    dim = d**t
    if op.shape != (dim, dim):
        raise ValueError(f"operator must have dimension d^t = {dim}")
    perms = permutations(t)
    ptraces = {p: _perm_trace(op, p, d) for p in perms}
    return _perm_sum(convolve(ptraces, {p: weingarten(p, d) for p in perms}), d)


def _power_traces(partition: qcore.QubitPartition, rho: np.ndarray, t: int) -> list[float]:
    """tr(rho^k) for k = 0..t; (rho (x) tag)^k has the same traces."""
    if rho.shape[0] != 2**partition.n:
        raise ValueError("input state does not match the message register")
    ptr = [1.0]
    acc = np.eye(rho.shape[0], dtype=complex)
    for _ in range(t):
        acc = acc @ rho
        ptr.append(float(np.trace(acc).real))
    return ptr


def closeness_exact(partition: qcore.QubitPartition, rho: np.ndarray, t: int) -> float:
    """Exact trace norm || E[encrypted^(x t)] - sigma_z^(x t) ||_1.

    Both operators are scalars on every isotypic block, so the norm is
    sum_lambda |tr(Pi_lambda (moment - target))|.  The difference has
    permutation traces prod_k p_k - d^(#cycles - t) over the cycle lengths k,
    with p_k = tr(rho^k) d_B^(1 - k); the identity class cancels exactly.
    """
    _check_class_t(t)
    d = 2**partition.z
    d_b = 2**partition.m
    ptr = _power_traces(partition, rho, t)

    def gap(mu: Shape) -> float:
        return math.prod(ptr[k] * float(d_b) ** (1 - k) for k in mu) - float(d) ** (len(mu) - t)

    return float(sum(abs(v) for v in block_traces(gap, t, d).values()))


def ghse_moment(n: int, m: int, t: int) -> np.ndarray:
    """Exact t-copy average over states obtained by tracing m qubits from
    an (n+m)-qubit Haar-random pure state (dense reference).

    Closed form: (d-1)!/(d+t-1)! * sum_pi d_B^#cycles(pi) P(pi) with d = 2^(n+m),
    d_B = 2^m, and P(pi) acting on t copies of n qubits.  Every coefficient is
    real, so the moment is float64.
    """
    d_a = 2**n
    d_b = 2**m
    norm = 1.0 / math.prod(range(d_a * d_b, d_a * d_b + t))  # (d-1)!/(d+t-1)!
    return norm * _perm_sum({p: float(d_b ** len(cycle_lengths(p))) for p in permutations(t)}, d_a)


def ghse_block_traces(n: int, m: int, t: int) -> dict[Shape, float]:
    """tr(Pi_lambda . ghse_moment(n, m, t)) on every block of (C^(2^n))^(x t).

    tr(Pi_lambda P(pi)) = s_lambda(1^(2^n)) chi_lambda(pi), so each block
    trace is s_lambda (d-1)!/(d+t-1)! sum_pi chi_lambda(pi) d_B^#cycles(pi).
    """
    _check_class_t(t)
    d_a = 2**n
    d_b = 2**m
    d = d_a * d_b
    norm = 1.0 / math.prod(range(d, d + t))
    out = {}
    for lam in partitions(t):
        s = irrep_dims(lam, d_a)[1]
        if s:
            out[lam] = s * norm * character_sum(lam, lambda mu: float(d_b) ** len(mu))
    return out
