"""Derived keyed primitives.

Verifiable pseudorandom density matrices: keyed rank-2^m states whose
correct preparation is certified by undoing the scrambler and projecting
the leading registers onto |0...0>.  A one-way state generator is
``SecretKey.generate``, ``vprdm_generate`` and ``vprdm_verify`` against a
threshold.  On top of them sit noise-robust EFI pairs whose statistical
farness is certified through entropy bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments, pqas, qcore
from ._streams import derive_bytes
from .ensembles import KEY_BYTES, ScramblerSpec, SecretKey, build_scramblers, leading_columns, stack_size
from .qcore import Channel, QubitPartition


@dataclass(frozen=True)
class VprdmParams:
    """n-qubit keyed mixed state with mixedness m < n."""

    n: int
    m: int
    key: SecretKey

    def __post_init__(self):
        if not 0 <= self.m < self.n:
            raise ValueError("need 0 <= m < n")
        qcore.check_qubits(self.n)


def vprdm_generate(params: VprdmParams, spec: ScramblerSpec) -> np.ndarray:
    """U_k (|0><0|^(n-m) (x) sigma_m) U_k^dag: the PQAS ciphertext of |0...0>
    on n - m message qubits with no tag and m mixed qubits; rank 2^m, purity 2^-m."""
    n, m = params.n, params.m
    return pqas.encrypt(qcore.basis_ket(2 ** (n - m), 0), params.key, QubitPartition(n - m, 0, m), spec).state


def vprdm_value(rho: np.ndarray, w: np.ndarray) -> float:
    """sum_j w_j^dag rho w_j over the columns w_j of w."""
    return float(np.vdot(w, rho @ w).real)


def vprdm_verify(rho: np.ndarray, key: SecretKey, n: int, m: int, spec: ScramblerSpec) -> float:
    """Verification value tr(|0><0|^(n-m) tr_mixed(U_k^dag rho U_k)) in [0, 1],
    as ``vprdm_value`` over the first 2^m columns of U_k, the only ones read
    (``leading_columns``: a key not already cached is not cached)."""
    if rho.shape[0] != 2**n:
        raise ValueError("state dimension does not match n")
    return vprdm_value(rho, leading_columns(key, n, spec, 2**m))


def ghse_closeness(n: int, m: int, t: int) -> float:
    """Exact t-copy trace distance between the random-mixed-state ensemble
    average (tracing m qubits from an (n+m)-qubit Haar state) and the
    Haar-scrambled fixed-spectrum ensemble average.

    Both averages are scalars on every S_t isotypic block, so the distance is
    half the summed block-trace gaps.  The fixed spectrum |0><0|^(n-m) (x)
    sigma_m has tr(base^k) = 2^(m (1 - k)).
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    ghse = moments.ghse_block_traces(n, m, t)
    fixed = moments.block_traces(lambda mu: 2.0 ** (m * (len(mu) - t)), t, 2**n)
    return 0.5 * sum(abs(ghse[lam] - fixed[lam]) for lam in ghse)


# ---------------------------------------------------------------------------
# EFI pairs

MAX_LAMBDA_EFF = 12  # the truncated key set holds at most 2^MAX_LAMBDA_EFF keys


@dataclass(frozen=True)
class EfiParams:
    """Two keyed ensembles with mixedness m0 (low) and m1 = floor(gamma n)."""

    n: int
    m0: int
    gamma: float
    c: float
    lambda_eff: int
    noise: Channel | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.c < self.gamma:
            raise ValueError("need 0 < c < gamma")
        if not 0 <= self.m0 < self.m1 < self.n:
            raise ValueError("need 0 <= m0 < m1 < n")
        if not 1 <= self.lambda_eff <= MAX_LAMBDA_EFF:
            raise ValueError(f"lambda_eff must lie in 1..{MAX_LAMBDA_EFF}")
        qcore.check_qubits(self.n)

    @property
    def m1(self) -> int:
        return int(self.gamma * self.n)


def _truncated_keys(count: int) -> list[SecretKey]:
    """Deterministic truncated key set shared by both ensemble arms."""
    keys = []
    for j in range(count):
        parts = [derive_bytes(None, "efi-key", j, part, n=KEY_BYTES) for part in range(3)]
        keys.append(SecretKey(*parts))
    return keys


def efi_ensembles(params: EfiParams, spec: ScramblerSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact averages (nu0, nu1) over the truncated 2^lambda_eff key set.

    The keys are built by ``build_scramblers`` in stacks of ``stack_size(n)``,
    bypassing ``build_scrambler``'s cache.  An arm of mixedness m reads the
    first 2^m columns of each scrambler (message |0>, no tag), so only the
    first 2^m1 are built, and they serve both arms.  Each arm adds its keys'
    states in key order, as a ``vprdm_generate`` loop over the keys does;
    the loop reads whole unitaries, so the sums agree with it to rounding.
    """
    keys = _truncated_keys(2**params.lambda_eff)
    size = stack_size(params.n)
    nu = np.zeros((2, 2**params.n, 2**params.n), dtype=complex)
    for start in range(0, len(keys), size):
        ys = build_scramblers(keys[start : start + size], params.n, spec, np.arange(2**params.m1))
        for acc, m in zip(nu, (params.m0, params.m1)):
            for rho in pqas.scramble_zero(ys[:, :, : 2**m]):
                acc += rho
    return nu[0] / len(keys), nu[1] / len(keys)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


@dataclass
class EfiReport:
    s0_bits: float
    s1_bits: float
    t_exact: float
    t_lower_bound: float
    fannes_slack: float  # how far |S1-S0| sits below the Fannes bound

    def fannes_holds(self) -> bool:
        return self.fannes_slack >= -1e-9


def _report_for(nu0: np.ndarray, nu1: np.ndarray, n: int) -> EfiReport:
    s0 = qcore.vn_entropy_bits(nu0)
    s1 = qcore.vn_entropy_bits(nu1)
    t = qcore.trace_distance(nu0, nu1)
    bound = 1.0 - (s0 + 1.0) / s1 if s1 > 0 else -np.inf
    cap = t * math.log2(2**n - 1) + binary_entropy(t) if n > 1 else binary_entropy(t)
    return EfiReport(
        s0_bits=s0,
        s1_bits=s1,
        t_exact=t,
        t_lower_bound=bound,
        fannes_slack=cap - abs(s1 - s0),
    )


def efi_report(params: EfiParams, spec: ScramblerSpec) -> EfiReport:
    """Exact entropies, trace distance and entropy-based farness bound.

    The report asserts the internal consistency T_exact >= T_lower_bound
    (the farness certificate) before returning.
    """
    nu0, nu1 = efi_ensembles(params, spec)
    if params.noise is not None:
        nu0 = qcore.apply_channel(nu0, params.noise)
        nu1 = qcore.apply_channel(nu1, params.noise)
    rep = _report_for(nu0, nu1, params.n)
    if rep.t_exact < rep.t_lower_bound - 1e-9:
        raise ArithmeticError("trace distance fell below its entropy lower bound")
    return rep
