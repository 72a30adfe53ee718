"""The exact moment oracle: group machinery, Weingarten coefficients,
twirls and the encrypted-moment closeness laws."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest

from pqaslab import moments, primitives, qcore
from pqaslab._streams import spawn_rng
from pqaslab.ensembles import random_pure_state, sample_ghse, sample_haar
from pqaslab.qcore import QubitPartition

import reference


class TestSymmetricGroup:
    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_group_laws_exhaustive(self, t):
        perms = moments.permutations(t)
        ident = moments.identity_perm(t)
        assert len(perms) == math.factorial(t)
        for p in perms:
            assert moments.compose(p, moments.invert(p)) == ident
            assert moments.compose(moments.invert(p), p) == ident
            assert moments.compose(p, ident) == p
        # associativity on a sample of triples
        rng = spawn_rng(0, "assoc", t)
        idx = rng.integers(0, len(perms), size=(20, 3))
        for i, j, k in idx:
            a, b, c = perms[i], perms[j], perms[k]
            assert moments.compose(a, moments.compose(b, c)) == moments.compose(moments.compose(a, b), c)

    def test_cycle_counts(self):
        assert moments.cycle_lengths((0, 1, 2)) == [1, 1, 1]
        assert moments.cycle_lengths((1, 0)) == [2]
        assert moments.cycle_lengths((1, 2, 0)) == [3]
        assert moments.cycle_lengths((1, 0, 3, 2)) == [2, 2]
        assert moments.cycle_type((0, 2, 1)) == (2, 1)
        assert moments.cycle_type((3, 0, 1, 2, 4)) == (4, 1)

    @pytest.mark.parametrize("t,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_operator_trace_is_cycle_power(self, t, d):
        for p in moments.permutations(t):
            op = reference.permutation_operator(p, d)
            assert np.trace(op).real == pytest.approx(d ** len(moments.cycle_lengths(p)), abs=1e-12)
            assert np.allclose(op @ op.conj().T, np.eye(d**t), atol=1e-12)

    def test_operator_composition(self):
        d = 2
        for p, q in itertools.product(moments.permutations(3), repeat=2):
            lhs = reference.permutation_operator(p, d) @ reference.permutation_operator(q, d)
            rhs = reference.permutation_operator(moments.compose(p, q), d)
            assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_convolution_is_operator_product(self, t, d):
        rng = spawn_rng(1, "convolve", t, d)
        perms = moments.permutations(t)

        def random_element():
            # random sparse support, complex coefficients
            keep = rng.permutation(len(perms))[: int(rng.integers(1, len(perms) + 1))]
            return {perms[i]: complex(*rng.standard_normal(2)) for i in keep}

        for _ in range(5):
            f, g = random_element(), random_element()
            product = moments._perm_sum(f, d) @ moments._perm_sum(g, d)
            assert np.max(np.abs(moments._perm_sum(moments.convolve(f, g), d) - product)) <= 1e-12


def gram_weingarten(t, d):
    """Reference Wg(., d) over S_t by solving G wg = delta_id, G[p, q] = d^#cycles(p q^-1) (d >= t)."""
    perms = moments.permutations(t)
    gram = np.array([[float(d ** len(moments.cycle_lengths(moments.compose(p, moments.invert(q))))) for q in perms] for p in perms])
    rhs = np.zeros(len(perms))
    rhs[perms.index(moments.identity_perm(t))] = 1.0
    return dict(zip(perms, np.linalg.solve(gram, rhs)))


class TestWeingarten:
    @pytest.mark.parametrize("t,d", [(t, d) for t in range(1, 6) for d in (t, t + 1, 8, 16)] + [(6, 8)])
    def test_matches_gram_inversion(self, t, d):
        for p, want in gram_weingarten(t, d).items():
            assert abs(moments.weingarten(p, d) - want) <= 1e-12 * abs(want)

    def test_first_moment(self):
        for d in (2, 4, 8):
            assert moments.weingarten((0,), d) == pytest.approx(1.0 / d, abs=1e-14)

    def test_t2_values(self):
        assert moments.weingarten((0, 1), 4) == pytest.approx(1 / 15, abs=1e-14)
        assert moments.weingarten((1, 0), 4) == pytest.approx(-1 / 60, abs=1e-14)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_abs_sum_identity(self, t, d):
        assert abs(moments.sum_abs_weingarten(t, d) - moments.sum_abs_weingarten_exact(t, d)) <= 1e-12

    @pytest.mark.parametrize("t,d", [(2, 4), (2, 8), (3, 16), (4, 16)])
    def test_abs_sum_inequality(self, t, d):
        # numeric check of the d^-t (1 + t^2/d) upper bound, valid for t^2 <= d
        assert moments.sum_abs_weingarten(t, d) <= d ** (-t) * (1 + t**2 / d) + 1e-15

    def test_small_dimension_pseudo_inverse(self):
        # for d < t the Gram matrix is singular; its pseudo-inverse still twirls
        # a pure product state onto the normalized symmetric projector
        for d, t in [(1, 2), (2, 3), (2, 4), (3, 4)]:
            zero = qcore.pure_dm(qcore.basis_ket(d, 0))
            sym = sum(reference.permutation_operator(p, d) for p in moments.permutations(t)) / math.factorial(t)
            twirled = moments.haar_moment(reduce(np.kron, [zero] * t), t, d)
            assert np.max(np.abs(twirled - sym / math.comb(d + t - 1, t))) <= 1e-12
        assert moments.weingarten((1, 0), 1) == pytest.approx(1 / 4, abs=1e-15)
        with pytest.raises(ValueError):
            moments.sum_abs_weingarten_exact(3, 2)


class TestHaarMoment:
    def test_t1_collapses_to_identity(self):
        rng = spawn_rng(1, "t1")
        obs = sample_ghse(2, 1, rng)
        out = moments.haar_moment(obs, 1, 4)
        assert np.allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_unital_and_trace_preserving(self):
        d, t = 4, 2
        assert np.allclose(moments.haar_moment(np.eye(d**t, dtype=complex), t, d), np.eye(d**t), atol=1e-12)
        rng = spawn_rng(2, "tp")
        raw = rng.standard_normal((d**t, d**t)) + 1j * rng.standard_normal((d**t, d**t))
        obs = 0.5 * (raw + raw.conj().T)
        out = moments.haar_moment(obs, t, d)
        assert np.trace(out) == pytest.approx(np.trace(obs), abs=1e-9)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10

    def test_permutation_covariance(self):
        d, t = 4, 3
        rng = spawn_rng(3, "cov")
        raw = rng.standard_normal((d**t, d**t)) + 1j * rng.standard_normal((d**t, d**t))
        obs = 0.5 * (raw + raw.conj().T)
        twirled = moments.haar_moment(obs, t, d)
        for p in moments.permutations(t):
            op = reference.permutation_operator(p, d)
            left = moments.haar_moment(op @ obs, t, d)
            assert np.allclose(left, op @ twirled, atol=1e-9)
            right = moments.haar_moment(obs @ op, t, d)
            assert np.allclose(right, twirled @ op, atol=1e-9)

    def test_pure_state_second_moment(self):
        # E[(psi psi^dag)^(x2)] = 2 P_sym / (d (d+1))
        d = 4
        psi = qcore.pure_dm(qcore.basis_ket(d, 0))
        out = moments.haar_moment(np.kron(psi, psi), 2, d)
        swap = reference.permutation_operator((1, 0), d)
        expect = (np.eye(d**2) + swap) / (d * (d + 1))
        assert np.allclose(out, expect, atol=1e-12)

    def test_real_operator_gets_a_real_moment(self):
        # small-integer and dyadic entries keep every permutation trace exact in both dtypes
        d, t = 2, 3
        raw = spawn_rng(8, "real-moment").integers(-3, 4, size=(d**t, d**t)).astype(float)
        padded = reference.pad_state(qcore.pure_dm(qcore.basis_ket(2, 1)), QubitPartition(1, 1, 1)).real
        for op, dd, tt in [(raw + raw.T, d, t), (raw, d, t), (np.kron(padded, padded), 8, 2)]:
            real = moments.haar_moment(op, tt, dd)
            cplx = moments.haar_moment(op.astype(complex), tt, dd)
            assert real.dtype == np.float64
            assert cplx.dtype == np.complex128
            assert real.tobytes() == np.ascontiguousarray(cplx.real).tobytes()
            assert not np.any(cplx.imag)
        phase = qcore.pure_dm(np.array([0.6, 0.8j]))
        assert moments.haar_moment(np.kron(phase, phase), 2, 2).dtype == np.complex128

    def test_monte_carlo_cross_check_t3(self):
        # independent path: sampled Haar averaging at t = 3 pins the
        # permutation-operator adjoint convention
        d, t, samples = 4, 3, 4000
        rng = spawn_rng(4, "mc3")
        psi = qcore.pure_dm(np.array([0.6, 0.8j, 0.0, 0.0]))
        obs = psi
        for _ in range(t - 1):
            obs = np.kron(obs, psi)
        exact = moments.haar_moment(obs, t, d)
        acc = np.zeros_like(obs)
        sq = np.zeros(obs.shape)
        for _ in range(samples):
            u = sample_haar(2, rng)
            w = u
            for _ in range(t - 1):
                w = np.kron(w, u)
            val = w @ obs @ w.conj().T
            acc += val
            sq += np.abs(val) ** 2
        mean = acc / samples
        sigma = np.sqrt(np.sum(sq / samples - np.abs(mean) ** 2) / samples)
        assert np.linalg.norm(mean - exact) <= 3 * sigma


class TestEncryptedMoment:
    @pytest.mark.parametrize("n,l,m", [(1, 1, 1), (1, 0, 1), (2, 1, 0), (1, 1, 0), (1, 2, 1)])
    def test_two_independent_paths_agree(self, n, l, m):
        # the Weingarten twirl of the padded two-copy input against the two-fold
        # twirl identity: a I + b SWAP, fixed by the trace 1 and the purity of the pad
        part = QubitPartition(n, l, m)
        rho = sample_ghse(n, 1, spawn_rng(5, "paths", n, l, m))
        padded = reference.pad_state(rho, part)
        d = 2**part.z
        purity = reference.purity(padded)
        a = (1 - purity / d) / (d * d - 1)
        b = (purity - 1 / d) / (d * d - 1)
        identity_form = a * np.eye(d * d) + b * reference.permutation_operator((1, 0), d)
        generic = moments.haar_moment(np.kron(padded, padded), 2, d)
        assert np.max(np.abs(identity_form - generic)) <= 1e-12

    def test_closeness_t1_zero(self):
        part = QubitPartition(1, 1, 1)
        assert moments.closeness_exact(part, reference.maximally_mixed(1), 1) <= 1e-12

    def test_closeness_halving(self):
        rho = qcore.pure_dm(qcore.basis_ket(2, 0))
        vals = {m: moments.closeness_exact(QubitPartition(1, 1, m), rho, 2) for m in (1, 2, 3)}
        for m in (1, 2):
            assert 0.35 <= vals[m + 1] / vals[m] <= 0.65

    def test_closeness_monotone_in_m(self):
        rho = qcore.pure_dm(qcore.basis_ket(2, 0))
        vals = [moments.closeness_exact(QubitPartition(1, 1, m), rho, 2) for m in range(4)]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(3))

    def test_closeness_constant_stable(self):
        # C = closeness * 2^m / t^2 stays within +-50% of its median across layouts
        t = 2
        consts = []
        for n in (1, 2):
            for l in (0, 1, 2):
                for m in (1, 2):
                    if (n + l + m) * t > 12:
                        continue
                    part = QubitPartition(n, l, m)
                    rho = qcore.pure_dm(qcore.basis_ket(2**n, 0))
                    consts.append(moments.closeness_exact(part, rho, t) * 2**m / t**2)
        mid = np.median(consts)
        assert all(0.5 * mid <= c <= 1.5 * mid for c in consts)


class TestCharacters:
    @pytest.mark.parametrize("t", range(1, 8))
    def test_orthogonality_and_dimensions(self, t):
        shapes = moments.partitions(t)
        assert sum(moments.class_size(mu) for mu in shapes) == math.factorial(t)
        for lam in shapes:
            for nu in shapes:
                inner = sum(moments.class_size(mu) * moments.character(lam, mu) * moments.character(nu, mu) for mu in shapes)
                assert inner == (math.factorial(t) if lam == nu else 0)
            assert moments.character(lam, (1,) * t) == moments.irrep_dims(lam, 1)[0]
        for d in (1, 2, 3, 5):
            # Schur-Weyl: the blocks of (C^d)^(x t) fill it
            assert sum(math.prod(moments.irrep_dims(lam, d)) for lam in shapes) == d**t

    def test_hook_content_matches_power_sums(self):
        # s_lam(1^d) = (1/t!) sum_pi chi_lam(pi) d^#cycles(pi)
        for t in (2, 4, 6):
            for lam in moments.partitions(t):
                for d in (1, 2, 3, 8):
                    want = moments.character_sum(lam, lambda mu: d ** len(mu)) / math.factorial(t)
                    assert moments.irrep_dims(lam, d)[1] == pytest.approx(want, abs=1e-9)

    def test_characters_match_permutation_traces(self):
        # tr(Pi_lam P(sigma)) = s_lam(1^d) chi_lam(sigma) on the dense operators
        t, d = 3, 2
        perms = moments.permutations(t)
        for lam in moments.partitions(t):
            f, s = moments.irrep_dims(lam, d)
            chi = {p: moments.character(lam, moments.cycle_type(p)) for p in perms}
            proj = f / math.factorial(t) * sum(chi[p] * reference.permutation_operator(p, d) for p in perms)
            for sigma in perms:
                val = np.trace(proj @ reference.permutation_operator(sigma, d)).real
                assert val == pytest.approx(s * chi[sigma], abs=1e-12)

    def test_class_t_range(self):
        with pytest.raises(ValueError):
            moments.partitions(0)
        with pytest.raises(ValueError):
            moments.partitions(moments.MAX_CLASS_T + 1)


# layouts (n, l, m, t) with t <= 4, d = 2^z >= t and d^t small enough for a fast dense reference
DENSE_LAYOUTS = [
    (1, 0, 0, 1), (1, 1, 1, 1), (1, 0, 0, 2), (1, 1, 0, 2), (1, 0, 1, 2), (2, 1, 1, 2),
    (1, 1, 2, 2), (1, 1, 0, 3), (2, 0, 0, 3), (1, 0, 1, 3), (2, 1, 0, 3), (1, 1, 0, 4), (2, 0, 0, 4),
]


def _blocks_with_diagrams(t, d):
    lams = [lam for lam in moments.partitions(t) if moments.irrep_dims(lam, d)[1]]
    bases = moments.isotypic_bases(t, d)
    assert len(bases) == len(lams)
    return list(zip(lams, (reference.orbit_basis_dense(basis, d**t) for basis in bases)))


# t <= 4 at d in {2, 3, 4}, and t = 5, 6 at d = 2
BASIS_CASES = [(t, d) for t in range(1, 5) for d in (2, 3, 4)] + [(5, 2), (6, 2)]


class TestIsotypicBases:
    @pytest.mark.parametrize("t,d", BASIS_CASES)
    def test_block_trace_norms_sum_to_full(self, t, d):
        """The orbit bases are orthonormal, span the dense projectors, and
        block-diagonalize a permutation-invariant operator."""
        blocks = _blocks_with_diagrams(t, d)
        stacked = np.hstack([basis for _, basis in blocks])
        assert np.max(np.abs(stacked.T @ stacked - np.eye(d**t))) <= 1e-12
        for lam, basis in blocks:
            f, s = moments.irrep_dims(lam, d)
            assert basis.shape[1] == f * s
            assert np.max(np.abs(basis @ basis.T - reference.isotypic_projector(lam, d))) <= 1e-12
        rng = spawn_rng(9, "invariant", t, d)
        raw = rng.standard_normal((d**t, d**t)) + 1j * rng.standard_normal((d**t, d**t))
        herm = raw + raw.conj().T
        perms = [reference.permutation_operator(p, d) for p in moments.permutations(t)]
        invariant = sum(p @ herm @ p.T for p in perms)
        invariant /= qcore.trace_norm(invariant)
        assert abs(sum(qcore.trace_norm(b.T @ invariant @ b) for _, b in blocks) - 1.0) <= 1e-12

    @pytest.mark.parametrize("t,d", [(2, 4), (3, 3), (4, 2), (6, 2)])
    def test_each_table_lists_whole_orbits(self, t, d):
        """Every row of an index table is one S_t orbit (the digit multiset is
        shared and all its arrangements are there), and a diagram's tables
        cover disjoint orbits."""
        power = d ** np.arange(t - 1, -1, -1)
        for basis in moments.isotypic_bases(t, d):
            seen = np.concatenate([index.ravel() for index, _ in basis])
            assert len(np.unique(seen)) == len(seen)
            for index, weight in basis:
                assert index.shape[1] == weight.shape[0]
                for orbit in index:
                    digits = orbit[:, None] // power % d
                    assert len({tuple(sorted(row)) for row in digits}) == 1
                    assert len(set(itertools.permutations(digits[0]))) == len(orbit)

    def test_tables_are_cached_and_read_only(self):
        bases = moments.isotypic_bases(3, 2)
        assert moments.isotypic_bases(3, 2) is bases
        for basis in bases:
            for index, weight in basis:
                assert not index.flags.writeable and not weight.flags.writeable


class TestClosedFormCloseness:
    # (1, 1, 3, 2) is the decoy point of the oracle benchmark
    @pytest.mark.parametrize("n,l,m,t", DENSE_LAYOUTS + [(1, 1, 3, 2)])
    def test_matches_dense_reference(self, n, l, m, t):
        part = QubitPartition(n, l, m)
        rng = spawn_rng(7, "closed-vs-dense", n, l, m, t)
        for rho in (qcore.pure_dm(random_pure_state(n, rng)), sample_ghse(n, n, rng)):
            assert abs(moments.closeness_exact(part, rho, t) - reference.closeness_dense(part, rho, t)) <= 1e-12

    @pytest.mark.parametrize("n,l,m,t", DENSE_LAYOUTS + [(1, 1, 3, 2)])
    def test_real_states_take_the_real_path(self, n, l, m, t, monkeypatch):
        # basis kets and a real diagonal rho: the closed form matches the dense
        # oracle, whose twirl of a real input is solved in float64
        part = QubitPartition(n, l, m)
        solved = []
        trace_norm = qcore.trace_norm
        monkeypatch.setattr(qcore, "trace_norm", lambda a: solved.append(a.dtype) or trace_norm(a))
        weights = np.arange(1, 2**n + 1) / (2**n * (2**n + 1) / 2)
        states = [qcore.pure_dm(qcore.basis_ket(2**n, 0)), qcore.pure_dm(qcore.basis_ket(2**n, 1)), np.diag(weights)]
        for rho in states:
            assert abs(moments.closeness_exact(part, rho, t) - reference.closeness_dense(part, rho, t)) <= 1e-12
        assert solved == [np.float64] * len(states)

    def test_beyond_the_dense_cap(self):
        # d^t = 2^24 (z = 4, t = 6) and 2^60 (z = 10, t = 6): no dense matrix exists
        rho = qcore.pure_dm(qcore.basis_ket(2, 0))
        vals = [moments.closeness_exact(QubitPartition(1, 1, m), rho, 6) for m in (2, 3, 4)]
        assert all(0.0 < v <= 2.0 for v in vals)
        assert vals[2] < vals[1] < vals[0]
        big = moments.closeness_exact(QubitPartition(4, 3, 3), qcore.pure_dm(qcore.basis_ket(16, 0)), 6)
        assert 0.0 < big <= 2.0

    def test_rejects_wrong_register(self):
        with pytest.raises(ValueError):
            moments.closeness_exact(QubitPartition(2, 1, 1), reference.maximally_mixed(1), 2)

    def test_printed_digits_hold_to_t_12(self):
        # past the dense cap: a pure message's closeness and the GHSE closeness
        # against their exact Fraction evaluation, t = 2 .. 12, z <= 10
        for t in range(2, moments.MAX_CLASS_T + 1):
            for n, l, m in ((1, 1, 1), (1, 0, 4), (2, 2, 2), (3, 3, 4)):
                part = QubitPartition(n, l, m)
                exact = reference.closeness_pure_fraction(part, t)
                got = moments.closeness_exact(part, qcore.pure_dm(qcore.basis_ket(2**n, 0)), t)
                assert abs(got - exact) <= 1e-12 * exact, (n, l, m, t)
            for n, m in ((2, 1), (4, 2), (5, 5), (8, 2)):
                exact = reference.ghse_closeness_fraction(n, m, t)
                assert abs(primitives.ghse_closeness(n, m, t) - exact) <= 1e-12 * exact, (n, m, t)


class TestGhseMoment:
    def test_t1_is_maximally_mixed(self):
        out = moments.ghse_moment(3, 1, 1)
        assert np.allclose(out, np.eye(8) / 8, atol=1e-12)

    def test_properties(self):
        out = moments.ghse_moment(2, 1, 2)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_mean_purity_closed_form(self):
        # tr(SWAP . ghse_moment) = E tr(rho^2) = (dA + dB)/(dA dB + 1)
        for n, m in [(1, 1), (2, 1), (2, 2)]:
            da, db = 2**n, 2**m
            swap = reference.permutation_operator((1, 0), da)
            val = np.trace(swap @ moments.ghse_moment(n, m, 2)).real
            assert val == pytest.approx((da + db) / (da * db + 1), abs=1e-12)

    def test_monte_carlo_agreement(self):
        n, m, samples = 2, 1, 3000
        rng = spawn_rng(6, "ghse-mc")
        exact = moments.ghse_moment(n, m, 2)
        assert exact.dtype == np.float64
        # the sampled states are complex, the exact moment real
        acc = np.zeros(exact.shape, dtype=complex)
        sq = np.zeros(exact.shape)
        for _ in range(samples):
            rho = sample_ghse(n, m, rng)
            val = np.kron(rho, rho)
            acc += val
            sq += np.abs(val) ** 2
        mean = acc / samples
        sigma = np.sqrt(np.sum(sq / samples - np.abs(mean) ** 2) / samples)
        assert np.linalg.norm(mean - exact) <= 3 * sigma
