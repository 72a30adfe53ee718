"""Keyed mixed-state primitives: generation/verification, ensemble
closeness, the one-way interface and EFI entropy certificates."""

import numpy as np
import pytest

from pqaslab import primitives, qcore
from pqaslab._streams import spawn_rng
from pqaslab.ensembles import ScramblerSpec, SecretKey, build_scrambler
from pqaslab.primitives import EfiParams, OneWayStateGenerator, VprdmParams

HAAR = ScramblerSpec(mode="haar_exact")
COMPOSED = ScramblerSpec(mode="composed")


def vprdm_generate_dense(params, spec):
    """U_k (|0><0|^(n-m) (x) sigma_m) U_k^dag as a dense conjugation (reference)."""
    base = qcore.tensor(qcore.zero_tag_state(params.n - params.m), qcore.maximally_mixed(params.m))
    return qcore.apply_unitary(base, build_scrambler(params.key, params.n, spec))


def vprdm_verify_dense(rho, key, n, m, spec):
    """tr(|0><0|^(n-m) tr_mixed(U_k^dag rho U_k)) from the dense decoded state (reference)."""
    undone = qcore.apply_unitary(rho, build_scrambler(key, n, spec).conj().T)
    return float(qcore.partial_trace(undone, [2 ** (n - m), 2**m], {1})[0, 0].real)


class TestVprdm:
    def test_params_validation(self):
        key = SecretKey.from_int(0)
        with pytest.raises(ValueError):
            VprdmParams(2, 2, key)
        with pytest.raises(ValueError):
            VprdmParams(2, -1, key)

    def test_purity_and_rank(self):
        key = SecretKey.from_int(1)
        rho = primitives.vprdm_generate(VprdmParams(4, 2, key), HAAR)
        assert qcore.purity(rho) == pytest.approx(2.0**-2, abs=1e-10)
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.all(evals[4:] <= 1e-10)

    def test_pure_mode_m0(self):
        rho = primitives.vprdm_generate(VprdmParams(3, 0, SecretKey.from_int(2)), HAAR)
        assert qcore.purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self):
        p = VprdmParams(3, 1, SecretKey.from_int(3))
        assert np.array_equal(primitives.vprdm_generate(p, HAAR), primitives.vprdm_generate(p, HAAR))

    def test_verify_right_key(self):
        rng = spawn_rng(0, "vv")
        for n, m in [(2, 0), (3, 1), (4, 2), (5, 3)]:
            key = SecretKey.generate(rng)
            rho = primitives.vprdm_generate(VprdmParams(n, m, key), HAAR)
            assert primitives.vprdm_verify(rho, key, n, m, HAAR) == pytest.approx(1.0, abs=1e-9)

    def test_verify_uniform_state_exact(self):
        key = SecretKey.from_int(4)
        for n, m in [(3, 1), (4, 1), (4, 2)]:
            val = primitives.vprdm_verify(qcore.maximally_mixed(n), key, n, m, HAAR)
            assert val == pytest.approx(2.0 ** -(n - m), abs=1e-12)

    def test_wrong_key_mean(self):
        rng = spawn_rng(1, "vv")
        n, m = 4, 1
        rho = primitives.vprdm_generate(VprdmParams(n, m, SecretKey.generate(rng)), HAAR)
        vals = np.array([primitives.vprdm_verify(rho, SecretKey.generate(rng), n, m, HAAR) for _ in range(300)])
        assert abs(vals.mean() - 2.0 ** -(n - m)) <= 3 * vals.std(ddof=1) / np.sqrt(vals.size)


    @pytest.mark.parametrize("spec", [HAAR, COMPOSED], ids=["haar_exact", "composed"])
    @pytest.mark.parametrize("n,m", [(1, 0), (3, 1), (4, 2), (6, 4)])
    def test_matches_dense_reference(self, spec, n, m):
        rng = spawn_rng(5, "vprdm-dense", spec.mode, n, m)
        key, wrong = SecretKey.generate(rng), SecretKey.generate(rng)
        params = VprdmParams(n, m, key)
        rho = primitives.vprdm_generate(params, spec)
        assert np.max(np.abs(rho - vprdm_generate_dense(params, spec))) <= 1e-12
        for k in (key, wrong):
            assert abs(primitives.vprdm_verify(rho, k, n, m, spec) - vprdm_verify_dense(rho, k, n, m, spec)) <= 1e-12


class TestGhseCloseness:
    def test_null_cases(self):
        assert primitives.ghse_closeness(2, 1, 1) <= 1e-12
        assert primitives.ghse_closeness(3, 0, 2) <= 1e-12

    def test_halving_in_n(self):
        vals = {n: primitives.ghse_closeness(n, 1, 2) for n in (2, 3, 4)}
        for n in (2, 3):
            assert 0.35 <= vals[n + 1] / vals[n] <= 0.65

    @pytest.mark.parametrize(
        "n,m,t", [(2, 1, 1), (2, 0, 2), (2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3), (2, 1, 4)]
    )
    def test_matches_dense_reference(self, n, m, t):
        assert abs(primitives.ghse_closeness(n, m, t) - primitives.ghse_closeness_dense(n, m, t)) <= 1e-12

    def test_beyond_the_dense_cap(self):
        # 2^(n t) = 2^30 and a t = 6 average over 2 letters: the dense path refuses both
        assert 0.0 < primitives.ghse_closeness(6, 2, 5) < 1.0
        assert 0.0 < primitives.ghse_closeness(1, 1, 6) < 1.0
        with pytest.raises(ValueError):
            primitives.ghse_closeness(2, 3, 2)


class TestOwsg:
    def test_correctness(self):
        gen = OneWayStateGenerator(4, 1, HAAR)
        rng = spawn_rng(2, "owsg")
        key = gen.keygen(rng)
        assert gen.verify(key, gen.stategen(key))

    def test_wrong_key_rejection(self):
        gen = OneWayStateGenerator(4, 1, HAAR)
        rng = spawn_rng(3, "owsg")
        key = gen.keygen(rng)
        rho = gen.stategen(key)
        accepts = sum(gen.verify(gen.keygen(rng), rho) for _ in range(200))
        assert accepts / 200 <= 0.02

    def test_degenerate_threshold(self):
        gen = OneWayStateGenerator(3, 1, HAAR, threshold=1.0)
        rng = spawn_rng(4, "owsg")
        key = gen.keygen(rng)
        rho = gen.stategen(key)
        assert gen.verify(key, rho)
        assert not gen.verify(gen.keygen(rng), rho)


class TestEfi:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            EfiParams(6, 5, 2 / 3, 1 / 3, 4)  # m0 >= m1
        with pytest.raises(ValueError):
            EfiParams(6, 1, 2 / 3, 0.8, 4)  # c >= gamma
        with pytest.raises(ValueError):
            EfiParams(6, 1, 2 / 3, 1 / 3, 20)  # lambda_eff too large

    def test_degenerate_identical_arms(self):
        nu = qcore.maximally_mixed(2)
        rep = primitives._report_for(nu, nu.copy(), 2, 1)
        assert rep.t_exact == pytest.approx(0.0, abs=1e-12)
        assert rep.s0_bits == pytest.approx(rep.s1_bits, abs=1e-12)
        assert rep.fannes_holds()

    def test_entropy_bounds(self):
        params = EfiParams(5, 1, 0.7, 0.3, 5)
        rep = primitives.efi_report(params, HAAR)
        assert rep.s1_bits >= params.m1 - 1e-9
        assert rep.s0_bits <= params.lambda_eff + params.m0 + 1e-9
        assert rep.fannes_holds()
        assert rep.t_exact >= rep.t_lower_bound - 1e-9

    def test_ensembles_deterministic(self):
        params = EfiParams(4, 1, 0.6, 0.3, 4)
        a0, a1 = primitives.efi_ensembles(params, HAAR)
        b0, b1 = primitives.efi_ensembles(params, HAAR)
        assert np.array_equal(a0, b0) and np.array_equal(a1, b1)

    def test_each_key_built_once(self):
        # 2^7 keys overflow the 64-entry cache; the second arm of a key still hits it
        build_scrambler.cache_clear()
        primitives.efi_report(EfiParams(n=4, m0=1, gamma=0.67, c=0.33, lambda_eff=7), ScramblerSpec("composed"))
        assert build_scrambler.cache_info().misses == 128

    def test_verify_draw(self):
        params = EfiParams(4, 1, 0.6, 0.3, 4)
        key = SecretKey.from_int(11)
        for arm in (0, 1):
            assert primitives.efi_verify_draw(params, HAAR, key, arm) == pytest.approx(1.0, abs=1e-9)

    def test_noise_monotonicity(self):
        base = EfiParams(5, 1, 0.7, 0.3, 5)
        clean = primitives.efi_report(base, HAAR)
        last = clean.t_exact
        for p in (0.05, 0.15, 0.3):
            noisy = EfiParams(5, 1, 0.7, 0.3, 5, noise=qcore.LocalDepolarizingChannel(5, p))
            rep = primitives.efi_report(noisy, HAAR)
            assert rep.t_exact <= last + 1e-9
            last = rep.t_exact

    def test_noise_check_zero_noise(self):
        params = EfiParams(5, 1, 0.7, 0.3, 5, noise=qcore.LocalDepolarizingChannel(5, 0.0))
        rep = primitives.efi_noise_check(params, HAAR)
        assert rep.noisy.t_exact == pytest.approx(rep.noiseless.t_exact, abs=1e-12)
        assert rep.shannon_bits == pytest.approx(0.0, abs=1e-12)
        assert rep.within_budget

    def test_noise_check_budget_entropy(self):
        p = 0.25
        params = EfiParams(5, 1, 0.7, 0.3, 5, noise=qcore.LocalDepolarizingChannel(5, p))
        rep = primitives.efi_noise_check(params, HAAR)
        h4 = -(1 - 0.75 * p) * np.log2(1 - 0.75 * p) - 3 * (p / 4) * np.log2(p / 4)
        assert rep.per_qubit_shannon == pytest.approx(h4, abs=1e-9)
        assert rep.per_qubit_budget == pytest.approx(0.7 - 0.3 - 1 / 5, abs=1e-12)

    def test_headline_noise_budget_constants(self):
        # the advertised regime: per-qubit noise entropy at p = 1/4 fits the
        # budget when the low arm is asymptotically thin (c tiny, gamma -> 1)
        p = 0.25
        h4 = -(1 - 0.75 * p) * np.log2(1 - 0.75 * p) - 3 * (p / 4) * np.log2(p / 4)
        c = 0.5e-4
        gamma = 1 - c
        assert h4 <= gamma - c  # m0/n -> 0 asymptotically

    def test_non_mixed_unitary_rejected_for_budget(self):
        k0 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
        damp = qcore.KrausChannel([k0, k1])
        big = qcore.KrausChannel([np.kron(np.kron(op, np.eye(2)), np.eye(4)) for op in (k0, k1)])
        params = EfiParams(4, 1, 0.6, 0.3, 4, noise=big)
        rep = primitives.efi_noise_check(params, HAAR)
        assert rep.within_budget is None
        assert rep.noisy.t_exact >= 0.0
