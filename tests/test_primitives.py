"""Keyed mixed-state primitives: generation/verification, ensemble
closeness, one-way state generation and EFI entropy certificates."""

from dataclasses import astuple

import numpy as np
import pytest

from pqaslab import ensembles, pqas, primitives, qcore
from pqaslab._streams import spawn_rng
from pqaslab.ensembles import ScramblerSpec, SecretKey, build_scrambler
from pqaslab.primitives import EfiParams, VprdmParams

import reference

HAAR = ScramblerSpec(mode="haar_exact")
COMPOSED = ScramblerSpec(mode="composed")


def vprdm_generate_dense(params, spec):
    """U_k (|0><0|^(n-m) (x) sigma_m) U_k^dag as a dense conjugation (reference)."""
    base = qcore.tensor(qcore.zero_tag_state(params.n - params.m), reference.maximally_mixed(params.m))
    return qcore.apply_unitary(base, build_scrambler(params.key, params.n, spec))


def vprdm_verify_dense(rho, key, n, m, spec):
    """tr(|0><0|^(n-m) tr_mixed(U_k^dag rho U_k)) from the dense decoded state (reference)."""
    undone = qcore.apply_unitary(rho, build_scrambler(key, n, spec).conj().T)
    return float(qcore.partial_trace(undone, [2 ** (n - m), 2**m], {1})[0, 0].real)


class TestVprdm:
    def test_params_validation(self):
        key = reference.key_from_int(0)
        with pytest.raises(ValueError):
            VprdmParams(2, 2, key)
        with pytest.raises(ValueError):
            VprdmParams(2, -1, key)
        # verify refuses the m = n that VprdmParams refuses: it would read every column and give tr rho
        rho = primitives.vprdm_generate(VprdmParams(3, 1, key), HAAR)
        for m in (3, -1):
            with pytest.raises(ValueError):
                primitives.vprdm_verify(rho, key, 3, m, HAAR)

    def test_purity_and_rank(self):
        key = reference.key_from_int(1)
        rho = primitives.vprdm_generate(VprdmParams(4, 2, key), HAAR)
        assert reference.purity(rho) == pytest.approx(2.0**-2, abs=1e-10)
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.all(evals[4:] <= 1e-10)

    def test_pure_mode_m0(self):
        rho = primitives.vprdm_generate(VprdmParams(3, 0, reference.key_from_int(2)), HAAR)
        assert reference.purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self):
        p = VprdmParams(3, 1, reference.key_from_int(3))
        assert np.array_equal(primitives.vprdm_generate(p, HAAR), primitives.vprdm_generate(p, HAAR))

    def test_verify_right_key(self):
        rng = spawn_rng(0, "vv")
        for n, m in [(2, 0), (3, 1), (4, 2), (5, 3)]:
            key = SecretKey.generate(rng)
            rho = primitives.vprdm_generate(VprdmParams(n, m, key), HAAR)
            assert primitives.vprdm_verify(rho, key, n, m, HAAR) == pytest.approx(1.0, abs=1e-9)

    def test_verify_uniform_state_exact(self):
        key = reference.key_from_int(4)
        for n, m in [(3, 1), (4, 1), (4, 2)]:
            val = primitives.vprdm_verify(reference.maximally_mixed(n), key, n, m, HAAR)
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

    @pytest.mark.parametrize("mode", ["haar_exact", "composed", "pru_only"])
    @pytest.mark.parametrize("n,m", [(3, 0), (3, 1), (5, 3), (8, 2)])
    def test_verify_reads_its_columns_without_caching_them(self, mode, n, m, monkeypatch):
        # an uncached key: the full build's first 2^m columns to rounding (other BLAS calls), and the cache untouched
        spec = ScramblerSpec(mode)
        rng = spawn_rng(6, "vprdm-columns", mode, n, m)
        key, held = SecretKey.generate(rng), SecretKey.generate(rng)
        rho = primitives.vprdm_generate(VprdmParams(n, m, held), spec)
        before = build_scrambler.cache_info()
        full = ensembles.build_scramblers([key], n, spec)[0]
        assert abs(primitives.vprdm_verify(rho, key, n, m, spec) - primitives.vprdm_value(rho, full[:, : 2**m])) <= 1e-14
        assert build_scrambler.cache_info() == before
        # a cached key is read from the cache: nothing is built
        monkeypatch.setattr(ensembles, "build_scramblers", None)
        u = build_scrambler(held, n, spec)
        assert primitives.vprdm_verify(rho, held, n, m, spec) == primitives.vprdm_value(rho, u[:, : 2**m])



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
        assert abs(primitives.ghse_closeness(n, m, t) - reference.ghse_closeness_dense(n, m, t)) <= 1e-12

    def test_beyond_the_dense_cap(self):
        # 2^(n t) = 2^30 and a t = 6 average over 2 letters: the dense path refuses both
        assert 0.0 < primitives.ghse_closeness(6, 2, 5) < 1.0
        assert 0.0 < primitives.ghse_closeness(1, 1, 6) < 1.0
        with pytest.raises(ValueError):
            primitives.ghse_closeness(2, 3, 2)


def owsg_verify(rho, key, n, m, threshold=0.5):
    """One-way state generator acceptance: vprdm_verify against a threshold,
    with a 1e-12 grace that keeps threshold = 1.0 usable despite round-off."""
    return primitives.vprdm_verify(rho, key, n, m, HAAR) >= threshold - 1e-12


class TestOwsg:
    def test_correctness(self):
        rng = spawn_rng(2, "owsg")
        key = SecretKey.generate(rng)
        assert owsg_verify(primitives.vprdm_generate(VprdmParams(4, 1, key), HAAR), key, 4, 1)

    def test_wrong_key_rejection(self):
        rng = spawn_rng(3, "owsg")
        rho = primitives.vprdm_generate(VprdmParams(4, 1, SecretKey.generate(rng)), HAAR)
        accepts = sum(owsg_verify(rho, SecretKey.generate(rng), 4, 1) for _ in range(200))
        assert accepts / 200 <= 0.02

    def test_degenerate_threshold(self):
        rng = spawn_rng(4, "owsg")
        key = SecretKey.generate(rng)
        rho = primitives.vprdm_generate(VprdmParams(3, 1, key), HAAR)
        assert owsg_verify(rho, key, 3, 1, threshold=1.0)
        assert not owsg_verify(rho, SecretKey.generate(rng), 3, 1, threshold=1.0)


class TestEfi:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            EfiParams(6, 5, 2 / 3, 1 / 3, 4)  # m0 >= m1
        with pytest.raises(ValueError):
            EfiParams(6, 1, 2 / 3, 0.8, 4)  # c >= gamma
        with pytest.raises(ValueError):
            EfiParams(6, 1, 2 / 3, 1 / 3, 20)  # lambda_eff too large

    def test_degenerate_identical_arms(self):
        nu = reference.maximally_mixed(2)
        rep = primitives._report_for(nu, nu.copy(), 2)
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

    def test_each_key_built_once(self, monkeypatch):
        # 2^7 keys overflow the 64-entry cache: each goes to the stacked
        # builder exactly once, serves both arms, and the cache is untouched
        seen = []
        build = primitives.build_scramblers
        monkeypatch.setattr(primitives, "build_scramblers", lambda keys, *a: seen.extend(keys) or build(keys, *a))
        build_scrambler.cache_clear()
        before = build_scrambler.cache_info()
        primitives.efi_report(EfiParams(n=4, m0=1, gamma=0.67, c=0.33, lambda_eff=7), ScramblerSpec("composed"))
        assert build_scrambler.cache_info() == before
        assert len(seen) == 128 and set(seen) == set(primitives._truncated_keys(128))

    @pytest.mark.parametrize("mode", ["haar_exact", "composed", "pru_only"])
    def test_ensembles_match_per_key_loop(self, mode, monkeypatch):
        # the stacked build adds the same states in the same order as a
        # vprdm_generate loop over the keys, which reads whole cached unitaries
        # (other BLAS calls), so the averages agree to rounding; one stack of
        # 32 keys and stacks of 5 are the same calls, so bitwise equal
        params = EfiParams(n=3, m0=0, gamma=0.67, c=0.33, lambda_eff=5)
        spec = ScramblerSpec(mode)
        keys = primitives._truncated_keys(32)
        nu = np.zeros((2, 8, 8), dtype=complex)
        for key in keys:
            for acc, m in zip(nu, (params.m0, params.m1)):
                acc += primitives.vprdm_generate(VprdmParams(params.n, m, key), spec)
        stacked = primitives.efi_ensembles(params, spec)
        for got, ref in zip(stacked, nu / len(keys)):
            assert np.max(np.abs(got - ref)) <= 1e-14
        monkeypatch.setattr(ensembles, "STACK_ENTRIES", 5 * 64)
        for got, ref in zip(primitives.efi_ensembles(params, spec), stacked):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "mode, pinned",
        [
            ("haar_exact", "485c4050326d2dc4c655239872d5fc2ed10bcd06142063031ce450e236827d04"),
            ("composed", "c0c35103612b38c7ed6346a8d888dcaf0bd61a4e166a94e1438bae581e7f6493"),
            ("pru_only", "30ddbf0adf3755bff3d9e788229f2e66b570c10faf238777440f2e013e584fef"),
        ],
    )
    def test_report_is_pinned(self, mode, pinned, monkeypatch):
        # the bytes the key builds draw are pinned; the report is the one whole-unitary builds give, to rounding
        params, spec = EfiParams(n=5, m0=1, gamma=0.67, c=0.33, lambda_eff=5), ScramblerSpec(mode)
        rep, digest = reference.draw_digest(monkeypatch, lambda: primitives.efi_report(params, spec))
        assert digest == pinned
        us = ensembles.build_scramblers(primitives._truncated_keys(2**params.lambda_eff), params.n, spec)
        nu0, nu1 = (pqas.scramble_zero(us[:, :, : 2**m]).mean(axis=0) for m in (params.m0, params.m1))
        whole = primitives._report_for(nu0, nu1, params.n)
        assert np.max(np.abs(np.subtract(astuple(rep), astuple(whole)))) <= 1e-12

    def test_noise_monotonicity(self):
        base = EfiParams(5, 1, 0.7, 0.3, 5)
        clean = primitives.efi_report(base, HAAR)
        last = clean.t_exact
        for p in (0.0, 0.05, 0.15, 0.3):
            noisy = EfiParams(5, 1, 0.7, 0.3, 5, noise=qcore.LocalDepolarizingChannel(5, p))
            rep = primitives.efi_report(noisy, HAAR)
            if p == 0.0:
                assert rep.t_exact == pytest.approx(clean.t_exact, abs=1e-12)
            assert rep.t_exact <= last + 1e-9
            last = rep.t_exact

    def test_headline_noise_budget_constants(self):
        # the advertised regime: per-qubit noise entropy at p = 1/4 fits the
        # budget when the low arm is asymptotically thin (c tiny, gamma -> 1)
        p = 0.25
        h4 = -(1 - 0.75 * p) * np.log2(1 - 0.75 * p) - 3 * (p / 4) * np.log2(p / 4)
        c = 0.5e-4
        gamma = 1 - c
        assert h4 <= gamma - c  # m0/n -> 0 asymptotically

    def test_non_mixed_unitary_noise(self):
        # amplitude damping on the first qubit has no mixed-unitary form
        k0 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
        big = reference.KrausChannel([np.kron(np.kron(op, np.eye(2)), np.eye(4)) for op in (k0, k1)])
        rep = primitives.efi_report(EfiParams(4, 1, 0.6, 0.3, 4, noise=big), HAAR)
        assert rep.t_exact >= 0.0
