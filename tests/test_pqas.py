"""Protocol operations: encryption, authentication, fidelity functionals,
and their exact Haar averages."""

import numpy as np
import pytest

from pqaslab import moments, pqas, qcore
from pqaslab._streams import spawn_rng
from pqaslab.ensembles import ScramblerSpec, SecretKey, random_pure_state, sample_ghse, sample_haar
from pqaslab.qcore import QubitPartition

HAAR = ScramblerSpec(mode="haar_exact")
COMPOSED = ScramblerSpec(mode="composed")


class TestEncryptDecrypt:
    def test_ciphertext_purity(self):
        rng = spawn_rng(0, "enc")
        part = QubitPartition(2, 1, 2)
        psi = random_pure_state(2, rng)
        ct = pqas.encrypt(psi, SecretKey.generate(rng), part, HAAR)
        assert qcore.purity(ct.state) == pytest.approx(2.0**-part.m, abs=1e-10)
        assert np.trace(ct.state).real == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_mode_pure(self):
        rng = spawn_rng(1, "enc")
        part = QubitPartition(2, 1, 0)
        ct = pqas.encrypt(random_pure_state(2, rng), SecretKey.generate(rng), part, HAAR)
        assert qcore.purity(ct.state) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = spawn_rng(2, "enc")
        with pytest.raises(ValueError):
            pqas.encrypt(random_pure_state(2, rng), SecretKey.generate(rng), QubitPartition(1, 1, 1), HAAR)

    @pytest.mark.parametrize("spec", [HAAR, COMPOSED], ids=["haar_exact", "composed"])
    @pytest.mark.parametrize("n,l,m", [(1, 1, 1), (2, 2, 0), (1, 2, 2)])
    def test_round_trip(self, spec, n, l, m):
        rng = spawn_rng(3, "rt", spec.mode, n, l, m)
        part = QubitPartition(n, l, m)
        key = SecretKey.generate(rng)
        rho = sample_ghse(n, n, rng)
        plain = pqas.decrypt(pqas.encrypt(rho, key, part, spec), key, spec)
        assert qcore.trace_distance(plain, qcore.tensor(rho, qcore.zero_tag_state(l))) <= 1e-9

    def test_decrypt_of_maximally_mixed(self):
        part = QubitPartition(1, 1, 1)
        key = SecretKey.generate(spawn_rng(4, "mm"))
        ct = pqas.Ciphertext(qcore.maximally_mixed(part.z), part)
        assert np.allclose(pqas.decrypt(ct, key, HAAR), qcore.maximally_mixed(part.n + part.l), atol=1e-10)

    def test_wrong_key_acceptance(self):
        # mean tag acceptance over wrong keys is 2^-l for Haar scramblers
        rng = spawn_rng(5, "wrong")
        part = QubitPartition(1, 2, 1)
        key = SecretKey.generate(rng)
        ct = pqas.encrypt(qcore.basis_ket(2, 0), key, part, HAAR)
        vals = np.empty(400)
        for i in range(vals.size):
            vals[i] = pqas.authenticate(ct, SecretKey.generate(rng), HAAR).accept_prob
        dev = abs(vals.mean() - 2.0**-part.l)
        assert dev <= 3 * vals.std(ddof=1) / np.sqrt(vals.size)


class TestAuthenticate:
    def test_no_tamper(self):
        rng = spawn_rng(6, "auth")
        part = QubitPartition(2, 2, 1)
        psi = random_pure_state(2, rng)
        key = SecretKey.generate(rng)
        out = pqas.authenticate(pqas.encrypt(psi, key, part, HAAR), key, HAAR)
        assert out.accepted
        assert out.accept_prob == pytest.approx(1.0, abs=1e-9)
        assert out.fidelity_with(psi) == pytest.approx(1.0, abs=1e-9)

    def test_full_depolarizing_acceptance_exact(self):
        # tag register becomes uniform: P0 = 2^-l for every key
        rng = spawn_rng(7, "auth")
        for l in (1, 2):
            part = QubitPartition(1, l, 1)
            key = SecretKey.generate(rng)
            ct = pqas.encrypt(qcore.basis_ket(2, 0), key, part, HAAR)
            tampered = pqas.tamper(ct, qcore.DepolarizingChannel(2**part.z, 1.0))
            out = pqas.authenticate(tampered, key, HAAR)
            assert out.accept_prob == pytest.approx(2.0**-l, abs=1e-12)

    def test_reject_path(self):
        part = QubitPartition(1, 2, 0)
        key = SecretKey.generate(spawn_rng(8, "auth"))
        ct = pqas.encrypt(qcore.basis_ket(2, 0), key, part, HAAR)
        # project the decoded state onto an orthogonal tag value by hand
        u = ct.state * 0.0
        outcome = pqas.AuthOutcome(accept_prob=0.0, accepted=False)
        with pytest.raises(ValueError):
            outcome.fidelity_with(qcore.basis_ket(2, 0))


class TestChannelFidelity:
    def test_identity(self):
        chan = qcore.IdentityChannel(4)
        assert pqas.channel_fidelity(chan) == pytest.approx(1.0)
        assert pqas.entanglement_fidelity(chan) == pytest.approx(1.0)

    def test_full_depolarizing_d4(self):
        chan = qcore.DepolarizingChannel(4, 1.0)
        assert pqas.channel_fidelity(chan) == pytest.approx(0.25, abs=1e-12)
        assert pqas.entanglement_fidelity(chan) == pytest.approx(1 / 16, abs=1e-12)

    def test_fc_fe_identity_random_channels(self):
        # F_c = (d F_e + 1)/(d + 1) on random CPTP maps (Stinespring draws)
        rng = spawn_rng(9, "fcfe")
        d, k = 4, 3
        for _ in range(5):
            raw = rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d))
            iso, _ = np.linalg.qr(raw)
            chan = qcore.KrausChannel([iso[i * d : (i + 1) * d, :] for i in range(k)])
            fc = pqas.channel_fidelity(chan)
            fe = pqas.entanglement_fidelity(chan)
            assert fc == pytest.approx((d * fe + 1) / (d + 1), abs=1e-12)

    def test_p0_linear_in_channel(self):
        rng = spawn_rng(10, "linear")
        part = QubitPartition(1, 1, 1)
        d = 2**part.z
        a = qcore.DepolarizingChannel(d, 0.6)
        b = qcore.UnitaryChannel(sample_haar(part.z, rng))
        mix = qcore.MixtureChannel([0.25, 0.75], [a, b])
        psi = random_pure_state(1, rng)
        u = sample_haar(part.z, rng)
        pa, _ = pqas.p0_fprime_for_unitary(psi, u, part, a)
        pb, _ = pqas.p0_fprime_for_unitary(psi, u, part, b)
        pm, _ = pqas.p0_fprime_for_unitary(psi, u, part, mix)
        assert pm == pytest.approx(0.25 * pa + 0.75 * pb, abs=1e-9)


def _twirl_reference(weight, part, channel, psi):
    """Haar mean of tr(weight U^dag Gamma(U rho_ext U^dag) U) from the dense
    two-fold twirl: tr[(Gamma (x) id)(T2(rho_ext (x) weight)) SWAP]."""
    d = 2**part.z
    rho_ext = pqas.pad_state(qcore.pure_dm(psi), part)
    twirled = moments.haar_moment(np.kron(rho_ext, weight), 2, d).reshape(d, d, d, d)
    # Gamma (x) id from Gamma's images of the left factor's matrix units |i><j|
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    images = np.array([channel.apply(e) for e in units]).reshape(d, d, d, d)
    pushed = np.einsum("ijab,ikjl->akbl", images, twirled)
    return np.einsum("akka->", pushed).real


def _channel_classes(z, rng):
    d = 2**z
    dep = qcore.DepolarizingChannel(d, 0.3)
    unitary = qcore.UnitaryChannel(sample_haar(z, rng))
    return [
        qcore.IdentityChannel(d),
        dep,
        qcore.LocalDepolarizingChannel(z, 0.2),
        unitary,
        qcore.MixtureChannel([0.4, 0.6], [dep, unitary]),
    ]


class TestFunctionals:
    @pytest.mark.parametrize("n,l,m", [(1, 0, 0), (1, 1, 0), (1, 0, 1), (2, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 0)])
    def test_exact_oracle_matches_dense_twirl(self, n, l, m):
        part = QubitPartition(n, l, m)
        rng = spawn_rng(19, "twirl-reference", n, l, m)
        psi = random_pure_state(n, rng)
        tag = pqas.tag_projector(part)
        weight = qcore.tensor(qcore.pure_dm(psi), qcore.zero_tag_state(l), np.eye(2**m))
        for chan in _channel_classes(part.z, rng):
            assert abs(pqas.exact_haar_p0(part, chan, psi) - _twirl_reference(tag, part, chan, psi)) <= 1e-12
            assert abs(pqas.exact_haar_fprime(part, chan, psi) - _twirl_reference(weight, part, chan, psi)) <= 1e-12

    def test_exact_oracle_at_the_qubit_cap(self):
        # z = 10: the dense twirl would need a 2^20-dimensional operator
        part = QubitPartition(4, 3, 3)
        psi = qcore.basis_ket(16, 0)
        chan = qcore.LocalDepolarizingChannel(part.z, 0.1)
        slack = pqas.prediction_slack(part, chan)
        assert abs(pqas.exact_haar_p0(part, chan, psi) - pqas.predicted_p0(part, chan)) <= slack
        assert abs(pqas.exact_haar_fprime(part, chan, psi) - pqas.predicted_fprime(part, chan)) <= slack
        with pytest.raises(ValueError):
            pqas.exact_haar_p0(part, qcore.IdentityChannel(2**9), psi)

    def test_fprime_identities(self):
        rng = spawn_rng(11, "fprime")
        part = QubitPartition(1, 1, 1)
        psi = random_pure_state(1, rng)
        chan = qcore.DepolarizingChannel(2**part.z, 0.4)
        for _ in range(10):
            u = sample_haar(part.z, rng)
            p0, fp = pqas.p0_fprime_for_unitary(psi, u, part, chan)
            assert fp <= p0 + 1e-12
            # F' = 2^m tr(rho_ext rho_dec)
            rho_ext = pqas.pad_state(qcore.pure_dm(psi), part)
            dec = u.conj().T @ chan.apply(u @ rho_ext @ u.conj().T) @ u
            alt = (2**part.m) * np.trace(rho_ext @ dec).real
            assert fp == pytest.approx(alt, abs=1e-10)

    def test_exact_oracle_vs_monte_carlo(self):
        part = QubitPartition(1, 1, 1)
        psi = qcore.basis_ket(2, 0)
        chan = qcore.UnitaryChannel(sample_haar(part.z, spawn_rng(12, "tamper")))
        stats = pqas.auth_sweep(psi, part, chan, trials=500, seed=13)
        exact_p0 = pqas.exact_haar_p0(part, chan, psi)
        exact_fp = pqas.exact_haar_fprime(part, chan, psi)
        assert abs(stats.mean_p0 - exact_p0) <= 3 * stats.stderr_p0
        assert abs(stats.mean_fprime - exact_fp) <= 3 * stats.stderr_fprime

    def test_formula_residual_within_slack(self):
        part = QubitPartition(2, 2, 1)
        psi = qcore.basis_ket(4, 0)
        for p in (0.1, 0.5):
            chan = qcore.DepolarizingChannel(2**part.z, p)
            slack = pqas.prediction_slack(part, chan)
            assert abs(pqas.exact_haar_p0(part, chan, psi) - pqas.predicted_p0(part, chan)) <= slack
            assert abs(pqas.exact_haar_fprime(part, chan, psi) - pqas.predicted_fprime(part, chan)) <= slack

    def test_auth_sweep_identity_channel(self):
        part = QubitPartition(1, 1, 1)
        stats = pqas.auth_sweep(qcore.basis_ket(2, 0), part, qcore.IdentityChannel(2**part.z), trials=100, seed=14)
        assert stats.mean_p0 == pytest.approx(1.0, abs=1e-9)
        assert stats.mean_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_auth_sweep_trial_floor(self):
        part = QubitPartition(1, 1, 1)
        with pytest.raises(ValueError):
            pqas.auth_sweep(qcore.basis_ket(2, 0), part, qcore.IdentityChannel(2**part.z), trials=50)

    def test_low_fidelity_flag(self):
        # F_c >= 1/(d+1) at any finite dimension, so the flag stays clear for
        # every realizable channel here; it reports, never raises
        part = QubitPartition(1, 1, 1)
        stats = pqas.auth_sweep(
            qcore.basis_ket(2, 0), part, qcore.DepolarizingChannel(2**part.z, 1.0), trials=100, seed=18
        )
        assert not stats.low_fidelity_regime
        assert stats.mean_p0 == pytest.approx(2.0**-part.l, abs=1e-10)


class TestSecurityScan:
    def test_t1_is_null(self):
        part = QubitPartition(1, 1, 1)
        rep = pqas.security_scan(part, 1, 0, 600, seed=15, rho=qcore.pure_dm(qcore.basis_ket(2, 0)))
        assert rep.exact == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.estimate) <= 3 * rep.stderr + 5e-3

    def test_t2_matches_oracle(self):
        part = QubitPartition(1, 1, 2)
        rep = pqas.security_scan(part, 2, 0, 1000, seed=16, rho=qcore.pure_dm(qcore.basis_ket(2, 0)))
        assert abs(rep.estimate - rep.exact) <= 3 * rep.stderr + 1e-9

    def test_argument_validation(self):
        part = QubitPartition(1, 1, 1)
        with pytest.raises(ValueError):
            pqas.security_scan(part, 2, 0, 100, rho=None, rho_g=None)
        with pytest.raises(ValueError):
            pqas.security_scan(part, 2, 1, 100, rho=qcore.maximally_mixed(1))

    def test_entangled_input_runs(self):
        part = QubitPartition(1, 1, 1)
        ghz = (qcore.basis_ket(8, 0) + qcore.basis_ket(8, 7)) / np.sqrt(2)
        rep = pqas.security_scan(part, 2, 1, 200, seed=17, rho_g=qcore.pure_dm(ghz))
        assert rep.exact is None
        assert 0.0 <= rep.estimate <= 1.0
