"""Protocol operations: encryption, authentication, fidelity functionals,
and their exact Haar averages."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqaslab import _streams, ensembles, harness, moments, pqas, primitives, qcore
from pqaslab._streams import spawn_rng
from pqaslab.ensembles import (
    ScramblerSpec,
    SecretKey,
    build_scrambler,
    random_pure_state,
    sample_ghse,
    sample_haar,
    sample_scramblers,
)
from pqaslab.qcore import QubitPartition

import reference

HAAR = ScramblerSpec(mode="haar_exact")
COMPOSED = ScramblerSpec(mode="composed")


def tag_projector(partition: QubitPartition) -> np.ndarray:
    """Pi_0 = I_message (x) |0...0><0...0|_tag (x) I_mixed (the dense reference
    for the tag-|0> columns ``authenticate`` reads)."""
    dn, dl, dm = partition.dims
    return qcore.tensor(np.eye(dn), qcore.zero_tag_state(partition.l), np.eye(dm))


# ---------------------------------------------------------------------------
# dense references: the protocol as d x d conjugations of the padded state


def tag_zero_message(decoded: np.ndarray, partition: QubitPartition) -> np.ndarray:
    """<0|_tag decoded |0>_tag with the mixed register traced: the unnormalized
    message state after a successful tag projection, read off an index slice."""
    dn, dl, dm = partition.dims
    tagged = decoded.reshape(dn, dl, dm, dn, dl, dm)[:, 0, :, :, 0, :]
    return np.einsum("ajbj->ab", tagged)


def encrypt_dense(rho, key, partition, spec):
    rho = np.asarray(rho, dtype=complex)
    rho = qcore.pure_dm(rho) if rho.ndim == 1 else rho
    u = build_scrambler(key, partition.z, spec)
    return pqas.Ciphertext(qcore.apply_unitary(reference.pad_state(rho, partition), u), partition)


def decrypt_dense(c, key, spec):
    u = build_scrambler(key, c.partition.z, spec)
    return qcore.partial_trace(qcore.apply_unitary(c.state, u.conj().T), c.partition.dims, {2})


def authenticate_dense(c, key, spec):
    u = build_scrambler(key, c.partition.z, spec)
    message = tag_zero_message(qcore.apply_unitary(c.state, u.conj().T), c.partition)
    prob = float(np.trace(message).real)
    if prob <= qcore.PROJECT_FLOOR:
        return pqas.AuthOutcome(accept_prob=0.0, accepted=False)
    return pqas.AuthOutcome(accept_prob=prob, accepted=True, post_message=message / prob)


class TestEncryptDecrypt:
    def test_ciphertext_purity(self):
        rng = spawn_rng(0, "enc")
        part = QubitPartition(2, 1, 2)
        psi = random_pure_state(2, rng)
        ct = pqas.encrypt(psi, SecretKey.generate(rng), part, HAAR)
        assert reference.purity(ct.state) == pytest.approx(2.0**-part.m, abs=1e-10)
        assert np.trace(ct.state).real == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_mode_pure(self):
        rng = spawn_rng(1, "enc")
        part = QubitPartition(2, 1, 0)
        ct = pqas.encrypt(random_pure_state(2, rng), SecretKey.generate(rng), part, HAAR)
        assert reference.purity(ct.state) == pytest.approx(1.0, abs=1e-10)

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
        ct = pqas.Ciphertext(reference.maximally_mixed(part.z), part)
        assert np.allclose(pqas.decrypt(ct, key, HAAR), reference.maximally_mixed(part.n + part.l), atol=1e-10)

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
        assert reference.fidelity_with_pure(out.post_message, psi) == pytest.approx(1.0, abs=1e-9)

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
        # a ciphertext whose tag register holds |01>, orthogonal to |00>
        part = QubitPartition(1, 2, 0)
        key = SecretKey.generate(spawn_rng(8, "auth"))
        wrong_tag = qcore.tensor(qcore.pure_dm(qcore.basis_ket(2, 0)), qcore.pure_dm(qcore.basis_ket(4, 1)))
        ct = pqas.Ciphertext(qcore.apply_unitary(wrong_tag, build_scrambler(key, part.z, HAAR)), part)
        outcome = pqas.authenticate(ct, key, HAAR)
        assert outcome.accepted is False
        assert outcome.accept_prob == 0.0
        assert outcome.post_message is None

    @pytest.mark.parametrize("mode", ["haar_exact", "composed"])
    def test_matches_dense_projection(self, mode):
        spec = ScramblerSpec(mode=mode)
        rng = spawn_rng(20, "auth-dense", mode)
        part = QubitPartition(2, 2, 1)
        key = SecretKey.generate(rng)
        u = build_scrambler(key, part.z, spec)
        msg = qcore.pure_dm(random_pure_state(part.n, rng))
        wrong_tag = qcore.tensor(msg, qcore.pure_dm(qcore.basis_ket(2**part.l, 1)), reference.maximally_mixed(part.m))
        accepted = pqas.tamper(pqas.encrypt(msg, key, part, spec), qcore.DepolarizingChannel(2**part.z, 0.3))
        rejected = pqas.Ciphertext(qcore.apply_unitary(wrong_tag, u), part)
        for ct, accepts in ((accepted, True), (rejected, False)):
            out = pqas.authenticate(ct, key, spec)
            prob, post = qcore.project(qcore.apply_unitary(ct.state, u.conj().T), tag_projector(part))
            assert out.accepted == accepts == (post is not None)
            assert abs(out.accept_prob - prob) <= 1e-12
            if accepts:
                expected = qcore.partial_trace(post, part.dims, {1, 2})
                assert np.max(np.abs(out.post_message - expected)) <= 1e-12


def _messages(n, rng):
    """A pure vector, full-rank and rank-deficient mixed states, and a
    unit-trace Hermitian operator with a negative eigenvalue."""
    dn = 2**n
    g = rng.standard_normal((dn, dn)) + 1j * rng.standard_normal((dn, dn))
    h = (g + g.conj().T) / 2
    h -= np.trace(h) / dn * np.eye(dn)
    non_psd = np.eye(dn) / dn + h / (dn * np.linalg.norm(h, 2)) * 1.5
    assert np.linalg.eigvalsh(non_psd)[0] < 0
    low_rank = sample_ghse(n, n - 1, rng) if n > 1 else np.diag([1.0, 0.0]).astype(complex)
    return {
        "pure": random_pure_state(n, rng),
        "full rank": sample_ghse(n, n, rng),
        "rank deficient": low_rank,
        "non-psd": non_psd,
    }


class TestFactoredProtocolMatchesDense:
    @pytest.mark.parametrize("spec", [HAAR, COMPOSED], ids=["haar_exact", "composed"])
    @pytest.mark.parametrize(
        "n,l,m", [(1, 0, 0), (2, 0, 1), (1, 2, 0), (2, 2, 1), (1, 0, 2), (1, 2, 2), (1, 0, 4), (2, 2, 4)]
    )
    def test_round_trip_matches_dense(self, spec, n, l, m):
        part = QubitPartition(n, l, m)
        rng = spawn_rng(25, "factored", spec.mode, n, l, m)
        key = SecretKey.generate(rng)
        channels = _auth_channels(part.z, rng)
        for label, msg in _messages(n, rng).items():
            ct = pqas.encrypt(msg, key, part, spec)
            assert np.max(np.abs(ct.state - encrypt_dense(msg, key, part, spec).state)) <= 1e-12, label
            for chan in channels:
                tampered = pqas.tamper(ct, chan)
                plain = pqas.decrypt(tampered, key, spec)
                assert np.max(np.abs(plain - decrypt_dense(tampered, key, spec))) <= 1e-12, label
                out, ref = pqas.authenticate(tampered, key, spec), authenticate_dense(tampered, key, spec)
                assert out.accepted == ref.accepted, label
                assert abs(out.accept_prob - ref.accept_prob) <= 1e-12, label
                if ref.accepted:
                    assert np.max(np.abs(out.post_message - ref.post_message)) <= 1e-12, label


class TestStackedScramblePadded:
    @pytest.mark.parametrize("mode", ["haar_exact", "composed"])
    @pytest.mark.parametrize("n,l,m", [(1, 0, 0), (1, 1, 2), (2, 2, 1)])
    def test_stack_is_bitwise_each_key_alone(self, mode, n, l, m):
        part = QubitPartition(n, l, m)
        rng = spawn_rng(29, "stacked-scramble", mode, n, l, m)
        ys = sample_scramblers(part, mode, [spawn_rng(30, "stacked-scramble", i) for i in range(5)])
        for msg in (random_pure_state(n, rng), sample_ghse(n, n, rng)):
            stacked = pqas.scramble_padded(msg, ys)
            assert stacked.shape == (5, 2**part.z, 2**part.z)
            for y, phi in zip(ys, stacked):
                assert np.array_equal(phi, pqas.scramble_padded(msg, y))


class TestDecode:
    @pytest.mark.parametrize("mode", ["haar_exact", "composed", "pru_only"])
    @pytest.mark.parametrize("n,l,m", [(1, 0, 0), (1, 1, 0), (1, 1, 2), (2, 2, 4), (3, 0, 2), (2, 1, 3)])
    def test_one_product_is_the_tensordot_contraction(self, mode, n, l, m):
        # decrypt's and authenticate's column blocks to rounding (other BLAS calls), and the cached unitary untouched
        part = QubitPartition(n, l, m)
        spec = ScramblerSpec(mode)
        rng = spawn_rng(31, "decode", mode, n, l, m)
        key = SecretKey.generate(rng)
        ct = pqas.tamper(pqas.encrypt(random_pure_state(n, rng), key, part, spec), qcore.LocalDepolarizingChannel(part.z, 0.1))
        u = build_scrambler(key, part.z, spec)
        before = u.copy()
        dn, dl, dm = part.dims
        for columns in (u.reshape(-1, dn * dl, dm), pqas.tag_zero_columns(u, part)):
            assert np.max(np.abs(pqas._decode(ct.state, columns) - reference.decode_tensordot(ct.state, columns))) <= 1e-14
        assert np.array_equal(u, before)


class TestCachedScramblerStaysImmutable:
    @pytest.mark.parametrize("spec", [HAAR, COMPOSED], ids=["haar_exact", "composed"])
    def test_protocol_leaves_the_cached_unitary_untouched(self, spec):
        part = QubitPartition(1, 2, 2)
        key = SecretKey.generate(spawn_rng(27, "immutable", spec.mode))
        u = build_scrambler(key, part.z, spec)
        before = u.copy()
        rng = spawn_rng(28, "immutable", spec.mode)
        for msg in (random_pure_state(part.n, rng), sample_ghse(part.n, part.n, rng)):
            ct = pqas.tamper(pqas.encrypt(msg, key, part, spec), qcore.LocalDepolarizingChannel(part.z, 0.1))
            pqas.authenticate(ct, key, spec)
            pqas.decrypt(ct, key, spec)
        rho = primitives.vprdm_generate(primitives.VprdmParams(part.z, 2, key), spec)
        primitives.vprdm_verify(rho, key, part.z, 2, spec)
        cached = build_scrambler(key, part.z, spec)
        assert cached is u
        assert np.array_equal(cached, before)
        assert not cached.flags.writeable
        y = pqas.tag_zero_columns(cached, part)
        assert not y.flags.writeable
        with pytest.raises(ValueError):
            y[0, 0, 0] = 0.0


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
            chan = reference.KrausChannel([iso[i * d : (i + 1) * d, :] for i in range(k)])
            fc = pqas.channel_fidelity(chan)
            fe = pqas.entanglement_fidelity(chan)
            assert fc == pytest.approx((d * fe + 1) / (d + 1), abs=1e-12)

    def test_p0_linear_in_channel(self):
        rng = spawn_rng(10, "linear")
        part = QubitPartition(1, 1, 1)
        d = 2**part.z
        a = qcore.DepolarizingChannel(d, 0.6)
        b = qcore.UnitaryChannel(sample_haar(part.z, rng))
        mix = reference.MixtureChannel([0.25, 0.75], [a, b])
        psi = random_pure_state(1, rng)
        u = sample_haar(part.z, rng)
        pa, _ = reference.p0_fprime_for_unitary(psi, u, part, a)
        pb, _ = reference.p0_fprime_for_unitary(psi, u, part, b)
        pm, _ = reference.p0_fprime_for_unitary(psi, u, part, mix)
        assert pm == pytest.approx(0.25 * pa + 0.75 * pb, abs=1e-9)


def _twirl_reference(weight, part, channel, psi):
    """Haar mean of tr(weight U^dag Gamma(U rho_ext U^dag) U) from the dense
    two-fold twirl: tr[(Gamma (x) id)(T2(rho_ext (x) weight)) SWAP]."""
    d = 2**part.z
    rho_ext = reference.pad_state(qcore.pure_dm(psi), part)
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
        reference.MixtureChannel([0.4, 0.6], [dep, unitary]),
    ]


class TestFunctionals:
    @pytest.mark.parametrize("n,l,m", [(1, 0, 0), (1, 1, 0), (1, 0, 1), (2, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 0)])
    def test_exact_oracle_matches_dense_twirl(self, n, l, m):
        part = QubitPartition(n, l, m)
        rng = spawn_rng(19, "twirl-reference", n, l, m)
        psi = random_pure_state(n, rng)
        tag = tag_projector(part)
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
            p0, fp = reference.p0_fprime_for_unitary(psi, u, part, chan)
            assert fp <= p0 + 1e-12
            # F' = 2^m tr(rho_ext rho_dec)
            rho_ext = reference.pad_state(qcore.pure_dm(psi), part)
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
        # composed trial keys are Haar over keys: over 20 seeds, at most one per functional strays past 3 stderr
        sweeps = [pqas.auth_sweep(psi, part, chan, trials=200, mode="composed", seed=seed) for seed in range(1000, 1020)]
        assert sum(abs(s.mean_p0 - exact_p0) > 3 * s.stderr_p0 for s in sweeps) <= 1
        assert sum(abs(s.mean_fprime - exact_fp) > 3 * s.stderr_fprime for s in sweeps) <= 1

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

    def test_auth_sweep_refuses_what_it_cannot_measure(self):
        # an unnormalized message, a message of another size and a channel on another dimension, as exact_haar_p0
        part, ket0, chan = QubitPartition(1, 1, 1), qcore.basis_ket(2, 0), qcore.DepolarizingChannel(8, 0.1)
        for psi, channel in ((2 * ket0, chan), (qcore.basis_ket(4, 0), chan), (ket0, qcore.DepolarizingChannel(16, 0.1))):
            for measure in (pqas.exact_haar_p0, lambda p, c, s: pqas.auth_sweep(s, p, c, 100)):
                with pytest.raises(ValueError):
                    measure(part, channel, psi)

    def test_full_depolarizing_sweep_accepts_at_chance(self):
        # the tag register of every key is uniform, so P0 = 2^-l exactly
        part = QubitPartition(1, 1, 1)
        stats = pqas.auth_sweep(
            qcore.basis_ket(2, 0), part, qcore.DepolarizingChannel(2**part.z, 1.0), trials=100, seed=18
        )
        assert stats.mean_p0 == pytest.approx(2.0**-part.l, abs=1e-10)


def dense_p0_fprime(psi, u, part, channel):
    """(P0, F') from the dense decoded state u^dag Gamma(u rho_ext u^dag) u,
    read off its tag-|0> slice: the per-trial reference for the stacked kernel."""
    rho_ext = reference.pad_state(qcore.pure_dm(psi), part)
    decoded = u.conj().T @ channel.apply(u @ rho_ext @ u.conj().T) @ u
    message = tag_zero_message(decoded, part)
    return float(np.trace(message).real), float(np.vdot(psi, message @ psi).real)


def _auth_channels(z, rng):
    d = 2**z
    raw = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    iso, _ = np.linalg.qr(raw)
    return _channel_classes(z, rng) + [reference.KrausChannel([iso[:d], iso[d:]])]


class TestAuthSweepMatchesPerTrialReference:
    # a stack holds 256 keys at z = 4 and 64 at z = 5, so each last stack is partial
    @pytest.mark.parametrize("mode", ["haar_exact", "composed"])
    @pytest.mark.parametrize(
        "n,l,m,trials,sizes", [(2, 2, 0, 130, [130]), (2, 2, 1, 101, [64, 37]), (1, 2, 2, 101, [64, 37])]
    )
    def test_stacked_kernel_matches_dense_reference(self, n, l, m, trials, sizes, mode):
        part = QubitPartition(n, l, m)
        rng = spawn_rng(21, "auth-reference", n, l, m)
        psi = random_pure_state(n, rng)
        channels = _auth_channels(part.z, rng)
        seed = 22
        stacks = list(pqas._auth_key_stacks(part, mode, seed, trials))
        assert [len(ys) for ys in stacks] == sizes
        assert all(len(ys) * 4**part.z <= ensembles.STACK_ENTRIES for ys in stacks)
        keys = np.concatenate(stacks)
        for i, y in enumerate(keys):
            assert np.array_equal(y, sample_scramblers(part, mode, [spawn_rng(seed, "auth-sweep", i)])[0])
        for chan in channels:
            ref = np.array([dense_p0_fprime(psi, reference.embed_tag_columns(y, part), part, chan) for y in keys])
            got = np.concatenate([np.stack(pqas._p0_fprime_stack(ys, psi, chan), axis=1) for ys in stacks])
            assert np.max(np.abs(got - ref)) <= 1e-12
            stats = pqas.auth_sweep(psi, part, chan, trials, mode=mode, seed=seed)
            p0s, fps = ref.T
            fids = fps / p0s
            expect = [p0s.mean(), fps.mean(), fids.mean(), p0s.std(ddof=1) / np.sqrt(trials)]
            found = [stats.mean_p0, stats.mean_fprime, stats.mean_fidelity, stats.stderr_p0]
            assert np.max(np.abs(np.array(found) - expect)) <= 1e-12
            assert np.min(p0s - fps) >= -1e-12

    def test_one_key_call_matches_dense_reference(self):
        part = QubitPartition(1, 1, 1)
        rng = spawn_rng(23, "auth-reference")
        psi = random_pure_state(1, rng)
        for chan in _auth_channels(part.z, rng):
            u = sample_haar(part.z, rng)
            got = reference.p0_fprime_for_unitary(psi, u, part, chan)
            assert np.allclose(got, dense_p0_fprime(psi, u, part, chan), rtol=0, atol=1e-12)

    def test_one_key_per_stack_at_z8(self):
        assert [len(ys) for ys in pqas._auth_key_stacks(QubitPartition(4, 2, 2), "haar_exact", 24, 3)] == [1, 1, 1]

    def test_local_depolarizing_sweep_holds_one_output_stack(self):
        """At z = 6 a stack is 16 keys, and its (16, 64, 64) channel output
        W W^dag is 1.05 MB.  ``compress`` depolarizes that stack in place,
        so the sweep holds one of them, besides the stack's tag-|0> columns
        and the partial products (about 1.4 stacks more; 2.4 in all).  The
        default ``compress`` depolarized a copy and read 3.4."""
        part = QubitPartition(2, 2, 2)
        chan = qcore.LocalDepolarizingChannel(part.z, 0.2)
        stack = ensembles.stack_size(part.z) * 4**part.z * 16
        tracemalloc.start()
        try:
            pqas.auth_sweep(qcore.basis_ket(4, 0), part, chan, 100, seed=104)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * stack


class TestCovariantTamperGivesTheClosedForm:
    """Identity and global depolarizing tamper commute with every scrambler,
    so every key of every mode reads the Haar closed forms: the stacked Monte
    Carlo kernel is the oracle for the auth-sweep rows that print them and
    draw no key."""

    @pytest.mark.parametrize("mode", ensembles.MODES)
    @pytest.mark.parametrize("n,l,m", [(2, 2, 1), (1, 0, 0)])
    @settings(max_examples=8, deadline=None)
    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2**63 - 1))
    def test_every_key_reads_the_closed_form(self, n, l, m, mode, p, seed):
        part = QubitPartition(n, l, m)
        psi = random_pure_state(n, spawn_rng(seed, "covariant-message"))
        for chan in (qcore.IdentityChannel(2**part.z), qcore.DepolarizingChannel(2**part.z, p)):
            p0, fprime = pqas.exact_haar_p0(part, chan, psi), pqas.exact_haar_fprime(part, chan, psi)
            for ys in pqas._auth_key_stacks(part, mode, seed, 16):
                p0s, fps = pqas._p0_fprime_stack(ys, psi, chan)
                assert np.max(np.abs(p0s - p0)) <= 1e-12
                assert np.max(np.abs(fps - fprime)) <= 1e-12


class TestAcceptedFidelityNeverExceedsP0:
    """F' <= P0 for every key: P0 = tr M and F' = tr((psi (x) I)^dag M (psi (x) I))
    of one positive matrix M (``_p0_fprime_stack``).  Checked on the trial
    keys of an auth sweep at selftest criterion 4's layout, input and trial
    count, under its five channels."""

    @pytest.mark.parametrize(
        "kind,p",
        [("identity", 0.0), ("depolarizing", 0.1), ("depolarizing", 0.3), ("depolarizing", 0.5), ("random_unitary", 0.0)],
    )
    def test_in_every_trial(self, kind, p):
        part = QubitPartition(2, 2, 1)
        psi = qcore.basis_ket(4, 0)
        chan = harness.build_channel(kind, p, 2**part.z)
        stacks = [pqas._p0_fprime_stack(ys, psi, chan) for ys in pqas._auth_key_stacks(part, "haar_exact", 104, 1000)]
        gaps = np.concatenate([p0 - fprime for p0, fprime in stacks])
        assert len(gaps) == 1000 and np.min(gaps) >= -1e-12


class TestCovariantTamperIsKeyIndependent:
    """Under identity and global depolarizing tamper every key reads the same
    P0 = (1 - p) + p 2^-l and F' = (1 - p) + p 2^-(n + l): Y is an isometry,
    so the Gram form Y^dag Gamma(W W^dag) Y does not depend on it."""

    @pytest.mark.parametrize("mode", ["haar_exact", "composed"])
    @pytest.mark.parametrize("n,l,m", [(1, 1, 1), (2, 2, 1), (1, 2, 2)])
    def test_every_key_reads_the_closed_form(self, n, l, m, mode):
        part = QubitPartition(n, l, m)
        psi = random_pure_state(n, spawn_rng(25, "covariant", n, l, m))
        (ys,) = list(pqas._auth_key_stacks(part, mode, 26, 30))
        d = 2**part.z
        cases = [(0.0, qcore.IdentityChannel(d))] + [(p, qcore.DepolarizingChannel(d, p)) for p in (0.1, 0.5, 1.0)]
        for p, chan in cases:
            p0, fprime = pqas._p0_fprime_stack(ys, psi, chan)
            assert p0.shape == fprime.shape == (30,)
            assert np.max(np.abs(p0 - ((1 - p) + p * 2.0**-l))) <= 1e-12
            assert np.max(np.abs(fprime - ((1 - p) + p * 2.0 ** -(n + l)))) <= 1e-12


class TestSecurityScan:
    def test_t1_is_null(self):
        part = QubitPartition(1, 1, 1)
        rep = pqas.security_scan(part, qcore.pure_dm(qcore.basis_ket(2, 0)), 1, 600, seed=15)
        assert rep.exact == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.estimate) <= 3 * rep.stderr + 5e-3

    def test_t2_matches_oracle(self):
        part = QubitPartition(1, 1, 2)
        rep = pqas.security_scan(part, qcore.pure_dm(qcore.basis_ket(2, 0)), 2, 1000, seed=16)
        assert abs(rep.estimate - rep.exact) <= 3 * rep.stderr + 1e-9

    def test_argument_validation(self):
        # at n = 2, t = 2 a state is one copy (2^2) or a joint state (2^(4 + q)), nothing else
        part = QubitPartition(2, 1, 1)
        # nor an unnormalized vector, a matrix of trace 2, one with a negative eigenvalue or a non-Hermitian one
        invalid = (2 * qcore.basis_ket(4, 0), np.eye(4) / 2, np.diag([1.5, -0.5, 0, 0]))
        invalid += (np.diag([1.0, 0, 0, 0]) + np.eye(4, k=1),)
        for state in (reference.maximally_mixed(1), reference.maximally_mixed(3), np.eye(24) / 24, *invalid):
            with pytest.raises(ValueError):
                pqas.security_scan(part, state, 2, 100)
        # a trial count must be a positive multiple of the batch count
        for trials in (30, 0, -20):
            with pytest.raises(ValueError, match="positive multiple"):
                pqas.security_scan(part, qcore.basis_ket(4, 0), 2, trials)

    @pytest.mark.parametrize("mode", ["haar_exact", "pru_only", "composed"])
    def test_product_trials_read_only_their_support(self, mode, monkeypatch):
        # a trial reads the 2^m tag-|0> columns of each message state with a nonzero diagonal entry, no other
        widths = []
        haar, build = ensembles._haar, ensembles.build_scramblers
        monkeypatch.setattr(ensembles, "_haar", lambda rows, cols, rngs: widths.append(cols) or haar(rows, cols, rngs))
        monkeypatch.setattr(ensembles, "build_scramblers", lambda *a: widths.append(len(a[3])) or build(*a))
        part = QubitPartition(2, 1, 1)
        for state, width in ((qcore.basis_ket(4, 0), 2), (np.diag([0.5, 0, 0.5, 0]).astype(complex), 4)):
            widths.clear()
            pqas.security_scan(part, state, 2, 100, mode=mode)
            assert widths == [width] * (2 * pqas.SCAN_BATCHES)

    def test_entangled_input_runs(self):
        part = QubitPartition(1, 1, 1)
        ghz = (qcore.basis_ket(8, 0) + qcore.basis_ket(8, 7)) / np.sqrt(2)
        rep = pqas.security_scan(part, qcore.pure_dm(ghz), 2, 200, seed=17)
        assert rep.exact is None
        assert 0.0 <= rep.estimate <= 1.0

    def test_joint_state_of_dimension_2_to_the_nt_has_no_purification(self):
        # rho (x) rho passed whole is a joint state with q = 0: the joint path, no exact, the product's estimate;
        # in a keyed mode both paths read the same tag-|0> columns (haar_exact draws a product input's own width)
        part = QubitPartition(1, 1, 1)
        rho = 0.7 * qcore.pure_dm(qcore.basis_ket(2, 0)) + 0.3 * reference.maximally_mixed(1)
        product = pqas.security_scan(part, rho, 2, 200, seed=19, mode="composed")
        joint = pqas.security_scan(part, np.kron(rho, rho), 2, 200, seed=19, mode="composed")
        assert product.exact is not None and joint.exact is None
        assert abs(joint.raw_estimate - product.raw_estimate) <= 1e-12

    def test_derives_only_its_trial_streams(self, monkeypatch):
        # one stream per batch, derived once: pass 2 restarts each generator rather than deriving it again
        contexts = []
        derive = _streams.derive_bytes
        monkeypatch.setattr(_streams, "derive_bytes", lambda key, *context, n: contexts.append(context) or derive(key, *context, n=n))
        pqas.security_scan(QubitPartition(1, 1, 1), qcore.pure_dm(qcore.basis_ket(2, 0)), 2, 200, seed=18)
        assert contexts == [(18, "security-scan", b) for b in range(pqas.SCAN_BATCHES)]

    @pytest.mark.parametrize("rank", [1, 2])
    def test_haar_product_draws_only_its_rank_columns(self, rank, monkeypatch):
        # each batch draws per_batch (2, d, r 2^m) blocks of normals, once per pass
        part = QubitPartition(1, 1, 2)
        rho = qcore.pure_dm(qcore.basis_ket(2, 0)) if rank == 1 else np.diag([0.8, 0.2]).astype(complex)
        shapes = []
        haar = ensembles._haar

        def record(rows, cols, rngs):
            shapes.append((len(rngs), rows, cols))
            return haar(rows, cols, rngs)

        monkeypatch.setattr(ensembles, "_haar", record)
        pqas.security_scan(part, rho, 2, 200, seed=18)
        assert shapes == [(10, 2**part.z, rank * 2**part.m)] * (2 * pqas.SCAN_BATCHES)


class TestScanBracketCalibration:
    """The printed bracket estimate +- 2 stderr = [lower, upper] holds the
    exact value at every one of a fixed set of seeds, and the estimate is
    within 3 stderr of it (the check the benchmark and selftest apply)."""

    # composed trial keys are Haar over keys (B H C with H Haar and independent of B and C), so they hold
    # the Haar closed form too; experiments admit only haar_exact and pru_only, and this keeps that checked
    @pytest.mark.parametrize(
        "part,t,trials,mode",
        [
            (QubitPartition(1, 1, 1), 2, 200, "haar_exact"),
            (QubitPartition(1, 1, 2), 2, 200, "haar_exact"),
            (QubitPartition(1, 1, 1), 1, 600, "haar_exact"),
            (QubitPartition(1, 0, 1), 3, 200, "composed"),
        ],
        ids=["m=1 t=2", "m=2 t=2", "t=1 null", "composed t=3"],
    )
    def test_bracket_holds_exact(self, part, t, trials, mode):
        for seed in range(1000, 1008):
            rep = pqas.security_scan(part, qcore.pure_dm(qcore.basis_ket(2, 0)), t, trials, seed=seed, mode=mode)
            assert rep.lower <= rep.exact <= rep.upper, seed
            assert abs(rep.estimate - rep.exact) <= 3 * rep.stderr, seed

    def test_lower_end_covers_the_null(self):
        """At exact 0, lower = W - 2 SE(W) is a one-sided 2-sigma bound, so it
        should exceed 0 on about 2.3 % of seeds; it exceeds it on at most 5
        of 200 (3 today; the plain batch SE of all 20 values, which ignores
        the correlation of the cross-fitted halves, exceeded it on 17)."""
        part, rho = QubitPartition(1, 1, 1), qcore.pure_dm(qcore.basis_ket(2, 0))
        reps = [pqas.security_scan(part, rho, 1, 600, seed=seed) for seed in range(2000, 2200)]
        assert all(rep.exact == 0 for rep in reps)
        assert sum(rep.lower > 0 for rep in reps) <= 5


def _recording(calls, inner):
    """``inner``, appending each value it returns to ``calls``."""

    def record(*args):
        calls.append(inner(*args))
        return calls[-1]

    return record


def _scan_cases():
    ket0 = qcore.pure_dm(qcore.basis_ket(2, 0))
    mixed = 0.7 * ket0 + 0.3 * reference.maximally_mixed(1)
    ghz = (qcore.basis_ket(8, 0) + qcore.basis_ket(8, 7)) / np.sqrt(2)
    # a random full-rank state on (message_1, message_2, purification): not copy-symmetric
    g = spawn_rng(21, "asymmetric").standard_normal((8, 8, 2)) @ np.array([1.0, 1j])
    asym = g @ g.conj().T / np.trace(g @ g.conj().T)
    # copy-symmetric, with the non-diagonal purification marginal (|0><0| + |+><+|)/2
    v = np.kron(qcore.basis_ket(4, 0), qcore.basis_ket(2, 0)) + np.kron(qcore.basis_ket(4, 3), np.ones(2) / np.sqrt(2))
    ghz4 = (qcore.basis_ket(16, 0) + qcore.basis_ket(16, 15)) / np.sqrt(2)
    # rank 2 and copy-symmetric on (message_1, message_2, two purification qubits)
    v1 = np.kron(qcore.basis_ket(4, 0), qcore.basis_ket(4, 0)) + np.kron(qcore.basis_ket(4, 3), qcore.basis_ket(4, 3))
    v2 = np.kron(qcore.basis_ket(4, 1) + qcore.basis_ket(4, 2), np.ones(4) / 2)
    rank2 = 0.6 * qcore.pure_dm(v1 / np.linalg.norm(v1)) + 0.4 * qcore.pure_dm(v2 / np.linalg.norm(v2))
    plus = qcore.pure_dm(np.ones(2) / np.sqrt(2))
    return [
        ("product t=1", QubitPartition(1, 1, 1), 1, ket0, "haar_exact"),
        ("product t=2", QubitPartition(1, 1, 2), 2, mixed, "haar_exact"),
        ("product t=3", QubitPartition(1, 0, 1), 3, mixed, "haar_exact"),
        ("ghz q=1", QubitPartition(1, 1, 1), 2, qcore.pure_dm(ghz), "haar_exact"),
        ("off-diagonal rho_q", QubitPartition(1, 1, 1), 2, qcore.pure_dm(v / np.linalg.norm(v)), "haar_exact"),
        ("not copy-symmetric", QubitPartition(1, 0, 1), 2, asym, "haar_exact"),
        ("ghz t=3 q=1", QubitPartition(1, 0, 1), 3, qcore.pure_dm(ghz4), "haar_exact"),
        ("rank-2 q=2", QubitPartition(1, 1, 1), 2, rank2, "haar_exact"),
        ("composed", QubitPartition(1, 1, 1), 2, ket0, "composed"),
        # |0> on a two-qubit message touches one of its four message states
        ("pru_only", QubitPartition(2, 1, 1), 2, qcore.pure_dm(qcore.basis_ket(4, 0)), "pru_only"),
        ("plus", QubitPartition(1, 1, 1), 2, plus, "haar_exact"),
    ]


class TestScanMatchesPerTrialReference:
    """The two-pass scan, which keeps no batch, against ``reference.stored_batch_scan``,
    which keeps every batch's dense mean: the same per-batch streams, the
    jackknife SE and witness values from the dense loops."""

    @pytest.mark.parametrize("label,part,t,state,mode", _scan_cases(), ids=[c[0] for c in _scan_cases()])
    def test_matches(self, label, part, t, state, mode, monkeypatch):
        seen = {"_jackknife_se": [], "_witness": []}
        for name, calls in seen.items():
            monkeypatch.setattr(pqas, name, _recording(calls, getattr(pqas, name)))
        rep = pqas.security_scan(part, state, t, 200, seed=22, mode=mode)
        raw, jackknife_se, witness = reference.stored_batch_scan(part, state, t, 200, 22, mode)
        assert abs(rep.raw_estimate - raw) <= 1e-12
        assert len(seen["_jackknife_se"]) == 1 and abs(seen["_jackknife_se"][0] - jackknife_se) <= 1e-12
        assert witness.shape == (len(seen["_witness"]),) == (pqas.SCAN_BATCHES,)
        assert np.max(np.abs(np.array(seen["_witness"]) - witness)) <= 1e-12
        halves = witness.reshape(2, -1)
        lower = witness.mean() - 2 * np.mean(halves.std(axis=1, ddof=1)) / np.sqrt(halves.shape[1])
        upper = raw + 2 * jackknife_se
        found = [rep.lower, rep.upper, rep.estimate, rep.stderr]
        assert np.max(np.abs(np.array(found) - [lower, upper, (lower + upper) / 2, (upper - lower) / 4])) <= 1e-12

    def test_joint_cases_take_the_intended_block_path(self):
        cases = {case[0]: case for case in _scan_cases()}
        for label, symmetric in (
            ("ghz q=1", True),
            ("off-diagonal rho_q", True),
            ("not copy-symmetric", False),
            ("ghz t=3 q=1", True),
            ("rank-2 q=2", True),
        ):
            _, part, t, state, _ = cases[label]
            assert pqas._copy_symmetric(state, 2**part.n, t, len(state) // 2 ** (part.n * t)) == symmetric


class TestOrbitBlocks:
    """The scan's blocks, read by gathers from the Gram product's row blocks
    (q = 0) or from the joint factor W (q = 1), against B^T X B with B from
    the eigh of the dense projector: equal spectra, to 1e-12."""

    @pytest.mark.parametrize(
        "t,d,q", [(1, 4, 0), (2, 4, 0), (2, 8, 0), (3, 2, 0), (3, 4, 0), (4, 2, 0), (2, 4, 1), (3, 2, 1)]
    )
    def test_gathered_blocks_have_the_dense_spectra(self, t, d, q):
        rng = spawn_rng(43, "orbit-blocks", t, d, q)
        bases = moments.isotypic_bases(t, d)
        dq = 2**q
        if q == 0:
            # a sum of Hermitian t-th tensor powers: Hermitian, and it commutes with every P(pi)
            raw = rng.standard_normal((5, d, d, 2)) @ np.array([1.0, 1j])
            phis = (raw + raw.conj().transpose(0, 2, 1)) / d
            dense = sum(reduce(np.kron, [phi] * t) for phi in phis)
            blocks = pqas._product_blocks(phis, t, pqas._orbit_gathers(bases, d, t))
        else:
            w = rng.standard_normal((d**t * dq, 6, 2)) @ np.array([1.0, 1j]) / d
            dense = w @ w.conj().T
            blocks = pqas._joint_blocks(w, bases, dq)
        lams = [lam for lam in moments.partitions(t) if moments.irrep_dims(lam, d)[1]]
        assert len(blocks) == len(lams)
        for lam, basis, block in zip(lams, bases, blocks):
            orbit = np.kron(reference.orbit_basis_dense(basis, d**t), np.eye(dq))
            assert np.max(np.abs(block - _pack(orbit.T @ dense @ orbit))) <= 1e-12
            eig = np.kron(reference.dense_isotypic_basis(lam, d), np.eye(dq))
            spectrum = np.linalg.eigvalsh(eig.T @ dense @ eig)
            assert np.max(np.abs(np.linalg.eigvalsh(pqas._unpack(block)) - spectrum)) <= 1e-12

    @pytest.mark.parametrize("t,d", [(1, 4), (2, 4), (3, 2)])
    def test_identity_basis_reads_the_whole_operator(self, t, d):
        # the single block a product input gets beyond moments.MAX_T
        rng = spawn_rng(44, "identity-basis", t, d)
        phis = rng.standard_normal((3, d, d, 2)) @ np.array([1.0, 1j])
        (block,) = pqas._product_blocks(phis, t, pqas._orbit_gathers(pqas._identity_basis(d**t), d, t))
        assert np.max(np.abs(block - _pack(sum(reduce(np.kron, [phi] * t) for phi in phis)))) <= 1e-12

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_gram_is_bitwise_the_khatri_rao_power_from_ones(self, t):
        # the power starts from flat itself; the row blocks and the whole product are other BLAS calls, equal to
        # rounding (entries reach 63 at t = 3, where a last bit is 7e-15)
        phis = spawn_rng(45, "gram", t).standard_normal((7, 8, 8, 2)) @ np.array([1.0, 1j])
        flat = phis.reshape(7, 64)
        rows = np.ones((7, 1), dtype=complex)
        for _ in range(t - 1):
            rows = (rows[:, :, None] * flat[:, None, :]).reshape(7, -1)
        bases = moments.isotypic_bases(t, 8)
        blocks = pqas._product_blocks(phis, t, pqas._orbit_gathers(bases, 8, t))
        dense = reference.product_blocks_dense((flat.T @ rows).ravel(), bases, 8, t)
        assert all(np.max(np.abs(block - _pack(full))) <= 1e-12 for block, full in zip(blocks, dense))

    def test_scan_builds_no_dense_projector(self, monkeypatch):
        moments.isotypic_bases.cache_clear()
        monkeypatch.setattr(moments, "_perm_sum", lambda *a: pytest.fail("dense permutation sum"))
        rep = pqas.security_scan(QubitPartition(1, 1, 2), qcore.pure_dm(qcore.basis_ket(2, 0)), 2, 100, seed=3)
        assert rep.lower <= rep.upper


def _density_stack(rng, n: int, d: int) -> np.ndarray:
    """n random density matrices of dimension d: a batch of ciphertexts' scale."""
    g = rng.standard_normal((n, d, d, 2)) @ np.array([1.0, 1j])
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


# (t, d, basis): the isotypic blocks of product scans at t = 1, 2, 3, and the identity block; at (3, 8) and
# (4, 4) a row block splits a gather down to one orbit pair
ROW_BLOCK_CASES = (
    [(1, d, "isotypic") for d in (2, 4, 8, 16, 32)]
    + [(2, d, "isotypic") for d in (2, 4, 8, 16, 32)]
    + [(3, 2, "isotypic"), (3, 4, "isotypic"), (3, 8, "isotypic"), (4, 4, "isotypic")]
    + [(1, 16, "identity"), (2, 4, "identity"), (2, 8, "identity"), (3, 4, "identity")]
)


def _row_block_plans(t: int, d: int, basis: str):
    bases = moments.isotypic_bases(t, d) if basis == "isotypic" else pqas._identity_basis(d**t)
    return bases, pqas._orbit_gathers(bases, d, t)


class TestRowBlockGathers:
    """A batch's Gram product is formed one row block at a time, never
    whole, and its gathers give the blocks that the whole product
    (``reference.product_batch_gram``) gathered by
    ``reference.product_blocks_dense`` gives, to 1e-12 (its entries reach
    about 135 at t = 1, d = 2, where a last bit is 3e-14): the row blocks
    and the whole product are BLAS calls of other shapes, which take other
    micro-kernels, so they agree to rounding and not bit for bit."""

    @pytest.mark.parametrize("trials", [1, 2, 256])
    @pytest.mark.parametrize("t,d,basis", ROW_BLOCK_CASES)
    def test_bitwise_the_full_gram_gathers(self, t, d, basis, trials):
        phis = _density_stack(spawn_rng(46, "row-blocks", t, d, basis, trials), trials, d)
        bases, plans = _row_block_plans(t, d, basis)
        blocks = pqas._product_blocks(phis, t, plans)
        full = reference.product_blocks_dense(reference.product_batch_gram(phis, t), bases, d, t)
        assert len(blocks) == len(full)
        assert all(np.max(np.abs(block - _pack(dense))) <= 1e-12 for block, dense in zip(blocks, full))

    @pytest.mark.parametrize("d", [8, 16])
    def test_past_256_trials_agrees_to_1e14(self, d):
        # past 256 trials BLAS splits the sum over trials, and the whole product was a symmetric rank-k update
        phis = _density_stack(spawn_rng(47, "row-blocks-300", d), 300, d)
        bases = moments.isotypic_bases(2, d)
        blocks = pqas._product_blocks(phis, 2, pqas._product_plans(2, d))
        full = reference.product_blocks_dense(reference.product_batch_gram(phis, 2), bases, d, 2)
        assert max(np.max(np.abs(block - _pack(dense))) for block, dense in zip(blocks, full)) <= 1e-14

    @pytest.mark.parametrize("t,d,basis", ROW_BLOCK_CASES)
    def test_a_row_block_holds_at_most_one_batch(self, t, d, basis):
        _, (sizes, row_blocks) = _row_block_plans(t, d, basis)
        packed = sum(s * (s + 1) // 2 for s in sizes)
        width = d ** (2 * t - 2)
        # the blocks take the rows in order, whole first digits (the d rows of one at least) at a time
        bounds = [(rows.start, rows.stop) for rows, _, _ in row_blocks]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]] and bounds[-1][1] == d * d
        assert all(lo % d == 0 and hi > lo for lo, hi in bounds)
        formed = 0
        for rows, cols, gathers in row_blocks:
            size = (rows.stop - rows.start) * (cols.stop - cols.start)
            assert size <= packed or rows.stop - rows.start == d
            # the columns start at the lowest one a gather reads, and run to the last
            assert cols.stop == width and min(int((local % (width - cols.start)).min()) for _, local, *_ in gathers) == 0
            formed += size
        # no gather reads a row block's first columns below its first digit: about half of them drop out
        if t > 1 and basis == "isotypic" and d >= 8:
            assert formed < 0.75 * d * d * width

    def test_plans_are_built_once_per_t_and_d_and_read_only_int32(self, monkeypatch):
        pqas._product_plans.cache_clear()
        builds = []
        monkeypatch.setattr(pqas, "_orbit_gathers", _recording(builds, pqas._orbit_gathers))
        part, rho = QubitPartition(1, 1, 1), qcore.pure_dm(qcore.basis_ket(2, 0))
        for seed in (1, 2):
            pqas.security_scan(part, rho, 2, 100, seed=seed)
        assert len(builds) == 1
        pqas.security_scan(part, rho, 1, 100, seed=1)
        assert len(builds) == 2
        for _, row_blocks in builds:
            for _, _, gathers in row_blocks:
                for _, at, k, keep, dest in gathers:
                    assert at.dtype == keep.dtype == dest.dtype == np.int32
                    assert not any(a.flags.writeable for a in (at, k, keep, dest))
        tril = pqas._tril_flat(36)
        assert tril.dtype == np.int32 and not tril.flags.writeable and pqas._tril_flat(36) is tril


class TestPackedScanStorage:
    """The scan holds each batch's blocks as packed lower triangles and keeps
    none of them: the raw estimate is the one the dense (s, s) storage of
    every batch, gathered from the whole Gram product, gives to 1e-14, and
    the scan's memory stays below what the stored batches alone took."""

    @pytest.mark.parametrize("part,t,mode", [(QubitPartition(1, 1, 2), 2, "haar_exact"), (QubitPartition(1, 0, 1), 3, "composed")])
    def test_raw_estimate_is_bitwise_the_dense_storage(self, part, t, mode, monkeypatch):
        rho = 0.7 * qcore.pure_dm(qcore.basis_ket(2, 0)) + 0.3 * reference.maximally_mixed(1)
        trials, seed = 200, 31
        stacks = []
        product_blocks = pqas._product_blocks
        monkeypatch.setattr(pqas, "_product_blocks", lambda phis, *rest: stacks.append(phis) or product_blocks(phis, *rest))
        rep = pqas.security_scan(part, rho, t, trials, seed=seed, mode=mode)
        # each batch is drawn twice, bitwise alike
        batches = pqas.SCAN_BATCHES
        assert len(stacks) == 2 * batches and all(np.array_equal(a, b) for a, b in zip(stacks[:batches], stacks[batches:]))
        d = 2**part.z
        bases = moments.isotypic_bases(t, d)
        diffs = [[] for _ in bases]
        for phis in stacks[:batches]:
            for block, diff in zip(reference.product_blocks_dense(reference.product_batch_gram(phis, t), bases, d, t), diffs):
                diff.append(block / (trials // batches) - np.eye(len(block)) / d**t)
        # the scan sums each half of the batches, then adds the halves
        means = [(sum(diff[: batches // 2]) + sum(diff[batches // 2 :])) / batches for diff in diffs]
        assert abs(rep.raw_estimate - 0.5 * sum(qcore.trace_norm(mean) for mean in means)) <= 1e-14

    def test_peak_is_below_the_dense_storage(self):
        """At z = 4, t = 2 a batch is 265 kB packed (s = 136 and 120).  The
        scan holds the total, two signs and the batch in hand (4 batches'
        worth), one row block of the batch's Gram product (at most 1), the
        gather plans (about 1) and, while it takes a half's sign, three
        (s, s) blocks (about 3): about 9 in all, and it reads 7.5 with cold
        caches.  Forming the whole Gram product (d^4 entries, 4 batches'
        worth) read 12.4; storing all 20 batches, as the scan once did,
        reads about 30."""
        rho = qcore.pure_dm(qcore.basis_ket(2, 0))
        for cache in (moments.isotypic_bases, pqas._product_plans, pqas._tril_flat):
            cache.cache_clear()
        tracemalloc.start()
        try:
            pqas.security_scan(QubitPartition(1, 1, 2), rho, 2, 200, seed=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 20 dense (s, s) complex blocks of the first stored-batch storage
        assert peak < pqas.SCAN_BATCHES * (136**2 + 120**2) * 16
        assert peak < 11 * (136 * 137 // 2 + 120 * 121 // 2) * 16


def _pack(dense):
    """The lower triangles of (..., s, s) matrices as packed rows (..., s(s + 1)/2)."""
    rows, cols = np.tril_indices(dense.shape[-1])
    return np.ascontiguousarray(dense[..., rows, cols])


def _random_blocks(sizes, draw=None):
    """Random Hermitian per-batch blocks of the given sizes, one
    (SCAN_BATCHES, s, s) array each, and their block-diagonal dense stack;
    ``draw`` labels a further independent draw of the same sizes."""
    rng = spawn_rng(40, "bracket-blocks", *sizes, *(() if draw is None else (draw,)))
    diffs = []
    for s in sizes:
        raw = rng.standard_normal((pqas.SCAN_BATCHES, s, s, 2)) @ np.array([1.0, 1j])
        diffs.append((raw + raw.conj().transpose(0, 2, 1)) / s)
    dense = np.zeros((pqas.SCAN_BATCHES, sum(sizes), sum(sizes)), dtype=complex)
    for start, diff in zip(np.cumsum((0,) + sizes), diffs):
        dense[:, start : start + len(diff[0]), start : start + len(diff[0])] = diff
    return diffs, dense


class TestStackedBootstrap:
    """The delete-one-batch jackknife on packed batch blocks, one leave-one-out
    block solved at a time: each value of a block is its batch total less
    one batch."""

    @pytest.mark.parametrize("sizes", [(1,), (6, 3), (36, 28), (72, 56)])
    # three independent draws per size set; the labels keep the test ids of the chunked solver's cases
    @pytest.mark.parametrize("draw", [None, 1, 40_000])
    def test_matches_the_per_replicate_loop(self, sizes, draw, monkeypatch):
        batches = pqas.SCAN_BATCHES
        diffs, dense = _random_blocks(sizes, draw)
        loop = [qcore.trace_norm(np.delete(dense, j, axis=0).mean(axis=0)) for j in range(batches)]
        expected = reference.jackknife_se_loop(dense, np.zeros(dense.shape[1:]))
        packed = [_pack(diff) for diff in diffs]
        totals = [p.sum(axis=0) for p in packed]
        solves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
        thetas = np.array([pqas._leave_one_out(totals, [p[b] for p in packed]) for b in range(batches)])
        # each solve is one (s, s) leave-one-out block, batch by batch and block by block
        assert solves == [(s, s) for _ in range(batches) for s in sizes]
        assert np.max(np.abs(2 * thetas - loop)) <= 1e-12
        assert abs(pqas._jackknife_se(thetas) - expected) <= 1e-12


class TestBracketOnBlocks:
    @pytest.mark.parametrize("sizes", [(1,), (6, 3), (36, 28), (72, 56)])
    def test_witness_matches_the_per_batch_loop(self, sizes):
        """The two passes over the batches, none kept, against the dense
        loops over all stored block-diagonal batch means, to 1e-12: the
        per-batch witness values, the raw estimate and the jackknife SE."""
        diffs, dense = _random_blocks(sizes)
        packed = [_pack(diff) for diff in diffs]
        reads = []
        raw, se, witness = pqas._two_pass(lambda b: reads.append(b) or [p[b] for p in packed], list(sizes))
        assert reads == 2 * list(range(pqas.SCAN_BATCHES))
        zero = np.zeros(dense.shape[1:])
        assert abs(raw - 0.5 * qcore.trace_norm(dense.mean(axis=0))) <= 1e-12
        assert abs(se - reference.jackknife_se_loop(dense, zero)) <= 1e-12
        assert np.max(np.abs(witness - reference.witness_loop(dense, zero))) <= 1e-12
