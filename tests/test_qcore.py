"""Core linear-algebra operations against closed-form values."""

import numpy as np
import pytest

from pqaslab import qcore
from pqaslab._streams import spawn_rng
from pqaslab.ensembles import sample_ghse, sample_haar
from pqaslab.qcore import QubitPartition

import reference


def bell_pair():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return qcore.pure_dm(v)


class TestConstruction:
    def test_maximally_mixed(self):
        assert np.allclose(reference.maximally_mixed(1), np.diag([0.5, 0.5]))
        assert reference.maximally_mixed(0).shape == (1, 1)
        assert reference.maximally_mixed(0)[0, 0] == 1.0
        assert reference.purity(reference.maximally_mixed(2)) == pytest.approx(0.25, abs=1e-14)

    def test_maximally_mixed_cap(self):
        with pytest.raises(ValueError):
            reference.maximally_mixed(qcore.QUBIT_CAP + 1)
        with pytest.raises(ValueError, match="nonnegative"):
            reference.maximally_mixed(-1)

    def test_cap_is_a_constant(self, monkeypatch):
        # the cap is a constant: no environment variable moves it
        monkeypatch.setenv("PQASLAB_CAP", "12")
        qcore.check_qubits(10)
        with pytest.raises(ValueError, match="^11 qubits exceeds the cap of 10$"):
            qcore.check_qubits(11)
        with pytest.raises(ValueError, match="exceeds the qubit cap"):
            qcore.tensor(np.eye(2**6), np.eye(2**5))

    def test_tensor(self):
        zero = qcore.pure_dm(qcore.basis_ket(2, 0))
        prod = qcore.tensor(zero, reference.maximally_mixed(1))
        assert np.allclose(prod, np.diag([0.5, 0.5, 0, 0]))
        rho = sample_ghse(2, 1, spawn_rng(0, "tensor"))
        assert np.allclose(qcore.tensor(rho, reference.maximally_mixed(0)), rho)
        other = sample_ghse(1, 1, spawn_rng(1, "tensor"))
        assert np.trace(qcore.tensor(rho, other)).real == pytest.approx(1.0, abs=1e-12)

    def test_tensor_checks_the_cap_before_the_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the product was formed")

        monkeypatch.setattr(np, "kron", refuse)
        with pytest.raises(ValueError, match="exceeds the qubit cap"):
            qcore.tensor(np.eye(2**6), np.eye(2**5))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            QubitPartition(0, 1, 1)
        with pytest.raises(ValueError):
            QubitPartition(1, -1, 0)
        with pytest.raises(ValueError):
            QubitPartition(8, 2, 2)  # exceeds default cap of 10
        assert QubitPartition(2, 3, 1).z == 6

    def test_density_checks(self):
        reference.check_density_matrix(reference.maximally_mixed(2))
        with pytest.raises(ValueError):
            reference.check_density_matrix(np.eye(2, dtype=complex))  # trace 2
        bad = np.array([[0.5, 0.3], [0.2, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            reference.check_density_matrix(bad)  # not Hermitian

    def test_unitary_check(self):
        qcore.check_unitary(sample_haar(2, spawn_rng(0, "unitary")))
        with pytest.raises(ValueError):
            qcore.check_unitary(np.ones((2, 2), dtype=complex))


class TestRegisterSurgery:
    def test_partial_trace_bell(self):
        reduced = qcore.partial_trace(bell_pair(), [2, 2], {1})
        assert np.allclose(reduced, reference.maximally_mixed(1), atol=1e-12)

    def test_partial_trace_product(self):
        rng = spawn_rng(2, "ptrace")
        a = sample_ghse(2, 1, rng)
        b = sample_ghse(1, 1, rng)
        joint = qcore.tensor(a, b)
        assert np.allclose(qcore.partial_trace(joint, [4, 2], {1}), a, atol=1e-12)
        assert np.allclose(qcore.partial_trace(joint, [4, 2], {0}), b, atol=1e-12)

    def test_partial_trace_identity(self):
        rho = sample_ghse(2, 2, spawn_rng(3, "ptrace"))
        assert np.allclose(qcore.partial_trace(rho, [4], set()), rho)

    def test_partial_trace_preserves_trace(self):
        rho = sample_ghse(3, 2, spawn_rng(4, "ptrace"))
        reduced = qcore.partial_trace(rho, [2, 2, 2], {0, 2})
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_bad_layout(self):
        with pytest.raises(ValueError):
            qcore.partial_trace(reference.maximally_mixed(2), [2, 4], {0})

    def test_permute_registers(self):
        rng = spawn_rng(5, "permute")
        a = sample_ghse(1, 1, rng)
        b = sample_ghse(2, 1, rng)
        joint = qcore.tensor(a, b)
        swapped = qcore.permute_registers(joint, [2, 4], [1, 0])
        assert np.allclose(swapped, qcore.tensor(b, a), atol=1e-12)
        back = qcore.permute_registers(swapped, [4, 2], [1, 0])
        assert np.allclose(back, joint, atol=1e-12)


class TestDynamics:
    def test_apply_unitary_identity(self):
        rho = sample_ghse(2, 1, spawn_rng(6, "apply"))
        assert np.allclose(qcore.apply_unitary(rho, np.eye(4)), rho)

    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    def test_unitary_channel_is_apply_unitary(self, stacked):
        # bitwise V rho V^dag, on one (d, d) matrix and on a (k, d, d) stack
        rng = spawn_rng(9, "apply")
        v = sample_haar(2, rng)
        stack = np.stack([sample_ghse(2, 1, rng) for _ in range(3)])
        rho = stack if stacked else stack[0]
        expected = v @ rho @ v.conj().T
        assert np.array_equal(qcore.apply_unitary(rho, v), expected)
        assert np.array_equal(qcore.UnitaryChannel(v).apply(rho), expected)
        with pytest.raises(ValueError, match="dimension mismatch"):
            qcore.apply_unitary(rho, np.eye(2))

    def test_unitary_preserves_spectrum(self):
        rng = spawn_rng(7, "apply")
        rho = sample_ghse(2, 2, rng)
        u = sample_haar(2, rng)
        out = qcore.apply_unitary(rho, u)
        assert reference.purity(out) == pytest.approx(reference.purity(rho), abs=1e-10)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-9
        )

    def test_full_depolarizing(self):
        rho = sample_ghse(2, 1, spawn_rng(8, "chan"))
        out = qcore.apply_channel(rho, qcore.DepolarizingChannel(4, 1.0))
        assert np.allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_channel_trace_preserving(self):
        rng = spawn_rng(9, "chan")
        rho = sample_ghse(2, 2, rng)
        channels = [
            qcore.IdentityChannel(4),
            qcore.DepolarizingChannel(4, 0.3),
            qcore.LocalDepolarizingChannel(2, 0.2),
            qcore.UnitaryChannel(sample_haar(2, rng)),
        ]
        for chan in channels:
            out = qcore.apply_channel(rho, chan)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            reference.check_density_matrix(out)

    def test_kraus_cptp_check(self):
        with pytest.raises(ValueError):
            reference.KrausChannel([np.eye(2) * 0.5])

    def test_project(self):
        rho = reference.maximally_mixed(1)
        prob, post = qcore.project(rho, np.eye(2))
        assert prob == pytest.approx(1.0)
        assert np.allclose(post, rho)
        proj0 = qcore.pure_dm(qcore.basis_ket(2, 0))
        prob, post = qcore.project(rho, proj0)
        assert prob == pytest.approx(0.5)
        assert np.allclose(post, proj0)
        prob, post = qcore.project(proj0, qcore.pure_dm(qcore.basis_ket(2, 1)))
        assert post is None and prob == 0.0

    def test_project_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            qcore.project(reference.maximally_mixed(1), 0.5 * np.eye(2))


class TestMetrics:
    def test_closed_forms(self):
        zero = qcore.pure_dm(qcore.basis_ket(2, 0))
        assert qcore.trace_distance(zero, reference.maximally_mixed(1)) == pytest.approx(0.5, abs=1e-12)
        for m in (1, 2, 3):
            assert qcore.vn_entropy_bits(reference.maximally_mixed(m)) == pytest.approx(m, abs=1e-10)
            assert reference.purity(reference.maximally_mixed(m)) == pytest.approx(2.0**-m, abs=1e-12)

    def test_trace_norm_reads_the_lower_triangle(self):
        rng = spawn_rng(13, "lower-triangle")
        a = sample_ghse(2, 1, rng) - reference.maximally_mixed(2)
        lower = np.tril(a)
        assert qcore.trace_norm(lower) == qcore.trace_norm(a)
        assert qcore.trace_norm(lower) == pytest.approx(float(np.linalg.norm(a, "nuc")), abs=1e-12)

    def test_fidelity_with_pure(self):
        psi = qcore.basis_ket(2, 0)
        assert reference.fidelity_with_pure(qcore.pure_dm(psi), psi) == pytest.approx(1.0)
        assert reference.fidelity_with_pure(reference.maximally_mixed(1), psi) == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [2, 16, 128])
    def test_overlap_is_the_trace_of_the_product(self, d):
        rng = spawn_rng(14, "overlap", d)
        a, b = (g / np.linalg.norm(g) for g in rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
        assert abs(qcore.overlap(a, b) - np.trace(a @ b).real) <= 1e-12

    def test_swap_test_values(self):
        psi = qcore.pure_dm(qcore.basis_ket(2, 0))
        phi = qcore.pure_dm(qcore.basis_ket(2, 1))
        assert qcore.swap_test_accept(psi, psi) == pytest.approx(1.0)
        assert qcore.swap_test_accept(psi, phi) == pytest.approx(0.5)
        mm = reference.maximally_mixed(1)
        assert qcore.swap_test_accept(mm, mm) == pytest.approx(0.75)

    def test_swap_test_purity_identity(self):
        rng = spawn_rng(10, "swap")
        for _ in range(20):
            rho = sample_ghse(2, 1, rng)
            assert qcore.swap_test_accept(rho, rho) == pytest.approx(
                0.5 * (1 + reference.purity(rho)), abs=1e-12
            )

    def test_trace_distance_triangle(self):
        rng = spawn_rng(11, "triangle")
        for _ in range(25):
            a, b, c = (sample_ghse(2, 2, rng) for _ in range(3))
            assert qcore.trace_distance(a, c) <= (
                qcore.trace_distance(a, b) + qcore.trace_distance(b, c) + 1e-9
            )

    def test_trace_distance_contracts_under_channels(self):
        rng = spawn_rng(12, "monotone")
        for p in (0.2, 0.5, 0.9):
            chan = qcore.DepolarizingChannel(4, p)
            local = qcore.LocalDepolarizingChannel(2, p)
            for _ in range(10):
                a = sample_ghse(2, 2, rng)
                b = sample_ghse(2, 1, rng)
                before = qcore.trace_distance(a, b)
                for c in (chan, local):
                    after = qcore.trace_distance(qcore.apply_channel(a, c), qcore.apply_channel(b, c))
                    assert after <= before + 1e-9


class TestStructuredChannels:
    """Structured channels agree with their explicit Kraus materializations."""

    def _pauli_ops(self):
        eye = np.eye(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        return [eye, x, y, z]

    def test_global_depolarizing_kraus(self):
        p = 0.37
        d = 4
        paulis = self._pauli_ops()
        ops = []
        for a in paulis:
            for b in paulis:
                pw = np.kron(a, b)
                weight = 1 - p + p / d**2 if np.allclose(pw, np.eye(d)) else p / d**2
                ops.append(np.sqrt(weight) * pw)
        explicit = reference.KrausChannel(ops)
        structured = qcore.DepolarizingChannel(d, p)
        rho = sample_ghse(2, 1, spawn_rng(13, "kraus"))
        assert np.allclose(explicit.apply(rho), structured.apply(rho), atol=1e-12)
        assert explicit.kraus_trace_square_sum() == pytest.approx(
            structured.kraus_trace_square_sum(), rel=1e-12
        )

    def test_local_depolarizing_kraus(self):
        p = 0.41
        paulis = self._pauli_ops()
        weights = [1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p]
        ops = []
        for i, a in enumerate(paulis):
            for j, b in enumerate(paulis):
                ops.append(np.sqrt(weights[i] * weights[j]) * np.kron(a, b))
        explicit = reference.KrausChannel(ops)
        structured = qcore.LocalDepolarizingChannel(2, p)
        rho = sample_ghse(2, 2, spawn_rng(14, "kraus"))
        assert np.allclose(explicit.apply(rho), structured.apply(rho), atol=1e-12)
        assert explicit.kraus_trace_square_sum() == pytest.approx(
            structured.kraus_trace_square_sum(), rel=1e-12
        )

    def test_mixture_channel(self):
        rng = spawn_rng(16, "mix")
        rho = sample_ghse(2, 1, rng)
        a = qcore.DepolarizingChannel(4, 0.2)
        b = qcore.UnitaryChannel(sample_haar(2, rng))
        mix = reference.MixtureChannel([0.3, 0.7], [a, b])
        expect = 0.3 * a.apply(rho) + 0.7 * b.apply(rho)
        assert np.allclose(mix.apply(rho), expect, atol=1e-12)


def _local_depolarizing_reference(rho, qubits, p):
    """The per-qubit loop of ``LocalDepolarizingChannel.apply`` as it read
    before stacks: one 2-D matrix only."""
    out = rho
    for q in range(qubits):
        left, right = 2**q, 2 ** (qubits - q - 1)
        t = out.reshape(left, 2, right, left, 2, right)
        traced = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
        nxt = (1.0 - p) * t
        nxt[:, 0, :, :, 0, :] += 0.5 * p * traced
        nxt[:, 1, :, :, 1, :] += 0.5 * p * traced
        out = nxt.reshape(rho.shape)
    return out


def _one_channel_per_subclass(z, rng):
    d = 2**z
    dep = qcore.DepolarizingChannel(d, 0.3)
    unitary = qcore.UnitaryChannel(sample_haar(z, rng))
    raw = rng.standard_normal((3 * d, d)) + 1j * rng.standard_normal((3 * d, d))
    iso, _ = np.linalg.qr(raw)
    return [
        qcore.IdentityChannel(d),
        dep,
        qcore.LocalDepolarizingChannel(z, 0.2),
        unitary,
        reference.KrausChannel([iso[i * d : (i + 1) * d] for i in range(3)]),
        reference.MixtureChannel([0.4, 0.6], [dep, unitary]),
    ]


class TestStackedApply:
    @pytest.mark.parametrize("z", [1, 2, 3])
    def test_stack_equals_each_matrix_alone(self, z):
        rng = spawn_rng(17, "stacked-apply", z)
        channels = _one_channel_per_subclass(z, rng)
        assert {type(c) for c in channels} == set(qcore.Channel.__subclasses__())
        stack = np.array([sample_ghse(z, 1, rng) for _ in range(5)])
        for chan in channels:
            out = chan.apply(stack)
            assert out.shape == stack.shape
            for rho, image in zip(stack, out):
                assert np.max(np.abs(image - chan.apply(rho))) <= 1e-12
            # a (2, 5, d, d) stack of stacks as well
            nested = chan.apply(np.array([stack, stack[::-1]]))
            assert np.max(np.abs(nested[1] - out[::-1])) <= 1e-12
            assert np.array_equal(qcore.apply_channel(stack, chan), out)
        with pytest.raises(ValueError):
            qcore.apply_channel(np.zeros((2**z, 2 ** (z + 1), 2 ** (z + 1)), dtype=complex), channels[0])

    def test_stack_leaves_its_input_alone(self):
        rng = spawn_rng(18, "stacked-apply")
        stack = np.array([sample_ghse(2, 1, rng) for _ in range(3)])
        before = stack.copy()
        for chan in _one_channel_per_subclass(2, rng):
            chan.apply(stack)
            assert np.array_equal(stack, before)

    @pytest.mark.parametrize("z", [1, 3, 5])
    def test_local_depolarizing_single_matrix_is_bitwise_unchanged(self, z):
        rho = sample_ghse(z, 1, spawn_rng(19, "local-dep", z))
        out = qcore.LocalDepolarizingChannel(z, 0.05).apply(rho)
        assert np.array_equal(out, _local_depolarizing_reference(rho, z, 0.05))

    def test_depolarizing_single_matrix_is_bitwise_unchanged(self):
        rho = sample_ghse(3, 1, spawn_rng(20, "global-dep"))
        d, p = 8, 0.3
        assert np.array_equal(qcore.DepolarizingChannel(d, p).apply(rho), (1.0 - p) * rho + p * np.trace(rho) * np.eye(d) / d)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1 / 3, 1.0])
    def test_depolarizing_keeps_the_full_expression_bytes(self, p):
        # tobytes() tells -0.0 from +0.0: a real-valued psi gives imaginary parts of both signs
        d = 4
        rng = spawn_rng(21, "global-dep-bytes")
        psi = rng.standard_normal(d).astype(complex)
        corner = np.zeros((d, d), dtype=complex)
        corner[0, 0] = 1.0
        corner.real[0, 1] = corner.imag[1, 0] = -0.0
        cases = [qcore.pure_dm(psi), -np.conj(qcore.pure_dm(psi)), sample_ghse(2, 1, rng), corner]
        chan = qcore.DepolarizingChannel(d, p)
        for rho in cases:
            full = (1.0 - p) * rho + p * np.trace(rho) * np.eye(d) / d
            assert chan.apply(rho).tobytes() == full.tobytes()
        stacked = chan.apply(np.array(cases))
        for rho, image in zip(cases, stacked):
            assert image.tobytes() == chan.apply(rho).tobytes()


class TestGramForms:
    """Each channel's ``compress`` (a Gram form where the channel has one)
    equals Y^dag Gamma(W W^dag) Y from a Kraus list or a written-out formula
    (``reference.compress_reference``), which reads neither ``apply`` nor
    ``compress``."""

    @pytest.mark.parametrize("z", [1, 2, 4])
    def test_matches_an_independent_reference(self, z):
        rng = spawn_rng(22, "gram-forms", z)
        d = 2**z
        channels = _one_channel_per_subclass(z, rng) + [qcore.DepolarizingChannel(d, p) for p in (0.0, 1 / 3, 1.0)]
        w = rng.standard_normal((2, 3, d, 2, 2)) @ np.array([1.0, 1j])
        y = rng.standard_normal((2, 3, d, 5, 2)) @ np.array([1.0, 1j])
        for chan in channels:
            got = chan.compress(w, y)
            assert got.shape == (2, 3, 5, 5)
            assert np.max(np.abs(got - reference.compress_reference(chan, w, y))) <= 1e-12
            # one (d, r) W and (d, c) Y, no stack axis
            assert np.max(np.abs(chan.compress(w[0, 0], y[0, 0]) - got[0, 0])) <= 1e-12
