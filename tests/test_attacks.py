"""Adversary games: the SWAP-chain algebra against direct joint-state
simulation and the former S_t double loop, the Bell-outcome laws against the
dense Bell circuit, Bell-parity estimators against exact reduced-state
values, and the attack/abstention separations."""

import itertools
import math

import numpy as np
import pytest

from pqaslab import attacks, ensembles, moments, pqas, qcore
from pqaslab._streams import spawn_rng
from pqaslab.ensembles import ScramblerSpec, SecretKey, build_scrambler, random_pure_state, sample_ghse, sample_haar
from pqaslab.qcore import QubitPartition

import reference

HAAR = ScramblerSpec(mode="haar_exact")


def chain_accept_direct(states, pairs):
    """Oracle: build the joint state and apply pair symmetrizers in order."""
    joint = states[0]
    for s in states[1:]:
        joint = np.kron(joint, s)
    t = len(states)
    d = states[0].shape[0]
    for (i, j) in pairs:
        perm = list(range(t))
        perm[i], perm[j] = j, i
        swap = reference.permutation_operator(tuple(perm), d)
        joint = 0.5 * (joint + swap @ joint)
    return float(np.vdot(joint, joint).real)


def chain_accept_double_loop(states, pairs):
    """Reference: the former S_t expansion, summed over every pair (a, b) of
    terms of the chain operator A = sum_p c_p P(p)."""
    t = len(states)
    gram = np.empty((t, t), dtype=complex)
    for i in range(t):
        for j in range(t):
            gram[i, j] = np.vdot(states[i], states[j])
    poly = {moments.identity_perm(t): 1.0}
    for (i, j) in pairs:
        swap = list(range(t))
        swap[i], swap[j] = j, i
        swap = tuple(swap)
        new = {}
        for perm, c in poly.items():
            half = 0.5 * c
            new[perm] = new.get(perm, 0.0) + half
            left = moments.compose(swap, perm)
            new[left] = new.get(left, 0.0) + half
        poly = new

    def bracket(perm):
        pinv = moments.invert(perm)
        val = 1.0 + 0.0j
        for k in range(t):
            val *= gram[k, pinv[k]]
        return val

    total = 0.0
    items = list(poly.items())
    for pa, ca in items:
        for pb, cb in items:
            total += ca * cb * bracket(moments.compose(moments.invert(pa), pb)).real
    return float(min(max(total, 0.0), 1.0))


def encrypt_pure_reference(psi, partition, u, pad_index):
    """One pure-state ciphertext realization for a sampled mixed-register
    value, as U (psi (x) |0>_tag (x) |pad>): the reference for reading column
    pad of W = Y psi off the tag-|0> columns Y of U."""
    vec = psi
    if partition.l:
        vec = np.kron(vec, qcore.basis_ket(2**partition.l, 0))
    if partition.m:
        vec = np.kron(vec, qcore.basis_ket(2**partition.m, pad_index))
    return u @ vec


def all_pairs(t):
    return [(i, j) for i in range(t) for j in range(i + 1, t)]


def disjoint_pairs(t):
    return [(i, i + 1) for i in range(0, t - 1, 2)]


class TestSwapChain:
    def test_identical_states_always_accept(self):
        psi = qcore.basis_ket(4, 0)
        pairs = [(0, 1), (0, 2), (1, 2)]
        assert attacks._swap_chain_accept_prob([psi] * 3, pairs) == pytest.approx(1.0, abs=1e-12)

    def test_two_orthogonal(self):
        a, b = qcore.basis_ket(2, 0), qcore.basis_ket(2, 1)
        assert attacks._swap_chain_accept_prob([a, b], [(0, 1)]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t", [3, 4])
    def test_matches_direct_simulation(self, t):
        rng = spawn_rng(0, "chain", t)
        states = [random_pure_state(2, rng) for _ in range(t)]
        pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        got = attacks._swap_chain_accept_prob(states, pairs)
        want = chain_accept_direct(states, pairs)
        assert got == pytest.approx(want, abs=1e-10)

    def test_matches_direct_simulation_partial_order(self):
        rng = spawn_rng(1, "chain")
        states = [random_pure_state(1, rng) for _ in range(4)]
        pairs = [(0, 1), (2, 3), (1, 2)]
        assert attacks._swap_chain_accept_prob(states, pairs) == pytest.approx(
            chain_accept_direct(states, pairs), abs=1e-10
        )

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("layout", [all_pairs, disjoint_pairs], ids=["all", "disjoint"])
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_matches_double_loop(self, t, layout, m):
        # pure (m = 0) and padded ciphertexts of one key, as in the LR game
        rng = spawn_rng(23, "chain", t, layout.__name__, m)
        part = QubitPartition(1, 0, m)
        u = sample_haar(part.z, rng)
        states = [
            encrypt_pure_reference(random_pure_state(1, rng), part, u, int(rng.integers(2**m)) if m else 0)
            for _ in range(t)
        ]
        pairs = layout(t)
        assert abs(attacks._swap_chain_accept_prob(states, pairs) - chain_accept_double_loop(states, pairs)) <= 1e-12

    @pytest.mark.parametrize("t", [7, 8])
    def test_disjoint_pairs_beyond_enumerable_t(self, t):
        # the LR game's layout for t > 6; S_t is never enumerated
        rng = spawn_rng(24, "chain", t)
        states = [random_pure_state(1, rng) for _ in range(t)]
        pairs = disjoint_pairs(t)
        got = attacks._swap_chain_accept_prob(states, pairs)
        assert abs(got - chain_accept_direct(states, pairs)) <= 1e-12


class TestLRGame:
    @pytest.mark.parametrize("n,l,m", [(1, 0, 0), (2, 0, 2), (1, 2, 0), (2, 1, 3)])
    def test_pad_column_matches_reference(self, n, l, m):
        # the game's ciphertext for pad k is column k of W = Y psi
        part = QubitPartition(n, l, m)
        rng = spawn_rng(26, "lr-column", n, l, m)
        u = sample_haar(part.z, rng)
        y = pqas.tag_zero_columns(u, part)
        for k in range(2**m):
            psi = random_pure_state(n, rng)
            assert np.max(np.abs(y[:, :, k] @ psi - encrypt_pure_reference(psi, part, u, k))) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            attacks.lr_cpa_game([qcore.basis_ket(2, 0)], [], 0)
        with pytest.raises(ValueError):
            attacks.lr_cpa_game([qcore.basis_ket(4, 0)], [qcore.basis_ket(2, 0)], 0)
        with pytest.raises(ValueError):
            attacks.lr_cpa_game([qcore.pure_dm(qcore.basis_ket(2, 0))], [qcore.pure_dm(qcore.basis_ket(2, 1))], 0)
        # a plaintext's dimension is a whole number of qubits, checked before the qubit cap
        for dim in (3, 1500):
            with pytest.raises(ValueError, match=f"dimension {dim} is not a power of two"):
                attacks.lr_cpa_game([qcore.basis_ket(dim, 0)], [qcore.basis_ket(dim, 1)], 0)
        with pytest.raises(ValueError):
            attacks.standard_cpa_lists(5, 2)

    @pytest.mark.parametrize("mode", ["haar_exact", "composed", "pru_only"])
    def test_padded_states_have_the_ciphertext_gram(self, mode):
        # the game reads e_k (x) v in place of the keyed column Y_k v; both
        # have the Gram matrix delta(k_i, k_j) <v_i|v_j>, whatever the key
        part = QubitPartition(2, 1, 2)
        rng = spawn_rng(27, "lr-gram", mode)
        y = ensembles.sample_scramblers(part, mode, [rng])[0]
        vecs = [random_pure_state(part.n, rng) for _ in range(6)]
        pads = [0, 0, 1, 3, 3, 2]
        keyed = np.array([y[:, :, k] @ v for k, v in zip(pads, vecs)])
        embedded = attacks._padded_states(vecs, pads, 2**part.m)
        assert np.max(np.abs(keyed.conj() @ keyed.T - embedded.conj() @ embedded.T)) <= 1e-12

    def test_identical_lists_no_advantage(self):
        left = [qcore.basis_ket(2, 0)]
        rep = attacks.lr_cpa_game(left, list(left), 2, 200, seed=2)
        assert rep.advantage == 0.0

    def test_deterministic_mode_breaks(self):
        left, right = attacks.standard_cpa_lists(4, 2)
        rep = attacks.lr_cpa_game(left, right, 0, 300, seed=3)
        assert rep.success_rate >= 0.9
        assert rep.advantage >= 0.8

    def test_padded_mode_resists(self):
        left, right = attacks.standard_cpa_lists(4, 2)
        rep = attacks.lr_cpa_game(left, right, 4, 300, seed=4)
        assert rep.advantage <= 0.1

    def test_advantage_bounded_by_closeness(self):
        # any distinguisher's advantage is at most the sum of the two-copy
        # distances to the shared maximally mixed target
        part = QubitPartition(1, 0, 2)
        left = [qcore.basis_ket(2, 0)] * 2
        right = [qcore.basis_ket(2, 0), qcore.basis_ket(2, 1)]
        rep = attacks.lr_cpa_game(left, right, part.m, 400, seed=5)
        bound = 0.5 * moments.closeness_exact(part, qcore.pure_dm(qcore.basis_ket(2, 0)), 2) + 0.5 * max(
            moments.closeness_exact(part, qcore.pure_dm(qcore.basis_ket(2, i)), 2) for i in range(2)
        )
        assert rep.advantage <= bound + 3 * rep.standard_error


def _uniforms_drawn(play, seed):
    """``play``'s result on a fresh stream and how many uniforms it drew from it."""
    rng, twin = spawn_rng(seed, "uniforms"), spawn_rng(seed, "uniforms")
    result = play(rng)
    for drawn in range(64):
        if twin.bit_generator.state == rng.bit_generator.state:
            return result, drawn
        twin.random()
    raise AssertionError("not a whole number of uniforms")


class TestPurityProbe:
    def test_validation(self):
        part = QubitPartition(1, 0, 0)
        ct = pqas.encrypt(qcore.basis_ket(2, 0), SecretKey.generate(spawn_rng(6, "pp")), part, HAAR)
        with pytest.raises(ValueError):
            attacks.purity_probe([ct], spawn_rng(0, "x"))

    def test_one_uniform_per_pair(self):
        part = QubitPartition(1, 0, 1)
        cts = [pqas.Ciphertext(reference.maximally_mixed(2), part)] * 12
        for seed in range(5):
            assert _uniforms_drawn(lambda rng: attacks.purity_probe(cts, rng), seed)[1] == 6

    def test_pure_ciphertexts(self):
        rng = spawn_rng(7, "pp")
        part = QubitPartition(2, 0, 0)
        ct = pqas.encrypt(qcore.basis_ket(4, 0), SecretKey.generate(rng), part, HAAR)
        est = attacks.purity_probe([ct] * 4000, rng)
        assert est == pytest.approx(1.0, abs=0.05)

    def test_maximally_mixed(self):
        rng = spawn_rng(8, "pp")
        part = QubitPartition(3, 0, 0)
        ct = pqas.Ciphertext(reference.maximally_mixed(3), part)
        shots = 4000
        est = attacks.purity_probe([ct] * (2 * shots), rng)
        sigma = 2 * np.sqrt(0.25 / shots)
        assert abs(est - 2.0**-3) <= 3.5 * sigma

    def test_padded_scheme_purity(self):
        rng = spawn_rng(9, "pp")
        part = QubitPartition(1, 1, 2)
        ct = pqas.encrypt(qcore.basis_ket(2, 0), SecretKey.generate(rng), part, HAAR)
        exact = reference.purity(ct.state)
        assert exact == pytest.approx(2.0**-part.m, abs=1e-10)
        shots = 5000
        est = attacks.purity_probe([ct] * (2 * shots), rng)
        accept = 0.5 * (1 + exact)
        sigma = 2 * np.sqrt(accept * (1 - accept) / shots)
        assert abs(est - exact) <= 3 * sigma


def _apply_cnot_vec(v, control, target, qubits):
    """CNOT on a state vector (or on the rows of a matrix); qubit 0 is msb."""
    pc = qubits - 1 - control
    pt = qubits - 1 - target
    idx = np.arange(v.shape[0])
    flipped = idx ^ (((idx >> pc) & 1) << pt)
    return v[flipped]


def _apply_h_vec(v, qubit):
    left = 2**qubit
    right = v.shape[0] // (2 * left)
    shape = (left, 2, right) + v.shape[1:]
    t = v.reshape(shape)
    out = np.empty_like(t)
    inv = 1.0 / np.sqrt(2.0)
    out[:, 0] = inv * (t[:, 0] + t[:, 1])
    out[:, 1] = inv * (t[:, 0] - t[:, 1])
    return out.reshape(v.shape)


def bell_circuit(v, half):
    """Dense reference: CNOT(j -> j+half) for each pair, then H on the first half."""
    qubits = 2 * half
    for j in range(half):
        v = _apply_cnot_vec(v, j, j + half, qubits)
    for j in range(half):
        v = _apply_h_vec(v, j)
    return v


def bell_probs_dm(rho, half):
    """Dense reference Bell outcome law of a density matrix on 2 * half qubits."""
    # C rho C^dag computed as C (C rho)^dag, using hermiticity of rho
    a = bell_circuit(rho, half)
    b = bell_circuit(a.conj().T, half)
    probs = np.clip(np.real(np.diag(b)), 0.0, None)
    return probs / probs.sum()


class TestBellParity:
    def test_same_pure_state_never_odd(self):
        rng = spawn_rng(10, "bell")
        psi = random_pure_state(2, rng)
        state = qcore.tensor(qcore.pure_dm(psi), qcore.pure_dm(psi))
        z = attacks.bell_parity_purity(state, 2, shots=800, rng=rng)
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_independent_mixed_halves(self):
        rng = spawn_rng(11, "bell")
        state = qcore.tensor(reference.maximally_mixed(1), reference.maximally_mixed(1))
        shots = 8000
        z = attacks.bell_parity_purity(state, 1, shots=shots, rng=rng)
        assert abs(z - 0.5) <= 3.5 / np.sqrt(shots)

    def test_exact_expectation_equals_swap_overlap(self):
        # compute E[Z_b] exactly from the outcome distribution and compare to
        # tr(SWAP_prefix rho): certifies the circuit and parity conventions
        rng = spawn_rng(12, "bell")
        for _ in range(5):
            rho = sample_ghse(2, 2, rng)  # possibly entangled across halves
            half = 1
            probs = bell_probs_dm(rho, half)
            outcomes = np.arange(len(probs))
            nu = attacks._and_bits(outcomes, half)
            par = attacks._prefix_parity(nu, half, 1)
            z_exact = float(np.sum(probs * (1 - 2 * par)))
            swap = reference.permutation_operator((1, 0), 2)
            assert z_exact == pytest.approx(np.trace(swap @ rho).real, abs=1e-10)

    def test_unbiased_for_product_halves(self):
        rng = spawn_rng(13, "bell")
        for _ in range(3):
            a = sample_ghse(1, 1, rng)
            b = sample_ghse(1, 1, rng)
            state = qcore.tensor(a, b)
            probs = bell_probs_dm(state, 1)
            outcomes = np.arange(len(probs))
            par = attacks._prefix_parity(attacks._and_bits(outcomes, 1), 1, 1)
            z_exact = float(np.sum(probs * (1 - 2 * par)))
            assert z_exact == pytest.approx(qcore.overlap(a, b), abs=1e-10)

    def test_state_law_matches_dense_reference(self):
        # entangled general states on 2h qubits, h = 1..5
        rng = spawn_rng(25, "bell")
        for half in range(1, 6):
            rho = sample_ghse(2 * half, min(2, 10 - 2 * half), rng)
            assert np.max(np.abs(attacks._bell_state_law(rho, half) - bell_probs_dm(rho, half))) <= 1e-12

    def test_prefix_validation(self):
        state = qcore.tensor(reference.maximally_mixed(1), reference.maximally_mixed(1))
        with pytest.raises(ValueError):
            attacks.bell_parity_purity(state, 2, shots=10, rng=spawn_rng(0, "x"))
        # a dimension that is not a power of two is no whole number of qubits: named, before any draw
        rng = spawn_rng(0, "x")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="dimension 12 "):
            attacks.bell_parity_purity(np.eye(12) / 12, 1, 10, rng)
        assert rng.bit_generator.state == before


def pair_by_pair_reference(rng, n=2, s_max=2, shots=600):
    """The former deterministic-encryption sampler (m = 0) on criterion 7's
    layout: one pure Bell table per copy pair, sampled pair by pair."""
    true_s = int(rng.integers(1, s_max + 1))
    part = QubitPartition(n * true_s, 0, 0)
    psi = random_pure_state(part.n, rng)
    u = sample_haar(part.z, rng)
    copies = [encrypt_pure_reference(psi, part, u, 0) for _ in range(2 * (math.factorial(s_max) // true_s))]
    k = len(copies) // 2
    width = part.z
    nus = np.zeros(shots, dtype=np.int64)
    for c in range(k):
        w = bell_circuit(np.kron(copies[c], copies[k + c]), width)
        probs = np.abs(w) ** 2
        outs = rng.choice(len(probs), size=shots, p=probs / probs.sum())
        nus |= attacks._and_bits(outs, width) << ((k - 1 - c) * width)
    odd = [int(np.sum(attacks._prefix_parity(nus, k * width, n * s))) for s in range(1, s_max + 1)]
    return [1.0 - 2.0 * o / shots for o in odd]


class TestQubitCount:
    def test_recovers_s_on_pure_encryption(self):
        for trial in range(30):
            rng = spawn_rng(14, "qc", trial)
            true_s = int(rng.integers(1, 3))
            state, copies = attacks.qubit_count_interception(2, true_s, 2, rng)
            rep = attacks.qubit_count_attack(state, copies, 2, 2, shots=500, rng=rng)
            assert rep.decision == true_s

    def test_smallest_vs_largest_rule(self):
        # for s = 1 every prefix holds whole copies, so every prefix qualifies:
        # the smallest-prefix rule decides 1 where a largest-prefix rule would say 2
        rng = spawn_rng(15, "qc")
        state, copies = attacks.qubit_count_interception(2, 1, 2, rng)
        rep = attacks.qubit_count_attack(state, copies, 2, 2, shots=500, rng=rng)
        assert rep.decision == 1
        assert all(z >= 0.9 for z in rep.z_values)

    def test_abstains_on_padded_scheme(self):
        for trial in range(12):
            rng = spawn_rng(16, "qc", trial)
            true_s = int(rng.integers(1, 3))
            state, copies = attacks.qubit_count_interception(2, true_s, 2, rng, m=2)
            rep = attacks.qubit_count_attack(state, copies, 2, 2, shots=400, rng=rng)
            assert rep.decision is None

    def test_desk_scale_guard(self):
        rng = spawn_rng(0, "x")
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            attacks.qubit_count_interception(3, 1, 2, rng)
        assert rng.bit_generator.state == before  # raised before any draw
        with pytest.raises(ValueError):
            attacks.qubit_count_attack(reference.maximally_mixed(1), 2, 1, 4, rng=rng)
        with pytest.raises(ValueError, match="dimension 3 "):
            attacks.qubit_count_attack(np.eye(3) / 3, 4, 1, 2, rng=rng)
        assert rng.bit_generator.state == before

    def test_law_matches_dense_reference(self):
        rng = spawn_rng(20, "qc-law")
        layouts = [c for c in itertools.product((1, 2), (1, 2), (0, 1), (0, 1, 2)) if c[0] * c[1] + c[2] + c[3] <= 5]
        assert len(layouts) == 21
        for n, true_s, l, m in layouts:
            rho, _ = attacks.qubit_count_interception(n, true_s, 2, rng, l=l, m=m)
            dense = bell_probs_dm(np.kron(rho, rho), n * true_s + l + m)
            assert np.max(np.abs(attacks._bell_pair_law(rho) - dense)) <= 1e-12

    def test_pure_law_reproduces_the_pair_by_pair_sampler(self):
        # criterion 7's m = 0 seeds: the random streams are consumed exactly
        # as the former pair-by-pair sampler consumed them
        for trial in range(200):
            old = pair_by_pair_reference(spawn_rng(107, "qc", 0, trial))
            rng = spawn_rng(107, "qc", 0, trial)
            state, copies = attacks.qubit_count_interception(2, int(rng.integers(1, 3)), 2, rng)
            rep = attacks.qubit_count_attack(state, copies, 2, 2, shots=600, rng=rng)
            assert rep.z_values == old

    def test_padded_z_matches_exact_law(self):
        rng = spawn_rng(21, "qc")
        n, shots = 2, 20000
        state, copies = attacks.qubit_count_interception(n, 1, 2, rng, m=2)
        law = attacks._bell_pair_law(state)
        width = int(np.log2(state.shape[0]))
        parity = attacks._prefix_parity(attacks._and_bits(np.arange(len(law)), width), width, n)
        p_odd = float(np.sum(law * parity))
        rep = attacks.qubit_count_attack(state, copies, n, 2, shots=shots, rng=rng)
        assert abs(rep.z_values[0] - (1.0 - 2.0 * p_odd)) <= 3 * 2 * np.sqrt(p_odd * (1 - p_odd) / shots)

    @pytest.mark.parametrize("mode", ["haar_exact", "composed"])
    def test_interception_key_follows_mode(self, mode):
        rng = spawn_rng(22, "qc", mode)
        twin = spawn_rng(22, "qc", mode)
        rho, copies = attacks.qubit_count_interception(1, 1, 3, rng, l=1, m=1, mode=mode)
        part = QubitPartition(1, 1, 1)
        psi = random_pure_state(1, twin)
        if mode == "haar_exact":
            # the key is a Haar isometry onto the tag-|0> columns, one (2, 8, 4) block of normals
            y = ensembles._haar(2**part.z, 4, [twin])[0].reshape(2**part.z, 2, 2)
            u = reference.embed_tag_columns(y, part)
        else:
            u = build_scrambler(SecretKey.generate(twin), part.z, ScramblerSpec(mode=mode))
        expected = qcore.apply_unitary(reference.pad_state(qcore.pure_dm(psi), part), u)
        assert copies == 12
        assert np.max(np.abs(rho - expected)) <= 1e-12


class TestMultiState:
    def test_single_state_detected(self):
        rng = spawn_rng(17, "ms")
        part = QubitPartition(1, 0, 0)
        key = SecretKey.generate(rng)
        cts = [pqas.encrypt(qcore.basis_ket(2, 0), key, part, HAAR) for _ in range(12)]
        assert attacks.multi_state_attack(cts, rng) == 1

    def test_orthogonal_states_detected(self):
        rng = spawn_rng(18, "ms")
        part = QubitPartition(1, 0, 0)
        misses = 0
        for trial in range(60):
            key = SecretKey.generate(rng)
            cts = []
            for i in range(12):
                cts.append(pqas.encrypt(qcore.basis_ket(2, (i // 1) % 2), key, part, HAAR))
            # pairs are (0,1), (2,3), ...: each holds orthogonal plaintexts
            if attacks.multi_state_attack(cts, rng) != 2:
                misses += 1
        # per-trial failure probability is exactly 2^-6
        assert misses / 60 <= 3 * 2.0**-6 + 0.05

    def test_one_uniform_per_pair_tested(self):
        # the first pair is orthogonal (accept 1/2), every later pair identical
        # (accept 1): a rejection is at the first pair and costs one draw
        zero, one = (pqas.Ciphertext(qcore.pure_dm(qcore.basis_ket(2, i)), QubitPartition(1, 0, 0)) for i in (0, 1))
        cts = [zero, one] + [zero] * 10
        outcomes = [_uniforms_drawn(lambda rng: attacks.multi_state_attack(cts, rng), seed) for seed in range(20)]
        assert {guess for guess, _ in outcomes} == {1, 2}
        assert all(drawn == (1 if guess == 2 else 6) for guess, drawn in outcomes)

    def test_padded_scheme_near_coin_flip(self):
        rng = spawn_rng(19, "ms")
        part = QubitPartition(1, 0, 4)
        correct = 0
        trials = 300
        for trial in range(trials):
            b = int(rng.integers(1, 3))
            key = SecretKey.generate(rng)
            cts = [
                pqas.encrypt(qcore.basis_ket(2, 0 if b == 1 else i % 2), key, part, HAAR)
                for i in range(12)
            ]
            correct += int(attacks.multi_state_attack(cts, rng) == b)
        advantage = abs(2 * correct / trials - 1)
        assert advantage <= 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            attacks.multi_state_attack([], spawn_rng(0, "x"))


class TestDecoy:
    def test_t1_null(self):
        assert attacks.decoy_indistinguishability(QubitPartition(1, 1, 1), 1) <= 1e-12

    def test_matches_oracle(self):
        part = QubitPartition(1, 1, 3)
        got = attacks.decoy_indistinguishability(part, 2)
        want = 0.5 * moments.closeness_exact(part, qcore.pure_dm(qcore.basis_ket(2, 0)), 2)
        assert got == pytest.approx(want, abs=1e-12)
