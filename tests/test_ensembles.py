"""Keyed samplers: determinism, distribution moments, group structure.

The dense brickwork product (``pru_dense``, one 2^z x 2^z Kronecker layer per
step, each gate drawn on its own) is kept here as the reference for
``sample_pru_surrogate``'s stacked draws and merged layer pairs, and
``design4_dense`` (one keyed Haar draw) with it as the reference for the
composed scrambler.
"""

import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pqaslab import ensembles, moments, pqas, qcore
from pqaslab._clifford import _signed_paulis, _symplectic_rows, clifford_columns, sample_tableau, symplectic_group_order
from pqaslab._streams import keyed_rng, spawn_rng
from pqaslab.ensembles import (
    ScramblerSpec,
    SecretKey,
    _haar,
    build_scrambler,
    build_scramblers,
    leading_columns,
    random_pure_state,
    sample_clifford,
    sample_ghse,
    sample_haar,
    sample_haar_batch,
    sample_pru_surrogate,
    sample_scramblers,
    tag_zero_columns,
    tag_zero_index,
)
from pqaslab.qcore import QubitPartition

import reference


def brickwork_blocks(z, layer):
    """(width, first qubit) of each gate of a layer, qubit 0 first."""
    blocks = []
    q = 0
    if layer % 2 == 1 and z > 1:
        blocks.append((1, q))
        q = 1
    while q + 1 < z:
        blocks.append((2, q))
        q += 2
    if q < z:
        blocks.append((1, q))
    return blocks


def pru_dense(z, key_seed, depth):
    """The brickwork circuit as a product of dense layers.

    Each gate is drawn alone from the one stream (key_seed, "pru", z): every
    two-qubit gate first, then every one-qubit gate, each in (layer,
    position) order.
    """
    rng = keyed_rng(key_seed, "pru", z)
    layers = [brickwork_blocks(z, layer) for layer in range(depth)]
    gates = {}
    for width in (2, 1):
        for layer, blocks in enumerate(layers):
            for w, pos in blocks:
                if w == width:
                    gates[layer, pos] = _haar(2**w, 2**w, [rng])[0]
    u = np.eye(2**z, dtype=complex)
    for layer, blocks in enumerate(layers):
        dense = np.ones((1, 1), dtype=complex)
        for _, pos in blocks:
            dense = np.kron(dense, gates[layer, pos])
        u = dense @ u
    return u


def design4_dense(z, key_seed):
    """The keyed Haar factor of the composed scrambler, drawn alone from the
    stream (key_seed, "design4", z)."""
    return _haar(2**z, 2**z, [keyed_rng(key_seed, "design4", z)])[0]


class TestSecretKey:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            SecretKey(b"short", b"x" * 16, b"y" * 16)

    def test_equality_bitwise(self):
        a = SecretKey(b"a" * 16, b"b" * 16, b"c" * 16)
        b = SecretKey(b"a" * 16, b"b" * 16, b"c" * 16)
        c = SecretKey(b"a" * 16, b"b" * 16, b"d" * 16)
        assert a == b and a != c

    def test_generate_deterministic(self):
        k1 = SecretKey.generate(spawn_rng(1, "key"))
        k2 = SecretKey.generate(spawn_rng(1, "key"))
        assert k1 == k2

    def test_from_int_distinct_parts(self):
        key = reference.key_from_int(7)
        other = reference.key_from_int(8)
        assert key != other
        assert len({key.k1, key.k2, key.k3}) == 3  # parts are not degenerate


class TestHaar:
    def test_unitarity(self):
        u = sample_haar(3, spawn_rng(2, "haar"))
        qcore.check_unitary(u)

    def test_first_moment(self):
        rng = spawn_rng(3, "haar1")
        d = 4
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obs = 0.5 * (raw + raw.conj().T)
        samples = 4000
        acc = np.zeros_like(obs)
        sq = np.zeros(obs.shape)
        e00 = 0.0
        for _ in range(samples):
            u = sample_haar(2, rng)
            val = u @ obs @ u.conj().T
            acc += val
            sq += np.abs(val) ** 2
            e00 += abs(u[0, 0]) ** 2
        mean = acc / samples
        sigma = np.sqrt(np.sum(sq / samples - np.abs(mean) ** 2) / samples)
        assert np.linalg.norm(mean - np.trace(obs) * np.eye(d) / d) <= 3 * sigma
        e00 /= samples
        # Var|U00|^2 = 1/d^2 (d+1)/(d... conservative window: 3/sqrt(N d^2)
        assert abs(e00 - 1 / d) <= 3.5 / (d * np.sqrt(samples))

    def test_cap(self):
        with pytest.raises(ValueError):
            sample_haar(qcore.QUBIT_CAP + 1, spawn_rng(0, "x"))

    @pytest.mark.parametrize("z", [1, 2, 3, 4, 5])
    def test_stacked_draws_are_bitwise_per_trial(self, z):
        stack = sample_haar_batch(z, [spawn_rng(4, "stack", i) for i in range(7)])
        assert stack.shape == (7, 2**z, 2**z)
        for i, u in enumerate(stack):
            assert np.array_equal(u, sample_haar(z, spawn_rng(4, "stack", i)))
            # the unbatched Ginibre-QR recipe, one matrix at a time
            rng = spawn_rng(4, "stack", i)
            g = (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)) / np.sqrt(2.0)
            q, r = np.linalg.qr(g)
            assert np.array_equal(u, q * (np.diag(r) / np.abs(np.diag(r))))


class TestHaarBuffer:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (8, 4), (16, 16), (32, 2)])
    def test_buffer_fill_is_the_per_generator_draw(self, rows, cols):
        """``_haar`` fills one buffer per stack; each slot holds exactly the
        normals its generator draws alone, so every draw is bitwise the
        per-generator stack's."""
        got = _haar(rows, cols, [spawn_rng(27, "buffer", rows, cols, i) for i in range(9)])
        normals = np.stack([spawn_rng(27, "buffer", rows, cols, i).standard_normal((2, rows, cols)) for i in range(9)])
        assert got.tobytes() == ensembles._unitarize(ensembles._ginibre(normals)).tobytes()

    @pytest.mark.parametrize("rows,cols", [(4, 4), (16, 2)])
    def test_runs_of_one_generator_are_the_per_slot_fills(self, rows, cols):
        """A run of consecutive slots sharing a generator (a scan batch's
        ``[rng] * per_batch``) is one fill of the run's slots: the normals
        and the generators' end states are bitwise those of one fill per
        slot, and distinct generators keep one fill each."""

        def generators():
            a, b = (spawn_rng(28, "runs", rows, cols, label) for label in "ab")
            return a, b, [a] * 5 + [b] + [a] * 2 + [b] * 3

        a, b, rngs = generators()
        got = _haar(rows, cols, rngs)
        a_ref, b_ref, refs = generators()
        normals = np.empty((len(refs), 2, rows, cols))
        for rng, block in zip(refs, normals):
            rng.standard_normal(out=block)
        assert got.tobytes() == ensembles._unitarize(ensembles._ginibre(normals)).tobytes()
        assert a.bit_generator.state == a_ref.bit_generator.state
        assert b.bit_generator.state == b_ref.bit_generator.state


# (n, l, m) layouts: no tag, tag columns interleaved with the mixed register, wide and thin
TRIAL_LAYOUTS = [(1, 0, 0), (1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 1, 0), (3, 0, 2)]


class TestTrialScramblers:
    @pytest.mark.parametrize("n,l,m", TRIAL_LAYOUTS)
    def test_haar_tag_columns_are_isometries(self, n, l, m):
        part = QubitPartition(n, l, m)
        ys = sample_scramblers(part, "haar_exact", [spawn_rng(31, "iso", n, l, m, i) for i in range(9)])
        dn, _, dm = part.dims
        assert ys.shape == (9, 2**part.z, dn, dm)
        for i, y in enumerate(ys):
            flat = y.reshape(2**part.z, dn * dm)
            assert np.max(np.abs(flat.conj().T @ flat - np.eye(dn * dm))) <= 1e-12
            # each trial reads one (2, d, 2^(n+m)) block from its own stream, QR'd alone
            ref = reference.ginibre_qr(spawn_rng(31, "iso", n, l, m, i), 2**part.z, dn * dm)
            assert np.max(np.abs(flat - ref)) <= 1e-12

    def test_haar_tag_columns_have_the_haar_mean(self):
        # E[Y A Y^dag] = tr(A) I/d for a Haar isometry, so the padded input
        # rho (x) I_m / 2^m averages to I/d
        part = QubitPartition(1, 1, 1)
        d = 2**part.z
        rho = sample_ghse(1, 1, spawn_rng(32, "iso-mean"))
        ys = sample_scramblers(part, "haar_exact", [spawn_rng(32, "iso-mean", i) for i in range(4000)])
        phis = pqas.scramble_padded(rho, ys)
        mean = phis.mean(axis=0)
        sigma = np.sqrt(np.sum(phis.var(axis=0)) / len(phis))
        assert np.linalg.norm(mean - np.eye(d) / d) <= 3 * sigma

    @pytest.mark.parametrize("mode", ["composed", "pru_only"])
    @pytest.mark.parametrize("n,l,m", TRIAL_LAYOUTS)
    def test_keyed_tag_columns_slice_the_scramblers(self, mode, n, l, m):
        part = QubitPartition(n, l, m)
        ys = sample_scramblers(part, mode, [spawn_rng(35, "keyed", mode, i) for i in range(3)])
        keys = [SecretKey.generate(spawn_rng(35, "keyed", mode, i)) for i in range(3)]
        us = build_scramblers(keys, part.z, ScramblerSpec(mode=mode))
        dn, dl, dm = part.dims
        # a column build and the full build are different BLAS calls: they agree to rounding
        assert np.max(np.abs(ys - us.reshape(3, 2**part.z, dn, dl, dm)[:, :, :, 0, :])) <= 1e-14


class TestColumnBuilds:
    @pytest.mark.parametrize("mode", ["composed", "pru_only"])
    @pytest.mark.parametrize("z", [3, 5, 8, 10])
    def test_blocks_are_the_full_build_columns(self, mode, z):
        # one, two and four columns, an odd count, 2^m message-|0> columns and the strided
        # tag-|0> set of a one-qubit tag: other BLAS calls than the full build's, so equal to rounding
        spec = ScramblerSpec(mode)
        keys = [SecretKey.generate(spawn_rng(40, "columns", mode, z, i)) for i in range(2 if z < 10 else 1)]
        full = build_scramblers(keys, z, spec)
        d = 2**z
        blocks = [[d - 1], [0, 1], [2, 3, 5, 7], [1, 4, 6, 0, 2], np.arange(2 ** (z - 2)), tag_zero_index(QubitPartition(1, 1, z - 2))]
        for cols in map(np.asarray, blocks):
            got = build_scramblers(keys, z, spec, cols)
            assert got.shape == (len(keys), d, len(cols))
            assert np.max(np.abs(got - full[:, :, cols])) <= 1e-14

    @pytest.mark.parametrize("mode", ["composed", "pru_only"])
    def test_blocks_build_only_their_columns(self, mode, monkeypatch):
        # the brickwork acts on the selected columns alone, never on all d
        widths = []
        pru = ensembles.sample_pru_surrogate
        monkeypatch.setattr(ensembles, "sample_pru_surrogate", lambda *a: widths.append(a[3].shape[-1]) or pru(*a))
        keys = [SecretKey.generate(spawn_rng(41, "narrow", mode))]
        for cols in ([5], [0, 1], np.arange(6), np.arange(32)):
            build_scramblers(keys, 6, ScramblerSpec(mode), np.asarray(cols))
        assert widths == [1, 2, 6, 32]

    def test_tag_zero_index_is_the_tag_zero_view(self):
        for n, l, m in TRIAL_LAYOUTS:
            part = QubitPartition(n, l, m)
            u = np.arange(4**part.z).reshape(2**part.z, 2**part.z)
            flat = tag_zero_columns(u, part).reshape(2**part.z, -1)
            assert np.array_equal(u[:, tag_zero_index(part)], flat)

    @pytest.mark.parametrize("mode", ["composed", "haar_exact", "pru_only"])
    def test_partial_reads_leave_the_cache_alone(self, mode, monkeypatch):
        spec = ScramblerSpec(mode)
        key, held = (SecretKey.generate(spawn_rng(42, "partial", mode, i)) for i in range(2))
        build_scrambler.cache_clear()
        u = build_scrambler(held, 5, spec)
        before = build_scrambler.cache_info()
        assert np.max(np.abs(leading_columns(key, 5, spec, 3) - build_scramblers([key], 5, spec)[0][:, :3])) <= 1e-14
        assert build_scrambler.cache_info() == before and build_scrambler.peek(key, 5, spec) is None
        # a held key is sliced from the cache, with no build and no count
        monkeypatch.setattr(ensembles, "build_scramblers", None)
        assert np.shares_memory(leading_columns(held, 5, spec, 3), u)
        assert build_scrambler.cache_info() == before
        build_scrambler.cache_clear()


class TestKeyedFactors:
    """The keyed Haar factor acts from its Householder reflectors and the
    Clifford is built column by column, so a block forms neither as a d x d
    matrix; ``reference.keyed_unitary_dense`` forms both."""

    @pytest.mark.parametrize("mode", ["composed", "haar_exact"])
    @pytest.mark.parametrize("z", range(1, 9))
    def test_builds_match_the_dense_oracle(self, mode, z):
        spec = ScramblerSpec(mode)
        d = 2**z
        keys = [SecretKey.generate(spawn_rng(43, "dense-oracle", mode, z, i)) for i in range(2)]
        dense = np.stack([reference.keyed_unitary_dense(key, z, mode) for key in keys])
        assert np.max(np.abs(build_scramblers(keys, z, spec) - dense)) <= 1e-12
        for cols in map(np.asarray, ([d - 1], [1, 0, 1], np.arange(d)[::-2], np.arange(2 ** (z - 1)))):
            assert np.max(np.abs(build_scramblers(keys, z, spec, cols) - dense[:, :, cols])) <= 1e-12

    @pytest.mark.parametrize("d", [2, 5, 32, 70])
    def test_panels_are_the_reflector_product(self, d):
        # one short panel (d = 2, 5), one full panel (32), three with a short
        # last one (70); a zero tau is the identity, its stored vector unread
        a, tau = ensembles._householder([spawn_rng(46, "panels", d, i) for i in range(2)], d)
        tau[1, d // 2] = 0.0
        u = ensembles._ginibre(spawn_rng(46, "block", d).standard_normal((2, 2, d, 3)))
        for i in range(2):
            dense = np.diag(np.diagonal(a[i]) / np.abs(np.diagonal(a[i]))).astype(complex)
            for j in reversed(range(d)):
                v = np.concatenate([np.zeros(j), [1.0], a[i, j + 1 :, j]])
                dense[j:] -= tau[i, j] * np.outer(v[j:], v.conj() @ dense)
            want = dense @ u[i]
            assert np.max(np.abs(ensembles._apply_householder(a[i : i + 1], tau[i : i + 1], u[i : i + 1].copy())[0] - want)) <= 1e-12

    @pytest.mark.parametrize("z", range(1, 9))
    def test_clifford_columns_are_the_dense_slice(self, z):
        # a stack of three tableaus, every column and unsorted and repeated
        # selections; the columns are built without BLAS, so bit for bit
        d = 2**z
        seeds = [bytes([z, i]) * 8 for i in range(3)]
        dense = [sample_clifford(z, seed) for seed in seeds]
        tableaus = [sample_tableau(z, keyed_rng(seed, "clifford", z)) for seed in seeds]
        rng = spawn_rng(44, "clifford-columns", z)
        picks = [np.arange(d)[::-1], [d - 1], np.resize([d - 1, 0, d // 2], 4), np.resize(rng.permutation(d)[:5], 8), rng.integers(0, d, 6)]
        assert all(np.array_equal(got, u) for got, u in zip(clifford_columns(z, tableaus), dense))
        for cols in map(np.asarray, picks):
            for got, u in zip(clifford_columns(z, tableaus, cols), dense):
                assert got.tobytes() == np.ascontiguousarray(u[:, cols]).tobytes()


class TestKeyedBuildMemory:
    """tracemalloc peaks of z = 8 builds, in d^2 complex entries (1.05 MB).

    The Haar draw's QR holds the Ginibre block and LAPACK's copy of it (2).
    A four-column ``composed`` block adds only (d, 4) blocks; forming the
    Haar factor and the dense Clifford read about 5.  A whole build holds
    the reflectors, the unitary and the update of the widest panel (about
    3.4), and the cached unitary is the brickwork's last product, not a
    copy; it read 5.3 when both factors were formed and the stack copied."""

    D2 = 16 * 4**8

    @staticmethod
    def _peak(build) -> int:
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_four_column_composed_block(self):
        key = SecretKey.generate(spawn_rng(45, "block-memory"))
        spec = ScramblerSpec("composed")
        build_scramblers([key], 8, spec, np.arange(4))  # warm
        assert self._peak(lambda: build_scramblers([key], 8, spec, np.arange(4))) <= 2.5 * self.D2

    def test_whole_build_scrambler(self):
        key = SecretKey.generate(spawn_rng(45, "whole-memory"))
        build_scrambler.cache_clear()
        try:
            assert self._peak(lambda: build_scrambler(key, 8, ScramblerSpec("composed"))) <= 3.5 * self.D2
        finally:
            build_scrambler.cache_clear()


def interleaved_row(x: int, z: int, n: int) -> int:
    """The symplectic row (x1, z1, x2, z2, ...) of qubit bitmasks x and z,
    qubit 0 the most significant bit."""
    return sum((x >> n - 1 - i & 1) << 2 * i | (z >> n - 1 - i & 1) << 2 * i + 1 for i in range(n))


def symplectic_element(index: int, n: int) -> np.ndarray:
    """The bitmask rows of the index-th element of Sp(2n, 2) as an int8 array,
    bit j of a row in column j."""
    rows = np.array(_symplectic_rows(index, n), dtype=np.int64)
    return ((rows[:, None] >> np.arange(2 * n)) & 1).astype(np.int8)


class TestCliffordSampler:
    def test_symplectic_bijection(self):
        for n in (1, 2):
            order = symplectic_group_order(n)
            seen = set()
            for i in range(order):
                g = symplectic_element(i, n)
                assert reference.is_symplectic(g)
                seen.add(g.tobytes())
            assert len(seen) == order

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bitmask_tableau_matches_array_reference(self, n):
        # every element for n <= 2, else 300 uniform indices
        order = symplectic_group_order(n)
        if n <= 2:
            indices = range(order)
        else:
            rng = spawn_rng(3, "symplectic-reference", n)
            indices = [int.from_bytes(rng.bytes(64), "big") % order for _ in range(300)]
        for i in indices:
            g = symplectic_element(i, n)
            assert np.array_equal(g, reference.symplectic_element(i, n)), i

    def test_group_order_formula(self):
        # |Sp(2n,2)| = 2^(n^2) prod (4^j - 1)
        assert symplectic_group_order(1) == 6
        assert symplectic_group_order(2) == 720
        assert symplectic_group_order(3) == 2**9 * 3 * 15 * 63

    def test_keyed_determinism(self):
        a = sample_clifford(3, b"0123456789abcdef")
        b = sample_clifford(3, b"0123456789abcdef")
        assert np.array_equal(a, b)

    def test_unitarity(self):
        rng = spawn_rng(4, "cliff")
        for z in (1, 2, 3, 4):
            qcore.check_unitary(sample_clifford(z, rng))

    def test_signed_pauli_from_masks(self):
        # (-1)^sign i^(x.z) X^x Z^z as a Kronecker product, qubit 0 the most significant bit
        one, x_gate, z_gate = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        n = 3
        cases = [(x, z, sign) for x in range(2**n) for z in range(2**n) for sign in (0, 1)]
        source, amps = _signed_paulis(n, [interleaved_row(x, z, n) for x, z, _ in cases], [s for _, _, s in cases])
        for (x, z, sign), src, amp in zip(cases, source, amps):
            dense = np.ones((1, 1))
            for bit in reversed(range(n)):
                factor = (x_gate if x >> bit & 1 else one) @ (z_gate if z >> bit & 1 else one)
                dense = np.kron(dense, factor)
            dense = (-1) ** sign * 1j ** bin(x & z).count("1") * dense
            assert np.array_equal(reference.signed_pauli_dense(src, amp), dense), (x, z, sign)

    def test_pauli_to_pauli(self):
        # conjugating any Pauli string gives another Pauli string up to sign
        rng = spawn_rng(5, "cliff-pauli")
        n = 2
        u = sample_clifford(n, rng)
        masks = [(xb, zb) for xb in range(4) for zb in range(4)]
        source, amps = _signed_paulis(n, [interleaved_row(xb, zb, n) for xb, zb in masks], [0] * len(masks))
        for src, amp in zip(source, amps):
            p = reference.signed_pauli_dense(src, amp)
            img = u @ p @ u.conj().T
            # image must be +-1 or +-i times a signed permutation matrix
            mags = np.abs(img)
            assert np.allclose(np.sort(mags.ravel())[-4:], 1.0, atol=1e-9)
            assert np.allclose(mags * (mags > 0.5), mags, atol=1e-9)
            assert (np.count_nonzero(mags > 0.5)) == 4

    @pytest.mark.parametrize("z", [1, 2, 3, 4, 5, 8])
    def test_clifford_bytes_are_pinned(self, z):
        # sha256 of 20 keyed draws: the sampler's bytes may change only on purpose
        pinned = {
            1: "fab8b127c16438f710038d7aa4c0ba0f9fa20e815acd67dd622f09e2999d8c91",
            2: "f6c5791f7ae3187a183ef335f4fd2863ed860127c3df66ffae492910b3f76be6",
            3: "1a3bbf2698528a604b6ba4081b559327e18943c6eb64f4309aadda1b43298e63",
            4: "45f07396ba706cad86fd7be9dc2b2d13925c9a7708fc4bf3d7201ed46ab5de60",
            5: "5ec40fc8981b49ef45df9696f56907c09f6bd82d44a5bcb1cfc79c2396428e68",
            8: "f685c1bf849b408e80d73c7ebdea03b287efce45fbd5b6d855fde2d7fb2dc24e",
        }
        digest = hashlib.sha256()
        for seed in range(20):
            digest.update(sample_clifford(z, spawn_rng(seed, "clifford-bytes", z)).tobytes())
        assert digest.hexdigest() == pinned[z]

    def test_two_design_moment(self):
        rng = spawn_rng(6, "cliff-2d")
        t, z = 2, 2
        d = 2**z
        raw = rng.standard_normal((d**t, d**t)) + 1j * rng.standard_normal((d**t, d**t))
        obs = 0.5 * (raw + raw.conj().T)
        exact = moments.haar_moment(obs, t, d)
        samples = 3000
        acc = np.zeros_like(obs)
        sq = np.zeros(obs.shape)
        for _ in range(samples):
            u = sample_clifford(z, rng)
            uu = np.kron(u, u)
            val = uu @ obs @ uu.conj().T
            acc += val
            sq += np.abs(val) ** 2
        mean = acc / samples
        sigma = np.sqrt(np.sum(sq / samples - np.abs(mean) ** 2) / samples)
        assert np.linalg.norm(mean - exact) <= 3 * sigma

    def test_twirl_equality_for_auth_functional(self):
        # mean over Cliffords of the degree-2 functional F' equals its exact
        # Haar average (the 2-design property in the form the protocol uses);
        # the tamper must not commute with conjugation or F' is constant
        part = QubitPartition(1, 1, 0)
        chan = qcore.UnitaryChannel(sample_haar(2, spawn_rng(7, "twirl-tamper")))
        psi = qcore.basis_ket(2, 0)
        exact = pqas.exact_haar_fprime(part, chan, psi)
        rng = spawn_rng(7, "twirl-eq")
        vals = np.empty(3000)
        for i in range(vals.size):
            u = sample_clifford(2, rng)
            _, vals[i] = reference.p0_fprime_for_unitary(psi, u, part, chan)
        dev = abs(vals.mean() - exact)
        assert dev <= 3 * vals.std(ddof=1) / np.sqrt(vals.size)


class TestDesign4AndPru:
    def test_design4_deterministic(self):
        a = design4_dense(2, b"k" * 16)
        assert np.array_equal(a, design4_dense(2, b"k" * 16))
        qcore.check_unitary(a)

    def test_design4_moment_spot_check(self):
        # over random keys the surrogate reproduces the exact twirl (it is a
        # keyed exact-Haar draw, realizing every design order with zero error)
        rng = spawn_rng(20, "d4")
        t, z = 2, 2
        d = 2**z
        raw = rng.standard_normal((d**t, d**t)) + 1j * rng.standard_normal((d**t, d**t))
        obs = 0.5 * (raw + raw.conj().T)
        exact = moments.haar_moment(obs, t, d)
        samples = 2000
        acc = np.zeros_like(obs)
        sq = np.zeros(obs.shape)
        for _ in range(samples):
            u = design4_dense(z, rng.bytes(16))
            uu = np.kron(u, u)
            val = uu @ obs @ uu.conj().T
            acc += val
            sq += np.abs(val) ** 2
        mean = acc / samples
        sigma = np.sqrt(np.sum(sq / samples - np.abs(mean) ** 2) / samples)
        assert np.linalg.norm(mean - exact) <= 3 * sigma

    def test_pru_deterministic(self):
        a, b, c = sample_pru_surrogate(3, [b"k" * 16, b"k" * 16, b"j" * 16], 6)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_pru_depth_validation(self):
        with pytest.raises(ValueError):
            sample_pru_surrogate(2, [b"k" * 16], 0)

    def test_pru_single_qubit_single_layer(self):
        u = sample_pru_surrogate(1, [b"k" * 16], 1)
        assert u.shape == (1, 2, 2)
        qcore.check_unitary(u[0])

    # z <= 2 has no even cut (each layer is one half); at z = 3 the cut is 2
    @pytest.mark.parametrize("z", [1, 2, 3, 4, 5, 6, 7])
    def test_pru_matches_dense_layer_product(self, z):
        for depth in sorted({1, 2, 3, 4 * z}):
            keys = [bytes([z, depth, i]) * 5 + b"k" for i in range(3)]
            u = np.stack([pru_dense(z, key, depth) for key in keys])
            dev = np.max(np.abs(sample_pru_surrogate(z, keys, depth) - u))
            assert dev <= 1e-12, (depth, dev)
            # applied onto a given stack, the circuit multiplies it from the left
            v = sample_haar_batch(z, [spawn_rng(z, "pru-onto", i) for i in range(3)])
            dev = np.max(np.abs(sample_pru_surrogate(z, keys, depth, v) - u @ v))
            assert dev <= 1e-12, (depth, dev)

    def test_pru_second_moment_at_4z(self):
        # z = 3, the smallest z with a gate across the even cut: at z = 2 layer 0
        # is one Haar gate on both qubits, so the ensemble is exactly Haar there.
        # The observable is a random combination of the partial SWAPs of the two
        # copies on every qubit subset.  A product of local unitaries fixes each
        # of them, where Haar maps them into the span of I and the full SWAP, so a
        # circuit that leaves some subset unmixed misses the Haar moment by many
        # sigma; a generic random observable carries almost no weight there.
        rng = spawn_rng(8, "pru-2d")
        t, z = 2, 3
        d = 2**z
        first, second = np.divmod(np.arange(d**t), d)
        obs = np.zeros((d**t, d**t), dtype=complex)
        for mask, weight in enumerate(rng.standard_normal(2**z)):
            swapped = ((first & ~mask) | (second & mask)) * d + ((second & ~mask) | (first & mask))
            obs[swapped, np.arange(d**t)] += weight
        exact = moments.haar_moment(obs, t, d)
        samples, chunk = 500, 250
        us = sample_pru_surrogate(z, [rng.bytes(16) for _ in range(samples)], 4 * z)
        acc = np.zeros_like(obs)
        sq = np.zeros(obs.shape)
        # chunks of 250 conjugations (16 MB of observables each)
        for start in range(0, samples, chunk):
            u = us[start : start + chunk]
            uu = (u[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, d**t, d**t)
            val = uu @ obs @ uu.conj().transpose(0, 2, 1)
            acc += val.sum(axis=0)
            sq += (np.abs(val) ** 2).sum(axis=0)
        mean = acc / samples
        sigma = np.sqrt(np.sum(sq / samples - np.abs(mean) ** 2) / samples)
        assert np.linalg.norm(mean - exact) <= 3 * sigma


class TestScrambler:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScramblerSpec(mode="bogus")

    @pytest.mark.parametrize("mode", ["composed", "haar_exact", "pru_only"])
    def test_deterministic_and_unitary(self, mode):
        key = SecretKey.generate(spawn_rng(9, "scr", mode))
        spec = ScramblerSpec(mode=mode)
        a = build_scrambler(key, 3, spec)
        b = build_scrambler(key, 3, spec)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a.conj().T @ a - np.eye(8))) <= 1e-9

    @pytest.mark.parametrize("mode", ["composed", "haar_exact", "pru_only"])
    def test_cached_scrambler_is_read_only(self, mode):
        key = SecretKey.generate(spawn_rng(20, "scr", mode))
        spec = ScramblerSpec(mode=mode)
        u = build_scrambler(key, 2, spec)
        before = u.copy()
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 5
        # nor through the array it views, if any
        assert u.base is None or not u.base.flags.writeable
        assert np.array_equal(build_scrambler(key, 2, spec), before)

    @pytest.mark.parametrize("mode", ["composed", "haar_exact", "pru_only"])
    def test_cached_scrambler_is_the_build_not_a_copy(self, mode, monkeypatch):
        key = SecretKey.generate(spawn_rng(20, "no-copy", mode))
        spec = ScramblerSpec(mode=mode)
        stack = build_scramblers([key], 2, spec)
        monkeypatch.setattr(ensembles, "build_scramblers", lambda *args: stack)
        build_scrambler.cache_clear()
        try:
            u = build_scrambler(key, 2, spec)
            assert np.shares_memory(u, stack) and not u.flags.writeable and not u.base.flags.writeable
        finally:
            build_scrambler.cache_clear()

    @pytest.mark.parametrize("mode", ["composed", "haar_exact", "pru_only"])
    def test_stack_is_bitwise_each_key_alone(self, mode, monkeypatch):
        spec = ScramblerSpec(mode=mode)
        for z in range(1, 7):
            keys = [SecretKey.generate(spawn_rng(22, "stack", mode, z, i)) for i in range(5)]
            alone = [build_scramblers([key], z, spec)[0] for key in keys]
            assert all(np.array_equal(u, build_scrambler(key, z, spec)) for u, key in zip(alone, keys))
            stack = build_scramblers(keys, z, spec)
            assert stack.shape == (5, 2**z, 2**z)
            assert all(np.array_equal(u, v) for u, v in zip(stack, alone))
            # two keys per chunk: the stack crosses two chunk boundaries
            sizes = []
            build_stack = ensembles._build_stack
            with monkeypatch.context() as patch:
                patch.setattr(ensembles, "STACK_ENTRIES", 2 * 4**z)
                patch.setattr(ensembles, "_build_stack", lambda ks, *a: sizes.append(len(ks)) or build_stack(ks, *a))
                chunked = build_scramblers(keys, z, spec)
            assert sizes == [2, 2, 1]
            assert all(np.array_equal(u, v) for u, v in zip(chunked, alone))

    @pytest.mark.parametrize("z", [1, 2, 3, 4, 5, 6])
    def test_composed_matches_dense_factors(self, z):
        keys = [SecretKey.generate(spawn_rng(23, "composed-dense", z, i)) for i in range(3)]
        us = build_scramblers(keys, z, ScramblerSpec("composed"))
        for u, key in zip(us, keys):
            dense = pru_dense(z, key.k1, 4 * z) @ design4_dense(z, key.k2) @ sample_clifford(z, key.k3)
            assert np.max(np.abs(u - dense)) <= 1e-12

    @pytest.mark.parametrize("mode", ["composed", "pru_only"])
    def test_trial_scramblers_bypass_the_cache(self, mode):
        build_scrambler.cache_clear()
        before = build_scrambler.cache_info()
        part = QubitPartition(1, 1, 1)
        ys = sample_scramblers(part, mode, [spawn_rng(21, "scr", i) for i in range(5)])
        after = build_scrambler.cache_info()
        assert (after.currsize, after.hits, after.misses) == (before.currsize, before.hits, before.misses)
        spec = ScramblerSpec(mode=mode)
        for i, y in enumerate(ys):
            u = build_scrambler(SecretKey.generate(spawn_rng(21, "scr", i)), 3, spec)
            assert np.max(np.abs(y - tag_zero_columns(u, part))) <= 1e-14

    @pytest.mark.parametrize(
        "mode, pinned",
        [
            ("haar_exact", "e1d3de821a2cdff79644a5a78609ac0315fc1bdcc74ba0f3dda4e199cf468a44"),
            ("composed", "baed1c57ada0106c5bccd0b3a2862af4fc7289ffd5957aca1d7a4b99df00c046"),
            ("pru_only", "6cc74f0c9521e43a4eb63e6a9167f42579cf6bab5c6752ebacc7e80514e30e8d"),
        ],
    )
    def test_stack_bytes_are_pinned(self, mode, pinned, monkeypatch):
        # the bytes the build draws are pinned; the stack they give is the dense product's to rounding
        keys = [SecretKey.generate(spawn_rng(7, "scrambler-bytes", mode, i)) for i in range(4)]
        stack, digest = reference.draw_digest(monkeypatch, lambda: build_scramblers(keys, 3, ScramblerSpec(mode)))
        assert digest == pinned
        for u, key in zip(stack, keys):
            dense = pru_dense(3, key.k1, 12) if mode == "pru_only" else reference.keyed_unitary_dense(key, 3, mode)
            assert np.max(np.abs(u - dense)) <= 1e-12

    def test_cache_evicts_past_its_entry_budget(self, monkeypatch):
        # a budget of three z = 4 unitaries binds before the 64-key bound
        monkeypatch.setattr(ensembles, "CACHE_ENTRIES", 3 * 4**4)
        spec = ScramblerSpec(mode="haar_exact")
        keys = [SecretKey.generate(spawn_rng(24, "cache-budget", i)) for i in range(5)]
        build_scrambler.cache_clear()
        for key in keys:
            build_scrambler(key, 4, spec)
        assert build_scrambler.cache_info() == (0, 5, 64, 3)
        build_scrambler(keys[4], 4, spec)  # still held
        build_scrambler(keys[0], 4, spec)  # evicted first, built again
        info = build_scrambler.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 6, 64, 3)
        # the rebuild evicted the least recently used key left, keys[2]
        build_scrambler(keys[3], 4, spec)
        build_scrambler(keys[2], 4, spec)
        assert build_scrambler.cache_info()[:2] == (2, 7)
        build_scrambler.cache_clear()
        assert build_scrambler.cache_info() == (0, 0, 64, 0)

    def test_cache_holds_at_most_64_keys(self):
        spec = ScramblerSpec(mode="haar_exact")
        keys = [SecretKey.generate(spawn_rng(25, "cache-keys", i)) for i in range(65)]
        build_scrambler.cache_clear()
        for key in keys:
            build_scrambler(key, 1, spec)
        assert build_scrambler.cache_info() == (0, 65, 64, 64)
        build_scrambler(keys[0], 1, spec)  # the least recently used key was evicted
        assert build_scrambler.cache_info()[:2] == (0, 66)
        build_scrambler.cache_clear()

    def test_cache_counts_every_lookup_under_threads(self):
        # more threads than cores, switching often: no lookup is lost from
        # the counts and every thread reads each key's one unitary
        spec = ScramblerSpec(mode="haar_exact")
        keys = [SecretKey.generate(spawn_rng(26, "cache-threads", i)) for i in range(80)]
        want = [build_scramblers([key], 1, spec)[0] for key in keys]
        build_scrambler.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def lookups(start):
                return [build_scrambler(key, 1, spec) for key in keys[start:] + keys[:start]]

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(lookups, i) for i in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        info = build_scrambler.cache_info()
        assert info.hits + info.misses == 8 * len(keys) and info.currsize == 64
        for i, got in enumerate(results):
            assert all(np.array_equal(u, w) for u, w in zip(got, want[i:] + want[:i]))
        build_scrambler.cache_clear()

    def test_modes_differ(self):
        key = SecretKey.generate(spawn_rng(10, "scr"))
        a = build_scrambler(key, 2, ScramblerSpec(mode="composed"))
        b = build_scrambler(key, 2, ScramblerSpec(mode="haar_exact"))
        assert not np.allclose(a, b)


class TestGhse:
    def test_pure_at_m0(self):
        rho = sample_ghse(2, 0, spawn_rng(11, "ghse"))
        assert reference.purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_rank_bound(self):
        rho = sample_ghse(3, 1, spawn_rng(12, "ghse"))
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.all(evals[2:] <= 1e-10)

    def test_mean_purity_hilbert_schmidt(self):
        n = 2
        rng = spawn_rng(13, "ghse")
        vals = np.array([reference.purity(sample_ghse(n, n, rng)) for _ in range(2500)])
        pred = 2 * 2**n / (2 ** (2 * n) + 1)
        assert abs(vals.mean() - pred) <= 3 * vals.std(ddof=1) / np.sqrt(vals.size)

    def test_random_pure_state_normalized(self):
        psi = random_pure_state(3, spawn_rng(14, "pure"))
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
