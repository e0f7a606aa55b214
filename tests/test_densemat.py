"""Tests for dense sampling, tensor algebra, channels and ensembles."""

import contextlib
import math
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from designlab import cliffordgrp as cg
from designlab import densemat as dm
from designlab import framepot as fp
from designlab import limits, otolab, paulialg, wg
from designlab import scrambling as sc
from designlab.otolab import OtoSpec
from designlab.paulialg import from_label

import oracles

Z = from_label("Z")


def two_sample_ks(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return np.max(np.abs(fa - fb))


def embed_two_qubit(g, a, n):
    """I_(2^a) (x) g (x) I_(2^(n-a-2)): a 2-qubit gate on adjacent qubits (a, a+1)."""
    left = np.eye(2**a, dtype=complex)
    right = np.eye(2 ** (n - a - 2), dtype=complex)
    return np.kron(np.kron(left, g), right)


def brickwork_circuit(n, depth, rng):
    """One brickwork circuit the slow way: one gate draw, two krons and two
    2-D products by the running layer per gate, starting from the identity."""
    d = 2**n
    u = np.eye(d, dtype=complex)
    for layer in range(depth):
        layer_u = np.eye(d, dtype=complex)
        for a in range(layer % 2, n - 1, 2):
            layer_u = embed_two_qubit(dm.haar_unitary(4, rng), a, n) @ layer_u
        u = layer_u @ u
    return u


SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(p):
    """The Kronecker chain of the letters' matrices, phase applied last."""
    m = np.array([[1]], dtype=complex)
    for letter in p.letters():
        m = np.kron(m, SIGMA[letter])
    return (1j**p.phase) * m


class TestPauliToDense:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bytes_equal_the_kron_chain(self, n):
        # signed zeros included: Z (x) I holds -0.0, and so does every phase-2 Pauli
        for p in paulialg.enumerate_paulis(n):
            for phase in range(4):
                q = paulialg.PauliString(n, p.x, p.z, phase)
                assert dm.pauli_to_dense(q).tobytes() == kron_chain(q).tobytes(), q

    def test_random_words_at_larger_n(self):
        rng = np.random.default_rng(4)
        for n in (4, 5, 6, 7, 8):
            for _ in range(20):
                p = oracles.random_pauli(n, rng)
                q = paulialg.PauliString(n, p.x, p.z, int(rng.integers(4)))
                assert dm.pauli_to_dense(q).tobytes() == kron_chain(q).tobytes(), q

    def test_dense_guard_before_building(self):
        # 2^13 sides: the matrix would be 1 GiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense guard exceeded"):
                dm.pauli_to_dense(from_label("X" * 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_correlator_guard_before_the_unitary_check(self, monkeypatch):
        monkeypatch.setattr(limits, "DENSE_GUARD", 2)

        def check_unitary(u):
            raise AssertionError("the unitary was checked before the dense guard")
        monkeypatch.setattr(otolab, "check_unitary", check_unitary)
        x = from_label("XI")
        with pytest.raises(ValueError, match="dense guard exceeded"):
            otolab.oto_correlator(np.eye(4), OtoSpec((x,), (x,)))
        # no product either: an element that is never read cannot fail
        with pytest.raises(ValueError, match="dense guard exceeded"):
            otolab.tabled_correlator(object(), [x], [x])


class TestHaarUnitary:
    def test_unitarity_many_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = dm.haar_unitary(8, rng)
            err = np.max(np.abs(u.conj().T @ u - np.eye(8)))
            assert err <= 1e-12

    def test_first_frame_potential(self):
        # MC mean of |tr(U+ V)|^2 at d=4 -> 1 within 5 standard errors
        rng = np.random.default_rng(1)
        n = 20_000
        vals = np.empty(n)
        for i in range(n):
            u = dm.haar_unitary(4, rng)
            v = dm.haar_unitary(4, rng)
            vals[i] = abs(np.trace(u.conj().T @ v)) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0) <= 5 * se

    def test_left_invariance(self):
        # distribution of |tr(WU)| for fixed W matches |tr U| (KS test)
        rng = np.random.default_rng(2)
        d, n = 2, 10_000
        w = dm.haar_unitary(d, rng)
        plain = np.array([abs(np.trace(dm.haar_unitary(d, rng))) for _ in range(n)])
        rotated = np.array([abs(np.trace(w @ dm.haar_unitary(d, rng))) for _ in range(n)])
        # KS critical value at alpha = 0.001 for two samples of size n
        crit = 1.949 * np.sqrt(2 / n)
        assert two_sample_ks(plain, rotated) < crit

    def test_second_moment(self):
        rng = np.random.default_rng(3)
        d, n = 4, 20_000
        vals = np.array([abs(dm.haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(n)])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1 / d) <= 5 * se

    def test_reproducible(self):
        u1 = dm.haar_unitary(4, np.random.default_rng(42))
        u2 = dm.haar_unitary(4, np.random.default_rng(42))
        assert np.array_equal(u1, u2)


class TestStackedDraws:
    # a stack is one rng.normal call and one stacked QR (eigh): it must be the
    # one-at-a-time stream bit for bit, and leave the generator where it would
    @pytest.mark.parametrize("draw", [dm.haar_unitary, dm.gue_hamiltonian])
    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_stack_is_the_sequential_stream(self, draw, d):
        for seed in range(3):
            stacked_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            stack = draw(d, stacked_rng, 7)
            singles = np.stack([draw(d, single_rng) for _ in range(7)])
            assert np.array_equal(stack, singles)
            assert stacked_rng.bit_generator.state == single_rng.bit_generator.state

    def test_size_is_a_numpy_shape(self):
        rng = np.random.default_rng(1)
        assert dm.haar_unitary(3, rng).shape == (3, 3)
        assert dm.haar_unitary(3, rng, (2, 5)).shape == (2, 5, 3, 3)
        assert dm.gue_hamiltonian(3, rng, 4).shape == (4, 3, 3)

    def test_near_singular_draw_is_redrawn_in_sequence(self, monkeypatch):
        d, count, bad = 3, 6, 2
        free = dm.haar_unitary(d, np.random.default_rng(8), count)
        poison = np.random.default_rng(8).normal(size=(count, 2, d, d))[bad, 0, 0, 0]
        real_qr = np.linalg.qr

        def qr(g):  # R of the draw starting with `poison` gets a zero on its diagonal
            q, r = real_qr(g)
            r = r.copy()
            r[..., 0, 0] = np.where(g[..., 0, 0].real == poison, 0, r[..., 0, 0])
            return q, r

        monkeypatch.setattr(np.linalg, "qr", qr)
        stacked_rng, single_rng = np.random.default_rng(8), np.random.default_rng(8)
        stack = dm.haar_unitary(d, stacked_rng, count)
        singles = np.stack([dm.haar_unitary(d, single_rng) for _ in range(count)])
        assert np.array_equal(stack, singles)
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state
        assert np.array_equal(stack[:bad], free[:bad]) and not np.array_equal(stack[bad], free[bad])
        assert np.max(np.abs(dm.dagger(stack) @ stack - np.eye(d))) <= 1e-12

    def test_samplers_equal_one_draw_at_a_time(self):
        d, t = 4, 0.8
        rng = np.random.default_rng([5, 0])
        want = [dm.evolve(dm.gue_hamiltonian(d, rng), t) for _ in range(9)]
        assert np.array_equal(dm.gue_evolution_ensemble(d, t).sample_block(5, 9), want)
        h = dm.gue_hamiltonian(d, np.random.default_rng(6))
        evals, vecs = np.linalg.eigh(h)
        rng = np.random.default_rng([5, 0])
        want = [(vecs * np.exp(-1j * evals * rng.uniform(0.0, 3.0))) @ vecs.conj().T
                for _ in range(9)]
        ens = oracles.hamiltonian_evolution_ensemble(h, 3.0)
        assert np.array_equal(ens.sample_block(5, 9), want)

    # the brickwork sampler draws a chunk's gates in one stack and assembles
    # sub-stacks of at most 16 circuits and ASSEMBLY_BYTES (16 inline at
    # n = 5; 4 at n = 6, 1 at n = 7 and n = 8 on the pool) with 1, 2 or 3
    # workers. Each layer is a 2^w-sided matrix, the kron of its gates built
    # gate by gate with inner dimension 1, and it multiplies the circuit's
    # rows with inner dimension 2^w; only the first layer is written into
    # zeros. It must be the circuit-at-a-time oracle bit for bit, across the
    # sub-stack boundary; at n = 4, 5 and 8 a layer covers neither qubit 0
    # nor qubit n - 1, or the even layer leaves qubit n - 1 idle
    @pytest.mark.parametrize("size,n,depth", [
        *((size, n, depth) for n, depth in [(2, 1), (2, 3), (3, 1), (3, 4), (4, 2), (5, 2),
                                            (5, 5), (6, 6), (7, 3)]
          for size in [1, 3, 4, 5, 16, 17, 64]),
        (1, 8, 2), (2, 8, 2)])
    def test_brickwork_is_the_circuit_at_a_time_oracle(self, monkeypatch, n, depth, size):
        single_rng = np.random.default_rng([n, depth])
        singles = np.stack([brickwork_circuit(n, depth, single_rng) for _ in range(size)])
        for workers in (1, 2, 3):
            monkeypatch.setattr(dm, "_workers", lambda: workers)
            stacked_rng = np.random.default_rng([n, depth])
            stack = dm.brickwork_ensemble(n, depth).sampler(stacked_rng, size)
            assert stack.tobytes() == singles.tobytes()
            assert stacked_rng.bit_generator.state == single_rng.bit_generator.state

    # a CHUNK_BYTES of 1 leaves only the floor of a gate group: a sub-stack
    # (4 circuits at n = 6) per worker where the pool assembles them, one
    # circuit inline (n = 3); the groups keep the oracle's bits
    @pytest.mark.parametrize("n,depth,workers,group", [(6, 2, 2, 8), (6, 2, 3, 12),
                                                       (3, 3, 2, 1)])
    def test_brickwork_gate_groups(self, monkeypatch, n, depth, workers, group):
        monkeypatch.setattr(dm, "CHUNK_BYTES", 1)
        monkeypatch.setattr(dm, "_workers", lambda: workers)
        real, sizes = dm.haar_unitary, []
        monkeypatch.setattr(dm, "haar_unitary",
                            lambda d, rng, size=(): sizes.append(size) or real(d, rng, size))
        size = 2 * group + 1
        stack = dm.brickwork_ensemble(n, depth).sampler(np.random.default_rng(n), size)
        assert [s[0] for s in sizes] == [group, group, 1]
        single_rng = np.random.default_rng(n)
        singles = np.stack([brickwork_circuit(n, depth, single_rng) for _ in range(size)])
        assert stack.tobytes() == singles.tobytes()


class TestBlockProduct:
    # the brickwork sampler multiplies I (x) G (x) I, G on the qubits
    # q0 .. q0 + w - 1 of n, onto a stack as G times the stack's (2^q0, 2^w,
    # rest) row blocks: inner dimension 2^w, not 2^n. Its draws are the
    # kron loop's bit for bit only if the two products agree byte for byte:
    # each entry must be one FMA chain in ascending inner index, to which
    # the zeros of the embedding add exact zeros. It runs every span (q0, w)
    # at n <= 7, which includes every span of a layer
    @pytest.mark.parametrize("threads", ["default", "pinned"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_embedded_product(self, n, threads):
        rng = np.random.default_rng(n)
        d, m = 2**n, 3
        u = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
        spans = [(q0, w) for w in range(2, n + 1) for q0 in range(n - w + 1)]
        with blas_threads(threads):
            for q0, w in spans:
                g = rng.normal(size=(m, 2**w, 2**w)) + 1j * rng.normal(size=(m, 2**w, 2**w))
                full = np.stack([np.kron(np.kron(np.eye(2**q0), g[i]), np.eye(2 ** (n - q0 - w)))
                                 @ u[i] for i in range(m)])
                assert dm._apply_on(g, u, q0).tobytes() == full.tobytes(), (q0, w)

    # a layer's matrix is the kron of its gates, each entry one product that
    # an inner-dimension-1 zgemm rounds. It must be the gate steps it
    # replaced byte for byte: the first gate written into zeros as g (x) I,
    # then each later gate applied to that with inner dimension 4
    @pytest.mark.parametrize("threads", ["default", "pinned"])
    @pytest.mark.parametrize("m", [1, 3, 4, 16])
    @pytest.mark.parametrize("w", [4, 6, 8])
    def test_kron_gate_equals_the_gate_steps(self, w, m, threads):
        gates = dm.haar_unitary(4, np.random.default_rng([w, m]), (w // 2, m))
        with blas_threads(threads):
            want = dm._beside_identity(gates[0], 2 ** (w - 2))
            got = gates[0]
            for b, gate in zip(range(2, w, 2), gates[1:]):
                want = dm._apply_on(gate, want, b)
                got = dm._kron_gate(got, gate)
        assert got.tobytes() == want.tobytes()


@contextlib.contextmanager
def blas_threads(threads):
    """numpy's OpenBLAS as it is ("default") or pinned to one thread ("pinned")."""
    if threads == "default":
        yield
        return
    pin = dm._openblas_threads()
    if pin is None:
        pytest.skip("numpy's BLAS exports no thread-count setter")
    saved = pin[0]()
    pin[1](1)
    try:
        yield
    finally:
        pin[1](saved)


class TestGue:
    def test_exactly_hermitian(self):
        rng = np.random.default_rng(4)
        h = dm.gue_hamiltonian(8, rng)
        assert np.max(np.abs(h - h.conj().T)) == 0

    def test_trace_h2_normalization(self):
        rng = np.random.default_rng(5)
        d, n = 4, 10_000
        vals = np.empty(n)
        for i in range(n):
            h = dm.gue_hamiltonian(d, rng)
            vals[i] = np.trace(h @ h).real / d
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0) <= 5 * se

    def test_zero_mean_trace(self):
        rng = np.random.default_rng(6)
        d, n = 4, 10_000
        vals = np.array([np.trace(dm.gue_hamiltonian(d, rng)).real for _ in range(n)])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean()) <= 5 * se


class TestEvolve:
    def test_time_zero(self):
        rng = np.random.default_rng(7)
        h = dm.gue_hamiltonian(4, rng)
        np.testing.assert_allclose(dm.evolve(h, 0.0), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        e = np.array([0.5, -1.0, 2.0])
        u = dm.evolve(np.diag(e).astype(complex), 1.7)
        np.testing.assert_allclose(u, np.diag(np.exp(-1j * e * 1.7)), atol=1e-12)

    def test_one_parameter_group(self):
        rng = np.random.default_rng(8)
        h = dm.gue_hamiltonian(4, rng)
        lhs = dm.evolve(h, 0.3) @ dm.evolve(h, 1.1)
        np.testing.assert_allclose(lhs, dm.evolve(h, 1.4), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            dm.evolve(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


STATE_CALLERS = {
    "regulated_oto": lambda rho: oracles.regulated_oto(rho, np.eye(2), OtoSpec((Z,), (Z,))),
    "generalized_F": lambda rho: fp.generalized_F(dm.trivial_ensemble(1), rho, 1),
    "generalized_G": lambda rho: fp.generalized_G(dm.trivial_ensemble(1), rho, 2),
    "renyi_entropy": lambda rho: sc.renyi_entropy(rho, 2),
}


class TestCheckState:
    @pytest.mark.parametrize("caller", sorted(STATE_CALLERS))
    def test_one_validation_for_every_caller(self, caller):
        call = STATE_CALLERS[caller]
        # an eigenvalue of -5e-11 is rounding noise, inside the one tolerance
        call(np.diag([1 + 5e-11, -5e-11]).astype(complex))
        for bad, match in [(np.diag([1.5, -0.5]), "positive semidefinite"),
                           (np.diag([1 + 1e-9, -1e-9]), "positive semidefinite"),
                           (np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermitian"),
                           (np.eye(2), "unit trace"),
                           (np.ones((2, 3)) / 2, "square")]:
            with pytest.raises(ValueError, match=match):
                call(bad.astype(complex))

    @pytest.mark.parametrize("caller", ["generalized_F", "generalized_G", "regulated_oto"])
    def test_a_state_root_takes_one_eigh(self, monkeypatch, caller):
        # its positivity test reads the eigh eigenvalues: no eigvalsh besides
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, real=real, name=name: calls.append(name) or real(a))
        STATE_CALLERS[caller](np.diag([0.75, 0.25]).astype(complex))
        assert calls == ["eigh"]


class TestPermutationOperator:
    def test_identity(self):
        np.testing.assert_allclose(wg.permutation_matrix((0, 1), 3), np.eye(9), atol=0)

    def test_swap_equals_pauli_sum(self):
        # k=2 swap at d=2 equals (1/d) sum_P P (x) P^dag
        acc = np.zeros((4, 4), dtype=complex)
        for p in paulialg.enumerate_paulis(1):
            m = dm.pauli_to_dense(p)
            acc += np.kron(m, m.conj().T)
        np.testing.assert_allclose(wg.permutation_matrix((1, 0), 2), acc / 2, atol=1e-12)

    def test_trace_pair_cycle_count(self):
        for sigma in wg.permutations_of(3):
            for lam in wg.permutations_of(3):
                lhs = np.trace(wg.permutation_matrix(sigma, 3) @ wg.permutation_matrix(lam, 3))
                cycles = len(wg.cycles_of(wg.compose(sigma, lam)))
                assert lhs == pytest.approx(3**cycles)

    def test_composition_exact(self):
        for sigma in wg.permutations_of(3):
            for tau in wg.permutations_of(3):
                lhs = wg.permutation_matrix(sigma, 2) @ wg.permutation_matrix(tau, 2)
                assert np.array_equal(lhs, wg.permutation_matrix(wg.compose(sigma, tau), 2))

    def test_guard(self):
        with pytest.raises(ValueError):
            wg.permutation_matrix(tuple(range(7)), 4)


class TestKfoldChannel:
    def test_pauli_twirl(self):
        rng = np.random.default_rng(10)
        ens = dm.pauli_ensemble(1)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        res = dm.kfold_channel_apply(ens, a, 1)
        np.testing.assert_allclose(res.matrix, np.trace(a) / 2 * np.eye(2), atol=1e-12)
        assert res.method == "exact"

    def test_trivial_ensemble(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        res = dm.kfold_channel_apply(dm.trivial_ensemble(1), a, 2)
        np.testing.assert_allclose(res.matrix, a, atol=0)

    def test_clifford_twofold_on_pp_lands_in_span(self):
        # single-qubit Clifford, k=2, A = P (x) P: output in span{I, SWAP}
        ens = cg.clifford_ensemble(1)
        p = dm.pauli_to_dense(from_label("X"))
        res = dm.kfold_channel_apply(ens, np.kron(p, p), 2)
        ident = np.eye(4).reshape(-1)
        swap = wg.permutation_matrix((1, 0), 2).reshape(-1)
        basis = np.stack([ident, swap], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, res.matrix.reshape(-1), rcond=None)
        residual = res.matrix.reshape(-1) - basis @ coeffs
        assert np.linalg.norm(residual) <= 1e-10

    def test_sampled_haar_matches_reference(self):
        d, k, n = 2, 2, 10_000
        ens = dm.haar_ensemble(d, seed=77)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        res = dm.kfold_channel_apply(ens, a, k, mc_samples=n)
        ref = dm.haar_channel_reference(a, k, d)
        assert np.all(np.abs(res.matrix - ref) <= 5 * res.std_error + 1e-12)

    def test_empty_and_guard_errors(self):
        ens = dm.haar_ensemble(2, seed=1)
        with pytest.raises(ValueError):
            dm.kfold_channel_apply(ens, np.eye(4), 2)  # sampler without budget

    def test_std_error_is_the_unbiased_spread(self):
        n = 50
        ens = dm.haar_ensemble(2, seed=1)
        a = np.diag([1.0, -1.0]) + 0.5j * np.ones((2, 2))
        res = dm.kfold_channel_apply(ens, a, 1, mc_samples=n)
        terms = np.stack([u.conj().T @ a @ u for u in ens.sample_block(1, n)])
        np.testing.assert_allclose(res.matrix, terms.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.std_error, terms.std(axis=0, ddof=1) / np.sqrt(n),
                                   rtol=0, atol=1e-12)


class TestEnsembleAverage:
    def test_discrete_weighted_sums(self):
        mats = tuple(dm.haar_unitary(2, np.random.default_rng(s)) for s in range(3))
        weights = (0.5, 0.3, 0.2)
        ens = dm.Ensemble("three", 2, weights=weights, elements=mats)
        f = lambda u: complex(np.trace(u))
        single = ens.average(f)
        expect = 0j
        for w, u in zip(weights, mats):
            expect += w * f(u)
        assert (single.value, single.n_samples, single.method) == (expect, 3, "exact")
        g = lambda u, v: abs(np.trace(u.conj().T @ v)) ** 2
        pairs = ens.average(g, pairs=True)
        expect = 0.0
        for wu, u in zip(weights, mats):  # i-major, (w_i * w_j) * f
            for wv, v in zip(weights, mats):
                expect += (wu * wv) * g(u, v)
        assert (pairs.value, pairs.n_samples, pairs.std_error) == (expect, 9, 0.0)

    def test_sampler_pairs_are_consecutive_draws(self):
        ens = dm.haar_ensemble(2, seed=4)
        term = lambda u, v: abs(np.trace(u.conj().T @ v)) ** 2
        g = lambda us, vs: np.array([term(u, v) for u, v in zip(us, vs)])  # per chunk
        est = ens.average(g, pairs=True, mc_samples=30)
        draws = ens.sample_block(4, 60)
        vals = np.array([term(draws[2 * i], draws[2 * i + 1]) for i in range(30)])
        assert est.value == float(vals.mean())
        assert est.std_error == float(vals.std(ddof=1) / math.sqrt(30))
        assert (est.n_samples, est.seed, est.method) == (30, 4, "monte-carlo")

    def test_mc_estimate_error_bars(self):
        rng = np.random.default_rng(5)
        re, im = rng.normal(size=40), rng.normal(size=40)
        real = dm.mc_estimate(re, 1)
        assert real.value == float(re.mean())
        assert real.std_error == float(re.std(ddof=1) / math.sqrt(40))
        cplx = dm.mc_estimate(re + 1j * im, 1)
        assert cplx.value == complex((re + 1j * im).mean())
        assert cplx.std_error == math.sqrt((re.var(ddof=1) + im.var(ddof=1)) / 40)


class TestStreamedAverage:
    # pairs around the chunk boundaries, where pair i must still be draws 2i
    # and 2i+1 of the one stream (single draws: test_otolab.TestStackedCorrelator)
    CHUNK = dm.MC_CHUNK

    @pytest.mark.parametrize("mc_samples", [CHUNK // 2 - 1, CHUNK // 2, CHUNK // 2 + 1,
                                            CHUNK - 1, CHUNK, CHUNK + 1])
    def test_pairs_match_the_per_draw_oracle(self, mc_samples):
        k = 2
        est = fp.frame_potential_mc(dm.haar_ensemble(4, seed=22), k, mc_samples)
        rng = np.random.default_rng([22, 0])
        draws = [dm.haar_unitary(4, rng) for _ in range(2 * mc_samples)]
        vals = [(abs(np.trace(draws[2 * i].conj().T @ draws[2 * i + 1])) ** 2) ** k
                for i in range(mc_samples)]
        want = dm.mc_estimate(np.array(vals), 22)
        assert (est.value, est.std_error, est.n_samples) == (want.value, want.std_error, mc_samples)

    def test_stream_holds_at_most_a_chunk(self):
        sizes = []

        def sampler(rng, size):
            sizes.append(size)
            return dm.haar_unitary(2, rng, size)

        ens = dm.Ensemble("recorded", 2, sampler=sampler, seed=1)
        ens.average(lambda u: dm.trace(u).real, mc_samples=2 * self.CHUNK + 3)
        assert sizes == [self.CHUNK, self.CHUNK, 3]

    def test_chunk_size(self):
        # MC_CHUNK up to d = 64; from d = 128 on, 4 MiB of complex draws
        assert [dm.chunk_size(2**n) for n in range(1, 7)] == [self.CHUNK] * 6
        assert [dm.chunk_size(2**n) for n in range(7, 13)] == [16, 4, 2, 2, 2, 2]
        assert dm.chunk_size(2**20) == 2

    def test_an_average_holds_one_chunk(self):
        # before each draw the sampler checks that the chunk it returned last,
        # views of it included, is no longer referenced anywhere
        returned = []

        def sampler(rng, size):
            assert all(ref() is None for ref in returned), "the last chunk is still held"
            out = dm.haar_unitary(2, rng, size)
            returned.append(weakref.ref(out))
            return out

        ens = dm.Ensemble("recorded", 2, sampler=sampler, seed=1)
        count = 2 * self.CHUNK + 3
        ens.average(lambda u: dm.trace(u).real, mc_samples=count)
        ens.average(lambda u, v: dm.trace(dm.dagger(u) @ v).real, pairs=True,
                    mc_samples=count)
        dm.kfold_channel_apply(ens, np.diag([1.0, -1.0]), 1, mc_samples=count)
        assert len(returned) == 3 + 5 + 3
        assert all(ref() is None for ref in returned)

    def test_tableau_chunks_are_counted_by_draws(self):
        # at d = 4096 the byte budget gives chunks of 2 d x d draws; a
        # tableau holds 2n ints, so chunks after the first are MC_CHUNK
        ens = cg.clifford_ensemble(12, seed=1)
        chunks = list(ens.stream(1, 2 * self.CHUNK + 5))
        assert [len(c) for c in chunks] == [2, self.CHUNK, self.CHUNK, 3]
        assert sum(chunks, []) == ens.sample_block(1, 2 * self.CHUNK + 5)

    def test_listed_draws_reach_f_one_at_a_time(self):
        # a Clifford chunk is a list of tableaux: f gets one draw, or the pair
        # (2i, 2i + 1), per call, in draw order, across chunk edges
        ens = cg.clifford_ensemble(2, seed=6)
        count = self.CHUNK + 5
        seen = []
        est = ens.average(lambda c: seen.append(c) or len(seen), mc_samples=count)
        assert seen == ens.sample_block(6, count)
        assert est.value == (count + 1) / 2
        pairs = []
        ens.average(lambda a, b: pairs.append((a, b)) or len(pairs), pairs=True, mc_samples=count)
        draws = ens.sample_block(6, 2 * count)
        assert pairs == list(zip(draws[0::2], draws[1::2]))

    def test_byte_budget_keeps_the_draws(self, monkeypatch):
        d, count = 4, 2 * self.CHUNK + 3
        states = []

        def sampler(rng, size):
            out = dm.haar_unitary(d, rng, size)
            states.append(rng.bit_generator.state)
            return out

        ens = dm.Ensemble("recorded", d, sampler=sampler)
        block = ens.sample_block(3, count)
        monkeypatch.setattr(dm, "CHUNK_BYTES", 7 * 16 * d * d)  # 6 draws per chunk
        chunks = list(ens.stream(3, count))
        assert [len(c) for c in chunks] == [6] * (count // 6) + [count % 6]
        assert np.concatenate(chunks).tobytes() == block.tobytes()
        assert states[-1] == states[0]

    @pytest.mark.parametrize("ens", [dm.haar_ensemble(4), dm.brickwork_ensemble(3, 2),
                                     cg.clifford_ensemble(2)], ids=lambda ens: ens.label)
    def test_byte_budget_keeps_the_estimates(self, monkeypatch, ens):
        n = ens.dim.bit_length() - 1
        x, z = paulialg.single_site(n, 0, "X"), paulialg.single_site(n, n - 1, "Z")

        ens = replace(ens, seed=8)

        def estimates():
            return (fp.frame_potential_mc(ens, 2, 45),
                    otolab.oto_ensemble_average(ens, OtoSpec((x, x), (z, z)), mc_samples=45))

        want = estimates()
        monkeypatch.setattr(dm, "CHUNK_BYTES", 16 * ens.dim**2 * 4)  # 4 draws per chunk
        assert dm.chunk_size(ens.dim) == 4
        assert estimates() == want

    @pytest.mark.parametrize("ens", [dm.haar_ensemble(4), dm.gue_evolution_ensemble(2, 0.5),
                                     dm.brickwork_ensemble(2, 2), cg.clifford_ensemble(2)],
                             ids=lambda ens: ens.label)
    def test_stream_is_the_block(self, ens):
        count = self.CHUNK + 5
        block = ens.sample_block(3, count)
        streamed = [el for chunk in ens.stream(3, count) for el in chunk]
        assert len(streamed) == len(block) == count
        for a, b in zip(block, streamed):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestBlockwise:
    # blocks of ASSEMBLY_BYTES: the whole 18-draw stack at d = 16, 4 draws at
    # d = 64 and 1 at d = 128, so 9 pairs cross the block edges
    @pytest.mark.parametrize("d", [16, 64, 128])
    def test_blocks_give_the_whole_stack_values(self, d):
        n = d.bit_length() - 1
        draws = dm.haar_unitary(d, np.random.default_rng(d), 18)
        a, b = draws[0::2], draws[1::2]
        pair_trace = lambda u, v: dm.trace(dm.dagger(u) @ v)
        assert dm.blockwise(pair_trace, a, b).tobytes() == pair_trace(a, b).tobytes()
        x, z = paulialg.single_site(n, 0, "X"), paulialg.single_site(n, n - 1, "Z")
        correlators = lambda u: otolab.oto_correlator(u, OtoSpec((x, z), (z, x)))
        assert dm.blockwise(correlators, draws).tobytes() == correlators(draws).tobytes()
        assert dm.blockwise(pair_trace, a[0], b[0]) == pair_trace(a[0], b[0])


class TestWorkingSet:
    # numpy reports its buffers to tracemalloc. At d = 256 a chunk is 4 draws,
    # 4 MiB; an average peaks at about 5 chunks, while a Haar chunk is drawn
    @pytest.mark.parametrize("estimator", ["frame_potential_mc", "oto_ensemble_average"])
    def test_peak_is_a_few_chunks(self, estimator):
        ens = dm.haar_ensemble(256, seed=1)
        x, z = paulialg.single_site(8, 0, "X"), paulialg.single_site(8, 7, "Z")
        average = {
            "frame_potential_mc": lambda: fp.frame_potential_mc(ens, 1, 8),
            "oto_ensemble_average": lambda: otolab.oto_ensemble_average(
                ens, OtoSpec((x, x), (z, z)), mc_samples=16),
        }[estimator]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            average()
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**22
        assert seconds < 1.0

    def test_deep_brickwork_draw_is_a_few_chunks(self):
        # n = 2, depth 8192: 4096 gates, 1 MiB, a circuit. A 64-circuit draw
        # takes the gates of 4 circuits (CHUNK_BYTES) at a time, not 64 MiB
        # at once; the peak is that stack and its Haar draw's temporaries
        ens = dm.brickwork_ensemble(2, 8192)
        tracemalloc.start()
        try:
            stack = ens.sampler(np.random.default_rng(3), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dm.CHUNK_BYTES
        rng = np.random.default_rng(3)
        singles = np.concatenate([ens.sampler(rng, 1) for _ in range(64)])
        assert stack.tobytes() == singles.tobytes()


@pytest.mark.skipif(dm._openblas_threads() is None,
                    reason="numpy's BLAS exports no thread-count setter")
class TestOpenblasPin:
    # a d = 64 brickwork chunk splits into sub-stacks, so its stream pins
    # OpenBLAS to one thread from the first chunk to the end; a Haar stream
    # never pools. 100 pairs are chunks of 64, 64, 64 and 8 draws.
    @pytest.fixture
    def blas_threads(self, monkeypatch):
        monkeypatch.setattr(dm, "_workers", lambda: 2)
        get, set_ = dm._openblas_threads()
        saved = get()
        set_(2)
        try:
            yield get
        finally:
            set_(saved)

    def test_brickwork_stream_pins_and_restores(self, blas_threads):
        seen = []

        def reads_the_count(a, b):
            seen.append(blas_threads())
            return dm.trace(a).real

        dm.brickwork_ensemble(6, 2, seed=1).average(reads_the_count, pairs=True,
                                                    mc_samples=100)
        assert seen == [1] * 4 and blas_threads() == 2
        dm.brickwork_ensemble(6, 2).sampler(np.random.default_rng(1), 8)
        assert blas_threads() == 2

    def test_restored_when_the_integrand_raises(self, blas_threads):
        seen = []

        def fails_on_chunk_two(a, b):
            seen.append(blas_threads())
            if len(seen) == 2:
                raise RuntimeError("integrand failed")
            return dm.trace(a).real

        # the held traceback keeps the stream alive: only closing it unpins
        with pytest.raises(RuntimeError, match="integrand failed") as failure:
            dm.brickwork_ensemble(6, 2, seed=1).average(fails_on_chunk_two, pairs=True,
                                                        mc_samples=100)
        assert seen == [1, 1] and blas_threads() == 2 and failure.type is RuntimeError

    def test_haar_stream_is_never_pinned(self, blas_threads):
        seen = []

        def reads_the_count(a, b):
            seen.append(blas_threads())
            return dm.trace(a).real

        dm.haar_ensemble(64, seed=1).average(reads_the_count, pairs=True, mc_samples=100)
        assert seen == [2] * 4 and blas_threads() == 2


class TestMonteCarloGuard:
    # one draw has no spread: kfold_channel_apply used to report a std error of 0;
    # past MAX_MC_SAMPLES an average used to run until memory was gone; a
    # sampler ensemble's own seed is the only one an estimator draws from
    ESTIMATORS = {
        "average": lambda ens, m: ens.average(lambda u: dm.trace(u).real, mc_samples=m),
        "oto_ensemble_average": lambda ens, m: otolab.oto_ensemble_average(
            ens, OtoSpec((Z, Z), (Z, Z)), mc_samples=m),
        "measure_alpha": lambda ens, m: otolab.measure_alpha(ens, (Z,), 1, mc_samples=m),
        "channel_coefficients_direct": lambda ens, m: otolab.channel_coefficients_direct(
            ens, (Z,), 1, mc_samples=m),
        "frame_potential_mc": lambda ens, m: fp.frame_potential_mc(ens, 1, m),
        "generalized_F": lambda ens, m: fp.generalized_F(ens, np.eye(2) / 2, 1, mc_samples=m),
        "generalized_G": lambda ens, m: fp.generalized_G(ens, np.eye(2) / 2, 1, mc_samples=m),
        "kfold_channel_apply": lambda ens, m: dm.kfold_channel_apply(
            ens, np.diag([1, -1]), 1, mc_samples=m),
        "thermal_W": lambda ens, m: fp.thermal_W(
            dm.Ensemble("gue", 2, sampler=lambda rng, size: dm.gue_hamiltonian(2, rng, size),
                        seed=ens.seed),
            0.0, 0.0, 1, m),
    }

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_a_sampler_without_a_seed_is_rejected(self, name):
        with pytest.raises(ValueError, match="ensemble '.+' needs a seed"):
            self.ESTIMATORS[name](dm.haar_ensemble(2), 10)

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_one_sample_is_rejected(self, name):
        with pytest.raises(ValueError, match="mc_samples >= 2"):
            self.ESTIMATORS[name](dm.haar_ensemble(2, seed=1), 1)

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_samples_past_the_cap_are_rejected(self, name):
        with pytest.raises(ValueError, match=f"mc_samples >= 2 and <= {limits.MAX_MC_SAMPLES},"):
            self.ESTIMATORS[name](dm.haar_ensemble(2, seed=1), limits.MAX_MC_SAMPLES + 1)

    def test_cap_is_inclusive(self):
        assert limits.check_mc_samples(limits.MAX_MC_SAMPLES) == limits.MAX_MC_SAMPLES


class TestHaarChannelReference:
    def test_k1(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(
            dm.haar_channel_reference(a, 1, 3), np.trace(a) / 3 * np.eye(3), atol=1e-12)

    def test_k2_explicit_formula(self):
        rng = np.random.default_rng(14)
        d = 2
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = wg.permutation_matrix((1, 0), d)
        expect = (np.eye(4) * np.trace(a) + s * np.trace(s @ a)
                  - s * np.trace(a) / d - np.eye(4) * np.trace(s @ a) / d) / (d * d - 1)
        np.testing.assert_allclose(dm.haar_channel_reference(a, 2, d), expect, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_fixes_permutation_operators(self, k):
        d = 4
        for lam in wg.permutations_of(k):
            w = wg.permutation_matrix(lam, d)
            np.testing.assert_allclose(dm.haar_channel_reference(w, k, d), w, atol=1e-10)

    def test_k_exceeds_d(self):
        # k=3 > d=2: Q is singular and the reference uses its pseudo-inverse
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        ref = dm.haar_channel_reference(a, 3, 2)
        res = dm.kfold_channel_apply(dm.haar_ensemble(2, seed=18), a, 3, mc_samples=20_000)
        assert np.all(np.abs(res.matrix - ref) <= 5 * res.std_error + 1e-12)
        # n=1 Cliffords are a 3-design: their exact 24-element twirl is Haar's
        cliff = dm.kfold_channel_apply(cg.clifford_ensemble(1), a, 3)
        np.testing.assert_allclose(ref, cliff.matrix, atol=1e-12)
        for pi in wg.permutations_of(3):
            w = wg.permutation_matrix(pi, 2)
            np.testing.assert_allclose(dm.haar_channel_reference(w, 3, 2), w, atol=1e-12)


class TestRandomSignStates:
    def test_scaling_and_bound(self):
        rng = np.random.default_rng(15)
        est = oracles.random_sign_state_overlap(1024, 10_000, rng)
        assert est.value <= 2 / np.sqrt(1024)
        # half-normal mean of the CLT limit: sqrt(2/(pi d))
        assert abs(est.value - np.sqrt(2 / (np.pi * 1024))) <= 6 * est.std_error

    def test_identical_states(self):
        signs = np.ones(16)
        assert abs(np.dot(signs, signs)) / 16 == 1.0

    def test_halving(self):
        rng = np.random.default_rng(16)
        m1 = oracles.random_sign_state_overlap(1024, 20_000, rng).value
        m2 = oracles.random_sign_state_overlap(4096, 20_000, rng).value
        assert abs(m2 / m1 - 0.5) <= 0.05


class TestEnsembles:
    def test_discrete_weight_validation(self):
        with pytest.raises(ValueError):
            dm.Ensemble("bad", 2, weights=(0.5, 0.2), elements=(np.eye(2), np.eye(2)))

    def test_sample_block_deterministic(self):
        ens = dm.haar_ensemble(4, seed=5)
        a = ens.sample_block(5, 3)
        b = ens.sample_block(5, 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = ens.sample_block(5, 3, block=1)
        assert not np.array_equal(a[0], c[0])

    def test_pauli_x_elements_fit_the_largest_pauli_table(self, monkeypatch):
        # 2^n elements, at most the 4^MAX_ENUM_QUBITS that enumerate_paulis allows
        monkeypatch.setattr(limits, "MAX_ENUM_QUBITS", 1)
        assert len(dm.pauli_x_ensemble(2).elements) == 4
        with pytest.raises(ValueError, match="enumeration guard exceeded: 2\\^3 elements > 4\\^1"):
            dm.pauli_x_ensemble(3)

    def test_exact_pair_budget_comes_before_the_first_pair(self, monkeypatch):
        monkeypatch.setattr(limits, "MAX_EXACT_PAIRS", 15)
        calls = []
        ens = dm.pauli_ensemble(1)
        with pytest.raises(ValueError, match="enumeration guard exceeded: 4\\^2 pairs > 15"):
            ens.average(lambda a, b: calls.append(a) or 1.0, pairs=True)
        assert calls == []
        assert ens.average(lambda a: 1.0).value == pytest.approx(1.0)  # single elements: no budget

    def test_pauli_x_order(self):
        # element m carries X on qubit j iff bit j of m is set
        labels = [p.label() for p in dm.pauli_x_ensemble(2).elements]
        assert labels == ["II", "XI", "IX", "XX"]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pauli_x_elements_are_the_label_built_strings(self, n):
        # built from packed rows, not by parsing 2^n labels: the same tuple
        labels = ("".join("IX"[m >> j & 1] for j in range(n)) for m in range(2**n))
        assert dm.pauli_x_ensemble(n).elements == tuple(map(from_label, labels))

    def test_brickwork_gates_fit_a_chunk(self):
        # a circuit holds at most 4096 gates: 8192 layers at n = 2
        assert limits.MAX_BRICKWORK_GATES == 4096
        dm.brickwork_ensemble(2, 8192)
        with pytest.raises(ValueError, match="4097 gates; a chunk holds at most 4096"):
            dm.brickwork_ensemble(2, 8193)
        with pytest.raises(ValueError, match="at most 4096"):
            dm.brickwork_ensemble(3, 10**8)

    def test_brickwork_needs_a_layer(self):
        with pytest.raises(ValueError, match="depth >= 1"):
            dm.brickwork_ensemble(2, 0)

    def test_brickwork_unitary(self):
        ens = dm.brickwork_ensemble(3, 4, seed=9)
        u = ens.sample_block(9, 1)[0]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_hamiltonian_evolution_ensemble(self):
        rng = np.random.default_rng(77)
        h = dm.gue_hamiltonian(4, rng)
        ens = oracles.hamiltonian_evolution_ensemble(h, t_max=100.0, seed=13)
        draws = ens.sample_block(13, 3)
        for u in draws:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
        again = ens.sample_block(13, 3)
        assert all(np.array_equal(a, b) for a, b in zip(draws, again))
