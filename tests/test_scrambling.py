"""Tests for Choi-state scrambling diagnostics and the catch game."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from designlab import cli
from designlab import densemat as dm
from designlab import framepot as fp
from designlab import otolab, paulialg
from designlab import scrambling as sc
from designlab.paulialg import from_label

import oracles


def swap_unitary():
    s = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            s[b * 2 + a, a * 2 + b] = 1.0
    return s.astype(complex)


def partial_trace(rho, keep):
    """Trace out the qubits whose mask entry is 0 (qubit 0 = most
    significant factor), one np.trace per qubit, lowest first: the oracle of
    scrambling._choi_marginal."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError("partial_trace needs a 2^n-dimensional operator")
    if len(keep) != n or any(b not in (0, 1) for b in keep):
        raise ValueError("keep mask must be a 0/1 sequence of length n")
    keep_idx = [i for i, b in enumerate(keep) if b]
    drop = [i for i in range(n) if i not in keep_idx]
    t = rho.reshape([2] * (2 * n))
    for count, q in enumerate(drop):
        axis = q - sum(1 for dqq in drop[:count] if dqq < q)
        t = np.trace(t, axis1=axis, axis2=axis + t.ndim // 2)
    m = 2 ** len(keep_idx)
    return t.reshape(m, m)


class TestTensorAndPartialTrace:
    def test_epr_partial_trace(self):
        epr = np.zeros(4, dtype=complex)
        epr[0] = epr[3] = 1 / np.sqrt(2)
        rho = np.outer(epr, epr.conj())
        np.testing.assert_allclose(partial_trace(rho, (1, 0)), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, (0, 1)), np.eye(2) / 2, atol=1e-12)

    def test_trace_preservation(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        for mask in itertools.product((0, 1), repeat=3):
            if not any(mask):
                continue
            assert np.trace(partial_trace(rho, mask)) == pytest.approx(1.0, abs=1e-12)

    def test_mask_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (1, 0, 1))


class TestChoiState:
    def test_identity_gives_epr(self):
        state = sc.choi_state(np.eye(2))
        want = np.zeros(4, dtype=complex)
        want[0] = want[3] = 1 / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)

    def test_norm_random(self):
        rng = np.random.default_rng(0)
        state = sc.choi_state(dm.haar_unitary(4, rng))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_swap_pairs_registers_crosswise(self):
        # SWAP pairs in1<->out2 and in2<->out1: both marginals maximally mixed,
        # and the (in1, out2) marginal is a pure EPR pair
        state = sc.choi_state(swap_unitary())
        # qubit layout: (in1, in2, out1, out2)
        rho_in1_out2 = sc._choi_marginal(state, (0,), (1,))
        epr = np.zeros(4, dtype=complex)
        epr[0] = epr[3] = 1 / math.sqrt(2)
        np.testing.assert_allclose(rho_in1_out2, np.outer(epr, epr.conj()), atol=1e-10)

    def test_input_marginal_maximally_mixed(self):
        rng = np.random.default_rng(1)
        state = sc.choi_state(dm.haar_unitary(4, rng))
        rho_in = sc._choi_marginal(state, (0, 1), ())
        np.testing.assert_allclose(rho_in, np.eye(4) / 4, atol=1e-10)


class TestChoiMarginal:
    @staticmethod
    def assert_marginals_are_the_oracle(n, seed, stride=1):
        """Every stride-th (A, C) mask from the seed's offset on."""
        state = sc.choi_state(dm.haar_unitary(2**n, np.random.default_rng(seed)))
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        masks = itertools.product((0, 1), repeat=2 * n)
        for mask in itertools.islice(masks, seed % stride, None, stride):
            in_qubits = [q for q in range(n) if mask[q]]
            out_qubits = [q for q in range(n) if mask[n + q]]
            got = sc._choi_marginal(state, in_qubits, out_qubits)
            assert got.tobytes() == partial_trace(rho, mask).tobytes(), mask

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_marginal_keeps_the_partial_trace_bits(self, n):
        self.assert_marginals_are_the_oracle(n, 20 + n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_n5_marginals_keep_the_partial_trace_bits(self, seed):
        # 128 of the 1024 masks a seed, each seed its own residue mod 8
        self.assert_marginals_are_the_oracle(5, seed, stride=8)

    def test_working_set_has_no_choi_density(self):
        # n = 5: the d^2-sided density alone is 16 MiB; the largest marginal
        # product here (rho_ABD, 64 sides) is 1 MiB
        u = dm.haar_unitary(32, np.random.default_rng(3))
        part = sc.IoPartition(5, (0,), (4,))
        tracemalloc.start()
        try:
            lhs, _ = sc.oto_renyi2_check(u, part)
            sc.mutual_info_2(u, part, lhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRenyiEntropy:
    def test_maximally_mixed(self):
        for m in (1, 2, 3):
            rho = np.eye(2**m) / 2**m
            for k in (1, 2, 3):
                assert sc.renyi_entropy(rho, k) == pytest.approx(m, abs=1e-12)

    def test_pure_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        for k in (1, 2, 4):
            assert sc.renyi_entropy(rho, k) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_example(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert sc.renyi_entropy(rho, 2) == pytest.approx(math.log2(8 / 5), abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            assert sc.renyi_entropy(rho, 2) >= sc.renyi_entropy(rho, 3) - 1e-12
            assert sc.renyi_entropy(rho, 1) >= sc.renyi_entropy(rho, 2) - 1e-12

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            sc.renyi_entropy(np.diag([1.5, -0.5]).astype(complex), 2)


class TestRegionPaulis:
    def test_enumeration_order_embedded(self):
        # region digit j sits on qubits[j]: (2, 0) puts the first letter on qubit 2
        labels = [p.label() for p in sc._region_paulis(3, (2, 0))]
        assert labels == [b + "I" + a for a, b in itertools.product("IXZY", repeat=2)]

    def test_empty_region_is_the_identity(self):
        assert sc._region_paulis(2, ()) == [paulialg.identity(2)]


class TestRenyi2Identity:
    def test_identity_unitary(self):
        part = sc.IoPartition(2, (0,), (1,))
        lhs, rhs = sc.oto_renyi2_check(np.eye(4), part)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_swap(self):
        part = sc.IoPartition(2, (0,), (1,))
        lhs, rhs = sc.oto_renyi2_check(swap_unitary(), part)
        # commutation counting gives (10 - 6)/16 on the lhs
        assert lhs == pytest.approx(0.25, abs=1e-12)
        assert rhs == pytest.approx(0.25, abs=1e-12)

    def test_random_unitaries_all_placements(self):
        rng = np.random.default_rng(3)
        placements = [sc.IoPartition(2, a, d)
                      for a in ((0,), (1,)) for d in ((0,), (1,))]
        for _ in range(50):
            u = dm.haar_unitary(4, rng)
            for part in placements:
                lhs, rhs = sc.oto_renyi2_check(u, part)
                assert abs(lhs - rhs) <= 1e-10

    def test_larger_regions(self):
        rng = np.random.default_rng(4)
        u = dm.haar_unitary(8, rng)
        part = sc.IoPartition(3, (0, 2), (1,))
        lhs, rhs = sc.oto_renyi2_check(u, part)
        assert abs(lhs - rhs) <= 1e-10


class TestRenyiKIdentity:
    def test_k2_reduces_to_renyi2(self):
        rng = np.random.default_rng(5)
        u = dm.haar_unitary(4, rng)
        part = sc.IoPartition(2, (0,), (1,))
        assert sc.renyi_k_oto(u, part, 2) == pytest.approx(sc.oto_renyi2_check(u, part))

    def test_identity_unitary_k3(self):
        part = sc.IoPartition(2, (0,), (1,))
        lhs, rhs = sc.renyi_k_oto(np.eye(4), part, 3)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_random_unitaries_k3(self):
        rng = np.random.default_rng(6)
        part = sc.IoPartition(2, (0,), (1,))
        for _ in range(10):
            u = dm.haar_unitary(4, rng)
            lhs, rhs = sc.renyi_k_oto(u, part, 3)
            assert abs(lhs - rhs) <= 1e-8

    @staticmethod
    def per_tuple_lhs(u, part, k):
        """The constrained Pauli average with every dense operand of a tuple
        built afresh, as it ran before the tables: the oracle of renyi_k_oto."""
        d = 2**part.n
        a_paulis = sc._region_paulis(part.n, part.a_qubits)
        d_paulis = sc._region_paulis(part.n, part.d_qubits)
        total, count = 0j, 0
        for a_free in itertools.product(a_paulis, repeat=k - 1):
            a_last = paulialg.mul_all(list(a_free)).adjoint()
            for d_free in itertools.product(d_paulis, repeat=k - 1):
                d_last = paulialg.mul_all(list(d_free)).adjoint()
                acc = np.eye(d, dtype=complex)
                for a_p, d_p in zip(a_free, d_free):
                    acc = acc @ dm.pauli_to_dense(a_p) @ (u.conj().T @ dm.pauli_to_dense(d_p) @ u)
                acc = acc @ dm.pauli_to_dense(a_last) @ (
                    u.conj().T @ dm.pauli_to_dense(d_last) @ u)
                total += np.trace(acc) / d
                count += 1
        return float((total / count).real)

    @pytest.mark.parametrize("n,a,dq,k", [(2, (0,), (1,), 3), (2, (0,), (1,), 4),
                                          (2, (1,), (0, 1), 3), (3, (0,), (2,), 3)])
    def test_tables_keep_the_per_tuple_bits(self, n, a, dq, k):
        u = dm.haar_unitary(2**n, np.random.default_rng(7))
        part = sc.IoPartition(n, a, dq)
        assert sc.renyi_k_oto(u, part, k)[0] == self.per_tuple_lhs(u, part, k)

    def test_each_dense_pauli_is_built_once(self, monkeypatch):
        # n=2, k=3: 520 pauli_to_dense calls when every tuple rebuilt its constrained pair
        part, k = sc.IoPartition(2, (0,), (1,)), 3
        calls = []
        for module in (sc, otolab):
            monkeypatch.setattr(module, "pauli_to_dense",
                                lambda p: calls.append(p) or dm.pauli_to_dense(p))
        lhs, rhs = sc.renyi_k_oto(dm.haar_unitary(4, np.random.default_rng(8)), part, k)
        assert abs(lhs - rhs) <= 1e-8
        budget = 0
        for qubits in (part.a_qubits, part.d_qubits):
            free = sc._region_paulis(2, qubits)
            last = {paulialg.mul_all(list(t)).adjoint() for t in itertools.product(free, repeat=k - 1)}
            budget += len(free) + len(last - set(free))
        assert len(calls) <= budget < 40


class TestMutualInfo:
    def test_swap_is_two_bits(self):
        part = sc.IoPartition(2, (0,), (1,))
        assert sc.mutual_info_2(swap_unitary(), part) == pytest.approx(2.0, abs=1e-10)

    def test_identity_is_zero(self):
        part = sc.IoPartition(2, (0,), (1,))
        assert sc.mutual_info_2(np.eye(4), part) == pytest.approx(0.0, abs=1e-10)

    def test_haar_near_maximal_on_average(self):
        # recovery needs d_D >= d_A: with one input qubit as A and the whole
        # output register as D, I2(A:BD) sits within 0.5 bits of 2 S_A = 2
        # on average (with D a single qubit the exact Haar mean of the
        # correlator average is 2/5, i.e. only ~1.34 bits)
        rng = np.random.default_rng(7)
        part = sc.IoPartition(2, (0,), (0, 1))
        vals = [sc.mutual_info_2(dm.haar_unitary(4, rng), part) for _ in range(100)]
        assert abs(np.mean(vals) - 2.0) <= 0.5


class TestCatchGame:
    def test_identity_perturbation(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = dm.haar_unitary(4, rng)
            assert sc.catch_game(u, {paulialg.identity(2): 1.0}) == pytest.approx(1.0, abs=1e-12)

    def test_probability_equals_p_identity(self):
        rng = np.random.default_rng(9)
        u = dm.haar_unitary(4, rng)
        x1 = paulialg.single_site(2, 0, "X")
        dist = {paulialg.identity(2): 0.7, x1: 0.3}
        assert sc.catch_game(u, dist) == pytest.approx(0.7, abs=1e-10)

    def test_no_identity_weight(self):
        rng = np.random.default_rng(10)
        u = dm.haar_unitary(4, rng)
        dist = {paulialg.single_site(2, 0, "X"): 0.5,
                paulialg.single_site(2, 1, "Z"): 0.5}
        assert sc.catch_game(u, dist) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_independence(self):
        rng = np.random.default_rng(11)
        dist = {paulialg.identity(2): 0.4,
                paulialg.single_site(2, 0, "Y"): 0.35,
                from_label("ZX"): 0.25}
        p1 = sc.catch_game(dm.haar_unitary(4, rng), dist)
        p2 = sc.catch_game(dm.haar_unitary(4, rng), dist)
        assert abs(p1 - p2) <= 1e-10
        assert p1 == pytest.approx(0.4, abs=1e-10)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            sc.catch_game(np.eye(4), {paulialg.identity(2): 0.5})

    def test_dense_guard_before_the_kron(self):
        # U (x) U* at n = 7 has side 16384: 4 GiB if it were built
        with pytest.raises(ValueError, match="dense guard exceeded"):
            sc.catch_game(np.eye(128), {paulialg.identity(7): 1.0})


def counted(monkeypatch, owner, name, modules=()):
    """A list that gains one entry per call of owner.name, also when it is
    called through its imported name in any of `modules`."""
    real, calls = getattr(owner, name), []

    def count(*args):
        calls.append(1)
        return real(*args)
    for module in (owner, *modules):
        monkeypatch.setattr(module, name, count)
    return calls


def scramble(capsys, k):
    code = cli.main(["scramble", "--unitary", "haar", "--n", "3", "--k", str(k),
                     "--partition", "A=0;D=2", "--seed", "1", "--check"])
    assert code == 0 and '"passed": true' in capsys.readouterr().out


class TestOneCheckPerCall:
    U = dm.haar_unitary(8, np.random.default_rng(40))
    PART = sc.IoPartition(3, (0,), (2,))
    X = paulialg.single_site(3, 0, "X")
    PUBLIC = {
        "choi_state": lambda u: sc.choi_state(u),
        "oto_renyi2_check": lambda u: sc.oto_renyi2_check(u, TestOneCheckPerCall.PART),
        "renyi_k_oto": lambda u: sc.renyi_k_oto(u, TestOneCheckPerCall.PART, 3),
        "mutual_info_2": lambda u: sc.mutual_info_2(u, TestOneCheckPerCall.PART),
        "catch_game": lambda u: sc.catch_game(u, {paulialg.identity(3): 1.0}),
        "oto_correlator": lambda u: otolab.oto_correlator(
            u, otolab.OtoSpec((TestOneCheckPerCall.X,), (TestOneCheckPerCall.X,))),
        "restricted_average_commutator": lambda u: oracles.restricted_average_commutator(
            u, (TestOneCheckPerCall.X,)),
    }

    @pytest.fixture
    def checks(self, monkeypatch):
        return counted(monkeypatch, dm, "check_unitary", (sc, otolab, fp, oracles))

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_each_public_call_checks_once(self, checks, name):
        self.PUBLIC[name](self.U)
        assert len(checks) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_scramble_checks_once_per_public_call(self, checks, capsys, k):
        # was 3 (k = 2) and 6 (k = 3): the Renyi check, then mutual_info_2
        scramble(capsys, k)
        assert len(checks) == 2

    @pytest.mark.parametrize("name", ["catch_game", "choi_state", "mutual_info_2",
                                      "oto_renyi2_check", "renyi_k_oto"])
    def test_dense_guard_before_the_unitary_check(self, monkeypatch, name):
        # n = 7: each d^2 side is 16384, past DENSE_GUARD, so no d^3 check runs
        def check_unitary(u):
            raise AssertionError("the unitary was checked before the dense guard")
        monkeypatch.setattr(sc, "check_unitary", check_unitary)
        part = sc.IoPartition(7, (0,), (6,))
        call = {"choi_state": lambda u: sc.choi_state(u),
                "oto_renyi2_check": lambda u: sc.oto_renyi2_check(u, part),
                "renyi_k_oto": lambda u: sc.renyi_k_oto(u, part, 3),
                "mutual_info_2": lambda u: sc.mutual_info_2(u, part),
                "catch_game": lambda u: sc.catch_game(u, {paulialg.identity(7): 1.0})}[name]
        with pytest.raises(ValueError, match="dense guard exceeded"):
            call(np.eye(2**7))

    def test_every_chunk_of_an_average_is_checked(self, checks):
        # 130 draws at d = 4: chunks of 64, 64 and 2
        spec = otolab.OtoSpec((paulialg.single_site(2, 0, "X"),), (paulialg.single_site(2, 1, "Z"),))
        otolab.oto_ensemble_average(dm.haar_ensemble(4, seed=2), spec, 130)
        assert len(checks) == 3

    def test_every_dense_element_of_the_oto_route_is_checked(self, checks):
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        ens = dm.Ensemble("two", 2, weights=(0.5, 0.5), elements=(np.eye(2), hadamard))
        fp.frame_potential_via_oto(ens, 1)
        assert len(checks) == 2
        bad = dm.Ensemble("bad", 2, weights=(1.0,), elements=(1.01 * np.eye(2),))
        with pytest.raises(ValueError, match="matrix is not unitary"):
            fp.frame_potential_via_oto(bad, 1)


class TestOneSpectrumPerEntropy:
    @pytest.fixture
    def spectra(self, monkeypatch):
        return counted(monkeypatch, np.linalg, "eigvalsh")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_eigvalsh_per_entropy(self, spectra, k):
        sc.renyi_entropy(np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex), k)
        assert len(spectra) == 1

    @pytest.mark.parametrize("k,entropies", [(2, 4), (3, 4)])
    def test_scramble_takes_one_spectrum_per_entropy(self, spectra, capsys, k, entropies):
        # was 8 and 10: check_state's positivity test took its own, and at
        # k = 3 mutual_info_2 also took S2(AC) for a Renyi-2 rhs it dropped
        scramble(capsys, k)
        assert len(spectra) == entropies
