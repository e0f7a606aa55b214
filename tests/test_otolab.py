"""Tests for OTO correlators, the exact Haar evaluator, channel
reconstruction, and the closed-form prediction table."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from designlab import cliffordgrp as cg
from designlab import densemat as dm
from designlab import limits, otolab, paulialg, wg
from designlab.otolab import (
    OtoSpec,
    haar_average_oto_exact,
    haar_average_oto_spec,
    oto_correlator,
    oto_correlator_exact,
    oto_ensemble_average,
    predict,
)
from designlab.paulialg import from_label, single_site

import oracles

X, Y, Z = from_label("X"), from_label("Y"), from_label("Z")
F = Fraction


def channel_coefficients_haar(b_ops, k: int) -> otolab.ChannelCoefficients:
    """Pauli-basis expansion of the exact Haar k-fold channel applied to
    B_1 (x) ... (x) B_k."""
    big = dm.pauli_to_dense(b_ops[0])
    for b in b_ops[1:]:
        big = np.kron(big, dm.pauli_to_dense(b))
    n = b_ops[0].n
    return otolab._expand_in_pauli_basis(dm.haar_channel_reference(big, k, 2**n), n, k)


def four_point_haar_dense(a, b, c, d_op) -> complex:
    """The general 4-point Haar formula for arbitrary dense operators."""
    d = a.shape[0]

    def ev(m):
        return np.trace(m) / d

    ac, bd = ev(a @ c), ev(b @ d_op)
    ea, eb, ec, ed = ev(a), ev(b), ev(c), ev(d_op)
    return complex(ac * eb * ed + ea * ec * bd - ea * ec * eb * ed
                   - (ac - ea * ec) * (bd - eb * ed) / (d * d - 1))


def commuting_8pt_paulis(n):
    """(A, C, B, D) with [A,C] = [B,D] = 0, AC != I, BD != I."""
    return (single_site(n, 0, "X"), single_site(n, 1, "X"),
            single_site(n, 0, "Z"), single_site(n, 1, "Z"))


def per_draw_correlator(u, spec):
    """The dense correlator chain for one unitary, as it ran before the
    chain was stacked: the oracle of the stacked chain."""
    d = 2**spec.n
    acc = np.eye(d, dtype=complex)
    for a, b in zip(*spec.expanded()):
        acc = acc @ dm.pauli_to_dense(a) @ (u.conj().T @ dm.pauli_to_dense(b) @ u)
    return complex(np.trace(acc) / d)


class TestStackedCorrelator:
    A_OPS = (single_site(2, 0, "X"), single_site(2, 1, "Y"))
    B_OPS = (single_site(2, 1, "Z"), single_site(2, 0, "X"))

    @pytest.mark.parametrize("ordering", otolab.ORDERINGS)
    def test_stack_matches_the_per_draw_chain(self, ordering):
        spec = OtoSpec(self.A_OPS, self.B_OPS, ordering)
        stack = dm.haar_unitary(4, np.random.default_rng(31), (3, 5))
        got = oto_correlator(stack, spec)
        assert got.shape == (3, 5)
        assert np.array_equal(got, [[per_draw_correlator(u, spec) for u in row] for row in stack])
        one = oto_correlator(stack[1, 2], spec)
        assert type(one) is complex and one == got[1, 2]

    @pytest.mark.parametrize("mc_samples", [dm.MC_CHUNK - 1, dm.MC_CHUNK, dm.MC_CHUNK + 1])
    def test_average_matches_the_per_draw_oracle(self, mc_samples):
        spec = OtoSpec(self.A_OPS, self.B_OPS, "commutator")
        est = oto_ensemble_average(dm.haar_ensemble(4, seed=21), spec, mc_samples)
        rng = np.random.default_rng([21, 0])
        vals = [per_draw_correlator(dm.haar_unitary(4, rng), spec) for _ in range(mc_samples)]
        want = dm.mc_estimate(np.array(vals), 21)
        assert (est.value, est.std_error, est.n_samples) == (want.value, want.std_error, mc_samples)

    def test_one_unitarity_check_for_the_stack(self):
        stack = dm.haar_unitary(4, np.random.default_rng(32), 5)
        stack[3] *= 1 + 1e-6
        with pytest.raises(ValueError, match="matrix is not unitary"):
            oto_correlator(stack, OtoSpec(self.A_OPS, self.B_OPS))


class TestOtoCorrelator:
    def test_identity_two_point(self):
        spec = OtoSpec((X,), (X,))
        assert oto_correlator(np.eye(2), spec) == pytest.approx(1.0)

    def test_identity_four_point_matches_trace_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a1, a2 = oracles.random_pauli(1, rng), oracles.random_pauli(1, rng)
            b1, b2 = oracles.random_pauli(1, rng), oracles.random_pauli(1, rng)
            spec = OtoSpec((a1, a2), (b1, b2))
            lhs = oto_correlator(np.eye(2), spec)
            rhs = paulialg.trace_product([a1, b1, a2, b2]) / 2
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        spec = OtoSpec((Z,), (Z,))
        # H maps Z to X under conjugation, so (1/2) tr{Z X} = 0
        assert oto_correlator(h, spec) == pytest.approx(0.0, abs=1e-12)

    def test_identity_b_reduces_to_plain_trace(self):
        rng = np.random.default_rng(1)
        u = dm.haar_unitary(4, rng)
        a_ops = (from_label("XZ"), from_label("ZI"), from_label("XX"))
        ident = paulialg.identity(2)
        spec = OtoSpec(a_ops, (ident, ident, ident))
        want = paulialg.trace_product(list(a_ops)) / 4
        assert oto_correlator(u, spec) == pytest.approx(want, abs=1e-10)

    def test_exact_path_matches_dense_for_clifford(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = cg.random_clifford(2, rng)
            spec = OtoSpec((oracles.random_pauli(2, rng), oracles.random_pauli(2, rng)),
                           (oracles.random_pauli(2, rng), oracles.random_pauli(2, rng)))
            exact = oto_correlator_exact(c, spec)
            dense = oto_correlator(cg.to_dense(c), spec)
            assert exact == pytest.approx(dense, abs=1e-10)


class TestOrderingExpansions:
    def test_commutator_m2(self):
        a, b, c, d = (from_label("XI"), from_label("ZI"), from_label("IX"), from_label("IZ"))
        spec = OtoSpec((a, c), (b, d), "commutator")
        af, bf = spec.expanded()
        assert af == (a, c, c.adjoint(), a.adjoint())
        assert bf == (b, d, b.adjoint(), d.adjoint())

    def test_group_commutator_m2(self):
        a, b, c, d = (from_label("XI"), from_label("ZI"), from_label("IX"), from_label("IZ"))
        spec = OtoSpec((a, c), (b, d), "group_commutator")
        af, bf = spec.expanded()
        assert af == (a, c, a.adjoint(), c.adjoint())
        assert bf == (b, d, d.adjoint(), b.adjoint())

    def test_group_commutator_is_a_k_a_k(self):
        # word equals <A K A+ K+> with K = B~_1 A_2 B~_2 ... for any unitary
        rng = np.random.default_rng(3)
        u = dm.haar_unitary(4, rng)
        a1, a2 = from_label("XI"), from_label("IX")
        b1, b2 = from_label("ZI"), from_label("IZ")
        spec = OtoSpec((a1, a2), (b1, b2), "group_commutator")
        ud = u.conj().T
        bt1 = ud @ dm.pauli_to_dense(b1) @ u
        bt2 = ud @ dm.pauli_to_dense(b2) @ u
        kmat = bt1 @ dm.pauli_to_dense(a2) @ bt2
        amat = dm.pauli_to_dense(a1)
        want = np.trace(amat @ kmat @ amat.conj().T @ kmat.conj().T) / 4
        assert oto_correlator(u, spec) == pytest.approx(want, abs=1e-10)

    def test_non_commutator_m2(self):
        a, b, c, d = (from_label("XI"), from_label("ZI"), from_label("IX"), from_label("IZ"))
        spec = OtoSpec((a, c), (b, d), "non_commutator")
        af, bf = spec.expanded()
        assert af == (a, c, a.adjoint(), c.adjoint())
        assert bf == (b, d, b.adjoint(), d.adjoint())


def loop_haar_average_oto(a_ops, b_ops):
    """The k!^2 walk over wg.q_inverse that haar_average_oto_exact replaced
    by wg.contract: its oracle."""
    k, d = len(a_ops), 2 ** a_ops[0].n
    perms = wg.permutations_of(k)
    qinv = wg.q_inverse(k, d)
    cyc = wg.trace_cycle(k)
    tr_b = [otolab.trace_tensor_with_permutation(b_ops, s) for s in perms]
    tr_a = [otolab.trace_tensor_with_permutation(a_ops, wg.compose(p, cyc)) for p in perms]
    re = im = F(0)
    for i, (ar, ai) in enumerate(tr_a):
        if ar or ai:
            for j, (br, bi) in enumerate(tr_b):
                if br or bi:
                    re += qinv[i][j] * (ar * br - ai * bi)
                    im += qinv[i][j] * (ar * bi + ai * br)
    return re / d, im / d


class TestHaarOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twelve_point_word_matches_the_loop(self, n):
        a_ops, b_ops = [from_label("X" * n)] * 6, [from_label("Z" * n)] * 6
        got = haar_average_oto_exact(a_ops, b_ops)
        assert got == loop_haar_average_oto(a_ops, b_ops) and got[0] != 0

    def test_trace_tensor_matches_dense(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 4):
            for _ in range(10):
                ops = [oracles.random_pauli(1, rng) for _ in range(k)]
                rho = tuple(rng.permutation(k))
                big = dm.pauli_to_dense(ops[0])
                for o in ops[1:]:
                    big = np.kron(big, dm.pauli_to_dense(o))
                lhs = np.trace(big @ wg.permutation_matrix(rho, 2))
                re, im = otolab.trace_tensor_with_permutation(ops, rho)
                assert complex(re, im) == pytest.approx(lhs, abs=1e-9)

    def test_two_point(self):
        assert haar_average_oto_exact([X], [Z]) == (0, 0)
        ident = paulialg.identity(1)
        assert haar_average_oto_exact([ident], [ident]) == (1, 0)

    def test_four_point_value(self):
        assert haar_average_oto_exact([X, X], [Z, Z]) == (F(-1, 3), 0)

    def test_matches_monte_carlo_arbitrary_word(self):
        rng = np.random.default_rng(5)
        a_ops = (from_label("XZ"), from_label("IY"))
        b_ops = (from_label("ZZ"), from_label("XI"))
        re, im = haar_average_oto_exact(a_ops, b_ops)
        n = 20_000
        vals = np.empty(n, dtype=complex)
        for i in range(n):
            vals[i] = oto_correlator(dm.haar_unitary(4, rng), OtoSpec(a_ops, b_ops))
        se = np.sqrt(vals.real.var() / n + vals.imag.var() / n)
        assert abs(vals.mean() - complex(F(re), F(im))) <= 5 * se + 1e-12

    def test_k_above_d_matches_monte_carlo(self):
        # four pairs at d=2: the commutator-ordered X/Z word, (1/2) tr (X Z~)^4
        a_ops, b_ops = OtoSpec((X, X), (Z, Z), "commutator").expanded()
        assert haar_average_oto_exact(a_ops, b_ops) == (F(-1, 15), 0)
        rng = np.random.default_rng(8)
        n = 20_000
        spec = OtoSpec(a_ops, b_ops)
        vals = np.array([oto_correlator(dm.haar_unitary(2, rng), spec) for _ in range(n)])
        se = np.sqrt(vals.real.var() / n + vals.imag.var() / n)
        assert abs(vals.mean() - (-1 / 15)) <= 5 * se

    def test_k_above_d_matches_clifford_three_design(self):
        # n=1 Cliffords are a 3-design, so their exact 24-element average is
        # the Haar value of every 6-point word at d=2
        els = cg.enumerate_single_qubit()
        for a_ops, b_ops in [((X, X, X), (Z, Z, Z)), ((X, Z, Y), (X, Z, Y)),
                             ((X, Y, Z), (Z, X, Y)), ((Y, Y, paulialg.identity(1)), (Z, Z, X))]:
            spec = OtoSpec(a_ops, b_ops)
            cliff = sum(oto_correlator_exact(c, spec) for c in els) / 24
            re, im = haar_average_oto_exact(a_ops, b_ops)
            assert complex(re, im) == pytest.approx(cliff, abs=1e-12)

    def test_clifford_three_design_cross_check(self):
        # n=1 Cliffords reproduce Haar for k <= 3: exact 24-element sums
        # provide an independent oracle for 6-point words at d=2
        els = cg.enumerate_single_qubit()
        e = paulialg.mul(X, Z).adjoint().representative()
        for a_ops, b_ops in [((X, Z, e), (X, Z, e)), ((X, X, paulialg.identity(1)), (Z, Y, X))]:
            spec = OtoSpec(a_ops, b_ops)
            cliff = sum(oto_correlator_exact(c, spec) for c in els) / 24
            # independent dense-MC Haar estimate
            rng = np.random.default_rng(6)
            n = 20_000
            vals = np.array([oto_correlator(dm.haar_unitary(2, rng), spec) for i in range(n)])
            se = np.sqrt(vals.real.var() / n + vals.imag.var() / n)
            assert abs(vals.mean() - cliff) <= 5 * se + 1e-12


class TestClosedForms:
    def test_six_point_commuting(self):
        # (d^2+4)/((d^2-1)(d^2-4)) against the exact evaluator at d=4 and d=8
        for n in (2, 3):
            d = 2**n
            a, c = single_site(n, 0, "X"), single_site(n, 1, "X")
            b, dd = single_site(n, 0, "Z"), single_site(n, 1, "Z")
            e = paulialg.mul(a, c).adjoint().representative()
            f = paulialg.mul(b, dd).adjoint().representative()
            got = haar_average_oto_spec(OtoSpec((a, c, e), (b, dd, f)))
            assert got == (predict("haar", "six_point_commuting", d), 0)

    def test_eight_point_commutator_commuting(self):
        for n in (2, 3, 4):
            d = 2**n
            a, c, b, dd = (single_site(n, 0, "X"), single_site(n, 1, "X"),
                           single_site(n, 0, "Z"), single_site(n, 1, "Z"))
            for ordering in ("commutator", "group_commutator"):
                got = haar_average_oto_spec(OtoSpec((a, c), (b, dd), ordering))
                assert got == (predict("haar", "eight_point_commutator_commuting", d), 0)

    def test_eight_point_commutator_anticommuting(self):
        # -1/((d^2-1)(d^2-9)), derived with the same machinery (tests only)
        for n in (2, 3):
            d = 2**n
            a, c = single_site(n, 0, "X"), single_site(n, 0, "Z")
            b, dd = single_site(n, 1, "X"), single_site(n, 1, "Z")
            got = haar_average_oto_spec(OtoSpec((a, c), (b, dd), "commutator"))
            assert got == (F(-1, (d * d - 1) * (d * d - 9)), 0)

    def test_monte_carlo_confirms_corrected_values(self):
        # moderate-N spot check at d=4 (the acceptance suite runs 5e4)
        rng = np.random.default_rng(7)
        n_samp = 10_000
        a, c, b, dd = commuting_8pt_paulis(2)
        spec8 = OtoSpec((a, c), (b, dd), "commutator")
        e = paulialg.mul(a, c).adjoint().representative()
        f = paulialg.mul(b, dd).adjoint().representative()
        spec6 = OtoSpec((a, c, e), (b, dd, f))
        vals8 = np.empty(n_samp, dtype=complex)
        vals6 = np.empty(n_samp, dtype=complex)
        for i in range(n_samp):
            u = dm.haar_unitary(4, rng)
            vals8[i] = oto_correlator(u, spec8)
            vals6[i] = oto_correlator(u, spec6)
        for vals, kind in ((vals8, "eight_point_commutator_commuting"),
                           (vals6, "six_point_commuting")):
            se = np.sqrt(vals.real.var() / n_samp + vals.imag.var() / n_samp)
            assert abs(vals.mean() - float(predict("haar", kind, 4))) <= 5 * se

    def test_orderings_agree_on_haar_average(self):
        a, c, b, dd = commuting_8pt_paulis(2)
        v1 = haar_average_oto_spec(OtoSpec((a, c), (b, dd), "commutator"))
        v2 = haar_average_oto_spec(OtoSpec((a, c), (b, dd), "group_commutator"))
        assert v1 == v2


class TestEnsembleAverages:
    def test_haar_mc_four_point(self):
        ens = dm.haar_ensemble(2, seed=11)
        spec = OtoSpec((X, X), (Z, Z))
        est = oto_ensemble_average(ens, spec, mc_samples=20_000)
        assert abs(est.value - (-1 / 3)) <= 5 * est.std_error

    def test_clifford_exact_four_point(self):
        ens = cg.clifford_ensemble(1)
        est = oto_ensemble_average(ens, OtoSpec((X, X), (Z, Z)))
        assert est.method == "exact"
        assert est.value == pytest.approx(-1 / 3, abs=1e-12)

    def test_pauli_ensemble_disjoint_four_point(self):
        # A, C on qubit 0; B, D on qubit 1: average is <AC><BD>
        a = c = single_site(2, 0, "X")
        b = d = single_site(2, 1, "Z")
        est = oto_ensemble_average(dm.pauli_ensemble(2), OtoSpec((a, c), (b, d)))
        want = predict("pauli", "four_point", 4, paulis=(a, b, c, d))
        assert est.value == pytest.approx(float(want), abs=1e-12)
        assert want == 1

    def test_pauli_ensemble_zero_case(self):
        a = single_site(2, 0, "X")
        c = single_site(2, 0, "Y")
        b = d = single_site(2, 1, "Z")
        est = oto_ensemble_average(dm.pauli_ensemble(2), OtoSpec((a, c), (b, d)))
        assert est.value == pytest.approx(0.0, abs=1e-12)


class TestRegulated:
    def test_maximally_mixed_reduction(self):
        rng = np.random.default_rng(8)
        u = dm.haar_unitary(4, rng)
        spec = OtoSpec((from_label("XI"), from_label("ZZ")), (from_label("IZ"), from_label("XY")))
        plain = oto_correlator(u, spec)
        reg = oracles.regulated_oto(np.eye(4) / 4, u, spec)
        assert reg == pytest.approx(plain, abs=1e-12)

    def test_pure_state_two_point(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        val = oracles.regulated_oto(rho, np.eye(2), OtoSpec((Z,), (Z,)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            oracles.regulated_oto(np.diag([1.5, -0.5]).astype(complex), np.eye(2),
                                 OtoSpec((Z,), (Z,)))


class TestMTensor:
    def test_k1_orthogonality(self):
        m = otolab.m_tensor(1, 1)
        assert np.array_equal(m.conj().T @ m, 4 * np.eye(4))

    def test_k1_entries(self):
        # M^C_A = tr(AC) = d delta_{A, C+}; representatives are self-adjoint
        m = otolab.m_tensor(1, 1)
        assert np.array_equal(m, 2 * np.eye(4))

    def test_k2_orthogonality_exact(self):
        m = otolab.m_tensor(1, 2)
        assert np.array_equal(m.conj().T @ m, 16 * np.eye(16))
        # the C-sum route of the same statement
        assert np.array_equal(m @ m.conj().T, 16 * np.eye(16))


class TestReconstruction:
    def test_trivial_ensemble_indicator(self):
        ens = dm.trivial_ensemble(1)
        b_ops = (X, Z)
        alpha = otolab.measure_alpha(ens, b_ops, 2)
        gamma = otolab.reconstruct_channel(alpha, 2, 1).gamma
        for key, val in gamma.items():
            want = 1.0 if key == ("X", "Z") else 0.0
            assert val == pytest.approx(want, abs=1e-10)

    def test_pauli_ensemble_xx(self):
        ens = dm.pauli_ensemble(1)
        alpha = otolab.measure_alpha(ens, (X, X), 2)
        gamma = otolab.reconstruct_channel(alpha, 2, 1).gamma
        for key, val in gamma.items():
            want = 1.0 if key == ("X", "X") else 0.0
            assert val == pytest.approx(want, abs=1e-10)

    def test_pauli_ensemble_xz_vanishes(self):
        ens = dm.pauli_ensemble(1)
        alpha = otolab.measure_alpha(ens, (X, Z), 2)
        gamma = otolab.reconstruct_channel(alpha, 2, 1).gamma
        assert all(abs(v) <= 1e-10 for v in gamma.values())

    @pytest.mark.parametrize("make_ens", [dm.trivial_ensemble, dm.pauli_ensemble,
                                          lambda n: cg.clifford_ensemble(n)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_round_trip_matches_direct(self, make_ens, k):
        ens = make_ens(1)
        b_choices = [(X,), (Y,)] if k == 1 else [(X, Z), (Y, Y)]
        for b_ops in b_choices:
            alpha = otolab.measure_alpha(ens, b_ops, k)
            rec = otolab.reconstruct_channel(alpha, k, 1).gamma
            direct = otolab.channel_coefficients_direct(ens, b_ops, k).gamma
            for key in direct:
                assert rec[key] == pytest.approx(direct[key], abs=1e-10)

    def test_direct_guard_before_the_kron(self, monkeypatch):
        # the kron of the B's has side d^k = 1024, past a guard of 512; its
        # 16 MiB used to be built before kfold_channel_apply's guard saw it
        ens = dm.pauli_ensemble(5)
        x0 = single_site(5, 0, "X")
        monkeypatch.setattr(limits, "DENSE_GUARD", 512)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense guard exceeded"):
                otolab.channel_coefficients_direct(ens, (x0, x0), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_haar_channel_supported_on_permutations(self):
        # gamma from the Haar reference reassembles into span{W_pi}
        b_ops = (X, X)
        gamma = channel_coefficients_haar(b_ops, 2).gamma
        out = np.zeros((4, 4), dtype=complex)
        for c_ops in itertools.product(paulialg.enumerate_paulis(1), repeat=2):
            key = tuple(c.label() for c in c_ops)
            big = np.kron(dm.pauli_to_dense(c_ops[0]), dm.pauli_to_dense(c_ops[1]))
            out += gamma[key] * big
        basis = np.stack([np.eye(4).reshape(-1),
                          wg.permutation_matrix((1, 0), 2).reshape(-1)], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, out.reshape(-1), rcond=None)
        assert np.linalg.norm(out.reshape(-1) - basis @ coeffs) <= 1e-10


class TestPredictTable:
    def test_four_point_patterns(self):
        assert predict("haar", "four_point", 2, paulis=(X, Z, X, Z)) == F(-1, 3)
        assert predict("haar", "four_point", 2, paulis=(X, Z, Y, Z)) == 0
        assert predict("haar", "two_point_sq", 4) == F(1, 15)
        assert predict("haar", "two_point_mean", 4, paulis=(X, Z)) == 0

    def test_four_point_formula_matches_oracle_for_random_paulis(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            ps = tuple(oracles.random_pauli(1, rng) for _ in range(4))
            a, b, c, d = ps
            want = haar_average_oto_exact((a, c), (b, d))
            got = predict("haar", "four_point", 2, paulis=ps)
            assert (got, 0) == want or (want[1] == 0 and got == want[0])

    def test_four_point_dense_general_operators(self):
        rng = np.random.default_rng(10)
        d = 4
        ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(4)]
        a, b, c, dd = ops
        want = four_point_haar_dense(a, b, c, dd)
        n = 20_000
        vals = np.empty(n, dtype=complex)
        for i in range(n):
            u = dm.haar_unitary(d, rng)
            ud = u.conj().T
            vals[i] = np.trace(a @ ud @ b @ u @ c @ ud @ dd @ u) / d
        se = np.sqrt(vals.real.var() / n + vals.imag.var() / n)
        assert abs(vals.mean() - want) <= 5 * se

    def test_eight_point_values(self):
        assert predict("haar", "eight_point_commutator_commuting", 4) == F(-13, 315)
        sign = predict("clifford", "eight_point_group_commutator", 2, paulis=(X, X, Z, Z))
        assert sign == F(1, 3)  # K(X, Z+) = -1

    def test_clifford_eight_point_exact_enumeration(self):
        ens = cg.clifford_ensemble(1)
        for a, c in [(X, Z), (X, Y), (Y, Z)]:
            spec = OtoSpec((a, c), (X, Z), "group_commutator")
            est = oto_ensemble_average(ens, spec)
            want = predict("clifford", "eight_point_group_commutator", 2,
                           paulis=(a, X, c, Z))
            assert est.value == pytest.approx(float(want), abs=1e-12)

    def test_four_m_point(self):
        assert predict("haar", "four_m_point", 2, m=2) == F(1, 9)
        assert predict("haar", "four_m_point", 4, m=1) == F(-1, 15)

    def test_four_m_restricted_average_pointwise(self):
        # the restricted B-average equals (-1/(d^2-1))^m for EVERY unitary
        rng = np.random.default_rng(11)
        for n, m in ((1, 1), (1, 2), (2, 1)):
            d = 2**n
            a_ops = tuple(oracles.random_pauli(n, rng, exclude_identity=True)
                          for _ in range(m))
            while m > 1 and paulialg.mul_all(list(a_ops)).is_identity_bits:
                a_ops = tuple(oracles.random_pauli(n, rng, exclude_identity=True)
                              for _ in range(m))
            u = dm.haar_unitary(d, rng)
            got = oracles.restricted_average_commutator(u, a_ops)
            want = float(predict("haar", "four_m_point", d, m=m))
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_restricted_average_is_the_per_tuple_loop(self, n, m):
        # one table for every B-tuple gives the bits of one correlator per tuple
        rng = np.random.default_rng(12 + 2 * n + m)
        a_ops = tuple(oracles.random_pauli(n, rng, exclude_identity=True) for _ in range(m))
        u = dm.haar_unitary(2**n, rng)
        non_identity = [p for p in paulialg.enumerate_paulis(n) if not p.is_identity_bits]
        b_tuples = list(itertools.product(non_identity, repeat=m))
        total = 0j
        for b_ops in b_tuples:
            total += oto_correlator(u, OtoSpec(a_ops, b_ops, "commutator"))
        assert oracles.restricted_average_commutator(u, a_ops) == total / len(b_tuples)

    def test_unsupported_patterns_raise(self):
        with pytest.raises(ValueError, match="supported"):
            predict("clifford", "six_point_commuting", 4)
        with pytest.raises(ValueError, match="disjoint"):
            predict("pauli", "four_point", 2, paulis=(X, Z, X, Z))
        with pytest.raises(ValueError, match="commuting"):
            a, c = single_site(2, 0, "X"), single_site(2, 0, "Z")
            b, dd = single_site(2, 1, "X"), single_site(2, 1, "Z")
            predict("haar", "eight_point_commutator_commuting", 4,
                    paulis=(a, b, c, dd))


class TestScalingSplit:
    def test_exact_slopes(self):
        # restricted-average commutator family: slope -4 +/- 0.5 over {4,8,16}
        ds = np.array([4.0, 8.0, 16.0])
        comm = np.array([abs(float(predict("haar", "four_m_point", int(d), m=2)))
                         for d in ds])
        slope = np.polyfit(np.log(ds), np.log(comm), 1)[0]
        assert abs(slope + 4) <= 0.5
        # fixed-operator non-commutator values: slope -2 +/- 0.5
        noncomm = []
        for n in (2, 3, 4):
            a, c, b, dd = (single_site(n, 0, "X"), single_site(n, 1, "X"),
                           single_site(n, 0, "Z"), single_site(n, 1, "Z"))
            re, im = haar_average_oto_spec(OtoSpec((a, c), (b, dd), "non_commutator"))
            noncomm.append(abs(float(re)))
        slope2 = np.polyfit(np.log(ds), np.log(noncomm), 1)[0]
        assert abs(slope2 + 2) <= 0.5

    def test_non_commutator_mc_corroboration(self):
        # the non-commutator exact values are large enough for cheap MC
        rng = np.random.default_rng(12)
        for n, n_samp in ((2, 4000), (3, 4000)):
            d = 2**n
            a, c, b, dd = (single_site(n, 0, "X"), single_site(n, 1, "X"),
                           single_site(n, 0, "Z"), single_site(n, 1, "Z"))
            spec = OtoSpec((a, c), (b, dd), "non_commutator")
            want = float(haar_average_oto_spec(spec)[0])
            vals = np.empty(n_samp, dtype=complex)
            for i in range(n_samp):
                vals[i] = oto_correlator(dm.haar_unitary(d, rng), spec)
            se = np.sqrt(vals.real.var() / n_samp + vals.imag.var() / n_samp)
            assert abs(vals.mean() - want) <= 5 * se
