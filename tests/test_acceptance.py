"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Criterion 7 is split in two tests that share one set of d=4 Monte-Carlo
estimates. test_criterion_7_closed_form_correlators checks them against
`otolab.predict` and checks the d^-4 / d^-2 scaling split.
test_criterion_7_printed_reference_values checks them against hard-coded
exact references, 1/9 (six-point) and -13/315 (commutator-ordered
eight-point). It also records an erratum: the values 8/45 and -101/1260
that were once printed for these correlators are wrong, and the same
estimates exclude them by more than 5 sigma.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from designlab import cliffordgrp as cg
from designlab import densemat as dm
from designlab import framepot as fp
from designlab import otolab, paulialg, scrambling, wg
from designlab.otolab import OtoSpec, oto_ensemble_average, predict
from designlab.paulialg import from_label, single_site

import oracles

F = Fraction


def line(num, ok, text):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: criterion {num}: {text}")


# ---------------------------------------------------------------------------
# criterion 1: Haar frame potentials at d=4
# ---------------------------------------------------------------------------

def test_criterion_1_haar_frame_potentials_d4():
    t0 = time.monotonic()
    ens = dm.haar_ensemble(4, seed=101)
    ok = True
    msgs = []
    for k, want in ((1, 1.0), (2, 2.0)):
        est = fp.frame_potential_mc(ens, k, 20_000)
        dev = abs(est.value - want) / est.std_error
        ok &= dev <= 5
        msgs.append(f"F({k}) = {est.value:.4f} ({dev:.2f} sigma from {want})")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    line(1, ok, "; ".join(msgs) + f"; {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: d=2 Catalan values
# ---------------------------------------------------------------------------

def test_criterion_2_catalan_values_d2():
    t0 = time.monotonic()
    ens = dm.haar_ensemble(2, seed=102)
    ok = True
    msgs = []
    for k in (3, 4):
        want = float(wg.haar_frame_potential_exact(k, 2))
        est = fp.frame_potential_mc(ens, k, 20_000)
        dev = abs(est.value - want) / est.std_error
        ok &= dev <= 5
        msgs.append(f"F({k}) = {est.value:.3f} ({dev:.2f} sigma from {want:g})")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    line(2, ok, "; ".join(msgs) + f"; {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: exact design ladder at n=1
# ---------------------------------------------------------------------------

def test_criterion_3_design_ladder_exact():
    t0 = time.monotonic()
    pauli = dm.pauli_ensemble(1)
    cliff = cg.clifford_ensemble(1)
    vals = {
        "pauli F1": fp.frame_potential_exact(pauli, 1).value,
        "pauli F2": fp.frame_potential_exact(pauli, 2).value,
        "clifford F2": fp.frame_potential_exact(cliff, 2).value,
        "clifford F3": fp.frame_potential_exact(cliff, 3).value,
        "clifford F4": fp.frame_potential_exact(cliff, 4).value,
    }
    ok = (abs(vals["pauli F1"] - 1) <= 1e-12
          and abs(vals["pauli F2"] - 4) <= 1e-12 and vals["pauli F2"] > 2
          and abs(vals["clifford F2"] - 2) <= 1e-12
          and abs(vals["clifford F3"] - 5) <= 1e-12
          and vals["clifford F4"] > 14)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    line(3, ok, f"{vals} (1/3/not-4 design structure); {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: Weingarten tables and Q inverses
# ---------------------------------------------------------------------------

def wg_tables(d):
    """The S2/S3/S4 closed forms as exact rationals (the S3 all-singleton
    entry follows the character-table arithmetic; its commonly printed
    denominator carries a typo)."""
    out = {
        (1, 1): F(1, d * d - 1),
        (2,): F(-1, d * (d * d - 1)),
    }
    if d >= 3:
        out.update({
            (1, 1, 1): F(d * d - 2, d * (d * d - 1) * (d * d - 4)),
            (2, 1): F(-1, (d * d - 1) * (d * d - 4)),
            (3,): F(2, d * (d * d - 1) * (d * d - 4)),
        })
    if d >= 4:
        den = d * d * (d * d - 1) * (d * d - 4) * (d * d - 9)
        out.update({
            (1, 1, 1, 1): F(d**4 - 8 * d * d + 6, den),
            (2, 1, 1): F(-(d**3) + 4 * d, den),
            (2, 2): F(d * d + 6, den),
            (3, 1): F(2 * d * d - 3, den),
            (4,): F(-5 * d, den),
        })
    return out


def test_criterion_4_weingarten_tables():
    ok = True
    checked = 0
    for d in (2, 3, 4, 5):
        for mu, want in wg_tables(d).items():
            ok &= wg.weingarten(mu, d) == want
            checked += 1
    # Q Q^-1 == I exactly for k <= 4, d >= k
    for k in (2, 3, 4):
        for d in (k, k + 1):
            q = wg.q_matrix(k, d)
            qi = wg.q_inverse(k, d)
            m = len(q)
            for i in range(m):
                for j in range(m):
                    s = sum(q[i][l] * qi[l][j] for l in range(m))
                    ok &= s == (1 if i == j else 0)
    line(4, ok, f"{checked} closed forms exact over d in 2..5; Q Q^-1 exact for k <= 4")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: OTO <-> frame potential identity
# ---------------------------------------------------------------------------

def test_criterion_5_oto_frame_identity():
    ok = True
    msgs = []
    for ens in (dm.trivial_ensemble(1), dm.pauli_ensemble(1), cg.clifford_ensemble(1)):
        for k in (1, 2):
            via = fp.frame_potential_via_oto(ens, k).value
            exact = fp.frame_potential_exact(ens, k).value
            ok &= abs(via - exact) <= 1e-10
            msgs.append(f"{ens.label} k={k}: {via:.6g}")
    line(5, ok, "; ".join(msgs))
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: channel reconstruction and M-tensor orthogonality
# ---------------------------------------------------------------------------

def test_criterion_6_reconstruction():
    ok = True
    # exact tensor orthogonality at n=1 for k=1, 2
    for k in (1, 2):
        m = otolab.m_tensor(1, k)
        want = 2 ** (2 * k) * np.eye(4**k)
        ok &= np.array_equal(m.conj().T @ m, want)
    # reconstruction round trip for Pauli and Clifford ensembles at k=2
    x, z = from_label("X"), from_label("Z")
    for ens in (dm.pauli_ensemble(1), cg.clifford_ensemble(1)):
        for b_ops in ((x, x), (x, z)):
            alpha = otolab.measure_alpha(ens, b_ops, 2)
            rec = otolab.reconstruct_channel(alpha, 2, 1).gamma
            direct = otolab.channel_coefficients_direct(ens, b_ops, 2).gamma
            worst = max(abs(rec[key] - direct[key]) for key in direct)
            ok &= worst <= 1e-10
    line(6, ok, "gamma reconstruction == direct coefficients (1e-10); "
                "M tensor orthogonality exact")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: closed-form correlators
# ---------------------------------------------------------------------------

def _d4_correlator_specs():
    """The four-, six- and eight-point specs at d=4 (n=2 qubits). For the
    six- and eight-point specs A, C commute, B, D commute, and A C E and
    B D F are proportional to the identity."""
    a, c = single_site(2, 0, "X"), single_site(2, 1, "X")
    b, d = single_site(2, 0, "Z"), single_site(2, 1, "Z")
    e = paulialg.mul(a, c).adjoint().representative()
    f6 = paulialg.mul(b, d).adjoint().representative()
    return {
        "four": OtoSpec((a, a.adjoint()), (b, b.adjoint())),
        "six": OtoSpec((a, c, e), (b, d, f6)),
        "eight": OtoSpec((a, c), (b, d), "commutator"),
    }


@pytest.fixture(scope="module")
def haar_d4_correlator_estimates():
    """The three 5e4-sample Monte-Carlo estimates at d=4, shared between the
    closed-form and exact-reference assertions."""
    n_samples = 50_000
    ens = dm.haar_ensemble(4, seed=107)
    out = {}
    for name, spec in _d4_correlator_specs().items():
        out[name] = oto_ensemble_average(ens, spec, mc_samples=n_samples)
    return out


def test_criterion_7_closed_form_correlators(haar_d4_correlator_estimates):
    est = haar_d4_correlator_estimates
    ok = True
    msgs = []
    refs = {
        "four": float(predict("haar", "four_point", 4,
                              paulis=(single_site(2, 0, "X"), single_site(2, 0, "Z"),
                                      single_site(2, 0, "X"), single_site(2, 0, "Z")))),
        "six": float(predict("haar", "six_point_commuting", 4)),
        "eight": float(predict("haar", "eight_point_commutator_commuting", 4)),
    }
    assert refs["four"] == pytest.approx(-1 / 15)
    for name, want in refs.items():
        e = est[name]
        dev = abs(e.value.real - want) / e.std_error
        ok &= dev <= 5 and abs(e.value.imag) <= 5 * e.std_error
        msgs.append(f"{name}-point: {e.value.real:+.5f} ({dev:.2f} sigma from {want:+.5f})")

    # scaling split over d in {4, 8, 16}: the commutator-type family via its
    # restricted average (exact value (d^2-1)^-2), the non-commutator type
    # via the exact permutation-average evaluator with MC corroboration
    ds = np.array([4.0, 8.0, 16.0])
    comm = [abs(float(predict("haar", "four_m_point", int(d), m=2))) for d in ds]
    slope_c = np.polyfit(np.log(ds), np.log(comm), 1)[0]
    noncomm = []
    for n in (2, 3, 4):
        aa, cc = single_site(n, 0, "X"), single_site(n, 1, "X")
        bb, dd = single_site(n, 0, "Z"), single_site(n, 1, "Z")
        re, _ = otolab.haar_average_oto_spec(OtoSpec((aa, cc), (bb, dd), "non_commutator"))
        noncomm.append(abs(float(re)))
    slope_n = np.polyfit(np.log(ds), np.log(noncomm), 1)[0]
    ok &= abs(slope_c + 4) <= 0.5 and abs(slope_n + 2) <= 0.5
    msgs.append(f"slopes: commutator {slope_c:.2f} (-4 +/- 0.5), "
                f"non-commutator {slope_n:.2f} (-2 +/- 0.5)")
    line(7, ok, "; ".join(msgs))
    assert ok


def test_criterion_7_printed_reference_values(haar_d4_correlator_estimates):
    """The d=4 six-point and commutator-ordered eight-point estimates match
    their exact Haar references, 1/9 and -13/315.

    Erratum: these correlators were once printed as 8/45 and -101/1260. Those
    are the misprinted closed forms 2d^2/((d^2-1)(d^2-4)) and
    -(3d^2+5d+33)/((d^2-1)(d^2-4)(d^2-9)) at d=4, from a trace-coefficient
    miscount (classes (3,1) and (4,): 7d^2 and d^2+20d instead of 8d^2 and
    5d^2). The correct forms,
    (d^2+4)/((d^2-1)(d^2-4)) and -(d^2+36)/((d^2-1)(d^2-4)(d^2-9)), are
    checked against `otolab.haar_average_oto_spec` at several d in
    tests/test_otolab.py::TestClosedForms. Here the references are literals,
    independent of `otolab.predict`: the exact evaluator must return them,
    the Monte-Carlo estimates must lie within 5 sigma of them, and the same
    estimates must exclude the misprinted values by more than 5 sigma.
    """
    est = haar_d4_correlator_estimates
    specs = _d4_correlator_specs()
    exact = {"six": F(1, 9), "eight": F(-13, 315)}
    misprinted = {"six": F(8, 45), "eight": F(-101, 1260)}
    for name, want in exact.items():
        assert otolab.haar_average_oto_spec(specs[name]) == (want, 0)

    ok = True
    msgs = []
    for name, want in exact.items():
        e = est[name]
        dev = abs(e.value.real - float(want)) / e.std_error
        dev_old = abs(e.value.real - float(misprinted[name])) / e.std_error
        ok &= dev <= 5 and dev_old > 5
        msgs.append(f"{name}-point {e.value.real:+.5f} is {dev:.2f} sigma from {want} "
                    f"and {dev_old:.1f} sigma from the misprinted {misprinted[name]}")
    line(7, ok, "exact reference values: " + "; ".join(msgs))
    assert ok, "; ".join(msgs)


# ---------------------------------------------------------------------------
# criterion 8: time-average ergodicity gap
# ---------------------------------------------------------------------------

def test_criterion_8_time_average():
    est = fp.time_averaged_frame_potential(
        [0.0, 1.0, math.sqrt(2.0), math.pi], 1, 2000.0, n_grid=200_000)
    want = fp.analytic_time_average(1, 4)
    rel = abs(est.value - want) / want
    ok = rel <= 0.05
    line(8, ok, f"double time average {est.value:.4f} vs k! d^k = {want} "
                f"({100 * rel:.2f}% off; above the Haar value 1)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: Renyi-OTO identities and the catch game
# ---------------------------------------------------------------------------

def test_criterion_9_renyi_identities():
    rng = np.random.default_rng(109)
    part_list = [scrambling.IoPartition(2, a, d)
                 for a in ((0,), (1,)) for d in ((0,), (1,))]
    worst2 = 0.0
    for _ in range(50):
        u = dm.haar_unitary(4, rng)
        for part in part_list:
            lhs, rhs = scrambling.oto_renyi2_check(u, part)
            worst2 = max(worst2, abs(lhs - rhs))
    worst3 = 0.0
    part = scrambling.IoPartition(2, (0,), (1,))
    for _ in range(50):
        u = dm.haar_unitary(4, rng)
        lhs, rhs = scrambling.renyi_k_oto(u, part, 3)
        worst3 = max(worst3, abs(lhs - rhs))
    worst_catch = 0.0
    for _ in range(10):
        u = dm.haar_unitary(4, rng)
        probs = rng.dirichlet(np.ones(4))
        dist = {paulialg.identity(2): probs[0],
                single_site(2, 0, "X"): probs[1],
                single_site(2, 1, "Y"): probs[2],
                from_label("ZZ"): probs[3]}
        worst_catch = max(worst_catch, abs(scrambling.catch_game(u, dist) - probs[0]))
    ok = worst2 <= 1e-10 and worst3 <= 1e-8 and worst_catch <= 1e-10
    line(9, ok, f"Renyi-2 worst |lhs-rhs| = {worst2:.2e}; Renyi-3 {worst3:.2e}; "
                f"catch game worst |p - p_I| = {worst_catch:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: generalized frame potentials
# ---------------------------------------------------------------------------

def test_criterion_10_generalized_frame_potentials():
    ok = True
    msgs = []
    for n in (1, 2, 3):
        d = 2**n
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        val = fp.generalized_F(dm.pauli_x_ensemble(n), rho, 1).value
        ok &= abs(val - 1 / d) <= 1e-12
        msgs.append(f"pauli-x n={n}: {val:.6g}")
    rho2 = np.zeros((2, 2), dtype=complex)
    rho2[0, 0] = 1.0
    est = fp.generalized_F(dm.haar_ensemble(2, seed=110), rho2, 2, mc_samples=20_000)
    want = float(oracles.generalized_F_haar_reference("pure", 2, 2))
    dev = abs(est.value - want) / est.std_error
    ok &= dev <= 5 and abs(want - 1 / 3) < 1e-15
    msgs.append(f"Haar pure k=2 d=2: {est.value:.4f} ({dev:.2f} sigma from 1/3)")
    d, k, t = 2, 1, 0.9
    gue = dm.Ensemble("gue", d, sampler=lambda rng, size: dm.gue_hamiltonian(d, rng, size),
                      seed=111)
    west = fp.thermal_W(gue, 0.0, t, k, 4000)
    fest = fp.frame_potential_mc(dm.gue_evolution_ensemble(d, t, seed=112), k, 4000)
    joint = math.hypot(west.std_error, fest.std_error / (d * d))
    dev_w = abs(west.value - fest.value / (d * d)) / joint
    ok &= dev_w <= 5
    msgs.append(f"thermal beta=0 vs F/d^2: {dev_w:.2f} sigma")
    line(10, ok, "; ".join(msgs))
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: bounds arithmetic
# ---------------------------------------------------------------------------

def test_criterion_11_bounds_arithmetic():
    checks = []
    checks.append(abs(fp.cardinality_bound(2.0, 2, 4) - 128.0) < 1e-12)
    checks.append(abs(fp.entropy_bound(1.0, 1, 3) - 6.0) < 1e-12)
    want_c = (2 * 2 * 10 * math.log(2) - math.log(2.0)) / math.log(180.0)
    checks.append(abs(fp.complexity_bound(2.0, 2, 10, 180.0) - want_c) < 1e-12)
    checks.append(abs(fp.gate_count_bound(128.0, 5, 4)
                      - math.log(128.0) / math.log(80.0)) < 1e-12)
    denom = math.log(7) + math.log(math.factorial(4) / math.factorial(2) ** 2)
    want_d = (2 * 2 * 4 * math.log(2) - math.log(2.0)) / denom
    checks.append(abs(fp.depth_bound(2.0, 2, 4, 7, 2) - want_d) < 1e-12)
    want_e = (2 * 2 * math.log(4) - 2 * 0.25 - math.log(2.0)) / math.log(100.0)
    checks.append(abs(fp.epsilon_bound(2.0, 2, 4, 0.5, 100.0) - want_e) < 1e-12)
    # SYK second-moment form: tr{avg H^2} = J^2 d N/(2 q^2) gives
    # C(t) > k (J t)^2 (N / q^2)
    jsq, n_maj, q, d, k, t = 1.21, 20, 4, 8, 2, 0.03
    early = fp.early_time_bound(jsq * d * n_maj / (2 * q * q), k, d, t)
    checks.append(abs(early.value - k * jsq * t * t * n_maj / (q * q)) < 1e-12)
    checks.append(early.valid)
    ok = all(checks)
    line(11, ok, f"all {len(checks)} hand-computed bound values reproduced, "
                 "including the disordered-Hamiltonian early-time form")
    assert ok
