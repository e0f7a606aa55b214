"""Tests for frame potentials, time averages, generalizations and bounds."""

import itertools
import math
import threading
from concurrent import futures

import numpy as np
import pytest

from designlab import cliffordgrp as cg
from designlab import densemat as dm
from designlab import framepot as fp
from designlab import otolab, paulialg, wg
from designlab.otolab import OtoSpec

import oracles


class TestFramePotentialExact:
    def test_trivial_ensemble(self):
        for n, k in [(1, 1), (1, 3), (2, 2)]:
            est = fp.frame_potential_exact(dm.trivial_ensemble(n), k)
            assert est.value == (2**n) ** (2 * k)

    def test_pauli_one_design(self):
        est = fp.frame_potential_exact(dm.pauli_ensemble(1), 1)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_pauli_k2(self):
        est = fp.frame_potential_exact(dm.pauli_ensemble(1), 2)
        assert est.value == pytest.approx(4.0, abs=1e-12)

    def test_clifford_ladder(self):
        ens = cg.clifford_ensemble(1)
        assert fp.frame_potential_exact(ens, 2).value == pytest.approx(2.0, abs=1e-12)
        assert fp.frame_potential_exact(ens, 3).value == pytest.approx(5.0, abs=1e-12)
        f4 = fp.frame_potential_exact(ens, 4).value
        assert f4 == pytest.approx(15.0, abs=1e-12)
        assert f4 > float(wg.haar_frame_potential_exact(4, 2))

    def test_rejects_sampler(self):
        with pytest.raises(ValueError):
            fp.frame_potential_exact(dm.haar_ensemble(2, seed=0), 1)

    def test_design_inequality_and_ratio(self):
        # F >= F_Haar with equality exactly at design order; F^(k+1) <= d^2 F^(k)
        builders = [dm.trivial_ensemble(1), dm.pauli_ensemble(1), cg.clifford_ensemble(1)]
        design_order = {"trivial": 0, "pauli": 1, "clifford": 3}
        for ens in builders:
            prev = None
            for k in (1, 2, 3):
                val = fp.frame_potential_exact(ens, k).value
                haar = float(wg.haar_frame_potential_exact(k, 2))
                assert val >= haar - 1e-12
                is_design = design_order[ens.label] >= k
                if is_design:
                    assert val == pytest.approx(haar, abs=1e-12)
                else:
                    assert val > haar + 1e-9
                if prev is not None:
                    assert val <= 4 * prev + 1e-12
                prev = val


class TestFramePotentialMC:
    def test_haar_d4(self):
        ens = dm.haar_ensemble(4, seed=21)
        for k, want in ((1, 1.0), (2, 2.0)):
            est = fp.frame_potential_mc(ens, k, 20_000)
            assert abs(est.value - want) <= 5 * est.std_error

    def test_haar_d2_catalan(self):
        ens = dm.haar_ensemble(2, seed=22)
        est = fp.frame_potential_mc(ens, 3, 20_000)
        assert abs(est.value - 5.0) <= 5 * est.std_error

    def test_brickwork_depth_sweep(self):
        # n=2 brickwork at k=2: within 5 sigma of 2 by depth 8 and not
        # increasing (within noise) along the sweep
        results = []
        for depth in (1, 2, 4, 8):
            ens = dm.brickwork_ensemble(2, depth, seed=23 + depth)
            results.append(fp.frame_potential_mc(ens, 2, 4000))
        assert abs(results[-1].value - 2.0) <= 5 * results[-1].std_error
        first, last = results[0], results[-1]
        joint = math.hypot(first.std_error, last.std_error)
        assert last.value <= first.value + 5 * joint

    def test_clifford_sampler_n2_third_design(self):
        # qubit Cliffords reproduce the k=3 Haar value 3! = 6 at n=2
        ens = cg.clifford_ensemble(2, seed=31)
        est = fp.frame_potential_mc(ens, 3, 6000)
        assert abs(est.value - 6.0) <= 5 * est.std_error

    def test_clifford_n2_design_ladder_exact(self):
        # full 11520-element enumeration by generator closure: exactly a
        # 3-design (F3 = 3!) and not a 4-design (F4 = 29 > 4!)
        gens = [cg.hadamard_tableau(2, 0), cg.hadamard_tableau(2, 1),
                cg.phase_gate_tableau(2, 0), cg.phase_gate_tableau(2, 1),
                oracles.cz_tableau(2, 0, 1)]
        seen = {cg.identity_tableau(2).key(): cg.identity_tableau(2)}
        frontier = list(seen.values())
        while frontier:
            nxt = []
            for c in frontier:
                for g in gens:
                    cgp = cg.compose(c, g)
                    key = cgp.key()
                    if key not in seen:
                        seen[key] = cgp
                        nxt.append(cgp)
            frontier = nxt
        assert len(seen) == 11520
        from collections import Counter
        hist = Counter(cg.trace_sq(c) for c in seen.values())
        moments = {k: sum(cnt * v**k for v, cnt in hist.items()) / len(seen)
                   for k in (1, 2, 3, 4)}
        assert moments[1] == 1.0
        assert moments[2] == 2.0
        assert moments[3] == 6.0
        assert moments[4] == 29.0
        assert moments[4] > float(wg.haar_frame_potential_exact(4, 4))

    def test_discrete_ensemble_gives_exact_sum(self):
        # no seed and no pair budget: a list is summed exactly
        ens = dm.pauli_ensemble(1)
        assert fp.frame_potential_mc(ens, 2, 1) == fp.frame_potential_exact(ens, 2)

    def test_reproducible(self):
        ens = dm.haar_ensemble(2, seed=9)
        a = fp.frame_potential_mc(ens, 1, 500)
        b = fp.frame_potential_mc(ens, 1, 500)
        assert a.value == b.value and a.std_error == b.std_error


def per_tuple_via_oto(ens, k: int) -> float:
    """The Pauli-tuple sum with one ensemble average per tuple, conjugating
    every B again for every tuple."""
    d = ens.dim
    paulis = paulialg.enumerate_paulis(int(math.log2(d)))
    total = 0.0
    for a_ops in itertools.product(paulis, repeat=k):
        for b_ops in itertools.product(paulis, repeat=k):
            total += abs(otolab.oto_ensemble_average(ens, OtoSpec(a_ops, b_ops)).value) ** 2
    return total * d ** (2 * (k + 1)) / d ** (4 * k)


def weighted_clifford_ensemble() -> dm.Ensemble:
    """The 24 single-qubit Cliffords with seeded unequal weights, so the
    rounding of each tuple's weighted sum depends on its order."""
    w = np.random.default_rng(5).random(24)
    els = cg.clifford_ensemble(1).elements
    return dm.Ensemble("weighted-clifford", 2, weights=tuple(w / w.sum()), elements=els)


class TestFramePotentialViaOto:
    @pytest.mark.parametrize("ens,k", [
        (ens, k) for ens in (dm.trivial_ensemble(1), dm.pauli_ensemble(1),
                             dm.pauli_x_ensemble(1), cg.clifford_ensemble(1),
                             weighted_clifford_ensemble())
        for k in (1, 2)] + [(dm.trivial_ensemble(2), 1), (dm.pauli_ensemble(2), 1),
                            (dm.pauli_x_ensemble(2), 1)],
        ids=lambda v: getattr(v, "label", v))
    def test_equals_the_per_tuple_oracle(self, ens, k):
        # the B~ table keeps every float operation of the per-tuple average
        assert fp.frame_potential_via_oto(ens, k).value == per_tuple_via_oto(ens, k)

    def test_trivial_hand_sum(self):
        # {I} at n=1, k=1: the OTO side sums to 1/4 before the d^4 factor
        est = fp.frame_potential_via_oto(dm.trivial_ensemble(1), 1)
        assert est.value == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("ens_builder,k", [
        (dm.trivial_ensemble, 1), (dm.trivial_ensemble, 2),
        (dm.pauli_ensemble, 1), (dm.pauli_ensemble, 2),
        (lambda n: cg.clifford_ensemble(n), 1), (lambda n: cg.clifford_ensemble(n), 2),
    ])
    def test_matches_exact_route(self, ens_builder, k):
        ens = ens_builder(1)
        via = fp.frame_potential_via_oto(ens, k).value
        exact = fp.frame_potential_exact(ens, k).value
        assert via == pytest.approx(exact, abs=1e-10)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            fp.frame_potential_via_oto(dm.pauli_ensemble(2), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_must_be_positive(self, k):
        # as in frame_potential_exact; k = 0 used to return d^2 from the one
        # empty tuple, and k = -1 to raise from itertools
        with pytest.raises(ValueError, match=f"k must be a positive integer, got k={k}$"):
            fp.frame_potential_via_oto(dm.pauli_ensemble(1), k)


class TestTimeAverages:
    def test_analytic(self):
        assert fp.analytic_time_average(1, 4) == 4
        assert fp.analytic_time_average(2, 4) == 32

    def test_incommensurate_spectrum_converges(self):
        est = fp.time_averaged_frame_potential(
            [0.0, 1.0, math.sqrt(2.0), math.pi], 1, 2000.0, n_grid=200_000)
        assert est.method == "time-average"
        assert abs(est.value - 4.0) / 4.0 <= 0.05

    def test_degenerate_spectrum(self):
        est = fp.time_averaged_frame_potential([0.0] * 4, 2, 100.0, n_grid=1024)
        assert est.value == pytest.approx(256.0, rel=1e-12)

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            fp.time_averaged_frame_potential([0.0, 1.0], 1, 10.0, n_grid=8)

    def test_trapezoid_reduction_matches_direct_2d(self):
        # the anti-diagonal rewrite reproduces the literal 2D trapezoid rule
        spectrum = np.array([0.0, 0.7, 1.9])
        k, t_max, n = 1, 7.0, 33
        ts = np.linspace(0.0, t_max, n)
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        tau = ts[:, None] - ts[None, :]
        f = np.abs(np.exp(-1j * tau[..., None] * spectrum).sum(axis=-1)) ** (2 * k)
        h = t_max / (n - 1)
        direct = float(np.einsum("i,j,ij->", w, w, f)) * h * h / t_max**2
        fast = fp._trapezoid_double_average(spectrum, k, t_max, n)
        assert fast == pytest.approx(direct, rel=1e-12)

    SPECTRUM = (0.0, 0.7, 1.9, math.pi, 5.5)
    DEFAULT_ROWS = fp.TAU_CHUNK_BYTES // (16 * len(SPECTRUM))

    @pytest.mark.parametrize("chunk,n_grid", [(1, 1000), (3, 1000), (100, 1000),
                                              (8192, 2 * 8192 + 5),
                                              (DEFAULT_ROWS, 2 * DEFAULT_ROWS + 5)])
    def test_tau_chunks_match_one_block(self, monkeypatch, chunk, n_grid):
        # chunks of `chunk` tau rows on 1, 2 or 3 threads equal the one-block
        # computation bit for bit
        spectrum = np.array(self.SPECTRUM)
        k, t_max = 2, 40.0
        h = t_max / (n_grid - 1)
        taus = h * np.arange(n_grid)
        f = np.abs(np.exp(-1j * np.outer(taus, spectrum)).sum(axis=1)) ** (2 * k)
        c = np.array([0.5 + n_grid - 2] + [n_grid - m - 1.0 for m in range(1, n_grid - 1)]
                     + [0.25])
        one_block = float((c[0] * f[0] + 2.0 * np.dot(c[1:], f[1:])) * h * h / t_max**2)
        if chunk != self.DEFAULT_ROWS:
            monkeypatch.setattr(fp, "TAU_CHUNK_BYTES", chunk * 16 * len(spectrum))
        for workers in (1, 2, 3):
            monkeypatch.setattr(dm, "_workers", lambda: workers)
            assert fp._trapezoid_double_average(spectrum, k, t_max, n_grid) == one_block

    def test_chunk_rows_from_the_byte_budget(self, monkeypatch):
        # 1 MiB of complex phases: 1,024 tau rows at d = 64, one row from 2^16 levels on
        rows = []
        real_outer = np.outer
        monkeypatch.setattr(fp.np, "outer", lambda a, b: rows.append(len(a)) or real_outer(a, b))
        fp._trapezoid_double_average(np.arange(64.0), 1, 10.0, 2500)
        assert sorted(rows) == [452, 1024, 1024]
        rows.clear()
        fp._trapezoid_double_average(np.zeros(2**17), 1, 10.0, 16)
        assert rows == [1] * 16

    def test_no_thread_outlives_the_call(self, monkeypatch):
        # the pools are kept referenced, so only their shutdown can end the
        # workers: one pool per tau grid, one for the whole brickwork stream
        pools = []

        class Recorded(futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", Recorded)
        monkeypatch.setattr(dm, "_workers", lambda: 3)
        before = threading.active_count()
        est = fp.time_averaged_frame_potential([0.0, 1.0, math.sqrt(2.0)], 1, 50.0,
                                               n_grid=200_000)
        assert threading.active_count() == before
        assert len(pools) == 2 and est.value > 0
        if dm._openblas_threads() is not None:  # pinned maps run inline without one
            est = fp.frame_potential_mc(dm.brickwork_ensemble(6, 2, seed=3), 1, 40)
            assert threading.active_count() == before
            assert len(pools) == 3 and est.value > 0
        assert [pool._max_workers for pool in pools] == [3] * len(pools)


class TestGeneralizedPotentials:
    def test_maximally_mixed_reduces_to_plain(self):
        ens = cg.clifford_ensemble(1)
        rho = np.eye(2) / 2
        plain = fp.frame_potential_exact(ens, 2).value
        assert fp.generalized_F(ens, rho, 2).value == pytest.approx(plain / 4, abs=1e-12)
        g = fp.generalized_G(ens, rho, 2).value
        assert g == pytest.approx(plain / 4, abs=1e-10)

    def test_haar_pure_state_k1(self):
        ens = dm.haar_ensemble(4, seed=41)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        est = fp.generalized_F(ens, rho, 1, mc_samples=20_000)
        assert abs(est.value - 0.25) <= 5 * est.std_error

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_x_ensemble_achieves_haar_pure_value(self, n):
        ens = dm.pauli_x_ensemble(n)
        d = 2**n
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        est = fp.generalized_F(ens, rho, 1)
        assert est.value == pytest.approx(1 / d, abs=1e-12)
        assert float(oracles.generalized_F_haar_reference("pure", 1, d)) == pytest.approx(1 / d)

    def test_haar_reference_values(self):
        assert oracles.generalized_F_haar_reference("pure", 2, 2) == pytest.approx(1 / 3)
        assert oracles.generalized_F_haar_reference("maximally_mixed", 2, 4) \
            == pytest.approx(2 / 16)
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert oracles.generalized_F_haar_reference("explicit", 1, 2, rho) == pytest.approx(
            (0.49 + 0.09) / 2)
        k2 = oracles.generalized_F_haar_reference("explicit", 2, 2, rho)
        assert k2 == pytest.approx(2 / 3 - 2 * 0.58 / 6)
        with pytest.raises(ValueError, match="Monte Carlo"):
            oracles.generalized_F_haar_reference("explicit", 3, 2, rho)

    def test_generalized_G_haar_value_state_independent(self):
        ens = dm.haar_ensemble(2, seed=51)
        for rho in (np.eye(2) / 2, np.diag([0.9, 0.1]).astype(complex)):
            est = fp.generalized_G(ens, rho, 1, mc_samples=20_000)
            assert abs(est.value.real - 0.25) <= 5 * est.std_error
            assert abs(est.value.imag) <= 5 * est.std_error

    def test_squared_regulated_oto_sum_is_d2_times_generalized_F(self):
        # sum over Pauli pairs of |avg regulated 2-point|^2 == d^2 F(rho);
        # the constant is pinned by the rho = I/d case and holds generally
        # for adjoint-closed ensembles (the A/B sums pair U with V+, so the
        # identity involves the daggered ensemble otherwise)
        rng = np.random.default_rng(61)
        u1, u2 = dm.haar_unitary(2, rng), dm.haar_unitary(2, rng)
        mats = (u1, u2, u1.conj().T, u2.conj().T)
        ens = dm.Ensemble("fixed4", 2, weights=(0.25,) * 4, elements=mats)
        for rho in (np.eye(2) / 2, np.diag([0.7, 0.3]).astype(complex)):
            total = 0.0
            for a in paulialg.enumerate_paulis(1):
                for b in paulialg.enumerate_paulis(1):
                    spec = OtoSpec((a,), (b,))
                    avg = sum(0.25 * oracles.regulated_oto(rho, u, spec) for u in mats)
                    total += abs(avg) ** 2
            ref = fp.generalized_F(ens, rho, 1).value
            assert total == pytest.approx(4 * ref, abs=1e-10)


def thermal_W_per_sample(d, beta, t, k, mc_samples, seed):
    """The thermal frame potential one (G, H) pair at a time, as it ran
    before the draws were stacked: the oracle of the stacked thermal_W."""
    rng = np.random.default_rng([seed, 0])
    b = beta / (2 * k)
    vals = np.empty(mc_samples)
    for i in range(mc_samples):
        g = dm.gue_hamiltonian(d, rng)
        h = dm.gue_hamiltonian(d, rng)
        eg, vg = np.linalg.eigh(g)
        eh, vh = np.linalg.eigh(h)
        mg = (vg * np.exp(-(b - 1j * t) * eg + b * eg.min())) @ vg.conj().T
        mh = (vh * np.exp(-(b + 1j * t) * eh + b * eh.min())) @ vh.conj().T
        num = abs(np.trace(mg @ mh)) ** (2 * k)
        den = np.exp(-beta * (eg - eg.min())).sum() * np.exp(-beta * (eh - eh.min())).sum()
        vals[i] = num / den
    return dm.mc_estimate(vals, seed)


def gue_ensemble(d, seed, sampler=None):
    """The Hamiltonian ensemble thermal_W averages: GUE draws at dimension d."""
    sampler = sampler or (lambda rng, size: dm.gue_hamiltonian(d, rng, size))
    return dm.Ensemble("gue", d, sampler=sampler, seed=seed)


class TestThermalW:
    @pytest.mark.parametrize("beta", [0.0, 2.0, 50.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_stack_matches_the_per_sample_loop(self, beta, k):
        # 33 pairs: 66 draws, so one pair lies past the first chunk
        d, t = 4, 0.9
        est = fp.thermal_W(gue_ensemble(d, 75), beta, t, k, 33)
        want = thermal_W_per_sample(d, beta, t, k, 33, 75)
        assert (est.value, est.std_error, est.n_samples) == (want.value, want.std_error, 33)

    def test_byte_budget_keeps_the_estimate(self, monkeypatch):
        # the stream's chunks hold chunk_size(d) draws
        d, sizes = 4, []

        def sampler(rng, size):
            sizes.append(size)
            return dm.gue_hamiltonian(d, rng, size)

        ens = gue_ensemble(d, 75, sampler)
        want = fp.thermal_W(ens, 2.0, 0.9, 2, 33)
        assert sizes == [64, 2]
        sizes.clear()
        monkeypatch.setattr(dm, "CHUNK_BYTES", 7 * 16 * d * d)  # 6 draws per chunk
        assert fp.thermal_W(ens, 2.0, 0.9, 2, 33) == want
        assert sizes == [6] * 11

    def test_beta_zero_matches_plain_over_d2(self):
        d, k, t = 2, 1, 0.7
        west = fp.thermal_W(gue_ensemble(d, 71), 0.0, t, k, 4000)
        ens = dm.gue_evolution_ensemble(d, t, seed=72)
        fest = fp.frame_potential_mc(ens, k, 4000)
        joint = math.hypot(west.std_error, fest.std_error / (d * d))
        assert abs(west.value - fest.value / (d * d)) <= 5 * joint

    def test_cauchy_schwarz_ceiling_at_t0(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            g = dm.gue_hamiltonian(4, rng)
            h = dm.gue_hamiltonian(4, rng)
            eg = np.linalg.eigvalsh(g)
            eh = np.linalg.eigvalsh(h)
            beta, k = 2.0, 1
            mg = np.exp(-beta / (2 * k) * eg)
            num = abs(np.trace(
                (np.linalg.eigh(g)[1] * mg) @ np.linalg.eigh(g)[1].conj().T
                @ (np.linalg.eigh(h)[1] * np.exp(-beta / (2 * k) * eh)) @ np.linalg.eigh(h)[1].conj().T
            )) ** (2 * k)
            den = np.exp(-beta * eg).sum() * np.exp(-beta * eh).sum()
            assert num / den <= 1.0 + 1e-12

    def test_nontrivial_bound_at_large_beta(self):
        est = fp.thermal_W(gue_ensemble(4, 74), 6.0, 0.0, 1, 2000)
        assert est.value < 1.0
        # |E(0)| >= 1/W gives a bound strictly above the trivial 1
        assert 1.0 / est.value > 1.0

    def test_ground_state_limit_at_huge_beta(self):
        # As beta -> infinity each thermal operator projects on its ground
        # state, so W -> E|<g|h>|^4 over independent Haar ground states,
        # 2/(d(d+1)) = 1/3 at d=2. Unshifted exponentials overflow here.
        est = fp.thermal_W(gue_ensemble(2, 3), 1000.0, 0.0, 1, 200)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert abs(est.value - 1 / 3) <= 5 * est.std_error

    @pytest.mark.parametrize("samples", [1, 0])
    def test_needs_two_samples(self, samples):
        # one sample has no standard error: std(ddof=1) would be NaN
        with pytest.raises(ValueError, match="mc_samples >= 2"):
            fp.thermal_W(gue_ensemble(2, 3), 0.0, 0.0, 1, samples)


class TestBounds:
    def test_cardinality(self):
        assert fp.cardinality_bound(2.0, 2, 4) == pytest.approx(128.0)

    def test_entropy(self):
        assert fp.entropy_bound(1.0, 1, 3) == pytest.approx(6.0)

    def test_complexity_hand_value(self):
        want = (2 * 2 * 10 * math.log(2) - math.log(2.0)) / math.log(180.0)
        assert fp.complexity_bound(2.0, 2, 10, 180.0) == pytest.approx(want)

    def test_gate_count_hand_value(self):
        assert fp.gate_count_bound(128.0, 5, 4) == pytest.approx(
            math.log(128.0) / math.log(80.0))

    def test_depth_hand_value(self):
        n, q, g, k, f = 4, 2, 7, 2, 2.0
        denom = math.log(g) + math.log(math.factorial(n) / math.factorial(q) ** (n // q))
        want = (2 * k * n * math.log(2) - math.log(f)) / denom
        assert fp.depth_bound(f, k, n, g, q) == pytest.approx(want)
        with pytest.raises(ValueError):
            fp.depth_bound(f, k, 5, g, 2)

    def test_epsilon_bound(self):
        want = (2 * 2 * math.log(4) - 2 * 0.25 - math.log(2.0)) / math.log(100.0)
        assert fp.epsilon_bound(2.0, 2, 4, 0.5, 100.0) == pytest.approx(want)
        with pytest.raises(ValueError):
            fp.epsilon_bound(2.0, 2, 4, 1.5, 100.0)

    def test_early_time_syk_form(self):
        # tr{avg H^2} = J^2 d (N / 2 q^2) reproduces C(t) > k (J t)^2 (N/q^2)
        jsq, n_maj, q, d, k, t = 0.81, 24, 4, 16, 3, 0.05
        tr_h2 = jsq * d * n_maj / (2 * q * q)
        got = fp.early_time_bound(tr_h2, k, d, t)
        assert got.value == pytest.approx(k * jsq * t * t * n_maj / (q * q))
        assert got.valid

    def test_early_time_validity_flag(self):
        got = fp.early_time_bound(100.0, 1, 2, 10.0)
        assert not got.valid

    def test_errors(self):
        with pytest.raises(ValueError):
            fp.cardinality_bound(0.0, 1, 2)

    def test_report(self):
        rep = fp.bounds_report(2.0, 2, 10, choices=180.0, g=11, q=2, epsilon=0.5)
        assert set(rep) == {"cardinality", "entropy_bits", "complexity",
                            "complexity_epsilon", "gate_count", "depth"}
