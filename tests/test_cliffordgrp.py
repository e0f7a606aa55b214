"""Tests for Clifford tableaux: conjugation, sampling, enumeration, dense unitaries."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlab import cliffordgrp as cg
from designlab import paulialg
from designlab.densemat import pauli_to_dense
from designlab.paulialg import from_label

import oracles

# chi-square critical value, 23 dof, alpha = 0.001
CHI2_23_CRIT = 49.728


def conj_dense(u, m):
    return u.conj().T @ m @ u


def enumerated_trace_sq(c: cg.CliffordTableau) -> int:
    """|tr C|^2 as an exact integer: the number of representative Paulis
    fixed by conjugation with a + sign minus those fixed with a - sign."""
    total = 0
    for p in paulialg.enumerate_paulis(c.n):
        img = cg.conjugate_pauli(c, p)
        if img.representative() == p:
            total += 1 if img.phase == 0 else -1
    return total


def composed_trace_sq(a, b) -> int:
    """|tr(A^dag B)|^2 through the inverse, the product and the 4^n walk."""
    return enumerated_trace_sq(cg.compose(cg.inverse(a), b))


# Property tests draw the same cases on every run (derandomize) and keep no
# example database, so tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def cliffords(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return cg.random_clifford(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@st.composite
def clifford_pairs(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    seeds = draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    return tuple(cg.random_clifford(n, np.random.default_rng(s)) for s in seeds)


@st.composite
def cliffords_and_paulis(draw):
    """A Clifford on n <= 3 qubits and a Pauli on the same qubits, any phase."""
    c = draw(cliffords())
    label = draw(st.text("IXYZ", min_size=c.n, max_size=c.n))
    return c, dataclasses.replace(from_label(label), phase=draw(st.integers(0, 3)))


class TestDenseProperties:
    @PROPERTY
    @given(cliffords_and_paulis())
    def test_conjugate_pauli(self, case):
        c, p = case
        u = cg.to_dense(c)
        np.testing.assert_allclose(pauli_to_dense(cg.conjugate_pauli(c, p)),
                                   conj_dense(u, pauli_to_dense(p)), atol=1e-10)

    @PROPERTY
    @given(cliffords())
    def test_trace_sq(self, c):
        assert cg.trace_sq(c) == pytest.approx(abs(np.trace(cg.to_dense(c))) ** 2, abs=1e-8)

    @PROPERTY
    @given(clifford_pairs())
    def test_pair_trace_sq(self, pair):
        a, b = pair
        dense = abs(np.trace(cg.to_dense(a).conj().T @ cg.to_dense(b))) ** 2
        assert cg.trace_sq(b, a) == pytest.approx(dense, abs=1e-8)


class TestTraceSq:
    """The GF(2) kernel against the 4^n walk over the Paulis."""

    def test_single_qubit_matches_enumeration(self):
        for c in cg.enumerate_single_qubit():
            assert cg.trace_sq(c) == enumerated_trace_sq(c)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_matches_enumeration(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(200):
            c = cg.random_clifford(n, rng)
            assert cg.trace_sq(c) == enumerated_trace_sq(c)

    def test_single_qubit_pairs(self):
        els = cg.enumerate_single_qubit()
        for a in els:
            for b in els:
                assert cg.trace_sq(b, a) == composed_trace_sq(a, b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_pairs(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(50):
            a, b = cg.random_clifford(n, rng), cg.random_clifford(n, rng)
            assert cg.trace_sq(b, a) == composed_trace_sq(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pauli_multiples(self, n):
        # b = a P shares a's bits, so the kernel is everything and only the
        # signs decide: |tr P|^2 is 4^n for P = I and 0 otherwise
        rng = np.random.default_rng(60 + n)
        paulis = [paulialg.identity(n)]
        paulis += [oracles.random_pauli(n, rng, exclude_identity=True) for _ in range(30)]
        for p in paulis:
            a = cg.random_clifford(n, rng)
            b = cg.compose(a, oracles.pauli_tableau(p))
            assert cg.trace_sq(b, a) == composed_trace_sq(a, b)
            assert cg.trace_sq(b, a) == (4**n if p.is_identity_bits else 0)

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_self_pair_is_d_squared(self, n):
        a = cg.random_clifford(n, np.random.default_rng(n))
        assert cg.trace_sq(a, a) == 4**n

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            cg.trace_sq(cg.identity_tableau(2), cg.identity_tableau(1))


class TestConjugatePauli:
    def test_cz_images(self):
        cz = oracles.cz_tableau(2, 0, 1)
        assert cg.conjugate_pauli(cz, from_label("XI")) == from_label("XZ")
        assert cg.conjugate_pauli(cz, from_label("ZI")) == from_label("ZI")
        assert cg.conjugate_pauli(cz, from_label("IX")) == from_label("ZX")
        assert cg.conjugate_pauli(cz, from_label("IZ")) == from_label("IZ")

    def test_cz_needs_two_qubits(self):
        # one qubit used to fail only on a non-Hermitian image, X_a Z_a = -iY_a
        with pytest.raises(ValueError, match="two distinct qubits"):
            oracles.cz_tableau(2, 1, 1)

    def test_identity_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = cg.random_clifford(2, rng)
            assert cg.conjugate_pauli(c, paulialg.identity(2)) == paulialg.identity(2)

    def test_hadamard_dense_oracle(self):
        h = cg.hadamard_tableau(1, 0)
        assert cg.conjugate_pauli(h, from_label("X")) == from_label("Z")
        assert cg.conjugate_pauli(h, from_label("Z")) == from_label("X")
        hd = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for lbl in "XZY":
            img = cg.conjugate_pauli(h, from_label(lbl))
            np.testing.assert_allclose(
                pauli_to_dense(img), conj_dense(hd, pauli_to_dense(from_label(lbl))),
                atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cg.conjugate_pauli(cg.identity_tableau(2), from_label("X"))

    def test_phase_gate(self):
        s = cg.phase_gate_tableau(1, 0)
        img = cg.conjugate_pauli(s, from_label("X"))
        assert img.representative() == from_label("Y") and img.phase == 2  # -Y

    def test_composition_matches_sequential_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = cg.random_clifford(2, rng)
            b = cg.random_clifford(2, rng)
            ab = cg.compose(a, b)
            p = oracles.random_pauli(2, rng)
            assert cg.conjugate_pauli(ab, p) == cg.conjugate_pauli(b, cg.conjugate_pauli(a, p))

    def test_inverse(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = cg.random_clifford(2, rng)
            ci = cg.inverse(c)
            ident = cg.compose(c, ci)
            for p in paulialg.enumerate_paulis(2):
                assert cg.conjugate_pauli(ident, p) == p


class TestRandomClifford:
    def test_symplectic_invariant(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            for _ in range(20):
                c = cg.random_clifford(n, rng)
                assert cg.is_symplectic(c)

    def test_uniform_over_24(self):
        # chi-square over the 24 single-qubit elements, 1e5 draws, p > 0.001
        rng = np.random.default_rng(99)
        keys = [c.key() for c in cg.enumerate_single_qubit()]
        counts = dict.fromkeys(keys, 0)
        n_draws = 100_000
        for _ in range(n_draws):
            counts[cg.random_clifford(1, rng).key()] += 1
        expected = n_draws / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_23_CRIT

    def test_conjugated_pauli_uniform_over_nonidentity(self):
        # C^dag X C hits each of the 3 non-identity Paulis with freq 1/3
        rng = np.random.default_rng(7)
        n_draws = 30_000
        counts = {"X": 0, "Y": 0, "Z": 0, "I": 0}
        for _ in range(n_draws):
            img = cg.conjugate_pauli(cg.random_clifford(1, rng), from_label("X"))
            counts[img.representative().label()] += 1
        assert counts["I"] == 0
        sigma = np.sqrt(n_draws * (1 / 3) * (2 / 3))
        for lbl in "XYZ":
            assert abs(counts[lbl] - n_draws / 3) < 5 * sigma

    def test_draws_are_pinned(self):
        # sha256 of seeded draws, inverses, pair traces and the rng state after
        # them, recorded before tableau rows became packed ints: the same seed
        # gives the same tableaux and consumes the same random numbers
        h = hashlib.sha256()
        rng = np.random.default_rng(20240611)
        for n, draws in ((1, 40), (2, 40), (3, 30), (5, 20), (20, 4)):
            for _ in range(draws):
                c = cg.random_clifford(n, rng)
                h.update(c.key())
                if n <= 5:
                    c2 = cg.random_clifford(n, rng)
                    h.update(cg.inverse(c).key())
                    h.update(b"%d;%d;" % (cg.trace_sq(c, c2), cg.trace_sq(c)))
        h.update(rng.bytes(8))
        assert h.hexdigest() == "50ccccfc402b7bcfd82f7f2c40744c0efa05d1256f45d1b3f3bfa3269dcc365c"

    def test_algebra_is_pinned(self):
        # sha256 of the keys of composed, inverted and gate tableaux and of
        # conjugated Paulis over seeded draws, recorded while tableaux still
        # held PauliString images: the rows and signs give the same elements
        h = hashlib.sha256()
        rng = np.random.default_rng(20261019)
        for n, draws in ((1, 24), (2, 20), (3, 15), (5, 8), (20, 2)):
            for _ in range(draws):
                a, b = cg.random_clifford(n, rng), cg.random_clifford(n, rng)
                p = dataclasses.replace(oracles.random_pauli(n, rng), phase=int(rng.integers(4)))
                site = int(rng.integers(n))
                gates = [oracles.pauli_tableau(p), cg.hadamard_tableau(n, site),
                         cg.phase_gate_tableau(n, site)]
                if n > 1:
                    gates.append(oracles.cz_tableau(n, site, (site + 1) % n))
                for t in [cg.compose(a, b), cg.inverse(a), *gates,
                          *(cg.compose(a, g) for g in gates)]:
                    h.update(t.key())
                for c in (a, cg.compose(a, b)):
                    img = cg.conjugate_pauli(c, p)
                    h.update(b"%d;%d;%d;" % (img.x, img.z, img.phase))
        h.update(rng.bytes(8))
        assert h.hexdigest() == "603b6e0afe9fc87cccff260e03feb67253a31394d286b53dc05743d0a5e6f55f"

    def test_seed_determinism(self):
        a = [cg.random_clifford(3, np.random.default_rng(11)).key() for _ in range(5)]
        b = [cg.random_clifford(3, np.random.default_rng(11)).key() for _ in range(5)]
        assert a == b


class TestEnumerateSingleQubit:
    def test_count(self):
        assert len(cg.enumerate_single_qubit()) == 24

    def test_closed_under_composition(self):
        els = cg.enumerate_single_qubit()
        keys = {c.key() for c in els}
        for a in els[:8]:
            for b in els:
                assert cg.compose(a, b).key() in keys

    def test_contains_identity(self):
        keys = {c.key() for c in cg.enumerate_single_qubit()}
        assert cg.identity_tableau(1).key() in keys

    def test_trace_sq_distribution(self):
        # octahedral rotation classes: |tr|^2 multiset {4 x1, 2 x6, 1 x8, 0 x9}
        vals = sorted(cg.trace_sq(c) for c in cg.enumerate_single_qubit())
        assert vals.count(4) == 1
        assert vals.count(2) == 6
        assert vals.count(1) == 8
        assert vals.count(0) == 9


class TestToDense:
    def test_identity(self):
        np.testing.assert_allclose(cg.to_dense(cg.identity_tableau(2)), np.eye(4), atol=1e-12)

    def test_cz(self):
        np.testing.assert_allclose(
            cg.to_dense(oracles.cz_tableau(2, 0, 1)), np.diag([1, 1, 1, -1]), atol=1e-12)

    def test_hadamard(self):
        np.testing.assert_allclose(
            cg.to_dense(cg.hadamard_tableau(1, 0)),
            np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)

    def test_conjugation_consistency_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = cg.random_clifford(2, rng)
            u = cg.to_dense(c)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
            p = oracles.random_pauli(2, rng)
            got = conj_dense(u, pauli_to_dense(p))
            want = pauli_to_dense(cg.conjugate_pauli(c, p))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_trace_sq_matches_dense(self):
        rng = np.random.default_rng(4)
        for n in (1, 2):
            for _ in range(25):
                c = cg.random_clifford(n, rng)
                assert cg.trace_sq(c) == pytest.approx(abs(np.trace(cg.to_dense(c))) ** 2, abs=1e-8)

    def test_guard(self):
        with pytest.raises(ValueError):
            cg.to_dense(cg.identity_tableau(6))

    @pytest.mark.parametrize("xs,zs", [
        (("X",), ("X",)),            # X and Z both sent to X
        (("XI", "IX"), ("XX", "IZ")),  # the images of X_0 and Z_0 commute
        (("I",), ("Z",)),            # X sent to the identity
    ])
    def test_non_symplectic_tableau_is_rejected(self, xs, zs):
        rows = tuple(paulialg.to_row(from_label(label)) for label in xs + zs)
        c = cg.CliffordTableau(len(xs), rows, (0,) * len(rows))
        with pytest.raises(ValueError, match="symplectic"):
            cg.to_dense(c)


class TestConstructor:
    def test_identity_rows_and_signs(self):
        c = cg.identity_tableau(2)
        assert c.rows == (0b1000, 0b0100, 0b0010, 0b0001) and c.signs == (0, 0, 0, 0)

    @pytest.mark.parametrize("rows,signs,message", [
        ((0b10,), (0, 0), "one image per generator"),
        ((0b10, 0b01), (0,), "one image per generator"),
        ((0b10, 0b100), (0, 0), "qubit count mismatch"),  # a row >= 4^n
        ((0b10, -1), (0, 0), "qubit count mismatch"),
        ((0b10, 0b01), (0, 2), "Hermitian"),
    ])
    def test_rejects_malformed_tableaux(self, rows, signs, message):
        with pytest.raises(ValueError, match=message):
            cg.CliffordTableau(1, rows, signs)


class TestGroupStructure:
    def test_pauli_tableaux_fix_paulis_up_to_sign(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = oracles.random_pauli(2, rng)
            t = oracles.pauli_tableau(p)
            for q in paulialg.enumerate_paulis(2):
                img = cg.conjugate_pauli(t, q)
                assert img.representative() == q
                assert img.phase in (0, 2)

    def test_two_design_cancellation(self):
        # sum over all 24 Cliffords of (C+ (x) C+)(P (x) Q)(C (x) C) vanishes
        # for distinct non-identity P, Q
        els = cg.enumerate_single_qubit()
        denses = [cg.to_dense(c) for c in els]
        p = pauli_to_dense(from_label("X"))
        q = pauli_to_dense(from_label("Z"))
        acc = np.zeros((4, 4), dtype=complex)
        for u in denses:
            uu = np.kron(u, u)
            acc += uu.conj().T @ np.kron(p, q) @ uu
        assert np.linalg.norm(acc) <= 1e-10

    def test_key_bytes(self):
        # symplectic rows (x | z) of the X and Z images, then the sign bits
        assert cg.hadamard_tableau(1, 0).key() == bytes([0, 1, 1, 0, 0, 0])
        assert cg.phase_gate_tableau(1, 0).key() == bytes([1, 1, 0, 1, 1, 0])
        assert oracles.cz_tableau(2, 0, 1).key()[:8] == bytes([1, 0, 0, 1, 0, 1, 1, 0])
