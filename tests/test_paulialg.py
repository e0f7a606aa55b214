"""Tests for the exact Pauli algebra.

Dense oracles are built inline from an independent 2x2 matrix table so they
do not share any code path with the module under test.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlab import paulialg
from designlab.paulialg import (
    PauliString,
    commutes,
    enumerate_paulis,
    from_label,
    identity,
    k_phase,
    mul,
    trace_product,
)

from oracles import pauli_tableau, random_pauli

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(p: PauliString) -> np.ndarray:
    """Independent dense oracle: i**phase times a Kronecker chain."""
    m = np.array([[1]], dtype=complex)
    for letter in p.representative().label():
        m = np.kron(m, SIGMA[letter])
    return (1j**p.phase) * m


def all_paulis(n):
    return enumerate_paulis(n)


X = from_label("X")
Y = from_label("Y")
Z = from_label("Z")
I1 = from_label("I")


class TestMul:
    def test_involution(self):
        assert mul(X, X) == identity(1)

    def test_zx_is_i_y(self):
        # ZX = iY: bits of Y with phase exponent 1
        r = mul(Z, X)
        assert r.representative() == Y
        assert r.phase == 1

    def test_xz_chain_is_minus_identity(self):
        r = paulialg.mul_all([X, Z, X, Z])
        oracle = SIGMA["X"] @ SIGMA["Z"] @ SIGMA["X"] @ SIGMA["Z"]
        assert r.is_identity_bits
        np.testing.assert_allclose(dense(r), oracle, atol=1e-12)
        assert r.phase == 2  # -I

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul(X, from_label("XX"))

    @pytest.mark.parametrize("n", [1, 2])
    def test_mul_matches_dense_all_pairs(self, n):
        ps = all_paulis(n)
        for p, q in itertools.product(ps, ps):
            np.testing.assert_allclose(dense(mul(p, q)), dense(p) @ dense(q), atol=1e-12)

    def test_mul_matches_dense_random_n3(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_pauli(3, rng)
            q = random_pauli(3, rng)
            np.testing.assert_allclose(dense(mul(p, q)), dense(p) @ dense(q), atol=1e-12)


class TestCommutes:
    def test_x_z_anticommute(self):
        assert not commutes(X, Z)

    def test_two_anticommuting_sites_commute(self):
        assert commutes(from_label("XZ"), from_label("ZX"))

    def test_single_qubit_commutant_counts(self):
        # Of the d^2 - 1 non-identity Paulis, d^2/2 - 1 commute with a fixed
        # non-identity P (P itself included) and d^2/2 anticommute; at n=1
        # that is 1 commuting and 2 anticommuting.
        for p in all_paulis(1)[1:]:
            others = all_paulis(1)[1:]
            n_comm = sum(commutes(p, q) for q in others)
            assert n_comm == 1
            assert len(others) - n_comm == 2

    def test_matches_k_phase(self):
        for p, q in itertools.product(all_paulis(2), repeat=2):
            assert commutes(p, q) == (k_phase(p, q) == 1)


class TestKPhase:
    def test_examples(self):
        assert k_phase(X, Z) == -1
        for p in all_paulis(2):
            assert k_phase(p, identity(2)) == 1

    def test_xy_zz_dense_oracle(self):
        p = from_label("XY")
        q = from_label("ZZ")
        lhs = dense(q).conj().T @ dense(p) @ dense(q)
        assert k_phase(p, q) == 1
        np.testing.assert_allclose(lhs, k_phase(p, q) * dense(p), atol=1e-12)

    def test_conjugation_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_pauli(2, rng)
            q = random_pauli(2, rng)
            lhs = dense(q).conj().T @ dense(p) @ dense(q)
            np.testing.assert_allclose(lhs, k_phase(p, q) * dense(p), atol=1e-12)


class TestTraceProduct:
    def test_traceless(self):
        assert trace_product([X]) == 0

    def test_orthogonality(self):
        # tr{P_i^dag P_j} = d delta_ij
        assert trace_product([X, X]) == 2
        for p, q in itertools.product(all_paulis(1), repeat=2):
            val = trace_product([p.adjoint(), q])
            assert val == (2 if p == q else 0)

    def test_xzxz(self):
        assert trace_product([X, Z, X, Z]) == -2
        oracle = np.trace(SIGMA["X"] @ SIGMA["Z"] @ SIGMA["X"] @ SIGMA["Z"])
        assert trace_product([X, Z, X, Z]) == pytest.approx(oracle)

    def test_empty_returns_d(self):
        assert trace_product([], n=3) == 8
        with pytest.raises(ValueError):
            trace_product([])

    def test_matches_dense_exactly(self):
        ps = all_paulis(2)
        rng = np.random.default_rng(3)
        for length in (1, 2, 3, 4):
            for _ in range(40):
                factors = [ps[rng.integers(len(ps))] for _ in range(length)]
                oracle = np.trace(np.linalg.multi_dot([dense(f) for f in factors])) if length > 1 else np.trace(dense(factors[0]))
                assert trace_product(factors) == oracle


class TestEnumerate:
    def test_n1_order(self):
        labels = [p.label() for p in enumerate_paulis(1)]
        assert labels == ["I", "X", "Z", "Y"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_qubit_zero_is_the_most_significant_digit(self, n):
        labels = [p.label() for p in enumerate_paulis(n)]
        assert labels == ["".join(t) for t in itertools.product("IXZY", repeat=n)]

    def test_n2_count(self):
        assert len(enumerate_paulis(2)) == 16

    def test_all_phase_zero_and_distinct(self):
        ps = enumerate_paulis(2)
        assert all(p.phase == 0 for p in ps)
        assert len(set(ps)) == 16

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_paulis(9)


class TestRandomPauli:
    def test_exclude_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = random_pauli(2, rng, exclude_identity=True)
            assert not p.is_identity_bits

    def test_uniform_frequencies(self):
        # binomial 5-sigma band around 1/4 per single-qubit Pauli
        rng = np.random.default_rng(42)
        n_draws = 100_000
        counts = {lbl: 0 for lbl in "IXZY"}
        for _ in range(n_draws):
            counts[random_pauli(1, rng).label()] += 1
        sigma = np.sqrt(n_draws * 0.25 * 0.75)
        for c in counts.values():
            assert abs(c - n_draws / 4) < 5 * sigma

    def test_draws_index_the_enumeration(self):
        ps = enumerate_paulis(3)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            assert random_pauli(3, a, exclude_identity=True) == ps[int(b.integers(1, 64))]

    def test_seed_determinism(self):
        a = [random_pauli(3, np.random.default_rng(5)) for _ in range(20)]
        b = [random_pauli(3, np.random.default_rng(5)) for _ in range(20)]
        assert a == b


class TestPauliTwirl:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twirl_projects_to_trace(self, n):
        # (1/4^n) sum_P P^dag A P == tr(A)/d * I for random dense A
        rng = np.random.default_rng(n)
        d = 2**n
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        acc = np.zeros((d, d), dtype=complex)
        for p in enumerate_paulis(n):
            m = dense(p)
            acc += m.conj().T @ a @ m
        acc /= 4**n
        np.testing.assert_allclose(acc, np.trace(a) / d * np.eye(d), atol=1e-10)


class TestLabels:
    def test_roundtrip(self):
        for p in enumerate_paulis(2):
            assert from_label(p.label()) == p

    def test_leftmost_is_qubit_zero(self):
        # the packed row is (x_1 .. x_n | z_1 .. z_n) with x_1 at the top bit
        assert paulialg.to_row(from_label("XI")) == 0b10_00
        assert paulialg.to_row(from_label("IZY")) == 0b001_011

    def test_letters_ignore_the_phase(self):
        assert mul(Z, X).letters() == "Y"
        assert from_label("xizy").letters() == "XIZY"

    def test_phase_never_serialized(self):
        with pytest.raises(ValueError):
            mul(Z, X).label()

    def test_bad_label(self):
        with pytest.raises(ValueError):
            from_label("XQ")


class TestSymplecticRows:
    def test_roundtrip_with_phase(self):
        for p in enumerate_paulis(2):
            row = paulialg.to_row(p)
            assert paulialg.from_row(2, row) == p
            assert paulialg.from_row(2, row, 3) == dataclasses.replace(p, phase=3)

    # (n, packed row): no qubits, and rows that do not fit in 2n bits
    @pytest.mark.parametrize("row", [(0, 0), (1, 4), (1, -1), (2, 16)])
    def test_rejects_malformed_rows(self, row):
        with pytest.raises(ValueError):
            paulialg.from_row(*row)

    def test_row_product_is_anticommutation(self):
        ps = enumerate_paulis(2)
        for p, q in itertools.product(ps, ps):
            want = 0 if commutes(p, q) else 1
            assert paulialg.row_product(paulialg.to_row(p), paulialg.to_row(q), 2) == want

    def test_embed(self):
        p = dataclasses.replace(from_label("XY"), phase=1)
        assert paulialg.embed(p, 4, (3, 1)) == dataclasses.replace(from_label("IYIX"), phase=1)
        for qubits in ((0,), (0, 4)):
            with pytest.raises(ValueError):
                paulialg.embed(p, 4, qubits)

    def test_supports_overlap(self):
        assert paulialg.supports_overlap(from_label("XIZ"), from_label("IIY"))
        assert not paulialg.supports_overlap(from_label("XZI"), from_label("IIY"))


# Property tests draw the same cases on every run (derandomize) and keep no
# example database, so tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def pauli_words(draw, max_n=4, max_len=4):
    """A list of 1..max_len Paulis on one n <= max_n, each with any phase."""
    n = draw(st.integers(1, max_n))
    length = draw(st.integers(1, max_len))
    return [dataclasses.replace(from_label(draw(st.text("IXYZ", min_size=n, max_size=n))),
                                phase=draw(st.integers(0, 3)))
            for _ in range(length)]


class TestDenseProperties:
    @PROPERTY
    @given(pauli_words(max_len=2))
    def test_mul(self, word):
        p, q = word[0], word[-1]
        np.testing.assert_allclose(dense(mul(p, q)), dense(p) @ dense(q), atol=1e-12)

    @PROPERTY
    @given(pauli_words(max_len=2))
    def test_commutes(self, word):
        a, b = dense(word[0]), dense(word[-1])
        assert commutes(word[0], word[-1]) == np.allclose(a @ b, b @ a, atol=1e-12)

    @PROPERTY
    @given(pauli_words(max_len=1))
    def test_adjoint(self, word):
        p = word[0]
        np.testing.assert_allclose(dense(p.adjoint()), dense(p).conj().T, atol=1e-12)

    @PROPERTY
    @given(pauli_words())
    def test_trace_product_int(self, word):
        oracle = np.trace(np.linalg.multi_dot([dense(p) for p in word] + [np.eye(2**word[0].n)]))
        assert complex(*paulialg.trace_product_int(word)) == oracle


# ---------------------------------------------------------------------------
# the product kernel against a chain of one-product PauliStrings
# ---------------------------------------------------------------------------

def chain_mul(p: PauliString, q: PauliString) -> PauliString:
    """The one-product formula, one PauliString per product."""
    assert p.n == q.n
    x, z = p.x ^ q.x, p.z ^ q.z
    phase = (p.phase + q.phase + (p.x & p.z).bit_count() + (q.x & q.z).bit_count()
             + 2 * (p.z & q.x).bit_count() - (x & z).bit_count()) % 4
    return PauliString(p.n, x, z, phase)


def chain_mul_all(factors) -> PauliString:
    out = factors[0]
    for f in factors[1:]:
        out = chain_mul(out, f)
    return out


def chain_trace_product_int(factors) -> tuple[int, int]:
    prod = chain_mul_all(factors)
    if not prod.is_identity_bits:
        return (0, 0)
    d = 2**prod.n
    return [(d, 0), (0, d), (-d, 0), (0, -d)][prod.phase]


def chain_apply_images(p: PauliString, images) -> PauliString:
    """p as the scalar i^(phase + x.z) times the chained product of the
    images of its X and Z generators."""
    out = identity(p.n)
    row, top = paulialg.to_row(p), 2 * p.n - 1
    for j, img in enumerate(images):
        if (row >> (top - j)) & 1:
            out = chain_mul(out, img)
    return PauliString(p.n, out.x, out.z, (out.phase + p.phase + (p.x & p.z).bit_count()) % 4)


def chain_conjugate(c, p: PauliString) -> PauliString:
    images = [paulialg.from_row(c.n, row, 2 * sign) for row, sign in zip(c.rows, c.signs)]
    return chain_apply_images(p, images)


def chain_trace_sq(c, ref) -> int:
    """trace_sq's GF(2) elimination with its sign test on chained images."""
    pivots, dim = {}, 0
    for j, (row_a, row_b) in enumerate(zip(ref.rows, c.rows)):
        row, comb = row_a ^ row_b, 1 << (2 * c.n - 1 - j)
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, comb)
                break
            row ^= pivots[lead][0]
            comb ^= pivots[lead][1]
        else:
            q = paulialg.from_row(c.n, comb)
            if chain_conjugate(c, q).phase != chain_conjugate(ref, q).phase:
                return 0
            dim += 1
    return 1 << dim


def with_phases(paulis):
    return [dataclasses.replace(p, phase=ph) for p in paulis for ph in range(4)]


class TestProductKernel:
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_pair_with_every_phase(self, n):
        ps = with_phases(all_paulis(n))
        for p, q in itertools.product(ps, ps):
            assert mul(p, q) == chain_mul(p, q)
            assert paulialg.mul_all([p, q, p]) == chain_mul_all([p, q, p])
            assert paulialg.trace_product_int([p, q]) == chain_trace_product_int([p, q])
            assert paulialg.trace_product_int([p, q, q, p]) == chain_trace_product_int([p, q, q, p])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_seeded_cliffords(self, n):
        from designlab import cliffordgrp as cg

        rng = np.random.default_rng(100 + n)
        for _ in range(6):
            c, ref = cg.random_clifford(n, rng), cg.random_clifford(n, rng)
            word = [dataclasses.replace(random_pauli(n, rng), phase=int(rng.integers(4)))
                    for _ in range(4)]
            conj = [cg.conjugate_pauli(c, p) for p in word]
            assert conj == [chain_conjugate(c, p) for p in word]
            assert cg.conjugate_pauli(ref, word[0]) == chain_conjugate(ref, word[0])
            mixed = [f for pair in zip(word, conj) for f in pair]
            assert paulialg.trace_product_int(mixed) == chain_trace_product_int(mixed)
            assert paulialg.trace_product_int(word + [w.adjoint() for w in reversed(word)]) \
                == chain_trace_product_int(word + [w.adjoint() for w in reversed(word)])
            for a, b in ((ref, c), (c, c), (cg.compose(ref, pauli_tableau(word[1])), ref)):
                assert cg.trace_sq(b, a) == chain_trace_sq(b, a)

    def test_mixed_qubit_counts_raise(self):
        with pytest.raises(ValueError, match="qubit count mismatch"):
            paulialg.trace_product_int([X, from_label("XI")])
        with pytest.raises(ValueError, match="qubit count mismatch"):
            paulialg.trace_product_int([X, X, from_label("ZZ"), X])
        with pytest.raises(ValueError, match="qubit count mismatch"):
            paulialg.mul_all([from_label("XY"), X])
        from designlab import cliffordgrp as cg

        with pytest.raises(ValueError, match="qubit count mismatch"):
            cg.conjugate_pauli(cg.identity_tableau(2), X)
