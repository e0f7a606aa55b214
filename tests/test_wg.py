"""Tests for the exact Weingarten layer.

Character tables and Weingarten closed forms are frozen from the S_2, S_3
and S_4 tables; brute-force oracles (permutation sums, dense matrices,
Monte Carlo moments) provide the independent routes.
"""

import bisect
import collections
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from designlab import wg

F = Fraction


def class_sizes(k: int) -> collections.Counter:
    """Permutations of each cycle type, counted over all k! of them."""
    return collections.Counter(wg.cycle_type(p) for p in wg.permutations_of(k))


class TestPartitions:
    def test_two(self):
        assert wg.partitions(2) == [(2,), (1, 1)]

    def test_three_order(self):
        assert wg.partitions(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_four_count(self):
        assert len(wg.partitions(4)) == 5

    def test_guard(self):
        with pytest.raises(ValueError):
            wg.partitions(13)


# Frozen character tables, rows = irrep partition, cols = class cycle type.
S2_TABLE = {((2,), (1, 1)): 1, ((2,), (2,)): 1,
            ((1, 1), (1, 1)): 1, ((1, 1), (2,)): -1}
S3_TABLE = {
    ((3,), (1, 1, 1)): 1, ((3,), (2, 1)): 1, ((3,), (3,)): 1,
    ((2, 1), (1, 1, 1)): 2, ((2, 1), (2, 1)): 0, ((2, 1), (3,)): -1,
    ((1, 1, 1), (1, 1, 1)): 1, ((1, 1, 1), (2, 1)): -1, ((1, 1, 1), (3,)): 1,
}
S4_TABLE = {
    ((4,), (1, 1, 1, 1)): 1, ((4,), (2, 1, 1)): 1, ((4,), (2, 2)): 1, ((4,), (3, 1)): 1, ((4,), (4,)): 1,
    ((3, 1), (1, 1, 1, 1)): 3, ((3, 1), (2, 1, 1)): 1, ((3, 1), (2, 2)): -1, ((3, 1), (3, 1)): 0, ((3, 1), (4,)): -1,
    ((2, 2), (1, 1, 1, 1)): 2, ((2, 2), (2, 1, 1)): 0, ((2, 2), (2, 2)): 2, ((2, 2), (3, 1)): -1, ((2, 2), (4,)): 0,
    ((2, 1, 1), (1, 1, 1, 1)): 3, ((2, 1, 1), (2, 1, 1)): -1, ((2, 1, 1), (2, 2)): -1, ((2, 1, 1), (3, 1)): 0, ((2, 1, 1), (4,)): 1,
    ((1, 1, 1, 1), (1, 1, 1, 1)): 1, ((1, 1, 1, 1), (2, 1, 1)): -1, ((1, 1, 1, 1), (2, 2)): 1, ((1, 1, 1, 1), (3, 1)): 1, ((1, 1, 1, 1), (4,)): -1,
}


class TestCharacters:
    @pytest.mark.parametrize("table", [S2_TABLE, S3_TABLE, S4_TABLE])
    def test_tables(self, table):
        for (lam, mu), val in table.items():
            assert wg.character(lam, mu) == val, (lam, mu)

    def test_examples(self):
        assert wg.character((1, 1), (2,)) == -1
        assert wg.character((2, 1), (3,)) == -1
        assert wg.character((2, 2), (1, 1, 1, 1)) == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            wg.character((2,), (3,))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_orthogonality(self, k):
        # sum_mu |class(mu)| chi^lam(mu) chi^lam'(mu) = k! delta
        parts, sizes = wg.partitions(k), class_sizes(k)
        for lam, lam2 in itertools.product(parts, repeat=2):
            s = sum(sizes[mu] * wg.character(lam, mu) * wg.character(lam2, mu)
                    for mu in parts)
            assert s == (math.factorial(k) if lam == lam2 else 0)

    def test_character_matches_permutation_matrix_trace(self):
        # chi^lam at identity equals hook dimension; cross-check class sizes
        for k in (2, 3, 4):
            sizes = class_sizes(k)
            assert sorted(sizes) == sorted(wg.partitions(k))
            assert sum(sizes.values()) == math.factorial(k)


class TestDimensions:
    def test_hook_examples(self):
        assert wg.irrep_dimension((3, 1)) == 3
        for k in range(1, 8):
            assert wg.irrep_dimension((k,)) == 1

    @pytest.mark.parametrize("k", range(2, 7))
    def test_burnside(self, k):
        assert sum(wg.irrep_dimension(lam) ** 2 for lam in wg.partitions(k)) == math.factorial(k)

    def test_dimension_is_character_at_identity(self):
        for k in (2, 3, 4):
            ident = (1,) * k
            for lam in wg.partitions(k):
                assert wg.irrep_dimension(lam) == wg.character(lam, ident)


class TestContentPolynomial:
    def test_examples(self):
        assert wg.content_polynomial((1, 1), 2) == 2
        for d in (2, 3, 5, 7):
            assert wg.content_polynomial((2,), d) == d * (d + 1)
            assert wg.content_polynomial((2, 2), d) == d * d * (d + 1) * (d - 1)

    def test_vanishing_flagged_as_zero(self):
        assert wg.content_polynomial((1, 1, 1), 2) == 0


def wg_s2(d):
    return {(1, 1): F(1, d * d - 1), (2,): F(-1, d * (d * d - 1))}


def wg_s3(d):
    # Wg(1,1,1) from the character sum; the printed closed form carries a
    # denominator typo, so freeze the correct (d^2-2)/(d(d^2-1)(d^2-4)).
    return {
        (1, 1, 1): F(d * d - 2, d * (d * d - 1) * (d * d - 4)),
        (2, 1): F(-1, (d * d - 1) * (d * d - 4)),
        (3,): F(2, d * (d * d - 1) * (d * d - 4)),
    }


def wg_s4(d):
    den = d * d * (d * d - 1) * (d * d - 4) * (d * d - 9)
    return {
        (1, 1, 1, 1): F(d**4 - 8 * d * d + 6, den),
        (2, 1, 1): F(-(d**3) + 4 * d, den),
        (2, 2): F(d * d + 6, den),
        (3, 1): F(2 * d * d - 3, den),
        (4,): F(-5 * d, den),
    }


class TestWeingarten:
    def test_examples(self):
        assert wg.weingarten((1, 1), 4) == F(1, 15)
        assert wg.weingarten((2,), 2) == F(-1, 6)
        assert wg.weingarten((2, 1, 1), 4) == F(-1, 420)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_s2_table(self, d):
        for mu, val in wg_s2(d).items():
            assert wg.weingarten(mu, d) == val

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_s3_table(self, d):
        for mu, val in wg_s3(d).items():
            assert wg.weingarten(mu, d) == val

    @pytest.mark.parametrize("d", [4, 5])
    def test_s4_table(self, d):
        for mu, val in wg_s4(d).items():
            assert wg.weingarten(mu, d) == val

    def test_k1_forced_value(self):
        for d in range(1, 9):
            assert wg.weingarten((1,), d) == F(1, d)

    def test_beyond_dimension_sums_partitions_with_at_most_d_rows(self):
        # d=1: U is a phase, so sum_{sigma,tau} Wg(sigma tau^-1) = k!^2 Wg = 1
        for k in range(1, 6):
            for mu in wg.partitions(k):
                assert wg.weingarten(mu, 1) == F(1, math.factorial(k) ** 2)
        # k=3 at d=2: only (3) and (2,1) enter; chi^(2,1) vanishes on (2,1)
        assert wg.weingarten((3,), 2) == F(-7, 144)
        assert wg.weingarten((2, 1), 2) == F(1, 144)
        assert wg.weingarten((1, 1, 1), 2) == F(17, 144)
        # E|U_00|^6 = sum_{sigma,tau} Wg(sigma tau^-1) = 6 sum_sigma Wg(sigma);
        # |U_00|^2 is uniform on [0, 1] at d=2, so the moment is 1/4
        sizes = class_sizes(3)
        assert 6 * sum(sizes[mu] * wg.weingarten(mu, 2) for mu in wg.partitions(3)) == F(1, 4)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="dimension"):
            wg.weingarten((1,), 0)

    @pytest.mark.parametrize("mu", [(3, 0), (2, -1), (0,)])
    def test_cycle_type_parts_must_be_positive(self, mu):
        # a part 0 used to give Wg((3, 0), 4) = 0, where Wg((3,), 4) = 1/360
        with pytest.raises(ValueError, match="parts must be positive"):
            wg.weingarten(mu, 4)


def cycle_count_q_matrix(k, d):
    """Q_{sigma,lambda} = d^(#cycles(sigma lambda)) built entry by entry:
    the independent oracle for wg.q_matrix."""
    perms = wg.permutations_of(k)
    return tuple(tuple(d ** len(wg.cycles_of(wg.compose(sigma, lam))) for lam in perms)
                 for sigma in perms)


def matmul(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def gauss_jordan_inverse(q):
    """Exact inverse of a square integer matrix by rational Gauss-Jordan
    elimination: the independent oracle for wg.q_inverse."""
    m = len(q)
    a = [[F(q[i][j]) for j in range(m)] + [F(int(i == j)) for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("Q is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[m:]) for row in a)


class TestQMatrix:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_k2(self, d):
        assert wg.q_matrix(2, d) == ((d * d, d), (d, d * d))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_cycle_count_oracle(self, k):
        for d in (1, 2, 3, 7):
            assert wg.q_matrix(k, d) == cycle_count_q_matrix(k, d)

    def test_q_inverse_k2_d2(self):
        inv = wg.q_inverse(2, 2)
        assert inv == ((F(1, 3), F(-1, 6)), (F(-1, 6), F(1, 3)))

    @pytest.mark.parametrize("k,d", [(2, 2), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5)])
    def test_q_times_inverse_is_identity_exactly(self, k, d):
        q = wg.q_matrix(k, d)
        qi = wg.q_inverse(k, d)
        m = len(q)
        for i in range(m):
            for j in range(m):
                s = sum(q[i][l] * qi[l][j] for l in range(m))
                assert s == (1 if i == j else 0)
        assert qi == gauss_jordan_inverse(q)

    @pytest.mark.parametrize("k,d", [(5, 5), (5, 8), (6, 6)])
    def test_identity_row_of_q_times_inverse_large_k(self, k, d):
        # Q and its inverse (tabulated that way) are class functions of the
        # product of their indices, so (Q Q^-1)[sigma][tau] depends on
        # tau sigma^-1 alone: the identity row (index 0) being delta proves
        # the whole product equals I.
        q0 = wg.q_matrix(k, d)[0]
        qi = wg.q_inverse(k, d)
        m = len(q0)
        for j in range(m):
            s = sum(q0[l] * qi[l][j] for l in range(m))
            assert s == (1 if j == 0 else 0)

    @pytest.mark.parametrize("k,d", [(2, 3), (3, 4), (4, 4)])
    def test_inverse_entries_are_weingarten_values(self, k, d):
        perms = wg.permutations_of(k)
        qi = wg.q_inverse(k, d)
        for i, pi in enumerate(perms):
            for j, sigma in enumerate(perms):
                assert qi[i][j] == wg.weingarten(wg.cycle_type(wg.compose(pi, sigma)), d)

    @pytest.mark.parametrize("k,d", [(3, 2), (4, 2), (4, 3)])
    def test_pseudo_inverse_beyond_dimension(self, k, d):
        # Q is singular for k > d; the table is its Moore-Penrose inverse:
        # Q Wg Q = Q, Wg Q Wg = Wg, and both products are symmetric
        q = [list(row) for row in wg.q_matrix(k, d)]
        w = [list(row) for row in wg.q_inverse(k, d)]
        qw, wq = matmul(q, w), matmul(w, q)
        assert matmul(qw, q) == q
        assert matmul(wq, w) == w
        for prod in (qw, wq):
            assert prod == [list(col) for col in zip(*prod)]
        assert qw != [[int(i == j) for j in range(len(q))] for i in range(len(q))]


def loop_contract(k, d, left, right):
    """The k!^2 walk over q_inverse(k, d), skipping zero entries: the oracle
    for wg.contract."""
    qinv = wg.q_inverse(k, d)
    total = F(0)
    for i, lv in enumerate(left):
        if lv == 0:
            continue
        for j, rv in enumerate(right):
            if rv != 0:
                total += qinv[i][j] * lv * rv
    return total


def seeded_vector(rng, k, bound=5):
    """Integers in [-bound, bound], each entry zero with probability 1/2 and
    all but about 60 entries zero at k = 6, to keep the oracle walk short."""
    m = math.factorial(k)
    vals = rng.integers(-bound, bound + 1, size=m)
    keep = rng.random(m) < (0.5 if k < 6 else 60 / m)
    return [int(v) for v in vals * keep]


class TestContract:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_index_matches_cycle_types(self, k):
        perms = wg.permutations_of(k)
        parts = wg.partitions(k)
        index = wg._product_classes(k)
        assert index.dtype == np.int8 and index.shape == (len(perms),) * 2
        for row, pi in zip(index.tolist(), perms):
            assert [parts[c] for c in row] == [wg.cycle_type(wg.compose(pi, s)) for s in perms]

    def test_index_rows_at_k6(self):
        perms = wg.permutations_of(6)
        parts = wg.partitions(6)
        index = wg._product_classes(6)
        assert index.dtype == np.int8 and index.shape == (720, 720)
        rng = np.random.default_rng(6)
        for i in [0, *rng.integers(1, 720, size=4)]:
            assert [parts[c] for c in index[i].tolist()] == \
                [wg.cycle_type(wg.compose(perms[i], s)) for s in perms]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_integer_vectors_match_the_loop(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        left, right = seeded_vector(rng, k), seeded_vector(rng, k)
        got = wg.contract(k, d, left, right)
        assert isinstance(got, Fraction) and got == loop_contract(k, d, left, right)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_gaussian_integer_vectors_match_the_loop(self, k, d):
        # (ar + i ai)(br + i bi): four real contractions against one complex walk
        rng = np.random.default_rng(100 * k + d)
        ar, ai, br, bi = (seeded_vector(rng, k) for _ in range(4))
        qinv = wg.q_inverse(k, d)
        re = im = F(0)
        for i, j in itertools.product(range(len(ar)), repeat=2):
            if (ar[i] or ai[i]) and (br[j] or bi[j]):
                re += qinv[i][j] * (ar[i] * br[j] - ai[i] * bi[j])
                im += qinv[i][j] * (ar[i] * bi[j] + ai[i] * br[j])
        assert wg.contract(k, d, ar, br) - wg.contract(k, d, ai, bi) == re
        assert wg.contract(k, d, ar, bi) + wg.contract(k, d, ai, br) == im

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_zero_vectors(self, k):
        zero = [0] * math.factorial(k)
        ones = [1] * math.factorial(k)
        for left, right in ((zero, zero), (zero, ones), (ones, zero)):
            assert wg.contract(k, 2, left, right) == 0

    def test_products_past_int64_stay_exact(self):
        # 6^2 terms of size up to 2^120 would wrap in int64
        rng = np.random.default_rng(3)
        left = [int(v) << 60 for v in rng.integers(-9, 10, size=6)]
        right = [int(v) << 60 for v in rng.integers(-9, 10, size=6)]
        assert wg.contract(3, 2, left, right) == loop_contract(3, 2, left, right)

    def test_complex_vectors(self):
        rng = np.random.default_rng(4)
        left = rng.normal(size=24) + 1j * rng.normal(size=24)
        right = rng.normal(size=24) + 1j * rng.normal(size=24)
        qinv = np.array(wg.q_inverse(4, 3), dtype=float)
        assert wg.contract(4, 3, left, right) == pytest.approx(left @ qinv @ right, abs=1e-12)


def permutation_matrix_from_eye(pi: tuple[int, ...], d: int) -> np.ndarray:
    """W_pi as rows of the d^k-sided identity, picked by the permuted index."""
    cols = np.arange(d ** len(pi)).reshape((d,) * len(pi))
    return np.eye(d ** len(pi))[np.transpose(cols, wg.inverse(pi)).ravel()]


class TestPermutationCombinatorics:
    def test_compose_convention(self):
        sigma = (1, 2, 0)
        tau = (0, 2, 1)
        assert wg.compose(sigma, tau) == tuple(sigma[tau[j]] for j in range(3))

    def test_matrix_homomorphism_s3(self):
        for sigma, tau in itertools.product(wg.permutations_of(3), repeat=2):
            lhs = wg.permutation_matrix(sigma, 2) @ wg.permutation_matrix(tau, 2)
            rhs = wg.permutation_matrix(wg.compose(sigma, tau), 2)
            assert np.array_equal(lhs, rhs)

    def test_trace_cycle_property(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 4):
            mats = [rng.normal(size=(3, 3)) for _ in range(k)]
            big = mats[0]
            for m in mats[1:]:
                big = np.kron(big, m)
            w = wg.permutation_matrix(wg.trace_cycle(k), 3)
            chained = np.linalg.multi_dot(mats) if k > 1 else mats[0]
            assert np.trace(big @ w) == pytest.approx(np.trace(chained), rel=1e-10)

    def test_trace_of_w_counts_cycles(self):
        for pi in wg.permutations_of(4):
            assert np.trace(wg.permutation_matrix(pi, 3)) == 3 ** len(wg.cycles_of(pi))

    @pytest.mark.parametrize("d, k", [(2, 3), (3, 3), (2, 4), (4, 3)])
    def test_matrix_bytes_match_identity_rows(self, d, k):
        for pi in wg.permutations_of(k):
            assert permutation_matrix_from_eye(pi, d).tobytes() \
                == wg.permutation_matrix(pi, d).tobytes()

    def test_matrix_peak_is_one_matrix(self):
        # d = 4, k = 5: an 8 MiB matrix, and no d^k-sided identity beside it
        pi = (1, 2, 3, 4, 0)
        tracemalloc.start()
        try:
            w = wg.permutation_matrix(pi, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * w.nbytes
        assert w.tobytes() == permutation_matrix_from_eye(pi, 4).tobytes()


class TestHaarFramePotential:
    def test_values(self):
        assert wg.haar_frame_potential_exact(2, 4) == 2
        assert wg.haar_frame_potential_exact(3, 2) == 5
        assert wg.haar_frame_potential_exact(4, 2) == 14

    def test_catalan_consistency_at_small_k(self):
        # the d=2 closed form agrees with k! where both apply
        assert wg.haar_frame_potential_exact(1, 2) == 1
        assert wg.haar_frame_potential_exact(2, 2) == 2

    def test_rains_count_beyond_dimension(self):
        assert wg.haar_frame_potential_exact(4, 3) == 23
        assert wg.haar_frame_potential_exact(5, 4) == 119
        # permutations of k whose longest increasing subsequence is <= d
        for k in range(1, 8):
            perms = list(itertools.permutations(range(k)))
            for d in range(1, 5):
                count = sum(1 for p in perms if longest_increasing_subsequence(p) <= d)
                assert wg.haar_frame_potential_exact(k, d) == count, (k, d)

    def test_catalan_at_large_k(self):
        start = time.perf_counter()
        for k in (13, 20, 200):
            catalan = F(math.factorial(2 * k), math.factorial(k) * math.factorial(k + 1))
            assert wg.haar_frame_potential_exact(k, 2) == catalan
        assert time.perf_counter() - start < 1.0

    def test_partition_guard_beyond_dimension(self):
        assert wg.haar_frame_potential_exact(12, 3) > 0
        with pytest.raises(ValueError, match="partition guard"):
            wg.haar_frame_potential_exact(13, 3)
        with pytest.raises(ValueError, match="dimension"):
            wg.haar_frame_potential_exact(1, 0)


def longest_increasing_subsequence(p):
    """Its length, by patience sorting: tops[j] is the smallest last value of
    an increasing subsequence of length j + 1 seen so far."""
    tops = []
    for x in p:
        i = bisect.bisect_left(tops, x)
        if i == len(tops):
            tops.append(x)
        else:
            tops[i] = x
    return len(tops)


def haar_state_kfold(k: int, d: int) -> np.ndarray:
    """k-fold average of a Haar-random pure state: the symmetric-subspace
    projector normalized by binom(k+d-1, k), as a dense matrix on d^k."""
    acc = np.zeros((d**k, d**k))
    for pi in wg.permutations_of(k):
        acc += wg.permutation_matrix(pi, d)
    return acc / math.factorial(k) / math.comb(k + d - 1, k)


class TestHaarStateKfold:
    def test_k1(self):
        np.testing.assert_allclose(haar_state_kfold(1, 4), np.eye(4) / 4, atol=1e-14)

    @pytest.mark.parametrize("k", [2, 3])
    def test_trace_one(self, k):
        assert np.trace(haar_state_kfold(k, 2)) == pytest.approx(1.0, abs=1e-13)

    def test_matches_monte_carlo(self):
        # MC average of (|psi><psi|)^(x2) over Haar states at d=2, 5-sigma
        rng = np.random.default_rng(123)
        d, k, n = 2, 2, 10_000
        acc = np.zeros((d**k, d**k), dtype=complex)
        acc2 = np.zeros((d**k, d**k))
        for _ in range(n):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            m = np.kron(rho, rho)
            acc += m
            acc2 += np.abs(m) ** 2
        mean = acc / n
        var = acc2 / n - np.abs(mean) ** 2
        sigma = np.sqrt(np.maximum(var, 1e-18) / n)
        ref = haar_state_kfold(k, d)
        assert np.all(np.abs(mean - ref) <= 5 * sigma + 1e-12)


class TestMonteCarloMoment:
    def test_fourth_moment_matches_weingarten_sum(self):
        # E[U_{i1 j1} U_{i2 j2} U*_{i1' j1'} U*_{i2' j2'}] at d=3 against the
        # exact double Weingarten sum, three index patterns, 5 sigma.
        d, n = 3, 100_000
        rng = np.random.default_rng(2024)
        perms = wg.permutations_of(2)

        def reference(i, j, ip, jp):
            tot = F(0)
            for sigma in perms:
                for tau in perms:
                    if all(i[a] == ip[sigma[a]] for a in range(2)) and all(
                        j[a] == jp[tau[a]] for a in range(2)
                    ):
                        tot += wg.weingarten(wg.cycle_type(wg.compose(sigma, wg.inverse(tau))), d)
            return float(tot)

        patterns = [
            ((0, 0), (0, 0), (0, 0), (0, 0)),  # E|U00|^4 = 2/(d(d+1))
            ((0, 1), (0, 1), (0, 1), (0, 1)),  # E|U00 U11|^2
            ((0, 1), (0, 1), (1, 0), (1, 0)),  # off-diagonal sigma term
        ]
        # sanity anchor for the reference itself
        assert reference(*patterns[0]) == pytest.approx(2 / (d * (d + 1)))

        samples = {p: [] for p in patterns}
        for _ in range(n):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(g)
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            for (i, j, ip, jp) in patterns:
                val = (u[i[0], j[0]] * u[i[1], j[1]]
                       * np.conj(u[ip[0], jp[0]]) * np.conj(u[ip[1], jp[1]]))
                samples[i, j, ip, jp].append(val)

        for p in patterns:
            arr = np.asarray(samples[p])
            mean = arr.mean()
            se = arr.std() / np.sqrt(n)
            assert abs(mean - reference(*p)) <= 5 * se + 1e-12
