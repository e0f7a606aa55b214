"""Exact Weingarten calculus over the symmetric group.

Partitions, Murnaghan-Nakayama characters, hook-length dimensions, the Gram
matrix Q of permutation operators and its exact inverse, and the closed-form
Haar averages they produce. Everything in this module is exact: characters
and dimensions are integers, Weingarten values and matrix inverses are
`fractions.Fraction`s. Floats appear only when callers convert.

There is one Weingarten route: `q_inverse` tabulates the class function
`weingarten` (Collins & Sniady, math-ph/0402073) over S_k x S_k. Rational
Gauss-Jordan elimination of Q is kept in the tests, as their oracle.

Permutations are tuples `pi` of length k with pi[j] = image of slot j, and
composition follows (sigma tau)(j) = sigma(tau(j)). The permutation operator
W_pi moves the tensor factor in slot j to slot pi(j), which makes
W_sigma @ W_tau == W_{sigma tau} an exact matrix identity.

All functions are pure; memo tables only ever receive idempotent writes, so
concurrent readers are safe.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_PARTITION_K = 12
MAX_PERMUTATION_K = 6


# ---------------------------------------------------------------------------
# partitions and permutations
# ---------------------------------------------------------------------------

def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k in reverse-lexicographic order, e.g.
    partitions(3) = [(3,), (2, 1), (1, 1, 1)]."""
    if not 1 <= k <= MAX_PARTITION_K:
        raise ValueError(f"partition guard exceeded: k={k} not in 1..{MAX_PARTITION_K}")
    return _partitions_rec(k, k)


@lru_cache(maxsize=None)
def _partitions_rec(k: int, largest: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    out = []
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions_rec(k - first, first):
            out.append((first,) + rest)
    return out


def permutations_of(k: int) -> list[tuple[int, ...]]:
    """All k! permutations of range(k), in itertools order."""
    if not 1 <= k <= MAX_PERMUTATION_K:
        raise ValueError(f"permutation guard exceeded: k={k} not in 1..{MAX_PERMUTATION_K}")
    return [tuple(p) for p in itertools.permutations(range(k))]


def compose(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """(sigma tau)(j) = sigma(tau(j))."""
    return tuple(sigma[t] for t in tau)


def inverse(pi: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(pi)
    for j, image in enumerate(pi):
        inv[image] = j
    return tuple(inv)


def cycles_of(pi: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(pi)
    cycles = []
    for start in range(len(pi)):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = pi[j]
        cycles.append(cyc)
    return cycles


def cycle_type(pi: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugacy-class label: cycle lengths sorted descending."""
    return tuple(sorted((len(c) for c in cycles_of(pi)), reverse=True))


def trace_cycle(k: int) -> tuple[int, ...]:
    """The permutation rho with tr{(X_1 (x) ... (x) X_k) W_rho} = tr{X_1...X_k}."""
    return tuple((j - 1) % k for j in range(k))


def permutation_matrix(pi: tuple[int, ...], d: int) -> np.ndarray:
    """Dense W_pi on (C^d)^(x)k : the factor in slot j moves to slot pi(j)."""
    k = len(pi)
    dim = d**k
    w = np.zeros((dim, dim))
    pinv = inverse(pi)
    for a in itertools.product(range(d), repeat=k):
        b = tuple(a[pinv[j]] for j in range(k))
        row = 0
        for bj in b:
            row = row * d + bj
        col = 0
        for aj in a:
            col = col * d + aj
        w[row, col] = 1.0
    return w


def class_size(mu: tuple[int, ...]) -> int:
    """Number of permutations of cycle type mu."""
    k = sum(mu)
    counts: dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    denom = 1
    for length, m in counts.items():
        denom *= (length**m) * math.factorial(m)
    return math.factorial(k) // denom


# ---------------------------------------------------------------------------
# characters and dimensions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Exact irreducible character chi^lam at class mu, by the
    Murnaghan-Nakayama border-strip recursion."""
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes must match")
    return _mn(tuple(lam), tuple(sorted(mu, reverse=True)))


def _remove_border_strip(lam: tuple[int, ...], length: int):
    """Yield (height, new_partition) for every border strip of given length.

    Uses beta numbers b_i = lam_i + (r-1-i): removing a strip of size L is
    exactly replacing some b_i by b_i - L >= 0 when the target value is free;
    the strip height is the number of beta values jumped over.
    """
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    for b in beta:
        nb = b - length
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((bset - {b}) | {nb}, reverse=True)
        new_lam = tuple(x - (r - 1 - idx) for idx, x in enumerate(new_beta))
        yield height, tuple(x for x in new_lam if x > 0)


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    length = mu[0]
    rest = mu[1:]
    total = 0
    for height, new_lam in _remove_border_strip(lam, length):
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def irrep_dimension(lam: tuple[int, ...]) -> int:
    """Dimension f^lam by the hook-length formula."""
    k = sum(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in lam[i + 1:] if r > j)
            hooks *= arm + leg + 1
    return math.factorial(k) // hooks


def content_polynomial(lam: tuple[int, ...], d: int) -> Fraction:
    """s_lam(d) = prod over cells (i,j) of (d + j - i), 1-indexed rows/cols.

    Zero when the partition has more rows than d; callers must treat that as
    "undefined" rather than divide by it.
    """
    val = Fraction(1)
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            val *= d + j - i
    return val


# ---------------------------------------------------------------------------
# Weingarten function and Q matrices
# ---------------------------------------------------------------------------

def weingarten(mu: tuple[int, ...], d: int) -> Fraction:
    """Exact unitary Weingarten value for cycle type mu at dimension d:
    Wg(mu) = (1/k!) * sum_lam (f^lam / s_lam(d)) chi^lam(mu), for k <= d."""
    mu = tuple(sorted(mu, reverse=True))
    k = sum(mu)
    if k > d:
        raise ValueError(
            "Weingarten undefined: inverse not guaranteed for k > d "
            f"(k={k}, d={d})"
        )
    total = Fraction(0)
    for lam in partitions(k):
        s = content_polynomial(lam, d)
        if s == 0:
            raise ValueError(f"content polynomial vanished for {lam} at d={d}")
        total += Fraction(irrep_dimension(lam), 1) / s * character(lam, mu)
    return total / math.factorial(k)


@lru_cache(maxsize=None)
def q_matrix(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Q_{sigma,lambda} = d^(#cycles(sigma lambda)) over S_k x S_k, exact
    integers, indexed by permutations_of(k) order."""
    perms = permutations_of(k)
    rows = []
    for sigma in perms:
        rows.append(tuple(d ** len(cycles_of(compose(sigma, lam))) for lam in perms))
    return tuple(rows)


@lru_cache(maxsize=None)
def q_inverse(k: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of q_matrix(k, d), indexed by permutations_of(k) order.

    Q depends only on the product of its indices, and so does its inverse:
    entry (pi, sigma) is the class function weingarten(cycle_type(pi sigma), d),
    evaluated once per partition of k. Defined for k <= d (Q is singular
    otherwise). The tests check the table against rational Gauss-Jordan
    elimination of q_matrix.
    """
    if k > d:
        raise ValueError(f"Q is singular for k > d (k={k}, d={d})")
    wgs = {mu: weingarten(mu, d) for mu in partitions(k)}
    perms = permutations_of(k)
    by_product = {pi: wgs[cycle_type(pi)] for pi in perms}
    return tuple(tuple(by_product[compose(pi, sigma)] for sigma in perms) for pi in perms)


def haar_frame_potential_exact(k: int, d: int) -> Fraction:
    """Haar frame potential: k! for k <= d; the d=2 closed form
    (2k)!/(k!(k+1)!) for any k; error otherwise (use Monte Carlo)."""
    if k < 1:
        raise ValueError("k must be positive")
    if k <= d:
        return Fraction(math.factorial(k))
    if d == 2:
        return Fraction(math.factorial(2 * k), math.factorial(k) * math.factorial(k + 1))
    raise ValueError(f"no closed form for k={k} > d={d} with d != 2; use Monte Carlo")


def haar_state_kfold(k: int, d: int) -> np.ndarray:
    """k-fold average of a Haar-random pure state: the symmetric-subspace
    projector normalized by binom(k+d-1, k), as a dense matrix on d^k."""
    if d**k > 4096:
        raise ValueError("dense guard exceeded")
    dim = d**k
    acc = np.zeros((dim, dim))
    for pi in permutations_of(k):
        acc += permutation_matrix(pi, d)
    sym = acc / math.factorial(k)
    return sym / math.comb(k + d - 1, k)
