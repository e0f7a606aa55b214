"""Exact Weingarten calculus over the symmetric group.

Partitions, Murnaghan-Nakayama characters, hook-length dimensions, the Gram
matrix Q of permutation operators and its exact (pseudo-)inverse, and the
closed-form Haar averages they produce. Everything in this module is exact:
characters and dimensions are integers, Weingarten values and Q tables are
`fractions.Fraction`s. Floats appear only when callers convert.

There is one Weingarten route for every k and d: `q_inverse` tabulates the
class function `weingarten`, a sum over the partitions of k with at most d
rows (Collins & Sniady, math-ph/0402073), over S_k x S_k. That is the inverse
of Q for k <= d and its pseudo-inverse for k > d, where Q is singular. Rational
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
    return list(_partitions_in_rows(k, k, k))


def _partitions_in_rows(k: int, rows: int, largest: int):
    """Partitions of k into at most `rows` parts, none above `largest`, in
    reverse-lexicographic order; the recursion is `rows` deep, not k."""
    if k == 0:
        yield ()
        return
    smallest = -(-k // rows)  # ceil(k / rows): the rest must fit in rows - 1 parts
    for first in range(min(k, largest), smallest - 1, -1):
        for rest in _partitions_in_rows(k - first, rows - 1, first):
            yield (first,) + rest


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

    Zero exactly when the partition has more rows than d; `weingarten`
    skips those partitions instead of dividing by it.
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
    Wg(mu) = (1/k!) * sum_lam (f^lam / s_lam(d)) chi^lam(mu), summed over
    the partitions lam of k with at most d rows. For k <= d that is every
    partition; for k > d its table is the pseudo-inverse of Q (q_inverse)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    if any(part < 1 for part in mu):
        raise ValueError(f"cycle type parts must be positive, got {tuple(mu)}")
    mu = tuple(sorted(mu, reverse=True))
    k = sum(mu)
    total = Fraction(0)
    for lam in partitions(k):
        if len(lam) <= d:
            total += Fraction(irrep_dimension(lam), 1) / content_polynomial(lam, d) \
                * character(lam, mu)
    return total / math.factorial(k)


def _class_table(k: int, value: dict) -> tuple[tuple, ...]:
    """The S_k x S_k table of a class function: entry (pi, sigma) is
    value[cycle_type(pi sigma)], indexed by permutations_of(k) order."""
    perms = permutations_of(k)
    by_product = {pi: value[cycle_type(pi)] for pi in perms}
    return tuple(tuple(by_product[compose(pi, sigma)] for sigma in perms) for pi in perms)


@lru_cache(maxsize=None)
def q_matrix(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Q_{sigma,lambda} = d^(#cycles(sigma lambda)) over S_k x S_k, exact
    integers, indexed by permutations_of(k) order."""
    return _class_table(k, {mu: d ** len(mu) for mu in partitions(k)})


@lru_cache(maxsize=None)
def q_inverse(k: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact Weingarten table of q_matrix(k, d), indexed like it.

    Q depends only on the product of its indices, and so does this table:
    entry (pi, sigma) is the class function weingarten(cycle_type(pi sigma), d),
    evaluated once per partition of k. For k <= d it is the inverse of Q; for
    k > d, where Q is singular, it is the Moore-Penrose pseudo-inverse. The
    tests check it against rational Gauss-Jordan elimination of q_matrix, and
    the pseudo-inverse identities exactly.
    """
    return _class_table(k, {mu: weingarten(mu, d) for mu in partitions(k)})


def haar_frame_potential_exact(k: int, d: int) -> Fraction:
    """Haar frame potential: the sum of (f^lam)^2 over the partitions lam of k
    with at most d rows, which counts the permutations of k with no
    increasing subsequence longer than d (Rains 1998): k! for k <= d, the
    Catalan number (2k)!/(k!(k+1)!) at d = 2. The partition guard applies
    for k > d > 2; at d <= 2 there are at most k/2 + 1 partitions to sum.
    """
    if k < 1 or d < 1:
        raise ValueError(f"k and the dimension must be positive, got k={k}, d={d}")
    if k <= d:
        return Fraction(math.factorial(k))
    if d > 2 and k > MAX_PARTITION_K:
        raise ValueError(f"partition guard exceeded: k={k} > {MAX_PARTITION_K} at d={d} > 2")
    return Fraction(sum(irrep_dimension(lam) ** 2 for lam in _partitions_in_rows(k, d, k)))

