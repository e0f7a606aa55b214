"""Exact Weingarten calculus over the symmetric group.

Partitions, Murnaghan-Nakayama characters, hook-length dimensions, the Gram
matrix Q of permutation operators and its exact (pseudo-)inverse, and the
closed-form Haar averages they produce. Everything in this module is exact:
characters and dimensions are integers, Weingarten values and Q tables are
`fractions.Fraction`s. Floats appear only when callers convert.

There is one Weingarten route for every k and d: `contract` sums
left[pi] Wg(pi sigma, d) right[sigma] over S_k x S_k by the class of pi sigma,
read from the cached int8 product-class index of S_k, as Wg is the class
function `weingarten` (Collins & Sniady, math-ph/0402073). `q_matrix` and
`q_inverse` are views of that index. Rational Gauss-Jordan elimination of Q and
the k!^2 walk over q_inverse stay in the tests, as their oracles.

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

from . import limits


# ---------------------------------------------------------------------------
# partitions and permutations
# ---------------------------------------------------------------------------

def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k in reverse-lexicographic order, e.g.
    partitions(3) = [(3,), (2, 1), (1, 1, 1)]."""
    if not 1 <= k <= limits.MAX_PARTITION_K:
        raise ValueError(f"partition guard exceeded: k={k} not in 1..{limits.MAX_PARTITION_K}")
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
    if not 1 <= k <= limits.MAX_PERMUTATION_K:
        raise ValueError(f"permutation guard exceeded: k={k} not in "
                         f"1..{limits.MAX_PERMUTATION_K}")
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
    """Dense W_pi on (C^d)^(x)k : the factor in slot j moves to slot pi(j),
    so row b holds its 1 in the column a with a[j] = b[pi(j)]. Its d^k side
    is within the dense guard, checked before anything is built. The ones
    are written by index into zeros, so only the one matrix is allocated."""
    side = d ** len(pi)
    limits.check_dense(side, "d^k=")
    if sorted(pi) != list(range(len(pi))):
        raise ValueError("not a permutation")
    cols = np.arange(side).reshape((d,) * len(pi))
    w = np.zeros((side, side))
    w[np.arange(side), np.transpose(cols, inverse(pi)).ravel()] = 1.0
    return w


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


@lru_cache(maxsize=None)
def _product_classes(k: int) -> np.ndarray:
    """The k! x k! int8 product-class index of S_k: entry (pi, sigma) is the
    place of cycle_type(pi sigma) in partitions(k), built a row at a time."""
    perms, parts = permutations_of(k), partitions(k)
    class_of = {pi: parts.index(cycle_type(pi)) for pi in perms}
    return np.stack([np.array([class_of[compose(pi, s)] for s in perms], np.int8) for pi in perms])


@lru_cache(maxsize=None)
def _weingarten_values(k: int, d: int) -> tuple[Fraction, ...]:
    return tuple(weingarten(mu, d) for mu in partitions(k))


def contract(k: int, d: int, left, right):
    """sum over pi, sigma in S_k of left[pi] Wg(pi sigma, d) right[sigma]: a
    Fraction for integer vectors, a complex for complex ones. The products go
    into one bucket per class of pi sigma, so p(k) values multiply instead of
    k!^2. Buckets are int64 while max|left| max|right| times the number of
    terms is below 2^63, and Python ints past it."""
    left, right = np.asarray(left), np.asarray(right)
    rows, cols = np.flatnonzero(left), np.flatnonzero(right)
    left, right = left[rows], right[cols]
    scalar = complex if np.iscomplexobj(left) or np.iscomplexobj(right) else int
    if scalar is int and max(map(abs, left.tolist()), default=0) * \
            max(map(abs, right.tolist()), default=0) * left.size * right.size >= 2**63:
        left, right = left.astype(object), right.astype(object)
    products = np.outer(left, right)
    classes = _product_classes(k)[np.ix_(rows, cols)]
    return sum(w * scalar(products[classes == c].sum())
               for c, w in enumerate(_weingarten_values(k, d)))


def _class_table(k: int, values) -> tuple[tuple, ...]:
    """The S_k x S_k table of a class function, values[class of pi sigma]."""
    return tuple(tuple(values[c] for c in row) for row in _product_classes(k).tolist())


@lru_cache(maxsize=None)
def q_matrix(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Q_{sigma,lambda} = d^(#cycles(sigma lambda)) over S_k x S_k, exact
    integers, indexed by permutations_of(k) order."""
    return _class_table(k, [d ** len(mu) for mu in partitions(k)])


@lru_cache(maxsize=None)
def q_inverse(k: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact Weingarten table of q_matrix(k, d): the inverse of Q for k <= d,
    its Moore-Penrose pseudo-inverse for k > d, where Q is singular."""
    return _class_table(k, _weingarten_values(k, d))


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
    if d > 2 and k > limits.MAX_PARTITION_K:
        raise ValueError(f"partition guard exceeded: k={k} > {limits.MAX_PARTITION_K} at d={d} > 2")
    return Fraction(sum(irrep_dimension(lam) ** 2 for lam in _partitions_in_rows(k, d, k)))

