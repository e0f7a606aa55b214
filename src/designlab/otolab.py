"""2k-point out-of-time-order correlators and their ensemble averages.

Correlators of the form (1/d) tr{A_1 B~_1 ... A_k B~_k} with B~ = U^dag B U,
evaluated exactly for Pauli and Clifford elements (sign bookkeeping, tableau
conjugation) whether they come from a list or a sampler, their ensemble
averages (exact weighted sums for discrete ensembles, Monte Carlo for
samplers), the exact Haar average via Weingarten calculus, the trace tensor
that links correlators to k-fold channel coefficients, and a table of
closed-form ensemble predictions.

Ordering variants of the 8- and 4m-point correlators are explicit enum
values rather than free operator lists; the dagger patterns differ and so
do the averages, so silent orderings invite mistakes:

  standard          A1 B~1 A2 B~2 ... Ak B~k
  commutator        A1 B~1 .. Am B~m  Am+ B~m-1+ .. B~1+ A1+ B~m+
                    (the recursively-reducible family; m pairs, 4m points)
  group_commutator  A1 (B~1 A2 B~2 .. Am B~m) A1+ (B~1 A2 B~2 .. Am B~m)+
                    (expectation of a group commutator A K A+ K+)
  non_commutator    A1 B~1 .. Am B~m  A1+ B~1+ .. Am+ B~m+
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits, paulialg, wg
from .cliffordgrp import CliffordTableau, conjugate_pauli
from .densemat import (Ensemble, blockwise, check_unitary, dagger, element_to_matrix,
                       pauli_to_dense, trace)
from .estimate import Estimate
from .paulialg import PauliString

ORDERINGS = ("standard", "commutator", "group_commutator", "non_commutator")


@dataclass(frozen=True)
class OtoSpec:
    """Operators and ordering of a single OTO correlator.

    a_ops/b_ops are the base Pauli insertions; for the tagged orderings the
    full 2x-longer dagger pattern is derived (see module docstring), so the
    number of correlator points is 2*len(a_ops) for "standard" and
    4*len(a_ops) for the tagged variants.
    """

    a_ops: tuple[PauliString, ...]
    b_ops: tuple[PauliString, ...]
    ordering: str = "standard"

    def __post_init__(self):
        if len(self.a_ops) != len(self.b_ops) or not self.a_ops:
            raise ValueError("a_ops and b_ops must be nonempty and equally long")
        ns = {p.n for p in self.a_ops + self.b_ops}
        if len(ns) != 1:
            raise ValueError("all operators must share the qubit count")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")

    @property
    def n(self) -> int:
        return self.a_ops[0].n

    @property
    def k(self) -> int:
        return len(self.a_ops)

    def expanded(self) -> tuple[tuple[PauliString, ...], tuple[PauliString, ...]]:
        """The (a, b) insertion lists of the equivalent standard-form word."""
        a, b = self.a_ops, self.b_ops
        m = len(a)
        if self.ordering == "standard":
            return a, b
        if self.ordering == "commutator":
            a_full = a + tuple(a[j].adjoint() for j in range(m - 1, -1, -1))
            b_full = b + tuple(b[j].adjoint() for j in range(m - 2, -1, -1)) + (b[m - 1].adjoint(),)
            return a_full, b_full
        if self.ordering == "group_commutator":
            a_full = a + (a[0].adjoint(),) + tuple(a[j].adjoint() for j in range(m - 1, 0, -1))
            b_full = b + (b[m - 1].adjoint(),) + tuple(b[j].adjoint() for j in range(m - 2, -1, -1))
            return a_full, b_full
        a_full = a + tuple(p.adjoint() for p in a)
        b_full = b + tuple(p.adjoint() for p in b)
        return a_full, b_full


# ---------------------------------------------------------------------------
# single-unitary correlators
# ---------------------------------------------------------------------------

def oto_correlator(u: np.ndarray, spec: OtoSpec):
    """(1/d) tr{A_1 U+ B_1 U ... } for a dense unitary (a complex), or for
    each unitary of a (..., d, d) stack (an array), checked once. A word
    wider than DENSE_GUARD fails before that d^3 check."""
    limits.check_dense(2**spec.n)
    return _word_correlator(check_unitary(u), *spec.expanded())


def _conjugated_b(element, b: PauliString) -> PauliString:
    """U^dag B U for a Pauli or Clifford ensemble element, exactly."""
    if isinstance(element, PauliString):
        return paulialg.signed(b, paulialg.k_phase(b, element))
    if isinstance(element, CliffordTableau):
        return conjugate_pauli(element, b)
    raise TypeError


def oto_correlator_exact(element, spec: OtoSpec) -> complex:
    """Exact correlator for a Pauli or Clifford tableau element."""
    if not isinstance(element, (PauliString, CliffordTableau)):
        raise TypeError(f"exact correlators need a Pauli or Clifford element, "
                        f"got {type(element)!r}")
    return _word_correlator(element, *spec.expanded())


def _word_correlator(element, a_ops, b_ops):
    """(1/d) tr{A_1 B~_1 ... A_k B~_k}, conjugating each distinct B once."""
    a_list, b_list = list(dict.fromkeys(a_ops)), list(dict.fromkeys(b_ops))
    corr = tabled_correlator(element, a_list, b_list)
    return corr([a_list.index(a) for a in a_ops], [b_list.index(b) for b in b_ops])


def tabled_correlator(element, a_list, b_list):
    """The correlator of one element as a function of insertion indices:
    corr(ai, bi) = (1/d) tr{A_1 B~_1 ... A_k B~_k} with A_j = a_list[ai[j]]
    and B~_j = U^dag B U for B = b_list[bi[j]].

    Every B~ is computed here, once: as exact (x, z, phase) ints for a Pauli
    or Clifford element, whose words then multiply in paulialg's product
    kernel with no PauliString built, and as dense matrices for a unitary or
    a (..., d, d) stack of them, whose words multiply left to right. A dense
    element comes checked; the A's come first, so the dense guard does too.
    """
    n = a_list[0].n
    d = 2**n
    if isinstance(element, (PauliString, CliffordTableau)):
        a_tab = [paulialg._ints(a) for a in a_list]
        b_tab = [paulialg._ints(_conjugated_b(element, b)) for b in b_list]

        def corr(ai, bi):
            factors = []
            for i, j in zip(ai, bi):
                factors += (a_tab[i], b_tab[j])
            return complex(*paulialg._trace(factors, n)) / d
        return corr
    a_tab = [pauli_to_dense(a) for a in a_list]
    if element.shape[-1] != d:
        raise ValueError("unitary dimension does not match the operators")
    u_dag = dagger(element)
    b_tab = [u_dag @ pauli_to_dense(b) @ element for b in b_list]

    def corr(ai, bi):
        acc = np.eye(d, dtype=complex)
        for i, j in zip(ai, bi):
            acc = acc @ a_tab[i] @ b_tab[j]
        values = trace(acc) / d
        return complex(values) if element.ndim == 2 else values
    return corr


def _element_correlator(element, spec: OtoSpec):
    """The correlator of one element, exact for Pauli and Clifford elements
    and dense otherwise, or one per draw of a dense stack (blockwise)."""
    if isinstance(element, (PauliString, CliffordTableau)):
        return oto_correlator_exact(element, spec)
    return blockwise(lambda u: oto_correlator(u, spec), element_to_matrix(element))


def oto_ensemble_average(ens: Ensemble, spec: OtoSpec,
                         mc_samples: int | None = None) -> Estimate:
    """Ensemble-averaged correlator: exact weighted sum for discrete
    ensembles, Monte-Carlo mean with standard error for samplers."""
    return ens.average(lambda el: _element_correlator(el, spec), mc_samples=mc_samples)


# ---------------------------------------------------------------------------
# exact Haar averages via Weingarten calculus
# ---------------------------------------------------------------------------

def trace_tensor_with_permutation(ops, rho) -> tuple[int, int]:
    """Exact tr{(X_1 (x) ... (x) X_k) W_rho} for Pauli factors: the product
    of Pauli traces along the cycles of rho, as a Gaussian integer."""
    re_tot, im_tot = 1, 0
    for chain in wg.cycles_of(wg.inverse(rho)):
        re, im = paulialg.trace_product_int([ops[idx] for idx in chain])
        re_tot, im_tot = re_tot * re - im_tot * im, re_tot * im + im_tot * re
        if re_tot == 0 and im_tot == 0:
            return (0, 0)
    return (re_tot, im_tot)


def haar_average_oto_exact(a_ops, b_ops) -> tuple[Fraction, Fraction]:
    """Exact Haar average of (1/d) tr{A_1 B~_1 ... A_k B~_k} as an exact
    complex rational (re, im), for every k and d.

    Expands the k-fold twirl in permutation operators with exact Weingarten
    coefficients (for k > d, the pseudo-inverse of Q), contracted by
    `wg.contract` on the real and imaginary parts; the operator traces
    against permutations reduce to cycle products of exact Pauli traces.
    """
    a_ops, b_ops = tuple(a_ops), tuple(b_ops)
    k, d = len(a_ops), 2 ** a_ops[0].n
    perms = wg.permutations_of(k)
    cyc = wg.trace_cycle(k)
    br, bi = zip(*(trace_tensor_with_permutation(b_ops, sigma) for sigma in perms))
    ar, ai = zip(*(trace_tensor_with_permutation(a_ops, wg.compose(pi, cyc)) for pi in perms))
    re = wg.contract(k, d, ar, br) - wg.contract(k, d, ai, bi)
    im = wg.contract(k, d, ar, bi) + wg.contract(k, d, ai, br)
    return re / d, im / d


def haar_average_oto_spec(spec: OtoSpec) -> tuple[Fraction, Fraction]:
    a_full, b_full = spec.expanded()
    return haar_average_oto_exact(a_full, b_full)


# ---------------------------------------------------------------------------
# the trace tensor M and channel reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelCoefficients:
    """Pauli-basis expansion of the k-fold channel output for fixed B's."""

    k: int
    n: int
    gamma: dict[tuple[str, ...], complex]


def _tuple_iter(n: int, k: int):
    """All k-tuples of Pauli representatives in enumeration order."""
    return itertools.product(paulialg.enumerate_paulis(n), repeat=k)


def _check_tuples(n: int, k: int):
    """The 4^(nk) k-tuples of n-qubit Paulis within the Pauli tuple budget."""
    limits.check_budget(4 ** (n * k), limits.MAX_PAULI_TUPLES,
                        f"4^{n * k} tuples > {limits.MAX_PAULI_TUPLES}", "Pauli tuple budget")


def m_tensor_entry(a_ops, c_ops) -> complex:
    """tr{A_1 C_1 A_2 C_2 ... A_k C_k}, exact."""
    factors = []
    for a, c in zip(a_ops, c_ops):
        factors.append(a)
        factors.append(c)
    return paulialg.trace_product(factors)


def m_tensor(n: int, k: int) -> np.ndarray:
    """The full trace tensor as a matrix M[c_index, a_index] over k-tuples
    of Pauli representatives in enumeration order, within the dense guard
    (past it, m_tensor_entry gives single entries)."""
    side = 4 ** (n * k)
    limits.check_dense(side, "M side 4^(nk) = ")
    a_tuples = list(_tuple_iter(n, k))
    m = np.empty((side, side), dtype=complex)
    for ci, c_ops in enumerate(_tuple_iter(n, k)):
        for ai, a_ops in enumerate(a_tuples):
            m[ci, ai] = m_tensor_entry(a_ops, c_ops)
    return m


def measure_alpha(ens: Ensemble, b_ops, k: int,
                  mc_samples: int | None = None) -> np.ndarray:
    """The vector of ensemble-averaged correlators over all A-tuples, for
    fixed B's, indexed like m_tensor's a-axis."""
    b_ops = tuple(b_ops)
    n = b_ops[0].n
    _check_tuples(n, k)
    vals = []
    for a_ops in _tuple_iter(n, k):
        est = oto_ensemble_average(ens, OtoSpec(tuple(a_ops), b_ops), mc_samples)
        vals.append(complex(est.value))
    return np.array(vals)


def reconstruct_channel(alpha: np.ndarray, k: int, n: int) -> ChannelCoefficients:
    """Channel coefficients from measured correlators:
    gamma = M^dag alpha / d^(2k-1)."""
    side = 4 ** (n * k)
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (side,):
        raise ValueError("alpha must cover all Pauli tuples")
    d = 2**n
    m = m_tensor(n, k)
    gamma_vec = m.conj() @ alpha / d ** (2 * k - 1)
    gamma = {}
    for ci, c_ops in enumerate(_tuple_iter(n, k)):
        gamma[tuple(c.label() for c in c_ops)] = complex(gamma_vec[ci])
    return ChannelCoefficients(k, n, gamma)


def channel_coefficients_direct(ens: Ensemble, b_ops, k: int,
                                mc_samples: int | None = None) -> ChannelCoefficients:
    """Brute-force channel coefficients: apply the k-fold channel to
    B_1 (x) ... (x) B_k densely and expand in the k-fold Pauli basis."""
    from .densemat import kfold_channel_apply

    b_ops = tuple(b_ops)
    n = b_ops[0].n
    # before the kron, not after it in kfold_channel_apply
    limits.check_dense(2 ** (n * len(b_ops)), "B_1 (x) ... (x) B_k side ")
    _check_tuples(n, k)  # 4^(nk) coefficients, each a kron and a d^(2k) vdot
    big = pauli_to_dense(b_ops[0])
    for b in b_ops[1:]:
        big = np.kron(big, pauli_to_dense(b))
    res = kfold_channel_apply(ens, big, k, mc_samples=mc_samples)
    return _expand_in_pauli_basis(res.matrix, n, k)


def _expand_in_pauli_basis(mat: np.ndarray, n: int, k: int) -> ChannelCoefficients:
    d = 2**n
    gamma = {}
    for c_ops in _tuple_iter(n, k):
        basis = pauli_to_dense(c_ops[0])
        for c in c_ops[1:]:
            basis = np.kron(basis, pauli_to_dense(c))
        coeff = np.vdot(basis, mat) / d**k  # tr(basis^dag mat), d^(2k) products
        gamma[tuple(c.label() for c in c_ops)] = complex(coeff)
    return ChannelCoefficients(k, n, gamma)


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------

def _expectation(p: PauliString) -> Fraction:
    """tr(P)/d for a representative: 1 for the identity, else 0."""
    return Fraction(1) if p.is_identity_bits else Fraction(0)


def _pair_expectation(p: PauliString, q: PauliString) -> Fraction:
    """tr(PQ)/d for representatives; nonzero only when bits match, and then
    the Hermitian base makes the product exactly +I."""
    re, im = paulialg.trace_product_int([p, q])
    if im != 0:
        raise ValueError("unexpected imaginary Pauli moment")
    return Fraction(re, 2**p.n)


SUPPORTED_PREDICTIONS = (
    ("haar", "two_point_mean"),
    ("haar", "two_point_sq"),
    ("haar", "four_point"),
    ("pauli", "four_point"),
    ("haar", "six_point_commuting"),
    ("haar", "eight_point_commutator_commuting"),
    ("clifford", "eight_point_group_commutator"),
    ("haar", "four_m_point"),
)


def predict(ensemble_kind: str, correlator_kind: str, d: int, *,
            paulis: tuple[PauliString, ...] | None = None,
            m: int | None = None) -> Fraction:
    """Closed-form ensemble-average value for a supported relation pattern.

    Raises ValueError, listing the supported patterns, for anything else;
    unsupported patterns are Monte-Carlo territory.
    """
    key = (ensemble_kind, correlator_kind)
    if key not in SUPPORTED_PREDICTIONS:
        raise ValueError(
            f"unsupported prediction {key!r}; supported: {SUPPORTED_PREDICTIONS}")

    if key == ("haar", "two_point_mean"):
        if paulis is None:
            return Fraction(0)
        a, b = paulis
        return _expectation(a) * _expectation(b)

    if key == ("haar", "two_point_sq"):
        _require_non_identity(paulis)
        return Fraction(1, d * d - 1)

    if key == ("haar", "four_point"):
        if paulis is None:
            raise ValueError("four_point needs paulis=(A, B, C, D)")
        a, b, c, cd = paulis
        ac = _pair_expectation(a, c)
        bd = _pair_expectation(b, cd)
        ea, eb, ec, ed = map(_expectation, (a, b, c, cd))
        conn_ac = ac - ea * ec
        conn_bd = bd - eb * ed
        return ac * eb * ed + ea * ec * bd - ea * ec * eb * ed \
            - conn_ac * conn_bd / (d * d - 1)

    if key == ("pauli", "four_point"):
        if paulis is None:
            raise ValueError("pauli four_point needs paulis=(A, B, C, D)")
        a, b, c, cd = paulis
        if paulialg.supports_overlap(a, b):
            raise ValueError("the Pauli-ensemble closed form needs A and B "
                             "with disjoint supports")
        return _pair_expectation(a, c) * _pair_expectation(b, cd)

    if key == ("haar", "six_point_commuting"):
        if paulis is not None:
            a, b, c, cd, e, f = paulis
            _require_non_identity((a, b, c, cd, e, f))
            if not paulialg.mul_all([a, c, e]).is_identity_bits:
                raise ValueError("need A C E proportional to the identity")
            if not paulialg.mul_all([b, cd, f]).is_identity_bits:
                raise ValueError("need B D F proportional to the identity")
            if not (paulialg.commutes(a, c) and paulialg.commutes(b, cd)):
                raise ValueError("only the commuting pattern has a closed form; "
                                 "use Monte Carlo for other patterns")
        # (d^2+4)/((d^2-1)(d^2-4)); confirmed against the exact Weingarten
        # evaluator and brute-force Monte Carlo (wider literature quotes a
        # 2d^2 numerator, which both routes exclude)
        return Fraction(d * d + 4, (d * d - 1) * (d * d - 4))

    if key == ("haar", "eight_point_commutator_commuting"):
        if paulis is not None:
            a, b, c, cd = paulis
            _require_non_identity(paulis)
            if paulialg.mul(a, c).is_identity_bits or paulialg.mul(b, cd).is_identity_bits:
                raise ValueError("need AC and BD away from the identity")
            if not (paulialg.commutes(a, c) and paulialg.commutes(b, cd)):
                raise ValueError("only the commuting pattern has a closed form")
        # -(d^2+36)/((d^2-1)(d^2-4)(d^2-9)): the leading d^2-coefficient
        # cancellation makes this O(d^-4); confirmed by the exact evaluator
        # and Monte Carlo (the often-quoted -(3d^2+5d+33) numerator fails
        # both routes)
        return Fraction(-(d * d + 36),
                        (d * d - 1) * (d * d - 4) * (d * d - 9))

    if key == ("clifford", "eight_point_group_commutator"):
        if paulis is None:
            raise ValueError("needs paulis=(A, B, C, D)")
        a, b, c, cd = paulis
        if a.is_identity_bits:
            raise ValueError("need A != I")
        if paulialg.mul(b, cd).is_identity_bits:
            raise ValueError("need BD away from the identity")
        sign = paulialg.k_phase(a, c.adjoint())
        return Fraction(-sign, d * d - 1)

    # ("haar", "four_m_point")
    if m is None or m < 1:
        raise ValueError("four_m_point needs the pair count m >= 1")
    return Fraction(-1, d * d - 1) ** m


def _require_non_identity(paulis):
    if paulis is None:
        return
    for p in paulis:
        if p.is_identity_bits:
            raise ValueError("operators must be non-identity Paulis")

