"""Channel-state diagnostics of information scrambling.

A unitary on n qubits becomes a pure state on 2n qubits (input register
first): |U> = d^(-1/2) sum_ij u_ij |j> (x) |i>. Subsystem Renyi entropies of
that state, the identities tying Pauli-averaged OTO correlators to Renyi-2
(and Renyi-k) entropies, the Renyi-2 mutual information I(A:BD), and the
single-round catch game all live here.

Partitions split the input register into A|B and the output register into
C|D; entropies are in bits throughout, matching the 2^(-S) form of the
identities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import limits, paulialg
from .densemat import check_state, check_unitary, dagger, pauli_to_dense
from .otolab import tabled_correlator
from .paulialg import PauliString


class IdentityViolated(Exception):
    """Two sides of an identity that holds for every unitary disagree."""


@dataclass(frozen=True)
class ChoiState:
    """|U> as a state vector on 2n qubits (input register first)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > 1e-10:
            raise ValueError("Choi state must be normalized")


@dataclass(frozen=True)
class IoPartition:
    """Input qubits split A|B, output qubits split C|D.

    a_qubits and d_qubits list the qubit indices owned by A and D; the
    complements are B and C respectively.
    """

    n: int
    a_qubits: tuple[int, ...]
    d_qubits: tuple[int, ...]

    def __post_init__(self):
        for idx in self.a_qubits + self.d_qubits:
            if not 0 <= idx < self.n:
                raise ValueError("partition indices out of range")
        if len(set(self.a_qubits)) != len(self.a_qubits) or len(set(self.d_qubits)) != len(self.d_qubits):
            raise ValueError("partition indices must be distinct")

    @property
    def b_qubits(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if j not in self.a_qubits)

    @property
    def c_qubits(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if j not in self.d_qubits)

    @property
    def d_a(self) -> int:
        return 2 ** len(self.a_qubits)

    @property
    def d_d(self) -> int:
        return 2 ** len(self.d_qubits)


def _checked(u: np.ndarray, what: str = "Choi state") -> np.ndarray:
    """u checked as a unitary once the d^2 side of its Choi state (an m-sided
    marginal holds m d^2 products, d^4 if m = d^2) or of U (x) U* has passed
    the dense guard, so an oversized u fails before the d^3 check."""
    d = np.shape(u)[-1] if np.ndim(u) else 1
    limits.check_dense(d * d, f"{what} side d^2 = ")
    return check_unitary(u)


def choi_state(u: np.ndarray) -> ChoiState:
    """|U> = d^(-1/2) sum_ij u_ij |j>|i> = (I (x) U) |EPR>."""
    return _choi_state(_checked(u))


def _choi_state(u: np.ndarray) -> ChoiState:
    """choi_state of a unitary its caller has checked."""
    d = u.shape[0]
    n = d.bit_length() - 1
    if 2**n != d:
        raise ValueError("need a 2^n-dimensional unitary")
    return ChoiState(n, u.T.reshape(-1) / math.sqrt(d))


def renyi_entropy(rho: np.ndarray, k: int) -> float:
    """Renyi-k entropy in bits: log2 tr(rho^k) / (1-k); k=1 is the von
    Neumann entropy via the eigenvalue Shannon sum."""
    evals = np.clip(check_state(rho)[1], 0.0, None)
    if k == 1:
        nz = evals[evals > 1e-15]
        return float(-(nz * np.log2(nz)).sum())
    if k < 1:
        raise ValueError("k must be a positive integer")
    return float(np.log2((evals**k).sum()) / (1 - k))


def _choi_marginal(state: ChoiState, in_qubits, out_qubits) -> np.ndarray:
    """rho_K of the pure Choi state, K the listed input and output qubits.

    The kept axes of the amplitude tensor go to the front, each pair of
    kept indices takes the products b_i b_j^* (the multiply of np.outer),
    and the dropped axes are summed one at a time, lowest qubit first: the
    order of a successive partial trace of |U><U|, whose bits this keeps.
    An m-sided marginal holds m d^2 products, never the d^2-sided density.
    """
    keep = sorted({*in_qubits, *(state.n + q for q in out_qubits)})
    drop = [q for q in range(2 * state.n) if q not in keep]
    m = 2 ** len(keep)
    b = state.amplitudes.reshape([2] * (2 * state.n)).transpose(keep + drop).reshape(m, -1)
    products = (b[:, None, :] * b.conj()[None, :, :]).reshape(m, m, *[2] * len(drop))
    for _ in drop:
        products = products.sum(axis=2)
    return products


def _region_paulis(n: int, qubits) -> list[PauliString]:
    """All Paulis supported on `qubits` (identity included), embedded in n,
    in the enumerate_paulis(len(qubits)) order."""
    if not qubits:
        return [paulialg.identity(n)]
    return [paulialg.embed(p, n, qubits) for p in paulialg.enumerate_paulis(len(qubits))]


def oto_renyi2_check(u: np.ndarray, part: IoPartition) -> tuple[float, float]:
    """Both sides of the Renyi-2 identity.

    lhs: average over all Pauli pairs (A on the input-A qubits, D on the
    output-D qubits, identities included) of <A D~ A+ D~+> with D~ = U+ D U.
    rhs: (d / (d_A d_D)) 2^(-S2(rho_AC)) from the Choi state, whose d^2
    side is guarded before the unitary is checked.
    """
    u = _checked(u)
    rho_ac = _choi_marginal(_choi_state(u), part.a_qubits, part.c_qubits)
    rhs = 2**part.n / (part.d_a * part.d_d) * 2.0 ** (-renyi_entropy(rho_ac, 2))
    return _renyi2_lhs(u, part), rhs


def _renyi2_lhs(u: np.ndarray, part: IoPartition) -> float:
    """oto_renyi2_check's Pauli average, for a unitary its caller has checked."""
    a_stack = np.stack([pauli_to_dense(p) for p in _region_paulis(part.n, part.a_qubits)])
    d_stack = np.stack([u.conj().T @ pauli_to_dense(p) @ u
                        for p in _region_paulis(part.n, part.d_qubits)])
    vals = np.einsum("aij,djk,akl,dli->ad", a_stack, d_stack, dagger(a_stack), dagger(d_stack))
    return float(vals.real.sum() / (len(a_stack) * len(d_stack) * 2**part.n))


def renyi_k_oto(u: np.ndarray, part: IoPartition, k: int) -> tuple[float, float]:
    """Both sides of the Renyi-k generalization.

    lhs: the cyclically-constrained Pauli average of
    <A_1 D~_1 ... A_k D~_k>: A_1..A_{k-1} and D_1..D_{k-1} run freely over
    their regions while A_k and D_k are fixed to the inverse products
    (A_1 A_2 ... A_{k-1})^-1 and (D_1 ... D_{k-1})^-1, normalized by the
    number of free tuples.
    rhs: (d/(d_A d_D))^(k-1) 2^(-(k-1) S_k(rho_AC)) = that prefactor times
    tr(rho_AC^k). k=2 reduces to oto_renyi2_check. The lhs walks
    (d_A^2 d_D^2)^(k-1) tuples, at most limits.MAX_PAULI_TUPLES.
    """
    if k < 2:
        raise ValueError(f"the Renyi-k identity needs k >= 2, got k={k}")
    tuples = (part.d_a * part.d_d) ** (2 * (k - 1))
    limits.check_budget(tuples, limits.MAX_PAULI_TUPLES, f"(d_A^2 d_D^2)^(k-1) = {tuples} "
                        f"> {limits.MAX_PAULI_TUPLES}", "Pauli tuple budget")
    u = _checked(u)
    d = 2**part.n
    rho_ac = _choi_marginal(_choi_state(u), part.a_qubits, part.c_qubits)
    a_paulis = _region_paulis(part.n, part.a_qubits)
    d_paulis = _region_paulis(part.n, part.d_qubits)

    def with_last(paulis):
        """Each free (k-1)-tuple with its inverse product (P_1 ... P_{k-1})^-1."""
        return [(free, paulialg.mul_all(list(free)).adjoint())
                for free in itertools.product(paulis, repeat=k - 1)]

    a_tuples, d_tuples = with_last(a_paulis), with_last(d_paulis)
    # one table over every distinct (phased) Pauli, free or constrained
    a_list = list(dict.fromkeys([*a_paulis, *(last for _, last in a_tuples)]))
    d_list = list(dict.fromkeys([*d_paulis, *(last for _, last in d_tuples)]))
    corr = tabled_correlator(u, a_list, d_list)
    a_words = [[a_list.index(p) for p in (*free, last)] for free, last in a_tuples]
    d_words = [[d_list.index(p) for p in (*free, last)] for free, last in d_tuples]
    total = sum((corr(ai, di) for ai in a_words for di in d_words), 0j)
    lhs = float((total / (len(a_words) * len(d_words))).real)

    sk = renyi_entropy(rho_ac, k)
    rhs = (d / (part.d_a * part.d_d)) ** (k - 1) * 2.0 ** (-(k - 1) * sk)
    return lhs, rhs


def mutual_info_2(u: np.ndarray, part: IoPartition, lhs: float | None = None) -> float:
    """Renyi-2 mutual information I2(A:BD) from the Choi state; raises
    IdentityViolated unless it equals -log2 of the Pauli-averaged OTO
    correlator within 1e-10. `lhs` is that average when the caller already
    has it from oto_renyi2_check(u, part); otherwise it is computed here."""
    u = _checked(u)
    state = _choi_state(u)
    s_a = renyi_entropy(_choi_marginal(state, part.a_qubits, ()), 2)
    s_bd = renyi_entropy(_choi_marginal(state, part.b_qubits, part.d_qubits), 2)
    s_abd = renyi_entropy(_choi_marginal(state, range(part.n), part.d_qubits), 2)
    info = s_a + s_bd - s_abd
    if lhs is None:
        lhs = _renyi2_lhs(u, part)
    if abs(info - (-math.log2(lhs))) > 1e-10:
        raise IdentityViolated(
            f"Renyi-2 identity violated: I2 = {info}, -log2(avg) = {-math.log2(lhs)}")
    return float(info)


def catch_game(u: np.ndarray, perturbation: dict[PauliString, float]) -> float:
    """Probability that the EPR comparison accepts: build n EPR pairs, let
    the sender apply Pauli A_i with probability p_i on her half, send both
    halves through U (x) U*, and project back onto the EPR state. Equals
    p_I for every unitary."""
    u = _checked(u, "catch game")
    d = u.shape[0]
    n = d.bit_length() - 1
    total_p = sum(perturbation.values())
    if abs(total_p - 1.0) > 1e-10:
        raise ValueError("perturbation distribution must be normalized")
    epr = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    big_u = np.kron(u, u.conj())
    prob = 0.0
    for p, weight in perturbation.items():
        if p.n != n:
            raise ValueError("perturbation acts on the wrong qubit count")
        perturbed = np.kron(pauli_to_dense(p), np.eye(d)) @ epr
        amp = epr.conj() @ (big_u @ perturbed)
        prob += weight * abs(amp) ** 2
    return float(prob)
