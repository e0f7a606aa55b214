"""Oracles that only the tests use.

These build inputs and references for the tests: random Paulis, a Pauli and
CZ as Clifford tableaux, a fixed-Hamiltonian evolution ensemble, sign-state
overlaps, closed-form generalized Haar values, and the regulated and
restricted-average correlators. Nothing in src/designlab calls them, so they
live beside the tests instead of in the package's public surface. They call
the package's own guards and validators rather than copies, so a test that
reaches a check through one of them reaches the package's one check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from designlab import paulialg, wg
from designlab.cliffordgrp import CliffordTableau, identity_tableau
from designlab.densemat import (Ensemble, _state_root, check_hermitian, check_unitary, dagger,
                                mc_estimate, pauli_to_dense)
from designlab.estimate import Estimate
from designlab.otolab import OtoSpec, tabled_correlator
from designlab.paulialg import PauliString, _decode, row_product


# ---------------------------------------------------------------------------
# Pauli draws and Pauli-built Cliffords
# ---------------------------------------------------------------------------

def random_pauli(n: int, rng: np.random.Generator, exclude_identity: bool = False) -> PauliString:
    """Uniform draw over the 4^n representatives (4^n - 1 when excluding I)."""
    lo = 1 if exclude_identity else 0
    return _decode(n, int(rng.integers(lo, 4**n)))


def cz_tableau(n: int, a: int, b: int) -> CliffordTableau:
    # CZ X_a CZ = X_a Z_b and CZ X_b CZ = Z_a X_b, both with a + sign
    if a == b:
        raise ValueError("CZ needs two distinct qubits")
    rows = list(identity_tableau(n).rows)
    rows[a] |= rows[n + b]
    rows[b] |= rows[n + a]
    return CliffordTableau(n, tuple(rows), (0,) * (2 * n))


def pauli_tableau(p: PauliString) -> CliffordTableau:
    """A Pauli operator as a Clifford: each image is its generator, with a
    - sign exactly when the generator anticommutes with p."""
    base = identity_tableau(p.n)
    signs = tuple(row_product(row, paulialg.to_row(p), p.n) for row in base.rows)
    return CliffordTableau(p.n, base.rows, signs)


# ---------------------------------------------------------------------------
# dense ensembles and overlaps
# ---------------------------------------------------------------------------

def hamiltonian_evolution_ensemble(h: np.ndarray, t_max: float, seed: int | None = None) -> Ensemble:
    """{exp(-i H t)} with t uniform in [0, t_max] for a fixed Hamiltonian."""
    h = check_hermitian(h)
    evals, vecs = np.linalg.eigh(h)

    def draw(rng, size):
        t = rng.uniform(0.0, t_max, size)
        return (vecs * np.exp(-1j * evals * t[:, None])[:, None, :]) @ dagger(vecs)

    return Ensemble("hamiltonian-evolution", h.shape[0], sampler=draw, seed=seed)


def random_sign_state_overlap(d: int, pairs: int, rng: np.random.Generator) -> Estimate:
    """Mean |<a|b>| over pairs of uniform +/-1-coefficient states
    (normalized by 1/sqrt(d)), with a standard error."""
    if d < 2:
        raise ValueError("d must be at least 2")
    signs = rng.integers(0, 2, size=(pairs, 2, d)) * 2 - 1
    overlaps = np.abs((signs[:, 0, :] * signs[:, 1, :]).sum(axis=1)) / d
    return mc_estimate(overlaps, None)


# ---------------------------------------------------------------------------
# state-weighted references
# ---------------------------------------------------------------------------

def generalized_F_haar_reference(rho_kind: str, k: int, d: int,
                                 rho: np.ndarray | None = None) -> Fraction | float:
    """Haar value of the generalized frame potential.

    rho_kind: "pure" -> 1/binom(k+d-1, k); "maximally_mixed" -> F_Haar/d^2;
    "explicit" (with rho) -> tr(rho^2)/d at k=1 or the two-term k=2 formula.
    Explicit states with k >= 3 have no closed form here: use Monte Carlo
    via generalized_F.
    """
    if rho_kind == "pure":
        return Fraction(1, math.comb(k + d - 1, k))
    if rho_kind == "maximally_mixed":
        return wg.haar_frame_potential_exact(k, d) / (d * d)
    if rho_kind == "explicit":
        if rho is None:
            raise ValueError("explicit kind needs rho")
        purity = float(np.trace(rho @ rho).real)
        if k == 1:
            return purity / d
        if k == 2:
            tr = float(np.trace(rho).real)
            return 2 * tr * tr / (d * d - 1) - 2 * purity / (d * (d * d - 1))
        raise ValueError("no closed form for explicit rho with k >= 3; "
                         "use Monte Carlo (generalized_F)")
    raise ValueError(f"unknown rho_kind {rho_kind!r}")


def regulated_oto(rho: np.ndarray, u: np.ndarray, spec: OtoSpec) -> complex:
    """tr{rho^(1/2k) A_1 rho^(1/2k) B~_1 ...}: one fractional power of the
    state between every insertion. rho = I/d reduces this to the plain
    correlator exactly."""
    a_ops, b_ops = spec.expanded()
    root = _state_root(rho, 1 / (2 * len(a_ops)))
    d = 2**spec.n
    if root.shape != (d, d):
        raise ValueError("state dimension mismatch")
    u = check_unitary(u)
    acc = np.eye(d, dtype=complex)
    for a, b in zip(a_ops, b_ops):
        acc = acc @ root @ pauli_to_dense(a) @ root @ (u.conj().T @ pauli_to_dense(b) @ u)
    return complex(np.trace(acc))


def restricted_average_commutator(u: np.ndarray, a_ops) -> complex:
    """Average of the commutator-ordered 4m-point correlator over all
    non-identity B_1..B_m tuples, for one fixed unitary (exact sum). One
    table conjugates each B once; the tuples index it."""
    a_ops = tuple(a_ops)
    non_identity = [p for p in paulialg.enumerate_paulis(a_ops[0].n) if not p.is_identity_bits]
    b_tuples = list(itertools.product(non_identity, repeat=len(a_ops)))
    words = [OtoSpec(a_ops, b_ops, "commutator").expanded() for b_ops in b_tuples]
    a_list = list(dict.fromkeys(words[0][0]))
    corr = tabled_correlator(check_unitary(u), a_list, non_identity)
    total = 0j
    for a_full, b_full in words:
        total += corr([a_list.index(a) for a in a_full], [non_identity.index(b) for b in b_full])
    return total / len(b_tuples)
