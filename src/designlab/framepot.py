"""Frame potentials in all four variants, plus the complexity bounds.

Plain frame potentials (exact double sums, Monte Carlo over sampled pairs,
and the independent OTO-sum route), numerical double time averages for
fixed-Hamiltonian evolution, the state-weighted generalizations F and G,
the thermal variant W for Hamiltonian ensembles, and the counting bounds
(cardinality, complexity, gate count, entropy, depth, epsilon-tolerance,
early-time growth) that frame potentials imply.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import limits, paulialg
from .cliffordgrp import CliffordTableau, trace_sq
from .densemat import (Ensemble, _state_root, _threads, blockwise, check_unitary, dagger,
                       element_to_matrix, trace)
from .estimate import Estimate
from .otolab import _check_tuples, tabled_correlator
from .paulialg import PauliString

# bytes of complex phases per tau chunk of the time average: 1,024 rows at
# d = 64, so a chunk stays in a core's L2 cache and its memory is bounded
TAU_CHUNK_BYTES = 2**20


# ---------------------------------------------------------------------------
# plain frame potentials
# ---------------------------------------------------------------------------

def _per_value(fn, *values):
    """fn applied to each value of equally long arrays, one numpy scalar at a
    time (np.abs or ** on a whole complex array can differ from the scalar
    operations in the last bit), or to scalars as they are."""
    if np.ndim(values[0]) == 0:
        return fn(*values)
    return np.array([fn(*vs) for vs in zip(*values)])


def _check_k(k: int):
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")


def _pair_trace_power(a, b, k: int):
    """|tr(a^dag b)|^(2k) for a pair of ensemble elements, or per pair of two
    dense stacks; exact for Pauli/Clifford, a blockwise trace otherwise."""
    if isinstance(a, PauliString) and isinstance(b, PauliString):
        re, im = paulialg.trace_product_int([a.adjoint(), b])
        return float(re * re + im * im) ** k
    if isinstance(a, CliffordTableau) and isinstance(b, CliffordTableau):
        return float(trace_sq(b, a)) ** k
    traces = blockwise(lambda u, v: trace(dagger(u) @ v), element_to_matrix(a),
                       element_to_matrix(b))
    return _per_value(lambda t: (abs(t) ** 2) ** k, traces)


def frame_potential_exact(ens: Ensemble, k: int) -> Estimate:
    """Exact weighted double sum sum_ij p_i p_j |tr(U_i^dag U_j)|^(2k).

    Discrete ensembles only; Pauli- and Clifford-backed elements use exact
    integer traces.
    """
    if ens.kind != "discrete":
        raise ValueError("exact frame potential needs a discrete ensemble; "
                         "use frame_potential_mc for samplers")
    _check_k(k)
    return ens.average(lambda a, b: _pair_trace_power(a, b, k), pairs=True)


def frame_potential_mc(ens: Ensemble, k: int, n_pairs: int) -> Estimate:
    """Monte-Carlo frame potential: mean of |tr(U^dag V)|^(2k) over
    independent pairs, with the plug-in standard error. A discrete ensemble
    gives its exact double sum, as in frame_potential_exact."""
    _check_k(k)
    return ens.average(lambda a, b: _pair_trace_power(a, b, k), pairs=True,
                       mc_samples=n_pairs)


def frame_potential_via_oto(ens: Ensemble, k: int) -> Estimate:
    """Frame potential from the Pauli-summed squared OTO correlators:

        F = d^(2(k+1)) * (1/d^(4k)) * sum over all Pauli tuples of
            |<A_1 B~_1 ... A_k B~_k>_ens|^2

    An independent oracle for frame_potential_exact; enumeration budget
    limits it to small (n, k). Each element (checked once if dense)
    conjugates the 4^n Paulis once (otolab.tabled_correlator); each tuple's
    average sums w * correlator in element order, as Ensemble.average does.
    """
    if ens.kind != "discrete":
        raise ValueError("the OTO route enumerates exact ensemble averages; "
                         "discrete ensembles only")
    _check_k(k)
    n = int(math.log2(ens.dim))
    _check_tuples(n, 2 * k)
    d = ens.dim
    paulis = paulialg.enumerate_paulis(n)
    correlators = [tabled_correlator(check_unitary(el) if isinstance(el, np.ndarray) else el,
                                     paulis, paulis) for el in ens.elements]
    codes = range(len(paulis))
    total = 0.0
    for a_idx in itertools.product(codes, repeat=k):
        for b_idx in itertools.product(codes, repeat=k):
            acc = 0
            for w, corr in zip(ens.weights, correlators):
                acc += w * corr(a_idx, b_idx)
            total += abs(acc) ** 2
    value = total * d ** (2 * (k + 1)) / d ** (4 * k)
    return Estimate(value, 0.0, len(ens.elements) ** 2, method="exact")


# ---------------------------------------------------------------------------
# time averages
# ---------------------------------------------------------------------------

def analytic_time_average(k: int, d: int) -> int:
    """Infinite-time average of the frame potential for a fixed Hamiltonian
    with fully incommensurate levels: k! d^k."""
    return math.factorial(k) * d**k


def _trapezoid_double_average(spectrum, k, t_max, n_grid) -> float:
    """2D trapezoidal average of |tr exp(-iH(t1-t2))|^(2k) over [0,t_max]^2.

    The integrand depends only on tau = t1 - t2, so the n x n trapezoid sum
    collapses onto anti-diagonals with exactly-known weights; this is an
    algebraic rewrite of the full 2D rule, not an extra approximation.

    The tau grid is cut into chunks of TAU_CHUNK_BYTES of complex phases,
    evaluated on the worker threads of densemat._Threads (numpy releases the
    GIL in exp, outer and sum). A chunk computes its own values of tau and
    exponentiates its phases in place. Each tau row is computed alone, so f
    is the same bits for any chunk size and worker count. The result is too
    only at a fixed OpenBLAS thread count: the weighted sum is a BLAS ddot,
    which splits its sum over the BLAS threads above 10,000 points. It runs
    after the pool has closed, outside any pin.
    """
    energies = np.asarray(spectrum, dtype=float)
    h = t_max / (n_grid - 1)
    f = np.empty(n_grid)
    rows = max(1, TAU_CHUNK_BYTES // (16 * len(energies)))
    errstate = np.geterr()  # new threads start from numpy's default errstate

    def row_powers(lo):
        hi = min(lo + rows, n_grid)
        with np.errstate(**errstate):
            # exp(-i tau E) in place: the bits of np.exp(-1j * np.outer(tau, E))
            phases = np.zeros((hi - lo, len(energies)), dtype=complex)
            np.negative(np.outer(h * np.arange(lo, hi), energies), out=phases.imag)
            f[lo:hi] = np.abs(np.exp(phases, out=phases).sum(axis=1)) ** (2 * k)

    with _threads() as threads:
        threads.map(row_powers, range(0, n_grid, rows))
    c = np.empty(n_grid)
    c[0] = 0.25 + (n_grid - 2) + 0.25
    c[1:-1] = (n_grid - 2 - np.arange(1, n_grid - 1)) + 1.0
    c[n_grid - 1] = 0.25
    total = c[0] * f[0] + 2.0 * np.dot(c[1:], f[1:])
    return float(total * h * h / t_max**2)


def time_averaged_frame_potential(spectrum, k: int, t_max: float,
                                  n_grid: int = 4096) -> Estimate:
    """Numerical double time average of |tr e^(-iH(t1-t2))|^(2k) over
    [0, t_max]^2 for a given spectrum.

    The reported std_error field holds the convergence diagnostic
    |F(t_max) - F(t_max/2)|; the infinite-time limit for generic
    (incommensurate) spectra is analytic_time_average(k, d). The n_grid
    values of tau are evaluated in chunks of TAU_CHUNK_BYTES (1 MiB) of
    complex phases, spread over the usable CPUs; the value does not depend
    on how many there are. n_grid is at most DENSE_GUARD^2, the entry count
    of the largest dense matrix built anywhere.
    """
    _check_k(k)
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    if n_grid > limits.DENSE_GUARD**2:
        raise ValueError(f"n_grid must be at most DENSE_GUARD^2 = {limits.DENSE_GUARD**2}, "
                         f"got n_grid={n_grid}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got t_max={t_max}")
    value = _trapezoid_double_average(spectrum, k, t_max, n_grid)
    half = _trapezoid_double_average(spectrum, k, t_max / 2, max(n_grid // 2, 16))
    return Estimate(value, abs(value - half), n_grid, method="time-average")


# ---------------------------------------------------------------------------
# generalized and thermal frame potentials
# ---------------------------------------------------------------------------

def _generalized(ens, rho, k, variant, mc_samples) -> Estimate:
    root = _state_root(rho, 1.0 / k)
    if ens.kind == "discrete":  # convert each element once, not once per pair
        ens = replace(ens, elements=tuple(map(element_to_matrix, ens.elements)))

    def values(u, v):
        z1 = trace(root @ u @ dagger(v))
        if variant == "F":
            z2 = trace(root @ v @ dagger(u))
        else:
            z2 = trace(root @ dagger(u) @ v)
        return _per_value(lambda x, y: (x * y) ** k, z1, z2)

    def integrand(a, b):
        return blockwise(values, element_to_matrix(a), element_to_matrix(b))

    est = ens.average(integrand, pairs=True, mc_samples=mc_samples)
    # F is real: its two traces are complex conjugates
    return replace(est, value=est.value.real) if variant == "F" else est


def generalized_F(ens: Ensemble, rho: np.ndarray, k: int,
                  mc_samples: int | None = None) -> Estimate:
    """State-weighted frame potential
    avg_{U,V} [tr(rho^(1/k) U V+) tr(rho^(1/k) V U+)]^k."""
    return _generalized(ens, rho, k, "F", mc_samples)


def generalized_G(ens: Ensemble, rho: np.ndarray, k: int,
                  mc_samples: int | None = None) -> Estimate:
    """The sibling generalization with the second trace ordered U+ V;
    its Haar value is state-independent."""
    return _generalized(ens, rho, k, "G", mc_samples)


def thermal_W(ens: Ensemble, beta: float, t: float, k: int, mc_samples: int) -> Estimate:
    """Thermal frame potential for an ensemble of Hamiltonians:

        avg over (G, H) of |tr{e^(-(beta/2k - it)G) e^(-(beta/2k + it)H)}|^(2k)
                           / (tr e^(-beta G) tr e^(-beta H))

    ens is a sampler Ensemble of Hermitian matrices; always Monte Carlo, as
    ens.average over pairs: sample i is the pair (G, H) = draws (2i, 2i+1) of
    one stream. Each spectrum is shifted to start at 0, which leaves the
    ratio as it is and keeps every exponential finite at large beta.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    _check_k(k)
    b = beta / (2 * k)

    def weighted(h, z):
        e, v = np.linalg.eigh(h)
        low = e.min(axis=-1, keepdims=True)
        m = (v * np.exp(-z * e + b * low)[..., None, :]) @ dagger(v)
        return m, np.exp(-beta * (e - low)).sum(axis=-1)

    def pair_values(g, h):
        mg, zg = weighted(g, b - 1j * t)
        mh, zh = weighted(h, b + 1j * t)
        return _per_value(lambda x: abs(x) ** (2 * k), trace(mg @ mh)) / (zg * zh)

    return ens.average(lambda g, h: blockwise(pair_values, g, h), pairs=True,
                       mc_samples=mc_samples)


# ---------------------------------------------------------------------------
# bounds suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EarlyTimeBound:
    value: float
    validity_ratio: float  # t^2 tr{H^2}/d, must be << 1 for the bound to hold
    valid: bool


def _check_positive_f(f: float):
    if f <= 0:
        raise ValueError("frame potential must be positive")


def _check_choices(choices: float):
    # log(choices) is the denominator: 1 gives no bound, below 1 flips its sign
    if choices <= 1:
        raise ValueError(f"choices must exceed 1, got choices={choices}")


def cardinality_bound(f: float, k: int, d: int) -> float:
    """Lower bound on the ensemble size: d^(2k) / F."""
    _check_positive_f(f)
    return d ** (2 * k) / f


def complexity_bound(f: float, k: int, n: int, choices: float) -> float:
    """Lower bound on circuit complexity:
    (2kn log 2 - log F) / log(choices), natural logs."""
    _check_positive_f(f)
    _check_choices(choices)
    return (2 * k * n * math.log(2) - math.log(f)) / math.log(choices)


def gate_count_bound(cardinality: float, g: int, n: int) -> float:
    """Lower bound on gate count from ensemble size: log|E| / log(g n^2)."""
    if cardinality <= 0:
        raise ValueError("cardinality must be positive")
    if g * n * n <= 1:
        raise ValueError(f"gate count bound needs g n^2 > 1, got g={g}, n={n}")
    return math.log(cardinality) / math.log(g * n * n)


def entropy_bound(f: float, k: int, n: int) -> float:
    """Lower bound on the ensemble von Neumann entropy in bits:
    2kn - log2 F."""
    _check_positive_f(f)
    return 2 * k * n - math.log2(f)


def depth_bound(f: float, k: int, n: int, g: int, q: int) -> float:
    """Lower bound on circuit depth when q-local gates act in parallel:
    (2kn log 2 - log F) / (log g + log(n!/(q!)^(n/q)))."""
    _check_positive_f(f)
    if n % q != 0:
        raise ValueError("q must divide n for the parallel-pairing count")
    pairings = math.log(math.factorial(n)) - (n // q) * math.log(math.factorial(q))
    if math.log(g) + pairings <= 0:
        raise ValueError(f"depth bound needs g n!/(q!)^(n/q) > 1, got g={g}, n={n}, q={q}")
    return (2 * k * n * math.log(2) - math.log(f)) / (math.log(g) + pairings)


def epsilon_bound(f: float, k: int, d: int, epsilon: float, choices: float) -> float:
    """Complexity lower bound at operator tolerance epsilon:
    (2k log d - k eps^2 - log F) / log(choices). Needs epsilon < sqrt(2)."""
    _check_positive_f(f)
    _check_choices(choices)
    if not 0 < epsilon < math.sqrt(2):
        raise ValueError("epsilon must be in (0, sqrt(2)) for the bound to hold")
    return (2 * k * math.log(d) - k * epsilon**2 - math.log(f)) / math.log(choices)


def early_time_bound(tr_h2_avg: float, k: int, d: int, t: float) -> EarlyTimeBound:
    """Early-time complexity growth for evolution under an ensemble of
    Hamiltonians: C(t) > 2k t^2 tr{avg H^2}/d, valid while
    t^2 tr{avg H^2}/d << 1."""
    if tr_h2_avg <= 0:
        raise ValueError("the averaged tr H^2 must be positive")
    ratio = t * t * tr_h2_avg / d
    return EarlyTimeBound(2 * k * ratio, ratio, ratio < 0.1)


def bounds_report(f: float, k: int, n: int, *, choices: float | None = None,
                  g: int | None = None, q: int | None = None,
                  epsilon: float | None = None) -> dict:
    """All bounds applicable to the supplied inputs, as a flat dict."""
    _check_k(k)
    if q is not None and q < 1:
        raise ValueError(f"q must be at least 1, got q={q}")
    d = 2**n
    out = {
        "cardinality": cardinality_bound(f, k, d),
        "entropy_bits": entropy_bound(f, k, n),
    }
    if choices is not None:
        out["complexity"] = complexity_bound(f, k, n, choices)
        if epsilon is not None:
            out["complexity_epsilon"] = epsilon_bound(f, k, d, epsilon, choices)
    if g is not None:
        out["gate_count"] = gate_count_bound(out["cardinality"], g, n)
        if q is not None and n % q == 0:
            out["depth"] = depth_bound(f, k, n, g, q)
    return out
