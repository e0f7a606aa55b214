"""Dense complex linear algebra at desk scale.

Unitary/Hamiltonian sampling, matrix exponentials, k-fold channel
application and the ensemble abstraction. Operators are plain complex numpy
arrays ("DenseOperator"); unitaries are arrays validated by `check_unitary`
at construction sites.

All samplers are reproducible: identical seeds give bitwise-identical
outputs, and Monte-Carlo block streams derive from (seed, block index) so
loops can fan out across workers without changing results.

Draws come in stacks. `haar_unitary` and `gue_hamiltonian` take a numpy-style
`size` and return a (*size, d, d) stack from one `rng.normal` call; a stack
is bit for bit the sequence of one-at-a-time draws from the same generator,
and leaves the generator in the same state. An ensemble sampler is
`sampler(rng, size) -> size draws`: a (size, d, d) stack for dense ensembles,
a list for Clifford tableaux. `Ensemble.average` streams one generator in
chunks of `chunk_size(d)` draws and evaluates its integrand on each stack, or
on each draw of a list, keeping only the values. Each chunk, views included,
is dropped before the next is drawn, so a Monte-Carlo average holds one chunk
and its sampler's or integrand's temporaries at a time, whatever the sample
count: about 5 chunks at the peak of a Haar or GUE draw. The estimators'
dense integrands run `blockwise`, ASSEMBLY_BYTES of draws at a time, so
theirs are small. A chunk is MC_CHUNK draws, or fewer from d = 128 on (16,
then 4 at d = 256 and 2 from d = 512), so that its d^2 complex numbers per
draw stay within CHUNK_BYTES (4 MiB). Clifford tableaux hold 2n ints a draw,
so their chunks are MC_CHUNK draws from the second on. A brickwork chunk
draws its gates (256 B each) CHUNK_BYTES at a time, or one sub-stack per pool
worker, and holds the temporaries of the circuits being assembled, each layer
only as wide as the qubits its gates cover: up to MC_CHUNK // 4 = 16
circuits, or ASSEMBLY_BYTES of them (4 at d = 64) per worker thread.

Threads: `_Threads` is the one place that spreads work over the CPUs. It
runs independent tasks on one worker thread per usable CPU (the time
average's tau chunks, a brickwork chunk's sub-stacks) and joins them before
the call that opened it returns. Work that calls BLAS from the workers runs
there only with numpy's OpenBLAS pinned to one thread; otherwise inline.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import limits, paulialg, wg
from .estimate import Estimate
from .paulialg import PauliString

UNITARY_TOL = 1e-10
MC_CHUNK = 64  # draws per chunk of a streamed average; even, so chunks hold whole pairs
# d x d complex draws one chunk may hold: all MC_CHUNK up to d = 64, then 16
# at d = 128, 4 at d = 256 and 2 from d = 512 on
CHUNK_BYTES = 2**22
# d x d complex matrices one sub-stack may hold, 4 at d = 64: a pooled
# brickwork sub-stack (balanced time against memory), a `blockwise` block
ASSEMBLY_BYTES = 2**18


def chunk_size(d: int) -> int:
    """Draws per chunk of a stream of d x d draws: MC_CHUNK, or fewer once
    they would pass CHUNK_BYTES as complex matrices (from d = 128 on); even
    and at least 2, so chunks hold whole pairs."""
    return max(2, min(MC_CHUNK, CHUNK_BYTES // (16 * d * d)) // 2 * 2)


def blockwise(fn: Callable, *stacks: np.ndarray):
    """fn(*stacks) for equally long (m, d, d) stacks, evaluated on blocks of
    ASSEMBLY_BYTES of draws and concatenated; fn(*matrices) for single
    matrices. For an fn with one value per draw (or pair), that is the same
    values with block-sized temporaries. Chunk-sized ones, freed beside the
    chunk that an average frees next, made glibc's malloc hand their pages
    back to the system and fault them in again on every chunk."""
    if stacks[0].ndim == 2:
        return fn(*stacks)
    rows = max(1, ASSEMBLY_BYTES // (16 * stacks[0].shape[-1] ** 2))
    return np.concatenate([fn(*(s[lo:lo + rows] for s in stacks))
                           for lo in range(0, len(stacks[0]), rows)])


def dagger(u: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a (..., d, d) stack."""
    return np.conj(u).swapaxes(-1, -2)


def trace(m: np.ndarray):
    """Trace over the last two axes: a scalar for a matrix, an array for a stack."""
    return np.trace(m, axis1=-2, axis2=-1)


def check_unitary(u: np.ndarray) -> np.ndarray:
    """A unitary, or a (..., d, d) stack of them, checked in one pass."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError("unitary must be a square matrix")
    err = np.max(np.abs(dagger(u) @ u - np.eye(u.shape[-1])))
    if err > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: ||U^dag U - I||_max = {err:.2e}")
    return u


def check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - dagger(h))) > UNITARY_TOL:
        raise ValueError("matrix is not Hermitian")
    return h


def mc_estimate(vals: np.ndarray, seed: int | None) -> Estimate:
    """Mean of a Monte-Carlo sample with its standard error: std(ddof=1)/sqrt(n)
    for a real sample, sqrt((var_re + var_im)/n) for a complex one."""
    n = len(vals)
    if np.iscomplexobj(vals):
        mean = complex(vals.mean())
        se = float(np.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / n))
    else:
        mean, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))
    return Estimate(mean, se, n, seed=seed, method="monte-carlo")


def check_state(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A density matrix and its ascending eigenvalues (one eigvalsh): square,
    Hermitian, unit trace and positive semidefinite, each within UNITARY_TOL
    (no eigenvalue below -UNITARY_TOL)."""
    rho = _square_unit_trace(rho)
    return rho, _no_negative(np.linalg.eigvalsh(rho))


def _state_root(rho: np.ndarray, power: float) -> np.ndarray:
    """rho^power, eigenvalues clipped at 0, from one eigh: check_state's
    conditions and messages, its positivity test on the eigh eigenvalues."""
    evals, vecs = np.linalg.eigh(_square_unit_trace(rho))
    return (vecs * np.clip(_no_negative(evals), 0.0, None) ** power) @ vecs.conj().T


def _square_unit_trace(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho must be a square matrix")
    if np.max(np.abs(rho - rho.conj().T)) > UNITARY_TOL or abs(np.trace(rho) - 1) > UNITARY_TOL:
        raise ValueError("rho must be Hermitian with unit trace")
    return rho


def _no_negative(evals: np.ndarray) -> np.ndarray:
    if evals.min() < -UNITARY_TOL:
        raise ValueError("rho is not positive semidefinite")
    return evals


_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_to_dense(p: PauliString) -> np.ndarray:
    """Dense matrix of a PauliString, phase included: i**phase times the
    kron chain of its letters' matrices, byte for byte (Z (x) I holds -0.0):
    each letter's 2 x 2 matrix multiplies the matrix so far by broadcasting,
    the products np.kron forms. The dense guard comes before any of them."""
    limits.check_dense(2**p.n)
    m = np.ones((1, 1), dtype=complex)
    for letter in p.letters():
        m = (m[:, None, :, None] * _SIGMA[letter][None, :, None, :]).reshape(2 * len(m), -1)
    return (1j**p.phase) * m


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

def _workers() -> int:
    """Worker threads of a pool: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's own OpenBLAS, looked up
    through numpy's extension module; None where it exports no such pair
    (another BLAS, or a numpy without numpy._core)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _Threads:
    """A worker pool, one thread per usable CPU, started by the first map of
    more than one task on two or more CPUs, and the OpenBLAS pin; both end
    on exit.

    A map with blas=True runs its tasks on the pool only with OpenBLAS
    pinned to one thread, so workers that each call zgemm do not each wake
    BLAS threads as well. The first such map saves OpenBLAS's thread count
    and sets 1; exit restores it. Where the setter is missing, such maps run
    inline, one task after another.
    """

    def __init__(self):
        self._pool = self._saved = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            if self._pool is not None:
                self._pool.shutdown()
        finally:
            if self._saved is not None:
                _openblas_threads()[1](self._saved)

    def map(self, fn: Callable, items, *, blas: bool = False) -> list:
        items = list(items)
        if len(items) < 2 or _workers() < 2 or (blas and not self._pin()):
            return [fn(x) for x in items]
        if self._pool is None:
            # imported here: concurrent.futures loads logging, 0.8 MB of RSS
            # that commands without pooled work need not carry
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(_workers())
        return list(self._pool.map(fn, items))

    def _pin(self) -> bool:
        if self._saved is None and _openblas_threads() is not None:
            get, set_ = _openblas_threads()
            self._saved = get()
            set_(1)
        return self._saved is not None


# the _Threads of the stream whose sampler is running, so that the sampler's
# maps share its pool and its pin
_STREAM_THREADS = contextvars.ContextVar("designlab_stream_threads", default=None)


def _threads():
    """The running stream's _Threads, left open on exit, or a new one."""
    outer = _STREAM_THREADS.get()
    return contextlib.nullcontext(outer) if outer is not None else _Threads()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _shape(size) -> tuple[int, ...]:
    return (size,) if isinstance(size, (int, np.integer)) else tuple(size)


def _ginibre_qr(d: int, rng: np.random.Generator, shape: tuple[int, ...]):
    z = rng.normal(size=shape + (2, d, d))  # per draw: d x d real parts, then imaginary
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    return q, np.diagonal(r, axis1=-2, axis2=-1)


def haar_unitary(d: int, rng: np.random.Generator, size=()) -> np.ndarray:
    """Haar-random d x d unitary, or a (*size, d, d) stack of them: QR of a
    complex Ginibre matrix with the R-diagonal phases folded into Q so the
    distribution is exactly Haar (Mezzadri, math-ph/0609050)."""
    limits.check_dense(d)
    shape = _shape(size)
    state = rng.bit_generator.state if shape else None
    q, diag = _ginibre_qr(d, rng, shape)
    # numerical rank deficiency of a Ginibre draw has probability zero;
    # redraw rather than divide by ~0
    if np.any(np.abs(diag) < 1e-12):
        if shape:  # replay one draw at a time, so only the bad draw is redrawn
            rng.bit_generator.state = state
            draws = [haar_unitary(d, rng) for _ in range(math.prod(shape))]
            return np.reshape(draws, shape + (d, d))
        while np.any(np.abs(diag) < 1e-12):
            q, diag = _ginibre_qr(d, rng, shape)
    return q * (diag / np.abs(diag))[..., None, :]


def gue_hamiltonian(d: int, rng: np.random.Generator, size=()) -> np.ndarray:
    """GUE draw, or a (*size, d, d) stack of them, Hermitian by construction,
    normalized so E[tr H^2] = d."""
    limits.check_dense(d)
    z = rng.normal(size=_shape(size) + (2, d, d))
    g = z[..., 0, :, :] / np.sqrt(2) + 1j * z[..., 1, :, :] / np.sqrt(2)
    h = (g + dagger(g)) / 2
    return h * math.sqrt(2.0 / d)


def evolve(h: np.ndarray, t: float) -> np.ndarray:
    """U = exp(-i H t) by Hermitian eigendecomposition, for a matrix or a stack."""
    h = check_hermitian(h)
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * evals * t)[..., None, :]) @ dagger(vecs)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def element_to_matrix(el: Any) -> np.ndarray:
    """Dense matrix of one ensemble element (Pauli or tableau-like), or an
    array (a matrix or a dense stack of draws) as it is."""
    if isinstance(el, np.ndarray):
        return el
    if isinstance(el, PauliString):
        return pauli_to_dense(el)
    if hasattr(el, "dense"):
        return el.dense()
    raise TypeError(f"cannot convert ensemble element of type {type(el)!r}")


@dataclass(frozen=True)
class Ensemble:
    """A discrete weighted list of unitaries, or a seeded sampler.

    Discrete: `weights` (nonnegative, summing to 1 within 1e-12) paired with
    `elements` (dense arrays, PauliStrings or Clifford tableaux).
    Sampler: `sampler(rng, size)` returns `size` draws, a (size, d, d) stack
    or a list; stacked draws equal one-at-a-time draws from the same
    generator. Draws are deterministic given (seed, block index). They are
    unitaries, or Hermitian matrices for an ensemble of Hamiltonians (as
    framepot.thermal_W averages).

    The seed lives here and nowhere else: every Monte-Carlo estimator draws
    from `seed`, and a sampler ensemble without one is an error.
    """

    label: str
    dim: int
    weights: tuple[float, ...] | None = None
    elements: tuple[Any, ...] | None = None
    sampler: Callable[[np.random.Generator, int], Any] | None = None
    seed: int | None = None

    def __post_init__(self):
        if (self.elements is None) == (self.sampler is None):
            raise ValueError("ensemble must be exactly one of discrete or sampler")
        if self.elements is not None:
            if self.weights is None or len(self.weights) != len(self.elements):
                raise ValueError("discrete ensemble needs one weight per element")
            if len(self.elements) == 0:
                raise ValueError("empty ensemble")
            if any(w < 0 for w in self.weights):
                raise ValueError("weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1")

    @property
    def kind(self) -> str:
        return "discrete" if self.elements is not None else "sampler"

    def sample_block(self, seed: int, count: int, block: int = 0):
        """Deterministic block of `count` draws from (seed, block), in one
        sampler call."""
        if self.sampler is None:
            raise ValueError("sample_block is only for sampler ensembles")
        return self.sampler(np.random.default_rng([seed, block]), count)

    def stream(self, seed: int, count: int):
        """The draws of block (seed, 0) in chunks: the same draws as
        sample_block(seed, count), never all held at once.

        A chunk is chunk_size(dim) draws. A sampler whose first chunk comes
        back as a list (Clifford tableaux, 2n ints a draw) gets MC_CHUNK
        draws a chunk from then on, as the byte budget counts d x d draws.
        The stream drops its chunk before it draws the next one, so a caller
        that does the same holds one chunk at a time.

        The stream's samplers share one _Threads, closed when the stream
        ends or is closed: a pin set by the first pooled chunk holds for the
        caller's work on every chunk too (its pair traces then run on one
        BLAS thread, rather than against the pool).
        """
        rng = np.random.default_rng([seed, 0])
        size, lo = chunk_size(self.dim), 0
        with _threads() as threads:
            while lo < count:
                token = _STREAM_THREADS.set(threads)
                try:
                    chunk = self.sampler(rng, min(size, count - lo))
                finally:
                    _STREAM_THREADS.reset(token)
                lo += size
                if isinstance(chunk, list):
                    size = MC_CHUNK
                yield chunk
                del chunk

    def average(self, f: Callable, *, pairs: bool = False,
                mc_samples: int | None = None) -> Estimate:
        """Ensemble average of f(element), or of f(a, b) over ordered pairs
        when pairs=True.

        Discrete ensembles give the exact weighted sum (pair weights
        w_i * w_j, i-major, at most limits.MAX_EXACT_PAIRS pairs), calling
        f on one element (pair) at a time; f may return arrays. Samplers give
        `mc_estimate` of mc_samples values: f is called on each chunk of the
        stream, a stack (or its even and odd draws for pairs, so pair i is
        draws 2i and 2i+1), or on each draw (pair) of a list of exact draws,
        and returns one value per draw (pair). A chunk and its views are
        dropped before the next one is drawn, so the average holds one chunk
        and the sampler's or f's temporaries (about 5 chunks while a Haar
        chunk is drawn), plus the values.
        """
        if self.kind == "discrete":
            n = len(self.elements)
            if pairs:
                limits.check_budget(n * n, limits.MAX_EXACT_PAIRS,
                                    f"{n}^2 pairs > {limits.MAX_EXACT_PAIRS}")
                terms = ((wa * wb) * f(a, b) for wa, a in zip(self.weights, self.elements)
                         for wb, b in zip(self.weights, self.elements))
            else:
                terms = (w * f(el) for w, el in zip(self.weights, self.elements))
            total = 0
            for term in terms:
                total += term
            return Estimate(total, 0.0, n * n if pairs else n, method="exact")
        limits.check_mc_samples(mc_samples)
        seed = self.resolve_seed()
        # closed here, not when the generator is collected: a traceback
        # would keep it, and its threads and pin, alive
        with contextlib.closing(self.stream(seed, 2 * mc_samples if pairs else mc_samples)) \
                as chunks:
            vals = []
            for chunk in chunks:
                parts = (chunk[0::2], chunk[1::2]) if pairs else (chunk,)
                vals.append(np.array([f(*el) for el in zip(*parts)])
                            if isinstance(chunk, list) else f(*parts))
                del chunk, parts  # else they live through the next draw
        return mc_estimate(np.concatenate(vals), seed)

    def resolve_seed(self) -> int:
        if self.seed is None:
            raise ValueError(f"ensemble {self.label!r} needs a seed")
        return self.seed


def trivial_ensemble(n: int) -> Ensemble:
    d = 2**n
    return Ensemble("trivial", d, weights=(1.0,), elements=(np.eye(d, dtype=complex),))


def pauli_ensemble(n: int) -> Ensemble:
    """Uniform over the 4^n representative Pauli operators (a 1-design)."""
    ps = tuple(paulialg.enumerate_paulis(n))
    w = (1.0 / len(ps),) * len(ps)
    return Ensemble("pauli", 2**n, weights=w, elements=ps)


def pauli_x_ensemble(n: int) -> Ensemble:
    """Uniform over the 2^n tensor products of I and X (bit-flip strings),
    at most the 4^MAX_ENUM_QUBITS elements of the largest Pauli table."""
    limits.check_budget(n, 2 * limits.MAX_ENUM_QUBITS,
                        f"2^{n} elements > 4^{limits.MAX_ENUM_QUBITS}")
    # qubit 0 varies fastest: element m carries X on qubit j iff bit j of m is
    # set, bit 2n-1-j of its packed row
    rows = [0]
    for j in range(n):
        rows += [row | 1 << (2 * n - 1 - j) for row in rows]
    els = tuple(paulialg.from_row(n, row) for row in rows)
    w = (1.0 / len(els),) * len(els)
    return Ensemble("pauli-x", 2**n, weights=w, elements=els)


def haar_ensemble(d: int, seed: int | None = None) -> Ensemble:
    return Ensemble("haar", d, sampler=lambda rng, size: haar_unitary(d, rng, size),
                    seed=seed)


def gue_evolution_ensemble(d: int, t: float, seed: int | None = None) -> Ensemble:
    """Evolution for a fixed time t under independently drawn GUE Hamiltonians."""
    def draw(rng, size):
        return evolve(gue_hamiltonian(d, rng, size), t)
    return Ensemble("gue-evolution", d, sampler=draw, seed=seed)


def _beside_identity(a: np.ndarray, r: int) -> np.ndarray:
    """a (x) I_r for each matrix of an (m, s, s) stack, written by index into
    zeros; a itself when r = 1."""
    if r == 1:
        return a
    m, s = a.shape[:2]
    out = np.zeros((m, s, r, s, r), dtype=complex)
    diag = np.arange(r)
    out[:, :, diag, :, diag] = a  # out[:, i, l, j, l] = a[:, i, j]
    return out.reshape(m, s * r, s * r)


def _apply_on(a: np.ndarray, u: np.ndarray, q0: int) -> np.ndarray:
    """(I_(2^q0) (x) a (x) I) u for each pair of an (m, s, s) stack a and an
    (m, D, D) stack u: a times u's (2^q0, s, rest) row blocks, a product
    with inner dimension s."""
    m, s = a.shape[:2]
    return np.matmul(a[:, None], u.reshape(m, 2**q0, s, -1)).reshape(u.shape)


def _kron_gate(g: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """g (x) gate for each pair of an (m, s, s) stack g and an (m, 4, 4)
    stack of gates: every entry gate[i, j] * g[a, b] is one product of a
    zgemm with inner dimension 1, rounded as the zgemm that applies the gate
    to g (x) I rounds it, then moved into kron layout."""
    m, s = g.shape[:2]
    out = np.matmul(gate.reshape(m, 16, 1), g.reshape(m, 1, s * s))
    return out.reshape(m, 4, 4, s, s).transpose(0, 3, 1, 4, 2).reshape(m, 4 * s, 4 * s)


def brickwork_ensemble(n: int, depth: int, seed: int | None = None) -> Ensemble:
    """Brickwork random circuit on n qubits: alternating even/odd
    nearest-neighbour pairings (open boundary), each layer made of fresh
    independent Haar 2-qubit gates. The gate arrangement is a modeling
    choice; nothing here depends on it beyond nearest-neighbour locality.

    Gates are drawn circuit-major, in layer order, in `haar_unitary` stacks of
    CHUNK_BYTES (a circuit holds at most MAX_BRICKWORK_GATES = 4096, 1 MiB) or
    of a sub-stack per pool worker: a stack is the one-at-a-time draws, so the
    grouping keeps the bits. Circuits are assembled in sub-stacks of at most
    MC_CHUNK // 4 circuits and ASSEMBLY_BYTES. A layer whose gates cover the w
    qubits from qubit q0 on is a 2^w-sided matrix G, the Kronecker product of
    its gates, grown 4 -> 16 -> 64 wide one gate at a time (`_kron_gate`). G
    is applied to the circuit with inner dimension 2^w (`_apply_on`); only
    the first layer is written into zeros instead, as G (x) I. Once
    ASSEMBLY_BYTES sets the sub-stack size (d >= 64), the sub-stacks run on
    the worker threads with OpenBLAS pinned to one thread (`_Threads`); below
    that a zgemm is too short to gain from the pool, and they run inline.

    Each product sums the nonzero terms of the 2^n-sided zgemm that a
    circuit-at-a-time loop of `kron` embeddings would make, in the same
    order: OpenBLAS sums each entry in ascending inner index, and the zeros
    of I (x) G (x) I add exact zeros. An entry of G is one product, which
    the inner-dimension-1 zgemm of `_kron_gate` rounds as that loop's zgemm
    rounds its one nonzero term. So the draws are that loop's bit for bit
    on any number of threads (`tests/test_densemat.py::TestBlockProduct`
    checks both identities).
    """
    if n < 2:
        raise ValueError("brickwork needs at least 2 qubits")
    if depth < 1:
        raise ValueError(f"brickwork needs depth >= 1, got depth={depth}")
    d = 2**n
    limits.check_dense(d)
    # even layers hold n // 2 gates, odd layers (n - 1) // 2
    n_gates = (depth + 1) // 2 * (n // 2) + depth // 2 * ((n - 1) // 2)
    if n_gates > limits.MAX_BRICKWORK_GATES:
        raise ValueError(f"brickwork of depth {depth} on {n} qubits has {n_gates} gates; "
                         f"a chunk holds at most {limits.MAX_BRICKWORK_GATES}")
    # (q0, w) of the even and the odd layers; w = 0 for an empty layer (n = 2)
    spans = [(q0, 2 * len(range(q0, n - 1, 2))) for q0 in (0, 1)]

    per_task = max(1, min(MC_CHUNK // 4, ASSEMBLY_BYTES // (16 * d * d)))
    pooled = per_task < MC_CHUNK // 4

    def sampler(rng, size):
        out = np.empty((size, d, d), dtype=complex)

        def assemble(job):
            lo, sub = job
            gates = iter(np.moveaxis(sub, 1, 0))
            u = None
            for layer in range(depth):
                q0, w = spans[layer % 2]
                if not w:
                    continue
                g = next(gates)
                for _ in range(w // 2 - 1):
                    g = _kron_gate(g, next(gates))
                u = _beside_identity(g, 2 ** (n - w)) if u is None else _apply_on(g, u, q0)
            out[lo:lo + len(sub)] = u

        # at most CHUNK_BYTES of gates at a time, but a sub-stack for each pool worker
        group = max(CHUNK_BYTES // (256 * n_gates), per_task * _workers() if pooled else 1)
        with _threads() as threads:
            for g0 in range(0, size, group):
                stack = haar_unitary(4, rng, (min(group, size - g0), n_gates))  # circuit-major
                jobs = [(g0 + lo, stack[lo:lo + per_task]) for lo in range(0, len(stack), per_task)]
                if pooled:
                    threads.map(assemble, jobs, blas=True)
                else:
                    for job in jobs:
                        assemble(job)
                del stack, jobs  # else they live through the next draw
        return out

    return Ensemble("brickwork", d, sampler=sampler, seed=seed)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def _kfold_conjugate(u: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    uk = u
    for _ in range(k - 1):
        uk = np.kron(uk, u)
    return uk.conj().T @ a @ uk


@dataclass(frozen=True)
class ChannelApplyResult:
    matrix: np.ndarray
    std_error: np.ndarray | None  # entrywise, None for exact results
    n_samples: int
    method: str


def _channel_operator(a: np.ndarray, k: int, d: int) -> np.ndarray:
    """A as a complex d^k x d^k matrix, within the dense guard."""
    a = np.asarray(a, dtype=complex)
    side = d**k
    if a.shape != (side, side):
        raise ValueError(f"operator must be {side} x {side}")
    limits.check_dense(side, "d^k=")
    return a


def kfold_channel_apply(ens: Ensemble, a: np.ndarray, k: int,
                        mc_samples: int | None = None) -> ChannelApplyResult:
    """Apply the k-fold channel of an ensemble to an operator on d^k.

    Discrete ensembles give the exact weighted sum
    sum_j p_j (U_j^(x)k)^dag A U_j^(x)k; samplers give a streamed Monte-Carlo
    mean with an entrywise standard error (ddof=1).
    """
    a = _channel_operator(a, k, ens.dim)
    if ens.kind == "discrete":
        est = ens.average(lambda el: _kfold_conjugate(element_to_matrix(el), a, k))
        return ChannelApplyResult(est.value, None, est.n_samples, "exact")
    n = limits.check_mc_samples(mc_samples)
    acc = np.zeros_like(a)
    acc2 = np.zeros(a.shape)
    with contextlib.closing(ens.stream(ens.resolve_seed(), n)) as chunks:
        for chunk in chunks:
            for el in chunk:
                term = _kfold_conjugate(element_to_matrix(el), a, k)
                acc += term
                acc2 += np.abs(term) ** 2
            del chunk, el  # el is a view of the chunk
    mean = acc / n
    var = np.maximum((acc2 - n * np.abs(mean) ** 2) / (n - 1), 0.0)
    return ChannelApplyResult(mean, np.sqrt(var / n), n, "monte-carlo")


def haar_channel_reference(a: np.ndarray, k: int, d: int) -> np.ndarray:
    """Exact Haar k-fold channel via the Weingarten decomposition:
    sum_{pi,sigma} Wg(pi sigma, d) W_pi tr{W_sigma A}, one `wg.contract` per
    W_pi coefficient (Wg is the pseudo-inverse of Q when k > d)."""
    a = _channel_operator(a, k, d)
    ws = [wg.permutation_matrix(pi, d) for pi in wg.permutations_of(k)]
    traces = [np.trace(w @ a) for w in ws]
    return sum(complex(wg.contract(k, d, unit, traces)) * w
               for unit, w in zip(np.eye(len(ws), dtype=int), ws))


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def _is_number_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v)


def matrix_from_json(data: list) -> np.ndarray:
    """A square complex matrix from JSON: a list of rows of [re, im] pairs."""
    if not (isinstance(data, list) and data and all(
            isinstance(row, list) and len(row) == len(data) and all(map(_is_number_pair, row))
            for row in data)):
        raise ValueError("matrix must be a square list of rows of [re, im] number pairs")
    return np.array([[complex(re, im) for re, im in row] for row in data])
