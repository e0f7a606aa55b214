"""Clifford group elements as symplectic tableaux.

A tableau holds the images of the 2n Pauli generators X_1..X_n, Z_1..Z_n
under conjugation P -> C^dag P C (Heisenberg picture) as the standard
2n bit rows plus 2n sign bits (Aaronson & Gottesman, quant-ph/0406196):
row r is the packed GF(2) row x << n | z (paulialg.to_row) of image r, X
images first, so the rows form a 2n x 2n symplectic matrix over GF(2),
reduced with XOR and row_product, and the tableau algebra uses no numpy.

Conjugation of arbitrary Paulis, composition, inversion, exactly uniform
sampling, the 24-element single-qubit enumeration, exact pair traces
|tr(A^dag B)|^2 from the GF(2) kernel of S_A xor S_B (2^dim K or 0, with
no walk over the 4^n Paulis, so at any n), and dense unitaries (for
n <= 5) read off the tableau's stabilizer state C^dag |0...0> all live
here. Conjugations run on the rows and signs in paulialg's product kernel,
so no PauliString is built per image. Tableaux are immutable and
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits, paulialg
from .densemat import Ensemble, pauli_to_dense
from .paulialg import PauliString, row_product


@dataclass(frozen=True)
class CliffordTableau:
    """Images of X_i and Z_i under P -> C^dag P C: the packed rows
    x << n | z of the 2n images, X images first, and their sign bits
    (1 for a - sign)."""

    n: int
    rows: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != 2 * self.n or len(self.signs) != 2 * self.n:
            raise ValueError("need one image per generator")
        if not all(0 <= row < 1 << 2 * self.n for row in self.rows):
            raise ValueError("image qubit count mismatch")
        if not all(sign in (0, 1) for sign in self.signs):
            raise ValueError("generator images must be Hermitian (+/- sign)")

    def key(self) -> bytes:
        """Canonical hashable identity (mod global phase): the 2n x 2n bit
        matrix row by row, top bit first, then the sign bits."""
        bits = range(2 * self.n - 1, -1, -1)
        return bytes(row >> b & 1 for row in self.rows for b in bits) + bytes(self.signs)

    def dense(self) -> np.ndarray:
        return to_dense(self)


def is_symplectic(c: CliffordTableau) -> bool:
    """True iff the images form a symplectic basis: images r and s anticommute
    exactly when they are the pair X_i, Z_i (|r - s| = n)."""
    rows = c.rows
    return all(row_product(u, rows[s], c.n) == (s - r == c.n)
               for r, u in enumerate(rows) for s in range(r + 1, len(rows)))


def check_tableau(c: CliffordTableau):
    if not is_symplectic(c):
        raise ValueError("tableau violates the symplectic condition")


def _image_ints(c: CliffordTableau) -> list[tuple[int, int, int]]:
    """The 2n generator images as the (x, z, phase) ints of paulialg's
    product kernel, X images first."""
    low = (1 << c.n) - 1
    return [(row >> c.n, row & low, 2 * sign) for row, sign in zip(c.rows, c.signs)]


def conjugate_pauli(c: CliffordTableau, p: PauliString) -> PauliString:
    """C^dag p C, exact phase included: p under the automorphism that sends
    each generator to its image in the tableau."""
    if c.n != p.n:
        raise ValueError("qubit count mismatch")
    return PauliString(p.n, *paulialg._apply(_image_ints(c), paulialg.to_row(p), p.phase, p.n))


def identity_tableau(n: int) -> CliffordTableau:
    return CliffordTableau(n, tuple(1 << r for r in range(2 * n - 1, -1, -1)), (0,) * (2 * n))


def hadamard_tableau(n: int, site: int) -> CliffordTableau:
    rows = list(identity_tableau(n).rows)
    rows[site], rows[n + site] = rows[n + site], rows[site]
    return CliffordTableau(n, tuple(rows), (0,) * (2 * n))


def phase_gate_tableau(n: int, site: int) -> CliffordTableau:
    # S = diag(1, i): S^dag X S = -Y, S^dag Z S = Z
    rows = list(identity_tableau(n).rows)
    rows[site] |= rows[n + site]
    return CliffordTableau(n, tuple(rows), tuple(int(r == site) for r in range(2 * n)))


def compose(a: CliffordTableau, b: CliffordTableau) -> CliffordTableau:
    """Tableau of the operator product a @ b (conjugation by b after a)."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    n, images = a.n, _image_ints(b)
    out = [paulialg._apply(images, row, 2 * sign, n) for row, sign in zip(a.rows, a.signs)]
    return CliffordTableau(n, tuple(x << n | z for x, z, _ in out),
                           tuple(phase >> 1 for _, _, phase in out))


def inverse(c: CliffordTableau) -> CliffordTableau:
    """Tableau of C^-1, with phases fixed by pushing the preimages back through c.

    The image rows s_i form a symplectic basis, so the preimage of generator
    g_r has coefficient <g_r, s_partner(i)> on g_i, where partner swaps X_i and
    Z_i: the symplectic inverse with no transpose. Pushed through c, the
    unsigned preimage becomes +/- g_r, and that sign is the preimage's.
    """
    n, top, images = c.n, 2 * c.n - 1, _image_ints(c)
    partners = c.rows[n:] + c.rows[:n]
    pre = tuple(sum(row_product(1 << (top - r), partner, n) << (top - i)
                    for i, partner in enumerate(partners)) for r in range(2 * n))
    return CliffordTableau(n, pre, tuple(paulialg._apply(images, row, 0, n)[2] >> 1
                                         for row in pre))


def trace_sq(c: CliffordTableau, ref: CliffordTableau | None = None) -> int:
    """|tr(ref^dag C)|^2 as an exact integer; ref defaults to the identity.

    With A = ref and B = c, |tr(A^dag B)|^2 is the signed count of the
    Paulis Q whose images A^dag Q A and B^dag Q B agree up to a sign s(Q).
    Their symplectic rows are the left kernel K of S_A xor S_B over GF(2),
    and s is a character on K, so the count is 2^dim K when s = +1 on a
    basis of K and 0 otherwise. Gaussian elimination on the 2n packed rows
    finds that basis in O(n^2) int operations: no inverse, no composition
    and no walk over the 4^n Paulis.
    """
    if ref is None:
        ref = identity_tableau(c.n)
    if ref.n != c.n:
        raise ValueError("qubit count mismatch")
    images_a, images_b = _image_ints(ref), _image_ints(c)
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (row, combination)
    dim = 0
    for j, (row_a, row_b) in enumerate(zip(ref.rows, c.rows)):
        row, comb = row_a ^ row_b, 1 << (2 * c.n - 1 - j)
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, comb)
                break
            row ^= pivots[lead][0]
            comb ^= pivots[lead][1]
        else:  # comb is the symplectic row of a new basis vector of K
            phase_a = paulialg._apply(images_a, comb, 0, c.n)[2]
            if paulialg._apply(images_b, comb, 0, c.n)[2] != phase_a:
                return 0
            dim += 1
    return 1 << dim


# ---------------------------------------------------------------------------
# sampling and enumeration
# ---------------------------------------------------------------------------

def random_clifford(n: int, rng: np.random.Generator) -> CliffordTableau:
    """Exactly uniform over the Clifford group mod global phase.

    Samples a uniform symplectic matrix by choosing images of the generator
    pairs sequentially, uniformly among valid completions (maintaining the
    symplectic complement of the pairs chosen so far), then uniform signs.
    """
    if n < 1:
        raise ValueError("n must be positive")
    basis = [1 << b for b in range(2 * n - 1, -1, -1)]  # packed rows, generator order

    def draw() -> int:  # the XOR of a uniform subset of the basis rows
        out = 0
        for bit, row in zip(rng.integers(0, 2, size=len(basis)).tolist(), basis):
            if bit:
                out ^= row
        return out

    pairs = []
    for _ in range(n):
        a = 0
        while not a:  # the basis is independent, so a = 0 iff the subset is empty
            a = draw()
        b = draw()
        while row_product(a, b, n) != 1:
            b = draw()
        pairs.append((a, b))
        for vec in (a, b):
            hot = [r for r, row in enumerate(basis) if row_product(vec, row, n)]
            if hot:
                pivot = hot[0]
                for r in hot[1:]:
                    basis[r] ^= basis[pivot]
                del basis[pivot]

    signs = rng.integers(0, 2, size=2 * n).tolist()
    return CliffordTableau(n, tuple(a for a, _ in pairs) + tuple(b for _, b in pairs),
                           tuple(signs))


def enumerate_single_qubit() -> list[CliffordTableau]:
    """All 24 single-qubit Cliffords (mod global phase), deterministic order,
    by closure of {H, S} under composition."""
    gens = [hadamard_tableau(1, 0), phase_gate_tableau(1, 0)]
    seen: dict[bytes, CliffordTableau] = {}
    frontier = [identity_tableau(1)]
    seen[frontier[0].key()] = frontier[0]
    while frontier:
        nxt = []
        for c in frontier:
            for g in gens:
                cg = compose(c, g)
                k = cg.key()
                if k not in seen:
                    seen[k] = cg
                    nxt.append(cg)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]


def clifford_ensemble(n: int, seed: int | None = None) -> Ensemble:
    """Uniform Clifford ensemble: the exact 24-element list at n=1, a
    uniform sampler for larger n, whose draws are lists of tableaux."""
    if n == 1:
        els = tuple(enumerate_single_qubit())
        w = (1.0 / len(els),) * len(els)
        return Ensemble("clifford", 2, weights=w, elements=els)
    return Ensemble("clifford", 2**n,
                    sampler=lambda rng, size: [random_clifford(n, rng) for _ in range(size)],
                    seed=seed)


# ---------------------------------------------------------------------------
# dense unitaries
# ---------------------------------------------------------------------------

def to_dense(c: CliffordTableau) -> np.ndarray:
    """Dense unitary of the tableau (global phase normalized so the first
    entry of modulus above 1e-9 is real positive). Guarded at n <= limits.DENSE_QUBIT_GUARD.

    The tableau fixes C up to a phase through the state v = C^dag |0...0>,
    the common +1 eigenvector of the Z-images C^dag Z_j C: v is the
    largest-diagonal column of the rank-1 projector prod_j (I + C^dag Z_j C)/2,
    normalized. Column x of C^dag is C^dag X^x |0...0> = (C^dag X^x C) v,
    the image of X^x with its exact sign, so no gate word is needed and only
    the global phase is left free (Aaronson & Gottesman, quant-ph/0406196).
    """
    n = c.n
    if n > limits.DENSE_QUBIT_GUARD:
        raise ValueError(f"dense guard exceeded: n={n} > {limits.DENSE_QUBIT_GUARD}")
    check_tableau(c)
    d = 2**n
    proj = np.eye(d, dtype=complex)
    for row, sign in zip(c.rows[n:], c.signs[n:]):
        proj = proj @ (np.eye(d) + pauli_to_dense(paulialg.from_row(n, row, 2 * sign))) / 2
    col = proj[:, np.argmax(proj.diagonal().real)]
    v = col / np.linalg.norm(col)
    u_dag = np.stack([pauli_to_dense(conjugate_pauli(c, PauliString(n, x, 0))) @ v
                      for x in range(d)], axis=1)
    u = u_dag.conj().T
    flat = u.flatten()
    first = flat[np.flatnonzero(np.abs(flat) > 1e-9)[0]]
    return u * (abs(first) / first)

