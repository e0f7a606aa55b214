"""Clifford group elements as symplectic tableaux.

A tableau stores the images of the 2n Pauli generators X_1..X_n, Z_1..Z_n
under conjugation P -> C^dag P C (Heisenberg picture), each image a
PauliString with a +/- sign. The bit part of the images forms a 2n x 2n
symplectic matrix over GF(2), held as 2n packed int rows (paulialg.to_row)
and reduced with XOR and row_product, so the tableau algebra uses no numpy;
the sign part is 2n bits.

Conjugation of arbitrary Paulis, composition, inversion, exactly uniform
sampling, the 24-element single-qubit enumeration, exact pair traces
|tr(A^dag B)|^2 from the GF(2) kernel of S_A xor S_B (2^dim K or 0, with
no walk over the 4^n Paulis, so at any n), and dense unitaries (for
n <= 5) read off the tableau's stabilizer state C^dag |0...0> all live
here. Tableaux are immutable and operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paulialg
from .densemat import Ensemble, pauli_to_dense
from .paulialg import PauliString, mul, row_product

DENSE_QUBIT_GUARD = 5


@dataclass(frozen=True)
class CliffordTableau:
    """Images of X_i and Z_i under P -> C^dag P C, with signs."""

    n: int
    x_images: tuple[PauliString, ...]
    z_images: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("need one image per generator")
        for img in self.x_images + self.z_images:
            if img.n != self.n:
                raise ValueError("image qubit count mismatch")
            if img.phase not in (0, 2):
                raise ValueError("generator images must be Hermitian (+/- sign)")

    def rows(self) -> list[int]:
        """The packed GF(2) rows (x | z) of the 2n images, X images first."""
        return [paulialg.to_row(img) for img in self.x_images + self.z_images]

    def phase_bits(self) -> tuple[int, ...]:
        return tuple(img.phase // 2 for img in self.x_images + self.z_images)

    def key(self) -> bytes:
        """Canonical hashable identity (mod global phase)."""
        return bytes(b for row in _bit_rows(self) for b in row) + bytes(self.phase_bits())

    def dense(self) -> np.ndarray:
        return to_dense(self)


def _bit_rows(c: CliffordTableau) -> list[list[int]]:
    """The 2n x 2n GF(2) matrix of c as 0/1 lists, row r the image of generator r."""
    return [[row >> b & 1 for b in range(2 * c.n - 1, -1, -1)] for row in c.rows()]


def is_symplectic(c: CliffordTableau) -> bool:
    """True iff the images form a symplectic basis: images r and s anticommute
    exactly when they are the pair X_i, Z_i (|r - s| = n)."""
    rows = c.rows()
    return all(row_product(u, rows[s], c.n) == (s - r == c.n)
               for r, u in enumerate(rows) for s in range(r + 1, len(rows)))


def check_tableau(c: CliffordTableau):
    if not is_symplectic(c):
        raise ValueError("tableau violates the symplectic condition")


def conjugate_pauli(c: CliffordTableau, p: PauliString) -> PauliString:
    """C^dag p C, exact phase included: p under the automorphism that sends
    each generator to its image in the tableau."""
    if c.n != p.n:
        raise ValueError("qubit count mismatch")
    return paulialg.apply_images(p, c.x_images + c.z_images)


def _image_ints(c: CliffordTableau) -> list[tuple[int, int, int]]:
    """The 2n generator images as the (x, z, phase) ints of paulialg's
    product kernel, X images first."""
    return [paulialg._ints(img) for img in c.x_images + c.z_images]


def identity_tableau(n: int) -> CliffordTableau:
    xs = tuple(paulialg.single_site(n, j, "X") for j in range(n))
    zs = tuple(paulialg.single_site(n, j, "Z") for j in range(n))
    return CliffordTableau(n, xs, zs)


def hadamard_tableau(n: int, site: int) -> CliffordTableau:
    base = identity_tableau(n)
    xs = list(base.x_images)
    zs = list(base.z_images)
    xs[site] = paulialg.single_site(n, site, "Z")
    zs[site] = paulialg.single_site(n, site, "X")
    return CliffordTableau(n, tuple(xs), tuple(zs))


def phase_gate_tableau(n: int, site: int) -> CliffordTableau:
    # S = diag(1, i): S^dag X S = -Y, S^dag Z S = Z
    base = identity_tableau(n)
    xs = list(base.x_images)
    xs[site] = paulialg.signed(paulialg.single_site(n, site, "Y"), -1)
    return CliffordTableau(n, tuple(xs), base.z_images)


def cz_tableau(n: int, a: int, b: int) -> CliffordTableau:
    base = identity_tableau(n)
    xs = list(base.x_images)
    xs[a] = mul(paulialg.single_site(n, a, "X"), paulialg.single_site(n, b, "Z"))
    xs[b] = mul(paulialg.single_site(n, b, "X"), paulialg.single_site(n, a, "Z"))
    return CliffordTableau(n, tuple(xs), base.z_images)


def pauli_tableau(p: PauliString) -> CliffordTableau:
    """A Pauli operator as a Clifford: images are generators up to sign."""
    base = identity_tableau(p.n)
    xs = tuple(paulialg.signed(g, paulialg.k_phase(g, p)) for g in base.x_images)
    zs = tuple(paulialg.signed(g, paulialg.k_phase(g, p)) for g in base.z_images)
    return CliffordTableau(p.n, xs, zs)


def compose(a: CliffordTableau, b: CliffordTableau) -> CliffordTableau:
    """Tableau of the operator product a @ b (conjugation by b after a)."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    xs = tuple(conjugate_pauli(b, img) for img in a.x_images)
    zs = tuple(conjugate_pauli(b, img) for img in a.z_images)
    return CliffordTableau(a.n, xs, zs)


def inverse(c: CliffordTableau) -> CliffordTableau:
    """Tableau of C^-1, with phases fixed by pushing the preimages back through c.

    The image rows s_i form a symplectic basis, so the preimage of generator
    g_r has coefficient <g_r, s_partner(i)> on g_i, where partner swaps X_i and
    Z_i: the symplectic inverse with no transpose.
    """
    n, rows, top = c.n, c.rows(), 2 * c.n - 1

    def image_row(r: int) -> PauliString:
        g = 1 << (top - r)
        pre = sum(row_product(g, rows[(i + n) % (2 * n)], n) << (top - i)
                  for i in range(2 * n))
        fwd = conjugate_pauli(c, paulialg.from_row(n, pre))
        # fwd must be +/- the generator r; cancel its phase
        return paulialg.from_row(n, pre, (-fwd.phase) % 4)

    xs = tuple(image_row(r) for r in range(n))
    zs = tuple(image_row(n + r) for r in range(n))
    return CliffordTableau(n, xs, zs)


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
    for j, (row_a, row_b) in enumerate(zip(ref.rows(), c.rows())):
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
    xs = tuple(paulialg.from_row(n, pairs[i][0], 2 * signs[i]) for i in range(n))
    zs = tuple(paulialg.from_row(n, pairs[i][1], 2 * signs[n + i]) for i in range(n))
    return CliffordTableau(n, xs, zs)


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
    entry of modulus above 1e-9 is real positive). Guarded at n <= 5.

    The tableau fixes C up to a phase through the state v = C^dag |0...0>,
    the common +1 eigenvector of the Z-images C^dag Z_j C: v is the
    largest-diagonal column of the rank-1 projector prod_j (I + C^dag Z_j C)/2,
    normalized. Column x of C^dag is C^dag X^x |0...0> = (C^dag X^x C) v,
    the image of X^x with its exact sign, so no gate word is needed and only
    the global phase is left free (Aaronson & Gottesman, quant-ph/0406196).
    """
    n = c.n
    if n > DENSE_QUBIT_GUARD:
        raise ValueError(f"dense guard exceeded: n={n} > {DENSE_QUBIT_GUARD}")
    check_tableau(c)
    d = 2**n
    proj = np.eye(d, dtype=complex)
    for img in c.z_images:
        proj = proj @ (np.eye(d) + pauli_to_dense(img)) / 2
    col = proj[:, np.argmax(proj.diagonal().real)]
    v = col / np.linalg.norm(col)
    u_dag = np.stack([pauli_to_dense(conjugate_pauli(c, PauliString(n, x, 0))) @ v
                      for x in range(d)], axis=1)
    u = u_dag.conj().T
    flat = u.flatten()
    first = flat[np.flatnonzero(np.abs(flat) > 1e-9)[0]]
    return u * (abs(first) / first)

