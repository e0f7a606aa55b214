"""Clifford group elements as symplectic tableaux.

A tableau stores the images of the 2n Pauli generators X_1..X_n, Z_1..Z_n
under conjugation P -> C^dag P C (Heisenberg picture), each image a
PauliString with a +/- sign. The bit part of the images forms a 2n x 2n
symplectic matrix over GF(2); the sign part is 2n bits.

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
from .paulialg import PauliString, mul

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

    def symplectic_matrix(self) -> np.ndarray:
        """2n x 2n GF(2) matrix; row r = the symplectic row (x | z) of image r."""
        rows = [paulialg.to_symplectic(img) for img in self.x_images + self.z_images]
        return np.array(rows, dtype=np.uint8)

    def phase_bits(self) -> tuple[int, ...]:
        return tuple(img.phase // 2 for img in self.x_images + self.z_images)

    def key(self) -> bytes:
        """Canonical hashable identity (mod global phase)."""
        return self.symplectic_matrix().tobytes() + bytes(self.phase_bits())

    def dense(self) -> np.ndarray:
        return to_dense(self)


def _symplectic_product(u: np.ndarray, v: np.ndarray, n: int) -> int:
    return int(np.dot(u[:n], v[n:]) + np.dot(u[n:], v[:n])) % 2


def is_symplectic(mat: np.ndarray) -> bool:
    """Check S Omega S^T = Omega over GF(2), Omega = [[0,I],[I,0]]."""
    mat = np.asarray(mat, dtype=int)
    n = mat.shape[0] // 2
    omega = np.block([[np.zeros((n, n), int), np.eye(n, dtype=int)],
                      [np.eye(n, dtype=int), np.zeros((n, n), int)]])
    return bool(np.array_equal((mat @ omega @ mat.T) % 2, omega))


def check_tableau(c: CliffordTableau):
    if not is_symplectic(c.symplectic_matrix()):
        raise ValueError("tableau violates the symplectic condition")


def conjugate_pauli(c: CliffordTableau, p: PauliString) -> PauliString:
    """C^dag p C, exact phase included: p under the automorphism that sends
    each generator to its image in the tableau."""
    if c.n != p.n:
        raise ValueError("qubit count mismatch")
    return paulialg.apply_images(p, c.x_images + c.z_images)


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
    """Tableau of C^-1: symplectic inverse Omega S^T Omega with phases fixed
    by pushing candidate preimages back through c."""
    n = c.n
    s = c.symplectic_matrix().astype(int)
    omega = np.block([[np.zeros((n, n), int), np.eye(n, dtype=int)],
                      [np.eye(n, dtype=int), np.zeros((n, n), int)]])
    sinv = (omega @ s.T @ omega) % 2

    def image_row(r: int) -> PauliString:
        fwd = conjugate_pauli(c, paulialg.from_symplectic(sinv[r]))
        # fwd must be +/- the generator r; cancel its phase
        return paulialg.from_symplectic(sinv[r], (-fwd.phase) % 4)

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
    width = 2 * c.n
    packed = lambda p: int("".join(map(str, paulialg.to_symplectic(p))), 2)
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (row, combination)
    dim = 0
    for j, (img_a, img_b) in enumerate(zip(ref.x_images + ref.z_images,
                                           c.x_images + c.z_images)):
        row, comb = packed(img_a) ^ packed(img_b), 1 << (width - 1 - j)
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, comb)
                break
            row ^= pivots[lead][0]
            comb ^= pivots[lead][1]
        else:  # comb is the symplectic row of a new basis vector of K
            q = paulialg.from_symplectic(format(comb, f"0{width}b"))
            if conjugate_pauli(c, q).phase != conjugate_pauli(ref, q).phase:
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
    basis = np.eye(2 * n, dtype=np.uint8)
    pairs = []
    for _ in range(n):
        m = basis.shape[0]
        while True:
            coeff = rng.integers(0, 2, size=m).astype(np.uint8)
            if coeff.any():
                break
        a = coeff @ basis % 2
        while True:
            coeff = rng.integers(0, 2, size=m).astype(np.uint8)
            b = coeff @ basis % 2
            if _symplectic_product(a, b, n) == 1:
                break
        pairs.append((a, b))
        for vec in (a, b):
            vals = np.array([_symplectic_product(vec, row, n) for row in basis])
            hot = np.flatnonzero(vals)
            if hot.size:
                pivot = hot[0]
                for r in hot[1:]:
                    basis[r] = (basis[r] + basis[pivot]) % 2
                basis = np.delete(basis, pivot, axis=0)

    signs = rng.integers(0, 2, size=2 * n)
    xs = tuple(paulialg.from_symplectic(pairs[i][0], 2 * int(signs[i])) for i in range(n))
    zs = tuple(paulialg.from_symplectic(pairs[i][1], 2 * int(signs[n + i])) for i in range(n))
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
                    seed=seed, params={"n": n})


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


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def tableau_to_json(c: CliffordTableau) -> dict:
    return {
        "n": c.n,
        "symplectic": c.symplectic_matrix().astype(int).tolist(),
        "phases": [int(b) for b in c.phase_bits()],
    }


def tableau_from_json(data: dict) -> CliffordTableau:
    n = int(data["n"])
    mat = np.array(data["symplectic"], dtype=np.uint8)
    phases = data["phases"]

    def row(r):
        return paulialg.from_symplectic(mat[r], 2 * int(phases[r]))

    c = CliffordTableau(n, tuple(row(r) for r in range(n)),
                        tuple(row(n + r) for r in range(n)))
    check_tableau(c)
    return c
