"""Exact algebra of the n-qubit Pauli group in binary symplectic form.

A Pauli operator is encoded as ``i**phase * (s_1 (x) s_2 (x) ... (x) s_n)``
where each single-qubit factor ``s_j`` is one of the Hermitian matrices
I, X, Y, Z selected by the bit pair ``(x_j, z_j)``:

    (0, 0) -> I,   (1, 0) -> X,   (0, 1) -> Z,   (1, 1) -> Y.

The x and z bits are held as two Python ints, qubit j at bit n-1-j, so a
label read as a binary number ("XIZY" -> x = 0b1001, z = 0b0011) gives the
masks. Only this module knows that layout: other modules read and build
Paulis through labels, the constructors below and the packed GF(2) row
pair `to_row` / `from_row`: one int x << n | z per Pauli, whose symplectic
inner product is `row_product`.

All products, commutators and traces are computed exactly over the integers;
no dense matrices are built here (dense conversion lives in densemat).
Products, traces of products and automorphism images (the Clifford
conjugations of cliffordgrp, whose tableaux hold packed rows and sign bits)
all fold through one private kernel on the ints (x, z, phase), so a chain
of factors builds a PauliString only for the value it returns.
Everything is immutable and side-effect free, so values are safe to share
across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits

# Letter of each single-qubit factor, indexed by x + 2*z.
_LABELS = "IXZY"


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator with an exact phase (power of i).

    `x` and `z` are bit masks with qubit j at bit n-1-j."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("qubit count must be positive")
        if not (0 <= self.x < 1 << self.n and 0 <= self.z < 1 << self.n):
            raise ValueError("bit masks must hold exactly n bits")
        if self.phase not in (0, 1, 2, 3):
            raise ValueError("phase exponent must be in {0,1,2,3}")

    @property
    def is_identity_bits(self) -> bool:
        """True when all symplectic bits vanish (operator is i**phase * I)."""
        return not (self.x | self.z)

    def representative(self) -> "PauliString":
        """The phase-0 representative with the same bits."""
        return PauliString(self.n, self.x, self.z, 0)

    def adjoint(self) -> "PauliString":
        """Hermitian conjugate; the Hermitian base makes this a phase flip."""
        return PauliString(self.n, self.x, self.z, (-self.phase) % 4)

    def letters(self) -> str:
        """The letter of each qubit's factor, leftmost = qubit 0; the phase
        is not part of it."""
        return "".join(_LABELS[(self.x >> b & 1) + 2 * (self.z >> b & 1)]
                       for b in range(self.n - 1, -1, -1))

    def label(self) -> str:
        """Text form, e.g. "XIZY" (leftmost letter = qubit 0).

        Serialization always deals in representatives; a nonzero phase is an
        error rather than silently discarded information.
        """
        if self.phase != 0:
            raise ValueError("only phase-0 representatives are serialized")
        return self.letters()


def from_label(label: str) -> PauliString:
    """Parse a text Pauli string such as "XIZY" (leftmost = qubit 0)."""
    if not label:
        raise ValueError("empty Pauli label")
    x = z = 0
    for c in label.upper():
        digit = _LABELS.find(c)
        if digit < 0:
            raise ValueError(f"invalid Pauli letter in {label!r}")
        x, z = x << 1 | digit & 1, z << 1 | digit >> 1
    return PauliString(len(label), x, z)


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def single_site(n: int, site: int, letter: str) -> PauliString:
    """The Pauli acting as `letter` on `site` and as identity elsewhere."""
    return embed(from_label(letter), n, (site,))


def embed(p: PauliString, n: int, qubits) -> PauliString:
    """p on the listed qubits of an n-qubit register (qubit j of p acts on
    qubits[j]), identity elsewhere; the phase is kept."""
    if len(qubits) != p.n:
        raise ValueError(f"need {p.n} target qubits, got {len(qubits)}")
    x = z = 0
    for j, q in enumerate(qubits):
        b = p.n - 1 - j
        x |= (p.x >> b & 1) << (n - 1 - q)
        z |= (p.z >> b & 1) << (n - 1 - q)
    return PauliString(n, x, z, p.phase)


def to_row(p: PauliString) -> int:
    """The packed GF(2) row x << n | z of p, i.e. (x_1 .. x_n | z_1 .. z_n)
    with x_1 at the top bit; phase dropped."""
    return p.x << p.n | p.z


def from_row(n: int, row: int, phase: int = 0) -> PauliString:
    """The Pauli i**phase * P with packed row `row` (the inverse of to_row)."""
    return PauliString(n, row >> n, row & ((1 << n) - 1), phase)


def row_product(u: int, v: int, n: int) -> int:
    """Symplectic inner product of two packed rows: 1 iff they anticommute."""
    return ((u >> n & v) ^ (u & v >> n)).bit_count() & 1


def signed(p: PauliString, sign: int) -> PauliString:
    """sign * p for sign in {+1, -1}."""
    return p if sign > 0 else PauliString(p.n, p.x, p.z, (p.phase + 2) % 4)


def _check_same_n(p: PauliString, q: PauliString):
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")


def _ints(p: PauliString) -> tuple[int, int, int]:
    return p.x, p.z, p.phase


def _product(factors, x: int = 0, z: int = 0, phase: int = 0) -> tuple[int, int, int]:
    """The product kernel: i**phase * P(x, z) times each factor (x, z, phase)
    in order, returned as the ints (x, z, phase) of the product.

    Phases are tracked through the X^x Z^z normal form: commuting a Z past an
    X on the same site costs a factor -1, and the Hermitian base absorbs one
    factor of i per Y. For one factor that is the formula
    phase_p + phase_q + |x_p z_p| + |x_q z_q| + 2 |z_p x_q| - |x z|; along a
    chain the -|x z| of one step cancels the +|x z| of the next, so only the
    last is subtracted.
    """
    omega = phase + (x & z).bit_count()
    for fx, fz, fphase in factors:
        omega += fphase + (fx & fz).bit_count() + 2 * (z & fx).bit_count()
        x, z = x ^ fx, z ^ fz
    return x, z, (omega - (x & z).bit_count()) % 4


def _apply(images, row: int, phase: int, n: int) -> tuple[int, int, int]:
    """i**phase times the Pauli with packed row `row`, under the automorphism
    with X_j -> images[j] and Z_j -> images[n + j], as (x, z, phase) ints;
    the images are (x, z, phase) ints too.

    P = i^(phase + x.z) * prod_j X_j^{x_j} * prod_j Z_j^{z_j}, so its image
    is that scalar times the ordered product of the generator images.
    """
    top, x, z = 2 * n - 1, row >> n, row & ((1 << n) - 1)
    return _product((img for j, img in enumerate(images) if row >> (top - j) & 1),
                    phase=phase + (x & z).bit_count())


def _trace(factors, n: int) -> tuple[int, int]:
    """Trace of the ordered product of (x, z, phase) factors on n qubits, as
    an exact Gaussian integer (re, im)."""
    x, z, phase = _product(factors)
    if x | z:
        return (0, 0)
    d = 2**n
    return [(d, 0), (0, d), (-d, 0), (0, -d)][phase]


def mul(p: PauliString, q: PauliString) -> PauliString:
    """Exact product pq with phase tracking; bits are XORed."""
    _check_same_n(p, q)
    return PauliString(p.n, *_product((_ints(q),), *_ints(p)))


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic inner product x_p.z_q + z_p.x_q is even."""
    _check_same_n(p, q)
    return ((p.x & q.z) ^ (p.z & q.x)).bit_count() % 2 == 0


def supports_overlap(p: PauliString, q: PauliString) -> bool:
    """True iff some qubit carries a non-identity factor of both p and q."""
    _check_same_n(p, q)
    return bool((p.x | p.z) & (q.x | q.z))


def k_phase(p: PauliString, q: PauliString) -> int:
    """The sign K with q^dag p q = K p:  +1 if [p,q]=0, -1 if {p,q}=0."""
    return 1 if commutes(p, q) else -1


def _checked_ints(factors) -> list[tuple[int, int, int]]:
    """The (x, z, phase) ints of a nonempty list of PauliStrings on one
    qubit count."""
    for f in factors[1:]:
        _check_same_n(factors[0], f)
    return [_ints(f) for f in factors]


def mul_all(factors) -> PauliString:
    """Ordered product of a nonempty sequence of PauliStrings."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    return PauliString(factors[0].n, *_product(_checked_ints(factors)))


def trace_product_int(factors, n: int | None = None) -> tuple[int, int]:
    """Trace of the ordered product as an exact Gaussian integer (re, im)."""
    factors = list(factors)
    if not factors:
        if n is None:
            raise ValueError("empty product needs an explicit qubit count")
        return (2**n, 0)
    return _trace(_checked_ints(factors), factors[0].n)


def trace_product(factors, n: int | None = None) -> complex:
    """Trace of the ordered product: d * i**phase if it is proportional to
    the identity, else 0. Exact (integer components).

    An empty list returns d = 2**n (trace of the identity, by convention),
    which requires passing `n`.
    """
    re, im = trace_product_int(factors, n)
    return complex(re, im)


def _decode(n: int, code: int) -> PauliString:
    """The Pauli with base-4 code `code`: one digit I=0, X=1, Z=2, Y=3 per
    qubit, qubit 0 the most significant digit. The code's even bits are x
    and its odd bits z."""
    x = z = 0
    for b in range(n):
        x |= (code >> 2 * b & 1) << b
        z |= (code >> 2 * b + 1 & 1) << b
    return PauliString(n, x, z)


def enumerate_paulis(n: int):
    """All 4^n phase-0 representatives in a fixed deterministic order.

    Identity first, then per-qubit letter order I < X < Z < Y with qubit 0 as
    the most significant digit (so n=1 gives [I, X, Z, Y]).
    """
    limits.check_budget(n, limits.MAX_ENUM_QUBITS, f"n={n} > {limits.MAX_ENUM_QUBITS}")
    return [_decode(n, code) for code in range(4**n)]
