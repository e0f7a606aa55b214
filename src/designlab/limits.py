"""Every bound whose breach raises a guard or budget error, and the checks.

Modules read a bound as `limits.X` when its check runs, never as a copy
imported by name, so setting `limits.X` once moves every guard that reads it.
"""

DENSE_GUARD = 4096  # largest matrix side constructed anywhere
DENSE_QUBIT_GUARD = 5  # qubits of the largest dense Clifford unitary, d = 32
# Enumeration guard: 4^8 = 65536 strings is the largest table any test needs.
MAX_ENUM_QUBITS = 8
# Budget on the Pauli tuples one exact Pauli-summed identity may walk.
MAX_PAULI_TUPLES = 65536
# Budget on the ordered pairs one exact pair sum over a discrete ensemble may
# walk, about 0.4 s: the 4^4 Paulis at n = 4, the 2^8 bit-flip strings at n = 8.
MAX_EXACT_PAIRS = 65536
MAX_PARTITION_K = 12  # largest k whose partitions the exact Weingarten sums walk
MAX_PERMUTATION_K = 6  # largest k whose k! permutations (and k!^2 tables) are listed
MAX_MC_SAMPLES = 10**7  # an average holds every value, about 27 B a pair: 270 MB at the cap
MAX_BRICKWORK_GATES = 4096  # gates of one brickwork circuit: 8192 layers at n = 2


def check_dense(side: int, what: str = "d=") -> None:
    """A matrix of this side may be built: at least 1 and at most
    DENSE_GUARD. `what`, separator included, names the side in the message."""
    if side < 1:
        raise ValueError("d must be positive")
    if side > DENSE_GUARD:
        raise ValueError(f"dense guard exceeded: {what}{side} > {DENSE_GUARD}")


def check_budget(count: int, bound: int, what: str, error: str = "enumeration guard") -> None:
    """count within an enumeration or tuple budget, else "<error> exceeded: <what>"."""
    if count > bound:
        raise ValueError(f"{error} exceeded: {what}")


def check_mc_samples(mc_samples: int | None) -> int:
    """At least 2 Monte-Carlo samples, so a ddof=1 standard error exists, and
    at most MAX_MC_SAMPLES, so the values an average holds fit in memory."""
    if mc_samples is None or not 2 <= mc_samples <= MAX_MC_SAMPLES:
        raise ValueError(f"Monte-Carlo estimates need mc_samples >= 2 and <= {MAX_MC_SAMPLES}, "
                         f"got {mc_samples}")
    return mc_samples
