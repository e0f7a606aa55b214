"""The four benchmark workloads: their jobs, inputs and correctness checks.

A job is one call into a public entry point that returns a user-facing
result: a ``designlab`` subcommand run in-process through ``cli.main(argv)``,
or a public library call where the CLI cannot reach the case. Every job seed
and every generated operator derives from the workload seed; the program
only sees the generated argv or arguments.

Why each workload exists (and which layer it loads):

* ``haar_mc``: Haar/GUE Monte Carlo at d=4 and d=16. Per-sample Python
  overhead and small numpy calls dominate (densemat sampling, otolab's dense
  OTO chain). BLAS threading does not matter at this size.
* ``clifford_mc``: Clifford frame potentials, Monte Carlo at n=5 and n=3 and
  exact at n=1. All the work is pure-Python symplectic and Pauli algebra in
  cliffordgrp and paulialg: no dense matrices, no BLAS.
* ``exact_weingarten``: exact Haar references from cold caches. Exact
  ``Fraction`` arithmetic in wg dominates (``q_inverse`` at (4,4), (4,8) and
  (5,8)); several words share one (k, d), so the ``lru_cache`` does real work.
* ``dense_circuits``: dense work at d=16..64. BLAS-bound matmuls, brickwork
  assembly through ``kron`` embeddings, the only scrambling work, and the
  largest memory footprint (the 200,000-point time-average grid).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from designlab import cli, cliffordgrp, densemat, framepot, otolab, paulialg, wg
from designlab.estimate import Estimate
from designlab.otolab import OtoSpec

SIGMAS = 5.0  # Monte-Carlo estimates must lie within this many std errors
SEED_COMMIT_MATCH = 1e-12  # ROADMAP aim 1: same seed, same estimate within this
FLOAT_EXACT = 1e-12  # float outputs of exact evaluators vs their Fraction value

Check = Callable[[Any], "str | None"]


@dataclass(frozen=True)
class CliResult:
    """Exit code and stdout text of one in-process ``designlab`` run."""

    code: int
    text: str

    @property
    def report(self) -> dict:
        return json.loads(self.text)


@dataclass(frozen=True)
class Job:
    """One call into designlab plus the checks its result must pass.

    ``draws`` counts the unitaries (or Hamiltonians) a Monte-Carlo job draws
    and ``target_se`` is the std error the job aims for; both are zero/None
    for jobs without sampling.
    """

    id: str
    call: Callable[[], Any]
    checks: tuple[Check, ...]
    argv: tuple[str, ...] | None = None
    draws: int = 0
    target_se: float | None = None


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue())


def argv_key(argv) -> str:
    """Key of a CLI invocation in the seed-commit table."""
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:24]


def summarize(result) -> tuple[str, float | None, float | None]:
    """(fingerprint, scalar value, std error) of a job result.

    The fingerprint of a CLI result is the sha256 of its report bytes, so
    equal fingerprints mean byte-identical reports.
    """
    if isinstance(result, CliResult):
        value = se = None
        if result.code == 0:
            report = result.report
            value, se = report.get("value"), report.get("std_error")
            if report.get("estimator") == "verify":
                # the Monte-Carlo rows carry 5 std errors as their tolerance
                se = max((row["std_error"] / SIGMAS for row in report["rows"]
                          if "sigma" in row["estimator"]), default=None)
        return hashlib.sha256(result.text.encode()).hexdigest(), value, se
    if isinstance(result, Estimate):
        return repr((result.value, result.std_error)), result.real, result.std_error
    if isinstance(result, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(result).tobytes()).hexdigest(), None, None
    return repr(result), None, None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _report(result: CliResult) -> dict:
    if result.code != 0:
        raise ValueError(f"exit code {result.code}")
    return result.report


def exits_ok(result: CliResult):
    if result.code != 0:
        return f"exit code {result.code}"
    return None


def within_sigmas(ref: Fraction) -> Check:
    """Two-sided: |value - ref| <= 5 std errors (designs and Haar)."""
    def check(result):
        rep = _report(result)
        dev = abs(rep["value"] - float(ref))
        if not dev <= SIGMAS * rep["std_error"]:
            return (f"value {rep['value']!r} is {dev:.3g} from {ref}, "
                    f"more than {SIGMAS:g} x {rep['std_error']:.3g}")
        return None
    return check


def at_least_haar(ref: Fraction) -> Check:
    """One-sided for non-design ensembles: F >= F_Haar - 5 std errors."""
    def check(result):
        rep = _report(result)
        if not rep["value"] >= float(ref) - SIGMAS * rep["std_error"]:
            return (f"value {rep['value']!r} is below the Haar floor {ref} "
                    f"by more than {SIGMAS:g} x {rep['std_error']:.3g}")
        return None
    return check


def reports_reference(ref: Fraction) -> Check:
    """The reference embedded in the report is the float of the exact value."""
    def check(result):
        rep = _report(result)
        if rep["reference"] != float(ref):
            return f"report reference {rep['reference']!r} != {float(ref)!r}"
        return None
    return check


def float_equals(ref: Fraction) -> Check:
    def check(result):
        value = _report(result)["value"] if isinstance(result, CliResult) else result.value
        if not abs(value - float(ref)) <= FLOAT_EXACT * max(1.0, abs(float(ref))):
            return f"value {value!r} != {ref} within {FLOAT_EXACT:g}"
        return None
    return check


def exact_equals(ref) -> Check:
    def check(result):
        if result != ref:
            return f"{result!r} != exact reference {ref!r}"
        return None
    return check


def verify_passes(result: CliResult):
    rep = _report(result)
    failed = [row["estimator"] for row in rep["rows"] if not row["passed"]]
    if not rep["passed"] or failed:
        return f"verify identities failed: {failed}"
    return None


def scramble_identity(k: int) -> Check:
    def check(result):
        rep = _report(result)
        lhs, rhs = rep["lhs"], rep["rhs"]
        if not (rep["passed"] and 0.0 < lhs <= 1.0 + 1e-12 and abs(lhs - rhs) <= 1e-8):
            return f"Renyi-{k} identity: lhs {lhs!r} vs rhs {rhs!r}"
        if k == 2 and not abs(rep["mutual_info_2"] + math.log2(lhs)) <= 1e-9:
            return f"I2 {rep['mutual_info_2']!r} != -log2({lhs!r})"
        return None
    return check


def timeavg_converged(ref: int, rtol: float) -> Check:
    def check(result):
        rep = _report(result)
        if not (rep["passed"] and abs(rep["value"] - ref) <= rtol * ref):
            return f"time average {rep['value']!r} not within {rtol:g} of {ref}"
        return None
    return check


def matrix_close(ref: np.ndarray) -> Check:
    def check(result):
        dev = float(np.max(np.abs(result - ref)))
        if not dev <= FLOAT_EXACT:
            return f"channel deviates from the exact reference by {dev:.3g}"
        return None
    return check


# ---------------------------------------------------------------------------
# job constructors
# ---------------------------------------------------------------------------

def cli_job(job_id: str, argv, checks, draws: int = 0, target_se: float | None = None) -> Job:
    argv = tuple(str(a) for a in argv)
    return Job(job_id, lambda: run_cli(argv), (exits_ok, *checks), argv, draws, target_se)


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512, so the stream is stable across runs
    return random.Random(f"{workload}:{seed}")


def _job_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _random_pauli(rng: random.Random, n: int) -> paulialg.PauliString:
    """Uniform non-identity Hermitian Pauli on n qubits."""
    while True:
        label = "".join(rng.choice("IXYZ") for _ in range(n))
        if label != "I" * n:
            return paulialg.from_label(label)


def _two_site_paulis(rng: random.Random, n: int):
    """Two single-site Paulis on distinct sites: commuting, product != I."""
    i, j = rng.sample(range(n), 2)
    return (paulialg.single_site(n, i, rng.choice("XYZ")),
            paulialg.single_site(n, j, rng.choice("XYZ")))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# exact Haar averages at d=4 quoted by the checks (otolab.predict's corrected
# closed forms, never the criterion-7 printed values 8/45 and -101/1260)
OTO4_D4 = Fraction(-1, 15)
OTO6_D4 = Fraction(4 * 4 + 4, (16 - 1) * (16 - 4))  # 1/9
COMMUTATOR8_D4 = Fraction(-(16 + 36), (16 - 1) * (16 - 4) * (16 - 9))  # -13/315
# no closed form: the seed commit's exact Weingarten value, which the MC
# estimate of the same correlator corroborates within 5 sigma
NONCOMMUTATOR8_D4 = Fraction(43, 315)
HAAR_F2 = Fraction(2)  # F_Haar(k=2) = 2! for every d >= 2


def haar_mc(seed: int, size: str) -> list[Job]:
    rng = _rng("haar_mc", seed)
    n_oto, n_fp, n_thermal = (1000, 2000, 2000) if size == "full" else (30, 30, 30)
    jobs = []
    for kind, ref, target in (("oto4", OTO4_D4, 0.012), ("oto6", OTO6_D4, 0.009),
                              ("commutator8", COMMUTATOR8_D4, 0.009),
                              ("noncommutator8", NONCOMMUTATOR8_D4, 0.012)):
        jobs.append(cli_job(
            f"oto.{kind}.n2",
            ["oto", "--ensemble", "haar", "--n", 2, "--kind", kind,
             "--samples", n_oto, "--seed", _job_seed(rng)],
            (within_sigmas(ref), reports_reference(ref)), n_oto, target))
    for n, target in ((2, 0.1), (4, 0.1)):
        jobs.append(cli_job(
            f"framepot.haar.n{n}.k2",
            ["framepot", "--ensemble", "haar", "--n", n, "--k", 2,
             "--samples", n_fp, "--seed", _job_seed(rng)],
            (within_sigmas(HAAR_F2), reports_reference(HAAR_F2)),
            2 * n_fp, target))
    # at beta = 0 the thermal W is the GUE-evolution frame potential over
    # d^2, so it is bounded below by F_Haar(k=1)/d^2 = 1/16
    jobs.append(cli_job(
        "thermal.n2",
        ["thermal", "--n", 2, "--beta", 0, "--t", 1, "--k", 1,
         "--samples", n_thermal, "--seed", _job_seed(rng)],
        (at_least_haar(Fraction(1, 16)),), 2 * n_thermal, 0.0027))
    return jobs


def clifford_mc(seed: int, size: str) -> list[Job]:
    rng = _rng("clifford_mc", seed)
    n5, n3 = (20, 400) if size == "full" else (6, 40)
    jobs = []
    # the Clifford group is a 3-design, so F_1 = 1. Monte Carlo runs k=1
    # only: |tr C|^4 is so heavy-tailed that the plug-in std error misses
    # its spread (n=3, 400 pairs, seed 30: 1.39 +- 0.09 against F_2 = 2), so
    # a 5-sigma check fails on correct code; k >= 2 is checked exactly at n=1
    for n, pairs, target in ((5, n5, 0.22), (3, n3, 0.05)):
        jobs.append(cli_job(
            f"framepot.clifford.n{n}.k1",
            ["framepot", "--ensemble", "clifford", "--n", n, "--k", 1,
             "--samples", pairs, "--seed", _job_seed(rng)],
            (within_sigmas(Fraction(1)), reports_reference(Fraction(1))),
            2 * pairs, target))
    # exact n=1 Clifford frame potentials: F2 = 2, F3 = 5, F4 = 15 (> 14 = F_Haar)
    for k, ref in ((2, 2), (3, 5), (4, 15)):
        jobs.append(cli_job(
            f"framepot.clifford.n1.k{k}.exact",
            ["framepot", "--ensemble", "clifford", "--n", 1, "--k", k, "--exact"],
            (float_equals(Fraction(ref)),)))
    ens = cliffordgrp.clifford_ensemble(1)
    jobs.append(Job("framepot.via_oto.clifford.n1.k2",
                    lambda: framepot.frame_potential_via_oto(ens, 2),
                    (float_equals(Fraction(2)),)))
    return jobs


def _wg_closed_form(mu: tuple[int, ...], d: int) -> Fraction:
    """Unitary Weingarten values for k <= 3 (Collins 2003)."""
    dd = d * d
    return {
        (1,): Fraction(1, d),
        (1, 1): Fraction(1, dd - 1),
        (2,): Fraction(-1, d * (dd - 1)),
        (1, 1, 1): Fraction(dd - 2, d * (dd - 1) * (dd - 4)),
        (2, 1): Fraction(-1, (dd - 1) * (dd - 4)),
        (3,): Fraction(2, d * (dd - 1) * (dd - 4)),
    }[mu]


def exact_weingarten(seed: int, size: str) -> list[Job]:
    rng = _rng("exact_weingarten", seed)
    jobs = []

    def oto_job(job_id, a_ops, b_ops, ref):
        a_ops, b_ops = tuple(a_ops), tuple(b_ops)
        jobs.append(Job(job_id, lambda: otolab.haar_average_oto_exact(a_ops, b_ops),
                        (exact_equals((ref, Fraction(0))),)))

    def commutator8(n):
        d2 = 4**n
        a, c = _two_site_paulis(rng, n)
        b, dd = _two_site_paulis(rng, n)
        return (OtoSpec((a, c), (b, dd), "commutator").expanded(),
                Fraction(-(d2 + 36), (d2 - 1) * (d2 - 4) * (d2 - 9)))

    # 8-point words at d=4: q_inverse(4, 4), then a cache hit
    (a_ops, b_ops), ref = commutator8(2)
    oto_job("haar_oto_exact.commutator8.d4", a_ops, b_ops, ref)
    x0, x1 = paulialg.single_site(2, 0, "X"), paulialg.single_site(2, 1, "X")
    z0, z1 = paulialg.single_site(2, 0, "Z"), paulialg.single_site(2, 1, "Z")
    oto_job("haar_oto_exact.noncommutator8.d4",
            *OtoSpec((x0, x1), (z0, z1), "non_commutator").expanded(), NONCOMMUTATOR8_D4)
    # 8-point words at d=8 sharing q_inverse(4, 8)
    for j in range(3 if size == "full" else 1):
        (a_ops, b_ops), ref = commutator8(3)
        oto_job(f"haar_oto_exact.commutator8.d8.{j}", a_ops, b_ops, ref)
    if size == "full":
        # 10-point words at d=8 sharing q_inverse(5, 8): A B~ I Q~ I Q~ I I A B~
        # collapses to the 4-point word A B~ A B~, whose Haar value is -1/(d^2-1)
        ident = paulialg.identity(3)
        for j in range(2):
            a, b, q = (_random_pauli(rng, 3) for _ in range(3))
            oto_job(f"haar_oto_exact.word10.d8.{j}", (a, ident, ident, ident, a),
                    (b, q, q, ident, b), Fraction(-1, 63))
    for d in (4, 8):
        for mu in ((1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,)):
            ref = _wg_closed_form(mu, d)
            jobs.append(Job(f"weingarten.{''.join(map(str, mu))}.d{d}",
                            lambda mu=mu, d=d: wg.weingarten(mu, d), (exact_equals(ref),)))
    jobs.append(cli_job("cli.wg.21.d8", ["wg", "--cycle-type", "2,1", "--d", 8],
                        (_rational_is(_wg_closed_form((2, 1), 8)),)))
    # Haar twirl of P (x) P (P a traceless Pauli, d=4): -I/15 + (4/15) SWAP
    p = densemat.pauli_to_dense(_random_pauli(rng, 2))
    swap = np.eye(16)[[4 * (i % 4) + i // 4 for i in range(16)]]  # |ij> -> |ji>
    channel_ref = -np.eye(16) / 15 + 4 * swap / 15
    big = np.kron(p, p)
    jobs.append(Job("haar_channel_reference.k2.d4",
                    lambda: densemat.haar_channel_reference(big, 2, 4),
                    (matrix_close(channel_ref),)))
    # verify runs two small Monte-Carlo rows (8000 + 4000 Haar draws)
    suite = "full" if size == "full" else "quick"
    jobs.append(cli_job(f"verify.{suite}", ["verify", "--suite", suite], (verify_passes,),
                        12000 if suite == "full" else 0, 0.016 if suite == "full" else None))
    return jobs


def _rational_is(ref: Fraction) -> Check:
    def check(result):
        rep = _report(result)
        if Fraction(rep["rational"]) != ref:
            return f"rational {rep['rational']} != {ref}"
        return None
    return check


def dense_circuits(seed: int, size: str) -> list[Job]:
    rng = _rng("dense_circuits", seed)
    pairs = 300 if size == "full" else 20
    jobs = [cli_job(
        "framepot.brickwork.n6.d6.k2",
        ["framepot", "--ensemble", "brickwork", "--n", 6, "--depth", 6, "--k", 2,
         "--samples", pairs, "--seed", _job_seed(rng)],
        (at_least_haar(HAAR_F2), reports_reference(HAAR_F2)), 2 * pairs, 0.3)]
    for n, k in ((4, 2), (3, 3)):
        for j in range(4):
            a, dq = rng.sample(range(n), 2)
            jobs.append(cli_job(
                f"scramble.n{n}.k{k}.{j}",
                ["scramble", "--unitary", "haar", "--n", n, "--k", k,
                 "--partition", f"A={a};D={dq}", "--seed", _job_seed(rng)],
                (scramble_identity(k),)))
    # 64 levels j + u_j with u_j in [0, 1/2): spacings >= 1/2, no rational
    # relations, so the double time average converges to k! d^k = 64
    levels = [j + 0.5 * rng.random() for j in range(64)]
    grid = [] if size == "full" else ["--t-max", 200, "--n-grid", 20000]
    jobs.append(cli_job(
        "timeavg.d64.k1",
        ["timeavg", "--spectrum", ",".join(repr(e) for e in levels), "--k", 1,
         "--check", *grid],
        (timeavg_converged(64, 0.05), reports_reference(Fraction(64)))))
    return jobs


JOB_LISTS = {
    "haar_mc": haar_mc,
    "clifford_mc": clifford_mc,
    "exact_weingarten": exact_weingarten,
    "dense_circuits": dense_circuits,
}


def build_jobs(workload: str, seed: int, size: str, seed_commit: dict) -> list[Job]:
    """The workload's job list; CLI jobs whose argv has a seed-commit entry
    also get the byte-identity and 1e-12 value checks."""
    jobs = JOB_LISTS[workload](seed, size)
    return [_with_seed_commit(job, seed_commit.get(argv_key(job.argv)))
            if job.argv is not None else job for job in jobs]


def _with_seed_commit(job: Job, entry: dict | None) -> Job:
    if entry is None:
        return job

    def matches(result):
        fingerprint, value, _ = summarize(result)
        ref = entry["value"]
        if ref is not None and not (value is not None and abs(value - ref)
                                    <= SEED_COMMIT_MATCH * max(1.0, abs(ref))):
            return f"value {value!r} differs from the seed commit's {ref!r}"
        if fingerprint != entry["sha256"]:
            return "report is not byte-identical to the seed commit's"
        return None

    return Job(job.id, job.call, job.checks + (matches,), job.argv, job.draws, job.target_se)
