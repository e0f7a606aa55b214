"""Command-line front end: seeded, reproducible experiments with JSON/CSV
reports and a verify command that runs the exact-oracle battery.

Every report embeds the analytic reference it was checked against (value
plus a human-readable formula string), so results are self-describing.
Identical configurations and seeds produce byte-identical output at a fixed
OpenBLAS thread count; Haar averages at d >= 128 and `timeavg` above 10,000
grid points (its final `ddot`) can differ in the last digits across counts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import cliffordgrp as cg
from . import densemat as dm
from . import framepot as fp
from . import limits, otolab, paulialg, scrambling, wg
from .otolab import OtoSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# ensemble construction
# ---------------------------------------------------------------------------

# --ensemble name -> builder(n, seed, depth, t)
ENSEMBLES = {
    "haar": lambda n, seed, depth, t: dm.haar_ensemble(2**n, seed),
    "pauli": lambda n, seed, depth, t: dm.pauli_ensemble(n),
    "pauli-x": lambda n, seed, depth, t: dm.pauli_x_ensemble(n),
    "clifford": lambda n, seed, depth, t: cg.clifford_ensemble(n, seed),
    "trivial": lambda n, seed, depth, t: dm.trivial_ensemble(n),
    "brickwork": lambda n, seed, depth, t: dm.brickwork_ensemble(n, depth, seed),
    "gue-evolution": lambda n, seed, depth, t: dm.gue_evolution_ensemble(2**n, t, seed),
}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


class NonFiniteReport(Exception):
    """A report holds NaN or an infinity: the computation behind it failed."""


def emit(report: dict, fmt: str, path: str | None):
    """Write the report as JSON or CSV. Either way it must be valid JSON, so a
    NaN or infinite value raises NonFiniteReport before anything is written."""
    try:
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteReport(str(exc)) from None
    if fmt != "json":
        rows = report.get("rows") or [report]
        buf = io.StringIO()
        fields = ["estimator", "k", "d", "value", "std_error", "reference",
                  "abs_deviation", "sigmas"]
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({f: _scalarize(row.get(f, "")) for f in fields})
        text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scalarize(v):
    if isinstance(v, complex):
        return v.real if v.imag == 0 else f"{v.real}+{v.imag}j"
    if isinstance(v, Fraction):
        return float(v)
    return v


def _attach_check(report: dict, value, reference, sigma, tol_sigma: float) -> bool:
    """Add deviation bookkeeping; returns pass/fail."""
    if reference is None:
        return True
    dev = abs((complex(value) if isinstance(value, complex) else value) - reference)
    report["abs_deviation"] = dev
    if sigma and sigma > 0:
        report["sigmas"] = dev / sigma
        ok = dev <= tol_sigma * sigma
    else:
        ok = dev <= 1e-9
    report["passed"] = bool(ok)
    return ok


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# each cmd_* returns (report, ok): main emits the report, and exits 1 when not ok

def cmd_framepot(args) -> tuple[dict, bool]:
    ens = ENSEMBLES[args.ensemble](args.n, args.seed, args.depth, args.t)
    d = 2**args.n
    if args.exact:
        est = fp.frame_potential_exact(ens, args.k)
    else:
        est = fp.frame_potential_mc(ens, args.k, args.samples)
    if args.k <= d:
        formula = "k!"
    elif d == 2:
        formula = "(2k)!/(k!(k+1)!) at d=2"
    else:
        formula = "sum of (f^lam)^2 over lam |- k with at most d rows"
    try:
        ref = float(wg.haar_frame_potential_exact(args.k, d))
    except ValueError as exc:
        ref, formula = None, f"none ({exc})"
    report = {
        "estimator": "frame_potential", "ensemble": args.ensemble,
        "k": args.k, "d": d, "n": args.n, "seed": args.seed,
        "method": est.method, "n_samples": est.n_samples,
        "value": est.value, "std_error": est.std_error,
        "haar_reference": ref, "reference": ref, "reference_formula": formula,
    }
    ok = True
    if args.check:
        ok = _attach_check(report, est.value, ref, est.std_error, args.tolerance_sigma)
    return report, ok


def _default_oto_spec(kind: str, n: int, m: int) -> tuple[OtoSpec, Fraction | None, str]:
    x0 = paulialg.single_site(n, 0, "X")
    z0 = paulialg.single_site(n, 0, "Z")
    d = 2**n
    if kind == "oto4":
        spec = OtoSpec((x0, x0), (z0, z0))
        return spec, otolab.predict("haar", "four_point", d, paulis=(x0, z0, x0, z0)), \
            "-1/(d^2-1)"
    if n < 2:
        raise ValueError(f"kind {kind!r} needs n >= 2")
    x1 = paulialg.single_site(n, 1, "X")
    z1 = paulialg.single_site(n, 1, "Z")
    if kind == "oto6":
        e = paulialg.mul(x0, x1).adjoint().representative()
        f = paulialg.mul(z0, z1).adjoint().representative()
        spec = OtoSpec((x0, x1, e), (z0, z1, f))
        return spec, otolab.predict("haar", "six_point_commuting", d), \
            "(d^2+4)/((d^2-1)(d^2-4))"
    if kind == "commutator8":
        spec = OtoSpec((x0, x1), (z0, z1), "commutator")
        return spec, otolab.predict("haar", "eight_point_commutator_commuting", d), \
            "-(d^2+36)/((d^2-1)(d^2-4)(d^2-9))"
    if kind == "noncommutator8":
        spec = OtoSpec((x0, x1), (z0, z1), "non_commutator")
        re, im = otolab.haar_average_oto_spec(spec)
        return spec, re, "exact permutation-average evaluation"
    if kind == "oto4m":
        a_ops = tuple(paulialg.single_site(n, j % n, "X") for j in range(m))
        # keep the product away from the identity
        if paulialg.mul_all(list(a_ops)).is_identity_bits:
            a_ops = a_ops[:-1] + (paulialg.single_site(n, (m - 1) % n, "Y"),)
        b_ops = tuple(paulialg.single_site(n, j % n, "Z") for j in range(m))
        spec = OtoSpec(a_ops, b_ops, "commutator")
        return spec, otolab.predict("haar", "four_m_point", d, m=m), "(-1/(d^2-1))^m"
    raise ValueError(f"unknown oto kind {kind!r}")


def cmd_oto(args) -> tuple[dict, bool]:
    n = args.n
    ens = ENSEMBLES[args.ensemble](n, args.seed, args.depth, args.t)
    spec, prediction, formula = _default_oto_spec(args.kind, n, args.m)
    est = otolab.oto_ensemble_average(ens, spec, mc_samples=args.samples)
    value = complex(est.value)
    pred = None if prediction is None else float(prediction)
    report = {
        "estimator": f"oto_{args.kind}", "ensemble": args.ensemble,
        "k": spec.k, "d": 2**n, "ordering": spec.ordering, "seed": args.seed,
        "method": est.method, "n_samples": est.n_samples,
        "estimate": value, "value": value.real, "std_error": est.std_error,
        "prediction": pred, "reference": pred, "reference_formula": formula,
    }
    ok = True
    if args.check and pred is not None:
        ok = _attach_check(report, value.real, pred, est.std_error, args.tolerance_sigma)
    return report, ok


def cmd_wg(args) -> tuple[dict, bool]:
    mu = tuple(int(x) for x in args.cycle_type.split(","))
    val = wg.weingarten(mu, args.d)
    report = {
        "estimator": "weingarten", "cycle_type": list(mu), "d": args.d,
        "rational": str(val), "value": float(val),
        "reference_formula": "(1/k!) sum_lam (f_lam / s_lam(d)) chi_lam(mu)",
    }
    return report, True


def cmd_bounds(args) -> tuple[dict, bool]:
    rows = []
    rep = fp.bounds_report(args.f, args.k, args.n, choices=args.choices,
                           g=args.g, q=args.q, epsilon=args.epsilon)
    formulas = {
        "cardinality": "d^(2k)/F",
        "entropy_bits": "2kn - log2 F",
        "complexity": "(2kn ln2 - ln F)/ln(choices)",
        "complexity_epsilon": "(2k ln d - k eps^2 - ln F)/ln(choices)",
        "gate_count": "ln|E| / ln(g n^2)",
        "depth": "(2kn ln2 - ln F)/(ln g + ln(n!/(q!)^(n/q)))",
    }
    for name, value in rep.items():
        rows.append({"estimator": f"bound_{name}", "k": args.k, "d": 2**args.n,
                     "value": value, "std_error": 0.0,
                     "reference": formulas[name]})
    if args.tr_h2 is not None and args.time is not None:
        early = fp.early_time_bound(args.tr_h2, args.k, 2**args.n, args.time)
        rows.append({"estimator": "bound_early_time", "k": args.k, "d": 2**args.n,
                     "value": early.value, "std_error": 0.0,
                     "reference": f"2k t^2 trH2/d (validity ratio {early.validity_ratio:.3g}, "
                                  f"valid={early.valid})"})
    report = {"estimator": "bounds", "inputs": {
        "f": args.f, "k": args.k, "n": args.n, "choices": args.choices,
        "g": args.g, "q": args.q, "epsilon": args.epsilon,
        "tr_h2": args.tr_h2, "t": args.time}, "rows": rows}
    return report, True


def _parse_partition(text: str, n: int) -> scrambling.IoPartition:
    """Parse "A=0,1;D=2": the qubits of regions A and D, each named at most
    once; a region left out owns no qubit."""
    parts: dict[str, tuple[int, ...]] = {}
    for item in text.split(";"):
        name, eq, qubits = item.partition("=")
        qubits = [x for x in qubits.split(",") if x != ""]
        if not (eq and name in ("A", "D") and name not in parts
                and all(x.strip().isdecimal() for x in qubits)):
            raise ValueError(f"bad partition item {item!r}: want A=<qubits> or D=<qubits>, "
                             "each at most once")
        parts[name] = tuple(int(x) for x in qubits)
    return scrambling.IoPartition(n, parts.get("A", ()), parts.get("D", ()))


def cmd_scramble(args) -> tuple[dict, bool]:
    if args.unitary in ("haar", "identity"):  # before a d x d array is built
        limits.check_dense(4**args.n, "Choi state side d^2 = ")
    if args.unitary == "haar":
        u = dm.haar_unitary(2**args.n, np.random.default_rng(args.seed))
    elif args.unitary == "identity":
        u = np.eye(2**args.n, dtype=complex)
    else:
        with open(args.unitary) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.unitary} must hold a JSON object with a \"matrix\" key")
        u = dm.matrix_from_json(data.get("matrix"))
    n = u.shape[0].bit_length() - 1
    part = _parse_partition(args.partition, n)
    if args.k == 2:
        lhs, rhs = scrambling.oto_renyi2_check(u, part)
    else:
        lhs, rhs = scrambling.renyi_k_oto(u, part, args.k)
    report = {
        "estimator": "scramble", "k": args.k, "d": 2**n, "seed": args.seed,
        "partition": args.partition,
        "lhs": lhs, "rhs": rhs, "value": lhs, "std_error": 0.0,
        "reference": rhs, "abs_deviation": abs(lhs - rhs),
        "mutual_info_2": scrambling.mutual_info_2(u, part, lhs if args.k == 2 else None),
        "reference_formula": "(d/(d_A d_D))^(k-1) 2^(-(k-1) S_k(AC))",
    }
    ok = abs(lhs - rhs) <= 1e-8
    report["passed"] = bool(ok)
    return report, ok or not args.check


def cmd_timeavg(args) -> tuple[dict, bool]:
    est = fp.time_averaged_frame_potential(args.spectrum, args.k, args.t_max, args.n_grid)
    ref = fp.analytic_time_average(args.k, len(args.spectrum))
    report = {
        "estimator": "time_averaged_frame_potential", "k": args.k,
        "d": len(args.spectrum), "t_max": args.t_max, "n_grid": args.n_grid,
        "value": est.value, "std_error": est.std_error,
        "convergence_diagnostic": est.std_error,
        "reference": ref, "reference_formula": "k! d^k (incommensurate levels)",
    }
    ok = True
    if args.check:
        ok = abs(est.value - ref) / ref <= args.rtol
        report["passed"] = bool(ok)
    return report, ok


def cmd_thermal(args) -> tuple[dict, bool]:
    d = 2**args.n
    ens = dm.Ensemble("gue", d, sampler=lambda rng, size: dm.gue_hamiltonian(d, rng, size),
                      seed=args.seed)
    est = fp.thermal_W(ens, args.beta, args.t, args.k, args.samples)
    report = {
        "estimator": "thermal_frame_potential", "k": args.k, "d": d,
        "beta": args.beta, "t": args.t, "seed": args.seed,
        "value": est.value, "std_error": est.std_error,
        "n_samples": est.n_samples,
        "cardinality_bound": 1.0 / est.value if est.value > 0 else None,
        "reference_formula": "avg |tr e^(-(b/2k-it)G) e^(-(b/2k+it)H)|^(2k) / (Z_G Z_H)",
    }
    return report, True


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------

def _verify_checks(quick: bool):
    """Yield (name, computed, reference, tolerance) rows of the oracle battery."""
    F = Fraction
    # Weingarten closed forms at d=4
    yield ("Wg(1,1) d=4", wg.weingarten((1, 1), 4), F(1, 15), 0)
    yield ("Wg(2) d=2", wg.weingarten((2,), 2), F(-1, 6), 0)
    yield ("Wg(2,1,1) d=4", wg.weingarten((2, 1, 1), 4), F(-1, 420), 0)
    yield ("Wg(2,2) d=4", wg.weingarten((2, 2), 4), F(22, 20160), 0)
    # Q matrix round trip (k=3, d=4)
    q = wg.q_matrix(3, 4)
    qi = wg.q_inverse(3, 4)
    maxerr = 0
    m = len(q)
    for i in range(m):
        for j in range(m):
            s = sum(q[i][l] * qi[l][j] for l in range(m))
            maxerr = max(maxerr, abs(s - (1 if i == j else 0)))
    yield ("Q Q^-1 = I (k=3, d=4)", maxerr, 0, 0)
    # Haar frame potentials
    yield ("F_haar(2, d=4)", wg.haar_frame_potential_exact(2, 4), F(2), 0)
    yield ("F_haar(4, d=2)", wg.haar_frame_potential_exact(4, 2), F(14), 0)
    # design ladder (exact)
    yield ("Pauli F1 (n=1)", fp.frame_potential_exact(dm.pauli_ensemble(1), 1).value, 1.0, 1e-12)
    yield ("Pauli F2 (n=1)", fp.frame_potential_exact(dm.pauli_ensemble(1), 2).value, 4.0, 1e-12)
    cl = cg.clifford_ensemble(1)
    cl_f2 = fp.frame_potential_exact(cl, 2).value
    yield ("Clifford F2 (n=1)", cl_f2, 2.0, 1e-12)
    yield ("Clifford F3 (n=1)", fp.frame_potential_exact(cl, 3).value, 5.0, 1e-12)
    yield ("Clifford F4 (n=1)", fp.frame_potential_exact(cl, 4).value, 15.0, 1e-12)
    # OTO <-> frame potential route
    for ens, k in [(dm.trivial_ensemble(1), 1), (dm.pauli_ensemble(1), 1)]:
        via = fp.frame_potential_via_oto(ens, k).value
        exact = fp.frame_potential_exact(ens, k).value
        yield (f"OTO route == exact ({ens.label}, k={k})", via, exact, 1e-10)
    cl_via2 = fp.frame_potential_via_oto(cl, 2).value
    yield ("OTO route == exact (clifford, k=2)", cl_via2, cl_f2, 1e-10)
    # M tensor orthogonality
    mt = otolab.m_tensor(1, 2)
    dev = np.max(np.abs(mt.conj().T @ mt - 16 * np.eye(16)))
    yield ("M tensor orthogonality (n=1, k=2)", float(dev), 0.0, 1e-12)
    # `oto --kind`'s closed forms against the exact permutation-average oracle
    for kind, name in (("commutator8", "8pt commutator closed form (d=4)"),
                       ("oto6", "6pt closed form (d=4)")):
        spec, closed_form, _ = _default_oto_spec(kind, 2, 2)
        yield (name, otolab.haar_average_oto_spec(spec)[0], closed_form, 0)
    xx = paulialg.from_label("X")
    zz = paulialg.from_label("Z")
    est = otolab.oto_ensemble_average(cl, OtoSpec((xx, xx), (zz, zz)))
    yield ("4pt Clifford exact (d=2)", est.value, -1 / 3, 1e-12)
    est8 = otolab.oto_ensemble_average(cl, OtoSpec((xx, zz), (xx, zz), "group_commutator"))
    yield ("8pt Clifford group-commutator (d=2)", est8.value,
           float(otolab.predict("clifford", "eight_point_group_commutator", 2,
                                paulis=(xx, xx, zz, zz))), 1e-12)
    # scrambling identities on a seeded unitary
    rng = np.random.default_rng(12345)
    u = dm.haar_unitary(4, rng)
    part = scrambling.IoPartition(2, (0,), (1,))
    lhs, rhs = scrambling.oto_renyi2_check(u, part)
    yield ("Renyi-2 identity (n=2)", lhs, rhs, 1e-10)
    yield ("catch game p_I", scrambling.catch_game(
        u, {paulialg.identity(2): 0.7, paulialg.single_site(2, 0, "X"): 0.3}), 0.7, 1e-10)
    # degenerate-spectrum time average
    yield ("time average, degenerate spectrum", fp.time_averaged_frame_potential(
        [0.0] * 4, 2, 100.0, 1024).value, 256.0, 1e-9)
    if not quick:
        lhs3, rhs3 = scrambling.renyi_k_oto(u, part, 3)
        yield ("Renyi-3 identity (n=2)", lhs3, rhs3, 1e-8)
        yield ("Clifford F2 via OTO route (n=1)", cl_via2, cl_f2, 1e-10)
        est_mc = fp.frame_potential_mc(dm.haar_ensemble(2, seed=7), 1, 4000)
        yield ("Haar MC F1 (d=2, 5 sigma)", est_mc.value, 1.0, 5 * est_mc.std_error)
        ens4 = dm.haar_ensemble(4, seed=8)
        est_oto = otolab.oto_ensemble_average(ens4, _default_oto_spec("oto4", 2, 2)[0],
                                              mc_samples=4000)
        yield ("Haar MC 4pt (d=4, 5 sigma)", est_oto.value.real, -1 / 15,
               5 * est_oto.std_error)


def cmd_verify(args) -> tuple[dict, bool]:
    rows = []
    all_ok = True
    for name, computed, reference, tol in _verify_checks(args.suite == "quick"):
        if isinstance(computed, Fraction) and isinstance(reference, Fraction):
            dev = abs(computed - reference)
            ok = dev == 0 if tol == 0 else dev <= tol
            dev = float(dev)
        else:
            dev = abs(float(computed) - float(reference)) if not isinstance(computed, complex) \
                else abs(complex(computed) - complex(reference))
            ok = dev <= (tol if tol else 1e-15)
        all_ok &= ok
        rows.append({"estimator": name, "value": _scalarize(computed) if not isinstance(computed, Fraction) else str(computed),
                     "reference": _scalarize(reference) if not isinstance(reference, Fraction) else str(reference),
                     "abs_deviation": dev, "std_error": tol, "passed": bool(ok)})
    # always print a human-readable table to stderr for convenience
    width = max(len(r["estimator"]) for r in rows)
    for r in rows:
        mark = "pass" if r["passed"] else "FAIL"
        print(f"{r['estimator']:<{width}}  {mark}  |dev| = {r['abs_deviation']:.3e}",
              file=sys.stderr)
    print(f"verify: {sum(r['passed'] for r in rows)}/{len(rows)} identities hold",
          file=sys.stderr)
    return {"estimator": "verify", "suite": args.suite, "rows": rows,
            "passed": bool(all_ok)}, all_ok


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """type= of every float option and of each --spectrum entry: a NaN or an
    infinity is a configuration error, before any formula or report sees it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _spectrum(text: str) -> list[float]:
    return [_finite_float(x) for x in text.split(",")]


def _add_output(sp):
    sp.add_argument("--output", default=None, help="write the report to a file")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _add_check(sp):
    sp.add_argument("--check", action="store_true",
                    help="exit 1 if the estimate misses its reference")


def _add_monte_carlo(sp):
    """The sample, seed, check and output options that framepot and oto share."""
    sp.add_argument("--samples", type=int, default=10_000,
                    help="Monte-Carlo draws (pairs for framepot)")
    sp.add_argument("--depth", type=int, default=4, help="brickwork depth")
    sp.add_argument("--t", type=_finite_float, default=1.0, help="evolution time")
    sp.add_argument("--seed", type=int, default=None)
    _add_check(sp)
    sp.add_argument("--tolerance-sigma", type=_finite_float, default=5.0)
    _add_output(sp)


class _Parser(argparse.ArgumentParser):
    """A bad command line, such as an option its subcommand does not take,
    is a configuration error like any other: one `error:` line, exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="designlab",
                description="pseudorandomness diagnostics for ensembles of unitaries")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("framepot", help="frame potential of an ensemble")
    sp.add_argument("--ensemble", choices=ENSEMBLES, required=True)
    sp.add_argument("--n", type=int, required=True, help="qubit count")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--exact", action="store_true")
    _add_monte_carlo(sp)
    sp.set_defaults(func=cmd_framepot)

    sp = sub.add_parser("oto", help="ensemble-averaged OTO correlators")
    sp.add_argument("--ensemble", choices=ENSEMBLES, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kind", choices=("oto4", "oto6", "commutator8",
                                       "noncommutator8", "oto4m"), default="oto4")
    sp.add_argument("--m", type=int, default=2, help="pair count for oto4m")
    _add_monte_carlo(sp)
    sp.set_defaults(func=cmd_oto)

    sp = sub.add_parser("wg", help="exact Weingarten values")
    sp.add_argument("--cycle-type", required=True, help="e.g. 2,1,1")
    sp.add_argument("--d", type=int, required=True)
    _add_output(sp)
    sp.set_defaults(func=cmd_wg)

    sp = sub.add_parser("bounds", help="complexity/cardinality/entropy bounds")
    sp.add_argument("--f", type=_finite_float, required=True, help="frame potential")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--choices", type=_finite_float, default=None)
    sp.add_argument("--g", type=int, default=None, help="gate-set size")
    sp.add_argument("--q", type=int, default=None, help="gate locality")
    sp.add_argument("--epsilon", type=_finite_float, default=None)
    sp.add_argument("--tr-h2", type=_finite_float, default=None, dest="tr_h2")
    sp.add_argument("--time", type=_finite_float, default=None)
    _add_output(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("scramble", help="Renyi-OTO identities and mutual information")
    sp.add_argument("--unitary", default="haar",
                    help="'haar', 'identity', or a JSON file with a matrix")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--partition", default="A=0;D=1")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    _add_check(sp)
    _add_output(sp)
    sp.set_defaults(func=cmd_scramble)

    sp = sub.add_parser("timeavg", help="double time average of the frame potential")
    sp.add_argument("--spectrum", type=_spectrum, required=True,
                    help="comma-separated energies")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--t-max", type=_finite_float, default=2000.0, dest="t_max")
    sp.add_argument("--n-grid", type=int, default=200_000, dest="n_grid")
    sp.add_argument("--rtol", type=_finite_float, default=0.05)
    _add_check(sp)
    _add_output(sp)
    sp.set_defaults(func=cmd_timeavg)

    sp = sub.add_parser("thermal", help="thermal frame potential over GUE draws")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--beta", type=_finite_float, default=0.0)
    sp.add_argument("--t", type=_finite_float, default=0.0)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    _add_output(sp)
    sp.set_defaults(func=cmd_thermal)

    sp = sub.add_parser("verify", help="run the exact-oracle identity battery")
    sp.add_argument("--suite", choices=("quick", "full"), default="full")
    _add_output(sp)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every qubit count, whatever the subcommand, before 2**n is taken
        if getattr(args, "n", 1) < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        # numpy overflow raises here rather than warn and carry an infinity on
        with np.errstate(over="raise"):
            report, ok = args.func(args)
            emit(report, args.format, args.output)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except SystemExit:  # --help, after printing the help text
        return EXIT_OK
    except (NonFiniteReport, scrambling.IdentityViolated, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        failed = isinstance(exc, (NonFiniteReport, scrambling.IdentityViolated))
        return EXIT_CHECK_FAILED if failed else EXIT_CONFIG
    except (OverflowError, FloatingPointError) as exc:
        # a result beyond the float range failed like a NaN report does
        print(f"error: result out of float range: {exc.args[-1]}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
