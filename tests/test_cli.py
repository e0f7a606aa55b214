"""CLI tests: reports, determinism, exit codes, the verify battery."""

import argparse
import ast
import hashlib
import inspect
import json
import math
import textwrap
import time
import tracemalloc

import pytest

from designlab import cli
from designlab.estimate import Estimate


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_config_error(capsys, *argv):
    """The command exits 2 with one `error:` line and writes no report."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestWgCommand:
    def test_rational_output(self, capsys):
        code, out = run(capsys, "wg", "--cycle-type", "2", "--d", "2")
        assert code == 0
        report = json.loads(out)
        assert report["rational"] == "-1/6"

    def test_s4_value(self, capsys):
        code, out = run(capsys, "wg", "--cycle-type", "2,1,1", "--d", "4")
        assert json.loads(out)["rational"] == "-1/420"

    def test_beyond_dimension(self, capsys):
        code, out = run(capsys, "wg", "--cycle-type", "2,1", "--d", "2")
        assert code == 0
        assert json.loads(out)["rational"] == "1/144"

    def test_zero_dimension_is_a_config_error(self, capsys):
        assert_config_error(capsys, "wg", "--cycle-type", "1", "--d", "0")


class TestFramepotCommand:
    def test_exact_clifford(self, capsys):
        code, out = run(capsys, "framepot", "--ensemble", "clifford", "--n", "1",
                        "--k", "3", "--exact", "--check")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(5.0, abs=1e-12)
        assert report["method"] == "exact"
        assert report["haar_reference"] == 5.0
        assert report["passed"] is True

    def test_mc_haar_check_passes(self, capsys):
        code, out = run(capsys, "framepot", "--ensemble", "haar", "--n", "2",
                        "--k", "2", "--samples", "4000", "--seed", "1", "--check")
        assert code == 0
        report = json.loads(out)
        assert report["reference_formula"] == "k!"
        assert abs(report["value"] - 2.0) <= 5 * report["std_error"]

    def test_check_failure_exit_code(self, capsys):
        # a trivial ensemble is far from Haar: --check must exit 1
        code, out = run(capsys, "framepot", "--ensemble", "trivial", "--n", "1",
                        "--k", "1", "--exact", "--check")
        assert code == 1
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("n,k,reference,formula", [
        (1, 4, 14.0, "(2k)!/(k!(k+1)!) at d=2"),
        (2, 5, 119.0, "sum of (f^lam)^2 over lam |- k with at most d rows"),
        (2, 13, None, "none (partition guard exceeded: k=13 > 12 at d=4 > 2)"),
    ])
    def test_haar_reference_beyond_dimension(self, capsys, n, k, reference, formula):
        code, out = run(capsys, "framepot", "--ensemble", "trivial", "--n", str(n),
                        "--k", str(k), "--exact")
        assert code == 0
        report = json.loads(out)
        assert report["reference"] == reference
        assert report["reference_formula"] == formula

    def test_zero_depth_is_a_config_error(self, capsys):
        err = assert_config_error(capsys, "framepot", "--ensemble", "brickwork", "--n", "2",
                                  "--depth", "0", "--k", "1", "--samples", "20", "--seed", "1")
        assert "depth >= 1" in err

    @pytest.mark.parametrize("seed", [(), ("--seed", "3")])
    def test_discrete_without_exact_prints_the_exact_report(self, capsys, seed):
        argv = ("framepot", "--ensemble", "pauli", "--n", "1", "--k", "2", *seed)
        code, out = run(capsys, *argv)
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--exact")

    def test_exact_needs_a_discrete_ensemble(self, capsys):
        err = assert_config_error(capsys, "framepot", "--ensemble", "haar", "--n", "1",
                                  "--k", "1", "--exact")
        assert "discrete ensemble" in err

    @pytest.mark.parametrize("n", ["9", "20"])
    def test_clifford_beyond_the_enumeration_guard(self, capsys, n):
        # n=9 is past paulialg.MAX_ENUM_QUBITS, which no pair trace may need
        code, out = run(capsys, "framepot", "--ensemble", "clifford", "--n", n,
                        "--k", "1", "--samples", "100", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert abs(report["value"] - 1.0) <= 5 * report["std_error"]

    def test_clifford_n5_runs_fast(self, capsys):
        # best of three runs, so a busy host does not fail the bound
        argv = ("framepot", "--ensemble", "clifford", "--n", "5", "--k", "1",
                "--samples", "100", "--seed", "1")
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            code, _ = run(capsys, *argv)
            best = min(best, time.perf_counter() - start)
            assert code == 0
        assert best < 0.5

    @pytest.mark.parametrize("argv", ["framepot --ensemble pauli --n 6 --k 1",
                                      "framepot --ensemble pauli-x --n 12 --k 1"])
    def test_exact_pair_sum_past_the_budget(self, capsys, argv):
        # 4096^2 pairs: these ran for a minute or more before the pair budget
        start = time.perf_counter()
        err = assert_config_error(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert err == "error: enumeration guard exceeded: 4096^2 pairs > 65536\n"

    @pytest.mark.parametrize("ensemble,n,value", [("pauli", 4, 1.0), ("pauli-x", 8, 256.0)])
    def test_largest_exact_pair_sum_in_the_budget(self, capsys, ensemble, n, value):
        # 65536 pairs each, MAX_EXACT_PAIRS: a 1-design's F^(1) is 1, and the
        # bit-flip strings give d^2 / 2^n = 2^n
        code, out = run(capsys, "framepot", "--ensemble", ensemble, "--n", str(n), "--k", "1")
        assert code == 0
        report = json.loads(out)
        assert (report["value"], report["method"]) == (value, "exact")

    def test_reports_are_byte_identical(self, capsys):
        argv = ("framepot", "--ensemble", "haar", "--n", "1", "--k", "1",
                "--samples", "500", "--seed", "42")
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2


class TestOtoCommand:
    def test_clifford_exact_oto4(self, capsys):
        code, out = run(capsys, "oto", "--ensemble", "clifford", "--n", "1",
                        "--kind", "oto4", "--check")
        assert code == 0
        report = json.loads(out)
        assert report["estimate"][0] == pytest.approx(-1 / 3, abs=1e-12)
        assert report["prediction"] == pytest.approx(-1 / 3)

    def test_haar_mc_oto4(self, capsys):
        code, out = run(capsys, "oto", "--ensemble", "haar", "--n", "2",
                        "--kind", "oto4", "--samples", "4000", "--seed", "7",
                        "--check")
        assert code == 0
        report = json.loads(out)
        assert abs(report["value"] - report["prediction"]) <= 5 * report["std_error"]

    def test_one_sample_is_a_config_error(self, capsys):
        err = assert_config_error(capsys, "oto", "--ensemble", "haar", "--n", "1",
                                  "--samples", "1", "--seed", "1")
        assert "mc_samples >= 2" in err

    def test_clifford_draws_are_evaluated_exactly(self, capsys):
        # the dense route printed -0.10999999999999986 for these draws
        code, out = run(capsys, "oto", "--ensemble", "clifford", "--n", "2",
                        "--samples", "200", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "monte-carlo"
        assert abs(report["value"] - -0.10999999999999986) <= 1e-12

    def test_clifford_draws_beyond_the_dense_guard(self, capsys):
        # n=6 is past cliffordgrp's n <= 5 dense-unitary guard
        code, out = run(capsys, "oto", "--ensemble", "clifford", "--n", "6",
                        "--samples", "20", "--seed", "1")
        assert code == 0
        assert json.loads(out)["n_samples"] == 20

    def test_commutator8_needs_two_qubits(self, capsys):
        code, _ = run(capsys, "oto", "--ensemble", "haar", "--n", "1",
                      "--kind", "commutator8")
        assert code == 2


class TestBoundsCommand:
    def test_bounds_rows(self, capsys):
        code, out = run(capsys, "bounds", "--f", "2", "--k", "2", "--n", "10",
                        "--choices", "180", "--g", "11", "--q", "2",
                        "--epsilon", "0.5", "--tr-h2", "100", "--time", "0.01")
        assert code == 0
        report = json.loads(out)
        names = {r["estimator"] for r in report["rows"]}
        assert {"bound_cardinality", "bound_entropy_bits", "bound_complexity",
                "bound_complexity_epsilon", "bound_gate_count", "bound_depth",
                "bound_early_time"} == names
        card = next(r for r in report["rows"] if r["estimator"] == "bound_cardinality")
        assert card["value"] == pytest.approx(4**20 / 2)

    def test_csv_format(self, capsys):
        code, out = run(capsys, "bounds", "--f", "2", "--k", "2", "--n", "4",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("estimator,")
        assert len(lines) == 3  # header + cardinality + entropy


class TestScrambleCommand:
    def test_identity_unitary(self, capsys):
        code, out = run(capsys, "scramble", "--unitary", "identity", "--n", "2",
                        "--partition", "A=0;D=1", "--k", "2", "--check")
        assert code == 0
        report = json.loads(out)
        assert report["lhs"] == pytest.approx(1.0, abs=1e-10)
        assert report["mutual_info_2"] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_k_below_two_is_a_config_error(self, capsys, k):
        err = assert_config_error(capsys, "scramble", "--n", "2", "--k", k)
        assert "k >= 2" in err

    def test_tuple_budget_is_a_config_error(self, capsys):
        # (d_A^2 d_D^2)^(k-1) = 16^6 tuples at n=2, k=7: past the budget
        err = assert_config_error(capsys, "scramble", "--n", "2", "--k", "7", "--seed", "1")
        assert "Pauli tuple budget" in err

    def test_default_seed_is_reproducible(self, capsys):
        # without --seed the Haar unitary used to come from OS entropy
        code, out = run(capsys, "scramble", "--n", "2")
        assert code == 0 and json.loads(out)["seed"] == 0
        assert run(capsys, "scramble", "--n", "2") == (code, out)
        assert run(capsys, "scramble", "--n", "2", "--seed", "0") == (code, out)

    def test_haar_unitary_identity_holds(self, capsys):
        code, out = run(capsys, "scramble", "--unitary", "haar", "--n", "2",
                        "--partition", "A=0;D=1", "--k", "2", "--seed", "5",
                        "--check")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_renyi2_pauli_sum_runs_once(self, capsys, monkeypatch, k):
        # the sum lives in _renyi2_lhs, which oto_renyi2_check and
        # mutual_info_2 both call
        real, calls = cli.scrambling._renyi2_lhs, []
        monkeypatch.setattr(cli.scrambling, "_renyi2_lhs",
                            lambda u, part: calls.append(1) or real(u, part))
        code, out = run(capsys, "scramble", "--unitary", "haar", "--n", "3", "--k", k,
                        "--partition", "A=0;D=2", "--seed", "5", "--check")
        assert code == 0 and json.loads(out)["passed"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", ["--unitary identity --n 16", "--n 11 --seed 1",
                                      "--unitary identity --n 11"])
    def test_size_is_checked_before_the_unitary(self, capsys, monkeypatch, argv):
        # these used to build (at n = 16, try to build 64 GiB) and check a
        # d x d unitary before the Choi state's guard
        def check_unitary(u):
            raise AssertionError("the unitary was checked before the dense guard")
        monkeypatch.setattr(cli.scrambling, "check_unitary", check_unitary)
        tracemalloc.start()
        try:
            err = assert_config_error(capsys, "scramble", *argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "dense guard exceeded: Choi state side d^2 = " in err
        assert peak < 2**20

    def test_missed_renyi2_identity_is_a_failed_check(self, capsys, monkeypatch, tmp_path):
        # the Pauli-averaged correlator is off by 1%, as a near-unitary input can make it
        real = cli.scrambling.oto_renyi2_check
        monkeypatch.setattr(cli.scrambling, "oto_renyi2_check",
                            lambda u, part: (1.01 * real(u, part)[0], real(u, part)[1]))
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"matrix": [[[1.0, 0.0] if i == j else [0.0, 0.0]
                                                for j in range(4)] for i in range(4)]}))
        code = cli.main(["scramble", "--unitary", str(path), "--partition", "A=0;D=1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert captured.out == ""
        assert captured.err.startswith("error: Renyi-2 identity violated")
        assert captured.err.count("\n") == 1


class TestTimeavgCommand:
    def test_degenerate(self, capsys):
        # trivial evolution: the average equals d^(2k), not the
        # incommensurate-levels reference, so no --check here
        code, out = run(capsys, "timeavg", "--spectrum", "0,0,0,0", "--k", "2",
                        "--t-max", "50", "--n-grid", "1024")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(256.0)

    def test_converged_diagnostic_is_zero(self, capsys):
        # a degenerate spectrum converges exactly: 0.0, not a 5e-324 marker
        code, out = run(capsys, "timeavg", "--spectrum", "0,0,0,0", "--k", "2",
                        "--n-grid", "1024")
        assert code == 0
        report = json.loads(out)
        assert report["std_error"] == report["convergence_diagnostic"] == 0.0

    def test_incommensurate_check_passes(self, capsys):
        code, out = run(capsys, "timeavg", "--spectrum", "0,1,1.4142135,3.14159",
                        "--k", "1", "--t-max", "2000", "--n-grid", "200000",
                        "--check")
        assert code == 0
        report = json.loads(out)
        assert report["reference"] == 4
        assert abs(report["value"] - 4.0) / 4.0 <= 0.05


class TestThermalCommand:
    def test_runs_and_reports(self, capsys):
        code, out = run(capsys, "thermal", "--n", "1", "--beta", "4.0",
                        "--t", "0.0", "--k", "1", "--samples", "500", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["value"] < 1.0
        assert report["cardinality_bound"] > 1.0

    def test_default_seed_is_reported(self, capsys):
        argv = ("thermal", "--n", "1", "--t", "1", "--samples", "10")
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["seed"] == 0
        assert (code, out) == run(capsys, *argv, "--seed", "0")

    def test_one_sample_is_a_config_error(self, capsys):
        err = assert_config_error(capsys, "thermal", "--n", "1", "--samples", "1")
        assert "mc_samples >= 2" in err

    def test_huge_beta_reports_finite_json(self, capsys):
        # beta = 1000 overflows exp() unless each spectrum is shifted to its minimum
        code, out = run(capsys, "thermal", "--n", "1", "--beta", "1000",
                        "--samples", "200", "--seed", "3")
        assert code == 0
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in report"))
        assert abs(report["value"] - 1 / 3) <= 5 * report["std_error"]


class TestNonFiniteReports:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_emit_refuses_before_writing(self, capsys, fmt, bad):
        with pytest.raises(cli.NonFiniteReport):
            cli.emit({"estimator": "x", "value": bad, "std_error": 0.1}, fmt, None)
        assert capsys.readouterr().out == ""

    def test_nan_estimate_exits_1_without_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.fp, "thermal_W",
                            lambda *a, **kw: Estimate(math.nan, math.nan, 10))
        code = cli.main(["thermal", "--n", "1", "--samples", "10", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("framepot", "--ensemble", "clifford", "--n", "1", "--k", "600", "--exact"),
        ("framepot", "--ensemble", "haar", "--n", "1", "--k", "600", "--samples", "10",
         "--seed", "1"),
        # overflows in the worker threads of the tau grid
        ("timeavg", "--spectrum", "1,2", "--k", "2000", "--n-grid", "64"),
    ])
    def test_float_overflow_exits_1_without_report(self, capsys, argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert captured.out == ""
        assert captured.err.startswith("error: result out of float range")
        assert captured.err.count("\n") == 1


class TestEdgeInputs:
    @pytest.mark.parametrize("argv", [
        # past DENSE_GUARD: each used to fail allocating gigabytes
        "framepot --ensemble haar --n 14 --k 1 --samples 10 --seed 1",
        "framepot --ensemble brickwork --n 14 --k 1 --samples 10 --seed 1",
        "oto --ensemble gue-evolution --n 13 --samples 10 --seed 1",
        "scramble --n 7 --seed 1",
        # past the largest Pauli table's 4^8 elements, which used to build 2^n Paulis
        "framepot --ensemble pauli-x --n 17 --k 1",
        "oto --ensemble pauli-x --n 22",
        # past the exact pair budget and the Pauli tuple budget
        "framepot --ensemble pauli --n 6 --k 1",
        "scramble --n 2 --k 7 --seed 1",
        # a k, time window or choice count that a formula divides by
        "thermal --k 0",
        "thermal --k -1",
        "framepot --ensemble haar --n 1 --k -1 --samples 10 --seed 1",
        "bounds --f 2 --k 0 --n 2",
        "bounds --f 2 --k -1 --n 2",
        "timeavg --spectrum 1,2 --k 0",
        "timeavg --spectrum 1,2 --t-max 0",
        # a grid past DENSE_GUARD^2 points, which used to fail allocating its arrays
        "timeavg --spectrum 1,2 --n-grid 1000000000000",
        "bounds --f 1 --k 1 --n 1 --g 1",
        "bounds --f 2 --k 1 --n 2 --g 1 --q 2",
        "bounds --f 2 --k 1 --n 2 --choices 1",
        "bounds --f 2 --k 1 --n 2 --choices 0.5",
        "bounds --f 2 --k 1 --n 2 --g 2 --q 0",
        # a cycle-type part below 1, which used to give Wg = 0
        "wg --cycle-type 3,0 --d 4",
        "wg --cycle-type 2,-1 --d 4",
        # a qubit count below 1, which 2**n used to turn into a float or a bad shift
        "framepot --ensemble pauli --n -1 --k 1 --exact",
        "framepot --ensemble trivial --n -2 --k 1 --exact",
        "oto --ensemble clifford --n 0",
        "oto --ensemble haar --n -1 --samples 10 --seed 1",
        "thermal --n 0 --beta 0 --t 1 --k 1 --samples 10 --seed 1",
        "thermal --n -1",
        "bounds --f 2 --k 2 --n 0",
        "bounds --f 2 --k 2 --n -3",
        "scramble --n 0",
        "scramble --n -1",
        # past MAX_MC_SAMPLES, which used to run until memory was gone
        "framepot --ensemble haar --n 1 --k 1 --samples 10000001 --seed 1",
        "oto --ensemble haar --n 1 --samples 10000001 --seed 1",
        "thermal --n 1 --beta 0 --t 1 --k 1 --samples 10000001 --seed 1",
        # past 4096 brickwork gates, which used to hold every layer and a
        # chunk's gate stack however deep, and run out of memory
        "framepot --ensemble brickwork --n 2 --depth 100000000 --k 1 --samples 2 --seed 1",
        "framepot --ensemble brickwork --n 3 --depth 20000 --k 1 --samples 2 --seed 1",
        "oto --ensemble brickwork --n 2 --depth 100000000 --samples 2 --seed 1",
        "oto --ensemble brickwork --n 3 --depth 4097 --samples 2 --seed 1",
        # an option the subcommand does not read, which used to be accepted and ignored
        "wg --cycle-type 2 --d 4 --seed 1",
        "wg --cycle-type 2 --d 4 --check",
        "wg --cycle-type 2 --d 4 --tolerance-sigma 0.001",
        "bounds --f 2 --k 1 --n 2 --seed 1",
        "bounds --f 2 --k 1 --n 2 --check",
        "bounds --f 2 --k 1 --n 2 --tolerance-sigma 3",
        "verify --suite quick --seed 3",
        "verify --suite quick --check",
        "verify --suite quick --tolerance-sigma 3",
        "thermal --n 1 --check",
        "thermal --n 1 --tolerance-sigma 3",
        "timeavg --spectrum 1,2 --seed 1",
        "timeavg --spectrum 1,2 --tolerance-sigma 3",
        "scramble --n 2 --tolerance-sigma 3",
        # a NaN or an infinity in a float option, which used to warn and then
        # fail writing a report JSON cannot hold, or pass a check it cannot fail
        "timeavg --spectrum nan,1 --k 1",
        "timeavg --spectrum 1,-inf --k 1",
        "timeavg --spectrum 1,2 --t-max inf",
        "timeavg --spectrum 1,2 --rtol nan --check",
        "bounds --f nan --k 1 --n 2",
        "bounds --f 2 --k 1 --n 2 --choices nan",
        "bounds --f 2 --k 1 --n 2 --epsilon nan",
        "bounds --f 2 --k 1 --n 2 --tr-h2 inf --time 1",
        "bounds --f 2 --k 1 --n 2 --tr-h2 1 --time nan",
        "thermal --beta nan --n 1 --t 1 --k 1 --samples 10 --seed 1",
        "thermal --beta 0 --n 1 --t -inf --k 1 --samples 10 --seed 1",
        "framepot --ensemble gue-evolution --n 1 --k 1 --samples 4 --seed 1 --t inf",
        "framepot --ensemble haar --n 1 --k 1 --samples 4 --seed 1 --check --tolerance-sigma nan",
        "oto --ensemble haar --n 1 --samples 4 --seed 1 --check --tolerance-sigma inf",
    ])
    def test_is_a_config_error(self, capsys, argv):
        err = assert_config_error(capsys, *argv.split())
        if argv in self.GUARD_LINES:
            assert err == f"error: {self.GUARD_LINES[argv]}\n"

    # the whole line of each guard and budget row above
    GUARD_LINES = {
        "framepot --ensemble haar --n 14 --k 1 --samples 10 --seed 1":
            "dense guard exceeded: d=16384 > 4096",
        "framepot --ensemble brickwork --n 14 --k 1 --samples 10 --seed 1":
            "dense guard exceeded: d=16384 > 4096",
        "oto --ensemble gue-evolution --n 13 --samples 10 --seed 1":
            "dense guard exceeded: d=8192 > 4096",
        "scramble --n 7 --seed 1": "dense guard exceeded: Choi state side d^2 = 16384 > 4096",
        "framepot --ensemble pauli-x --n 17 --k 1":
            "enumeration guard exceeded: 2^17 elements > 4^8",
        "oto --ensemble pauli-x --n 22": "enumeration guard exceeded: 2^22 elements > 4^8",
        "framepot --ensemble pauli --n 6 --k 1": "enumeration guard exceeded: 4096^2 pairs > 65536",
        "scramble --n 2 --k 7 --seed 1":
            "Pauli tuple budget exceeded: (d_A^2 d_D^2)^(k-1) = 16777216 > 65536",
        "timeavg --spectrum 1,2 --n-grid 1000000000000":
            "n_grid must be at most DENSE_GUARD^2 = 16777216, got n_grid=1000000000000",
        **dict.fromkeys([
            "framepot --ensemble haar --n 1 --k 1 --samples 10000001 --seed 1",
            "oto --ensemble haar --n 1 --samples 10000001 --seed 1",
            "thermal --n 1 --beta 0 --t 1 --k 1 --samples 10000001 --seed 1"],
            "Monte-Carlo estimates need mc_samples >= 2 and <= 10000000, got 10000001"),
        "framepot --ensemble brickwork --n 2 --depth 100000000 --k 1 --samples 2 --seed 1":
            "brickwork of depth 100000000 on 2 qubits has 50000000 gates; "
            "a chunk holds at most 4096",
        "framepot --ensemble brickwork --n 3 --depth 20000 --k 1 --samples 2 --seed 1":
            "brickwork of depth 20000 on 3 qubits has 20000 gates; a chunk holds at most 4096",
        "oto --ensemble brickwork --n 2 --depth 100000000 --samples 2 --seed 1":
            "brickwork of depth 100000000 on 2 qubits has 50000000 gates; "
            "a chunk holds at most 4096",
        "oto --ensemble brickwork --n 3 --depth 4097 --samples 2 --seed 1":
            "brickwork of depth 4097 on 3 qubits has 4097 gates; a chunk holds at most 4096",
    }

    @pytest.mark.parametrize("argv", [
        "framepot --ensemble pauli --n 0 --k 1 --exact",
        "oto --ensemble clifford --n -1",
        "thermal --n 0 --beta 0 --t 1 --k 1 --samples 10 --seed 1",
        "bounds --f 2 --k 2 --n -3",
        "scramble --n 0",
    ])
    def test_qubit_count_has_one_message(self, capsys, argv):
        n = argv.split()[argv.split().index("--n") + 1]
        err = assert_config_error(capsys, *argv.split())
        assert err == f"error: --n must be at least 1, got {n}\n"

    # a partition item that used to be overwritten, dropped or misreported
    @pytest.mark.parametrize("partition,item", [
        ("A=0;A=1;Q=3", "'A=1'"), ("A=0;Q=1", "'Q=1'"), ("A0", "'A0'"), ("D=1;A=x", "'A=x'"),
    ])
    def test_bad_partition_item_is_named(self, capsys, partition, item):
        err = assert_config_error(capsys, "scramble", "--n", "2", "--partition", partition)
        assert f"bad partition item {item}" in err

    @pytest.mark.parametrize("content", [
        {"matrix": [[1, 0], [0, 1]]},                       # entries are not [re, im] pairs
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],               # a list, not an object
        {"matrix": [[[1, 0], [0, 0]], [[0, 0]]]},           # ragged rows
        {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, "0"]]]},  # a part that is not a number
        {"unitary": []},                                    # no matrix
    ])
    def test_malformed_unitary_file(self, capsys, tmp_path, content):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(content))
        assert_config_error(capsys, "scramble", "--unitary", str(path), "--n", "1",
                            "--partition", "A=0;D=0")


def _reads_of_args(fn) -> set[str]:
    """The attributes that fn's source reads off `args`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


SUBPARSERS = next(action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_every_option_is_read(command):
    # an option that neither the subcommand's cmd_* nor main reads would be
    # accepted and then ignored
    sp = SUBPARSERS[command]
    declared = {action.dest for action in sp._actions} - {"help"}
    read = _reads_of_args(sp.get_default("func")) | _reads_of_args(cli.main)
    assert sorted(declared - read) == []


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "quick")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(r["passed"] for r in report["rows"])

    def test_bad_config_exit_code(self, capsys):
        assert cli.main(["framepot", "--ensemble", "nope", "--n", "1", "--k", "1"]) == 2

    @pytest.mark.parametrize("suite", ["quick", "full"])
    def test_clifford_values_are_computed_once(self, capsys, monkeypatch, suite):
        calls = []
        for name in ("frame_potential_exact", "frame_potential_via_oto"):
            def counted(ens, k, real=getattr(cli.fp, name), name=name):
                calls.append((name, ens.label, k))
                return real(ens, k)
            monkeypatch.setattr(cli.fp, name, counted)
        code, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        clifford = [c for c in calls if c[1] == "clifford"]
        assert sorted(clifford) == [("frame_potential_exact", "clifford", 2),
                                    ("frame_potential_exact", "clifford", 3),
                                    ("frame_potential_exact", "clifford", 4),
                                    ("frame_potential_via_oto", "clifford", 2)]


# 64 levels j + u_j, u_j in [0, 1/2): spacings of at least 1/2, no rational relations
LEVELS_64 = ",".join(repr(j + 0.5 * (j * math.sqrt(2) % 1)) for j in range(64))


class TestGoldenReports:
    """sha256 of report bytes recorded at earlier commits: the first six
    before the ensemble averages were merged into Ensemble.average, the next
    two before Clifford pair traces moved to the GF(2) kernel, the next three
    before brickwork circuits were assembled as stacks, the next eight before
    Pauli products and Clifford conjugations moved to packed ints, the next
    two before the tau grid of timeavg was spread over threads, the next two
    before thermal_W averaged through Ensemble.average (the second crosses a
    64-draw chunk boundary), the last two before brickwork layers were built
    as the kron of their gates (n = 6: pooled d = 64 sub-stacks, the
    benchmark's size). Every seeded report stays byte-identical."""

    @pytest.mark.parametrize("argv,sha256", [
        ("framepot --ensemble haar --n 2 --k 2 --samples 2000 --seed 1",
         "f8c27f8e8a1634955acf575bdf96c7882e96c573c97c48d87430c74f401593a3"),
        ("framepot --ensemble clifford --n 3 --k 2 --samples 200 --seed 2",
         "04ad4fa31b0fc6008d383ada72946222ac0a690346a419c788a81d2bb923e92f"),
        ("framepot --ensemble clifford --n 1 --k 3 --exact",
         "6620a68edcf80690b21c06e21067caf1a11de59e3ec7c5ee78b04cfea0cb6e09"),
        ("oto --ensemble haar --n 2 --kind commutator8 --samples 500 --seed 7",
         "65f73af96d4d22b37f2609d70a961002d52ba3cd73e9641f32a8513a1af9023a"),
        ("oto --ensemble pauli --n 2 --kind oto4",
         "e4e0515e6898d80f03d6e275d4cef0d18df1a4d468335e2f32d53660c4f81fdb"),
        ("thermal --n 1 --beta 4 --t 0 --k 1 --samples 500 --seed 3",
         "80bfcafa20ec812cb050f4874ee26fd91bb7c3b53d573ef183673e3ec78c87da"),
        ("framepot --ensemble clifford --n 5 --k 1 --samples 20 --seed 11",
         "a66ca73206ae44b8516c826f866a116ae52b67653b2d012a2eb01e7b213a73ff"),
        ("verify --suite full",
         "9ae47be034ce59186abb22c6ce458154c0bfbcfe0e72eb5697f107009c34ad63"),
        ("framepot --ensemble brickwork --n 5 --depth 4 --k 2 --samples 200 --seed 2",
         "2e6cbadc94d9535ac37d40efc0c4dbc6ff25a9fedc288c742100bc2442ef6db3"),
        ("framepot --ensemble brickwork --n 2 --depth 3 --k 2 --samples 100 --seed 5",
         "4c0615d0ef8df9f0eba5ecf502b335df16f002ce6236c24bead5464518c16bf8"),
        ("oto --ensemble brickwork --n 3 --depth 3 --kind oto4 --samples 500 --seed 4",
         "44684aa19f3062b2eedd445bf47f73041603713999e44671ed903084ba2a2523"),
        ("verify --suite quick",
         "b5cde1773d68136738b93715fdc77f7e5767e421e186bcb8c14d108e7d1b4319"),
        ("framepot --ensemble clifford --n 1 --k 2 --exact",
         "460e6882f6af9947f242467613b3af6414d331a4649a3c3e5459bc0d228e8441"),
        ("framepot --ensemble clifford --n 1 --k 4 --exact",
         "85a63d51d3114b49d3b5330e8cc9096f289e9705dbe43c2862500989f788a14f"),
        ("framepot --ensemble clifford --n 20 --k 1 --samples 10 --seed 6",
         "cebe1e49eb0d40faf05e7aa826233c19bd8a091df98516f5b9ac743c076a6d36"),
        ("oto --ensemble clifford --n 1 --kind oto4",
         "9a6d0dcec1ef9540f418ff36638757088953f86bf31d88ca8869fa4896cc7fd2"),
        ("oto --ensemble clifford --n 2 --kind commutator8 --samples 300 --seed 3",
         "036c7e92c8c6ff8c5e1ba9d256e29c68f8b4b370a8591ab490e0b498a2f98d72"),
        ("scramble --unitary haar --n 3 --k 2 --partition A=0,1;D=2 --seed 5",
         "fa72cde6dece95a838ac2838cda1a37a2738f7f02bbc1cfdbc7473491abb1fee"),
        ("scramble --unitary haar --n 3 --k 3 --partition A=0;D=2 --seed 5",
         "ad704668ecf4c210d9b0934b969b5bda28cd838a75fde2a413ee615c6304aeb9"),
        ("timeavg --spectrum 0,1,1.4142135,3.14159 --k 1 --t-max 2000 --check",
         "2fde004fca56fa326c49bd4c3d908f626cd65f97d41d362908da7f4b3e65f988"),
        (f"timeavg --spectrum {LEVELS_64} --k 1 --t-max 200 --n-grid 20000 --check",
         "36b1ddc91c6e9acd8f1a93cee72f6fca7c98ed8091cf099a2822474b6c813104"),
        ("thermal --n 2 --beta 0 --t 1 --k 1 --samples 2000 --seed 5",
         "94f968ec36cace3c34f7879a3981a9043014a3799487e8206c7f02181516491c"),
        ("thermal --n 3 --beta 50 --t 0.9 --k 2 --samples 70 --seed 75",
         "c6689021f5a0784e322cb09f4c8fff65238504836a30ccc9dc5c0845cc5909a0"),
        ("framepot --ensemble brickwork --n 6 --depth 6 --k 2 --samples 300 --seed 1",
         "bd1e5a6c8a1a20494e665c840db54d87f6cf062a8058ebfa24274c8b4de2b6fb"),
        ("framepot --ensemble brickwork --n 6 --depth 6 --k 2 --samples 300 --seed 2",
         "539cdf0b425ce14c1c5aea4092f38d6a81544b8247c3f8a7accbaca74906a0c4"),
    ])
    def test_report_bytes(self, capsys, argv, sha256):
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
