"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

from designlab import cliffordgrp, framepot, wg  # noqa: E402

# a per-layer metric that must be non-zero where the layer runs
LAYER_ON = {
    "haar_mc": ("densemat.pauli_to_dense.calls", "densemat.check_unitary.calls",
                "otolab.oto_correlator.calls", "framepot.thermal_W.s",
                "densemat.haar_unitary.calls", "cli.main.calls"),
    "clifford_mc": ("cliffordgrp.trace_sq.calls", "cliffordgrp.conjugate_pauli.calls",
                    "paulialg.mul.calls", "paulialg.enumerate_paulis.calls",
                    "framepot.frame_potential_via_oto.self_s",
                    "otolab.oto_correlator_exact.calls"),
    "exact_weingarten": ("wg.weingarten.calls", "wg.q_matrix.s",
                         "otolab.haar_average_oto_exact.calls"),
    "dense_circuits": ("scrambling.renyi_k_oto.s", "scrambling.oto_renyi2_check.s",
                       "scrambling.choi_state.s", "framepot.time_averaged_frame_potential.s",
                       "densemat.sample_block.draws"),
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workload_names_match():
    assert tuple(workloads.JOB_LISTS) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if name != "samples_per_s")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_results_identical(workload):
    plain = worker.run_jobs(workloads.build_jobs(workload, 5, "tiny", {}))
    jobs = workloads.build_jobs(workload, 5, "tiny", {})
    original = framepot.trace_sq
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    assert framepot.trace_sq is original is cliffordgrp.trace_sq
    assert all(j["ok"] for j in plain + traced), [j["problems"] for j in plain + traced]
    assert [(j["id"], j["fingerprint"]) for j in traced] == \
        [(j["id"], j["fingerprint"]) for j in plain]
    layers = tracer.layer_metrics()
    assert set(layers) == set(LAYER_METRICS)
    assert all(layers[name] > 0 for name in LAYER_ON[workload])
    assert all(span[4] is not None for span in tracer.spans)  # every span has a job id


def test_host_speed_is_sampled_and_taken_out_of_jobs():
    jobs = workloads.build_jobs("clifford_mc", 0, "tiny", {})
    speed = worker.HostSpeed()
    speed.start()
    try:
        sampled = worker.run_jobs(jobs, speed=speed)
    finally:
        speed.stop()
    plain = worker.run_jobs(jobs)
    assert len(speed.samples) > 3
    assert [r["fingerprint"] for r in sampled] == [r["fingerprint"] for r in plain]
    assert all(r["cal_s"] > 0 and r["wall_s"] > 0 and r["cpu_s"] > 0 for r in sampled)
    speed.samples = [(0.0, 1.0, 1.0), (1.0, 3.0, 3.0)]
    assert speed.around(0.05, 0.06) == 1.0  # only the sample just before
    assert speed.around(0.5, 0.6) == 2.0  # none near: the mean of all
    assert run.scaled(2.0, run.CAL_REF_S / 2) == 4.0


def test_wrong_exact_result_raises_failed_frac(monkeypatch):
    real = wg.weingarten
    monkeypatch.setattr(wg, "weingarten", lambda mu, d: real(mu, d) + Fraction(1, 10**12))
    jobs = worker.run_jobs(workloads.build_jobs("exact_weingarten", 0, "tiny", {}))
    attempted, failed, _ = run.tally([{"jobs": jobs}])
    assert 0 < failed < attempted


def test_wrong_mc_result_raises_failed_frac(monkeypatch):
    real = framepot.frame_potential_mc

    def skewed(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(est, value=est.value + 100 * est.std_error)

    monkeypatch.setattr(framepot, "frame_potential_mc", skewed)
    jobs = worker.run_jobs(workloads.build_jobs("haar_mc", 0, "tiny", {}))
    attempted, failed, _ = run.tally([{"jobs": jobs}])
    assert failed == 2 and attempted == len(jobs)


def test_report_differing_from_seed_commit_fails():
    jobs = workloads.build_jobs("haar_mc", 0, "tiny", {})
    first = worker.run_jobs(jobs)
    table = {workloads.argv_key(job.argv): {"sha256": r["fingerprint"], "value": r["value"]}
             for job, r in zip(jobs, first)}
    assert run.tally([{"jobs": worker.run_jobs(
        workloads.build_jobs("haar_mc", 0, "tiny", table))}])[1] == 0
    key = workloads.argv_key(jobs[0].argv)
    table[key] = dict(table[key], value=table[key]["value"] + 1e-9)
    rerun = worker.run_jobs(workloads.build_jobs("haar_mc", 0, "tiny", table))
    assert [r["ok"] for r in rerun] == [False] + [True] * (len(rerun) - 1)


def test_results_differing_between_repetitions_fail():
    rep = {"jobs": [{"id": "a", "ok": True, "problems": [], "fingerprint": "x"}]}
    other = {"jobs": [{"id": "a", "ok": True, "problems": [], "fingerprint": "y"}]}
    assert run.tally([rep, other])[:2] == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "haar_mc", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
