"""designlab benchmark: cold-process workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload haar_mc --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each repetition of a workload is a fresh interpreter (worker.py), so the wg
``lru_cache``s start empty as they do for every ``designlab`` invocation, and
set-up is paid every time. Repetitions run one after another until
``--seconds`` have passed and at least MIN_REPS have run; medians are
reported. Times are scaled to a reference host speed by a calibration loop
that worker.py times while the jobs run (see ``scaled``). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics and the tracing overhead. The last stdout
line is one JSON object: correct, attempted, failed, metrics. The BLAS
thread count is left at the user's default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("haar_mc", "clifford_mc", "exact_weingarten", "dense_circuits")
# a run stops once --seconds have passed and MIN_REPS untraced repetitions
# are done: stopping on time alone would leave a single repetition exactly
# when the machine is slow, so the slow figures would be the least averaged
MIN_REPS = 2
MIN_SETUPS = 5  # set-up samples per run; set-up-only children make up the rest
RUN_LIMIT_S = 170  # a run must end within 180 s
# time of the calibration loop (worker._loop) at the reference speed: about
# its time between jobs on a 2-vCPU x86-64 cloud host with no busy neighbour
CAL_REF_S = 0.001

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "samples_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
    }


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when the
    checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the package sources, to identify a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "designlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(workload: str, seed: int, size: str, deadline: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(deadline - time.monotonic(), 1.0)
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 run_deadline: float) -> dict:
    """Repetitions until `seconds` have passed and MIN_REPS untraced ones are
    done (with tracing, untraced and traced alternate and at least one is
    traced), plus set-up-only children up to MIN_SETUPS set-up samples."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        if trace and len(traced) < len(plain):
            traced.append(spawn(workload, seed, size, run_deadline, trace=True))
        else:
            plain.append(spawn(workload, seed, size, run_deadline))
        if (time.monotonic() - start >= seconds and len(plain) >= MIN_REPS
                and (not trace or traced)):
            break
    setups = [(rep["setup_s"], rep["setup_cal_s"]) for rep in plain + traced]
    while len(setups) < MIN_SETUPS:
        rep = spawn(workload, seed, size, run_deadline, setup_only=True)
        setups.append((rep["setup_s"], rep["setup_cal_s"]))
    return {"plain": plain, "traced": traced, "setups": setups}


def job_consistency(reps: list[dict]) -> list[str]:
    """Every repetition of a seed must give the same result for each job."""
    problems = []
    first = {j["id"]: j["fingerprint"] for j in reps[0]["jobs"]}
    for rep in reps[1:]:
        for job in rep["jobs"]:
            if job["ok"] and job["fingerprint"] != first.get(job["id"]):
                problems.append(f"{job['id']}: result differs between repetitions")
    return problems


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all repetitions. A job fails when
    its result fails a check or differs from its first repetition's."""
    attempted = sum(len(rep["jobs"]) for rep in reps)
    failed = sum(1 for rep in reps for j in rep["jobs"] if not j["ok"])
    problems = [f"{j['id']}: {p}" for rep in reps for j in rep["jobs"] for p in j["problems"]]
    inconsistent = job_consistency(reps)
    return attempted, failed + len(inconsistent), sorted(set(problems + inconsistent))


def scaled(seconds: float, cal_s: float) -> float:
    """A time measured while the calibration loop took `cal_s`, expressed at
    the reference speed. The host's speed drifts by up to 1.6x over minutes
    and slows the calibration loop and the jobs alike, so the scaled time
    tracks the program, not the neighbours."""
    return seconds * CAL_REF_S / cal_s


def rep_times(rep: dict, key: str, mc_only: bool = False) -> float:
    """Sum of the scaled `key` times of a repetition's jobs."""
    return sum(scaled(j[key], j["cal_s"]) for j in rep["jobs"] if j["draws"] or not mc_only)


def end_to_end(runs: dict) -> dict[str, float]:
    reps = runs["plain"]
    mc_walls = [rep_times(rep, "wall_s", mc_only=True) for rep in reps]
    draws = sum(j["draws"] for j in reps[0]["jobs"])
    return {
        "setup_s": statistics.median(scaled(*s) for s in runs["setups"]),
        "wall_s": statistics.median(rep_times(rep, "wall_s") for rep in reps),
        "cpu_s": statistics.median(rep_times(rep, "cpu_s") for rep in reps),
        "samples_per_s": statistics.median(draws / w for w in mc_walls if w > 0) if draws else 0.0,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def raw_wall(reps: list[dict]) -> float:
    return statistics.median(sum(j["wall_s"] for j in rep["jobs"]) for rep in reps)


def unscaled(runs: dict) -> dict[str, float]:
    """Medians of the raw wall and CPU times and of the calibration, for the
    table: what this run took on this host as it was."""
    reps = runs["plain"]
    return {
        "raw_wall_s": raw_wall(reps),
        "raw_cpu_s": statistics.median(sum(j["cpu_s"] for j in rep["jobs"]) for rep in reps),
        "host_speed": CAL_REF_S / statistics.median(j["cal_s"] for rep in reps
                                                    for j in rep["jobs"]),
    }


def time_to_target(rep: dict) -> float:
    """Sum over MC jobs of wall x (achieved std error / target std error)^2."""
    return sum(scaled(j["wall_s"], j["cal_s"]) * (j["std_error"] / j["target_se"]) ** 2
               for j in rep["jobs"] if j["target_se"] and j["std_error"] is not None)


def per_layer(runs: dict) -> dict[str, float]:
    """Medians over the traced repetitions, plus the tracing overhead."""
    traced = runs["traced"]
    out = {name: statistics.median(rep["layers"][name] for rep in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_ratio"] = raw_wall(traced) / raw_wall(runs["plain"])
    return out


def layer_unit(name: str) -> str:
    if name.endswith(("calls", "hits", "misses", "draws")):
        return "count"
    if name == "trace.overhead_ratio":
        return "1"
    return "s"


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            run_deadline: float) -> dict:
    runs = run_workload(workload, seed, seconds, trace, size, run_deadline)
    attempted, failed, problems = tally(runs["plain"] + runs["traced"])
    e2e = end_to_end(runs)
    table = dict(e2e)
    table["time_to_target_se_s"] = statistics.median(time_to_target(r) for r in runs["plain"])
    table["failed_frac"] = failed / attempted
    table.update(unscaled(runs))
    if trace:
        layers = dict(per_layer(runs), time_to_target_se_s=table["time_to_target_se_s"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {"workload": workload, "seed": seed, "size": size, "trace": trace,
            "repetitions": {"untraced": len(runs["plain"]), "traced": len(runs["traced"]),
                            "setups": len(runs["setups"])},
            "attempted": attempted, "failed": failed,
            "problems": problems,
            "table": table, "metrics": metrics, "runs": runs}


def print_table(res: dict):
    units = dict(END_TO_END_UNITS, time_to_target_se_s="s", failed_frac="1",
                 raw_wall_s="s", raw_cpu_s="s", host_speed="1")
    reps = res["repetitions"]
    print(f"== {res['workload']} seed={res['seed']} size={res['size']}: "
          f"{reps['untraced']} untraced + {reps['traced']} traced repetitions, "
          f"{res['attempted']} jobs, {res['failed']} failed")
    for name, value in res["table"].items():
        print(f"  {name:<22} {value:>14.6g} {units[name]}")
    for problem in res["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small job sizes for smoke tests")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "designlab" / "__init__.py").is_file():
        print(f"error: no designlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            run_deadline = time.monotonic() + RUN_LIMIT_S
            res = measure(workload, args.seed, args.seconds, bool(args.trace), args.size,
                          run_deadline)
            res["environment"] = env
            results.append(res)
            print_table(res)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            with open(OUT / name, "w") as fh:
                json.dump(res, fh, indent=1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(env, sort_keys=True))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
