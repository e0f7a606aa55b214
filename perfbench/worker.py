"""One cold repetition of a workload, in a fresh interpreter.

Started by run.py. Imports designlab from the checkout's ``src/``, does the
first BLAS call, builds the workload's jobs (that is the set-up time), then
runs every job once, closed loop, one at a time, and checks each result. The
last stdout line is a JSON object with the timings and per-job results.

While the jobs of an untraced repetition run, a timer interrupts them every
CAL_EVERY_S seconds to time a fixed loop of the kinds of work designlab does
(``HostSpeed``). Each job records the mean loop time around it, with the
loop's time taken out of its own wall and CPU time, so run.py can express
the job's time at a fixed reference speed: a shared host's speed drifts by
1.6x over minutes, and the drift slows the loop and the job alike.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED_COMMIT_FILE = Path(__file__).resolve().parent / "seed_commit_values.json"
CAL_LOOP = 40  # iterations of the calibration loop, about 1 ms
CAL_EVERY_S = 0.1  # timer interval: the loop takes about 1% of the run


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


_CAL_M = np.eye(4, dtype=complex) / 2 + 0.1j


def _loop(n: int) -> int:
    """Each iteration does a share of each kind of work in designlab's jobs:
    small numpy calls (densemat, otolab), integer arithmetic in the
    interpreter (cliffordgrp, paulialg) and Fraction arithmetic (wg). A
    slow-down that hits one kind more than the others then still shows."""
    x, s = _CAL_M, 0
    for i in range(1, n + 1):
        x = _CAL_M @ x
        x = x / np.linalg.norm(x)
        s += (Fraction(i, 7) * Fraction(3, i + 2) + Fraction(1, i)).denominator
        for j in range(100):
            s += j * j % 7
    return s


def calibrate() -> float:
    """Median time of 15 runs of the calibration loop: the host's speed
    right now. The loop keeps nothing it allocates."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        _loop(CAL_LOOP)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Times the calibration loop on a SIGALRM timer while jobs run.

    The handler runs between bytecodes of the main thread, so a long numpy
    or BLAS call delays a sample but is never cut. Each sample keeps its
    start, wall and CPU time, so the loop's time can be taken out of the job
    it interrupted.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame):
        cpu0, t0 = _cpu_s(), time.perf_counter()
        _loop(CAL_LOOP)
        self.samples.append((t0, time.perf_counter() - t0, _cpu_s() - cpu0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        return [sample for sample in self.samples if t0 <= sample[0] < t1]

    def around(self, t0: float, t1: float) -> float:
        """Mean loop time from one interval before t0 to one after t1, so
        a job shorter than the interval still gets a sample."""
        near = self.between(t0 - CAL_EVERY_S, t1 + CAL_EVERY_S) or self.samples
        return statistics.mean(wall for _, wall, _ in near)


def run_jobs(jobs, tracer=None, speed: HostSpeed | None = None) -> list[dict]:
    """Run each job once and check it; wall and CPU time cover the call only.
    With a running `speed`, each result also gets `cal_s`, the mean loop
    time around the job, and the loop's own time is taken out of the job's."""
    from workloads import summarize

    results, spans = [], []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        problems = []
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a failing job is counted, not fatal
            result = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        wall, cpu = t1 - t0, _cpu_s() - cpu0
        spans.append((t0, t1))
        if tracer is not None:
            tracer.job = None
        fingerprint = value = se = None
        if not problems:
            for check in job.checks:
                try:
                    problem = check(result)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
                if problem:
                    problems.append(problem)
            fingerprint, value, se = summarize(result)
        results.append({"id": job.id, "wall_s": wall, "cpu_s": cpu, "ok": not problems,
                        "problems": problems, "fingerprint": fingerprint, "value": value,
                        "std_error": se, "draws": job.draws, "target_se": job.target_se})
    if speed is not None:
        for result, (t0, t1) in zip(results, spans):
            inside = speed.between(t0, t1)
            result["wall_s"] -= sum(wall for _, wall, _ in inside)
            result["cpu_s"] -= sum(cpu for _, _, cpu in inside)
            result["cal_s"] = speed.around(t0, t1)
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="JSONL file for the recorded spans")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import designlab
    if not Path(designlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"designlab imported from {designlab.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import workloads

    a = np.ones((64, 64), dtype=complex)
    np.dot(a, a)  # first BLAS call: loads the kernels and starts BLAS threads
    with open(SEED_COMMIT_FILE) as fh:
        seed_commit = json.load(fh)
    jobs = workloads.build_jobs(args.workload, args.seed, args.size, seed_commit)
    setup_s = time.monotonic() - args.spawned_at

    out = {"setup_s": setup_s, "setup_cal_s": calibrate()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        speed = None if tracer is not None else HostSpeed()
        try:
            if speed is not None:
                speed.start()
            out["jobs"] = run_jobs(jobs, tracer, speed)
        finally:
            if tracer is not None:
                tracer.uninstall()
            if speed is not None:
                speed.stop()
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
