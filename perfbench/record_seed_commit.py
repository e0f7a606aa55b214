"""Record the seed commit's CLI reports for the benchmark's jobs.

    PYTHONPATH=src python3 perfbench/record_seed_commit.py --seeds 0-31

Runs every CLI job of every workload (full size) once per seed and writes
perfbench/seed_commit_values.json: for each argv, the sha256 of the report
bytes and its scalar value. Run it only at the commit whose results later
commits must reproduce; the benchmark then requires byte-identical reports
and values within 1e-12 for those argvs, and falls back to the exact and
5-sigma reference checks for any other seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    table, failures = {}, []
    for workload in workloads.JOB_LISTS:
        for seed in range(lo, hi + 1):
            for job in workloads.build_jobs(workload, seed, "full", {}):
                key = job.argv and workloads.argv_key(job.argv)
                if not key or key in table:
                    continue
                result = job.call()
                problems = [p for check in job.checks if (p := check(result))]
                if problems:
                    failures.append(f"{workload} seed {seed} {job.id}: {problems}")
                    continue
                sha, value, _ = workloads.summarize(result)
                table[key] = {"job": job.id, "seed": seed, "sha256": sha, "value": value}
            print(f"{workload} seed {seed}: {len(table)} reports", file=sys.stderr)
    with open(HERE / "seed_commit_values.json", "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
