#!/usr/bin/env python3
"""Steadiness self-test of the simulator benchmark.

Runs every workload (or those named) once per seed and reports, for each
end-to-end metric, its spread (IQR / median, quartiles as
statistics.quantiles(n=4) gives them) against the metric's bound from
BENCHMARK.json:

  python3 simbench/tests/steadiness.py                     # 10 seeds, all workloads
  python3 simbench/tests/steadiness.py --runs 5 --workload seeded_sweep_8x8
  python3 simbench/tests/steadiness.py --sets 2 --save out.txt

A metric is "steady" below a third of its bound.  Exit status 1 when a
run fails or reports incorrect results, or when any metric spreads wider
than its bound; with --sets 2 also when a second set's median is worse
than the first's by more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
RUN = ROOT / "simbench" / "run.py"


def run(workload, seed, seconds, save):
    r = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True)
    if save:
        with open(save, "a") as f:
            f.write(r.stdout)
    lines = r.stdout.splitlines()
    if r.returncode or not lines:
        sys.stderr.write(r.stderr)
        print(f"FAIL: {workload} seed {seed} exited {r.returncode}")
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"FAIL: {workload} seed {seed} reported incorrect results")
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--save", help="append every run's stdout to this file")
    args = ap.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            results = [run(workload, seed, args.seconds, args.save)
                       for seed in range(first, first + args.runs)]
            if any(r is None for r in results):
                ok = False
                results = [r for r in results if r is not None]
            sets.append(results)
        print(f"\n{workload}")
        print(f"  {'metric':18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            for i, results in enumerate(sets):
                values = [r[name] for r in results]
                if len(values) < 2:
                    continue
                sp = spread(values)
                if sp < m["bound"] / 3:
                    verdict = "steady"
                elif sp <= m["bound"]:
                    verdict = "within bound, not steady"
                else:
                    verdict = "NOT STEADY"
                    ok = False
                drift = ""
                if i > 0:
                    m0 = statistics.median(r[name] for r in sets[0])
                    m1 = statistics.median(values)
                    worse = (m1 - m0) / m0 if m["better"] == "lower" else (m0 - m1) / m0
                    drift = f"  second median worse by {worse:+.3f}"
                    if worse > m["bound"]:
                        drift += " (over bound)"
                        ok = False
                print(f"  {name:18} {statistics.median(values):12.6g} {sp:8.3f} "
                      f"{m['bound']:6.2f}  {verdict}{drift}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
