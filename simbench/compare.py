#!/usr/bin/env python3
"""Compare saved benchmark outputs of two builds, workload by workload.

  python3 simbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one or more `simbench/run.py` runs
(simbench/tests/steadiness.py --save writes such files).  The tool
refuses to compare results whose host fingerprints differ in anything
but the source version: numbers from different CPUs, core counts,
compilers or build types say nothing about the code.

For every workload and end-to-end metric it prints both medians, the
change in the metric's "worse" direction as a share of the base median,
the metric's bound from BENCHMARK.json, and a verdict:
  unresolved  either side's runs spread (IQR / median) wider than the
              bound, and not every new run is worse than every base run
  regression  otherwise, the new median is worse by more than the bound
  ok          otherwise
Exit status: 0 if nothing regressed, 1 on a regression or when any run
reported incorrect results, 2 on refusal.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("cpu", "nproc", "compiler", "build_type")


def parse(path):
    """Returns ({workload: [metrics]}, [host dicts], incorrect run count)
    for the untraced runs."""
    runs, hosts, incorrect = {}, [], 0
    workload, trace, host = None, 0, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("workload "):
            workload = line.split()[1].rstrip(",")
            trace = 1 if line.rstrip().endswith("trace 1") else 0
        elif line.startswith("host "):
            host = json.loads(line[5:])
            hosts.append(host)
        elif line.startswith('{"correct"'):
            result = json.loads(line)
            if workload is None or host is None:
                sys.exit(f"compare: {path}: result without workload or host line")
            if not result["correct"]:
                print(f"compare: {path}: a {workload} run reported incorrect results")
                incorrect += 1
            if trace == 0:
                runs.setdefault(workload, []).append(result["metrics"])
            workload, host = None, None
    return runs, hosts, incorrect


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, base_hosts, base_incorrect = parse(sys.argv[1])
    new, new_hosts, new_incorrect = parse(sys.argv[2])
    fingerprints = {tuple(h.get(k) for k in HOST_KEYS) for h in base_hosts + new_hosts}
    if len(fingerprints) != 1:
        print("compare: refusing to compare results from different hosts:")
        for f in sorted(fingerprints, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, f))))
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = base_incorrect + new_incorrect > 0
    print(f"{'workload':22} {'metric':18} {'base':>12} {'new':>12} {'worse by':>9} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r[name]["value"] for r in base[workload]]
            n = [r[name]["value"] for r in new[workload]]
            mb, mn = statistics.median(b), statistics.median(n)
            worse = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
            s = max(spread(b), spread(n))
            separated = (min(n) > max(b)) if m["better"] == "lower" else (max(n) < min(b))
            if s > m["bound"] and not separated:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regression"
                regressed = True
            else:
                verdict = "ok"
            print(f"{workload:22} {name:18} {mb:12.6g} {mn:12.6g} {worse:+9.3f} "
                  f"{m['bound']:6.2f} {s:7.3f}  {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
