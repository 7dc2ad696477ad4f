#!/usr/bin/env python3
"""Simulator benchmark entry point.

Builds the benchmark program (and the simulator library it links) from
source with CMake, runs one workload and prints its metrics.  Run from
the repository root:

  python3 simbench/run.py --workload zoo_kernel_8x8 --seed 1 --seconds 20 --trace 0
  python3 simbench/run.py --record-reference

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
host fingerprint that simbench/compare.py checks.  The exit code is
nonzero when any simulated result disagrees with its reference digest.
The build goes to $CARGO_TARGET_DIR/simbench (default .bench_build/).
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "digests.txt"
WORKLOADS = ("zoo_kernel_8x8", "seeded_sweep_8x8")
# A run may take 180 s at most; leave room for the build check.
RUN_TIMEOUT_S = 170
RECORD_TIMEOUT_S = 3600


def die(msg, code=2):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("simulator sources not found: expected src/CMakeLists.txt next to simbench/")
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "simbench"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time repairs a build tree left by an interrupted
    # configure; on a configured tree it is a quick no-op.
    steps = [["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "simbench", "-j", jobs]]
    # Concurrent runs in one checkout share the build tree.
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(out / "build.log", "w") as log:
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                    log.flush()
                    tail = (out / "build.log").read_text(errors="replace")[-4000:]
                    die(f"build failed ({' '.join(cmd)}):\n{tail}")
    return out / "simbench"


def source_id():
    """git describe when the checkout is a repository, else a hash of the
    simulator and benchmark sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    h = hashlib.sha1()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def host_fingerprint(binary):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build = json.loads(subprocess.run([str(binary), "--describe-build"], check=True,
                                      capture_output=True, text=True).stdout)
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": build["compiler"], "build_type": build["build_type"],
            "source": source_id()}


def declared_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def record_reference(binary):
    r = subprocess.run([str(binary), "--record"], capture_output=True,
                       text=True, timeout=RECORD_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode:
        die("recording failed: an alternative path disagrees with the cold serial run")
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(
        "# Reference RunStats digests (FNV-1a 64 of save_run_stats) from the cold\n"
        "# serial paths, one line per workload and simulation seed:\n"
        "#   zoo_kernel_8x8 <seed> <10 digests, kZoo order>\n"
        "#   seeded_sweep_8x8 <seed> <160 digests>\n"
        "#   sharded_dxbar_64x64 <seed> <digest of the shards=1 run>\n"
        "# Regenerate with: python3 simbench/run.py --record-reference\n" + r.stdout)
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite the reference digests from the current sources")
    args = ap.parse_args()
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.record_reference:
        record_reference(binary)
        return
    if not REFERENCE.is_file():
        die(f"missing reference digests {REFERENCE.relative_to(ROOT)}")

    host = host_fingerprint(binary)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed % 2**63),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(REFERENCE)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if not lines:
        die(f"benchmark program printed nothing (exit {r.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("benchmark result has unexpected keys")
    expected = declared_metrics(args.trace)
    if expected is not None and r.returncode == 0:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        bad = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
        if bad:
            die(f"metrics or units differ from BENCHMARK.json: {bad}")
    print("\n".join(lines[:-1]))
    print("host " + json.dumps(host, sort_keys=True))
    print(lines[-1], flush=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
