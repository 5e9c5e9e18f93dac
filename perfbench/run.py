#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

One run:
    python3 perfbench/run.py --workload spread --seed 1 --seconds 10 --trace 0

builds perfbench/ (a CMake consumer of the `mwllsc` target) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, runs the benchmark's unit tests, then runs one workload and passes its
output through. The last line of standard output is the run's JSON result.

Repeat mode:
    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0 --repeat 5

runs the workload with seeds seed, seed+1, ... and prints each metric's
median, quartiles and quartile spread (q3 - q1) / median: the figures the
bounds in BENCHMARK.json were set from.

Run it from the repository root. It exits non-zero without a result when the
library sources are missing, the build or unit tests fail, or an oracle fires.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spread", "lease", "hot", "scan")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "include", "mwllsc"))):
        log("perfbench: the mwllsc sources (CMakeLists.txt, include/mwllsc) "
            "must sit next to perfbench/")
        return None
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    bdir = os.path.join(out, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "2"])
    steps.append([os.path.join(bdir, "test_perfbench")])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {' '.join(cmd)}: {e}")
            return None
        if p.returncode != 0:
            log(p.stdout)
            log(f"perfbench: {' '.join(cmd)} exited {p.returncode}")
            return None
    return os.path.join(bdir, "perfbench")


def run_once(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout, parsed result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, "", None
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, p.stdout, result


def quartile_table(results):
    """Median, quartiles and (q3 - q1) / median of every metric."""
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        rows[name] = {"unit": results[0]["metrics"][name]["unit"],
                      "median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else 0.0}
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--repeat", type=int, default=1,
                    help="run K times with consecutive seeds and summarize")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    if args.repeat <= 1:
        code, out, result = run_once(exe, args.workload, args.seed,
                                     args.seconds, args.trace)
        if result is None:
            log("perfbench: no JSON result on the last line")
            return code or 1
        sys.stdout.write(out)
        return code

    results = []
    for i in range(args.repeat):
        code, _, result = run_once(exe, args.workload, args.seed + i,
                                   args.seconds, args.trace)
        if code != 0 or result is None:
            log(f"perfbench: seed {args.seed + i} failed (exit {code})")
            return code or 1
        results.append(result)
    rows = quartile_table(results)
    print(f"# {args.workload}, {args.repeat} runs, seeds {args.seed}.."
          f"{args.seed + args.repeat - 1}, {args.seconds} s each")
    print(f"{'metric':34} {'median':>16} {'q1':>16} {'q3':>16} {'spread':>8}")
    for name, r in rows.items():
        print(f"{name:34} {r['median']:16.4f} {r['q1']:16.4f} {r['q3']:16.4f} "
              f"{r['spread']:8.4f}  {r['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: {"value": r["median"], "unit": r["unit"]}
                    for n, r in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
