#!/usr/bin/env python3
"""Builds and runs the CWC end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload live_cold --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (a CMake project over the
repository's src/ tree) into $CARGO_TARGET_DIR, default .bench_build. The
last line of a run's standard output is one JSON object with the keys
correct, attempted, failed and metrics. --selftest runs the benchmark's own
checks plus a smoke run of every workload, traced and untraced, and checks
that every metric BENCHMARK.json names is printed, finite, with its unit.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no CWC source tree next to perfbench/; nothing to build")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", out, "--target", "cwc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "cwc_perfbench")


def run_bench(binary, args):
    """Runs the binary; returns (exit code, stdout text)."""
    proc = subprocess.run([binary, "--work-dir", os.path.join(build_dir(), "perfbench-work")]
                          + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, expected):
    """Problems with one printed result against {name: unit}."""
    problems = []
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys: %s" % sorted(result))
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("correct=%s attempted=%s failed=%s"
                        % (result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("missing %s, unexpected %s"
                        % (sorted(set(expected) - set(metrics)),
                           sorted(set(metrics) - set(expected))))
    for name, entry in metrics.items():
        if sorted(entry) != ["unit", "value"] or not isinstance(entry["value"], (int, float)):
            problems.append("%s: malformed %s" % (name, entry))
        elif not math.isfinite(entry["value"]):
            problems.append("%s: not finite" % name)
        elif name in expected and entry["unit"] != expected[name]:
            problems.append("%s: unit %s, BENCHMARK.json says %s"
                            % (name, entry["unit"], expected[name]))
    return problems


def selftest(binary, seed):
    spec = load_spec()
    failures = 0
    code, out = run_bench(binary, ["--selftest", "--seed", str(seed)])
    sys.stdout.write(out)
    failures += code != 0
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in spec["workloads"]:
            name = workload["name"]
            code, out = run_bench(binary, ["--workload", name, "--seed", str(seed),
                                           "--seconds", "0.2", "--trace", str(trace), "--smoke"])
            lines = out.strip().splitlines()
            problems = ["exit code %d" % code] if code != 0 else []
            problems += check_result(lines[-1], expected) if lines else ["no output"]
            verdict = "PASS" if not problems else "FAIL"
            print("%s  smoke %s trace=%d: every %s metric present and finite%s"
                  % (verdict, name, trace, kind, "" if not problems else " " + "; ".join(problems)))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.selftest:
        return selftest(binary, args.seed)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    code, out = run_bench(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        sys.exit("perfbench: %s" % error)
