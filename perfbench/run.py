#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its report.

    python3 perfbench/run.py --workload train_host|serve_host|fleet_sim \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. On first use it configures and
builds perfbench/ (which compiles the library sources under src/) with CMake
into .bench_build/, then runs the opsched_perfbench binary once. It prints
every metric with its unit, the host facts (cores, compiler, build type, CPU
steal and other processes' load over the run), and ends standard output with
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when every output check passed.
"""
import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "opsched_perfbench")
HOST_PROFILE = os.path.join(HERE, "data", "host_profile.json")
WORKLOADS = ("train_host", "serve_host", "fleet_sim")
# The binary must finish well inside the contract's 180 s per run.
RUN_TIMEOUT_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then lets CMake bring the binary up to date."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("library sources not found (%s is missing); run from a full "
                 "checkout of the repository" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "opsched_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def cpu_times():
    """Machine-wide jiffies from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return {"busy": user + nice + system + irq + softirq, "steal": steal,
            "total": sum(fields)}


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def host_load(before, after, own_cpu_s):
    """CPU steal and the load other processes put on the machine."""
    total = after["total"] - before["total"]
    if total <= 0:
        return {}
    cores = os.cpu_count() or 1
    tick = os.sysconf("SC_CLK_TCK")
    wall_core_s = total / tick  # core-seconds the machine had over the run
    other = (after["busy"] - before["busy"]) / tick - own_cpu_s
    return {
        "host.steal_pct": 100.0 * (after["steal"] - before["steal"]) / total,
        "host.other_load_cores": max(0.0, other) / wall_core_s * cores,
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default="",
                    help="traced runs: write the Chrome trace here")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--host-profile", HOST_PROFILE]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    own0, load0 = children_cpu_s(), cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (args.workload, RUN_TIMEOUT_S))
    facts_load = host_load(load0, cpu_times(), children_cpu_s() - own0)

    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no report (exit code %d)"
             % (args.workload, proc.returncode))
    raw["facts"].update(facts_load)
    errors = list(raw["errors"])

    expected = expected_metrics(args.trace)
    metrics = raw["metrics"]
    if set(metrics) != set(expected):
        errors.append("metric names differ from BENCHMARK.json: %s"
                      % sorted(set(metrics) ^ set(expected)))
    errors += ["%s: unit %s, BENCHMARK.json says %s"
               % (n, m["unit"], expected[n]) for n, m in metrics.items()
               if n in expected and m["unit"] != expected[n]]
    if not args.trace:
        errors += ["%s reads 0" % n for n, m in metrics.items()
                   if m["value"] == 0]
    if proc.returncode != 0 and not errors:
        errors.append("opsched_perfbench exited with %d" % proc.returncode)

    print("%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in raw["facts"].items():
        print("  %-36s %14s" % (name, value if isinstance(value, str)
                                 else "%.6g" % value))
    for e in errors:
        print("  CHECK FAILED: " + e)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
