#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--workloads train_host,fleet_sim]
                                [--runs 10] [--first-seed 1] [--seconds S]

Runs each workload --runs times through perfbench/run.py, one seed per run
(first-seed, first-seed+1, ...), and prints for every end-to-end metric its
median, quartiles and run-to-run spread (interquartile range over median,
quartiles as statistics.quantiles(values, n=4) gives them) next to the bound
BENCHMARK.json fixes for it. A spread above a third of its bound is flagged
"wide"; one above the bound (setup_s excepted, whose bound limits the shift
of its median only) fails the check.

fleet_sim is then rerun on its first seed, and every virtual-clock metric
must read bit-for-bit what the first run read. The exit code is non-zero
when a run fails its own output checks, a spread exceeds its bound, or a
virtual-clock metric differs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# fleet_sim metrics read on the virtual clock: a pure function of the seed.
FLEET_VIRTUAL = ("train_samples_per_s", "step_ms_p50", "step_ms_tail",
                 "request_ms_p50", "request_ms_tail", "slo_attainment",
                 "job_turnaround_ms_p50", "job_turnaround_ms_tail")


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    facts = [l.strip() for l in lines if l.strip().startswith("host.")]
    report = json.loads(lines[-1]) if lines else {"correct": False}
    return proc.returncode, report, facts


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        first = None
        for i in range(args.runs):
            seed = args.first_seed + i
            code, report, facts = run(workload, seed, args.seconds)
            print("%s seed %d: exit %d, correct %s; %s"
                  % (workload, seed, code, report.get("correct"),
                     ", ".join(facts)), flush=True)
            if code != 0 or not report.get("correct"):
                ok = False
                continue
            first = first or report
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])

        print("\n%s: %d runs, %g s each" % (workload, args.runs, args.seconds))
        print("  %-26s %12s %12s %12s %8s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            xs = values.get(m["name"], [])
            if len(xs) < 2:
                print("  %-26s (no data)" % m["name"])
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > m["bound"] / 3:
                verdict = "wide"
            if spread > m["bound"] and m["name"] != "setup_s":
                verdict = "FAIL"
                ok = False
            print("  %-26s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s"
                  % (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
                     verdict))

        if workload == "fleet_sim" and first is not None:
            code, again, _ = run(workload, args.first_seed, args.seconds)
            differ = [n for n in FLEET_VIRTUAL
                      if code != 0 or again["metrics"][n]["value"]
                      != first["metrics"][n]["value"]]
            print("  virtual-clock metrics on a rerun of seed %d: %s"
                  % (args.first_seed,
                     "identical" if not differ else "DIFFER: " + ", ".join(differ)))
            ok = ok and not differ
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
