#!/usr/bin/env python3
"""Runs the benchmark on several seeds and summarises the spread.

    python3 perfbench/series.py [--workload NAME ...] [--runs 10] [--seconds S]
        [--first-seed 1] [--traced 1] [--out summary.json]

For each workload (default: every workload in BENCHMARK.json) it runs the
untraced benchmark once per seed (first-seed, first-seed+1, ...) and, with
--traced 1, the traced benchmark on the first seed. For every end-to-end
metric it prints the median, the quartiles as statistics.quantiles(values,
n=4) gives them and the spread (third minus first quartile over the
median), and checks the spread against the metric's bound in
BENCHMARK.json (setup_s is exempt). The traced run's traced.op_ms_p50 minus
the untraced op_ms_p50 median is the tracing overhead. The summary keeps
every run's values and provenance line (revision, cores, date, seed).
Run it from the root of the repository; it exits 1 when a spread is over
its bound or an operation failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}): {done.stderr[-2000:]}")
    provenance = next((l.split(" ", 2)[2] for l in lines
                       if l.startswith("perfbench: provenance ")), "{}")
    return json.loads(lines[-1]), json.loads(provenance)


def series(bench, workload, opts):
    seconds = opts.seconds or bench["run_seconds"]
    results, provenance = [], []
    steady = True
    for seed in range(opts.first_seed, opts.first_seed + opts.runs):
        result, prov = run(bench["command"], workload, seed, seconds, 0)
        steady &= result["correct"] and result["failed"] == 0
        results.append(result)
        provenance.append(prov)
        print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed, "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {"workload": workload, "runs": opts.runs, "seconds": seconds,
               "provenance": provenance, "metrics": {}}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        ok = name == "setup_s" or spread <= metric["bound"]
        steady &= ok
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": metric["bound"], "unit": metric["unit"],
                                    "values": values}
        print(f"{workload} {name:12s} median {median:10.4g} {metric['unit']:3s} "
              f"q1 {q1:10.4g} q3 {q3:10.4g} spread {spread:6.3f} "
              f"(bound {metric['bound']}, a third {metric['bound'] / 3:.3f})"
              f"{'' if ok else '  OVER BOUND'}", flush=True)
    if opts.traced:
        traced, prov = run(bench["command"], workload, opts.first_seed, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = layers["traced.op_ms_p50"] - summary["metrics"]["op_ms_p50"]["median"]
        summary["traced"] = {"provenance": prov, "attempted": traced["attempted"],
                             "failed": traced["failed"], "metrics": layers,
                             "overhead_ms": overhead}
        print(f"{workload} tracing overhead: {overhead:+.4g} ms on op_ms_p50; "
              f"trace.matches_program {layers['trace.matches_program']:g}, "
              f"unexplained_share {layers['unexplained_share']:.4f}", flush=True)
    return summary, steady


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    summaries, steady = [], True
    for workload in workloads:
        summary, ok = series(bench, workload, opts)
        summaries.append(summary)
        steady &= ok
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summaries, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
