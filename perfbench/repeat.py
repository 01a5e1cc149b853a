"""Repeat one workload N times and report the spread behind each bound.

    python3 perfbench/repeat.py --workload serve_cold --runs 10 --traced 3

Runs ``perfbench/run.py`` once per seed (``--first-seed``, +1, ...) for
the ``run_seconds`` of ``BENCHMARK.json`` and prints, for every end-to-end
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``),
the interquartile spread and the full range as shares of the median, each
against the metric's bound in ``BENCHMARK.json``; a spread above a third
of the bound, or above the bound, is marked.  ``--traced K`` adds a traced
run for each of the first K seeds and prints the tracing overhead (traced
against untraced throughput and median latency) and the median of every
per-layer metric.  The output is a Markdown table, as recorded in the
README.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                               text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit("run failed (seed %d, trace %d):\n%s\n%s"
                         % (seed, trace, completed.stdout, completed.stderr))
    for line in lines[:-1]:
        if "FAILED" in line or "SIGKILL" in line or line.startswith("host:"):
            print("seed %d: %s" % (seed, line))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0, metavar="K",
                        help="also make traced runs for the first K seeds")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results, traced = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        results.append(run_once(args.workload, seed, seconds, 0))
        if seed < args.first_seed + args.traced:
            traced.append(run_once(args.workload, seed, seconds, 1))
    failed_shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("%s: %d runs of %g s, seeds %d-%d, correct in all: %s, failed shares: %s"
          % (args.workload, args.runs, seconds, args.first_seed,
             args.first_seed + args.runs - 1, all(r["correct"] for r in results),
             failed_shares))
    print()
    print("| metric | unit | median | q1 | q3 | IQR/median | range/median | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        if spread > metric["bound"]:
            mark = " (spread above the bound)"
        elif spread > metric["bound"] / 3:
            mark = " (spread above a third of the bound)"
        else:
            mark = ""
        print("| %s | %s | %.4g | %.4g | %.4g | %.3f | %.3f | %.2f%s |"
              % (name, metric["unit"], q2, q1, q3, spread,
                 (max(values) - min(values)) / q2, metric["bound"], mark))
    print()
    for metric in spec["end_to_end"]:
        print("raw %s: %s" % (metric["name"], " ".join(
            "%.4g" % r["metrics"][metric["name"]]["value"] for r in results)))
    if traced:
        paired = results[:len(traced)]
        untraced_ops = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in paired)
        untraced_p50 = statistics.median(r["metrics"]["latency_p50_ms"]["value"] for r in paired)
        traced_ops = statistics.median(r["metrics"]["traced.ops_per_s"]["value"] for r in traced)
        traced_p50 = statistics.median(
            r["metrics"]["traced.latency_p50_ms"]["value"] for r in traced)
        print()
        print("tracing overhead over %d seed pairs: throughput %.1f%% lower, median "
              "latency %.1f%% higher (traced %.4g ops/s, %.4g ms; untraced %.4g ops/s, %.4g ms)"
              % (len(traced), 100 * (1 - traced_ops / untraced_ops),
                 100 * (traced_p50 / untraced_p50 - 1),
                 traced_ops, traced_p50, untraced_ops, untraced_p50))
        print()
        print("| per-layer metric | unit | median of traced runs |")
        print("|---|---|---|")
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = statistics.median(r["metrics"][name]["value"] for r in traced)
            print("| %s | %s | %.4g |" % (name, metric["unit"], value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
