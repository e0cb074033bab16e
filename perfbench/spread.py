#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out FILE]

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is steady when its spread is
below a third of its bound; setup_s is reported but not held to that.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result, environment record) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])["env"]


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    report: dict = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            result, env = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct={results[-1]['correct']} failed={results[-1]['failed']}",
                  file=sys.stderr)
        rows = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results],
                                     m["bound"])
                for m in spec["end_to_end"]}
        report[workload] = {
            "env": env,
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": rows,
        }
        for name, row in rows.items():
            flag = "" if row["steady"] or name == "setup_s" else "  NOT STEADY"
            print(f"{workload:18s} {name:18s} median {row['median']:12.6g} "
                  f"spread {row['spread']:7.2%} bound {row['bound']:.2f}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
