"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 1] [--out FILE]

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance
between the quartiles as a share of the median, next to the bound
``BENCHMARK.json`` fixes.  ``--out`` also writes every run's result
line and the summary as JSON.  Runs go one after another, never in
parallel, so they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("seed %d: exit code %d" % (seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bounds):
    out = {}
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[key] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(key),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        res = run_once(spec, args.workload, seed, args.trace)
        if not res["correct"]:
            raise SystemExit("seed %d: incorrect result" % seed)
        results.append(res)
        print("seed %d: attempted %d failed %d" % (seed, res["attempted"], res["failed"]),
              file=sys.stderr)
    summary = summarize(results, bounds)
    for key, s in summary.items():
        flag = ""
        if s["bound"] is not None and s["spread"] > s["bound"] / 3:
            flag = "  above a third of the bound"
        print("%-24s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f bound %s%s"
              % (key, s["median"], s["q1"], s["q3"], s["spread"], s["bound"], flag))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "seeds": args.seeds,
                       "runs": results, "summary": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
