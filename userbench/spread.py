#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Runs the command in BENCHMARK.json from the repository root, once per
workload and seed, and prints for every end-to-end metric its median and
the distance between its first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound. With
`--out`, writes every run (its result line, its report line, the host's
`nproc` and the wall time) to a JSON file.

    python3 userbench/spread.py --seeds 1-10 --out userbench/results/run.json
    python3 userbench/spread.py --workloads suggest-stream --seeds 1-5
    python3 userbench/spread.py --seeds 1-3 --trace 1 --baseline untraced.json

A traced set (`--trace 1`) prints the per-layer medians. With `--baseline`
naming the output of an untraced set, it also prints the tracing overhead:
the traced runs' end-to-end medians (from their report lines) minus the
untraced medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - t0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    report = None
    if len(lines) >= 2:
        report = json.loads(lines[-2]).get("report")
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "wall_s": round(wall, 2),
            "result": result, "report": report,
            "stderr_tail": proc.stderr.splitlines()[-5:]}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    ok = True
    for w in workloads:
        for seed in seeds:
            r = run_once(bench["command"], w, seed, seconds, args.trace)
            runs.append(r)
            res = r["result"] or {}
            print(f"{w} seed={seed} exit={r['exit']} wall={r['wall_s']}s "
                  f"correct={res.get('correct')}", file=sys.stderr)
            if r["exit"] != 0 or not res.get("correct"):
                ok = False
                print("\n".join(r["stderr_tail"]), file=sys.stderr)

    summary = {}
    for w in workloads:
        good = [r for r in runs if r["workload"] == w and r["result"]]
        if len(good) < 2:
            continue
        names = good[0]["result"]["metrics"].keys()
        rows = {}
        for n in names:
            vals = [r["result"]["metrics"][n]["value"] for r in good]
            med, sp = spread(vals)
            rows[n] = {"median": med, "spread": sp, "bound": bounds.get(n),
                       "values": vals}
            b = bounds.get(n)
            flag = "" if b is None else ("ok" if sp < b / 3 else
                                         ("within bound" if sp <= b else "WIDE"))
            print(f"{w:15s} {n:24s} median={med:<14.6g} spread={sp:6.3f} "
                  f"bound={b} {flag}")
        if args.trace and args.baseline:
            with open(args.baseline) as f:
                base = json.load(f)["summary"].get(w, {})
            for n, row in base.items():
                if n.startswith("named."):
                    continue
                traced = [r["report"]["traced_end_to_end"][n]["value"] for r in good]
                over = statistics.median(traced) - row["median"]
                rows["overhead." + n] = {"median": over}
                print(f"{w:15s} {'overhead ' + n:24s} {over:+.6g} "
                      f"({over / row['median']:+.1%} of untraced)")
        # The issue's own names, from the report line.
        for n in good[0]["report"]["named"]:
            vals = [r["report"]["named"][n]["value"] for r in good]
            med, sp = spread(vals)
            rows["named." + n] = {"median": med, "spread": sp, "values": vals}
            print(f"{w:15s} {'(' + n + ')':24s} median={med:<14.6g} spread={sp:6.3f}")
        summary[w] = rows

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"nproc": os.cpu_count(), "seconds": seconds,
                       "trace": args.trace, "summary": summary, "runs": runs},
                      f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
