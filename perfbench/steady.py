"""Run-to-run spread of the end-to-end metrics, and a check on unseen seeds.

Usage (from the repository root):

  python3 perfbench/steady.py --workload cold-solve --seeds 1 2 3 4 5 6 7 8 9 10
  python3 perfbench/steady.py --workload cold-solve --seeds 1 2 3 --against 101 102 103

Runs perfbench/run.py once per seed, one run at a time, and reports for
each end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  With --against, a second set of seeds is run and each
metric's second median must not be worse than the first by more than
the bound.  Exits 1 when a spread exceeds its bound (setup_s excepted)
or a median comparison fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_seeds(workload: str, seeds: list[int], seconds: int, trace: int) -> list[dict]:
    results = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        cp = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = cp.stdout.strip().splitlines()
        if cp.returncode != 0 or not lines:
            raise SystemExit(f"seed {seed}: exit {cp.returncode}\n{cp.stderr[-2000:]}")
        res = json.loads(lines[-1])
        res["seed"] = seed
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}", flush=True)
    return results


def summarize(results: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else float("inf"),
                          "bound": m.get("bound"), "better": m["better"], "values": vals}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--against", type=int, nargs="*", default=[])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    first = summarize(run_seeds(args.workload, args.seeds, bench["run_seconds"], args.trace), spec)
    report = {"workload": args.workload, "seeds": args.seeds, "first": first}
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, s in first.items():
        print(f"{name:32s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {s['bound'] if s['bound'] is not None else '-':>6}")
        if s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"]:
            ok = False
    if args.against:
        second = summarize(run_seeds(args.workload, args.against, bench["run_seconds"],
                                     args.trace), spec)
        report["against"], report["second"] = args.against, second
        print(f"{'metric':32s} {'median 1':>12s} {'median 2':>12s} {'worse by':>9s} {'bound':>6s}")
        for name, s in first.items():
            b = second[name]
            sign = 1.0 if s["better"] == "lower" else -1.0
            worse = sign * (b["median"] - s["median"]) / s["median"]
            print(f"{name:32s} {s['median']:12.6g} {b['median']:12.6g} {worse:9.4f} "
                  f"{s['bound'] if s['bound'] is not None else '-':>6}")
            if s["bound"] is not None and worse > s["bound"]:
                ok = False
    os.makedirs(".perfbench_out", exist_ok=True)
    path = os.path.join(".perfbench_out", f"steady-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print("steady" if ok else "NOT steady", f"(details in {path})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
