"""Steadiness check: two sets of benchmark runs of the same code, alternating.

    python3 perfbench/steady.py

Run from the repository root.  It runs every workload of BENCHMARK.json,
RUNS times per set, each run `run_seconds` long.  Set A uses seeds
1..RUNS and set B seeds 101..(100 + RUNS).  Runs alternate between the sets
(A then B, then B then A, ...) and rotate the workload order, so that a slow
spell of the machine falls on both sets and on every workload.  For each
workload and end-to-end metric it prints each set's median and quartiles,
the shift of B's median from A's, whether that shift is within the metric's
bound from BENCHMARK.json, and the spread (q3 - q1) / median of all runs
pooled, which should stay below a third of the bound.  Raw values go to
perfbench/out/steady.json.  It exits 0 only if every check holds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 5


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs: list[dict] = []
    for i in range(RUNS):
        order = workloads[i % len(workloads):] + workloads[: i % len(workloads)]
        for workload in order:
            for label in ("AB" if i % 2 == 0 else "BA"):
                seed = (1 if label == "A" else 101) + i
                res = run_once(workload, seed, seconds)
                runs.append({"set": label, "workload": workload, "seed": seed, **res})
                shown = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                print(f"[{label}] {workload:9s} seed {seed:3d}: {shown} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"correct={res['correct']}", file=sys.stderr, flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({"seconds": seconds, "runs": runs}, fh, indent=1)

    steady = True
    print(f"{'workload':9s} {'metric':12s} {'set A median [q1, q3]':32s} "
          f"{'set B median [q1, q3]':32s} {'B/A-1':>7s} {'bound':>6s} agree "
          f"{'spread':>7s} steady")
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        shares = {(r["failed"] / r["attempted"]) for r in mine}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in mine if r["set"] == "A"]
            b = [r["metrics"][name]["value"] for r in mine if r["set"] == "B"]
            qa, qb = quartiles(a), quartiles(b)
            shift = qb[1] / qa[1] - 1
            agree = abs(shift) <= bound
            pooled = quartiles(a + b)
            spread = (pooled[2] - pooled[0]) / pooled[1]
            ok = spread <= bound / 3
            steady &= agree and ok
            print(f"{workload:9s} {name:12s} "
                  f"{qa[1]:9.4f} [{qa[0]:9.4f}, {qa[2]:9.4f}] "
                  f"{qb[1]:9.4f} [{qb[0]:9.4f}, {qb[2]:9.4f}] "
                  f"{shift:+7.3f} {bound:6.3f} {'yes' if agree else 'NO ':5s} "
                  f"{spread:7.3f} {'yes' if ok else 'NO'}")
        print(f"{workload:9s} failed share per run: {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  (differs between runs)'}")
        steady &= len(shares) == 1
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
