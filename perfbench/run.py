"""interpcat benchmark: closed-loop job lists, one client, one job at a time.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root (the library is imported from ./src).  A run
repeats whole rounds of the workload's job list, each round in a fresh
worker process (`worker.py`), one after another, until the next round would
end past --seconds; it always makes at least MIN_ROUNDS rounds.  Module
caches therefore start empty in every round, as in a CLI call.  The last line
of stdout is one JSON object with the run's counts and metrics.

--trace 0 reports the end-to-end metrics, each a median:
  wall_s       time to finish the job list, over the rounds
  setup_s      `import interpcat` plus generating the inputs from the seed,
               over the rounds and SETUP_SAMPLES setup-only workers after
               each round (one setup per process is too few to be steady)
  peak_rss_mb  peak resident memory of the worker, over the rounds
Both times are scaled for the machine's speed, measured by a probe that runs
alongside (see worker.py); the raw medians go to stderr.
--trace 1 wraps the library (`tracing.py`) and reports the per-layer metrics
instead: counts from the first traced round, self times as medians.  Trace
dumps go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("classify", "quotient", "symbolic", "stable")
MIN_ROUNDS = {False: 3, True: 1}
SETUP_SAMPLES = 4
ROUND_TIMEOUT_S = 150


class RoundError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS pools stay single-threaded: nproc is 2 and rounds run alone
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds, traces, setups = [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS[trace] or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        trace_file = None
        if trace:
            os.makedirs(OUT, exist_ok=True)
            trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}-round{len(rounds)}.json")
        result = start_worker(workload, seed, *(["--trace", trace_file] if trace else []))
        rounds.append(result)
        if trace_file:
            with open(trace_file) as fh:
                traces.append(json.load(fh))
        else:
            setups.append(result)
            setups += [start_worker(workload, seed, "--setup-only")
                       for _ in range(SETUP_SAMPLES)]
        for name, err in result["errors"].items():
            print(f"[{workload}] {name}: {err}", file=sys.stderr)
        last = time.perf_counter() - t
    if trace:
        metrics = {}
        for name, value in traces[0]["metrics"].items():
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
            if unit == "s":
                value = statistics.median(tr["metrics"][name] for tr in traces)
            metrics[name] = {"value": value, "unit": unit}
        print(f"[{workload}] traced wall_raw_s median "
              f"{statistics.median(r['wall_raw_s'] for r in rounds):.4f} over {len(rounds)} rounds",
              file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
        raw = {name: statistics.median(r[name] for r in rounds)
               for name in ("wall_raw_s", "probe_median_s")}
        raw["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in setups)
        print(f"[{workload}] {len(rounds)} rounds, {len(setups)} setups, raw medians: "
              + " ".join(f"{k}={v:.4f}" for k, v in raw.items()), file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, res in results.items():
            shown = "  ".join(f"{k}={m['value']:.4f} {m['unit']}" for k, m in res["metrics"].items())
            print(f"{name:9s} {shown}  attempted={res['attempted']} failed={res['failed']} "
                  f"correct={res['correct']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
