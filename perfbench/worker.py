"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload classify --seed 1 [--trace FILE]
    python3 perfbench/worker.py --workload classify --seed 1 --setup-only

Times `import interpcat` plus input generation (setup), then the job list,
then checks every output outside the timed region, and prints one JSON
object.  With --trace the library is wrapped by `tracing` before the jobs
run and the per-layer summary goes to FILE.  With --setup-only it times the
setup alone.  `run.py` starts this script; run it by hand only to debug one
round.

A shared 2-vCPU VM can change speed by up to 1.7x within seconds (other
tenants' load), so raw times of one and the same round spread by 20-30%.
The worker therefore measures the machine's speed while it times:
`SpeedClock` runs a fixed probe kernel (stdlib code that does not depend on
interpcat) at the start, every PROBE_INTERVAL_S from a timer signal, and at
the end of a timed region.  Each stretch between two probes is scaled by
REFERENCE_PROBE_S / (mean of the two probe times), and the probes' own time
is left out.  So `wall_s` and `setup_s` are seconds on a machine where the
probe takes REFERENCE_PROBE_S: a slower or faster library moves them like
raw time, while a slow spell of the machine slows the probe too and mostly
cancels.  The raw times are reported beside them as `wall_raw_s` and
`setup_raw_s`.  Traced rounds run without the probe.

Setup lasts about 0.15 s, and the machine's speed moves within that, so it
is probed every SETUP_PROBE_INTERVAL_S instead.  On 24 setups that cut the
spread (q3 - q1) / median of single setup times from 0.13 to 0.05.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_PROBE_S = 0.003
PROBE_INTERVAL_S = 0.1
SETUP_PROBE_INTERVAL_S = 0.02


def _probe_kernel():
    """Fraction arithmetic, dict and tuple traffic, union-find: the library's mix."""
    total, seen = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(1, i % 31 + 1)
        seen[i % 17, i % 13] = total
    row = [Fraction(i + 1, i + 2) for i in range(24)]
    for k in range(10):
        f = Fraction(k + 3, k + 5)
        row = [a - f * b for a, b in zip(row, reversed(row))]
    for r in range(40):
        parent = list(range(40))
        for i in range(0, 40, 3):
            a, b = i, (i * 7 + r) % 40
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
        blocks: dict = {}
        for i in range(40):
            j = i
            while parent[j] != j:
                j = parent[j]
            blocks.setdefault(j, []).append(i)
        seen[r] = tuple(sorted(tuple(v) for v in blocks.values()))
    return seen


def probe() -> float:
    """Seconds the probe kernel takes now, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _edge_probe() -> float:
    """Median of three probes: a short region has few probes in between."""
    return statistics.median(probe() for _ in range(3))


class SpeedClock:
    """Raw and speed-scaled time of a region, probing from a SIGALRM timer."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.raw = self.scaled = 0.0
        self.probes: list[float] = []
        self._busy = False

    def _sample(self, *_, edge=False):
        if self._busy:  # a tick that arrives while a probe runs is dropped
            return
        self._busy = True
        end = time.perf_counter()
        now = _edge_probe() if edge else probe()
        stretch = end - self._mark
        self.raw += stretch
        self.scaled += stretch * 2 * REFERENCE_PROBE_S / (self.probes[-1] + now)
        self.probes.append(now)
        self._mark = time.perf_counter()
        self._busy = False

    def __enter__(self):
        self.probes.append(_edge_probe())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(edge=True)
        return False


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the setup alone, print it and exit (run.py "
                             "starts several per round to sample setup_s)")
    args = parser.parse_args()
    sys.path[:0] = [SRC, HERE]
    import workloads  # the benchmark's own code; it imports no part of interpcat

    with SpeedClock(SETUP_PROBE_INTERVAL_S) as setup:
        import interpcat

        jobs = workloads.make_jobs(args.workload, args.seed)
    if not os.path.abspath(interpcat.__file__).startswith(SRC + os.sep):
        print(f"interpcat imported from {interpcat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup.scaled, "setup_raw_s": setup.raw}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    results, errors = {}, {}
    with (nullcontext(None) if tracer else SpeedClock()) as clock:
        start = time.perf_counter()
        for job in jobs:
            try:
                results[job.name] = job.fn(*job.args)
            except Exception:
                errors[job.name] = traceback.format_exc(limit=3)
        loop_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace, "w") as fh:
            json.dump(tracer.summary(loop_s), fh, indent=1, sort_keys=True)

    wrong = {}
    for job in jobs:
        if job.name not in results:
            continue
        try:
            problems = job.check(results[job.name], job.args, results)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            wrong[job.name] = problems
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "attempted": len(jobs),
        "failed": len(errors),
        "correct": not wrong,
        "errors": {k: str(v)[:2000] for k, v in {**errors, **wrong}.items()},
        "setup_s": setup.scaled,
        "setup_raw_s": setup.raw,
        "wall_s": clock.scaled if clock else None,
        "wall_raw_s": clock.raw if clock else loop_s,
        "probe_median_s": statistics.median(clock.probes) if clock else None,
        "peak_rss_mb": peak_mb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
