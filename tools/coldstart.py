"""Cold start of interpcat: `import interpcat` and one CLI call, each in a
fresh process, for one source tree or two trees alternating.

    python3 tools/coldstart.py .                  # this tree
    python3 tools/coldstart.py OLD_TREE NEW_TREE  # two trees alternating

A tree is a directory with `src/interpcat`.  Each of the 15 rounds runs
each command once per tree, in an order that flips from round to round, so
a drift of the machine's speed falls on both trees alike.  One discarded run
per command and tree comes first: it writes the bytecode cache, as an
installed package has one.  For each command and tree the script prints the
median and the quartiles of the wall time (process start to exit) and the
median peak RSS of the child.  `python -c pass` is timed too, as the floor
of any call.  Stdlib only; it starts one process at a time.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

ROUNDS = 15
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import interpcat": ["-c", "import interpcat"],
    "dim --flavor S --m 2": ["-m", "interpcat", "dim", "--flavor", "S", "--m", "2"],
}


def run_once(tree: str | None, args: list[str]) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh interpreter."""
    env = dict(os.environ)
    if tree is not None:
        env["PYTHONPATH"] = os.path.join(tree, "src")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL)
    # wait4 gives this child's own peak RSS; Popen learns it was reaped
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode} in {tree}")
    return wall, usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", help="one or two directories holding src/interpcat")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one tree or two")
    for tree in args.trees:
        if not os.path.isdir(os.path.join(tree, "src", "interpcat")):
            parser.error(f"{tree} has no src/interpcat")
    jobs = [(None, "python -c pass")] + [
        (tree, name) for tree in args.trees for name in COMMANDS if name != "python -c pass"
    ]
    samples: dict[tuple, list] = {job: [] for job in jobs}
    for tree, name in jobs:
        run_once(tree, COMMANDS[name])
    for r in range(ROUNDS):
        for tree, name in jobs if r % 2 == 0 else reversed(jobs):
            samples[tree, name].append(run_once(tree, COMMANDS[name]))
    for tree, name in jobs:
        walls = [wall for wall, _ in samples[tree, name]]
        q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        rss = statistics.median(rss for _, rss in samples[tree, name])
        print(
            f"{tree or '-':<28} {name:<22} median {median:.4f} s"
            f"  q1 {q1:.4f}  q3 {q3:.4f}  rss {rss:.1f} MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
