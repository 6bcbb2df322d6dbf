"""Run perfbench in two checkouts in alternating order and compare their
end-to-end metrics.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N
                             [--seed S] [--seconds T]

Pair i runs `perfbench/run.py --trace 0` in PARENT_DIR first when i is even
and in CHANGE_DIR first when it is odd.  Prints each pair's metrics, then
per metric each side's quartiles and in how many pairs the change was lower.
Exits 1 if a run is not `correct` or fails a check.
"""

import argparse
import json
import statistics
import subprocess
import sys

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def parse(stdout: str) -> dict:
    """The result object of a perfbench run: its last line of output."""
    return json.loads(stdout.strip().splitlines()[-1])


def summary(pairs) -> list:
    """(metric, parent quartiles, change quartiles, pairs where the change
    was lower) per metric, from two or more (parent, change) results."""
    rows = []
    for name in METRICS:
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        rows.append((name, statistics.quantiles(old, n=4),
                     statistics.quantiles(new, n=4),
                     sum(n < o for o, n in zip(old, new))))
    return rows


def run(checkout: str, args) -> dict:
    return parse(subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"], cwd=checkout, capture_output=True, text=True,
        check=True).stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    pairs, bad = [], 0
    for i in range(args.pairs):
        pair = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side] = run((args.parent, args.change)[side], args)
        pairs.append(pair)
        bad += sum(not r["correct"] or r["failed"] > 0 for r in pair)
        print(f"pair {i}: " + "  ".join(
            f"{m} {pair[0]['metrics'][m]['value']:.4g} -> "
            f"{pair[1]['metrics'][m]['value']:.4g}" for m in METRICS)
            + "".join(f"  {side} correct={r['correct']} failed={r['failed']}"
                      for side, r in zip(("parent", "change"), pair)
                      if not r["correct"] or r["failed"] > 0))
    for name, old, new, wins in summary(pairs):
        print(f"{name}: median {old[1]:.4g} -> {new[1]:.4g}, quartiles "
              f"{old[0]:.4g}-{old[2]:.4g} -> {new[0]:.4g}-{new[2]:.4g}, "
              f"change lower in {wins} of {len(pairs)} pairs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
