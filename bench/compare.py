"""Compare the package at two source trees with this benchmark's code.

    python3 bench/compare.py --parent PARENT_DIR --change CHANGE_DIR [--seed-base 5000]

Both sides run ``bench/run.py`` from this directory, with ``--src`` pointing
at ``<dir>/src``, so benchmark code and settings are identical, and every run
lasts ``run_seconds`` of ``BENCHMARK.json``.  Every workload runs in 10
alternating pairs: pair i uses seed ``seed-base + i`` on both sides and runs
the parent first when i is even.  Re-check a claim on a seed base that was
not used while the change was written.  For every workload and end-to-end
metric of ``BENCHMARK.json``, plus ``failed_frac``, it prints each side's
median and quartiles, the pairs the change won and a verdict:

* ``gain`` -- the change wins at least 9 of the 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
* ``unresolved`` -- the parent's quartile spread exceeds the metric's bound
  and not every change run beats every parent run;
* ``regression`` -- the change's median is worse than the parent's by more
  than the bound (for ``failed_frac``: more failures in total);
* ``no regression`` -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PAIRS = 10
SEED_BASE = 5000
SEEDS = list(range(SEED_BASE, SEED_BASE + PAIRS))   # the default seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """Verdict for one metric from paired runs, and the pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    spread = p3 - p1
    if wins >= 9 and sign * (cm - pm) > spread:
        return "gain", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(pm) and not all_better:
        return "unresolved", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "regression", wins
    return "no regression", wins


def run_once(src_root: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--src", os.path.join(src_root, "src"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    values["failed_frac"] = doc["failed"] / doc["attempted"]
    return values


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description="Paired comparison of two source trees.")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seed-base", type=int, default=SEED_BASE)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    metrics = spec["end_to_end"] + [{"name": "failed_frac", "unit": "ratio",
                                     "better": "lower", "bound": 0.0}]
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_once(tree, workload, args.seed_base + i, seconds))
        print(f"{workload}  ({PAIRS} pairs, {seconds:g} s runs)")
        for m in metrics:
            parent = [r[m["name"]] for r in runs["parent"]]
            change = [r[m["name"]] for r in runs["change"]]
            if m["name"] == "failed_frac":
                wins = sum(c < q for q, c in zip(parent, change))
                verdict = "regression" if sum(change) > sum(parent) else "no regression"
            else:
                verdict, wins = judge(parent, change, m["better"], m["bound"])
            (a1, am, a3), (b1, bm, b3) = quartiles(parent), quartiles(change)
            print(f"  {m['name']:16s} parent {am:.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"change {bm:.6g} [{b1:.6g}, {b3:.6g}] {m['unit']}  "
                  f"wins {wins}/{PAIRS}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
