#!/usr/bin/env python3
"""Fold the perfbench records of a parent and a changed checkout into one file.

    python3 scripts/bench_record.py --parent PARENT_DIR --change CHANGE_DIR \\
        --seeds 1 2 3 --out BENCH_<n>.json

Each checkout must hold the untraced records that
``python3 perfbench/run.py --workload W --seed S --trace 0`` writes to
``.perfbench/results/W-seedS-trace0.json``.  For each side the output keeps
the commit, Python version and nproc of its runs, and for each workload the
``result.metrics`` and failure counts of every seed with the median of each
metric over the seeds.  Stdlib only; it does not import trifree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

WORKLOADS = ("census", "covering", "paper", "recognize")
SAME_FOR_EVERY_RUN = ("commit", "python", "nproc")


def _record(checkout: str, workload: str, seed: int) -> dict:
    path = os.path.join(checkout, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="ascii") as handle:
        record = json.load(handle)
    if record["environment"]["smoke"]:
        raise SystemExit(f"{path}: a smoke run, not a measurement")
    return record


def fold(checkout: str, workloads, seeds) -> dict:
    """The records of one checkout, by workload and seed."""
    side: dict = {key: None for key in SAME_FOR_EVERY_RUN}
    side["workloads"] = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            record = _record(checkout, workload, seed)
            for key in SAME_FOR_EVERY_RUN:
                seen = record["environment"][key]
                if side[key] is None:
                    side[key] = seen
                elif side[key] != seen:
                    raise SystemExit(f"{checkout}: {workload} seed {seed} has {key} "
                                     f"{seen!r}, other runs {side[key]!r}")
            result = record["result"]
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": result["metrics"]})
        median = {name: statistics.median(run["metrics"][name]["value"] for run in runs)
                  for name in runs[0]["metrics"]}
        side["workloads"][workload] = {"median": median, "runs": runs}
    return side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    folded = {
        "seeds": args.seeds,
        "parent": fold(args.parent, WORKLOADS, args.seeds),
        "change": fold(args.change, WORKLOADS, args.seeds),
    }
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(folded, handle, indent=1)
        handle.write("\n")
    for workload in WORKLOADS:
        before = folded["parent"]["workloads"][workload]["median"]["wall_s"]
        after = folded["change"]["workloads"][workload]["median"]["wall_s"]
        print(f"{workload}: wall_s median {before:.3f} -> {after:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
