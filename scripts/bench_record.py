#!/usr/bin/env python3
"""Fold the perfbench records of a parent and a changed checkout into one file.

    python3 scripts/bench_record.py --parent PARENT_DIR --change CHANGE_DIR \\
        --seeds 1 2 3 --out BENCH_<n>.json

Each checkout must hold the untraced records that
``python3 perfbench/run.py --workload W --seed S --trace 0`` writes to
``.perfbench/results/W-seedS-trace0.json``.  For each side the output keeps
the commit, Python version and nproc of its runs, and for each workload the
``result.metrics`` and failure counts of every seed with the median of each
metric over the seeds.  ``op_wall_s`` gives each operation's median wall
time over the seeds, each seed counting as the median of its repetitions
(``repetitions[].op_wall_s``), so the file shows which operations moved.
When the traced record of the first seed
(``W-seedS-trace1.json``, from ``--trace 1``) is there too, its ``.calls``
counters sit next to the medians under ``calls``.  ``reports_differ`` lists,
per workload, the operations whose report sha256 (``repetitions[].sha256`` of
the untraced records) differs between the two checkouts on some seed; an
empty list means every report was byte-identical.  ``wall_s`` gives, per
workload, each side's wall_s quartiles over the seeds and the number of
seeds on which the change ran faster than the parent (ties count for
neither), which is what a claimed gain is judged by.  Stdlib only; it does
not import trifree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

WORKLOADS = ("census", "covering", "paper", "recognize")
SAME_FOR_EVERY_RUN = ("commit", "python", "nproc")


def _path(checkout: str, workload: str, seed: int, trace: int) -> str:
    return os.path.join(checkout, ".perfbench", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")


def _record(checkout: str, workload: str, seed: int, side: dict, trace: int = 0) -> dict:
    """One run's record, after checking that it is a measurement of the same
    commit, Python and nproc as the side's other runs."""
    path = _path(checkout, workload, seed, trace)
    with open(path, encoding="ascii") as handle:
        record = json.load(handle)
    if record["environment"]["smoke"]:
        raise SystemExit(f"{path}: a smoke run, not a measurement")
    for key in SAME_FOR_EVERY_RUN:
        seen = record["environment"][key]
        if side[key] is None:
            side[key] = seen
        elif side[key] != seen:
            raise SystemExit(f"{path}: {key} {seen!r}, other runs {side[key]!r}")
    return record


def fold(checkout: str, workloads, seeds) -> dict:
    """The records of one checkout, by workload and seed."""
    side: dict = {key: None for key in SAME_FOR_EVERY_RUN}
    side["workloads"] = {}
    for workload in workloads:
        runs, op_walls = [], []
        for seed in seeds:
            record = _record(checkout, workload, seed, side)
            result, reps = record["result"], record["repetitions"]
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": result["metrics"]})
            op_walls.append({op: statistics.median(rep["op_wall_s"][op] for rep in reps)
                             for op in reps[0]["op_wall_s"]})
        median = {name: statistics.median(run["metrics"][name]["value"] for run in runs)
                  for name in runs[0]["metrics"]}
        side["workloads"][workload] = {
            "median": median, "runs": runs,
            "op_wall_s": {op: statistics.median(walls[op] for walls in op_walls)
                          for op in op_walls[0]}}
        if os.path.exists(_path(checkout, workload, seeds[0], 1)):
            metrics = _record(checkout, workload, seeds[0], side, trace=1)["result"]["metrics"]
            side["workloads"][workload]["calls"] = {
                name: metric["value"] for name, metric in metrics.items()
                if name.endswith(".calls")}
    return side


def _digests(checkout: str, workload: str, seed: int) -> dict[str, set[str]]:
    """The report sha256 of each operation, over the repetitions of one run."""
    with open(_path(checkout, workload, seed, 0), encoding="ascii") as handle:
        repetitions = json.load(handle)["repetitions"]
    seen: dict[str, set[str]] = {}
    for repetition in repetitions:
        for op, digest in repetition["sha256"].items():
            seen.setdefault(op, set()).add(digest)
    return seen


def reports_differ(parent: str, change: str, workloads, seeds) -> dict[str, list[str]]:
    """Per workload, the operations whose reports differ between the
    checkouts on some seed (an operation with no report on one side
    differs)."""
    differ = {}
    for workload in workloads:
        ops = set()
        for seed in seeds:
            before = _digests(parent, workload, seed)
            after = _digests(change, workload, seed)
            ops.update(op for op in before.keys() | after.keys()
                       if before.get(op) != after.get(op))
        differ[workload] = sorted(ops)
    return differ


def _quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile, inclusive of the ends."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def wall_s(parent: dict, change: dict, workloads) -> dict:
    """Per workload, both sides' wall_s quartiles and the seeds the change won."""
    summary = {}
    for workload in workloads:
        before, after = ([run["metrics"]["wall_s"]["value"]
                          for run in side["workloads"][workload]["runs"]]
                         for side in (parent, change))
        summary[workload] = {"parent_quartiles": _quartiles(before),
                             "change_quartiles": _quartiles(after),
                             "change_won": sum(a < b for a, b in zip(after, before)),
                             "seeds": len(before)}
    return summary


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
        "reports_differ": reports_differ(args.parent, args.change, WORKLOADS, args.seeds),
    }
    folded["wall_s"] = wall_s(folded["parent"], folded["change"], WORKLOADS)
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(folded, handle, indent=1)
        handle.write("\n")
    for workload in WORKLOADS:
        wall = folded["wall_s"][workload]
        before, after = ("/".join(f"{q:.3f}" for q in wall[side])
                         for side in ("parent_quartiles", "change_quartiles"))
        differ = folded["reports_differ"][workload]
        print(f"{workload}: wall_s quartiles {before} -> {after}, change won "
              f"{wall['change_won']} of {wall['seeds']} seeds, "
              f"reports differ: {differ or 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
