"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py``; every repetition gets its own process, so the module
caches in ``trifree.search`` never carry over from one repetition to the
next.  Set-up (importing trifree, building family members, writing the input
files) ends when the first operation starts.  Each operation goes through
``trifree.cli.main`` and writes its JSON report to a file.  The worker writes
``result.json`` into its work directory; ``run.py`` checks the reports.

    python3 perfbench/worker.py --workload census --seed 1 --workdir DIR \
        [--trace] [--smoke] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from trifree import cli
    import workloads

    ops = workloads.build(args.workload, args.seed, args.smoke,
                          os.path.join(args.workdir, "inputs"))
    reports = os.path.join(args.workdir, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(args.workdir, "manifest.json"), "w", encoding="ascii") as handle:
        json.dump(ops, handle)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {"first_op": time.monotonic()}
    if not args.setup_only:
        cpu_start = _cpu_seconds()
        outcomes = []
        for op in ops:
            outcome = {"id": op["id"], "rc": None, "error": None, "start": time.monotonic()}
            report = os.path.join(reports, op["id"] + ".json")
            try:
                if "call" in op:
                    payload = workloads.CALLS[op["call"]](op, reports)
                    with open(report, "w", encoding="ascii") as handle:
                        json.dump(payload, handle, sort_keys=True)
                    outcome["rc"] = 0
                else:
                    outcome["rc"] = cli.main([*op["argv"], "--out", report])
            except Exception as exc:  # the run goes on; the check counts it failed
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcome["wall_s"] = time.monotonic() - outcome.pop("start")
            outcomes.append(outcome)
        result["end"] = time.monotonic()
        result["cpu_s"] = _cpu_seconds() - cpu_start
        result["ops"] = outcomes
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(os.path.join(args.workdir, "spans"))
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="ascii") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
