"""The trifree benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Each repetition runs every operation of the workload once, in a fresh
interpreter (``worker.py``): a closed loop with one client, operations back
to back.  Untraced, repetitions follow one another while the next one is
expected to end within ``--seconds`` (there is always at least one), and
``SETUP_SAMPLES`` more interpreters only do the set-up.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics, medians over the repetitions.  Traced (``--trace 1``), the
run makes one untraced and two traced repetitions and reports the per-layer
metrics; the ``.calls`` counts of the two traced repetitions must agree.

The full record of a run (environment, load average, every repetition, the
sha256 of every report, failures) is written to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json`` in the checkout,
next to the spans of the traced repetitions.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
from spans import TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("census", "covering", "paper", "recognize")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # a run must end within 180 s
ENUMERATION_ORDERS = (8, 9, 10)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


class Run:
    """The repetitions of one workload and their checked outcomes."""

    def __init__(self, args, started: float) -> None:
        self.args = args
        self.started = started
        self.name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
            "-smoke" if args.smoke else "")
        self.workdir = os.path.join(STATE, f"work-{self.name}-{os.getpid()}")
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, set[str]] = {}

    def _spawn(self, directory: str, *flags: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchmarkError("out of time before a repetition could start")
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", self.args.workload, "--seed", str(self.args.seed),
                   "--workdir", directory, *flags]
        if self.args.smoke:
            command.append("--smoke")
        spawned = time.monotonic()
        try:
            done = subprocess.run(command, cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchmarkError("a repetition overran the deadline") from None
        if done.returncode != 0:
            raise BenchmarkError(f"worker exited with code {done.returncode}")
        with open(os.path.join(directory, "result.json"), encoding="ascii") as handle:
            result = json.load(handle)
        result["setup_s"] = result["first_op"] - spawned
        self.setups.append(result["setup_s"])
        return result

    def repetition(self, traced: bool) -> dict:
        begun = time.monotonic()
        index = len(self.reps)
        directory = os.path.join(self.workdir, f"rep{index}")
        result = self._spawn(directory, *(["--trace"] if traced else []))
        with open(os.path.join(directory, "manifest.json"), encoding="ascii") as handle:
            ops = json.load(handle)
        outcomes = {o["id"]: o for o in result["ops"]}
        digests = {}
        for op in ops:
            self.attempted += 1
            outcome = outcomes[op["id"]]
            path = os.path.join(directory, "reports", op["id"] + ".json")
            problem = outcome["error"]
            if problem is None:
                try:
                    with open(path, "rb") as handle:
                        raw = handle.read()
                except OSError as exc:
                    problem = f"no report: {exc}"
                else:
                    digests[op["id"]] = hashlib.sha256(raw).hexdigest()
                    self.digests.setdefault(op["id"], set()).add(digests[op["id"]])
                    problem = checks.check_op(op, outcome["rc"], json.loads(raw))
            if problem is not None:
                self.failures.append({"repetition": index, "op": op["id"], "why": problem})
        rep = {
            "traced": traced,
            "wall_s": result["end"] - result["first_op"],
            "cpu_s": result["cpu_s"],
            "setup_s": result["setup_s"],
            "peak_rss_mib": result["maxrss_kib"] / 1024,
            "operations": len(ops),
            "sha256": digests,
            "op_wall_s": {o["id"]: o["wall_s"] for o in result["ops"]},
        }
        if traced:
            rep["trace"] = result["trace"]
            os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
            for suffix in (".bin", ".json"):
                os.replace(os.path.join(directory, "spans" + suffix), os.path.join(
                    STATE, "results", f"{self.name}-rep{index}.spans{suffix}"))
        shutil.rmtree(directory)
        rep["took_s"] = time.monotonic() - begun
        self.reps.append(rep)
        return rep

    def setup_only(self) -> None:
        directory = os.path.join(self.workdir, f"setup{len(self.setups)}")
        self._spawn(directory, "--setup-only")
        shutil.rmtree(directory)


def _untraced(run: Run, seconds: float) -> dict:
    # Set-up samples go on both sides of the repetitions, so that a slow
    # spell of the host does not fall on all of them.
    for _ in range(SETUP_SAMPLES // 2):
        run.setup_only()
    while True:
        took = run.repetition(traced=False)["took_s"]
        if time.monotonic() - run.started + took > seconds:
            break
    for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        run.setup_only()
    reps = run.reps
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in reps), "MiB"),
    }


def _traced(run: Run) -> tuple[dict, list[str]]:
    plain = run.repetition(traced=False)
    traced = [run.repetition(traced=True)]
    # The second traced repetition checks that the counts repeat; it is
    # skipped only when it would overrun the deadline (the record lists the
    # repetitions made).
    if time.monotonic() - run.started + 1.2 * traced[0]["took_s"] < DEADLINE_S:
        traced.append(run.repetition(traced=True))
    summaries = [r["trace"] for r in traced]
    problems = []
    for key in ("calls", "enumerated", "canonical_in_enumeration"):
        if any(s[key] != summaries[0][key] for s in summaries):
            problems.append(f"traced repetitions disagree on {key}")
    first = summaries[0]
    metrics = {}
    for target in TARGETS:
        metrics[f"{target}.calls"] = (first["calls"][target], "count")
        metrics[f"{target}.self_s"] = (
            statistics.median(s["self_s"][target] for s in summaries), "s")
    for n in ENUMERATION_ORDERS:
        metrics[f"search.enumerate_maximal_tf.n{n}.self_s"] = (statistics.median(
            s["enumerate_self_s_by_order"].get(str(n), 0.0) for s in summaries), "s")
    canonical = first["canonical_in_enumeration"]
    metrics["search.enumerate_maximal_tf.yield"] = (
        first["enumerated"] / canonical if canonical else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - plain["wall_s"], "s")
    return metrics, problems


def run_workload(args) -> dict:
    """One run of one workload; returns the result line and writes the record."""
    started = time.monotonic()
    run = Run(args, started)
    record = {"environment": _environment(args), "load_before": os.getloadavg()}
    problems: list[str] = []
    try:
        if args.trace:
            metrics, problems = _traced(run)
        else:
            metrics = _untraced(run, args.seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    record["load_after"] = os.getloadavg()
    record["elapsed_s"] = time.monotonic() - started
    unstable = sorted(op for op, seen in run.digests.items() if len(seen) > 1)
    record.update(repetitions=run.reps, setup_samples=run.setups, failures=run.failures,
                  self_check_problems=problems, reports_changing_between_repetitions=unstable)
    failed = len(run.failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    record["failed_ratio"] = failed / run.attempted
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", run.name + ".json"), "w",
              encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    for failure in run.failures:
        print(f"perfbench: {failure['op']} failed: {failure['why']}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: self-check: {problem}", file=sys.stderr)
    return result


def _declared_metrics() -> dict[int, set[str]] | None:
    """Metric names that BENCHMARK.json declares, by trace mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError:
        return None
    return {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}


def self_test() -> int:
    """Every workload in smoke form, untraced and traced; a few seconds."""
    ok = True
    declared = _declared_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace,
                                      smoke=True)
            result = run_workload(args)
            ok &= result["correct"]
            if declared is not None and set(result["metrics"]) != declared[trace]:
                print(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
                ok = False
            line = f"{workload} trace={trace}: correct={result['correct']} " \
                   f"attempted={result['attempted']} failed={result['failed']}"
            if trace:
                selfs = {k[:-7]: v["value"] for k, v in result["metrics"].items()
                         if k.endswith(".self_s") and k.count(".") == 2}
                top = sorted(selfs, key=selfs.get, reverse=True)[:3]
                line += " top self time: " + ", ".join(top)
            print(line)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced operations, same code paths")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload in smoke form, untraced and traced")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "trifree", "cli.py")):
        print("perfbench: no trifree sources under src/trifree", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
