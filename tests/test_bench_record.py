"""``scripts/bench_record.py`` folds two checkouts' perfbench records.

The script is loaded by path, as it is not part of the package.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_record(checkout: Path, workload: str, seed: int, wall: float, commit: str,
                  smoke: bool = False, trace: int = 0, metrics=None, digests=None,
                  op_walls=None) -> None:
    digests = digests or [{"op": "same"}]
    op_walls = op_walls or [dict.fromkeys(reps, wall) for reps in digests]
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": {"python": "3.11.7", "commit": commit, "nproc": 2,
                        "workload": workload, "seed": seed, "smoke": smoke},
        "result": {"correct": True, "attempted": 4, "failed": 0,
                   "metrics": metrics or {"wall_s": {"value": wall, "unit": "s"}}},
        "repetitions": [{"sha256": reps, "op_wall_s": walls}
                        for reps, walls in zip(digests, op_walls)],
    }
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_fold_keeps_metrics_and_medians(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    script = _script()
    for workload in script.WORKLOADS:
        for seed, before, after in ((1, 14.0, 0.3), (2, 13.0, 0.2), (3, 15.0, 0.4)):
            _write_record(parent, workload, seed, before, "aaa")
            _write_record(change, workload, seed, after, "bbb")
    out = tmp_path / "BENCH.json"
    assert script.main(["--parent", str(parent), "--change", str(change),
                        "--seeds", "1", "2", "3", "--out", str(out)]) == 0
    folded = json.loads(out.read_text())
    assert folded["parent"]["commit"] == "aaa" and folded["change"]["nproc"] == 2
    covering = folded["change"]["workloads"]["covering"]
    assert covering["median"] == {"wall_s": 0.3}
    assert [run["metrics"]["wall_s"]["value"] for run in covering["runs"]] == [0.3, 0.2, 0.4]
    assert folded["parent"]["workloads"]["covering"]["median"]["wall_s"] == 14.0
    assert folded["reports_differ"] == {workload: [] for workload in script.WORKLOADS}
    assert folded["wall_s"]["census"] == {"parent_quartiles": [13.5, 14.0, 14.5],
                                          "change_quartiles": [0.25, 0.3, 0.35],
                                          "change_won": 3, "seeds": 3}


def test_wall_s_counts_the_seeds_the_change_won(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    script = _script()
    # the change wins seeds 1 and 4, ties seed 2 and loses seed 3
    pairs = {1: (1.0, 0.5), 2: (2.0, 2.0), 3: (3.0, 3.5), 4: (4.0, 1.0)}
    for workload in script.WORKLOADS:
        for seed, (before, after) in pairs.items():
            _write_record(parent, workload, seed, before, "aaa")
            _write_record(change, workload, seed, after, "bbb")
    out = tmp_path / "BENCH.json"
    assert script.main(["--parent", str(parent), "--change", str(change),
                        "--seeds", "1", "2", "3", "4", "--out", str(out)]) == 0
    wall = json.loads(out.read_text())["wall_s"]["paper"]
    assert wall == {"parent_quartiles": [1.75, 2.5, 3.25],
                    "change_quartiles": [0.875, 1.5, 2.375],
                    "change_won": 2, "seeds": 4}
    assert ("paper: wall_s quartiles 1.750/2.500/3.250 -> 0.875/1.500/2.375, "
            "change won 2 of 4 seeds, reports differ: none") in capsys.readouterr().err
    one = script.fold(str(parent), ["census"], [3])
    assert script.wall_s(one, one, ["census"])["census"] == {
        "parent_quartiles": [3.0, 3.0, 3.0], "change_quartiles": [3.0, 3.0, 3.0],
        "change_won": 0, "seeds": 1}


def test_reports_differ_names_the_changed_operations(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    script = _script()
    same = {"a": "1", "b": "2", "c": "3"}
    # seed 1: b differs in one repetition; seed 2: c has no report on the change
    _write_record(parent, "recognize", 1, 1.0, "aaa", digests=[same, same])
    _write_record(change, "recognize", 1, 1.0, "bbb", digests=[same, {**same, "b": "9"}])
    _write_record(parent, "recognize", 2, 1.0, "aaa", digests=[same])
    _write_record(change, "recognize", 2, 1.0, "bbb", digests=[{"a": "1", "b": "2"}])
    _write_record(parent, "covering", 1, 1.0, "aaa", digests=[same])
    _write_record(change, "covering", 1, 1.0, "bbb", digests=[same, same])
    assert script.reports_differ(str(parent), str(change), ["recognize"], [1]) == {
        "recognize": ["b"]}
    assert script.reports_differ(str(parent), str(change), ["recognize", "covering"], [1]) == {
        "recognize": ["b"], "covering": []}
    assert script.reports_differ(str(parent), str(change), ["recognize"], [1, 2]) == {
        "recognize": ["b", "c"]}


def test_fold_refuses_mixed_commits_and_smoke_runs(tmp_path):
    script = _script()
    _write_record(tmp_path, "covering", 1, 1.0, "aaa")
    _write_record(tmp_path, "covering", 2, 1.0, "bbb")
    with pytest.raises(SystemExit, match="commit"):
        script.fold(str(tmp_path), ["covering"], [1, 2])
    _write_record(tmp_path, "census", 1, 1.0, "aaa", smoke=True)
    with pytest.raises(SystemExit, match="smoke"):
        script.fold(str(tmp_path), ["census"], [1])


def test_fold_adds_the_traced_calls_of_the_first_seed(tmp_path):
    script = _script()
    traced = {"properties.check_d.calls": {"value": 6, "unit": "count"},
              "properties.check_d.self_s": {"value": 0.5, "unit": "s"},
              "trace.overhead_s": {"value": 0.1, "unit": "s"}}
    for seed in (1, 2):
        _write_record(tmp_path, "recognize", seed, 1.0, "aaa")
        _write_record(tmp_path, "covering", seed, 1.0, "aaa")
    _write_record(tmp_path, "recognize", 1, 0.0, "aaa", trace=1, metrics=traced)
    _write_record(tmp_path, "covering", 2, 0.0, "aaa", trace=1, metrics=traced)
    side = script.fold(str(tmp_path), ["recognize", "covering"], [1, 2])
    assert side["workloads"]["recognize"]["calls"] == {"properties.check_d.calls": 6}
    assert side["workloads"]["recognize"]["median"] == {"wall_s": 1.0}
    # only the first seed's traced run counts
    assert "calls" not in side["workloads"]["covering"]
    _write_record(tmp_path, "recognize", 1, 0.0, "bbb", trace=1, metrics=traced)
    with pytest.raises(SystemExit, match="commit"):
        script.fold(str(tmp_path), ["recognize"], [1, 2])


def test_fold_gives_the_median_wall_time_of_each_operation(tmp_path):
    script = _script()
    digests = [{"a": "1", "b": "2"}] * 3
    # seed 1: medians a 0.3, b 2.0; seed 2: a 0.1, b 4.0; seed 3: a 0.2, b 1.0
    walls = {1: [{"a": 0.3, "b": 1.0}, {"a": 0.5, "b": 2.0}, {"a": 0.1, "b": 3.0}],
             2: [{"a": 0.1, "b": 4.0}] * 3,
             3: [{"a": 0.2, "b": 1.0}, {"a": 0.2, "b": 9.0}, {"a": 0.9, "b": 0.5}]}
    for seed, op_walls in walls.items():
        _write_record(tmp_path, "recognize", seed, 1.0, "aaa", digests=digests,
                      op_walls=op_walls)
    side = script.fold(str(tmp_path), ["recognize"], [1, 2, 3])
    assert side["workloads"]["recognize"]["op_wall_s"] == {"a": 0.2, "b": 2.0}
    one = script.fold(str(tmp_path), ["recognize"], [2])
    assert one["workloads"]["recognize"]["op_wall_s"] == {"a": 0.1, "b": 4.0}
