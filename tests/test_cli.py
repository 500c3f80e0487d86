"""Command-line behavior: piping, formats, report stability, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import graph6_oracle_rows, graph6_oracle_write, random_graph

from trifree import __version__
from trifree.cli import EXIT_INTERNAL, build_parser, main
from trifree.families import andrasfai, cayley_6k, fig41, vega
from trifree.formats import (
    FormatError,
    parse_elist,
    parse_graph6,
    write_elist,
    write_graph6,
)
from trifree.graph import BlowupSpec, blowup, from_edge_list


def run_cli(args, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "trifree", *args],
        input=stdin, capture_output=True, text=True, timeout=300,
    )


def test_serialization_round_trip_200_random_graphs():
    rng = random.Random(401)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 14))
        assert parse_elist(write_elist(g)).adj == g.adj
        assert parse_graph6(write_graph6(g)).adj == g.adj


def test_graph6_hand_encodings():
    assert write_graph6(from_edge_list(2, [(0, 1)])) == "A_"
    assert write_graph6(from_edge_list(3, [(0, 1), (1, 2)])) == "Bg"
    assert write_graph6(from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])) == "Dhc"


@pytest.mark.parametrize("n", [1, 2, 62, 63, 64, 300, 1024])
def test_graph6_codec_matches_the_per_pair_reference(n):
    # 62 is the last order with a one-byte header, 63 the first with "~".
    rng = random.Random(n)
    for p in (0.0, 0.5, 1.0) if n <= 64 else (0.3,):
        g = random_graph(rng, n, p)
        text = write_graph6(g)
        assert text == graph6_oracle_write(g)
        assert (text[0] == "~") == (n > 62)
        assert parse_graph6(text).adj == graph6_oracle_rows(text) == g.adj
        assert parse_graph6(f"  {text}\n").adj == g.adj


@pytest.mark.parametrize("text, message", [
    ("?", "order must be in 1..1024, got 0"),
    ("~", "unsupported graph6 size form"),
    ("~??", "unsupported graph6 size form"),
    ("~~", "unsupported graph6 size form"),
    ("~???", "order must be in 1..1024, got 0"),
    ("A", "graph6 body for order 2 needs 1 bytes, got 0"),
    ("A_x", "graph6 body for order 2 needs 1 bytes, got 2"),
    ("B\u00e9", "graph6 bytes must be in the range 63..126"),
    ("A_ A_", "graph6 bytes must be in the range 63..126"),
    ("A~", "graph6 padding bits must be zero"),
])
def test_graph6_error_messages(text, message):
    with pytest.raises(FormatError) as caught:
        parse_graph6(text)
    assert str(caught.value) == message


def test_elist_rejects_malformed_input():
    for text in ("", "e 0 1", "p tf 2\ne 0 1\ne 0 1", "p tf two", "q tf 2",
                 "p tf 0", "p tf 1025", "p tf 100000000000000000000"):
        with pytest.raises(FormatError):
            parse_elist(text)
    # only ASCII decimal integers: bare int() takes underscores and other scripts' digits
    for text, message in (("p tf 1_0", "line 1: non-integer order '1_0'"),
                          ("p tf \u0663", "line 1: non-integer order '\u0663'"),
                          ("p tf 12\ne 0 1_1", "line 2: non-integer endpoint"),
                          ("p tf 12\ne \u0661 2", "line 2: non-integer endpoint")):
        with pytest.raises(FormatError) as caught:
            parse_elist(text)
        assert str(caught.value) == message
    assert parse_elist("p tf +3\ne 0 +2").edge_count == 1


def test_graph6_rejects_order_above_limit():
    # Long-form header ~ plus three bytes for order 1025, body all zeros.
    n = 1025
    header = "~" + "".join(chr((n >> shift & 0x3F) + 63) for shift in (12, 6, 0))
    body = "?" * ((n * (n - 1) // 2 + 5) // 6)
    with pytest.raises(FormatError):
        parse_graph6(header + body)


def test_gen_pipe_check_holds():
    gen = run_cli(["gen", "andrasfai", "--k", "2"])
    assert gen.returncode == 0
    check = run_cli(["check", "--d", "4"], stdin=gen.stdout)
    assert check.returncode == 0
    report = json.loads(check.stdout)
    assert report["command"] == "check"
    assert report["verdict"]["holds"] is True


def test_gen_fig41_check_fails_with_witness():
    gen = run_cli(["gen", "fig41"])
    check = run_cli(["check", "--d", "4"], stdin=gen.stdout)
    assert check.returncode == 1
    report = json.loads(check.stdout)
    assert report["verdict"]["holds"] is False
    assert report["verdict"]["witness"] is not None


def test_recognize_haggkvist_graph():
    gen = run_cli(["gen", "haggkvist"])
    rec = run_cli(["recognize"], stdin=gen.stdout)
    assert rec.returncode == 0
    report = json.loads(rec.stdout)
    assert report["certificate"]["family"] == {"i": 2, "kind": "vega", "mu": 1, "nu": 1}


def test_recognize_refutes_non_maximal_input():
    rec = run_cli(["recognize"], stdin="p tf 4\ne 0 1\ne 1 2\ne 2 3\n")
    assert rec.returncode == 1
    assert json.loads(rec.stdout)["refutation"]["kind"] == "not_maximal_triangle_free"


def test_graph6_format_flag():
    gen = run_cli(["gen", "andrasfai", "--k", "3", "--format", "graph6"])
    assert gen.returncode == 0 and gen.stdout.strip() == "GCrb`o"
    check = run_cli(["check", "--alpha", "--format", "graph6"], stdin=gen.stdout)
    assert check.returncode == 0
    assert json.loads(check.stdout)["verdict"]["alpha"] == 3


def test_gen_blowup_roundtrip():
    gen = run_cli(["gen", "andrasfai", "--k", "2"])
    big = run_cli(["gen", "blowup", "--weights", "2,2,2,2,2"], stdin=gen.stdout)
    assert big.returncode == 0
    rec = run_cli(["recognize"], stdin=big.stdout)
    report = json.loads(rec.stdout)
    assert report["certificate"]["family"] == {"k": 2, "kind": "andrasfai"}
    assert report["certificate"]["weights"] == [2, 2, 2, 2, 2]


def test_dot_export_carries_family_labels():
    dot = run_cli(["gen", "vega", "--i", "2", "--mu", "1", "--nu", "1", "--dot"])
    assert dot.returncode == 0
    for label in ('label="a"', 'label="w"', 'label="x"'):
        assert label in dot.stdout
    assert 'label="y"' not in dot.stdout  # deleted at mu=1


def test_census_reports_are_byte_identical():
    first = run_cli(["census", "--n", "7", "--assert"])
    second = run_cli(["census", "--n", "7", "--assert"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["count"] == 6
    assert all(row["d4"] == (row["recognized"] is not None) for row in report["rows"])


def test_census_assert_reports_the_first_violation(tmp_path, monkeypatch):
    import dataclasses

    import trifree.search as search_module

    genuine = search_module.census_row

    def doctored(g):  # K_{2,3} claims no level-4 covering, yet is recognized
        row = genuine(g)
        return dataclasses.replace(row, d4=False) if write_graph6(g) == "D]o" else row

    monkeypatch.setattr(search_module, "census_row", doctored)
    code, text = _report(tmp_path, ["census", "--n", "5", "--assert"])
    assert code == 1
    assert json.loads(text) == {
        "command": "census",
        "version": __version__,
        "n": 5,
        "violation": {
            "invariant": "level-4 covering iff recognized as a blow-up",
            "row": {
                "order": 5, "graph6": "D]o",
                "d2": True, "d3": True, "d4": False, "q4": True,
                "recognized": {"kind": "andrasfai", "k": 1},
                "induced_c6": False, "contains_upsilon": False,
            },
        },
    }


def test_census_n12_asserts_every_row():
    done = run_cli(["census", "--n", "12", "--allow-large", "--assert"])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    # OEIS A216783: 147 maximal triangle-free graphs on 12 vertices
    assert report["count"] == len(report["rows"]) == 147
    # the report of the level-by-level enumeration, before any pruning
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "df56f4e4f03dc7a6ecead8d7b9825b570a7e6403c0a6676378eb2cf536ae7fec")


@pytest.mark.slow
def test_census_n13_asserts_every_row():
    done = run_cli(["census", "--n", "13", "--allow-large", "--assert"])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    # OEIS A216783: 392 maximal triangle-free graphs on 13 vertices
    assert report["count"] == len(report["rows"]) == 392


@pytest.mark.slow
@pytest.mark.parametrize("flag", ["--d", "--q"])
def test_cayley_6k_20_fails_level_two(tmp_path, flag):
    source, out = tmp_path / "cayley20.txt", tmp_path / "report.json"
    source.write_text(write_elist(cayley_6k(20)))
    assert main(["check", flag, "4", "--in", str(source), "--out", str(out)]) == 1
    verdict = json.loads(out.read_text())["verdict"]
    assert not verdict["holds"] and verdict["level"] == 2
    assert verdict["witness"] == [int(v % 20 == 19) for v in range(120)]


def test_hunt_exits_clean_when_no_counterexamples():
    result = run_cli(["hunt", "--max-n", "7"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["counterexamples"] == []


def test_paper_verify_single_check():
    result = run_cli(["paper-verify", "--check", "edge_identity"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["failed"] == []
    assert report["checks"][0]["name"] == "edge_identity"
    assert report["checks"][0]["passed"] is True


def test_extremal_formula_and_search():
    result = run_cli(["extremal", "--n", "10", "--s", "5", "--search"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["formula_value"] == 25
    assert report["search"]["best_found"] == 25


def test_exit_codes():
    assert run_cli(["census"]).returncode == 2                      # missing --n
    assert run_cli(["paper-verify", "--check", "bogus"]).returncode == 2
    assert run_cli(["census", "--n", "3", "--format", "graph6"]).returncode == 2
    assert run_cli(["check", "--tf"], stdin="garbage\n").returncode == 3
    # stdin is ASCII, as --in PATH is: Arabic-Indic 3 (UTF-8 d9 a3) is no order
    arabic = subprocess.run([sys.executable, "-m", "trifree", "check", "--tf"],
                            input=b"p tf \xd9\xa3\n", capture_output=True, timeout=300)
    assert arabic.returncode == 3 and arabic.stdout == b""
    assert b"Traceback" not in arabic.stderr
    assert run_cli(["recognize"], stdin="p tf 1\n").returncode == 3  # too small
    assert run_cli(["census", "--n", "13"]).returncode == 3          # guard
    for order in ("1", "0", "-1"):                                   # below 2
        for command in (["census", "--n", order], ["hunt", "--max-n", order]):
            refused = run_cli(command)
            assert refused.returncode == 3 and refused.stdout == ""
            assert f"order must be at least 2, got {order}" in refused.stderr
    assert run_cli(["extremal", "--n", "10", "--s", "3"]).returncode == 3
    capped = run_cli(["extremal", "--n", "32", "--s", "12", "--search"])  # above --max-order
    assert capped.returncode == 3 and "Traceback" not in capped.stderr
    huge = run_cli(["check", "--tf"], stdin="p tf 100000000000000000000\n")
    assert huge.returncode == 3 and "Traceback" not in huge.stderr
    triangle = "p tf 3\ne 0 1\ne 0 2\ne 1 2\n"
    assert run_cli(["check", "--tf"], stdin=triangle).returncode == 1
    # one integer parser for options and weights: ASCII digits only, as in elist
    for command in (["census", "--n", "1_0"], ["gen", "andrasfai", "--k", "\u0663"],
                    ["extremal", "--n", "10", "--s", " 5"]):
        refused = run_cli(command)
        assert refused.returncode == 2 and refused.stdout == ""
        assert "invalid integer value" in refused.stderr
    for weights in ("1,a", "\u0661,2", "1_0,2"):
        refused = run_cli(["gen", "blowup", "--weights", weights], stdin="p tf 2\ne 0 1\n")
        assert refused.returncode == 3 and refused.stdout == ""
        assert "Traceback" not in refused.stderr


def test_failing_registry_check_exits_one(monkeypatch):
    import trifree.verify as verify_module

    monkeypatch.setitem(verify_module._REGISTRY, "automorphisms",
                        lambda: ({"reason": "forced"}, {}))
    assert main(["paper-verify", "--check", "automorphisms", "--out", "/dev/null"]) == 1


def test_internal_error_exits_four_without_a_traceback(monkeypatch, capsys):
    import trifree.search as search_module

    # every witness now fails its independence re-check
    monkeypatch.setattr(search_module, "independence_number", lambda g: (99, []))
    code = main(["extremal", "--n", "10", "--s", "5", "--search", "--out", "/dev/null"])
    assert code == EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "trifree: internal error: extremal witness failed re-validation\n"


def test_deep_recursion_exits_as_input_error():
    path = "p tf 1000\n" + "".join(f"e {v} {v + 1}\n" for v in range(999))
    result = run_cli(["check", "--d", "1"], stdin=path)
    assert result.returncode == 3
    assert "recursion limit" in result.stderr
    assert "Traceback" not in result.stderr


def test_alpha_of_a_long_path_answers():
    path = "p tf 1000\n" + "".join(f"e {v} {v + 1}\n" for v in range(999))
    result = run_cli(["check", "--alpha"], stdin=path)
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"]["alpha"] == 500
    assert "Traceback" not in result.stderr


def test_timings_flag_is_the_only_instability():
    plain = run_cli(["check", "--maximal"], stdin="p tf 2\ne 0 1\n")
    timed = run_cli(["check", "--maximal", "--timings"], stdin="p tf 2\ne 0 1\n")
    assert "elapsed" not in json.loads(plain.stdout)
    assert "elapsed" in json.loads(timed.stdout)


def test_timings_add_elapsed_to_each_check():
    plain = run_cli(["paper-verify", "--check", "c310"])
    timed = run_cli(["paper-verify", "--check", "c310", "--timings"])
    assert plain.returncode == timed.returncode == 0
    plain_check = json.loads(plain.stdout)["checks"][0]
    timed_check = json.loads(timed.stdout)["checks"][0]
    assert "elapsed" not in plain_check
    elapsed = timed_check.pop("elapsed")
    assert isinstance(elapsed, float) and elapsed >= 0
    assert timed_check == plain_check


def test_reports_use_sorted_keys():
    result = run_cli(["check", "--alpha"], stdin="p tf 2\ne 0 1\n")
    report = json.loads(result.stdout)
    assert list(report) == sorted(report)
    assert list(report["verdict"]) == sorted(report["verdict"])


def test_version_matches_pyproject():
    # a regex rather than tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert __version__ == re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
    result = run_cli(["check", "--tf"], stdin="p tf 2\ne 0 1\n")
    assert json.loads(result.stdout)["version"] == __version__
    assert run_cli(["--version"]).stdout == f"trifree {__version__}\n"


def test_main_entry_point_direct():
    assert main(["gen", "cube", "--out", "/dev/null"]) == 0


def _report(tmp_path, argv) -> tuple[int, str]:
    """Exit code and report text of one in-process command; "{name}" is a file."""
    out = tmp_path / "report.json"
    code = main([str(tmp_path / arg[1:-1]) if arg[0] == "{" else arg for arg in argv]
                + ["--out", str(out)])
    return code, out.read_text()


def test_reports_name_the_input_graph_in_graph6(tmp_path):
    inputs = {"fig41": fig41(),
              "blowup": blowup(BlowupSpec(andrasfai(3), (1, 2, 3, 1, 2, 3, 1, 2))),
              "triangle": from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])}
    for name, g in inputs.items():
        (tmp_path / name).write_text(write_elist(g))
    commands = [[*flags, "--in", "{" + name + "}"]
                for name in inputs
                for flags in (["check", "--tf"], ["check", "--maximal"], ["check", "--alpha"],
                              ["check", "--d", "4"], ["check", "--q", "4"], ["recognize"])]
    answers = set()
    for argv in commands:
        code, text = _report(tmp_path, argv)
        report = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        g = inputs[argv[-1][1:-1]]
        payload = report["graph"]
        assert sorted(payload) == ["graph6", "order", "size"]
        h = parse_graph6(payload["graph6"])
        assert h == g and (payload["order"], payload["size"]) == (g.n, g.edge_count)
        assert list(h.edges()) == list(g.edges())
        answers.add((argv[0], code))
    # both recognize answers, a certificate and a refutation, were read
    assert {("recognize", 0), ("recognize", 1)} <= answers


def test_large_input_report_stays_short(tmp_path):
    # one graph6 string, not four report lines per edge
    g = andrasfai(100)
    (tmp_path / "a100").write_text(write_elist(g))
    code, text = _report(tmp_path, ["check", "--maximal", "--in", "{a100}"])
    assert code == 0 and len(text.splitlines()) <= 20
    assert parse_graph6(json.loads(text)["graph"]["graph6"]) == g


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    (tmp_path / "vega").write_text(write_elist(vega(2, 0, 0)[0]))
    first = _report(tmp_path, ["check", "--d", "4", "--in", "{vega}"])
    assert first[0] == 0
    timed = _report(tmp_path, ["check", "--d", "4", "--timings", "--in", "{vega}"])
    assert "elapsed" in json.loads(timed[1])
    assert _report(tmp_path, ["check", "--d", "4", "--in", "{vega}"]) == first
    # a flag of the exclusive group does not stay set for the next parse
    assert _report(tmp_path, ["check", "--alpha", "--in", "{vega}"])[0] == 0
    assert _report(tmp_path, ["check", "--q", "4", "--in", "{vega}"])[0] == 0
    with pytest.raises(SystemExit) as usage:
        main(["check", "--in", str(tmp_path / "vega")])
    assert usage.value.code == 2 and "one of the arguments" in capsys.readouterr().err
    assert _report(tmp_path, ["check", "--d", "4", "--in", "{vega}"]) == first
    commands = ("gen", "check", "recognize", "census", "hunt", "paper-verify", "extremal")
    assert built == ["trifree"] + [f"trifree {name}" for name in commands]
