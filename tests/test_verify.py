"""The lemma-check registry: completeness, payloads, selected check runs."""

from __future__ import annotations

import inspect
import json

import pytest
from conftest import nine_vertex_assert

import trifree.families as families_module
import trifree.verify as verify_module
from trifree.cli import main
from trifree.families import andrasfai, aux_paths, cube, graph_n, mycielski_grotzsch
from trifree.formats import parse_graph6, write_graph6
from trifree.graph import Graph, from_edge_list, induced_copies
from trifree.properties import check_d, is_triangle_free, validate_d_witness
from trifree.search import census
from trifree.verify import _REGISTRY, check_names, run_check

EXPECTED_CHECKS = [
    "c310", "degree_table", "edge_identity", "cube_lemma", "graph_n_lemma",
    "beautiful", "indep_classification", "no_small_neighborhood",
    "aux_embeddings", "automorphisms", "cayley_d2", "kappa_blowup",
    "hexagon_prop",
]

C5 = Graph(5, [1 << (v - 1) % 5 | 1 << (v + 1) % 5 for v in range(5)])


def test_registry_is_complete():
    assert check_names() == EXPECTED_CHECKS


def test_unknown_check_name():
    with pytest.raises(KeyError):
        run_check("nonexistent")


def test_reports_carry_details_and_parameters(tmp_path):
    report = run_check("degree_table")
    assert report.name == "degree_table"
    assert report.passed and report.counterexample is None
    # the pattern checks walk the templates alone and count the copies; no
    # template contains the cube or graph N, and any copy would fail
    for name, copies in (("cube_lemma", 0), ("graph_n_lemma", 0), ("beautiful", 2430)):
        pattern_report = run_check(name)
        assert pattern_report.passed
        assert pattern_report.details == {"copies": copies}
    # the catalog is fixed, so a check report carries no parameter map
    out = tmp_path / "report.json"
    assert main(["paper-verify", "--check", "degree_table", "--out", str(out)]) == 0
    check = json.loads(out.read_text())["checks"][0]
    assert sorted(check) == ["counterexample", "details", "name", "passed"]


def test_no_small_neighborhood_checks_each_member_row(monkeypatch):
    report = run_check("no_small_neighborhood")
    assert report.passed
    monkeypatch.setattr(verify_module, "_small_set", lambda lab, mask: True)
    mutant = run_check("no_small_neighborhood")
    assert not mutant.passed
    assert mutant.counterexample["i"] == 2 and mutant.counterexample["vertex"] == 0


def test_indep_classification_failure_names_the_member_and_set(monkeypatch):
    monkeypatch.setattr(verify_module, "_classify_independent", lambda g, lab, mask: False)
    report = run_check("indep_classification")
    assert not report.passed
    counterexample = report.counterexample
    assert (counterexample["i"], counterexample["mu"], counterexample["nu"]) == (2, 0, 0)
    assert counterexample["independent_set"] == [0, 1, 6, 9]


def test_beautiful_failure_names_the_first_member_with_a_copy(monkeypatch):
    # the circulants are 3-colourable, so the first copy lies in a hexagon member
    monkeypatch.setattr(verify_module, "_beautiful_assert", lambda host, emb: {"forced": True})
    report = run_check("beautiful")
    assert not report.passed and report.details == {"copies": 1}
    assert report.counterexample == {"forced": True, "member": "hexagon i=2 mu=0 nu=0"}


def test_registry_takes_no_knobs():
    for name, check in _REGISTRY.items():
        assert not inspect.signature(check).parameters, name
    assert list(inspect.signature(run_check).parameters) == ["name"]


def test_aux_embeddings_builds_each_member_once(monkeypatch):
    calls = 0
    original = families_module.vega

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(families_module, "vega", counted)
    monkeypatch.setattr(verify_module, "vega", counted)
    assert run_check("aux_embeddings").passed
    assert calls == 16  # i = 2..5, mu and nu in {0, 1}


def test_aux_embeddings_failure_names_the_path(monkeypatch):
    first = aux_paths(2, 0, 0)[0].labels
    pattern, labeling = mycielski_grotzsch()
    u, v = next(pattern.edges())
    rows = list(pattern.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    # with one pattern edge gone, no path's copy is induced
    monkeypatch.setattr(families_module, "mycielski_grotzsch",
                        lambda: (Graph(11, rows), labeling))
    report = run_check("aux_embeddings")
    assert not report.passed
    counterexample = report.counterexample
    assert (counterexample["i"], counterexample["mu"], counterexample["nu"]) == (2, 0, 0)
    assert str(list(first)) in counterexample["reason"]


def _assert_induced_c5_copy(counterexample):
    assert counterexample["member"] == "circulant k=2"  # andrasfai(2) is C5
    payload = counterexample["graph"]
    host = parse_graph6(payload["graph6"])
    assert host == andrasfai(2) and list(host.edges()) == list(andrasfai(2).edges())
    assert (payload["order"], payload["size"]) == (5, 5)
    embedding = counterexample["embedding"]
    assert len(set(embedding)) == 5
    for v in range(5):
        assert host.has_edge(embedding[v], embedding[(v + 1) % 5])
        assert not host.has_edge(embedding[v], embedding[(v + 2) % 5])


def test_cube_lemma_failure_carries_the_embedding(monkeypatch):
    monkeypatch.setattr(verify_module, "cube", lambda: C5)
    report = run_check("cube_lemma")
    assert not report.passed and report.details == {"copies": 1}
    assert report.counterexample["reason"] == "induced cube found"
    _assert_induced_c5_copy(report.counterexample)


def test_graph_n_lemma_failure_carries_the_embedding(monkeypatch):
    monkeypatch.setattr(verify_module, "graph_n", lambda: C5)
    report = run_check("graph_n_lemma")
    assert not report.passed and report.details == {"copies": 1}
    assert report.counterexample["reason"] == "induced graph N found"
    _assert_induced_c5_copy(report.counterexample)


def test_deletion_pair_check_details():
    report = run_check("c310")
    assert report.passed
    pairs = report.details["pairs"]["2"]
    # the defining deletion pair: the last red-adjacent inner vertex with
    # the apex, and its images under the symmetries
    assert [3, 12] in pairs
    assert sorted(map(tuple, pairs)) == [(0, 11), (0, 12), (3, 11), (3, 12)]


def test_automorphism_orders_check():
    report = run_check("automorphisms")
    assert report.passed
    assert report.details["orders"] == {
        "2,0,0": 8, "2,1,1": 10, "3,0,0": 4, "3,0,1": 4, "3,1,0": 2, "3,1,1": 2,
    }


def test_edge_identity_details():
    report = run_check("edge_identity")
    assert report.passed
    assert report.details["differences"] == {2: 8, 3: 9, 4: 10, 5: 11, 6: 12}


def test_kappa_and_cayley_checks():
    assert run_check("kappa_blowup").passed
    assert run_check("cayley_d2").passed


def _census_rows_with(pattern, orders):
    return [row for n in orders for row in census(n, allow_large=True)
            if next(induced_copies(row.graph, pattern), None) is not None]


def _assert_graph_n_rows_fail_level_two(rows):
    """Every copy of N in these rows fails the nine-vertex assertion, and
    every row fails level 2: the lemma's hypothesis is what excludes them."""
    for row in rows:
        copies = list(induced_copies(row.graph, graph_n()))
        assert len(copies) == 120
        assert all(nine_vertex_assert(row.graph, emb) is not None for emb in copies)
        verdict = check_d(row.graph, 4)
        assert not verdict.holds and verdict.level == 2
        assert validate_d_witness(row.graph, 2, verdict.witness)


def test_nine_vertex_assertion_holds_with_common_neighbours():
    n = graph_n()
    assert nine_vertex_assert(n, tuple(range(9))) == 0
    # x_i joined to a_i, b_i, c_{i-1}, c_{i+1}, an independent set of N
    edges = list(n.edges())
    for i in range(3):
        edges += [(9 + i, v) for v in (i, 3 + i, 6 + (i - 1) % 3, 6 + (i + 1) % 3)]
    host = from_edge_list(12, edges)
    assert is_triangle_free(host)
    assert nine_vertex_assert(host, tuple(range(9))) is None


def test_census_rows_with_graph_n_fail_level_two():
    rows = _census_rows_with(graph_n(), range(2, 11))
    assert [write_graph6(row.graph) for row in rows] == ["I?LRCecq?"]
    _assert_graph_n_rows_fail_level_two(rows)
    assert check_d(rows[0].graph, 4).witness == (0, 0, 1, 1, 0, 1, 1, 1, 1, 0)
    assert _census_rows_with(cube(), range(2, 11)) == []


def test_census_rows_with_graph_n_fail_level_two_n11():
    rows = _census_rows_with(graph_n(), [11])
    assert [write_graph6(row.graph) for row in rows] == ["J@Q??|eiec?", "J@HIcUSwF??"]
    _assert_graph_n_rows_fail_level_two(rows)
    assert _census_rows_with(cube(), [11]) == []
