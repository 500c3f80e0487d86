"""The lemma-check registry: completeness, payloads, selected check runs."""

from __future__ import annotations

import inspect
import json

import pytest

import trifree.families as families_module
import trifree.graph as graph_module
import trifree.verify as verify_module
from trifree.cli import main
from trifree.families import aux_paths, mycielski_grotzsch
from trifree.formats import parse_elist
from trifree.graph import Graph, twin_partition
from trifree.verify import (
    SEEDS,
    _REGISTRY,
    _nine_vertex_assert,
    check_names,
    run_check,
)

EXPECTED_CHECKS = [
    "c310", "degree_table", "edge_identity", "cube_lemma", "graph_n_lemma",
    "beautiful", "indep_classification", "no_small_neighborhood",
    "aux_embeddings", "gamma_twin_attach", "vega_twin_attach",
    "automorphisms", "cayley_d2", "kappa_blowup", "hexagon_prop",
]


def test_registry_is_complete():
    assert check_names() == EXPECTED_CHECKS


def test_unknown_check_name():
    with pytest.raises(KeyError):
        run_check("nonexistent")


def test_reports_carry_seeds_and_parameters(tmp_path):
    report = run_check("degree_table")
    assert report.name == "degree_table"
    assert report.passed and report.counterexample is None
    assert report.seed is None  # deterministic check
    seeded = run_check("gamma_twin_attach")
    assert seeded.seed == SEEDS["gamma_twin_attach"]
    assert set(SEEDS) == {"gamma_twin_attach", "vega_twin_attach"}
    # the pattern checks walk the templates alone and count the copies;
    # no template contains graph N, so graph_n_lemma holds vacuously
    for name, copies in (("cube_lemma", 0), ("graph_n_lemma", 0), ("beautiful", 2430)):
        pattern_report = run_check(name)
        assert pattern_report.passed and pattern_report.seed is None
        assert pattern_report.details == {"copies": copies}
    # the catalog is fixed, and the report keeps its empty parameter map
    out = tmp_path / "report.json"
    assert main(["paper-verify", "--check", "degree_table", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"][0]["parameters"] == {}


def test_no_small_neighborhood_checks_each_member_row(monkeypatch):
    report = run_check("no_small_neighborhood")
    assert report.passed and report.seed is None
    monkeypatch.setattr(verify_module, "_small_set", lambda lab, mask: True)
    mutant = run_check("no_small_neighborhood")
    assert not mutant.passed
    assert mutant.counterexample["i"] == 2 and mutant.counterexample["vertex"] == 0


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


def test_cube_lemma_failure_carries_the_embedding(monkeypatch):
    c5 = Graph(5, [1 << (v - 1) % 5 | 1 << (v + 1) % 5 for v in range(5)])
    monkeypatch.setattr(verify_module, "cube", lambda: c5)
    report = run_check("cube_lemma")
    assert not report.passed and report.details == {"copies": 1}
    counterexample = report.counterexample
    assert counterexample["member"] == "circulant k=2"  # andrasfai(2) is C5
    host = parse_elist(counterexample["graph"])
    embedding = counterexample["embedding"]
    assert len(set(embedding)) == 5
    for v in range(5):
        assert host.has_edge(embedding[v], embedding[(v + 1) % 5])
        assert not host.has_edge(embedding[v], embedding[(v + 2) % 5])


def test_twin_attach_checks_search_twin_free_hosts(monkeypatch):
    hosts = []
    original = graph_module.find_induced_all

    def recorded(host, pattern):
        hosts.append(host)
        return original(host, pattern)

    monkeypatch.setattr(graph_module, "find_induced_all", recorded)
    assert run_check("gamma_twin_attach").passed
    assert run_check("vega_twin_attach").passed
    assert hosts
    assert all(len(twin_partition(h).classes) == h.n for h in hosts)


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


def test_failure_payload_revalidates():
    # the nine-vertex pattern alone is not in the covered class, so its own
    # identity embedding violates the common-neighbor conclusion; this
    # exercises the payload plumbing with a genuine failure
    from trifree.families import graph_n

    host = graph_n()
    payload = _nine_vertex_assert(host, tuple(range(9)))
    assert payload is not None
    rebuilt = parse_elist(payload["graph"])
    assert rebuilt.adj == host.adj
    again = _nine_vertex_assert(rebuilt, tuple(payload["embedding"]))
    assert again is not None
    assert again["index"] == payload["index"]
