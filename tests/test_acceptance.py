"""End-to-end acceptance run: one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; each criterion is its own test so a plain ``pytest -v`` gives the
same verdict per line.  Budgets are asserted inside the criterion blocks
(the census criterion only reports its time).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest
from conftest import direct_covering_oracle, petersen, random_graph

from trifree.families import (
    VegaId,
    andrasfai,
    cayley_6k,
    extremal_formula,
    fig41,
    haggkvist_spec,
    mycielski_grotzsch,
    named_maps,
    vega,
)
from trifree.formats import parse_elist, parse_graph6, write_elist, write_graph6
from trifree.graph import (
    BlowupSpec,
    blowup,
    find_induced,
    from_edge_list,
    isomorphic,
    automorphism_order,
    relabel,
    twin_partition,
)
from trifree.properties import (
    check_d,
    check_q,
    independence_number,
    is_maximal_triangle_free,
    is_triangle_free,
    validate_d_witness,
    validate_q_witness,
)
from trifree.recognition import D4_FAILS, RecognitionCertificate, certify, recognize
from trifree.search import census, check_census_row, enumerate_maximal_tf, search_extremal
from trifree.verify import check_names, run_all


@contextmanager
def criterion(num: int, desc: str, budget: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num}: PASS - {desc} ({elapsed:.1f}s)", flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def _cycle(n: int):
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def _twin_free(g) -> bool:
    return all(len(c) == 1 for c in twin_partition(g).classes)


def test_criterion_1_family_suite():
    with criterion(1, "circulant family shape, k <= 8", budget=10.0):
        hexagon = _cycle(6)
        for k in range(1, 9):
            g = andrasfai(k)
            assert g.n == 3 * k - 1
            assert all(g.degree(v) == k for v in range(g.n))
            assert is_maximal_triangle_free(g).holds
            assert _twin_free(g)
            assert find_induced(g, hexagon) is None
            assert check_d(g, 4).holds
        assert isomorphic(andrasfai(1), from_edge_list(2, [(0, 1)]))
        assert isomorphic(andrasfai(2), _cycle(5))


def test_criterion_2_vega_suite():
    with criterion(2, "Vega family suite, i <= 5", budget=60.0):
        hexagon = _cycle(6)
        grotzsch = mycielski_grotzsch()[0]
        for i in range(2, 6):
            for mu in (0, 1):
                for nu in (0, 1):
                    g, _ = vega(i, mu, nu)
                    assert is_maximal_triangle_free(g).holds
                    assert _twin_free(g)
                    assert check_d(g, 4).holds
                    assert check_q(g, 4).holds
                    assert find_induced(g, hexagon) is not None
                    assert find_induced(g, grotzsch) is not None
                    expected_names = set()
                    if mu == 0:
                        expected_names.add("sigma")
                    expected_names.add("tau1" if nu else "tau0")
                    if i == 2:
                        expected_names.add("rho")
                    maps = named_maps(i, mu, nu)
                    assert {m.name for m in maps} == expected_names
                    for m in maps:
                        src = vega(m.source.i, m.source.mu, m.source.nu)[0]
                        dst = vega(m.target.i, m.target.mu, m.target.nu)[0]
                        assert relabel(src, m.perm) == dst
                        if m.name == "rho":
                            assert m.target == VegaId(2, nu, mu)
                        else:
                            assert m.target == m.source

        for i in range(2, 6):  # degree table of the undeleted variant
            g, lab = vega(i, 0, 0)
            for pos in (lab.a, lab.b, lab.u, lab.v):
                assert g.degree(pos) == i + 3
            for pos in (lab.c, lab.w, *lab.red, *lab.green, *lab.blue):
                assert g.degree(pos) == i + 2
            assert g.degree(lab.x) == 4 and g.degree(lab.y) == 4

        assert isomorphic(vega(2, 1, 1)[0], grotzsch)
        orders = {(2, 0, 0): 8, (2, 1, 1): 10, (3, 0, 0): 4,
                  (3, 0, 1): 4, (3, 1, 0): 2, (3, 1, 1): 2}
        for (i, mu, nu), expected in orders.items():
            assert automorphism_order(vega(i, mu, nu)[0]) == expected


def test_criterion_3_haggkvist_expansion():
    with criterion(3, "29-vertex degree-threshold witness", budget=5.0):
        g = blowup(haggkvist_spec())
        assert g.n == 29
        assert all(g.degree(v) == 10 for v in range(g.n))
        assert 3 * 10 > g.n  # minimum degree above a third of the order
        assert independence_number(g)[0] == 10
        result = recognize(g)
        assert isinstance(result, RecognitionCertificate)
        assert result.family == VegaId(2, 1, 1)
        assert certify(g, result)


def test_criterion_4_census():
    with criterion(4, "exhaustive census, n <= 10", budget=None):
        for n in range(2, 11):
            for row in census(n):
                assert check_census_row(row) is None
                assert row.d4 == (row.recognized is not None)
                assert row.q4 == row.d4
                andrasfai_cert = row.recognized is not None and not isinstance(
                    row.recognized, VegaId
                )
                assert (not row.induced_c6) == andrasfai_cert
                if row.d3 and row.induced_c6:
                    assert row.contains_upsilon


def test_criterion_4_census_n11():
    with criterion(4, "optional census extension, n = 11", budget=None):
        for row in census(11, allow_large=True):
            assert check_census_row(row) is None
            assert row.d4 == (row.recognized is not None)
            assert row.q4 == row.d4


def test_criterion_5_counterexample_fixtures():
    with criterion(5, "counterexample fixtures", budget=5.0):
        f = fig41()
        assert is_triangle_free(f)[0]
        assert all(f.degree(v) == 4 for v in range(f.n))
        assert independence_number(f)[0] == 4
        verdict = check_d(f, 4)
        assert not verdict.holds
        assert validate_d_witness(f, verdict.level, verdict.witness)
        assert validate_d_witness(f, 4, (1,) * f.n)

        for k in range(1, 5):
            c = cayley_6k(k)
            verdict = check_d(c, 2)
            assert not verdict.holds and verdict.level == 2
            assert validate_d_witness(c, 2, verdict.witness)

        result = recognize(petersen())
        assert result.kind == D4_FAILS
        assert validate_d_witness(petersen(), result.level, result.witness)


def test_criterion_6_extremal_spot_checks():
    with criterion(6, "extremal edge-count spot checks", budget=60.0):
        assert extremal_formula(10, 5) == 25
        ten = search_extremal(10, 5)
        assert ten.best_found == ten.formula_value == 25

        assert extremal_formula(20, 8) == 80
        twenty = search_extremal(20, 8)
        assert twenty.best_found == 80
        balanced = any(
            w.base.n == 5 and sorted(w.weights) == [4, 4, 4, 4, 4]
            for w in twenty.witnesses
        )
        assert balanced

        for n in range(2, 41, 2):
            assert extremal_formula(n, n // 2) == n * n // 4


def test_criterion_7_verify_registry():
    with criterion(7, "registered verification checks", budget=300.0):
        reports = run_all()
        assert [r.name for r in reports] == check_names()
        failed = [r.name for r in reports if not r.passed]
        assert failed == []


def test_criterion_8_property_suites():
    with criterion(8, "property suites and round-trips", budget=120.0):
        rng = random.Random(8001)

        for _ in range(100):  # blow-up invariance
            base = random_graph(rng, rng.randint(2, 7))
            weights = tuple(rng.randint(1, 3) for _ in range(base.n))
            big = blowup(BlowupSpec(base, weights))
            assert check_d(base, 3).holds == check_d(big, 3).holds

        for _ in range(40):  # quotient reduction agrees with the direct search
            g = random_graph(rng, rng.randint(3, 8))
            holds, _, _ = direct_covering_oracle(g, 3)
            reduced = check_d(g, 3)
            assert holds == reduced.holds
            if not reduced.holds:
                assert validate_d_witness(g, reduced.level, reduced.witness)

        for n in range(2, 10):  # D(4) implies Q(4) on the catalog
            for g in enumerate_maximal_tf(n):
                if check_d(g, 4).holds:
                    assert check_q(g, 4).holds

        for _ in range(60):  # witnesses re-validate
            g = random_graph(rng, rng.randint(3, 9))
            d = check_d(g, 4)
            if not d.holds:
                assert validate_d_witness(g, d.level, d.witness)
            q = check_q(g, 4)
            if not q.holds:
                assert validate_q_witness(g, q.level, q.witness)

        for _ in range(200):  # serialization round-trips
            g = random_graph(rng, rng.randint(1, 14))
            assert parse_elist(write_elist(g)).adj == g.adj
            assert parse_graph6(write_graph6(g)).adj == g.adj
