"""Covering properties, weighted independence, witnesses and reductions."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from conftest import (
    brute_force_d,
    brute_force_q1,
    brute_force_maximal_tf,
    covering_oracle,
    direct_covering_oracle,
    knapsack_coverage_search,
    level_search_args,
    maximality_oracle,
    nx_independence_number,
    nx_max_weight_independent_set,
    petersen,
    random_graph,
    simplex_oracle,
)

from trifree.families import (
    InternalConsistencyError,
    andrasfai,
    cayley_6k,
    fig41,
    haggkvist_spec,
    vega,
)
from trifree.graph import BlowupSpec, Graph, _bits, blowup, from_edge_list, quotient
import trifree.properties as properties_module
from trifree.properties import (
    _coverage_search,
    _simplex_dual,
    check_d,
    check_q,
    independence_number,
    is_maximal_triangle_free,
    is_triangle_free,
    max_weight_independent_set,
    validate_covering_certificate,
    validate_d_witness,
    validate_q_witness,
    weighted_coverage,
)
from trifree.search import _tf_graphs, enumerate_maximal_tf


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def triangle_plus_isolated():
    return from_edge_list(4, [(0, 1), (0, 2), (1, 2)])


def test_triangle_detection_is_lexicographic():
    ok, triangle = is_triangle_free(from_edge_list(5, [
        (1, 3), (1, 4), (3, 4), (2, 3), (2, 4)]))
    assert not ok and triangle == (1, 3, 4)
    assert is_triangle_free(cycle(5)) == (True, None)


def test_maximality_result_fields():
    r = is_maximal_triangle_free(cycle(5))
    assert r.holds and r.triangle is None and r.missing_pair is None
    r = is_maximal_triangle_free(cycle(6))
    assert not r.holds and r.missing_pair == (0, 3)
    r = is_maximal_triangle_free(triangle_plus_isolated())
    assert not r.holds and r.triangle == (0, 1, 2)



def test_maximality_matches_the_pair_scan():
    rng = random.Random(157)
    templates = [g for n in range(1, 9) for g in _tf_graphs(n)]
    while len(templates) < 582 + 100:  # 100 graphs with triangles
        g = random_graph(rng, rng.randint(3, 10), rng.choice((0.4, 0.6)))
        if not is_triangle_free(g)[0]:
            templates.append(g)
    graphs = templates + [
        blowup(BlowupSpec(g, tuple(rng.randint(1, 3) for _ in range(g.n)))) for g in templates]
    graphs += [Graph(n, [0] * n) for n in range(2, 6)]
    graphs.append(from_edge_list(4, [(0, 1)]))  # K2 plus two isolated twins
    by_quotient = 0
    for g in graphs:
        result = is_maximal_triangle_free(g)
        assert result == maximality_oracle(g)
        by_quotient += result.holds and quotient(g)[1] is not g
    assert by_quotient > 30


def test_missing_pair_is_the_lexicographically_first():
    rng = random.Random(151)
    open_graphs = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.4, 0.6)))
        result = is_maximal_triangle_free(g)
        assert result.holds == brute_force_maximal_tf(g)
        if result.triangle is not None:
            continue
        first = next(((u, v) for u, v in itertools.combinations(range(g.n), 2)
                      if not g.has_edge(u, v) and not g.adj[u] & g.adj[v]), None)
        assert result.missing_pair == first
        open_graphs += first is not None
    assert open_graphs > 30

def test_weighted_coverage():
    g = cycle(5)
    assert weighted_coverage(g, (1, 1, 1, 1, 1)) == (2,) * 5
    assert weighted_coverage(g, (3, 0, 0, 0, 0)) == (0, 3, 0, 0, 3)


def test_weighted_coverage_matches_a_brute_force_sum():
    rng = random.Random(227)
    graphs = [random_graph(rng, rng.randint(1, 30), rng.choice((0.1, 0.5))) for _ in range(150)]
    graphs += [blowup(BlowupSpec(cayley_6k(7), (7,) * 42)), andrasfai(60)]
    for g in graphs:
        for density in (0.05, 0.5, 1.0):  # sparse to dense weights
            weights = tuple(rng.randint(1, 5) if rng.random() < density else 0
                            for _ in range(g.n))
            assert weighted_coverage(g, weights) == tuple(
                sum(weights[v] for v in range(g.n) if g.has_edge(y, v)) for y in range(g.n))


def test_max_weight_independent_set_against_networkx():
    rng = random.Random(101)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.7)))
        weights = tuple(rng.randint(0, 3) for _ in range(g.n))
        value, mask = max_weight_independent_set(g, weights)
        members = [v for v in range(g.n) if mask >> v & 1]
        # reported set is independent and has the reported weight
        assert all(not g.has_edge(u, v) for u in members for v in members if u < v)
        assert sum(weights[v] for v in members) == value
        assert value == nx_max_weight_independent_set(g, weights)


def test_max_weight_independent_set_within_mask():
    g = cycle(6)
    value, mask = max_weight_independent_set(g, (1,) * 6, within=0b000111)
    assert value == 2 and mask & ~0b000111 == 0


def test_independence_number_against_networkx():
    rng = random.Random(103)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10))
        assert independence_number(g)[0] == nx_independence_number(g)


def _blowup_cases(seed):
    rng = random.Random(seed)
    for template in (vega(3, 0, 0)[0], andrasfai(5), fig41()):
        for total in (30, 45, 60, 90, 120):
            weights = [1] * template.n
            for _ in range(total - template.n):
                weights[rng.randrange(template.n)] += 1
            yield template, tuple(weights), blowup(BlowupSpec(template, tuple(weights)))


def test_independence_number_of_blowups():
    for template, weights, g in _blowup_cases(211):
        value, members = independence_number(g)
        # the template weighted by block size has the same optimum
        assert value == nx_max_weight_independent_set(template, weights) == len(members)
        if g.n <= 60:
            assert value == nx_max_weight_independent_set(g, (1,) * g.n)
        chosen = set(members)
        assert all(not g.has_edge(u, v) for u in members for v in members if u < v)
        for block in quotient(g)[0].classes:
            assert chosen.isdisjoint(block) or chosen.issuperset(block)


def test_pendant_rule_against_networkx():
    # leaf 0 hangs off 1, which sits on a 5-cycle 1..5
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    for leaf in (1, 4, 5):  # lighter than, equal to, heavier than its neighbour
        weights = (leaf, 4, 1, 2, 1, 2)
        value, mask = max_weight_independent_set(g, weights)
        members = list(_bits(mask))
        assert all(not g.has_edge(u, v) for u in members for v in members if u < v)
        assert sum(weights[v] for v in members) == value
        assert value == nx_max_weight_independent_set(g, weights)
        assert (mask & 1) == (leaf >= 4)  # the light leaf is in no maximum set


def test_long_paths_and_cycles_are_fast():
    for closed in (False, True):
        g = from_edge_list(1000, [(i, (i + 1) % 1000) for i in range(1000 - (not closed))])
        started = time.perf_counter()
        value, members = independence_number(g)
        assert time.perf_counter() - started < 1.0
        members = set(members)
        assert value == len(members) == 500
        assert not any(u in members and v in members for u, v in g.edges())


def test_check_d_matches_brute_force():
    rng = random.Random(107)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 6))
        level, _ = brute_force_d(g, 2)
        verdict = check_d(g, 2)
        assert verdict.holds == (level is None)
        if not verdict.holds:
            assert verdict.level == level
            assert validate_d_witness(g, verdict.level, verdict.witness)


def test_check_d_known_graphs():
    hexagon = check_d(cycle(6), 2)
    assert not hexagon.holds and hexagon.level == 2
    assert validate_d_witness(cycle(6), 2, (1,) * 6)
    assert check_d(cycle(5), 4).holds
    fig = check_d(fig41(), 4)
    assert not fig.holds
    assert validate_d_witness(fig41(), fig.level, fig.witness)
    assert validate_d_witness(fig41(), 4, (1,) * 12)  # the all-ones witness


def test_check_q_known_graphs():
    assert check_q(from_edge_list(2, [(0, 1)]), 1).holds
    assert check_q(vega(2, 0, 0)[0], 4).holds
    fig = check_q(fig41(), 4)
    assert not fig.holds
    assert validate_q_witness(fig41(), fig.level, fig.witness)
    assert validate_q_witness(fig41(), 4, (1,) * 12)


def test_check_q_witness_with_triangles_matches_brute_force():
    # A triangle with unit weights refutes level 1, so the search stops
    # there.  Twin-free inputs only: on them the quotient is the input, so
    # the lifted witness is the search's own first leaf.
    rng = random.Random(131)
    tested = 0
    while tested < 60:
        g = random_graph(rng, rng.randint(3, 9), 0.5)
        if is_triangle_free(g)[0] or len(quotient(g)[0].classes) < g.n:
            continue
        verdict = check_q(g, 2)
        assert not verdict.holds and verdict.level == 1
        assert verdict.witness == brute_force_q1(g)
        tested += 1


def test_isolated_vertices_defeat_both_properties():
    g = triangle_plus_isolated()
    d = check_d(g, 4)
    assert not d.holds and d.level == 1
    assert validate_d_witness(g, 1, d.witness)
    q = check_q(g, 4)
    assert not q.holds and q.level == 1
    assert validate_q_witness(g, 1, q.witness)


def test_blowup_invariance_of_level_three():
    rng = random.Random(109)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8))
        weights = tuple(rng.randint(1, 3) for _ in range(g.n))
        big = blowup(BlowupSpec(g, weights))
        assert check_d(g, 3).holds == check_d(big, 3).holds


def test_quotient_reduction_agreement():
    rng = random.Random(113)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 10))
        _, q = quotient(g)
        assert check_d(g, 3).holds == check_d(q, 3).holds


def test_direct_and_reduced_searches_agree():
    rng = random.Random(127)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        weights = tuple(rng.randint(1, 2) for _ in range(g.n))
        big = blowup(BlowupSpec(g, weights))
        for k in (1, 2, 3):
            reduced = check_d(big, k)
            holds, level, witness = direct_covering_oracle(big, k)
            assert reduced.holds == holds
            if not reduced.holds:
                assert reduced.level == level
                assert validate_d_witness(big, reduced.level, reduced.witness)
                assert validate_d_witness(big, level, witness)


def test_d_implies_q_on_small_catalog():
    for n in range(2, 10):
        for g in enumerate_maximal_tf(n):
            if check_d(g, 4).holds:
                assert check_q(g, 4).holds


def test_monotone_levels_on_templates():
    members = [andrasfai(k) for k in range(1, 6)]
    members += [vega(i, mu, nu)[0] for i in (2, 3) for mu in (0, 1) for nu in (0, 1)]
    members += [fig41(), cayley_6k(1), cayley_6k(2), blowup(haggkvist_spec())]
    for g in members:
        previous = True
        for k in (1, 2, 3, 4):
            holds = check_d(g, k).holds
            assert not (holds and not previous)  # holds at k implies holds below
            previous = holds


def test_degree_third_bound_implies_level_four():
    members = [andrasfai(k) for k in range(1, 9)] + [blowup(haggkvist_spec())]
    for g in members:
        assert 3 * g.degree_sequence()[0] > g.n
        assert check_d(g, 4).holds


def test_witnesses_revalidate_everywhere():
    rng = random.Random(131)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 7))
        for checker, validator in ((check_d, validate_d_witness),
                                   (check_q, validate_q_witness)):
            verdict = checker(g, 2)
            if not verdict.holds:
                assert validator(g, verdict.level, verdict.witness)


def test_validators_reject_non_witnesses():
    g = cycle(5)  # satisfies both properties at every level
    for weights in itertools.product(range(4), repeat=5):
        if sum(weights) == 3:
            assert not validate_d_witness(g, 1, weights)
            assert not validate_q_witness(g, 1, weights)
    # Petersen with vertex 0 doubled (twins 0 and 1) fails both at level 2.
    # Each variant of its witness keeps every load and independent weight
    # within bounds, so only the shape check can reject it.
    host = blowup(BlowupSpec(petersen(), (2,) + (1,) * 9))
    witness = check_d(host, 2).witness
    assert witness == (0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1)
    negative = (1, -1) + witness[2:]      # twin 1 at -1, vertex 0 at +1
    too_long = witness + (0,)
    short_total = (0,) * 5 + witness[5:]  # total 5, not 6
    for validator in (validate_d_witness, validate_q_witness):
        assert validator(host, 2, witness)
        for bad in (negative, too_long, short_total):
            assert not validator(host, 2, bad)


def test_petersen_fails_at_level_two():
    verdict = check_d(petersen(), 4)
    assert not verdict.holds and verdict.level == 2
    assert validate_d_witness(petersen(), 2, verdict.witness)


def test_in_class_membership():
    for g in (cycle(5), vega(2, 1, 1)[0]):
        assert is_maximal_triangle_free(g).holds and check_d(g, 4).holds
    assert not is_maximal_triangle_free(cycle(6)).holds
    for g in (fig41(), petersen()):  # maximal, but covering fails
        assert is_maximal_triangle_free(g).holds and not check_d(g, 4).holds


def test_level_validation():
    with pytest.raises(ValueError):
        check_d(cycle(5), 0)
    with pytest.raises(ValueError):
        check_q(cycle(5), -1)


# -- fractional certificates ---------------------------------------------


def _bounded(g, q):
    return [not q or all(not g.adj[v] & row for v in _bits(row)) for row in g.adj]


def test_lp_step_agrees_with_level_search():
    rng = random.Random(137)
    proved = refuted = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 10), rng.choice((0.3, 0.5, 0.7)))
        if rng.random() < 0.3:  # one isolated vertex
            g = from_edge_list(g.n + 1, list(g.edges()))
        for k in (1, 2, 4):
            for q, checker in ((False, check_d), (True, check_q)):
                verdict = checker(g, k)
                assert (verdict.holds, verdict.level, verdict.witness) == covering_oracle(g, k, q)
                proved += verdict.certificate is not None
                refuted += not verdict.holds
    assert proved > 200 and refuted > 200


def test_lp_values_are_pinned():
    def value(g):
        y, d = check_d(g, 4).certificate
        return Fraction(sum(y), d)

    for k in range(2, 7):
        assert value(andrasfai(k)) == 3 - Fraction(1, k)
    expected = (Fraction(35, 12), Fraction(62, 21), Fraction(89, 30), Fraction(116, 39))
    for i, want in zip(range(2, 6), expected):
        assert value(vega(i, 0, 0)[0]) == want
    # value exactly 3: no certificate, and the level search refutes level 2
    for g in [fig41()] + [cayley_6k(k) for k in (2, 3, 4)]:
        assert _simplex_dual(g, list(range(g.n))) is None
        for checker in (check_d, check_q):
            verdict = checker(g, 4)
            assert verdict.certificate is None and verdict.level == 2


def _holding_catalog():
    members = [vega(i, mu, nu)[0] for i in (2, 3, 4) for mu in (0, 1) for nu in (0, 1)]
    members.append(vega(5, 0, 0)[0])
    census = [g for n in range(2, 11) for g in enumerate_maximal_tf(n) if check_d(g, 4).holds]
    assert len(census) == 68
    rng = random.Random(139)
    templates = (andrasfai(3), vega(2, 0, 0)[0], vega(3, 1, 0)[0])
    blowups = [blowup(BlowupSpec(t, tuple(rng.randint(1, 3) for _ in range(t.n))))
               for t in templates]
    return members + census + blowups


def test_holding_verdicts_carry_valid_certificates():
    for g in _holding_catalog():
        for q, checker in ((False, check_d), (True, check_q)):
            verdict = checker(g, 4)
            assert verdict.holds and verdict.witness is None
            bounded = _bounded(g, q)
            y, d = verdict.certificate
            assert validate_covering_certificate(g, bounded, y, d)
            for v in range(g.n):
                if y[v]:
                    lowered = y[:v] + (y[v] - 1,) + y[v + 1:]
                    assert not validate_covering_certificate(g, bounded, lowered, d)


def test_dense_members_carry_the_all_ones_certificate(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _simplex_dual(*args)

    monkeypatch.setattr(properties_module, "_simplex_dual", counted)
    # andrasfai(k) is k-regular on 3k - 1 vertices: delta > n/3
    for k in (10, 40):
        verdict = check_d(andrasfai(k), 4)
        assert verdict.holds and verdict.certificate == ((1,) * (3 * k - 1), k)
    started = time.perf_counter()
    assert check_d(andrasfai(120), 4).holds
    assert time.perf_counter() - started < 1.0
    assert calls == 0


def test_certificate_validator_rejects_malformed_duals():
    g = cycle(5)
    y, d = check_d(g, 4).certificate
    assert validate_covering_certificate(g, [True] * 5, y, d)
    assert not validate_covering_certificate(g, [True] * 5, y + (0,), d)
    assert not validate_covering_certificate(g, [True] * 5, y, 0)
    assert not validate_covering_certificate(g, [True] * 5, tuple(3 * x for x in y), d)
    unbounded = [x == 0 for x in y]
    assert not validate_covering_certificate(g, unbounded, y, d)


def test_simplex_is_skipped_when_uniform_weights_reach_three(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _simplex_dual(*args)

    monkeypatch.setattr(properties_module, "_simplex_dual", counted)
    for checker in (check_d, check_q):
        assert checker(cayley_6k(7), 4).level == 2  # n = 3 * degree
        with pytest.raises(RecursionError):  # straight into the deep DFS
            checker(cycle(1000), 1)
    assert calls == 0
    # delta <= n/3, so the all-ones certificate fails and the simplex runs
    assert check_d(vega(2, 0, 0)[0], 4).certificate is not None
    assert calls == 1


def test_a_long_path_answers_below_the_recursion_limit():
    # the coverage DFS adds no frame per level: P_900 is refuted at level 1
    verdict = check_d(from_edge_list(900, [(v, v + 1) for v in range(899)]), 4)
    assert not verdict.holds and verdict.level == 1


def test_simplex_matches_the_full_tableau():
    # the condensed tableau makes the same pivots: the same (Y, D), or None
    def cases():
        named = [vega(i, mu, nu)[0] for i in range(2, 9) for mu in (0, 1) for nu in (0, 1)]
        named += [vega(20, 1, 1)[0], fig41()] + [andrasfai(k) for k in range(1, 12)]
        named += [cayley_6k(k) for k in range(2, 6)]
        for g in named + [g for n in range(2, 9) for g in _tf_graphs(n)]:
            yield g, list(range(g.n))
            yield g, [y for y, ok in enumerate(_bounded(g, True)) if ok]
        rng = random.Random(151)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.4, 0.6)))
            yield g, [y for y in range(g.n) if rng.random() < 0.7]

    proved = 0
    for g, rows in cases():
        dual = _simplex_dual(g, rows)
        assert dual == simplex_oracle(g, rows), (g.adj, rows)
        proved += dual is not None
    assert proved > 500


# -- the coverage DFS against the knapsack reference ------------------------


def _same_search(g, m, q):
    """The cover-bound search and the knapsack reference visit the same
    leaves in the same order and accept the same one; returns it."""
    bounds, leaf_ok, isolated_cap = level_search_args(g, m, q)
    verdicts, leaves = {}, []

    def recorded(weights):
        key = tuple(weights)
        leaves.append(key)
        if key not in verdicts:
            verdicts[key] = leaf_ok(weights)
        return verdicts[key]

    witness = _coverage_search(g, m, bounds, recorded, isolated_cap)
    seen, leaves[:] = leaves[:], []
    assert knapsack_coverage_search(g, m, bounds, recorded, isolated_cap) == witness
    assert leaves == seen
    return witness


def test_cover_bound_keeps_the_knapsack_witnesses():
    graphs = [g for n in range(1, 9) for g in _tf_graphs(n)]
    rng = random.Random(149)
    while len(graphs) < 582 + 120:  # 120 graphs with triangles
        g = random_graph(rng, rng.randint(3, 10), rng.choice((0.4, 0.6)))
        if not is_triangle_free(g)[0]:
            graphs.append(g)
    graphs += [cayley_6k(k) for k in range(2, 6)] + [fig41()]
    refuted = 0
    for g in graphs:
        for m in (1, 2, 3):
            if m == 3 and g.n >= 24:
                continue  # cayley_6k(4), cayley_6k(5): the slow test below
            for q in (False, True):
                refuted += _same_search(g, m, q) is not None
    assert refuted > 1000


@pytest.mark.slow
def test_cover_bound_keeps_the_knapsack_witnesses_on_large_circulants():
    for k in (4, 5):
        for q in (False, True):
            assert _same_search(cayley_6k(k), 3, q) is None


def test_cayley_level_two_witness_is_pinned():
    for k in range(2, 11):
        g = cayley_6k(k)
        for checker in (check_d, check_q):
            verdict = checker(g, 4)
            assert not verdict.holds and verdict.level == 2
            assert verdict.witness == tuple(int(v % k == k - 1) for v in range(g.n))


def test_a_bad_lifted_witness_is_refused(monkeypatch):
    def bad_search(g, m, *args, **kwargs):  # all weight on one vertex
        return (3 * m,) + (0,) * (g.n - 1)

    monkeypatch.setattr(properties_module, "_coverage_search", bad_search)
    host = blowup(BlowupSpec(cayley_6k(7), (2,) + (1,) * 41))
    for checker in (check_d, check_q):
        with pytest.raises(InternalConsistencyError, match="re-validation"):
            checker(host, 4)
