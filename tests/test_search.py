"""Enumeration, census classification, the conjecture hunt, extremal search."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from conftest import (
    attach_oracle,
    brute_force_maximal_tf,
    extremal_oracle,
    group_order_oracle,
    knapsack_coverage_search,
    nx_independence_number,
)

from trifree.families import AndrasfaiId, VegaId, andrasfai, vega
from trifree.formats import write_graph6
from trifree.graph import (
    BlowupSpec,
    Graph,
    InternalConsistencyError,
    _independent_masks,
    automorphism_order,
    blowup,
    canonical_form,
    from_edge_list,
    isomorphic,
    quotient,
    relabel,
)
from trifree.properties import _coverage_search, is_maximal_triangle_free, is_triangle_free
import trifree.search as search_module
from trifree.search import (
    ResourceGuardError,
    _attach,
    _is_grandparent,
    _is_parent,
    _least_degree_test,
    _maximal_independent_sets,
    _parent_masks,
    _parents,
    _saturating_masks,
    _small_masks,
    _tf_graphs,
    census,
    census_row,
    check_census_row,
    enumerate_maximal_tf,
    hunt_conjecture,
    search_extremal,
)

GOLDEN_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 4, 7: 6, 8: 10, 9: 16, 10: 31}


def brute_force_catalog(n: int) -> set:
    """Canonical forms of all maximal triangle-free graphs, by raw edge masks."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    tri_masks = []
    completions = {p: [] for p in pairs}
    for a, b, c in itertools.combinations(range(n), 3):
        ab, ac, bc = 1 << index[(a, b)], 1 << index[(a, c)], 1 << index[(b, c)]
        tri_masks.append(ab | ac | bc)
        completions[(a, b)].append(ac | bc)
        completions[(a, c)].append(ab | bc)
        completions[(b, c)].append(ab | ac)
    forms = set()
    for mask in range(1 << len(pairs)):
        if any(mask & t == t for t in tri_masks):
            continue
        closed = all(
            mask >> i & 1 or any(mask & c == c for c in completions[p])
            for i, p in enumerate(pairs)
        )
        if not closed:
            continue
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        forms.add(canonical_form(Graph(n, rows))[0].adj)
    return forms


@pytest.mark.parametrize("n", range(2, 8))
def test_enumeration_matches_brute_force(n):
    ours = {canonical_form(g)[0].adj for g in enumerate_maximal_tf(n)}
    assert len(ours) == len(enumerate_maximal_tf(n))  # no duplicates
    assert ours == brute_force_catalog(n)


@pytest.mark.parametrize("n", sorted(GOLDEN_COUNTS))
def test_enumeration_counts(n):
    assert len(enumerate_maximal_tf(n)) == GOLDEN_COUNTS[n]


def test_enumerated_graphs_revalidate():
    for n in range(2, 11):
        for g in enumerate_maximal_tf(n):
            assert brute_force_maximal_tf(g)


@pytest.mark.parametrize("n", range(2, 10))
def test_enumeration_matches_filtered_level(n):
    # the same canonical graphs in the same order as filtering the full
    # triangle-free level, which the census rows depend on
    reference = [g for g in _tf_graphs(n) if is_maximal_triangle_free(g).holds]
    assert enumerate_maximal_tf(n) == reference


def test_levels_and_maximal_steps_match_the_dedup_oracle():
    # canonical augmentation gives what deduplicating every candidate by
    # canonical form gives: the same graphs, in the same order
    level = [Graph(1, [0])]
    for n in range(2, 10):
        assert enumerate_maximal_tf(n) == attach_oracle(level, _saturating_masks)
        if n <= 8:
            level = attach_oracle(level, _independent_masks)
            assert _tf_graphs(n) == level


def test_stored_generators_generate_the_automorphism_group():
    _tf_graphs(7)
    for n in range(1, 8):
        for g, gens in search_module._tf_levels[n]:
            for a in gens:
                assert relabel(g, a) == g
            assert group_order_oracle(n, gens) == automorphism_order(g)


def _deficient_ends_are_independent(g: Graph) -> bool:
    ends = 0
    for u, v in itertools.combinations(range(g.n), 2):
        if not g.has_edge(u, v) and not g.adj[u] & g.adj[v]:
            ends |= 1 << u | 1 << v
    return not any(g.adj[u] & ends for u in range(g.n) if ends >> u & 1)


def test_parent_masks_match_the_built_graph():
    # decided from g's 2-balls, a mask passes iff the built g + x has
    # independent deficient ends; checked on every mask fitting the degree
    fitting = 0
    for t in range(1, 9):
        for g in _tf_graphs(t):
            passing = set(_parent_masks(g))
            for mask in filter(_least_degree_test(g), _independent_masks(g)):
                x = 1 << g.n
                h = Graph(g.n + 1, [row | x if mask >> v & 1 else row
                                    for v, row in enumerate(g.adj)] + [mask])
                assert (mask in passing) == _deficient_ends_are_independent(h)
                fitting += 1
    assert fitting == 6214


def test_small_masks_are_the_independent_sets_within_the_cap():
    for g in _tf_graphs(6):
        cap = min(map(g.degree, range(g.n))) + 1
        assert list(_small_masks(g)) == [
            m for m in _independent_masks(g) if m.bit_count() <= cap]


@pytest.mark.parametrize("n", range(3, 12))
def test_pruned_parents_are_the_filtered_level(n):
    # the parents of the maximal step, built through the grandparent cut,
    # are exactly the graphs of level n-1 that a maximal graph can hang
    # on, in the same order; the reference skips a graph whose deficient ends
    # are adjacent, as no maximal independent set can hold them all
    parents = _parents(n)
    assert [g for g, _ in parents] == [
        g for g in _tf_graphs(n - 1) if _deficient_ends_are_independent(g)
        and any(map(_least_degree_test(g), _saturating_masks(g)))]
    if n <= 8:
        for g, gens in parents:
            assert all(relabel(g, a) == g for a in gens)
            assert group_order_oracle(g.n, gens) == automorphism_order(g)


def _count_searches(monkeypatch) -> list[int]:
    calls = [0]
    original = search_module.canonical_labeling

    def counted(g):
        calls[0] += 1
        return original(g)

    monkeypatch.setattr(search_module, "canonical_labeling", counted)
    return calls


def test_canonical_searches_per_level_are_pinned(monkeypatch):
    # one search per candidate that survives the size cap, orbit pruning,
    # the degree test and the neighbour-degree tie-break: level 9 keeps
    # 1897 of 2088 (the capped DFS yields 10,335 of level 8's 24,149
    # independent sets, and 4,930 pass the degree test)
    _tf_graphs(8)
    level8 = search_module._tf_levels[8]
    assert sum(1 for g, _ in level8 for _ in _independent_masks(g)) == 24149
    assert sum(1 for g, _ in level8 for _ in _small_masks(g)) == 10335
    assert sum(1 for g, _ in level8
               for _ in filter(_least_degree_test(g), _small_masks(g))) == 4930
    monkeypatch.setattr(search_module, "_tf_levels", search_module._tf_levels[:9])
    calls = _count_searches(monkeypatch)
    assert len(_tf_graphs(9)) == 1897
    assert calls[0] == 2088
    # from the full level 7, the grandparent cut keeps 164 of level 8's 410
    # graphs in 173 searches; they give the 35 parents in 35 searches, and
    # these the 31 maximal graphs in 32
    calls[0] = 0
    grandparents = _attach(search_module._tf_levels[7], _small_masks, _is_grandparent)
    assert (len(grandparents), calls[0]) == (164, 173)
    calls[0] = 0
    parents = _attach(grandparents, _parent_masks, _is_parent)
    assert (len(parents), calls[0]) == (35, 35)
    calls[0] = 0
    assert (len(_attach(parents, _saturating_masks)), calls[0]) == (GOLDEN_COUNTS[10], 32)
    calls[0] = 0
    assert len(enumerate_maximal_tf(10)) == GOLDEN_COUNTS[10]
    assert calls[0] == 240


def test_census_searches_are_pinned(monkeypatch):
    # orders 2..10 from the seed level, as one census run makes them
    monkeypatch.setattr(search_module, "_tf_levels", search_module._tf_levels[:2])
    calls = _count_searches(monkeypatch)
    for n in range(2, 11):
        enumerate_maximal_tf(n)
    assert calls[0] == 607


def test_maximal_step_never_builds_the_full_level(monkeypatch):
    _tf_graphs(8)
    grandparents = len(search_module._tf_levels[8])
    monkeypatch.setattr(search_module, "_tf_levels", search_module._tf_levels[:8])
    calls = _count_searches(monkeypatch)
    assert len(enumerate_maximal_tf(10)) == GOLDEN_COUNTS[10]
    # built from level 7, with fewer searches than level 8 has graphs
    assert grandparents == 410
    assert 0 < calls[0] < grandparents
    assert len(search_module._tf_levels) == 8


def test_maximal_independent_sets_of_a_large_star():
    star = from_edge_list(1000, [(0, v) for v in range(1, 1000)])
    assert sorted(_maximal_independent_sets(star)) == [1, (1 << 1000) - 2]


def test_enumeration_is_deterministic():
    first = [g.adj for g in enumerate_maximal_tf(7)]
    second = [g.adj for g in enumerate_maximal_tf(7)]
    assert first == second


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_maximal_tf(13)
    with pytest.raises(ResourceGuardError):
        census(13)


def test_census_rows_and_invariants():
    rows = census(8)
    assert len(rows) == GOLDEN_COUNTS[8]
    for row in rows:
        assert row.graph.n == 8
        assert check_census_row(row) is None
        # covering levels are monotone by construction
        assert (not row.d3 or row.d2) and (not row.d4 or row.d3)


def test_census_solves_each_covering_lp_once(monkeypatch):
    import trifree.properties as properties_module

    calls = 0
    original = properties_module.validate_covering_certificate

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    # every certificate, all-ones or from the simplex, is re-checked once
    monkeypatch.setattr(properties_module, "validate_covering_certificate", counted)
    rows = census(8)
    # check_q on these triangle-free rows would prove check_d's LP again: 20 calls
    assert all(row.q4 for row in rows)
    assert calls == len(rows) == 10


def _levels_alone(n: int) -> dict:
    """graph6 -> the covering levels m = 1..4 that hold each on its own, for
    every census row of order n, decided on the twin quotient by the library
    search and by the knapsack reference, which must give the same witness."""
    levels = {}
    for row in census(n, allow_large=True):
        _, q = quotient(row.graph)
        holding = []
        for m in range(1, 5):
            args = (q, m, [m] * q.n, lambda _: True)
            witness = _coverage_search(*args)
            assert witness == knapsack_coverage_search(*args)
            if witness is None:
                holding.append(m)
        # level 2 alone, and level 4 alone, hold exactly on the blow-ups
        assert (2 in holding) == (row.recognized is not None) == (4 in holding)
        levels[write_graph6(row.graph)] = tuple(holding)
    return levels


def _level_table(levels: dict) -> list[int]:
    """Rows holding all four levels, levels 1 and 3 only, level 1 only."""
    table = [sum(1 for h in levels.values() if h == want)
             for want in ((1, 2, 3, 4), (1, 3), (1,))]
    assert sum(table) == len(levels)
    return table


def test_census_levels_alone():
    # the census decides the levels cumulatively; each alone is sharper
    small = {}
    for n in range(2, 9):
        small.update(_levels_alone(n))
    assert _level_table(small) == [27, 0, 0]
    nine = _levels_alone(9)
    assert _level_table(nine) == [15, 1, 0]
    assert _level_table(_levels_alone(10)) == [26, 4, 1]
    # the smallest row where level 3 holds on its own and level 2 does not
    assert nine["H?LTMRo"] == (1, 3)
    _, q = quotient(next(row.graph for row in census(9)
                         if write_graph6(row.graph) == "H?LTMRo"))
    assert _coverage_search(q, 2, [2] * q.n, lambda _: True) == (0, 1, 1, 0, 1, 1, 1, 1, 0)


def test_census_levels_alone_n11():
    assert _level_table(_levels_alone(11)) == [43, 16, 2]


def test_census_row_of_pentagon():
    row = census_row(andrasfai(2))
    assert row.d2 and row.d3 and row.d4 and row.q4
    assert row.recognized == AndrasfaiId(2)
    assert not row.induced_c6 and not row.contains_upsilon


def test_census_row_classifies_eleven_vertex_member():
    row = census_row(vega(2, 1, 1)[0])
    assert row.d4 and row.q4
    assert row.recognized == VegaId(2, 1, 1)
    assert row.induced_c6 and row.contains_upsilon


def test_census_row_takes_no_quotient_beyond_recognition(monkeypatch):
    import trifree.graph as graph_module
    import trifree.properties as properties_module
    import trifree.recognition as recognition_module
    from trifree.families import fig41

    calls = 0
    searches = 0
    original = graph_module.quotient
    original_search = properties_module._coverage_search

    def counted(g):
        nonlocal calls
        calls += 1
        return original(g)

    def counted_search(*args, **kwargs):
        nonlocal searches
        searches += 1
        return original_search(*args, **kwargs)

    for module in (graph_module, properties_module, recognition_module, search_module):
        monkeypatch.setattr(module, "quotient", counted)
    monkeypatch.setattr(properties_module, "_coverage_search", counted_search)
    blowups = [
        blowup(BlowupSpec(andrasfai(2), (2, 1, 3, 1, 1))),
        blowup(BlowupSpec(vega(2, 1, 1)[0], (1, 2) * 5 + (2,))),
    ]
    for g in blowups:
        calls = 0
        recognition_module.recognize(g)
        assert calls == 1
        calls = 0
        census_row(g)
        assert calls == 1
    # fig41 fails level 2; recognition would run the covering search again
    calls = searches = 0
    row = census_row(fig41())
    assert row.recognized is None and not row.d2
    assert calls == 1
    assert searches == 4  # D(1), D(2), Q(1), Q(2)


def test_check_census_row_flags_doctored_rows():
    circulant = census_row(andrasfai(2))
    hexagon = census_row(vega(2, 1, 1)[0])
    assert check_census_row(circulant) is None and check_census_row(hexagon) is None
    # each doctored row breaks one invariant, named by the text the report carries
    cases = [
        (replace(circulant, d4=False), "level-4 covering iff recognized as a blow-up"),
        (replace(circulant, recognized=None), "level-4 covering iff recognized as a blow-up"),
        (replace(circulant, q4=False), "certificate variant agrees with plain covering"),
        (replace(hexagon, induced_c6=False),
         "hexagon-free iff recognized over the circulant family"),
        (replace(circulant, induced_c6=True),
         "hexagon-free iff recognized over the circulant family"),
        (replace(hexagon, contains_upsilon=False),
         "level-3 covering with an induced hexagon must contain the 11-vertex pattern"),
    ]
    for row, invariant in cases:
        assert check_census_row(row) == invariant


def test_census_guard_holds_after_an_allowed_run(monkeypatch):
    monkeypatch.setattr(search_module, "ENUMERATION_GUARD", 5)
    assert len(census(6, allow_large=True)) == GOLDEN_COUNTS[6]
    with pytest.raises(ResourceGuardError):
        census(6)


def test_hunt_guard_refuses_before_enumerating(monkeypatch):
    monkeypatch.setattr(search_module, "ENUMERATION_GUARD", 5)
    orders = []

    def counted(n, allow_large=False):
        orders.append(n)
        return enumerate_maximal_tf(n, allow_large)

    monkeypatch.setattr(search_module, "enumerate_maximal_tf", counted)
    with pytest.raises(ResourceGuardError):
        hunt_conjecture(7)
    assert orders == []


def test_hunt_is_empty_on_small_orders():
    assert hunt_conjecture(8) == []


def test_extremal_search_attains_formula_and_revalidates():
    result = search_extremal(10, 5)
    assert result.formula_value == 25 and result.best_found == 25
    assert result.witnesses
    for spec in result.witnesses:
        expanded = blowup(spec)
        assert expanded.n == 10
        assert is_triangle_free(expanded)[0]
        assert nx_independence_number(expanded) <= 5
        assert expanded.edge_count == 25


def test_extremal_witness_failing_its_recheck_raises(monkeypatch):
    genuine = search_module.independence_number
    monkeypatch.setattr(search_module, "independence_number",
                        lambda g: (5 + 1, genuine(g)[1]))
    with pytest.raises(InternalConsistencyError, match="extremal witness failed re-validation"):
        search_extremal(10, 5)


def test_extremal_balanced_pentagon_blowup():
    result = search_extremal(20, 8)
    assert result.formula_value == 80 and result.best_found == 80
    balanced = [
        spec for spec in result.witnesses
        if isomorphic(spec.base, andrasfai(2)) is not None
        and sorted(spec.weights) == [4, 4, 4, 4, 4]
    ]
    assert balanced


def _walked_templates(monkeypatch, pairs):
    """Each (template, n, s) that `search_extremal` walks at these pairs."""
    walked = {}
    original = search_module._template_optimum

    def recorded(template, n, s, floor=-1):
        walked.setdefault((template.adj, n, s), template)
        return original(template, n, s, floor)

    monkeypatch.setattr(search_module, "_template_optimum", recorded)
    for n, s in pairs:
        search_extremal(n, s)
    monkeypatch.undo()
    return [(template, n, s) for (_, n, s), template in walked.items()]


def test_template_optimum_matches_the_plain_walk(monkeypatch):
    pairs = [(n, s) for n in range(5, 17) for s in range(n // 3 + 1, n // 2 + 1)]
    walked = _walked_templates(monkeypatch, pairs)
    assert len(walked) > 100
    optima = 0
    for template, n, s in walked:
        value, ties = extremal_oracle(template, n, s)
        assert search_module._template_optimum(template, n, s) == (value, ties)
        if value >= 0:
            optima += 1
            # ties at the floor are all kept; a floor above the optimum stops it
            assert search_module._template_optimum(template, n, s, value) == (value, ties)
            assert search_module._template_optimum(template, n, s, value + 1)[0] < value + 1
    assert optima > 50


def _spy_simplex(monkeypatch) -> list:
    """Each (rows, rhs, cost, stop, result) of the root-bound LPs, appended
    as `search._template_optimum` solves them."""
    calls = []
    original = search_module._simplex

    def recorded(rows, rhs, cost, stop):
        result = original(rows, rhs, cost, stop)
        calls.append((rows, rhs, cost, stop, result))
        return result

    monkeypatch.setattr(search_module, "_simplex", recorded)
    return calls


def test_root_bound_is_sound_and_its_dual_checks(monkeypatch):
    pairs = [(n, s) for n in range(5, 17) for s in range(n // 3 + 1, n // 2 + 1)]
    walked = _walked_templates(monkeypatch, pairs)
    calls = _spy_simplex(monkeypatch)
    rejected = 0
    for template, n, s in walked:
        value, _ = extremal_oracle(template, n, s)
        t = template.n
        degree = [template.degree(v) for v in range(t)]
        rows = [[m >> v & 1 for v in range(t)] for m in _maximal_independent_sets(template)]
        rhs = [s - sum(row) for row in rows] + [n - t]
        rows.append([1] * t)
        for floor in (value - 1, value, value + 1):
            calls.clear()
            found = search_module._template_optimum(template, n, s, floor)
            if not calls or calls[0][-1] is None:
                continue
            # a rejection is sound: no weighting reaches the floor
            assert found == (-1, []) and value < floor
            [(lp_rows, lp_rhs, cost, stop, (reduced, d))] = calls
            assert (lp_rows, lp_rhs, cost) == (rows, rhs, degree)
            assert stop == 2 * floor - n * s + t * s - 2 * template.edge_count
            # integer weak duality: y >= 0 pays every column's cost, and
            # y . rhs < D * stop bounds the LP optimum below stop
            y = reduced[t:]
            assert len(y) == len(rows) and min(y) >= 0 and d >= 1
            for v in range(t):
                assert sum(yi * row[v] for yi, row in zip(y, rows)) >= d * degree[v]
            assert sum(yi * b for yi, b in zip(y, rhs)) < d * stop
            rejected += 1
    assert rejected > 50


def test_root_bound_leaves_two_templates_to_walk_at_22_9(monkeypatch):
    calls = _spy_simplex(monkeypatch)
    outcomes = []
    original = search_module._template_optimum

    def recorded(template, n, s, floor=-1):
        calls.clear()
        found = original(template, n, s, floor)
        outcomes.append((template, found[0], [result is not None for *_, result in calls]))
        return found

    monkeypatch.setattr(search_module, "_template_optimum", recorded)
    search_extremal(22, 9)
    assert len(outcomes) == 19
    walked = [(template.adj, value) for template, value, lp in outcomes if lp != [True]]
    # andrasfai(1) admits no weighting, so C5 is walked with no floor
    assert walked == [(andrasfai(1).adj, -1), (andrasfai(2).adj, 97)]
    assert sum(lp == [True] for _, _, lp in outcomes) == 17


@pytest.mark.parametrize("low, high", [
    (2, 24),
    pytest.param(25, search_module.EXTREMAL_MAX_ORDER, marks=pytest.mark.slow),
])
def test_extremal_search_attains_the_formula_up_to_the_cap(low, high):
    pairs = [(n, s) for n in range(low, high + 1) for s in range(n // 3 + 1, n // 2 + 1)]
    assert len(pairs) == {2: 52, 25: 28}[low]
    for n, s in pairs:
        result = search_extremal(n, s)
        assert result.best_found == result.formula_value, (n, s)


@pytest.mark.parametrize("n, s, best, witnesses", [
    (22, 9, 97, [("DUW", (4, 4, 5, 4, 5))]),
    (24, 11, 125, [("DUW", (2, 2, 9, 2, 9)), ("DUW", (2, 3, 8, 2, 9)),
                   ("DUW", (2, 4, 7, 2, 9)), ("DUW", (2, 5, 6, 2, 9))]),
    # recorded with the plain walk, before the root bound
    (24, 10, 116, [("DUW", (4, 4, 6, 4, 6)), ("DUW", (4, 5, 5, 4, 6))]),
    (26, 11, 137, [("DUW", (4, 4, 7, 4, 7)), ("DUW", (4, 5, 6, 4, 7))]),
    (28, 12, 160, [("DUW", (4, 4, 8, 4, 8)), ("DUW", (4, 5, 7, 4, 8)),
                   ("DUW", (4, 6, 6, 4, 8))]),
    (30, 13, 185, [("DUW", (4, 4, 9, 4, 9)), ("DUW", (4, 5, 8, 4, 9)),
                   ("DUW", (4, 6, 7, 4, 9))]),
])
def test_extremal_witnesses_are_pinned(n, s, best, witnesses):
    result = search_extremal(n, s)
    assert result.best_found == best
    assert [(write_graph6(spec.base), spec.weights) for spec in result.witnesses] == witnesses


def test_extremal_domain_checks():
    with pytest.raises(ValueError):
        search_extremal(10, 3)
    with pytest.raises(ValueError):
        search_extremal(10, 6)
