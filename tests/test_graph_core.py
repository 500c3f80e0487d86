"""Bitmask graph kernel: construction, isomorphism, twins, blow-ups."""

from __future__ import annotations

import itertools
import random
import time

import networkx as nx
import pytest
from conftest import (
    canonical_isomorphic,
    induced_oracle,
    induced_search_oracle,
    petersen,
    random_graph,
    refine_oracle,
    relabel_oracle,
    to_nx,
    twin_property_oracle,
)
from networkx.algorithms.isomorphism import GraphMatcher

from trifree import families
import trifree.graph as graph_module
from trifree.graph import (
    BlowupSpec,
    ConstructionError,
    ContractViolation,
    Graph,
    InternalConsistencyError,
    _refine,
    automorphism_order,
    blowup,
    canonical_form,
    canonical_labeling,
    find_induced,
    find_induced_all,
    from_edge_list,
    h_twins,
    has_twin_property,
    induced_subgraph,
    isomorphic,
    quotient,
    relabel,
    twin_partition,
)
from trifree.search import _tf_graphs, enumerate_maximal_tf
from trifree.verify import _templates


def cycle(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_construction_and_accessors():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_construction_rejects_bad_edges():
    with pytest.raises(ConstructionError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(ConstructionError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ConstructionError):
        from_edge_list(3, [(0, 1), (1, 0)])
    # with several bad pairs, the message names the first one listed
    with pytest.raises(ConstructionError, match=r"^duplicate edge \(1, 0\)$"):
        from_edge_list(3, [(0, 1), (1, 0), (2, 2)])
    with pytest.raises(ConstructionError, match=r"^duplicate edge \(0, 1\)$"):
        from_edge_list(3, [(0, 1), (0, 1), (0, 3)])
    with pytest.raises(ConstructionError, match=r"^edge \(2, 2\) is a loop$"):
        from_edge_list(3, [(2, 2), (0, 1), (1, 0)])
    with pytest.raises(ConstructionError, match=r"^edge \(-1, 0\) has an endpoint outside 0..2$"):
        from_edge_list(3, [(-1, 0), (0, 1), (0, 1)])
    with pytest.raises(ConstructionError, match=r"^edge \(1, 3\) has an endpoint outside 0..2$"):
        from_edge_list(3, [(0, 1), (1, 3)])
    # a duplicate listed before a pair whose endpoint fails an index or a shift
    for bad in ((3, 0), (0, -1), (-1, 0), (-4, 1)):
        with pytest.raises(ConstructionError, match=r"^duplicate edge \(2, 1\)$"):
            from_edge_list(3, [(1, 2), (2, 1), bad])


def test_construction_names_a_reversed_duplicate_on_a_large_order():
    edges = [(v, v + 1) for v in range(999)]
    assert from_edge_list(1000, edges).edge_count == 999
    with pytest.raises(ConstructionError, match=r"^duplicate edge \(999, 998\)$"):
        from_edge_list(1000, edges + [(999, 998)])
    # the first pair listed is named, though a loop and a bad endpoint follow
    with pytest.raises(ConstructionError, match=r"^duplicate edge \(501, 500\)$"):
        from_edge_list(1000, edges[:600] + [(501, 500), (7, 7), (0, 1000)] + edges[600:])
    with pytest.raises(ConstructionError, match=r"^edge \(7, 7\) is a loop$"):
        from_edge_list(1000, edges[:600] + [(7, 7), (501, 500)] + edges[600:])


def test_relabel_and_induced_subgraph():
    g = path(4)
    h = relabel(g, (3, 2, 1, 0))
    assert list(h.edges()) == [(0, 1), (1, 2), (2, 3)]
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3 and list(sub.edges()) == [(0, 1), (1, 2)]
    # relabel is the one bijection check: a repeated image, a short map
    for bad in ((0, 0, 1), (0, 1)):
        with pytest.raises(ContractViolation):
            relabel(path(3), bad)


def test_relabel_matches_the_per_vertex_loop():
    rng = random.Random(163)
    hosts = [random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5))) for _ in range(150)]
    for _ in range(150):
        base = random_graph(rng, rng.randint(1, 7))
        hosts.append(blowup(BlowupSpec(base, tuple(rng.randint(1, 4) for _ in range(base.n)))))
    for g in hosts:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert relabel(g, perm) == relabel_oracle(g, perm)
    # K2 plus two isolated twins: both sent to 3 give equal rows, but no bijection
    with pytest.raises(ContractViolation):
        relabel(from_edge_list(4, [(0, 1)]), (1, 0, 3, 3))


def test_isomorphic_equivalence_and_canonical_form():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        perm = isomorphic(g, g)
        assert perm is not None  # reflexive
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        h = relabel(g, tuple(shuffled))
        assert isomorphic(g, h) is not None and isomorphic(h, g) is not None
        assert canonical_form(g)[0].adj == canonical_form(h)[0].adj


def test_isomorphic_permutation_failing_its_recheck_is_internal(monkeypatch):
    import trifree.graph as graph_module

    # C6 and two triangles share a degree sequence; a refinement that never
    # splits a cell walks straight to the identity leaf, which fails the re-check
    g, h = cycle(6), from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    monkeypatch.setattr(graph_module, "_refine", lambda rows, cells, fresh=None: cells)
    with pytest.raises(InternalConsistencyError, match="failed re-check"):
        isomorphic(g, h)


def test_isomorphic_permutations_are_exact():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9))
        order = list(range(g.n))
        rng.shuffle(order)
        h = relabel(g, tuple(order))
        perm = isomorphic(g, h)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.has_edge(u, v) == h.has_edge(perm[u], perm[v])


def test_non_isomorphic_pairs():
    assert isomorphic(cycle(6), from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])) is None
    assert isomorphic(cycle(5), path(5)) is None


def test_isomorphism_agrees_with_networkx():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 8)
        g, h = random_graph(rng, n), random_graph(rng, n)
        ours = isomorphic(g, h) is not None
        theirs = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert ours == theirs


def _degree_preserving_swap(rng, g):
    """g with one pair of edges ab, cd swapped to ad, cb where both are new;
    the degree sequence is kept, the isomorphism type often is not."""
    edges = list(g.edges())
    for _ in range(20):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            return from_edge_list(g.n, kept + [(a, d), (c, b)])
    return g


def test_isomorphic_is_the_least_isomorphism():
    rng = random.Random(35)
    pairs = []
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        pairs.append((g, relabel(g, shuffled)))
        if g.edge_count > 1:
            pairs.append((g, relabel(_degree_preserving_swap(rng, g), shuffled)))
    refuted = 0
    for g, h in pairs:
        least = next((perm for perm in itertools.permutations(range(g.n))
                      if relabel(g, perm) == h), None)
        assert isomorphic(g, h) == least
        assert (least is None) == (canonical_isomorphic(g, h) is None)
        refuted += least is None and g.degree_sequence() == h.degree_sequence()
    assert refuted > 30


def test_isomorphic_agrees_with_canonical_forms_on_the_census():
    rng = random.Random(36)
    for n in range(2, 11):
        members = list(enumerate_maximal_tf(n))
        for g in members:
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for h in members + [relabel(g, shuffled)]:
                assert (isomorphic(g, h) is None) == (canonical_isomorphic(g, h) is None)


def test_isomorphic_on_a_large_perfect_matching():
    g = from_edge_list(400, [(2 * i, 2 * i + 1) for i in range(200)])
    shuffled = list(range(g.n))
    random.Random(37).shuffle(shuffled)
    h = relabel(g, shuffled)
    start = time.perf_counter()
    perm = isomorphic(g, h)
    assert time.perf_counter() - start < 2
    assert perm is not None and relabel(g, perm) == h


def test_rook_graph_is_not_the_shrikhande_graph():
    cells = [(i, j) for i in range(4) for j in range(4)]
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    rook = from_edge_list(16, [(4 * i + j, 4 * k + l) for (i, j), (k, l)
                               in itertools.combinations(cells, 2) if i == k or j == l])
    shrikhande = from_edge_list(16, [(4 * i + j, 4 * k + l) for (i, j), (k, l)
                                     in itertools.combinations(cells, 2)
                                     if ((k - i) % 4, (l - j) % 4) in steps])
    assert rook.degree_sequence() == shrikhande.degree_sequence() == (6,) * 16
    assert isomorphic(rook, shrikhande) is None
    assert not nx.is_isomorphic(to_nx(rook), to_nx(shrikhande))


def _random_cells(rng, n):
    """A seeded random ordered partition of 0..n-1."""
    verts = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [verts[a:b] for a, b in zip([0, *cuts], [*cuts, n])]


def test_refine_matches_counting_into_every_cell():
    rng = random.Random(211)
    graphs = [g for n in range(2, 10) for g in enumerate_maximal_tf(n)]
    graphs += [g for _, g in _templates()]
    graphs += [random_graph(rng, rng.randint(1, 24), rng.choice((0.1, 0.3, 0.6)))
               for _ in range(150)]
    children = 0
    for g in graphs:
        for cells in [[list(range(g.n))]] + [_random_cells(rng, g.n) for _ in range(3)]:
            equitable = _refine(g.adj, cells)
            assert equitable == refine_oracle(g.adj, cells)
            # a child of an equitable partition, first counted into [v] alone
            target = next((i for i, c in enumerate(equitable) if len(c) > 1), None)
            if target is not None:
                cell = equitable[target]
                v = rng.choice(cell)
                child = (equitable[:target] + [[v], [u for u in cell if u != v]]
                         + equitable[target + 1:])
                assert _refine(g.adj, child, [1 << v]) == refine_oracle(g.adj, child)
                children += 1
    assert children > 300


def test_canonical_labeling_is_unchanged_under_the_refine_oracle(monkeypatch):
    rng = random.Random(223)
    graphs = [g for n in range(2, 11) for g in enumerate_maximal_tf(n)]
    graphs += [families.template(t) for t in families.templates(40)]
    # the inputs of the recognize benchmark: members, and blow-ups of templates
    graphs += [families.andrasfai(20), families.andrasfai(24), families.cayley_6k(6),
               families.cayley_6k(7)] + [families.vega(i, 0, 0)[0] for i in (8, 10, 12)]
    for base in (families.vega(3, 0, 0)[0], families.vega(4, 1, 1)[0], families.andrasfai(5),
                 families.andrasfai(7), families.fig41()):
        graphs.append(blowup(BlowupSpec(base, tuple(rng.randint(1, 4) for _ in range(base.n)))))
    fast = [canonical_labeling(g) for g in graphs]
    monkeypatch.setattr(graph_module, "_refine",
                        lambda rows, cells, fresh=None: refine_oracle(rows, cells))
    assert [canonical_labeling(g) for g in graphs] == fast


def test_find_induced_reports_real_copies():
    pet = petersen()
    emb = find_induced(pet, cycle(5))
    assert emb is not None
    copy = induced_subgraph(pet, list(emb))
    assert isomorphic(copy, cycle(5)) is not None
    assert find_induced(pet, complete(3)) is None
    assert find_induced(pet, cycle(4)) is None  # girth 5


def test_find_induced_all_is_deterministic_and_complete():
    host = cycle(6)
    embs = list(find_induced_all(host, path(3)))
    assert embs == list(find_induced_all(host, path(3)))
    # each of the 6 copies of P3 appears with both orientations
    assert len(embs) == 12
    # the whole stream equals every injective induced map in placement order
    shapes = [
        from_edge_list(1, []),                            # single vertex
        from_edge_list(3, []),                            # edgeless
        complete(3),
        complete(4),
        path(3),                                          # twins
        cycle(4),                                         # twins
        from_edge_list(4, [(0, 1), (0, 2), (0, 3)]),      # star: three twins
        from_edge_list(5, [(0, 1), (2, 3), (3, 4)]),      # disconnected
        cycle(5),
    ]
    rng = random.Random(31)
    for _ in range(60):
        host = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8)))
        for pattern in shapes + [random_graph(rng, rng.randint(1, 5), rng.random())]:
            assert list(find_induced_all(host, pattern)) == induced_oracle(host, pattern)
    assert list(find_induced_all(path(3), cycle(4))) == [] == induced_oracle(path(3), cycle(4))


def test_deep_patterns_run_on_a_stack():
    host = cycle(1024)
    emb = next(find_induced_all(host, path(1023)))
    assert induced_subgraph(host, emb) == path(1023)
    assert list(find_induced_all(path(1024), path(1024))) == [
        tuple(range(1024)), tuple(range(1023, -1, -1))]


def test_symmetry_broken_search_keeps_the_plain_stream():
    from trifree.search import _C6, _UPSILON

    lemma_patterns = [families.cube(), families.graph_n(), families.mycielski_grotzsch()[0],
                      _C6, _UPSILON]
    copies = 0
    for _, host in _templates():
        for pattern in lemma_patterns:
            stream = list(find_induced_all(host, pattern))
            assert stream == list(induced_search_oracle(host, pattern))
            copies += len(stream)
    assert copies > 0
    for n in range(2, 10):
        for host in enumerate_maximal_tf(n):
            assert list(find_induced_all(host, _C6)) == list(induced_search_oracle(host, _C6))
    # patterns with large groups: edgeless, K_{1,3}, K_4, C_4, C_5, C_6 and the cube (48)
    shapes = [from_edge_list(3, []), from_edge_list(4, []),
              from_edge_list(4, [(0, 1), (0, 2), (0, 3)]), complete(4),
              cycle(4), cycle(5), cycle(6), families.cube()]
    rng = random.Random(37)
    copies = 0
    for _ in range(30):
        host = random_graph(rng, rng.randint(10, 14), rng.choice((0.2, 0.5, 0.8)))
        for pattern in shapes:
            stream = list(find_induced_all(host, pattern))
            assert stream == list(induced_search_oracle(host, pattern))
            copies += len(stream)
    assert copies > 10_000


def test_the_group_walk_is_not_a_traced_search(monkeypatch):
    from trifree.verify import run_check

    calls = []
    original = graph_module.find_induced_all

    def counted(host, pattern):
        calls.append(pattern.n)
        return original(host, pattern)

    monkeypatch.setattr(graph_module, "find_induced_all", counted)
    assert run_check("cube_lemma").passed
    assert calls == [8] * len(_templates()) == [8] * 18


def test_find_induced_on_quotient_matches_direct_search():
    rng = random.Random(29)
    bases = [cycle(5), cycle(6), petersen(), path(4), complete(3)]
    patterns = [cycle(5), cycle(6), path(4), complete(2), path(3), cycle(4)]
    for _ in range(150):
        base = rng.choice(bases)
        weights = tuple(rng.randint(1, 3) for _ in range(base.n))
        host = blowup(BlowupSpec(base, weights))
        shuffled = list(range(host.n))
        rng.shuffle(shuffled)
        host = relabel(host, tuple(shuffled))
        # path(3) and cycle(4) have twins and take the direct search
        for pattern in patterns + [base]:
            assert find_induced(host, pattern) == next(find_induced_all(host, pattern), None)
        emb = find_induced(host, base)
        reps = twin_partition(host).representatives
        assert emb is not None and set(emb) <= set(reps)


def test_twin_classes_are_independent_and_modular():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12))
        part = twin_partition(g)
        for cls in part.classes:
            for u in cls:
                for v in cls:
                    assert u == v or not g.has_edge(u, v)
        for a_cls in part.classes:
            for b_cls in part.classes:
                if a_cls is b_cls:
                    continue
                joined = {g.has_edge(u, v) for u in a_cls for v in b_cls}
                assert len(joined) == 1


def test_blowup_quotient_round_trip():
    rng = random.Random(19)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10))
        part, q = quotient(g)
        back = blowup(BlowupSpec(q, part.sizes))
        assert isomorphic(back, g) is not None


def test_quotient_of_blowup_recovers_twin_free_base():
    # the pattern checks in verify walk the catalog templates alone, since
    # a blow-up of one has that very template as its quotient, row for row
    rng = random.Random(23)
    base_pool = [cycle(5), petersen(), path(4)] + [g for _, g in _templates()]
    for base in base_pool:
        for _ in range(30):
            weights = tuple(rng.randint(1, 3) for _ in range(base.n))
            big = blowup(BlowupSpec(base, weights))
            part, q = quotient(big)
            assert part.sizes == weights
            assert q == base


def test_internal_producers_build_valid_rows():
    # Graph stores its rows unchecked, so every producer must emit a
    # symmetric, loop-free adjacency inside 0..n-1: rebuilding through the
    # validating constructor must give the same graph.
    rng = random.Random(31)
    hosts = [random_graph(rng, rng.randint(1, 12), rng.choice((0.3, 0.5, 0.7)))
             for _ in range(150)]
    for base in (cycle(5), petersen(), path(4)):
        for _ in range(20):
            big = blowup(BlowupSpec(base, tuple(rng.randint(1, 3) for _ in range(base.n))))
            shuffle = list(range(big.n))
            rng.shuffle(shuffle)
            hosts.append(relabel(big, tuple(shuffle)))
    hosts += _tf_graphs(8)
    hosts += [g for n in range(2, 11) for g in enumerate_maximal_tf(n)]
    for g in hosts:
        perm = list(range(g.n))
        rng.shuffle(perm)
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        weights = tuple(rng.randint(1, 2) for _ in range(g.n))
        for h in (
            g,
            relabel(g, tuple(perm)),
            induced_subgraph(g, keep),
            quotient(g)[1],
            blowup(BlowupSpec(g, weights)),
            canonical_form(g)[0],
        ):
            assert from_edge_list(h.n, list(h.edges())) == h, h.adj


def test_blowup_rejects_bad_weights():
    with pytest.raises(ConstructionError):
        BlowupSpec(cycle(5), (1, 1, 1))
    with pytest.raises(ConstructionError):
        BlowupSpec(cycle(5), (1, 1, 1, 1, 0))


def test_automorphism_orders():
    assert automorphism_order(cycle(5)) == 10
    assert automorphism_order(complete(4)) == 24
    assert automorphism_order(path(4)) == 2
    assert automorphism_order(petersen()) == 120
    # doubled pentagon vertex: one swap times the stabilizer of that vertex
    assert automorphism_order(blowup(BlowupSpec(cycle(5), (2, 1, 1, 1, 1)))) == 4
    # catalog orders, confirmed with networkx
    assert automorphism_order(families.andrasfai(1)) == 2
    for k in range(2, 9):
        assert automorphism_order(families.andrasfai(k)) == 6 * k - 2
    for k, order in ((1, 12), (2, 48), (3, 144), (4, 384), (6, 2304)):
        assert automorphism_order(families.cayley_6k(k)) == order
    assert automorphism_order(families.mycielski_grotzsch()[0]) == 10
    assert automorphism_order(families.fig41()) == 8
    assert automorphism_order(families.cube()) == 48
    assert automorphism_order(families.graph_n()) == 12


def _nx_automorphism_count(g: Graph, cap: int) -> int:
    """networkx's count of automorphisms, stopping at cap + 1."""
    autos = GraphMatcher(to_nx(g), to_nx(g)).isomorphisms_iter()
    return sum(1 for _ in itertools.islice(autos, cap + 1))


def test_automorphism_order_agrees_with_networkx():
    cap = 5000
    rng = random.Random(2014)
    hosts = [g for n in range(1, 8) for g in _tf_graphs(n)]
    hosts += [g for n in range(2, 10) for g in enumerate_maximal_tf(n)]
    hosts += [random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7))) for _ in range(150)]
    for g in hosts:
        expected = _nx_automorphism_count(g, cap)
        if expected <= cap:
            assert automorphism_order(g) == expected, g.adj
        else:
            assert automorphism_order(g) > cap, g.adj


def test_h_twins_and_twin_property():
    c5 = cycle(5)
    host = blowup(BlowupSpec(c5, (2, 1, 1, 1, 1)))
    emb = find_induced(host, c5)
    assert emb is not None
    twins = h_twins(host, emb, emb[0])
    assert len(twins) >= 1 and emb[0] in twins
    assert has_twin_property(host, c5).holds
    # adjacent copy endpoints whose twins are non-adjacent: C6 against K2
    result = has_twin_property(cycle(6), complete(2))
    assert not result.holds
    emb, edge, q2, z2 = result.counterexample
    assert not cycle(6).has_edge(q2, z2)


def test_twin_property_on_representatives_matches_every_copy():
    rng = random.Random(43)
    patterns = [complete(2), cycle(5), path(4), path(3)]
    failures = 0
    for _ in range(500):
        base = random_graph(rng, rng.randint(3, 7), 0.45)
        weights = tuple(rng.randint(1, 3) for _ in range(base.n))
        host = blowup(BlowupSpec(base, weights))
        shuffled = list(range(host.n))
        rng.shuffle(shuffled)
        host = relabel(host, tuple(shuffled))
        for pattern in patterns:
            edges = list(pattern.edges())
            for e in (None, rng.choice(edges)):
                result = has_twin_property(host, pattern, e)
                assert result == twin_property_oracle(host, pattern, e), (host.adj, e)
                failures += not result.holds
    assert failures > 0


def test_h_twins_requires_copy_vertex():
    c5 = cycle(5)
    emb = find_induced(c5, path(3))
    outside = next(v for v in range(5) if v not in emb)
    with pytest.raises(ValueError):
        h_twins(c5, emb, outside)
