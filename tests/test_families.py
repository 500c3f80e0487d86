"""Named constructions: circulants, the hexagon families, fixtures, maps."""

from __future__ import annotations

import pytest
from conftest import to_nx

import networkx as nx

from trifree.families import (
    AndrasfaiId,
    UnavailableMapError,
    VegaId,
    _map_from_labels,
    andrasfai,
    aux_paths,
    cayley_6k,
    cube,
    extremal_formula,
    fig41,
    graph_n,
    haggkvist_spec,
    mycielski_grotzsch,
    named_map,
    named_maps,
    template,
    templates,
    vega,
)
from trifree.graph import (
    ConstructionError,
    ContractViolation,
    blowup,
    find_induced,
    from_edge_list,
    induced_subgraph,
    isomorphic,
    twin_partition,
)
from trifree.properties import (
    independence_number,
    is_maximal_triangle_free,
    is_triangle_free,
)


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def is_twin_free(g) -> bool:
    return all(len(c) == 1 for c in twin_partition(g).classes)


@pytest.mark.parametrize("k", range(1, 9))
def test_circulant_family_shape(k):
    g = andrasfai(k)
    assert g.n == 3 * k - 1
    assert g.degree_sequence() == (k,) * g.n
    assert is_maximal_triangle_free(g).holds
    assert is_twin_free(g)
    assert g.n < 6 or find_induced(g, cycle(6)) is None
    assert independence_number(g)[0] == k


def test_smallest_circulants_are_edge_and_pentagon():
    assert isomorphic(andrasfai(1), from_edge_list(2, [(0, 1)])) is not None
    assert isomorphic(andrasfai(2), cycle(5)) is not None


def _refuse_edge_lists(monkeypatch):
    """Make any edge-list construction fail: an oversized member must be
    refused before its edges are listed."""
    def fail(*_):
        raise AssertionError("edge list built before the order check")

    monkeypatch.setattr("trifree.families.from_edge_list", fail)


def test_andrasfai_rejects_bad_index(monkeypatch):
    with pytest.raises(ValueError):
        andrasfai(0)
    _refuse_edge_lists(monkeypatch)
    for k in (342, 100_000):  # orders 1025 and 299,999
        with pytest.raises(ConstructionError):
            andrasfai(k)


@pytest.mark.parametrize("i", range(2, 6))
@pytest.mark.parametrize("mu", (0, 1))
@pytest.mark.parametrize("nu", (0, 1))
def test_vega_family_shape(i, mu, nu):
    g, lab = vega(i, mu, nu)
    assert g.n == 3 * i + 7 - mu - nu
    assert is_maximal_triangle_free(g).holds
    assert is_twin_free(g)
    assert find_induced(g, cycle(6)) is not None
    assert find_induced(g, mycielski_grotzsch()[0]) is not None
    hexagon = induced_subgraph(g, list(lab.hexagon))
    assert isomorphic(hexagon, cycle(6)) is not None
    # labeling positions partition the vertex set
    named = set(lab.red + lab.green + lab.blue)
    named |= {lab.a, lab.b, lab.c, lab.u, lab.v, lab.w, lab.x}
    if lab.y is not None:
        named.add(lab.y)
    assert named == set(range(g.n))
    # names() has one entry per vertex: the surviving inner labels, a..x, and y iff mu=0
    names = lab.names()
    assert sorted(names) == list(range(g.n))
    inner = {str(j) for j in range(3 * i - 1) if not (nu and j == 2 * i - 1)}
    assert set(names.values()) == inner | set("abcuvwx") | ({"y"} if mu == 0 else set())


@pytest.mark.parametrize("i", range(2, 13))
@pytest.mark.parametrize("mu", (0, 1))
@pytest.mark.parametrize("nu", (0, 1))
def test_vega_inner_vertices_induce_the_circulant(i, mu, nu):
    g, lab = vega(i, mu, nu)
    alive = [j for j in range(3 * i - 1) if not (nu and j == 2 * i - 1)]
    assert induced_subgraph(g, [lab.inner(j) for j in alive]) == induced_subgraph(andrasfai(i), alive)


@pytest.mark.parametrize("i", range(2, 7))
def test_vega_degree_table(i):
    g, lab = vega(i, 0, 0)
    for pos in (lab.a, lab.b, lab.u, lab.v):
        assert g.degree(pos) == i + 3
    for pos in lab.red + lab.green + lab.blue + (lab.c, lab.w):
        assert g.degree(pos) == i + 2
    assert g.degree(lab.x) == 4 and g.degree(lab.y) == 4


@pytest.mark.parametrize("i", range(2, 7))
def test_vega_edge_identity(i):
    assert vega(i, 0, 0)[0].edge_count - vega(i, 1, 1)[0].edge_count == i + 6


def test_reduced_vega_is_the_eleven_vertex_graph():
    assert isomorphic(vega(2, 1, 1)[0], mycielski_grotzsch()[0]) is not None


def test_vega_rejects_bad_parameters(monkeypatch):
    with pytest.raises(ValueError):
        vega(1, 0, 0)
    with pytest.raises(ValueError):
        vega(2, 2, 0)
    _refuse_edge_lists(monkeypatch)
    for i, mu, nu in ((340, 1, 1), (100_000, 0, 0)):  # orders 1025 and 300,007
        with pytest.raises(ConstructionError):
            vega(i, mu, nu)


def test_named_map_availability():
    sigma = named_map(3, 0, 0, "sigma")
    assert sigma.source == sigma.target == VegaId(3, 0, 0)
    with pytest.raises(UnavailableMapError):
        named_map(3, 1, 0, "sigma")  # needs the apex vertex
    with pytest.raises(UnavailableMapError):
        named_map(3, 0, 1, "tau0")
    with pytest.raises(UnavailableMapError):
        named_map(3, 0, 0, "tau1")
    with pytest.raises(UnavailableMapError):
        named_map(3, 0, 0, "rho")  # exceptional map only at i=2
    with pytest.raises(UnavailableMapError):
        named_map(3, 0, 0, "zeta")


def test_template_graph_inverts_ids():
    assert template(AndrasfaiId(3)).n == 8
    assert template(VegaId(3, 1, 0)).n == 15


def test_templates_list_every_id_up_to_the_order():
    # brute force: Andrásfai k has 3k - 1 vertices, Vega (i, mu, nu) has
    # 3i + 7 - mu - nu, and i = 70 is past every order below
    andrasfai_ids = [AndrasfaiId(k) for k in range(1, 80)]
    vega_ids = [VegaId(i, mu, nu) for i in range(2, 70) for mu in (0, 1) for nu in (0, 1)]
    for n in range(-1, 201):
        expected = ([t for t in andrasfai_ids if 3 * t.k - 1 <= n]
                    + [t for t in vega_ids if 3 * t.i + 7 - t.mu - t.nu <= n])
        assert templates(n) == expected, n
    for t in templates(40):
        assert template(t).n == t.order


def test_a_label_map_that_is_not_a_bijection_is_refused():
    # sends both a and b to a; relabel's bijection check refuses the map
    ident = VegaId(2, 0, 0)
    with pytest.raises(ContractViolation):
        _map_from_labels("collapse", ident, ident, lambda s: "a" if s == "b" else s)


def test_named_maps_cover_expected_sets():
    assert {m.name for m in named_maps(3, 0, 0)} == {"sigma", "tau0"}
    assert {m.name for m in named_maps(3, 1, 1)} == {"tau1"}
    assert {m.name for m in named_maps(2, 0, 1)} == {"sigma", "tau1", "rho"}


def test_rho_is_an_involution_on_symmetric_members():
    for mu in (0, 1):
        rho = named_map(2, mu, mu, "rho")
        assert rho.source == rho.target
        composed = tuple(rho.perm[rho.perm[v]] for v in range(len(rho.perm)))
        assert composed == tuple(range(len(composed)))


def test_rho_swaps_the_asymmetric_members():
    rho = named_map(2, 1, 0, "rho")
    assert rho.source == VegaId(2, 1, 0)
    assert rho.target == VegaId(2, 0, 1)


@pytest.mark.parametrize("i", range(2, 5))
@pytest.mark.parametrize("mu", (0, 1))
@pytest.mark.parametrize("nu", (0, 1))
def test_auxiliary_paths_yield_induced_copies(i, mu, nu):
    paths = aux_paths(i, mu, nu)
    assert paths
    g = vega(i, mu, nu)[0]
    pattern = mycielski_grotzsch()[0]
    for path in paths:
        assert len(set(path.copy)) == 11
        copy = induced_subgraph(g, list(path.copy))
        assert isomorphic(copy, pattern) is not None


def test_mycielski_fixture():
    g, lab = mycielski_grotzsch()
    assert g.n == 11 and g.edge_count == 20
    assert is_maximal_triangle_free(g).holds
    assert is_twin_free(g)
    assert independence_number(g)[0] == 5
    assert set(lab.a) | set(lab.b) | {lab.c} == set(range(11))


def test_cube_fixture():
    g = cube()
    assert g.n == 8 and g.edge_count == 12
    assert g.degree_sequence() == (3,) * 8
    assert is_triangle_free(g)[0]
    assert not is_maximal_triangle_free(g).holds  # antipodal pairs stay open
    assert nx.is_bipartite(to_nx(g))
    assert isomorphic(g, from_edge_list(8, [
        (u, 4 + v) for u in range(4) for v in range(4) if u != v
    ])) is not None


def test_graph_n_fixture():
    g = graph_n()
    assert g.n == 9
    assert is_triangle_free(g)[0]
    assert sorted(g.degree_sequence()) == [2, 2, 2, 3, 3, 3, 3, 3, 3]


@pytest.mark.parametrize("k", range(1, 5))
def test_cayley_family_shape(k):
    g = cayley_6k(k)
    assert g.n == 6 * k
    degrees = set(g.degree_sequence())
    assert len(degrees) == 1  # vertex-transitive circulant
    assert is_triangle_free(g)[0]
    assert find_induced(g, cycle(6)) is not None


def test_circulants_match_networkx():
    def nx_edges(n, offsets):
        return {tuple(sorted(e)) for e in nx.circulant_graph(n, offsets).edges()}

    for k in range(1, 41):
        g = andrasfai(k)
        assert g.n == 3 * k - 1 and set(g.edges()) == nx_edges(g.n, range(k, 2 * k))
        g = cayley_6k(k)
        assert g.n == 6 * k and set(g.edges()) == nx_edges(g.n, range(k, 2 * k))


def test_cayley_rejects_bad_index(monkeypatch):
    with pytest.raises(ConstructionError):
        cayley_6k(0)
    _refuse_edge_lists(monkeypatch)
    with pytest.raises(ConstructionError):
        cayley_6k(171)  # order 1026


def test_counterexample_fixture():
    g = fig41()
    assert g.n == 12
    assert g.degree_sequence() == (4,) * 12
    assert is_triangle_free(g)[0]
    assert independence_number(g)[0] == 4


def test_haggkvist_expansion():
    spec = haggkvist_spec()
    assert isomorphic(spec.base, mycielski_grotzsch()[0]) is not None
    assert sum(spec.weights) == 29
    big = blowup(spec)
    assert big.degree_sequence() == (10,) * 29
    assert is_maximal_triangle_free(big).holds


def test_extremal_formula_values():
    assert extremal_formula(10, 5) == 25
    assert extremal_formula(20, 8) == 80
    for n in range(2, 41, 2):
        assert extremal_formula(n, n // 2) == n * n // 4


def test_extremal_formula_domain():
    with pytest.raises(ValueError):
        extremal_formula(10, 3)  # independence bound at most n/3
    with pytest.raises(ValueError):
        extremal_formula(10, 6)  # above n/2 the question degenerates


def test_family_ids_are_value_objects():
    assert AndrasfaiId(3) == AndrasfaiId(3)
    assert VegaId(2, 1, 1).order == 11
    assert andrasfai(4).n == VegaId(2, 1, 1).order
