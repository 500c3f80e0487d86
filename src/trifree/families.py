"""Constructors for the named graph families, labelings, maps and formulas.

Vertex numbering is fixed so that permutations and golden values are stable:

* circulant families label vertices 0..n-1;
* the vega family puts the surviving inner circulant vertices first (shifted
  down past a deletion), then the hexagon vertices a, v, c, u, b, w, then x,
  then y when present;
* the 11-vertex four-chromatic graph uses a_0..a_4 = 0..4, b_0..b_4 = 5..9,
  centre c = 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .graph import (
    BlowupSpec,
    ConstructionError,
    Graph,
    InternalConsistencyError,
    _bits,
    check_order,
    from_edge_list,
    relabel,
)

class UnavailableMapError(ValueError):
    """The requested named map does not exist on this family member."""


@dataclass(frozen=True)
class AndrasfaiId:
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConstructionError(f"family index must be >= 1, got {self.k}")

    @property
    def order(self) -> int:
        return 3 * self.k - 1


@dataclass(frozen=True)
class VegaId:
    i: int
    mu: int
    nu: int

    def __post_init__(self) -> None:
        if self.i < 2:
            raise ConstructionError(f"inner index must be >= 2, got {self.i}")
        if self.mu not in (0, 1) or self.nu not in (0, 1):
            raise ConstructionError("deletion flags must be 0 or 1")

    @property
    def order(self) -> int:
        return 3 * self.i + 7 - self.mu - self.nu


def _circulant(n: int, k: int, connection: Sequence[range]) -> Graph:
    """The circulant on n vertices whose distances, the union of the lazy
    `connection` ranges inside 1..n-1, are closed under negation mod n: each
    edge {u, u + d} is listed once, with u + d < n, after the order check."""
    if k < 1:
        raise ConstructionError(f"family index must be >= 1, got {k}")
    check_order(n)
    edges = [(u, u + d) for span in connection for d in span for u in range(n - d)]
    return from_edge_list(n, edges)


def andrasfai(k: int) -> Graph:
    """The k-regular circulant on 3k-1 vertices with connection set k..2k-1."""
    return _circulant(3 * k - 1, k, [range(k, 2 * k)])


@dataclass(frozen=True)
class UpsilonLabeling:
    """Named vertices of the 11-vertex, 20-edge graph."""

    a: tuple[int, int, int, int, int]
    b: tuple[int, int, int, int, int]
    c: int

    def names(self) -> dict[int, str]:
        """Position -> display name a0..a4, b0..b4, c, for DOT export."""
        labels = {pos: f"a{j}" for j, pos in enumerate(self.a)}
        labels.update({pos: f"b{j}" for j, pos in enumerate(self.b)})
        labels[self.c] = "c"
        return labels


def mycielski_grotzsch() -> tuple[Graph, UpsilonLabeling]:
    """The 11-vertex graph with edges a_i c, a_i b_{i+-2}, b_i b_{i+2} (mod 5)."""
    a = tuple(range(5))
    b = tuple(range(5, 10))
    c = 10
    edges = []
    for i in range(5):
        edges.append((a[i], c))
        edges.append((a[i], b[(i + 2) % 5]))
        edges.append((a[i], b[(i - 2) % 5]))
        edges.append((b[i], b[(i + 2) % 5]))
    return from_edge_list(11, edges), UpsilonLabeling(a, b, c)


@dataclass(frozen=True)
class VegaLabeling:
    """Positions of the named vertices inside a vega family member.

    ``inner_map[j]`` is the graph position of inner circulant label j, or -1
    when that label was deleted.  The colour classes list surviving inner
    positions only.
    """

    i: int
    mu: int
    nu: int
    inner_map: tuple[int, ...]
    a: int
    b: int
    c: int
    u: int
    v: int
    w: int
    x: int
    y: Optional[int]
    red: tuple[int, ...]
    green: tuple[int, ...]
    blue: tuple[int, ...]
    hexagon: tuple[int, int, int, int, int, int]

    def inner(self, label: int) -> int:
        pos = self.inner_map[label]
        if pos < 0:
            raise KeyError(f"inner vertex {label} was deleted")
        return pos

    def colour_of_label(self, label: int) -> str:
        return _colour(self.i, label)

    def labels(self) -> Iterator[tuple[int | str, int]]:
        """(label, position) per vertex: inner labels in order, then a, b, c, u, v, w, x, y."""
        for j, pos in enumerate(self.inner_map):
            if pos >= 0:
                yield j, pos
        for name in "abcuvwxy":
            pos = getattr(self, name)
            if pos is not None:
                yield name, pos

    def names(self) -> dict[int, str]:
        """Position -> display name, for reports and DOT export."""
        return {pos: str(label) for label, pos in self.labels()}


_HUBS = {"red": "au", "green": "bv", "blue": "cw"}  # hexagon vertices that see each colour


def _colour(i: int, label: int) -> str:
    """The colour class of inner label j: red below i, green below 2i, else blue."""
    return ("red", "green", "blue")[label // i]


def vega(i: int, mu: int, nu: int) -> tuple[Graph, VegaLabeling]:
    """A vega family member: inner circulant, coloured hexagon, x and maybe y.

    The inner graph is the order-(3i-1) circulant restricted to the surviving
    labels; a, u see red; b, v see green; c, w see blue; the external hexagon
    is a-v-c-u-b-w; x sees a, b, c; with mu=0, y sees u, v, w, x.  nu=1
    deletes inner label 2i-1 and mu=1 deletes y.
    """
    ident = VegaId(i, mu, nu)
    check_order(ident.order)
    ninner = 3 * i - 1
    deleted = 2 * i - 1 if nu else ninner
    inner_map = [-1 if j == deleted else j - (j > deleted) for j in range(ninner)]
    alive = [(pos, _colour(i, j)) for j, pos in enumerate(inner_map) if pos >= 0]
    base = ninner - nu
    a, v, c, u, b, w, x = range(base, base + 7)
    y = base + 7 if mu == 0 else None
    labeling = VegaLabeling(
        i=i,
        mu=mu,
        nu=nu,
        inner_map=tuple(inner_map),
        a=a,
        b=b,
        c=c,
        u=u,
        v=v,
        w=w,
        x=x,
        y=y,
        red=tuple(pos for pos, colour in alive if colour == "red"),
        green=tuple(pos for pos, colour in alive if colour == "green"),
        blue=tuple(pos for pos, colour in alive if colour == "blue"),
        hexagon=(a, v, c, u, b, w),
    )

    edges = [(getattr(labeling, name), pos) for pos, colour in alive for name in _HUBS[colour]]
    edges += [(a, v), (v, c), (c, u), (u, b), (b, w), (w, a)]
    edges += [(x, a), (x, b), (x, c)]
    if y is not None:
        edges += [(y, u), (y, v), (y, w), (y, x)]

    # andrasfai(i)'s rows, minus the deleted label's bit, with the bits above it moved down
    low = (1 << deleted) - 1
    inner = [row & low | row >> 1 & ~low for j, row in enumerate(andrasfai(i).adj) if j != deleted]
    outer = from_edge_list(ident.order, edges).adj
    graph = Graph(ident.order, [row | inner[p] if p < base else row for p, row in enumerate(outer)])
    return graph, labeling


def templates(max_order: int) -> list[Union[AndrasfaiId, VegaId]]:
    """Every template id of order at most max_order, Andrásfai by k, then
    Vega by (i, mu, nu): the one list that recognition, the extremal search
    and the lemma registry select from."""
    vegas = (VegaId(i, mu, nu) for i in range(2, (max_order - 5) // 3 + 1)
             for mu in (0, 1) for nu in (0, 1))
    return ([AndrasfaiId(k) for k in range(1, (max_order + 1) // 3 + 1)]
            + [ident for ident in vegas if ident.order <= max_order])


def template(ident: Union[AndrasfaiId, VegaId]) -> Graph:
    """The template graph an id names, without its labeling."""
    if isinstance(ident, AndrasfaiId):
        return andrasfai(ident.k)
    return vega(ident.i, ident.mu, ident.nu)[0]


def cube() -> Graph:
    """K_{4,4} minus a perfect matching: vertices 0..3 vs 4..7, edge iff i != j."""
    edges = [(i, 4 + j) for i in range(4) for j in range(4) if i != j]
    return from_edge_list(8, edges)


GRAPH_N_NAMES = tuple(f"{part}{t}" for part in "abc" for t in (1, 2, 3))


def graph_n() -> Graph:
    """Nine vertices, named by position in GRAPH_N_NAMES: a1..a3, b1..b3,
    c1..c3 = 0..8, with edges a_t c_t, b_t c_t and a_s b_t (s != t)."""
    edges = []
    for i in range(3):
        edges.append((i, 6 + i))
        edges.append((3 + i, 6 + i))
        for j in range(3):
            if i != j:
                edges.append((i, 3 + j))
    return from_edge_list(9, edges)


def cayley_6k(k: int) -> Graph:
    """The circulant on 6k vertices with connection set +-{k..2k-1}."""
    return _circulant(6 * k, k, [range(k, 2 * k), range(4 * k + 1, 5 * k + 1)])


FIG41_NAMES = tuple(f"a{t}" for t in range(1, 9)) + tuple(f"b{t}" for t in range(1, 5))


def fig41() -> Graph:
    """A fixed 12-vertex, 24-edge, 4-regular triangle-free graph.

    Vertices are named by position in FIG41_NAMES: a1..a8 = 0..7 and
    b1..b4 = 8..11.
    """
    names = {name: pos for pos, name in enumerate(FIG41_NAMES)}
    pairs = [
        ("b1", "b2"), ("b3", "b4"), ("a2", "b1"), ("b1", "b4"), ("b4", "a5"),
        ("a1", "a4"), ("a4", "a7"), ("a7", "a2"), ("a2", "a5"), ("a5", "a8"),
        ("a8", "a3"), ("a3", "a6"), ("a6", "a1"), ("b1", "a3"), ("a3", "a7"),
        ("a7", "b3"), ("b4", "a4"), ("a4", "a8"), ("a8", "b2"), ("a1", "b2"),
        ("b2", "b3"), ("b3", "a6"), ("a1", "a5"), ("a2", "a6"),
    ]
    return from_edge_list(12, [(names[s], names[t]) for s, t in pairs])


def haggkvist_spec() -> BlowupSpec:
    """The weighting of the 11-vertex graph whose expansion is 10-regular on 29."""
    base, labeling = mycielski_grotzsch()
    weights = [0] * 11
    for pos in labeling.a:
        weights[pos] = 2
    for pos in labeling.b:
        weights[pos] = 3
    weights[labeling.c] = 4
    return BlowupSpec(base, tuple(weights))


# -- named maps ---------------------------------------------------------


@dataclass(frozen=True)
class NamedMap:
    name: str
    source: VegaId
    target: VegaId
    perm: tuple[int, ...]


_EXCEPTIONAL = {
    "c": 2, 2: "c", "u": "b", "b": "u", 1: "w", "w": 1,
    "x": 0, 0: "x", 3: "y", "y": 3, "a": "a", "v": "v", 4: 4,
}


def _map_from_labels(name, src: VegaId, dst: VegaId, label_map) -> NamedMap:
    sg, slab = vega(src.i, src.mu, src.nu)
    tg, tlab = vega(dst.i, dst.mu, dst.nu)
    target_pos = dict(tlab.labels())
    images = [0] * sg.n
    for label, pos in slab.labels():
        images[pos] = target_pos[label_map(label)]
    perm = tuple(images)
    if relabel(sg, perm) != tg:
        raise InternalConsistencyError(f"map {name} on {src} failed validation")
    return NamedMap(name, src, dst, perm)


def named_map(i: int, mu: int, nu: int, name: str) -> NamedMap:
    """One of the maps sigma, tau0, tau1, rho, validated as an isomorphism.

    sigma needs mu=0, tau0 needs nu=0, tau1 needs nu=1 and rho needs i=2
    (rho maps the (mu,nu) member onto the (nu,mu) member); anything else is
    an unavailable-map error.
    """
    ident = VegaId(i, mu, nu)
    ninner = 3 * i - 1
    if name == "sigma":
        if mu != 0:
            raise UnavailableMapError("sigma needs the y vertex (mu=0)")
        swap = {"x": "y", "y": "x", "a": "u", "u": "a", "b": "v", "v": "b", "c": "w", "w": "c"}
        return _map_from_labels(name, ident, ident, lambda s: swap.get(s, s))
    if name == "tau0":
        if nu != 0:
            raise UnavailableMapError("tau0 needs inner vertex 2i-1 (nu=0)")
        swap = {"a": "b", "b": "a", "u": "v", "v": "u"}
        return _map_from_labels(
            name, ident, ident,
            lambda s: swap.get(s, s) if isinstance(s, str) else (2 * i - 1 - s) % ninner,
        )
    if name == "tau1":
        if nu != 1:
            raise UnavailableMapError("tau1 is only defined after deleting inner 2i-1 (nu=1)")
        swap = {"b": "c", "c": "b", "v": "w", "w": "v"}
        return _map_from_labels(
            name, ident, ident,
            lambda s: swap.get(s, s) if isinstance(s, str) else (i - 1 - s) % ninner,
        )
    if name == "rho":
        if i != 2:
            raise UnavailableMapError("rho exists only at inner index 2")
        return _map_from_labels(name, ident, VegaId(2, nu, mu), _EXCEPTIONAL.__getitem__)
    raise UnavailableMapError(f"unknown map name {name!r}")


def named_maps(i: int, mu: int, nu: int) -> list[NamedMap]:
    """All named maps available on this family member."""
    out = []
    if mu == 0:
        out.append(named_map(i, mu, nu, "sigma"))
    out.append(named_map(i, mu, nu, "tau0" if nu == 0 else "tau1"))
    if i == 2:
        out.append(named_map(i, mu, nu, "rho"))
    return out


# -- auxiliary paths and their pattern copies ---------------------------


@dataclass(frozen=True)
class AuxPath:
    """A length-3 inner path whose endpoints share a colour class.

    ``copy`` is the induced 11-vertex pattern copy the path determines, as
    the host image of each pattern vertex.
    """

    labels: tuple[int, int, int, int]
    copy: tuple[int, ...]


def aux_paths(i: int, mu: int, nu: int) -> list[AuxPath]:
    """Every monochromatic-endpoint path of length three in the inner circulant.

    Reversals are identified (the lower endpoint label comes first).  The
    member and the pattern are built once.  Each path's copy uses the path,
    x, and the six hexagon vertices, wired by the colours of the path
    entries, and is re-checked to be induced; a failure raises
    InternalConsistencyError naming the path's labels.  The re-check also
    forces the map to be injective: two pattern vertices with one image pass
    it only if they are non-adjacent, and the pattern is twin-free, so some
    third pattern vertex is adjacent to just one of them, a pair it rejects.
    """
    graph, lab = vega(i, mu, nu)
    pattern = mycielski_grotzsch()[0]
    pos = dict(lab.labels())
    inner = {p: j for j, p in pos.items() if isinstance(j, int)}  # position -> inner label
    adj = {
        j: [inner[q] for q in _bits(graph.adj[p]) if q in inner]
        for p, j in inner.items()
    }
    quads = [
        (p0, p1, p2, p3)
        for p0 in adj
        for p1 in adj[p0]
        for p2 in adj[p1]
        if p2 != p0
        for p3 in adj[p2]
        if p3 > p0 and p3 != p1 and lab.colour_of_label(p0) == lab.colour_of_label(p3)
    ]
    out = []
    for quad in sorted(quads):
        (a0, u0), (a1, u1), (a2, u2) = (
            [pos[name] for name in _HUBS[lab.colour_of_label(q)]] for q in quad[:3]
        )
        p0, p1, p2, p3 = (pos[q] for q in quad)
        images = (  # of a_0..a_4, b_0..b_4, c
            u1, p0, p3, u2, lab.x, p2, a1, a2, p1, u0, a0,
        )
        for s in range(11):
            for t in range(s + 1, 11):
                if pattern.has_edge(s, t) != graph.has_edge(images[s], images[t]):
                    raise InternalConsistencyError(
                        f"copy of path {list(quad)} is not induced at pattern pair ({s}, {t})"
                    )
        out.append(AuxPath(quad, images))
    return out


# -- extremal edge-count formula ----------------------------------------


def extremal_formula(n: int, s: int) -> int:
    """Largest edge count of the template blow-up construction at (n, s).

    Exact integer evaluation of k(k-1)n^2/2 - k(3k-4)ns + (3k-4)(3k-1)s^2/2
    with k = ceil(s / (3s - n)); defined for n/3 < s <= n/2.
    """
    return _extremal(n, s)[1]


def _extremal(n: int, s: int) -> tuple[int, int]:
    """(k, extremal_formula(n, s)), after the domain check."""
    if not (3 * s > n and 2 * s <= n):
        raise ValueError(f"s must satisfy n/3 < s <= n/2, got (n, s) = ({n}, {s})")
    k = -(-s // (3 * s - n))
    twice = k * (k - 1) * n * n - 2 * k * (3 * k - 4) * n * s + (3 * k - 4) * (3 * k - 1) * s * s
    return k, twice // 2
