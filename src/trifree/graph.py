"""Immutable bitset graphs and exact structural operations.

Vertices are the integers 0..n-1.  Every adjacency row is a Python int used
as a bitset, so neighbourhood algebra (intersection, containment, popcount)
stays single-expression and graphs are hashable values.  All operations are
pure functions; nothing here mutates a graph after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 1024


class ConstructionError(ValueError):
    """The given data cannot describe a simple undirected graph."""


class ContractViolation(RuntimeError):
    """A caller passed data that breaks a documented contract."""


class InternalConsistencyError(RuntimeError):
    """A constructed object failed its own validity re-check."""


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph with bitset adjacency rows.

    A plain value: the constructor stores ``n`` and ``tuple(adj)`` and checks
    nothing.  The caller guarantees 1 <= n <= MAX_VERTICES, exactly n rows,
    every row inside 0..n-1, no loops and symmetric adjacency.  Outside data
    enters through the validating constructors, `from_edge_list` and
    `formats.parse_graph`; the other producers (`relabel`,
    `induced_subgraph`, `quotient`, `blowup`, the enumeration's vertex
    attachment, the graph6 decoder) build correct rows by construction.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        self.adj = tuple(adj)

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits(row):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in range(self.n)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class TwinPartition:
    """Vertex classes with identical neighbourhood rows."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@dataclass(frozen=True)
class BlowupSpec:
    """A base graph plus a positive integer weight per base vertex."""

    base: Graph
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.base.n:
            raise ConstructionError("one weight per base vertex required")
        if any(w < 1 for w in self.weights):
            raise ConstructionError("blow-up weights must be positive")


# -- construction ------------------------------------------------------


def check_order(n: int) -> None:
    """Refuse a vertex count outside 1..MAX_VERTICES."""
    if not 1 <= n <= MAX_VERTICES:
        raise ConstructionError(f"order must be in 1..{MAX_VERTICES}, got {n}")


def from_edge_list(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Build a graph from vertex count and an edge list.

    Rejects an order outside 1..MAX_VERTICES before allocating, then
    out-of-range endpoints, loops, and duplicate pairs (in either
    orientation), naming the offending pair.
    """
    check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ConstructionError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ConstructionError(f"edge ({u}, {v}) is a loop")
        if rows[u] >> v & 1:
            raise ConstructionError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """The graph with vertex v renamed to perm[v].

    The one check that `perm` is a bijection on 0..n-1: `isomorphic` and
    `families.named_map` rely on it, since equal rows alone do not rule out
    two isolated vertices sent to one.  Each distinct row is mapped once:
    twins share their row, and so does its image.
    """
    if sorted(perm) != list(range(g.n)):
        raise ContractViolation("permutation is not a bijection on the graph's vertices")
    rows = [0] * g.n
    image: dict[int, int] = {}
    for v, old in enumerate(g.adj):
        row = image.get(old)
        if row is None:
            row = 0
            for u in _bits(old):
                row |= 1 << perm[u]
            image[old] = row
        rows[perm[v]] = row
    return Graph(g.n, rows)


def _inverse(perm: Sequence[int]) -> list[int]:
    """The inverse of the bijection perm on 0..len(perm)-1."""
    inv = [0] * len(perm)
    for v, img in enumerate(perm):
        inv[img] = v
    return inv


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """The induced subgraph on `vertices`, relabeled by position; only kept
    neighbours are walked, so a quotient costs its own edges."""
    verts = list(vertices)
    index = {v: i for i, v in enumerate(verts)}
    keep = _mask_of(verts)
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in _bits(g.adj[v] & keep):
            rows[i] |= 1 << index[u]
    return Graph(len(verts), rows)


# -- canonical labeling and isomorphism --------------------------------


def _mask_of(cell: Sequence[int]) -> int:
    mask = 0
    for v in cell:
        mask |= 1 << v
    return mask


def _independent_masks(g: Graph, most: int = MAX_VERTICES) -> Iterator[int]:
    """Every independent set of g on at most `most` vertices as a bitmask.

    An explicit-stack DFS decides each vertex in turn, so only these sets,
    the empty one included, are ever built.
    """
    stack = [(0, 0, most)]
    while stack:
        v, mask, room = stack.pop()
        if v == g.n:
            yield mask
            continue
        stack.append((v + 1, mask, room))
        if room and not g.adj[v] & mask:
            stack.append((v + 1, mask | 1 << v, room - 1))


def _refine(rows: Sequence[int], cells: list[list[int]],
            fresh: Optional[list[int]] = None) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Cells split by their neighbour counts into the masks ``fresh`` (every
    cell when None), then into the cells the pass before created; sub-cells
    are ordered by that signature, so refinement is deterministic and
    isomorphism-equivariant.  A pass counted into each older cell M, and
    cells only split since, so M's count is constant on each cell and would
    change neither the groups nor their order (for ``fresh``, the caller
    guarantees this; see `_canonical_search`).
    """
    masks = [_mask_of(c) for c in cells] if fresh is None else fresh
    while True:
        out: list[list[int]] = []
        created: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = rows[v]
                groups.setdefault(tuple((row & m).bit_count() for m in masks), []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                split = [groups[sig] for sig in sorted(groups)]
                out += split
                created += split
        if not created:
            return out
        cells, masks = out, [_mask_of(c) for c in created]


def _closure(seeds: Iterable, step: Callable[..., Iterable]) -> set:
    """The least set holding `seeds` and closed under `step`, which yields
    the images of one element."""
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        for img in step(frontier.pop()):
            if img not in closed:
                closed.add(img)
                frontier.append(img)
    return closed


def _orbit(seeds: Iterable[int], gens: Sequence[Sequence[int]]) -> set[int]:
    """The closure of `seeds` under the maps in `gens`."""
    return _closure(seeds, lambda u: [a[u] for a in gens])


def _canonical_search(
    rows: Sequence[int], n: int, colors: Sequence[int]
) -> tuple[tuple[int, ...], list[tuple[int, ...]], tuple[int, ...]]:
    """Backtracking canonical labeling with refinement and orbit pruning.

    Returns (vertex->position permutation, automorphisms found along the
    way, first path).  The first path is the sequence of vertices
    individualized on the way to the first leaf.  Only color-preserving
    relabelings are considered; cells never cross color boundaries, so the
    color of every canonical position is fixed.  A child's first refinement
    counts only into [v]: the parent is equitable, and a count into the rest
    of v's cell is a constant minus the count into [v], which precedes it.
    """
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    start = _refine(rows, [by_color[c] for c in sorted(by_color)])

    best: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    first: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    first_path: tuple[int, ...] = ()
    autos: list[tuple[int, ...]] = []
    nbrs = [tuple(_bits(row)) for row in rows]

    def record_leaf(cells: list[list[int]], prefix: list[int]) -> None:
        nonlocal best, first, first_path
        position = [0] * n
        for pos, cell in enumerate(cells):
            position[cell[0]] = pos
        # the relabeled adjacency matrix, one int per row, row-major bits
        bit = [1 << (n - 1 - p) for p in position]
        key = tuple(sum(map(bit.__getitem__, nbrs[v])) for v in _inverse(position))
        for ref in (first, best):
            if ref is not None and ref[0] == key and ref[1] != tuple(position):
                ref_inv = _inverse(ref[1])
                auto = tuple(ref_inv[p] for p in position)
                if auto not in autos:
                    autos.append(auto)
        if first is None:
            first = (key, tuple(position))
            first_path = tuple(prefix)
        if best is None or key < best[0]:
            best = (key, tuple(position))

    def descend(cells: list[list[int]], prefix: list[int]) -> None:
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            record_leaf(cells, prefix)
            return
        cell = cells[target]
        done: set[int] = set()
        for v in cell:
            if v in done:
                continue
            child = cells[:target] + [[v]] + [[u for u in cell if u != v]] + cells[target + 1 :]
            descend(_refine(rows, child, [1 << v]), prefix + [v])
            # Close the tried set under automorphisms fixing the prefix:
            # branching on an orbit-mate explores an identical subtree.
            fixing = [a for a in autos if all(a[p] == p for p in prefix)]
            done = _orbit(done | {v}, fixing)
        return

    descend(start, [])
    assert best is not None
    return best[1], autos, first_path


def twin_partition(g: Graph) -> TwinPartition:
    """Group vertices with identical neighbourhood rows, sorted by least member."""
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    classes = sorted((tuple(vs) for vs in groups.values()), key=lambda c: c[0])
    return TwinPartition(tuple(classes), tuple(c[0] for c in classes))


def quotient(g: Graph) -> tuple[TwinPartition, Graph]:
    """The twin partition of g and the graph on its class representatives.

    Cross-class adjacency is all-or-nothing, so the subgraph induced on the
    representatives is the quotient exactly; a twin-free g is its own
    quotient and comes back unchanged.
    """
    p = twin_partition(g)
    if len(p.classes) == g.n:
        return p, g
    return p, induced_subgraph(g, p.representatives)


def blowup(spec: BlowupSpec) -> Graph:
    """Expand each base vertex into an independent block of its weight.

    Blocks are numbered consecutively in base-vertex order and each base edge
    becomes a complete bipartite bundle.
    """
    total = sum(spec.weights)
    check_order(total)
    offsets = [0] * spec.base.n
    acc = 0
    for v in range(spec.base.n):
        offsets[v] = acc
        acc += spec.weights[v]
    block_masks = [
        ((1 << spec.weights[v]) - 1) << offsets[v] for v in range(spec.base.n)
    ]
    rows = [0] * total
    for v in range(spec.base.n):
        nbr_mask = 0
        for u in _bits(spec.base.adj[v]):
            nbr_mask |= block_masks[u]
        for x in range(offsets[v], offsets[v] + spec.weights[v]):
            rows[x] = nbr_mask
    return Graph(total, rows)


def canonical_labeling(
    g: Graph,
) -> tuple[TwinPartition, tuple[int, ...], list[tuple[int, ...]], tuple[int, ...]]:
    """One canonical search on the size-colored twin quotient of g: the twin
    partition, each class's canonical quotient position, the quotient
    automorphisms found (maps on class indices) and the first path.

    The automorphisms found generate the size-preserving group A of the
    quotient: with G_i generated by those fixing path[:i],
    |G_i| >= |orbit of path[i] under G_i| * |G_{i+1}|, and the product of
    those orbit sizes is |A| (see `automorphism_order`).
    """
    p, q = quotient(g)
    qpos, autos, path = _canonical_search(q.adj, q.n, colors=p.sizes)
    return p, qpos, autos, path


def canonical_relabel(
    g: Graph, p: TwinPartition, qpos: Sequence[int]
) -> tuple[Graph, tuple[int, ...]]:
    """The canonical graph of a `canonical_labeling` result: each class a
    consecutive block in canonical quotient order, members in increasing order."""
    position = [0] * g.n
    by_position = sorted(range(len(qpos)), key=qpos.__getitem__)
    for label, v in enumerate(v for i in by_position for v in p.classes[i]):
        position[v] = label
    perm = tuple(position)
    return relabel(g, perm), perm


def canonical_form(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """An isomorphism-invariant relabeling: equal forms iff isomorphic graphs.

    Twin classes are collapsed first and the size-colored quotient is
    canonicalized, which keeps the search tree small on blow-ups and other
    twin-heavy graphs; the canonical graph lists each class as a consecutive
    block in canonical quotient order.
    """
    p, qpos, _, _ = canonical_labeling(g)
    return canonical_relabel(g, p, qpos)


def isomorphic(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """The lexicographically least bijection carrying g onto h, as its image
    list, or None: a function of the two inputs alone.

    Individualisation-refinement with `_refine` on the disjoint union, h's
    vertex x numbered n + x.  An isomorphism f extends to an automorphism of
    the union swapping v and n + f(v), so each cell of a refinement it obeys
    is half g, half h; a child with another cell is cut.  A node pairs the
    least g vertex u of a larger cell with that cell's h vertices in
    increasing order (the child counts only into the pair, as in
    `_canonical_search`); the g vertices below u sit in pairs, so the first
    leaf, a discrete equitable partition of pairs, is the least isomorphism.
    No leaf keys and no automorphism pruning: about n refinements of 2n
    vertices, more where refinement cannot refute a branch (strongly regular
    pairs).  `relabel` re-checks the leaf and that it is a bijection.
    """
    n = g.n
    if n != h.n or g.degree_sequence() != h.degree_sequence():
        return None
    rows = g.adj + tuple(row << n for row in h.adj)
    stack = [([list(range(2 * n))], None)]
    while stack:
        cells, pair = stack.pop()
        if pair is None:
            cells = _refine(rows, cells)
        else:
            i, u, x = pair
            rest = [v for v in cells[i] if v != u and v != x]
            cells = _refine(rows, cells[:i] + [[u, x], rest] + cells[i + 1 :], [1 << u | 1 << x])
        if any(2 * sum(v < n for v in cell) != len(cell) for cell in cells):
            continue
        u, i = min(((cell[0], i) for i, cell in enumerate(cells) if len(cell) > 2),
                   default=(None, None))
        if u is None:
            perm = tuple(x - n for _, x in sorted(cells))
            if relabel(g, perm) != h:
                raise InternalConsistencyError("isomorphism leaf failed re-check")
            return perm
        stack += [(cells, (i, u, x)) for x in reversed(cells[i]) if x >= n]
    return None


def automorphism_generators(
    p: TwinPartition, autos: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Generators of Aut(g) from `canonical_labeling(g)`: swaps of consecutive
    twins, and each quotient automorphism a lifted with the j-th member of
    class i going to the j-th member of class a[i]."""
    n = sum(p.sizes)
    gens = []
    for cls in p.classes:
        for u, v in zip(cls, cls[1:]):
            swap = list(range(n))
            swap[u], swap[v] = v, u
            gens.append(tuple(swap))
    for a in autos:
        lifted = [0] * n
        for i, cls in enumerate(p.classes):
            for u, v in zip(cls, p.classes[a[i]]):
                lifted[u] = v
        gens.append(tuple(lifted))
    return gens


def automorphism_order(g: Graph) -> int:
    """Exact order of the automorphism group.

    Twin classes may be permuted internally at will, so the order is the
    product of class factorials times the order of the size-preserving
    automorphism group A of the twin quotient.  That order is read off the
    canonical search's first path p (McKay-Piperno, "Practical graph
    isomorphism, II", JSC 60, 2014).  With A_i the pointwise stabiliser of
    p[:i] in A, |A_i| = |orbit of p[i] under A_i| * |A_{i+1}|, and the
    stabiliser of the whole path fixes the discrete first leaf, so |A| is
    the product of those orbit sizes.  Each of them is the orbit of p[i]
    under the found automorphisms that fix p[:i]: every automorphism found
    under first-path node i fixes p[:i]; pruning skips a child only when it
    lies in an orbit, under the automorphisms already found, of a child
    that was explored; and each explored orbit-mate of p[i] reaches a leaf
    equivalent to the first leaf, whose comparison with the first leaf
    yields an automorphism taking that orbit-mate to p[i].
    """
    p, _, autos, path = canonical_labeling(g)
    order = 1
    for c in p.classes:
        order *= factorial(len(c))
    for i, v in enumerate(path):
        fixing = [a for a in autos if all(a[u] == u for u in path[:i])]
        order *= len(_orbit((v,), fixing))
    return order


# -- induced pattern search --------------------------------------------


def _fits(host: Graph, pattern: Graph, order: Sequence[int]) -> list[int]:
    """Per placed pattern vertex, the host vertices with the degree bounds a copy needs."""
    slack = host.n - pattern.n
    fit = {d: sum(1 << v for v, row in enumerate(host.adj) if d <= row.bit_count() <= slack + d)
           for d in {pattern.degree(p) for p in order}}
    return [fit[pattern.degree(p)] for p in order]


def _walk(host: Graph, order, links, masks, floors) -> Iterator[tuple[int, ...]]:
    """`find_induced_all`'s backtracking; placing order[t] at v puts steps t + 1 + floors[t] above v."""
    non = [((1 << host.n) - 1) ^ row ^ 1 << v for v, row in enumerate(host.adj)]
    assign, stack = [0] * len(order), [(0, masks[0], masks[1:])]
    while stack:
        step, cand, later = stack.pop()
        low = cand & -cand
        if cand ^ low:
            stack.append((step, cand ^ low, later))
        v = assign[order[step]] = low.bit_length() - 1
        if not later:
            yield tuple(assign)
            continue
        near, far = host.adj[v], non[v]
        narrowed = [m & (near if linked else far) for m, linked in zip(later, links[step])]
        for j in floors[step]:
            narrowed[j] &= -(2 << v)
        if 0 not in narrowed:
            stack.append((step + 1, narrowed[0], narrowed[1:]))


def find_induced_all(host: Graph, pattern: Graph) -> Iterator[tuple[int, ...]]:
    """All induced embeddings of pattern in host, in deterministic order.

    Each embedding is the tuple of host images of the pattern vertices, and
    no host vertex is used twice.  Pattern vertices are placed
    highest-degree-first (ties by index) and host candidates scanned in
    increasing order, so the stream is plain backtracking's, sorted by
    key(d), the images in placement order.

    Forward checking (Ullmann, J. ACM 23, 1976) on an explicit stack: each
    placement of v narrows every later pattern vertex's candidate mask to
    v's neighbours or to its other non-neighbours, and is skipped if a mask
    empties.  Masks start with the host vertices having at least as many
    neighbours and non-neighbours as the pattern vertex, as a copy needs, so
    only subtrees without a copy are cut.  A pattern larger than the host
    empties every mask of that filter.

    Symmetry breaking (Grochow and Kellis, RECOMB 2007) walks one copy per
    class {d∘a : a in Aut}, Aut being the walk of the pattern in itself.
    Placing order[s] floors, above its image, each other member of its orbit
    under the automorphisms fixing order[:s]; all are placed later.  For
    a != id and s the first step a moves, a(order[s]) is such a member, so
    key(d) < key(d∘a); the class's least member meets every floor, as d∘a
    agrees with it before s.  A survivor releases the pending copies with
    lower keys from a heap, then pushes its class-mates.  Each copy follows
    its class's least member, so one below the next survivor is pending.
    """
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    masks = _fits(host, pattern, order)
    if 0 in masks:
        return
    links = [[pattern.has_edge(p, q) for q in order[i + 1 :]] for i, p in enumerate(order)]
    group = list(_walk(pattern, order, links, _fits(pattern, pattern, order), [()] * len(order)))
    floors, step_of, fixing = [], _inverse(order), group
    for s, v in enumerate(order):
        floors.append([step_of[u] - s - 1 for u in {a[v] for a in fixing} - {v}])
        fixing = [a for a in fixing if a[v] == v]
    key, pending = itemgetter(*order), []
    mates = [(itemgetter(*(a[v] for v in order)), itemgetter(*a))
             for a in group if a != tuple(range(pattern.n))]
    for emb in _walk(host, order, links, masks, floors):
        least = key(emb)
        while pending and pending[0][0] < least:
            yield heappop(pending)[1]
        for mate_key, mate in mates:
            heappush(pending, (mate_key(emb), mate(emb)))
        yield emb
    while pending:
        yield heappop(pending)[1]


def induced_copies(host: Graph, pattern: Graph) -> Iterator[tuple[int, ...]]:
    """The `find_induced_all` stream of host, less copies off class representatives.

    A pattern with twins keeps every copy.  A twin-free one is searched in
    the twin quotient and lifted; that is exact, because a copy holding two
    twins of host would hold two twins of the pattern, so moving each copy
    vertex to its class's least member gives a copy with no larger
    coordinate, and representatives keep their order in the quotient.
    """
    if len(twin_partition(pattern).classes) < pattern.n:
        yield from find_induced_all(host, pattern)
        return
    p, q = quotient(host)
    for emb in find_induced_all(q, pattern):
        yield tuple(p.representatives[v] for v in emb)


def find_induced(host: Graph, pattern: Graph) -> Optional[tuple[int, ...]]:
    """The first copy `find_induced_all` yields, or None.

    Moved onto class representatives it would come no later, so it is also
    the first copy of `induced_copies`.
    """
    return next(induced_copies(host, pattern), None)


# -- twins relative to a subgraph copy ----------------------------------


def h_twins(g: Graph, h: Sequence[int], q: int) -> tuple[int, ...]:
    """All vertices whose neighbourhood inside the copy equals that of q.

    `h` is the copy's host vertices and must contain `q`; the result always
    contains q and may mix copy vertices with outside vertices.
    """
    hmask = _mask_of(h)
    if not hmask >> q & 1:
        raise ValueError(f"vertex {q} is not in the embedded copy")
    trace = g.adj[q] & hmask
    return tuple(v for v in range(g.n) if g.adj[v] & hmask == trace)


@dataclass(frozen=True)
class TwinPropertyResult:
    holds: bool
    counterexample: Optional[tuple[tuple[int, ...], tuple[int, int], int, int]] = None


def has_twin_property(
    g: Graph, f: Graph, e: Optional[tuple[int, int]] = None
) -> TwinPropertyResult:
    """Check the copy-twin adjacency property of f (optionally at one edge).

    For every induced copy H of f in g and every copy edge qz corresponding
    to `e` (or to any edge when `e` is None), every H-twin of q must be
    adjacent to every H-twin of z.  On failure the first offending copy in
    the `find_induced_all(g, f)` order, its edge and a twin pair are
    returned.  Walking only the copies of `induced_copies` gives the same
    verdict and counterexample: replacing copy vertices by their twins
    leaves every H-twin set unchanged, so a failing copy moved onto class
    representatives still fails, with the same twin pair, and comes no later.
    """
    if e is not None and not f.has_edge(*e):
        raise ValueError(f"{e} is not an edge of the pattern")
    seen: set[tuple[int, frozenset[int]]] = set()
    for emb in induced_copies(g, f):
        pairs = [(emb[u], emb[v]) for u, v in (f.edges() if e is None else [e])]
        hmask = _mask_of(emb)
        for qz in pairs:
            key = (hmask, frozenset(qz))
            if key in seen:
                continue
            seen.add(key)
            q, z = qz
            tz_mask = _mask_of(h_twins(g, emb, z))
            for q2 in h_twins(g, emb, q):
                missing = tz_mask & ~g.adj[q2]
                if missing:
                    return TwinPropertyResult(False, (emb, qz, q2, next(_bits(missing))))
    return TwinPropertyResult(True)
