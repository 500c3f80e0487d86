"""Shared test helpers: seeded random graphs and independent oracles.

networkx is used as the second, independently implemented route for
isomorphism, independence numbers and triangle counts; the brute-force
searches below stay deliberately naive so they cannot share a bug with the
library's pruned searches.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

import networkx as nx

from trifree.formats import FormatError
from trifree.graph import (
    ConstructionError,
    Graph,
    InternalConsistencyError,
    TwinPropertyResult,
    _bits,
    _inverse,
    _mask_of,
    canonical_form,
    check_order,
    find_induced_all,
    from_edge_list,
    h_twins,
    quotient,
    relabel,
)
from trifree.properties import (
    MaximalityResult,
    _certificate_free,
    is_triangle_free,
    validate_q_witness,
)
from trifree.search import _maximal_independent_sets


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def twin_property_oracle(g: Graph, f: Graph, e=None) -> TwinPropertyResult:
    """The copy-twin property walked over every induced copy of f in g.

    The reference for `graph.has_twin_property`, which walks the copies on
    class representatives only; both must give the same result.
    """
    seen = set()
    for emb in find_induced_all(g, f):
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


def attach_oracle(level, masks_of) -> list[Graph]:
    """Each g + x with x joined to a mask of masks_of(g), deduplicated by
    canonical form and sorted by canonical adjacency.

    The reference for `search._attach`, which builds the same list by
    canonical augmentation: no global dictionary, one mask per orbit.
    """
    seen = {}
    for g in level:
        x = 1 << g.n
        for mask in masks_of(g):
            rows = [row | x if mask >> v & 1 else row for v, row in enumerate(g.adj)]
            canon, _ = canonical_form(Graph(g.n + 1, rows + [mask]))
            seen.setdefault(canon.adj, canon)
    return [seen[key] for key in sorted(seen)]


def knapsack_coverage_search(g: Graph, m: int, bounds, leaf_ok, isolated_cap=None):
    """The coverage DFS with a fractional-knapsack tail bound.

    The reference for `properties._coverage_search`, which walks the same
    tree (vertices by descending degree, weights ascending from zero) but
    cuts it on a neighbourhood-cover bound; both return the same first
    accepted leaf.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    target = 3 * m
    free = target if isolated_cap is None else min(isolated_cap, target)
    caps = [m if g.adj[v] else free for v in range(n)]
    deg = [g.degree(v) for v in range(n)]
    nbrs = [tuple(_bits(g.adj[v])) for v in range(n)]
    room = list(bounds)
    weights = [0] * n

    def dfs(idx: int, placed: int, budget: int) -> bool:
        # budget = sum of all coverage headrooms; a unit on v consumes deg(v)
        if placed == target:
            return leaf_ok(weights)
        if idx == n:
            return False
        # fractional-knapsack capacity of the tail, cheapest degrees first
        need = target - placed
        mass, left = 0, budget
        for j in range(n - 1, idx - 1, -1):
            v = order[j]
            d = deg[v]
            if d > left:
                break
            head = min([caps[v]] + [room[y] for y in nbrs[v]])
            if head:
                take = head if d == 0 or head * d <= left else left // d
                mass += take
                if mass >= need:
                    break
                left -= take * d
        if mass < need:
            return False
        u = order[idx]
        top = min([caps[u], need] + [room[y] for y in nbrs[u]])
        for val in range(top + 1):
            if val:
                weights[u] = val
                for y in nbrs[u]:
                    room[y] -= 1
            if dfs(idx + 1, placed + val, budget - val * deg[u]):
                return True
        for y in nbrs[u]:
            room[y] += top
        weights[u] = 0
        return False

    return tuple(weights) if dfs(0, 0, sum(room)) else None


def level_search_args(g: Graph, m: int, q: bool):
    """The (bounds, leaf_ok, isolated_cap) that `check_d`, or `check_q` when
    ``q``, pass to the coverage search at level m."""
    if not q:
        return [m] * g.n, lambda _: True, None
    independent = [all(not g.adj[v] & row for v in _bits(row)) for row in g.adj]
    return ([m if ind else 3 * m for ind in independent],
            lambda w: _certificate_free(g, m, w), m + 1)


def covering_oracle(g: Graph, k: int, q: bool = False):
    """(holds, level, witness) of the level-by-level knapsack DFS, no LP step.

    The reference for `check_d` (or `check_q` when ``q``), which try a
    fractional certificate first; like them it searches the twin quotient
    and lifts the witness to the class representatives.
    """
    partition, h = quotient(g)
    for m in range(1, k + 1):
        witness = knapsack_coverage_search(h, m, *level_search_args(h, m, q))
        if witness is not None:
            lifted = [0] * g.n
            for rep, x in zip(partition.representatives, witness):
                lifted[rep] = x
            return False, m, tuple(lifted)
    return True, k, None


def direct_covering_oracle(g: Graph, k: int):
    """(holds, level, witness) of the plain covering property, searched level
    by level on g itself: no twin quotient and no LP step.

    The reference for `check_d`, which decides the twin quotient and may
    prove every level at once by a dual certificate.
    """
    for m in range(1, k + 1):
        witness = knapsack_coverage_search(g, m, *level_search_args(g, m, False))
        if witness is not None:
            return False, m, witness
    return True, k, None


def nine_vertex_assert(host: Graph, emb) -> int | None:
    """The conclusion of the graph-N lemma on one copy of N in host.

    ``emb`` maps N's vertices a1..a3, b1..b3, c1..c3 (`families.graph_n`)
    to host vertices.  For each i whose c_{i-1}, c_{i+1} are not adjacent,
    a_i, b_i, c_{i-1} and c_{i+1} must have a common neighbour; the first i
    without one is returned, or None when the conclusion holds.
    """
    for i in range(3):
        a_i, b_i = emb[i], emb[3 + i]
        c_prev, c_next = emb[6 + (i - 1) % 3], emb[6 + (i + 1) % 3]
        if host.has_edge(c_prev, c_next):
            continue
        if not (host.adj[a_i] & host.adj[b_i] & host.adj[c_prev] & host.adj[c_next]):
            return i
    return None


def group_order_oracle(order: int, generators) -> int:
    """The order of the permutation group generated by ``generators``, by
    closing the identity under them one element at a time."""
    idmap = tuple(range(order))
    group = {idmap}
    frontier = [idmap]
    gens = [tuple(g) for g in generators]
    while frontier:
        current = frontier.pop()
        for gen in gens:
            nxt = tuple(gen[current[v]] for v in range(order))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return len(group)


def extremal_oracle(template: Graph, n: int, s: int):
    """(best, weightings) of the walk with the headroom prune only.

    The reference for `search._template_optimum`, which also cuts on the
    degree-slack edge bound and walks vertices in another order; this walk
    takes them by label, so its ties come out in lexicographic order.
    """
    t = template.n
    if t > n:
        return -1, []
    mis_masks = _maximal_independent_sets(template)
    mis_load = [m.bit_count() for m in mis_masks]  # all-ones placeholder weights
    if max(mis_load) > s:
        return -1, []
    per_vertex = [[j for j, m in enumerate(mis_masks) if m >> v & 1] for v in range(t)]
    nbr = [tuple(_bits(template.adj[v])) for v in range(t)]
    weights = [1] * t
    best = -1
    best_weights: list[tuple[int, ...]] = []

    def walk(v: int, remaining: int, edges_so_far: int) -> None:
        nonlocal best, best_weights
        if v == t:
            if edges_so_far >= best:
                if edges_so_far > best:
                    best = edges_so_far
                    best_weights.clear()
                best_weights.append(tuple(weights))
            return
        if remaining:
            # the tail cannot absorb more than its independence headroom
            absorb = 0
            for u in range(v, t):
                head = min(s - mis_load[j] for j in per_vertex[u])
                absorb += head
                if absorb >= remaining:
                    break
            if absorb < remaining:
                return
        choices = (remaining,) if v == t - 1 else range(remaining + 1)
        for extra in choices:
            weights[v] = 1 + extra
            if extra:
                for j in per_vertex[v]:
                    mis_load[j] += extra
            if all(mis_load[j] <= s for j in per_vertex[v]):
                gained = (1 + extra) * sum(weights[u] for u in nbr[v] if u < v)
                walk(v + 1, remaining - extra, edges_so_far + gained)
            if extra:
                for j in per_vertex[v]:
                    mis_load[j] -= extra
        weights[v] = 1
        return

    walk(0, n - t, 0)
    return best, best_weights


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def nx_independence_number(g: Graph) -> int:
    comp = nx.complement(to_nx(g))
    for v in comp.nodes:
        comp.nodes[v]["w"] = 1
    _, weight = nx.max_weight_clique(comp, weight="w")
    return weight


def nx_max_weight_independent_set(g: Graph, weights) -> int:
    comp = nx.complement(to_nx(g))
    positive = [v for v in comp.nodes if weights[v] > 0]
    comp = comp.subgraph(positive)
    if not comp.nodes:
        return 0
    for v in comp.nodes:
        comp.nodes[v]["w"] = weights[v]
    _, weight = nx.max_weight_clique(comp, weight="w")
    return weight


def brute_force_d(g: Graph, k: int):
    """Level and witness of the first covering failure, by raw enumeration."""
    for m in range(1, k + 1):
        for weights in _compositions(3 * m, g.n):
            cover = max(
                sum(weights[v] for v in range(g.n) if g.adj[y] >> v & 1)
                for y in range(g.n)
            )
            if cover <= m:
                return m, weights
    return None, None


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_q1(g: Graph):
    """The least weighting of total 3 that refutes the certificate variant
    at level 1, or None.

    Weightings are ordered lexicographically along the covering search's
    vertex order: degree descending, ties by index.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for parts in _compositions(3, g.n):
        weights = [0] * g.n
        for v, w in zip(order, parts):
            weights[v] = w
        if validate_q_witness(g, 1, tuple(weights)):
            return tuple(weights)
    return None


def induced_oracle(host: Graph, pattern: Graph) -> list[tuple[int, ...]]:
    """Every injective induced map of pattern into host, by brute force.

    Sorted by the images taken in `find_induced_all`'s placement order
    (highest pattern degree first, ties by index), which is the order plain
    backtracking yields them in.
    """
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    pairs = list(itertools.combinations(range(pattern.n), 2))
    maps = [
        images for images in itertools.permutations(range(host.n), pattern.n)
        if all(host.has_edge(images[u], images[v]) == pattern.has_edge(u, v) for u, v in pairs)
    ]
    return sorted(maps, key=lambda images: [images[p] for p in order])


def induced_search_oracle(host: Graph, pattern: Graph) -> Iterator[tuple[int, ...]]:
    """All induced embeddings of pattern in host, by plain backtracking.

    The reference for `graph.find_induced_all`, which walks one copy per
    class of pattern automorphisms and merges the rest back; both must give
    the same stream.  Unlike `induced_oracle`, it reaches hosts of any size.

    Each embedding is the tuple of host images of the pattern vertices, and
    no host vertex is used twice.  Pattern vertices are placed
    highest-degree-first (ties by index) and host candidates scanned in
    increasing order, so the stream is reproducible.

    Forward checking (Ullmann, J. ACM 23, 1976) on an explicit stack: each
    placement of v narrows every later pattern vertex's candidate mask to
    v's neighbours or to its other non-neighbours, and is skipped if a mask
    empties.  Masks start with the host vertices having at least as many
    neighbours and non-neighbours as the pattern vertex, as a copy needs, so
    only subtrees without a copy are cut: the stream is plain backtracking's.
    A pattern larger than the host empties every mask of that filter.
    """
    k, n = pattern.n, host.n
    order = sorted(range(k), key=lambda v: (-pattern.degree(v), v))
    degrees = [row.bit_count() for row in host.adj]
    masks = [sum(1 << v for v in range(n) if d <= degrees[v] <= n - k + d)
             for d in (pattern.degree(p) for p in order)]
    if 0 in masks:
        return
    non = [((1 << n) - 1) ^ row ^ 1 << v for v, row in enumerate(host.adj)]
    links = [[pattern.has_edge(p, q) for q in order[i + 1 :]] for i, p in enumerate(order)]
    assign = [0] * k
    stack = [(0, masks[0], masks[1:])]
    while stack:
        step, cand, later = stack.pop()
        low = cand & -cand
        if cand ^ low:
            stack.append((step, cand ^ low, later))
        v = assign[order[step]] = low.bit_length() - 1
        if step + 1 == k:
            yield tuple(assign)
            continue
        near, far = host.adj[v], non[v]
        narrowed = [m & (near if linked else far) for m, linked in zip(later, links[step])]
        if 0 not in narrowed:
            stack.append((step + 1, narrowed[0], narrowed[1:]))


def maximality_oracle(g: Graph) -> MaximalityResult:
    """Maximality by the pair scan on g itself: the least triangle, else the
    least non-adjacent pair without a common neighbour.

    The reference for `properties.is_maximal_triangle_free`, which decides
    a proper twin quotient without isolated vertices first.
    """
    free, tri = is_triangle_free(g)
    if not free:
        return MaximalityResult(False, tri, None)
    for u in range(g.n):
        for v in _bits(~g.adj[u] >> (u + 1) << (u + 1) & (1 << g.n) - 1):
            if not g.adj[u] & g.adj[v]:
                return MaximalityResult(False, None, (u, v))
    return MaximalityResult(True, None, None)


def simplex_oracle(g: Graph, rows: list[int]):
    """Integer dual (Y, D) of max{sum w : A w <= 1, w >= 0} if its value is below 3.

    The reference for `properties._simplex_dual`, which keeps only the
    nonbasic columns; this keeps the full n × (n + r) tableau, slack columns
    included, and must make the same pivots.  A's rows are the
    neighbourhoods of ``rows``.  Fraction-free simplex from the slack basis:
    rows stay integral over D, the last pivot; Bland's rule cannot cycle.
    None once a basis reaches 3 or a column is unbounded.
    """
    n, r = g.n, len(rows)
    tab = [[g.adj[y] >> v & 1 for v in range(n)] + [int(i == j) for j in range(r)] + [1]
           for i, y in enumerate(rows)]
    obj, basis, d = [-1] * n + [0] * (r + 1), list(range(n, n + r)), 1
    while obj[-1] < 3 * d:
        col = next((j for j in range(n + r) if obj[j] < 0), None)
        if col is None:
            dual = dict(zip(rows, obj[n:-1]))
            return tuple(dual.get(y, 0) for y in range(n)), d
        best = None
        for i, row in enumerate(tab):
            if row[col] > 0 and (best is None or (row[-1] * tab[best][col], basis[i])
                                 < (tab[best][-1] * row[col], basis[best])):
                best = i
        if best is None:
            return None
        prow, p = tab[best], tab[best][col]
        for row in tab + [obj]:
            if row is not prow:
                f = row[col]
                row[:] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        basis[best], d = col, p
    return None


def refine_oracle(rows, cells):
    """Equitable refinement of an ordered partition.

    The reference for `graph._refine`, which counts only into the cells the
    last pass created; this counts into every cell on every pass, and both
    must give the same ordered partition.  Cells split by the multiset of
    neighbour counts into every current cell; sub-cells are ordered by
    their signature, so refinement is deterministic and
    isomorphism-equivariant.
    """
    while True:
        masks = [_mask_of(c) for c in cells]
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((rows[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        if not changed:
            return out
        cells = out


def relabel_oracle(g: Graph, perm) -> Graph:
    """g with vertex v renamed to perm[v], one vertex at a time.

    The reference for `graph.relabel`, which maps each distinct row once.
    """
    rows = [0] * g.n
    for v in range(g.n):
        for u in _bits(g.adj[v]):
            rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, rows)


def brute_force_maximal_tf(g: Graph) -> bool:
    for u, v, w in itertools.combinations(range(g.n), 3):
        if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w):
            return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            if not any(g.has_edge(u, w) and g.has_edge(v, w) for w in range(g.n)):
                return False
    return True


def graph6_oracle_write(g: Graph) -> str:
    """graph6 of g, one pair at a time and six bits per byte.

    The reference for `formats.write_graph6`, which encodes with base64.
    """
    if g.n <= 62:
        header = chr(g.n + 63)
    else:
        header = chr(126) + "".join(chr(((g.n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    bits = [1 if g.has_edge(u, v) else 0 for v in range(g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    return header + "".join(
        chr((bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
             | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]) + 63)
        for i in range(0, len(bits), 6))


def graph6_oracle_rows(text: str) -> tuple[int, ...]:
    """Adjacency rows of well-formed graph6 text, one bit at a time.

    The reference for `formats.parse_graph6`, which decodes with base64.
    """
    s = text.strip()
    if s[0] == chr(126):
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n, body = ord(s[0]) - 63, s[1:]
    bits = [(ord(ch) - 63) >> shift & 1 for ch in body for shift in (5, 4, 3, 2, 1, 0)]
    rows = [0] * n
    index = 0
    for v in range(n):
        for u in range(v):
            if bits[index]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            index += 1
    return tuple(rows)


def canonical_isomorphic(g: Graph, h: Graph):
    """A vertex bijection carrying g onto h exactly, as its image list, or None.

    The reference for `graph.isomorphic`, which returns the least such
    bijection without canonical labelling; both must agree on existence.
    Computed by comparing canonical forms, so the answer is deterministic;
    the returned permutation is re-verified by `relabel`, which also checks
    that it is a bijection, before returning.
    """
    if g.n != h.n or g.degree_sequence() != h.degree_sequence():
        return None
    cg, pg = canonical_form(g)
    ch, ph = canonical_form(h)
    if cg != ch:
        return None
    inv_h = _inverse(ph)
    perm = tuple(inv_h[img] for img in pg)
    if relabel(g, perm) != h:
        raise InternalConsistencyError("canonical forms matched but permutation failed re-check")
    return perm


# graph6 byte <-> its six bits, most significant first.
_G6_BITS = {63 + i: format(i, "06b") for i in range(64)}
_G6_CHAR = {format(i, "06b"): chr(63 + i) for i in range(64)}


def graph6_string_write(g: Graph) -> str:
    """graph6 of g on '0'/'1' strings: column v read off the low v bits of row v.

    The reference for `formats.write_graph6`, which packs one int and
    encodes it with base64.
    """
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0))
    bits = "".join(format(row & ~(-1 << v), f"0{v}b")[::-1] for v, row in enumerate(g.adj) if v)
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_G6_CHAR[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def graph6_string_parse(text: str) -> Graph:
    """graph6 decoded on '0'/'1' strings, with the same checks and messages.

    The reference for `formats.parse_graph6`, which decodes with base64.
    Columns are laid out as an n x n lower-triangular grid, column v
    zero-filled as row v, so row v is its grid row or'ed with ``grid[v::n]``.
    """
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 input")
    if min(s) < "?" or max(s) > "~":
        raise FormatError("graph6 bytes must be in the range 63..126")
    if s[0] == chr(126):
        if len(s) < 4 or s[1] == chr(126):
            raise FormatError("unsupported graph6 size form")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    try:
        check_order(n)
    except ConstructionError as exc:
        raise FormatError(str(exc)) from None
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body for order {n} needs {need} bytes, got {len(body)}")
    bits = body.translate(_G6_BITS)
    if "1" in bits[n * (n - 1) // 2:]:
        raise FormatError("graph6 padding bits must be zero")
    grid = "".join(bits[v * (v - 1) // 2:v * (v + 1) // 2] + "0" * (n - v) for v in range(n))
    return Graph(n, [int(grid[v * n:(v + 1) * n][::-1], 2) | int(grid[v::n][::-1], 2)
                     for v in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)
