"""Exact property checks: triangles, maximality, independence, covering levels.

The two covering properties share one witness format.  A weighting w >= 0
with total 3m refutes level m of the plain covering property when no vertex
sees weight m+1 in its neighbourhood, and refutes the independent-certificate
variant when no independent subset of the support reaches weight m+2, nor
weight m+1 inside a single neighbourhood (on triangle-free graphs every
neighbourhood is independent, so such a weighting refutes both).  Searches
canonicalize multisets as weight vectors and walk vertices in a fixed order,
so results are deterministic.

Holding verdicts are proved for every level at once by an integer dual
(Y, D) of max{sum w : every bounded neighbourhood load <= 1, w >= 0}: a
level-m witness scaled by 1/m is feasible with value 3, and weak duality
gives sum w / m <= sum Y / D < 3.  Every vertex is bounded for the plain
property, each vertex with an independent neighbourhood for the variant.
Y = 1 on the bounded vertices, with D the least number of them in any
neighbourhood, is a dual when fewer than 3D are bounded (delta > n/3 for
the plain property), and is tried first.  When n >= 3 * (largest bounded
degree), w = 1/that degree reaches 3, so no dual exists; otherwise `_simplex`
finds the optimal one on the condensed n x (n+1) tableau.  That one exact
kernel also decides the extremal search's root bound per template (see
`search._template_optimum`).  Refutations come from the DFS, which drops a
subtree (never a leaf) once the room left in neighbourhoods covering its
vertices, plus the caps of its isolated vertices, is below the weight still
to place.  It jumps over each vertex
next to a full neighbourhood (room 0): that node has one child, weight 0,
so the leaves and their order do not change.

Maximum-weight independent sets take isolated vertices, and pendant
vertices at least as heavy as their neighbour (a set holding the neighbour
can swap it for the leaf), then solve each component left by take-first
branch and bound on an explicit stack.  `independence_number` solves the
twin quotient weighted by class size: twins are never adjacent (u in
N(v) = N(u) would be a loop), and with positive weights a maximum set is
maximal, so it takes whole classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .graph import Graph, InternalConsistencyError, _bits, quotient


@dataclass(frozen=True)
class Verdict:
    """Outcome of a covering check: the level reached and any refutation.

    The witness is the refuting weighting, one multiplicity per vertex.  A
    holding verdict proved by the LP carries its integer dual ``(Y, D)``,
    which `validate_covering_certificate` re-checks.
    """

    holds: bool
    level: int
    witness: Optional[tuple[int, ...]]
    certificate: Optional[tuple[tuple[int, ...], int]] = None


@dataclass(frozen=True)
class MaximalityResult:
    holds: bool
    triangle: Optional[tuple[int, int, int]]
    missing_pair: Optional[tuple[int, int]]


def is_triangle_free(g: Graph) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """True plus None, or False plus the lexicographically least triangle."""
    for u in range(g.n):
        row = g.adj[u] >> (u + 1) << (u + 1)
        for v in _bits(row):
            common = g.adj[v] & row
            common >>= v + 1
            if common:
                w = (v + 1) + ((common & -common).bit_length() - 1)
                return False, (u, v, w)
    return True, None


def is_maximal_triangle_free(g: Graph) -> MaximalityResult:
    """Triangle-free and every non-adjacent pair has a common neighbour; a
    failure names the least triangle, else the least pair without one.  The
    twin quotient decides it where that is exact (see `_maximality`)."""
    return _maximality(g, quotient(g)[1])


def _maximality(g: Graph, q: Graph) -> MaximalityResult:
    """`is_maximal_triangle_free(g)` given q, the twin quotient of g.  A proper
    q without isolated vertices that is maximal triangle-free makes g so: a
    triangle or open pair of g across classes is one of q, and twins are
    non-adjacent with a common neighbour, as their row is non-empty.  Every
    other case scans g by pairs, so a failure keeps g's own least witness."""
    if q is not g and all(q.adj) and _maximality(q, q).holds:
        return MaximalityResult(True, None, None)
    free, tri = is_triangle_free(g)
    if not free:
        return MaximalityResult(False, tri, None)
    for u in range(g.n):
        for v in _bits(~g.adj[u] >> (u + 1) << (u + 1) & (1 << g.n) - 1):
            if not g.adj[u] & g.adj[v]:
                return MaximalityResult(False, None, (u, v))
    return MaximalityResult(True, None, None)


def weighted_coverage(g: Graph, weights: tuple[int, ...]) -> tuple[int, ...]:
    """For each vertex, the total weight on its neighbourhood, walked on the support."""
    if len(weights) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(weights)}")
    support = sum(1 << v for v, w in enumerate(weights) if w)
    return tuple(sum(map(weights.__getitem__, _bits(row & support))) for row in g.adj)


# -- maximum-weight independent sets ------------------------------------


def _cover_bound(adj: tuple[int, ...], weights, mask: int) -> int:
    """Upper bound: greedy clique cover, best weight per clique."""
    cliques: list[list[int]] = []  # [clique_mask, max_weight]
    for v in _bits(mask):
        for entry in cliques:
            if adj[v] & entry[0] == entry[0]:
                entry[0] |= 1 << v
                if weights[v] > entry[1]:
                    entry[1] = weights[v]
                break
        else:
            cliques.append([1 << v, weights[v]])
    return sum(entry[1] for entry in cliques)


def _take_forced(adj, weights, mask: int, touched: int, acc: int, acc_mask: int):
    """Take isolated vertices, and pendant ones at least as heavy as their
    neighbour, to a fixpoint; only ``touched`` vertices can have changed."""
    while touched:
        changed = 0
        for v in _bits(touched & mask):
            near = adj[v] & mask
            u = near.bit_length() - 1
            if not mask >> v & 1 or near & (near - 1) or near and weights[v] < weights[u]:
                continue
            if near:
                changed |= adj[u]
            mask &= ~(near | 1 << v)
            acc, acc_mask = acc + weights[v], acc_mask | 1 << v
        touched = changed & mask
    return mask, acc, acc_mask


def _branch_and_bound(adj, weights, mask: int) -> tuple[int, int]:
    """Take-first DFS on an explicit stack, from a fixpoint of `_take_forced`."""
    best, best_mask = 0, 0
    stack = [(mask, 0, 0, 0)]  # (mask, touched, acc, acc_mask)
    while stack:
        mask, touched, acc, acc_mask = stack.pop()
        mask, acc, acc_mask = _take_forced(adj, weights, mask, touched, acc, acc_mask)
        if acc > best:
            best, best_mask = acc, acc_mask
        if not mask or acc + _cover_bound(adj, weights, mask) <= best:
            continue
        pivot = max(_bits(mask), key=lambda v: (adj[v] & mask).bit_count())
        near = adj[pivot] & mask
        stack.append((mask & ~(1 << pivot), near, acc, acc_mask))
        stack.append((mask & ~(near | 1 << pivot), mask, acc + weights[pivot], acc_mask | 1 << pivot))
    return best, best_mask


def max_weight_independent_set(
    g: Graph, weights: tuple[int, ...], within: Optional[int] = None
) -> tuple[int, int]:
    """Exact maximum-weight independent set; returns (total weight, vertex mask).

    ``within`` restricts the ground set to a vertex bitmask.  Zero-weight
    vertices never enter the returned set.  Ties go to the first maximum set
    found: forced vertices first (see the module docstring), then per
    component take-before-skip on the least vertex of largest degree.
    """
    if len(weights) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(weights)}")
    mask = (1 << g.n) - 1 if within is None else within
    mask = sum(1 << v for v in _bits(mask) if weights[v])
    adj = g.adj
    mask, best, best_mask = _take_forced(adj, weights, mask, mask, 0, 0)
    while mask:
        part = grown = mask & -mask
        while grown:
            reach = 0
            for v in _bits(grown):
                reach |= adj[v]
            grown = reach & mask & ~part
            part |= grown
        mask &= ~part
        value, found = _branch_and_bound(adj, weights, part)
        best, best_mask = best + value, best_mask | found
    return best, best_mask


def independence_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with one maximum independent set: the
    classes of `max_weight_independent_set` on the twin quotient weighted by
    class size, in increasing order (exact, see the module docstring)."""
    partition, q = quotient(g)
    value, mask = max_weight_independent_set(q, partition.sizes)
    return value, tuple(sorted(v for i in _bits(mask) for v in partition.classes[i]))


# -- witness searches ----------------------------------------------------


def _coverage_search(
    g: Graph, m: int, bounds, leaf_ok, isolated_cap: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """DFS over weightings with total 3m keeping each coverage <= its bound.

    ``bounds[y]`` caps the weight on the neighbourhood of y; a bound of 3m
    never prunes.  Vertices are visited by descending degree; weights ascend
    from zero.  ``leaf_ok`` filters complete assignments (used for the
    certificate variant); the first accepted leaf is returned.  A vertex with
    a neighbour y carries at most m: more would break y's bound in the plain
    property and fail the certificate at y in the variant.  Vertices without
    neighbours carry the full total unless ``isolated_cap`` lowers that.
    Each node gets the bitmask of order positions still open and visits the
    lowest: y's neighbours close once room[y] is 0, as each could only carry
    0 there, so the leaves and their order are those of the unskipped walk.
    ``usable`` totals room[y] over the y whose last neighbour's position the
    lowest open one has not passed; no open vertex can spend the rest.  At
    least need - loose units go on open non-isolated vertices, each using up
    room by its degree, at least the degree at the highest open position; a
    node where that exceeds ``usable`` has no leaf and is cut.
    """
    n, adj = g.n, g.adj
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    target = 3 * m
    free = target if isolated_cap is None else min(isolated_cap, target)
    caps = [m if adj[v] else free for v in range(n)]
    nbrs = [tuple(_bits(adj[v])) for v in range(n)]
    position = {v: i for i, v in enumerate(order)}
    degree = [len(nbrs[v]) for v in order]  # by order position
    # near[y]: the order positions of y's neighbours, blocked once room[y] is 0
    near = [sum(1 << position[v] for v in nbrs[y]) for y in range(n)]
    ending: list[list[int]] = [[] for _ in range(n)]  # by last neighbour's position
    for y in filter(near.__getitem__, range(n)):
        ending[near[y].bit_length() - 1].append(y)
    room = list(bounds)  # remaining coverage budget per vertex
    weights = [0] * n
    # cover[i]: neighbourhoods holding every non-isolated vertex of order[i:],
    # rebuilt greedily when order[i] is outside; loose[i]: the isolated caps
    cover, loose = [()] * (n + 1), [0] * (n + 1)
    tail = reach = 0
    for i in range(n - 1, -1, -1):
        v = order[i]
        cover[i], loose[i] = cover[i + 1], loose[i + 1]
        if not adj[v]:
            loose[i] += caps[v]
            continue
        tail |= 1 << v
        if reach >> v & 1:
            continue
        chosen, reach = [], 0
        while left := tail & ~reach:
            w = (left & -left).bit_length() - 1
            chosen.append(max(nbrs[w], key=lambda y: (adj[y] & left).bit_count()))
            reach |= adj[chosen[-1]]
        cover[i] = tuple(chosen)

    def dfs(open_: int, placed: int, usable: int, passed: int) -> bool:
        if placed == target:
            return leaf_ok(weights)
        if not open_:
            return False
        idx = (open_ & -open_).bit_length() - 1
        for p in range(passed, idx):
            for y in ending[p]:
                usable -= room[y]
        need = target - placed
        if (need - loose[idx]) * degree[open_.bit_length() - 1] > usable:
            return False
        if loose[idx] + sum(map(room.__getitem__, cover[idx])) < need:
            return False
        u = order[idx]
        un = nbrs[u]
        top = caps[u]
        for y in un:
            r = room[y]
            if r < top:
                top = r
        if top > need:
            top = need
        rest = open_ & (open_ - 1)
        for val in range(top + 1):
            if val:
                weights[u] = val
                usable -= degree[idx]
                for y in un:
                    room[y] -= 1
                    if not room[y]:
                        rest &= ~near[y]
            if dfs(rest, placed + val, usable, idx):
                return True
        for y in un:
            room[y] += top
        weights[u] = 0
        return False

    usable = sum(room[y] for y in range(n) if adj[y])
    return tuple(weights) if dfs((1 << n) - 1, 0, usable, 0) else None


def _certificate_free(g: Graph, m: int, weights) -> bool:
    """No independent support subset of weight m+2, none of weight m+1 in a
    common neighbourhood."""
    w = tuple(weights)
    top, _ = max_weight_independent_set(g, w)
    if top > m + 1:
        return False
    for y in range(g.n):
        if g.adj[y]:
            near, _ = max_weight_independent_set(g, w, within=g.adj[y])
            if near > m:
                return False
    return True


def _simplex(rows, rhs, cost, stop: int) -> Optional[tuple[tuple[int, ...], int]]:
    """Reduced costs by variable and D for max{cost.x : rows x <= rhs, x >= 0},
    if its optimum is below ``stop``; integer data with rhs >= 0.

    Variable r < len(cost) is column r, and len(cost) + i the slack of row i,
    so an optimal slack's reduced cost / D is the dual of its row.
    Fraction-free simplex from the slack basis: every entry stays integral
    over D, the last pivot; Bland's rule (least variable) cannot cycle.  A
    basic column is D times a unit vector, so only the nonbasic ones are
    kept: a pivot's slot takes the leaving variable (the old D in the pivot
    row, -f in a row with entry f), and a row with f = 0 is unchanged, so
    skipped, when the pivot is D.  None once a basis reaches ``stop`` (each
    is feasible) or a column is unbounded.  Callers: `_simplex_dual` and the
    extremal search's root bound.
    """
    n = len(cost)
    tab = [[*row, b] for row, b in zip(rows, rhs)]
    obj, d = [-c for c in cost] + [0], 1
    basis, nonbasic = list(range(n, n + len(tab))), list(range(n))
    while obj[-1] < stop * d:
        col = min((j for j in range(n) if obj[j] < 0), key=nonbasic.__getitem__, default=None)
        if col is None:
            reduced = dict(zip(nonbasic, obj))
            return tuple(reduced.get(r, 0) for r in range(n + len(tab))), d
        best = None
        for i, row in enumerate(tab):
            if row[col] > 0 and (best is None or (row[-1] * tab[best][col], basis[i])
                                 < (tab[best][-1] * row[col], basis[best])):
                best = i
        if best is None:
            return None
        prow, p = tab[best], tab[best][col]
        for row in tab + [obj]:
            f = row[col]
            if row is prow or not f and p == d:
                continue
            row[:] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            row[col] = -f
        prow[col] = d
        basis[best], nonbasic[col], d = nonbasic[col], basis[best], p
    return None


def _simplex_dual(g: Graph, rows: list[int]) -> Optional[tuple[tuple[int, ...], int]]:
    """Integer dual (Y, D) of max{sum w : A w <= 1, w >= 0} if its value is below 3.

    A's rows are the neighbourhoods of ``rows``; Y is the reduced cost of
    each row's slack in `_simplex`, 0 off ``rows``.
    """
    n = g.n
    solved = _simplex([[g.adj[y] >> v & 1 for v in range(n)] for y in rows],
                      [1] * len(rows), [1] * n, 3)
    if solved is None:
        return None
    dual = dict(zip(rows, solved[0][n:]))
    return tuple(dual.get(y, 0) for y in range(n)), solved[1]


def _decide(g: Graph, k: int, bounded, search) -> Verdict:
    """A re-checked dual certificate for every level, else the level search."""
    rows = [y for y in range(g.n) if bounded[y]]
    ones = tuple(map(int, bounded))
    least = min(weighted_coverage(g, ones), default=0)
    certificate = (ones, least) if len(rows) < 3 * least else None
    # otherwise w = 1/(largest bounded degree) is feasible with value >= 3
    if certificate is None and g.n < 3 * max((g.degree(y) for y in rows), default=0):
        certificate = _simplex_dual(g, rows)
    if certificate is not None:
        if not validate_covering_certificate(g, bounded, *certificate):
            raise InternalConsistencyError("covering certificate failed re-validation")
        return Verdict(True, k, None, certificate)
    for m in range(1, k + 1):
        witness = search(m)
        if witness is not None:
            return Verdict(False, m, witness)
    return Verdict(True, k, None)


def _on_quotient(g: Graph, k: int, decide, validate) -> Verdict:
    """``decide`` on the twin quotient; lift a witness or certificate onto
    the class representatives, 0 elsewhere.  A vertex's neighbourhood holds
    the representatives of its quotient neighbours, so sums are unchanged.
    ``validate`` re-checks the lifted witness on g."""
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    partition, q = quotient(g)
    verdict = decide(q, k)

    def lift(values):
        on_rep = dict(zip(partition.representatives, values))
        return tuple(on_rep.get(v, 0) for v in range(g.n))

    if verdict.witness is not None:
        witness = lift(verdict.witness)
        if not validate(g, verdict.level, witness):
            raise InternalConsistencyError("lifted covering witness failed re-validation")
        return replace(verdict, witness=witness)
    if verdict.certificate is not None:
        y, d = verdict.certificate
        return replace(verdict, certificate=(lift(y), d))
    return verdict


def check_d(g: Graph, k: int) -> Verdict:
    """Decide the plain covering property up to level k.

    For each m = 1..k every weighting of total 3m must put weight at least
    m+1 on the open neighbourhood of some vertex; the first refuting
    weighting (in search order) is returned as the witness.  One decision
    runs on the twin quotient: with every vertex bounded, a dual
    certificate (see the module docstring) proves all levels at once;
    otherwise levels are searched in increasing order.
    """
    return _on_quotient(g, k, _check_d, validate_d_witness)


def _check_d(g: Graph, k: int) -> Verdict:
    """`check_d` decided on g itself."""
    return _decide(g, k, [True] * g.n,
                   lambda m: _coverage_search(g, m, [m] * g.n, lambda _: True))


def check_q(g: Graph, k: int) -> Verdict:
    """Decide the independent-certificate covering property up to level k.

    A witness weighting admits no independent support subset of weight m+2
    and none of weight m+1 with a common neighbour.  As in `check_d`, one
    decision runs on the twin quotient.  Its search prunes by coverage at
    every vertex whose neighbourhood is independent (all of them on
    triangle-free input): weight above m there already fails the second
    condition.  The same vertices bound the dual certificate.
    """
    return _on_quotient(g, k, _check_q, validate_q_witness)


def _check_q(g: Graph, k: int) -> Verdict:
    """`check_q` decided on g itself."""
    independent = [all(not g.adj[v] & row for v in _bits(row)) for row in g.adj]
    return _decide(g, k, independent, lambda m: _coverage_search(
        g, m, [m if ind else 3 * m for ind in independent],
        lambda w: _certificate_free(g, m, w), isolated_cap=m + 1,
    ))


def validate_d_witness(g: Graph, m: int, weights: tuple[int, ...]) -> bool:
    """Re-check a level-m refutation of the plain covering property."""
    if len(weights) != g.n or any(w < 0 for w in weights) or sum(weights) != 3 * m:
        return False
    return max(weighted_coverage(g, weights)) <= m


def validate_covering_certificate(g: Graph, bounded, y: tuple[int, ...], d: int) -> bool:
    """Re-check a dual certificate: Y >= 0 and zero off the bounded vertices,
    Y-weight at least D on every neighbourhood, and sum Y < 3D."""
    if len(y) != g.n or d < 1 or any(x < 0 or (x and not b) for x, b in zip(y, bounded)):
        return False
    return sum(y) < 3 * d and all(load >= d for load in weighted_coverage(g, y))


def validate_q_witness(g: Graph, m: int, weights: tuple[int, ...]) -> bool:
    """Re-check a level-m refutation of the certificate variant."""
    if len(weights) != g.n or any(w < 0 for w in weights) or sum(weights) != 3 * m:
        return False
    return _certificate_free(g, m, weights)
