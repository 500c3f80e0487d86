"""Exhaustive enumeration, census classification, conjecture hunt, extremal search.

Enumeration proceeds level by level by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A
candidate g + x joins x to an independent mask of g in level t, tried once
per Aut(g)-orbit and only when x has least degree, so on at most
delta(g)+1 vertices.  h = g + x is kept iff x lies in the Aut(h)-orbit of
its canonical vertex: the twin class least by degree, then sorted
neighbour degrees, then canonical quotient order.  This key is invariant,
so an x that another vertex's key beats is dropped before the search.
Complete: deleting the canonical vertex v of a triangle-free h on t+1
vertices leaves some g of level t, and the tried mask in the orbit of the
image of N(v) gives g + x isomorphic to h with x onto v.  Isomorph-free:
an isomorphism between two kept candidates may be taken to map x to x, so
it restricts to an automorphism of their common g carrying one mask onto
the other, and one mask per orbit is tried.  The one canonical search
gives the test, the canonical form and the Aut generators kept.

The maximal graphs on n vertices attach x to a g of level n-1 only along
saturating masks: maximal independent sets holding every deficient end (a
vertex whose closed 2-ball misses one).  Independent keeps g + x
triangle-free; dominating, with x filling every deficient pair, makes it
maximal.  Complete: for any vertex v of a maximal G, N(v) is independent,
dominates G - v and holds every pair whose only common neighbour is v; so
the canonical vertex qualifies, and these masks are closed under Aut(g).
Full levels stop at n-3.  Invariant cuts before each search above them
keep every canonical G - v, and its canonical deletion:
- a parent needs a saturating mask passing the degree test (N(v) does),
  so independent deficient ends, which g's 2-balls decide for each mask;
- a grandparent Q needs its deficient ends bipartite, smaller sides
  totalling at most delta(Q)+1.  Q = P - y passes: a deficient pair of Q
  is one of P, with independent ends, or lies in the independent N(y);
  one side fits in N(y), of size delta(P) <= delta(Q)+1 as y is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .families import AndrasfaiId, _extremal, mycielski_grotzsch, template, templates
from .graph import (
    BlowupSpec,
    Graph,
    InternalConsistencyError,
    _bits,
    _closure,
    _independent_masks,
    _inverse,
    _orbit,
    automorphism_generators,
    blowup,
    canonical_form,
    canonical_labeling,
    canonical_relabel,
    find_induced_all,
    from_edge_list,
    quotient,
)
from .properties import _check_d, _check_q, _simplex, independence_number, is_triangle_free
from .recognition import match_template

if TYPE_CHECKING:
    from .families import VegaId

ENUMERATION_GUARD = 12
EXTREMAL_MAX_ORDER = 30


class ResourceGuardError(RuntimeError):
    """The request exceeds the desk-scale defaults; pass the override to proceed."""


@dataclass(frozen=True)
class CensusRow:
    graph: Graph
    d2: bool
    d3: bool
    d4: bool
    q4: bool
    recognized: Optional[Union[AndrasfaiId, VegaId]]
    induced_c6: bool
    contains_upsilon: bool


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    s: int
    k: int
    formula_value: int
    best_found: int
    witnesses: tuple[BlowupSpec, ...]


Level = list[tuple[Graph, list[tuple[int, ...]]]]  # canonical graphs, each with Aut generators

_tf_levels: list[Level] = [[], [(Graph(1, [0]), [])]]  # triangle-free, by order


def _least_degree_test(g: Graph) -> Callable[[int], bool]:
    """Whether x joined to a mask has least degree in g + x; Aut(g)-invariant."""
    low = min(row.bit_count() for row in g.adj)
    at_low = sum(1 << v for v, row in enumerate(g.adj) if row.bit_count() == low)
    return lambda mask: mask.bit_count() <= low + (not at_low & ~mask)


def _small_masks(g: Graph) -> Iterator[int]:  # the sizes the degree test can pass
    return _independent_masks(g, min(row.bit_count() for row in g.adj) + 1)


def _attach(level: Level, masks_of: Callable[[Graph], Iterable[int]],
            keep: Optional[Callable[[Graph], bool]] = None) -> Level:
    """Each g + x with x joined to a mask of masks_of(g), closed under Aut(g),
    and, with ``keep``, where keep(g + x) holds: one per class by canonical
    augmentation, canonical, sorted, with Aut generators."""
    out = []
    for g, gens in level:
        x = 1 << g.n
        fits = _least_degree_test(g)
        done: set[int] = set()
        for mask in masks_of(g):
            if mask in done or not fits(mask):
                continue
            rows = [row | x if mask >> v & 1 else row for v, row in enumerate(g.adj)] + [mask]
            degree = [row.bit_count() for row in rows]
            key = {v: sorted(degree[u] for u in _bits(row))
                   for v, row in enumerate(rows) if degree[v] == degree[-1]}
            if min(key.values()) < key[g.n]:
                continue  # x is not canonical, nor in any orbit-mate of the mask
            done |= _closure((mask,), lambda m: [sum(1 << a[v] for v in _bits(m)) for a in gens])
            h = Graph(g.n + 1, rows)
            if keep is not None and not keep(h):
                continue  # before the search: keep is isomorphism-invariant
            p, qpos, autos, _ = canonical_labeling(h)
            # the canonical vertex: least degree and key, then first in canonical order
            first = min((key[c[0]], qpos[i], i) for i, c in enumerate(p.classes) if c[0] in key)[2]
            mine = next(i for i, cls in enumerate(p.classes) if cls[-1] == g.n)
            if mine not in _orbit((first,), autos):
                continue
            canon, perm = canonical_relabel(h, p, qpos)
            inv = _inverse(perm)  # carry Aut(h) onto the canonical labels
            out.append((canon, [tuple(perm[a[u]] for u in inv)
                                for a in automorphism_generators(p, autos)]))
    out.sort(key=lambda pair: pair[0].adj)
    return out


def _tf_graphs(n: int) -> list[Graph]:
    while len(_tf_levels) <= n:
        _tf_levels.append(_attach(_tf_levels[-1], _small_masks))
    return [g for g, _ in _tf_levels[n]]


def _two_balls(g: Graph) -> tuple[list[int], int]:
    """Each vertex's closed 2-ball, and the deficient ends, whose ball misses one."""
    balls = [row | 1 << v for v, row in enumerate(g.adj)]
    for row in g.adj:
        for u in _bits(row):
            balls[u] |= row
    return balls, sum(1 << v for v, ball in enumerate(balls) if ball.bit_count() < g.n)


def _saturating_masks(g: Graph) -> list[int]:
    """The maximal independent sets of g that hold every deficient pair."""
    _, ends = _two_balls(g)
    return [m for m in _maximal_independent_sets(g) if m & ends == ends]


def _is_parent(h: Graph) -> bool:
    """Whether a saturating mask of h passes the degree test."""
    return any(map(_least_degree_test(h), _saturating_masks(h)))


def _parent_masks(g: Graph) -> Iterator[int]:
    """The masks passing the degree test where g + x has independent deficient
    ends; a vertex seeing none of the mask is an end with x as its partner."""
    full = (1 << g.n) - 1
    balls, ends_g = _two_balls(g)
    for m in filter(_least_degree_test(g), _small_masks(g)):
        near, ends = m, ends_g & ~m
        for u in _bits(m):
            near |= g.adj[u]
            ends |= (balls[u] | m != full) << u
        ends |= full & ~near  # partners of x, so x is an end too if there is one
        if not (near != full and m & ends or any(g.adj[u] & ends for u in _bits(ends))):
            yield m


def _is_grandparent(g: Graph) -> bool:
    """Whether g's deficient ends are bipartite, smaller sides totalling <= delta(g)+1."""
    _, ends = _two_balls(g)
    total, rest = 0, ends
    while rest:
        this, other, frontier = 0, 0, rest & -rest
        while frontier:  # colour one component, a distance class at a time
            this |= frontier
            reach = 0
            for v in _bits(frontier):
                reach |= g.adj[v] & ends
            if reach & this:
                return False  # an odd cycle
            this, other, frontier = other, this, reach & ~other
        total += min(this.bit_count(), other.bit_count())
        rest &= ~(this | other)
    return total <= min(row.bit_count() for row in g.adj) + 1


def _parents(n: int) -> Level:
    """Level n-1 filtered by `_is_parent`, built through the cut level n-2."""
    level = _tf_levels[1]
    if n > 3:
        _tf_graphs(n - 3)
        level = _attach(_tf_levels[n - 3], _small_masks, _is_grandparent)
    return _attach(level, _parent_masks, _is_parent) if n > 2 else level


def _guard(n: int, allow_large: bool) -> None:
    """Refuse an order below 2, and enumeration at order n above the guard
    unless allowed."""
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    if n > ENUMERATION_GUARD and not allow_large:
        raise ResourceGuardError(
            f"enumeration at order {n} exceeds the default guard of "
            f"{ENUMERATION_GUARD}; pass allow_large=True to proceed"
        )


def enumerate_maximal_tf(n: int, allow_large: bool = False) -> list[Graph]:
    """All maximal triangle-free graphs on n vertices, one per isomorphism
    class, in canonical form, sorted by canonical adjacency."""
    _guard(n, allow_large)
    return [g for g, _ in _attach(_parents(n), _saturating_masks)]


_C6 = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
_UPSILON = mycielski_grotzsch()[0]


def census_row(g: Graph) -> CensusRow:
    """Classify g; every check runs on one twin quotient.

    That is exact: the covering verdicts of g are those of its quotient,
    decided as `check_d` and `check_q` decide theirs; both patterns are
    twin-free, so `induced_copies` explains why each has a copy in g iff it
    has one in the quotient; and `match_template` gives the certificate
    `recognize(g)` would.
    """
    partition, q = quotient(g)
    d = _check_d(q, 4)
    d2 = d.holds or d.level > 2
    d3 = d.holds or d.level > 3
    # on a triangle-free q every neighbourhood is independent, so _check_q would
    # bound the same vertices and solve the same LP: a D certificate proves Q too
    same_lp = d.certificate is not None and is_triangle_free(q)[0]
    q4 = same_lp or _check_q(q, 4).holds
    certificate = match_template(partition, q)
    recognized = certificate.family if certificate is not None else None
    induced_c6 = next(find_induced_all(q, _C6), None) is not None
    contains_upsilon = next(find_induced_all(q, _UPSILON), None) is not None
    return CensusRow(
        graph=g,
        d2=d2,
        d3=d3,
        d4=d.holds,
        q4=q4,
        recognized=recognized,
        induced_c6=induced_c6,
        contains_upsilon=contains_upsilon,
    )


def check_census_row(row: CensusRow) -> Optional[str]:
    """The first characterization-theorem invariant one classified graph
    breaks, as its text, or None when it keeps all four."""
    if row.d4 != (row.recognized is not None):
        return "level-4 covering iff recognized as a blow-up"
    if row.q4 != row.d4:
        return "certificate variant agrees with plain covering"
    if (not row.induced_c6) != isinstance(row.recognized, AndrasfaiId):
        return "hexagon-free iff recognized over the circulant family"
    if row.d3 and row.induced_c6 and not row.contains_upsilon:
        return "level-3 covering with an induced hexagon must contain the 11-vertex pattern"
    return None


def census(n: int, allow_large: bool = False) -> list[CensusRow]:
    """Classify every maximal triangle-free graph on n vertices, one row per
    graph in enumeration order; `check_census_row` tests a row."""
    return [census_row(g) for g in enumerate_maximal_tf(n, allow_large)]


def hunt_conjecture(max_n: int, allow_large: bool = False) -> list[Graph]:
    """All maximal triangle-free graphs up to max_n vertices where the
    level-3 covering property holds but level 4 fails: the graphs of the
    rows of `census(n)` with d3 and not d4, in census order.

    The first failing level decides level 3 too.  Completeness over the
    searched range is the contract, not existence of a hit.  A max_n below
    2 or above the guard is refused before any order is enumerated.
    """
    _guard(max_n, allow_large)
    return [row.graph for n in range(2, max_n + 1)
            for row in census(n, allow_large=allow_large)
            if row.d3 and not row.d4]


def _template_optimum(
    template: Graph, n: int, s: int, floor: int = -1
) -> tuple[int, list[tuple[int, ...]]]:
    """Best blow-up edge count of one template at order n, independence <= s.

    The template must be triangle-free.  Then each N(v) is independent, so a
    feasible weighting w has W(N(v)) <= s, and counting each edge from both
    ends gives 2E = sum_v w_v * W(N(v)) = ns - sum_v w_v * slack_v with
    slack_v = s - W(N(v)) >= 0.  The walk places weights w >= 1 with sum n,
    first on the vertices that complete the most neighbourhoods.  At a node,
    a complete neighbourhood's slack is exact; any other's is at least s
    minus its weight so far (unplaced vertices at 1) minus the weight left
    to place; an unplaced vertex counts at weight 1.  A node is cut when
    that bound on 2E is below 2 * max(best so far, ``floor``), or when the
    unplaced vertices lack the independence headroom for the weight left.
    The edge cut is strict, so no weighting that reaches the floor is lost.

    A positive floor is first tried at the root.  As w >= 1 and slack >= 0,
    sum_v w_v * slack_v >= sum_v slack_v = ts - sum_v deg(v) * w_v, so with
    x = w - 1 >= 0, 2E <= ns - ts + 2m + sum_v deg(v) * x_v, m the template's
    edges.  A feasible x has x(I) <= s - |I| on each maximal independent set
    I and sum x = n - t, so when the LP max{deg . x : those rows, sum x <=
    n - t} is below 2 * floor - ns + ts - 2m, exactly by `_simplex`, no
    weighting reaches the floor and the walk is skipped.  Strict again, so
    ties at the floor are walked.

    Returns the optimum and its weight tuples in lexicographic order, or
    (-1, []) when no feasible weighting reaches ``floor``.
    """
    t = template.n
    if t > n:
        return -1, []
    mis_masks = _maximal_independent_sets(template)
    mis_load = [m.bit_count() for m in mis_masks]  # all-ones placeholder weights
    if max(mis_load) > s:
        return -1, []
    degree = [row.bit_count() for row in template.adj]
    if floor > 0 and _simplex(
        [[m >> v & 1 for v in range(t)] for m in mis_masks] + [[1] * t],
        [s - load for load in mis_load] + [n - t], degree,
        2 * floor - (n - t) * s - sum(degree),
    ) is not None:
        return -1, []
    per_vertex = [[j for j, m in enumerate(mis_masks) if m >> v & 1] for v in range(t)]
    nbr = [tuple(_bits(template.adj[v])) for v in range(t)]
    order: list[int] = []
    unplaced = (1 << t) - 1
    while unplaced:  # u completes N(v) when it is the last unplaced vertex there
        order.append(max(_bits(unplaced), key=lambda u: sum(
            template.adj[v] & unplaced == 1 << u for v in nbr[u])))
        unplaced &= ~(1 << order[-1])
    weights = [1] * t
    near = list(degree)  # W(N(v)), kept up to date
    open_nbrs = list(degree)  # unplaced vertices in N(v)
    best = -1
    best_weights: list[tuple[int, ...]] = []

    def shift(v: int, delta: int) -> None:
        weights[v] += delta
        for u in nbr[v]:
            near[u] += delta
        for j in per_vertex[v]:
            mis_load[j] += delta

    def walk(i: int, remaining: int) -> None:
        nonlocal best
        twice = n * s
        for v in range(t):
            slack = s - near[v] - (remaining if open_nbrs[v] else 0)
            if slack > 0:
                twice -= weights[v] * slack
        if twice < 2 * max(best, floor):
            return
        if not remaining:  # the one completion, exact: the rest stay at 1
            if twice > 2 * best:
                best = twice // 2
                best_weights.clear()
            best_weights.append(tuple(weights))
            return
        # the unplaced vertices cannot absorb more than their headroom
        absorb = 0
        for u in order[i:]:
            absorb += min(s - mis_load[j] for j in per_vertex[u])
            if absorb >= remaining:
                break
        if absorb < remaining:
            return
        v = order[i]
        for u in nbr[v]:
            open_nbrs[u] -= 1
        for extra in (remaining,) if i == t - 1 else range(remaining + 1):
            shift(v, 1 + extra - weights[v])
            if any(mis_load[j] > s for j in per_vertex[v]):
                break
            walk(i + 1, remaining - extra)
        shift(v, 1 - weights[v])
        for u in nbr[v]:
            open_nbrs[u] += 1

    walk(0, n - t)
    return best, sorted(best_weights)


def _maximal_independent_sets(g: Graph) -> list[int]:
    """All maximal independent sets as bitmasks, by pivoting on an explicit
    stack; branches are pushed in reverse, so they pop in increasing order."""
    out = []
    stack = [(0, (1 << g.n) - 1, 0)]  # (chosen, candidates, excluded)
    while stack:
        chosen, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            out.append(chosen)
            continue
        pool = candidates | excluded
        pivot = max(_bits(pool), key=lambda v: (~g.adj[v] & candidates).bit_count())
        # branch on candidates that are not complement-neighbours of the pivot
        branches = []
        for v in _bits(candidates & (g.adj[pivot] | (1 << pivot))):
            bit = 1 << v
            keep = ~g.adj[v]  # complement-graph closed neighbourhood of v
            branches.append((chosen | bit, candidates & keep & ~bit, excluded & keep))
            candidates &= ~bit
            excluded |= bit
        stack.extend(reversed(branches))
    return out


def search_extremal(n: int, s: int, max_order: int = EXTREMAL_MAX_ORDER) -> ExtremalResult:
    """Best edge count over template blow-ups with order n and independence <= s.

    Templates: the ids of `templates(n)`, keeping an Andrásfai id only at
    the formula index k or next to it, and every Vega id.  All are
    triangle-free, which the walk's edge bound needs: each neighbourhood is
    independent, so 2E = ns - sum_v w_v * (s - W(N(v))) with every term >= 0
    (see `_template_optimum`).  Each template is walked with the best value
    so far as its floor; one that cannot reach it stops early and is
    dropped.  Once the floor is positive, a template is first tried at the
    root: w >= 1 makes the edge bound linear in x = w - 1, and one exact LP
    over the maximal-independent-set rows proves most templates losers
    without a walk (at (22,9) only the first two of 19 are walked).  It is
    a relaxation, so the result is unchanged.  Witnesses come template by
    template, each template's weightings in lexicographic order,
    deduplicated by canonical form of the expansion.
    """
    k, formula = _extremal(n, s)  # validates (n, s) before the cap
    if n > max_order:
        raise ResourceGuardError(f"extremal search capped at order {max_order}")
    best = -1
    specs: list[BlowupSpec] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for ident in templates(n):
        if isinstance(ident, AndrasfaiId) and abs(ident.k - k) > 1:
            continue
        base = template(ident)
        value, weightings = _template_optimum(base, n, s, best)
        if value < best:
            continue
        if value > best:
            best = value
            specs = []
            seen = set()
        for w in weightings:
            spec = BlowupSpec(base, w)
            canon, _ = canonical_form(blowup(spec))
            if canon.adj not in seen:
                seen.add(canon.adj)
                specs.append(spec)
    for spec in specs:  # re-validate from scratch
        expanded = blowup(spec)
        free, _ = is_triangle_free(expanded)
        alpha, _ = independence_number(expanded)
        if expanded.n != n or not free or alpha > s or expanded.edge_count != best:
            raise InternalConsistencyError("extremal witness failed re-validation")
    return ExtremalResult(n, s, k, formula, best, tuple(specs))
