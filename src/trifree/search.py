"""Exhaustive enumeration, census classification, conjecture hunt, extremal search.

Enumeration proceeds level by level by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A
candidate g + x joins x to an independent mask of g in level t.  Masks are
tried once per Aut(g)-orbit and only when x has least degree, and h = g + x
is kept iff x lies in the Aut(h)-orbit of its canonical vertex, the
least-degree twin class first in canonical quotient order.  Complete:
deleting the canonical vertex v of a triangle-free h on t+1 vertices leaves
some g of level t, and the tried mask in the orbit of the image of N(v)
gives g + x isomorphic to h with x onto v.  Isomorph-free: an isomorphism
between two kept candidates may be taken to map x to x, so it restricts to
an automorphism of their common g carrying one mask onto the other, and
only one mask per orbit is tried.  The candidate's one canonical search
gives the test, the canonical form and the automorphism generators kept
for the next level.

The maximal graphs on n vertices attach x to level n-1 only along maximal
independent sets S that hold both ends of every deficient pair (two
non-adjacent vertices with no common neighbour): S independent keeps g + x
triangle-free, S dominating and x filling every deficient pair make it
maximal.  This is complete: for any vertex v of a maximal triangle-free G,
G - v lies in level n-1 up to relabelling, and N(v) is independent,
dominates the rest (v shares a neighbour with every non-neighbour) and holds
both ends of every pair whose only common neighbour in G is v.  So the
canonical vertex qualifies, and the same augmentation is complete and
isomorph-free over these masks, which are closed under Aut(g).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .families import AndrasfaiId, VegaId, _extremal, andrasfai, mycielski_grotzsch, vega
from .graph import (
    BlowupSpec,
    Graph,
    _bits,
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
from .properties import (
    check_d,
    check_q,
    independence_number,
    is_triangle_free,
)
from .recognition import match_template

ENUMERATION_GUARD = 12
EXTREMAL_MAX_ORDER = 30


class ResourceGuardError(RuntimeError):
    """The request exceeds the desk-scale defaults; pass the override to proceed."""


@dataclass(frozen=True)
class CensusRow:
    graph: Graph
    order: int
    d2: bool
    d3: bool
    d4: bool
    q4: bool
    recognized: Optional[Union[AndrasfaiId, VegaId]]
    induced_c6: bool
    contains_upsilon: bool


@dataclass(frozen=True)
class CensusViolation:
    invariant: str
    row: CensusRow


class CensusError(AssertionError):
    def __init__(self, violation: CensusViolation):
        super().__init__(f"census invariant failed: {violation.invariant}")
        self.violation = violation


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


def _mask_orbit(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The images of a vertex mask under the group generated by gens."""
    orbit, frontier = {mask}, [mask]
    while frontier:
        m = frontier.pop()
        for a in gens:
            img = sum(1 << a[v] for v in _bits(m))
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return orbit


def _attach(level: Level, masks_of: Callable[[Graph], Iterable[int]]) -> Level:
    """Each g + x with x joined to a mask of masks_of(g), closed under Aut(g):
    one per isomorphism class by canonical augmentation, canonical, sorted,
    and paired with Aut generators as the graphs of ``level`` are."""
    out = []
    for g, gens in level:
        x = 1 << g.n
        low = min(row.bit_count() for row in g.adj)
        at_low = sum(1 << v for v, row in enumerate(g.adj) if row.bit_count() == low)
        done: set[int] = set()
        for mask in masks_of(g):
            # x needs least degree in g + x; the test is Aut(g)-invariant
            if mask in done or mask.bit_count() > low + (not at_low & ~mask):
                continue
            done |= _mask_orbit(mask, gens)
            rows = [row | x if mask >> v & 1 else row for v, row in enumerate(g.adj)]
            h = Graph(g.n + 1, rows + [mask])
            p, qpos, autos, _ = canonical_labeling(h)
            # the canonical vertex: least degree, then first in canonical order
            degree = [h.adj[cls[0]].bit_count() for cls in p.classes]
            first = min(range(len(degree)), key=lambda i: (degree[i], qpos[i]))
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
        _tf_levels.append(_attach(_tf_levels[-1], _independent_masks))
    return [g for g, _ in _tf_levels[n]]


def _saturating_masks(g: Graph) -> list[int]:
    """The maximal independent sets of g that hold every deficient pair."""
    deficient = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u] >> v & 1 and not g.adj[u] & g.adj[v]:
                deficient |= 1 << u | 1 << v
    return [m for m in _maximal_independent_sets(g) if m & deficient == deficient]


def _guard(n: int, allow_large: bool) -> None:
    """Refuse enumeration at order n above the guard unless allowed."""
    if n > ENUMERATION_GUARD and not allow_large:
        raise ResourceGuardError(
            f"enumeration at order {n} exceeds the default guard of "
            f"{ENUMERATION_GUARD}; pass allow_large=True to proceed"
        )


def enumerate_maximal_tf(n: int, allow_large: bool = False) -> list[Graph]:
    """All maximal triangle-free graphs on n vertices, one per isomorphism
    class, in canonical form, sorted by canonical adjacency."""
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    _guard(n, allow_large)
    _tf_graphs(n - 1)  # builds the levels below
    return [g for g, _ in _attach(_tf_levels[n - 1], _saturating_masks)]


_C6 = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
_UPSILON = mycielski_grotzsch()[0]


def census_row(g: Graph) -> CensusRow:
    """Classify g; every check runs on one twin quotient.

    That is exact: the covering verdicts of g are those of its quotient;
    both patterns are twin-free, so `induced_copies` explains why each has a
    copy in g iff it has one in the quotient; and `match_template` gives the
    certificate `recognize(g)` would.
    """
    partition, q = quotient(g)
    d = check_d(q, 4, direct=True)
    d2 = d.holds or d.level > 2
    d3 = d.holds or d.level > 3
    # on a triangle-free q every neighbourhood is independent, so check_q
    # would bound the same vertices and solve the same LP: a D certificate
    # proves Q too
    same_lp = d.certificate is not None and is_triangle_free(q)[0]
    q4 = same_lp or check_q(q, 4, direct=True).holds
    certificate = match_template(partition, q)
    recognized = certificate.family if certificate is not None else None
    induced_c6 = next(find_induced_all(q, _C6), None) is not None
    contains_upsilon = next(find_induced_all(q, _UPSILON), None) is not None
    return CensusRow(
        graph=g,
        order=g.n,
        d2=d2,
        d3=d3,
        d4=d.holds,
        q4=q4,
        recognized=recognized,
        induced_c6=induced_c6,
        contains_upsilon=contains_upsilon,
    )


def check_census_row(row: CensusRow) -> Optional[CensusViolation]:
    """The characterization-theorem invariants for one classified graph."""
    if row.d4 != (row.recognized is not None):
        return CensusViolation("level-4 covering iff recognized as a blow-up", row)
    if row.q4 != row.d4:
        return CensusViolation("certificate variant agrees with plain covering", row)
    is_andrasfai = isinstance(row.recognized, AndrasfaiId)
    if (not row.induced_c6) != is_andrasfai:
        return CensusViolation("hexagon-free iff recognized over the circulant family", row)
    if row.d3 and row.induced_c6 and not row.contains_upsilon:
        return CensusViolation(
            "level-3 covering with an induced hexagon must contain the 11-vertex pattern",
            row,
        )
    return None


def census(n: int, strict: bool = True, allow_large: bool = False) -> list[CensusRow]:
    """Classify every maximal triangle-free graph on n vertices.

    With ``strict``, the first invariant violation raises CensusError with
    the offending row attached.
    """
    rows = [census_row(g) for g in enumerate_maximal_tf(n, allow_large)]
    if strict:
        for row in rows:
            violation = check_census_row(row)
            if violation is not None:
                raise CensusError(violation)
    return rows


def hunt_conjecture(max_n: int, allow_large: bool = False) -> list[Graph]:
    """All maximal triangle-free graphs up to max_n vertices where the
    level-3 covering property holds but level 4 fails.

    Hits are re-validated by one direct (non-quotient) level-4 search before
    being reported; it returns the first failing level, so it decides level
    3 too.  Completeness over the searched range is the contract, not
    existence of a hit.  A max_n above the guard is refused before any
    order is enumerated.
    """
    _guard(max_n, allow_large)
    hits = []
    for n in range(2, max_n + 1):
        for g in enumerate_maximal_tf(n, allow_large):
            verdict = check_d(g, 4)
            if not verdict.holds and verdict.level == 4:
                direct = check_d(g, 4, direct=True)
                if not direct.holds and direct.level == 4:
                    hits.append(g)
    return hits


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
    per_vertex = [[j for j, m in enumerate(mis_masks) if m >> v & 1] for v in range(t)]
    nbr = [tuple(_bits(template.adj[v])) for v in range(t)]
    order: list[int] = []
    unplaced = (1 << t) - 1
    while unplaced:  # u completes N(v) when it is the last unplaced vertex there
        order.append(max(_bits(unplaced), key=lambda u: sum(
            template.adj[v] & unplaced == 1 << u for v in nbr[u])))
        unplaced &= ~(1 << order[-1])
    weights = [1] * t
    near = [len(row) for row in nbr]  # W(N(v)), kept up to date
    open_nbrs = [len(row) for row in nbr]  # unplaced vertices in N(v)
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

    Templates: the circulant family at the formula index and its neighbours,
    plus every named hexagon-family member fitting the order.  All are
    triangle-free, which the walk's edge bound needs: each neighbourhood is
    independent, so 2E = ns - sum_v w_v * (s - W(N(v))) with every term >= 0
    (see `_template_optimum`).  Each template is walked with the best value
    so far as its floor; one that cannot reach it stops early and is
    dropped.  Witnesses come template by template, each template's
    weightings in lexicographic order, deduplicated by canonical form of
    the expansion.
    """
    k, formula = _extremal(n, s)  # validates (n, s) before the cap
    if n > max_order:
        raise ResourceGuardError(f"extremal search capped at order {max_order}")
    templates: list[Graph] = []
    for j in (k - 1, k, k + 1):
        if j >= 1 and 3 * j - 1 <= n:
            templates.append(andrasfai(j))
    i = 2
    while 3 * i + 5 <= n:
        for mu in (0, 1):
            for nu in (0, 1):
                if VegaId(i, mu, nu).order <= n:
                    templates.append(vega(i, mu, nu)[0])
        i += 1
    best = -1
    specs: list[BlowupSpec] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for template in templates:
        value, weightings = _template_optimum(template, n, s, best)
        if value < best:
            continue
        if value > best:
            best = value
            specs = []
            seen = set()
        for w in weightings:
            spec = BlowupSpec(template, w)
            canon, _ = canonical_form(blowup(spec))
            if canon.adj not in seen:
                seen.add(canon.adj)
                specs.append(spec)
    for spec in specs:  # re-validate from scratch
        expanded = blowup(spec)
        free, _ = is_triangle_free(expanded)
        alpha, _ = independence_number(expanded)
        if expanded.n != n or not free or alpha > s or expanded.edge_count != best:
            raise AssertionError("extremal witness failed re-validation")
    return ExtremalResult(n, s, k, formula, best, tuple(specs))
