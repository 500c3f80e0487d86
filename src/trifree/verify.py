"""Registry of named instance checks for the structural lemmas.

Statements quantified over the whole recognized class are exercised on a
fixed catalog rather than proven.  The catalog is fixed: every check takes
no argument, and its ranges and counts are literals in its body.
Where a lemma's hypothesis or conclusion only depends on twin classes, each
host is checked on the copies of the pattern that use class representatives
only; `graph.induced_copies` states why that reduction is exact for
twin-free patterns.  The pattern lemmas walk the templates alone: the
quotient of a blow-up of a twin-free template is that template, row for
row, so a pass on the templates covers every blow-up of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .families import (
    AndrasfaiId,
    aux_paths,
    cayley_6k,
    cube,
    graph_n,
    haggkvist_spec,
    mycielski_grotzsch,
    named_maps,
    template,
    templates,
    vega,
)
from .formats import graph_payload
from .graph import (
    Graph,
    InternalConsistencyError,
    _bits,
    _closure,
    _independent_masks,
    _mask_of,
    blowup,
    canonical_form,
    find_induced,
    induced_copies,
    induced_subgraph,
    automorphism_order,
)
from .properties import (
    check_d,
    independence_number,
    is_maximal_triangle_free,
    validate_d_witness,
)
from .search import _C6, census

@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    counterexample: Optional[dict]
    elapsed: float
    details: dict = field(default_factory=dict)


def _fail(graph: Graph, **context) -> dict:
    payload = {"graph": graph_payload(graph)}
    payload.update(context)
    return payload


# -- catalog -------------------------------------------------------------


def _templates() -> list[tuple[str, Graph]]:
    """Every template of `templates(19)`, built once and named: the
    circulants k=1..6, then the hexagon members i=2..4."""
    return [
        (f"circulant k={t.k}" if isinstance(t, AndrasfaiId)
         else f"hexagon i={t.i} mu={t.mu} nu={t.nu}", template(t))
        for t in templates(19)
    ]


def _every_copy(pattern: Graph, assertion) -> tuple[Optional[dict], dict]:
    """Apply `assertion(host, copy)` to each `induced_copies` copy in each template.

    The first failure is returned with its member name; the details count
    the copies walked.
    """
    copies = 0
    for name, host in _templates():
        for emb in induced_copies(host, pattern):
            copies += 1
            bad = assertion(host, emb)
            if bad is not None:
                bad["member"] = name
                return bad, {"copies": copies}
    return None, {"copies": copies}


# -- individual checks ----------------------------------------------------


def _check_c310():
    all_pairs = {}
    for i in (2, 3, 4):
        g00 = vega(i, 0, 0)[0]
        g11 = vega(i, 1, 1)[0]
        # `isomorphic(sub, g11) is not None`, sub's degrees read off g00's
        degrees, form = list(g11.degree_sequence()), canonical_form(g11)[0]
        deg, adj, pairs = [g00.degree(x) for x in range(g00.n)], g00.adj, []
        for q in range(g00.n):
            for z in range(q + 1, g00.n):
                rest = [x for x in range(g00.n) if x not in (q, z)]
                if (sorted(deg[x] - (adj[q] >> x & 1) - (adj[z] >> x & 1) for x in rest) == degrees
                        and canonical_form(induced_subgraph(g00, rest))[0] == form):
                    pairs.append([q, z])
        if not pairs:
            return _fail(g00, i=i, reason="no deletion pair reproduces the reduced member"), {}
        for q, z in pairs:
            if g00.has_edge(q, z):
                return _fail(g00, i=i, pair=[q, z], reason="deletion pair is an edge"), {}
        all_pairs[str(i)] = pairs
    return None, {"pairs": all_pairs}


def _check_degree_table():
    for i in range(2, 7):
        g, lab = vega(i, 0, 0)
        spots = {lab.a: i + 3, lab.b: i + 3, lab.u: i + 3, lab.v: i + 3,
                 lab.c: i + 2, lab.w: i + 2, lab.x: 4, lab.y: 4}
        for pos in lab.red + lab.green + lab.blue:
            spots[pos] = i + 2
        for pos, expected in spots.items():
            if g.degree(pos) != expected:
                return _fail(g, i=i, vertex=pos, degree=g.degree(pos), expected=expected), {}
    return None, {}


def _check_edge_identity():
    values = {}
    for i in range(2, 7):
        diff = vega(i, 0, 0)[0].edge_count - vega(i, 1, 1)[0].edge_count
        values[i] = diff
        if diff != i + 6:
            return _fail(vega(i, 0, 0)[0], i=i, difference=diff, expected=i + 6), {}
    return None, {"differences": values}


def _check_cube_lemma():
    return _every_copy(cube(), lambda host, emb: _fail(
        host, embedding=list(emb), reason="induced cube found"))


def _check_graph_n_lemma():
    return _every_copy(graph_n(), lambda host, emb: _fail(
        host, embedding=list(emb), reason="induced graph N found"))


def _beautiful_assert(host: Graph, emb_map) -> Optional[dict]:
    for i in range(5):
        common = host.adj[emb_map[(i - 1) % 5]] & host.adj[emb_map[(i + 1) % 5]]
        stray = common & ~host.adj[emb_map[i]]
        if stray:
            q = (stray & -stray).bit_length() - 1
            return _fail(host, index=i, vertex=q, embedding=list(emb_map))
    return None


def _check_beautiful():
    return _every_copy(mycielski_grotzsch()[0], _beautiful_assert)


def _small_set(lab, mask: int) -> bool:
    xy = 1 << lab.x
    if lab.y is not None:
        xy |= 1 << lab.y
    if not mask & xy:
        return False
    met = sum(
        1 for cls in (lab.red, lab.green, lab.blue) if mask & _mask_of(cls)
    )
    return met == 2


def _classify_independent(g: Graph, lab, mask: int) -> bool:
    for z in range(g.n):
        if g.adj[z] & mask == mask:
            return True  # inside one neighbourhood
    i = lab.i
    red = _mask_of(lab.red)
    cw = 1 << lab.c | 1 << lab.w
    if lab.mu == 1:
        core = 1 << lab.u | 1 << lab.v | 1 << lab.w
        if mask & core == core and mask & ~(core | 1 << lab.x) == 0:
            return True
    if lab.nu == 1:
        need = 1 << lab.b | 1 << lab.v | 1 << lab.inner(i - 1)
        if mask & need == need and mask & ~(1 << lab.b | 1 << lab.v | red) == 0:
            return True
    need = cw | 1 << lab.inner(0)
    if mask & need == need and mask & ~(cw | red) == 0:
        return True
    if lab.nu == 0:
        green = _mask_of(lab.green)
        need = cw | 1 << lab.inner(2 * i - 1)
        if mask & need == need and mask & ~(cw | green) == 0:
            return True
    return _small_set(lab, mask)


def _check_indep_classification():
    for t in templates(19):
        if isinstance(t, AndrasfaiId):
            continue
        g, lab = vega(t.i, t.mu, t.nu)
        for mask in _independent_masks(g):
            if not _classify_independent(g, lab, mask):
                return _fail(
                    g, i=t.i, mu=t.mu, nu=t.nu, independent_set=list(_bits(mask))
                ), {}
    return None, {}


def _check_no_small_neighborhood():
    # a blow-up vertex has its class representative's row, so the traces a
    # blow-up shows on the template are the template's own rows
    for t in templates(19):
        if isinstance(t, AndrasfaiId):
            continue
        base, lab = vega(t.i, t.mu, t.nu)
        for v in range(base.n):
            if _small_set(lab, base.adj[v]):
                return _fail(base, i=t.i, mu=t.mu, nu=t.nu, vertex=v,
                             trace=list(_bits(base.adj[v]))), {}
    return None, {}


def _check_aux_embeddings():
    counts = {}
    for t in templates(22):
        if isinstance(t, AndrasfaiId):
            continue
        try:
            paths = aux_paths(t.i, t.mu, t.nu)
        except InternalConsistencyError as exc:
            return _fail(template(t), i=t.i, mu=t.mu, nu=t.nu, reason=str(exc)), {}
        if not paths:
            return _fail(template(t), i=t.i, mu=t.mu, nu=t.nu,
                         reason="no auxiliary paths"), {}
        counts[f"{t.i},{t.mu},{t.nu}"] = len(paths)
    return None, {"path_counts": counts}


def _check_automorphisms():
    expected = {
        (2, 0, 0): 8, (2, 1, 1): 10,
        (3, 0, 0): 4, (3, 0, 1): 4, (3, 1, 0): 2, (3, 1, 1): 2,
    }
    orders = {}
    for (i, mu, nu), want in expected.items():
        g = vega(i, mu, nu)[0]
        total = automorphism_order(g)
        orders[f"{i},{mu},{nu}"] = total
        if total != want:
            return _fail(g, i=i, mu=mu, nu=nu, order=total, expected=want), {}
        maps = named_maps(i, mu, nu)
        generators = [m.perm for m in maps if m.source == m.target]
        generated = len(_closure([tuple(range(g.n))], lambda cur: [
            tuple(gen[v] for v in cur) for gen in generators]))
        if generated != want:
            return _fail(
                g, i=i, mu=mu, nu=nu, generated=generated, expected=want,
                reason="named maps do not generate the full group",
            ), {}
    return None, {"orders": orders}


def _check_cayley_d2():
    for k in range(1, 5):
        g = cayley_6k(k)
        verdict = check_d(g, 2)
        if verdict.holds or verdict.level != 2:
            return _fail(g, k=k, reason="level-2 violation expected"), {}
        if not validate_d_witness(g, 2, verdict.witness):
            return _fail(g, k=k, witness=list(verdict.witness),
                         reason="witness failed re-validation"), {}
        if find_induced(g, _C6) is None:
            return _fail(g, k=k, reason="no induced hexagon located"), {}
    return None, {}


def _check_kappa_blowup():
    spec = haggkvist_spec()
    host = blowup(spec)
    kappa = 9 * 2 - (6 + 1 + 1)
    alpha, _ = independence_number(host)
    if host.n != 3 * kappa - 1 or alpha != kappa:
        return _fail(host, order=host.n, alpha=alpha, kappa=kappa), {}
    if not is_maximal_triangle_free(host).holds:
        return _fail(host, reason="expansion is not maximal triangle-free"), {}
    return None, {}


def _check_hexagon_prop():
    for n in range(2, 11):
        for row in census(n):
            hexagon_free = not row.induced_c6
            is_circulant_family = isinstance(row.recognized, AndrasfaiId)
            if hexagon_free != is_circulant_family:
                return _fail(row.graph, n=n, hexagon_free=hexagon_free,
                             recognized_circulant=is_circulant_family), {}
    return None, {}


_REGISTRY: dict[str, Callable] = {
    "c310": _check_c310,
    "degree_table": _check_degree_table,
    "edge_identity": _check_edge_identity,
    "cube_lemma": _check_cube_lemma,
    "graph_n_lemma": _check_graph_n_lemma,
    "beautiful": _check_beautiful,
    "indep_classification": _check_indep_classification,
    "no_small_neighborhood": _check_no_small_neighborhood,
    "aux_embeddings": _check_aux_embeddings,
    "automorphisms": _check_automorphisms,
    "cayley_d2": _check_cayley_d2,
    "kappa_blowup": _check_kappa_blowup,
    "hexagon_prop": _check_hexagon_prop,
}


def check_names() -> list[str]:
    return list(_REGISTRY)


def run_check(name: str) -> CheckReport:
    """Run one registered check; unknown names raise KeyError.  A check
    returns (counterexample, details) and passes when it found none."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(_REGISTRY)}")
    started = time.perf_counter()
    counterexample, details = _REGISTRY[name]()
    elapsed = time.perf_counter() - started
    return CheckReport(
        name=name,
        passed=counterexample is None,
        counterexample=counterexample,
        elapsed=elapsed,
        details=details,
    )


def run_all() -> list[CheckReport]:
    return [run_check(name) for name in check_names()]
