"""Output checks written without trifree.

Every verdict the benchmark accepts is re-derived here from the graph6
inputs and the JSON reports with the benchmark's own graph arithmetic:
adjacency rows are Python ints used as bitsets, exactly as small as needed.
Nothing in this module imports trifree, so a bug in the package cannot make
its own output look right.
"""

from __future__ import annotations

from collections import Counter

# Maximal triangle-free graphs on n vertices up to isomorphism (OEIS A216783).
A216783 = {2: 1, 3: 1, 4: 2, 5: 3, 6: 4, 7: 6, 8: 10, 9: 16, 10: 31, 11: 61}


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_graph6(text: str) -> list[int]:
    """Adjacency rows of one graph6 string (orders below 258048)."""
    s = text.strip()
    if s[0] == "~":
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 body has the wrong length for order {n}")
    rows = [0] * n
    index = 0
    for v in range(1, n):
        for u in range(v):
            if (ord(body[index // 6]) - 63) >> (5 - index % 6) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            index += 1
    return rows


def circulant(n: int, distances) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for d in distances:
            rows[u] |= 1 << ((u + d) % n) | 1 << ((u - d) % n)
    return rows


def andrasfai(k: int) -> list[int]:
    """The circulant on 3k-1 vertices joining vertices k..2k-1 apart."""
    return circulant(3 * k - 1, range(k, 2 * k))


def cayley_6k(k: int) -> list[int]:
    """The circulant on 6k vertices joining vertices k..2k-1 apart."""
    return circulant(6 * k, range(k, 2 * k))


def blowup(template: list[int], weights) -> list[int]:
    """Each template vertex becomes an independent block, blocks in vertex order."""
    starts = [0]
    for w in weights:
        starts.append(starts[-1] + w)
    block = [((1 << w) - 1) << starts[v] for v, w in enumerate(weights)]
    rows = []
    for v, w in enumerate(weights):
        row = 0
        for u in _bits(template[v]):
            row |= block[u]
        rows.extend([row] * w)
    return rows


def edge_count(rows: list[int]) -> int:
    return sum(row.bit_count() for row in rows) // 2


def is_triangle_free(rows: list[int]) -> bool:
    return all(not rows[u] & rows[v] for u in range(len(rows)) for v in _bits(rows[u]))


def is_maximal_triangle_free(rows: list[int]) -> bool:
    """Triangle-free, and every non-adjacent pair has a common neighbour."""
    n = len(rows)
    for u in range(n):
        for v in range(u + 1, n):
            adjacent = rows[u] >> v & 1
            if bool(rows[u] & rows[v]) == bool(adjacent):
                return False
    return True


def is_independent(rows: list[int], vertices) -> bool:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return all(not rows[v] & mask for v in vertices)


def max_weight_independent(rows: list[int], weights, within: int | None = None) -> int:
    """Largest total weight of an independent set, by plain branching."""
    mask = (1 << len(rows)) - 1 if within is None else within

    def best(mask: int) -> int:
        if not mask:
            return 0
        v = max(_bits(mask), key=lambda x: (rows[x] & mask).bit_count())
        if not rows[v] & mask:
            return weights[v] + best(mask & ~(1 << v))
        return max(weights[v] + best(mask & ~rows[v] & ~(1 << v)), best(mask & ~(1 << v)))

    return best(mask)


def twin_classes(rows: list[int]) -> list[list[int]]:
    """Vertices grouped by identical neighbourhoods, ordered by least member."""
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        groups.setdefault(row, []).append(v)
    return sorted(groups.values(), key=lambda c: c[0])


def load_witness_ok(rows: list[int], m: int, weights) -> bool:
    """A level-m refutation: weights >= 0 summing to 3m, every open
    neighbourhood carrying at most m."""
    if len(weights) != len(rows) or min(weights) < 0 or sum(weights) != 3 * m:
        return False
    return all(sum(weights[u] for u in _bits(row)) <= m for row in rows)


def certificate_free_ok(rows: list[int], m: int, weights) -> bool:
    """The extra condition of the certificate variant: no independent set
    in the support weighs more than m + 1."""
    support = 0
    for v, w in enumerate(weights):
        if w:
            support |= 1 << v
    return max_weight_independent(rows, weights, support) <= m + 1


def certificate_ok(rows: list[int], template: list[int], class_map, weights) -> bool:
    """The input is the blow-up of ``template`` that the certificate names:
    twin class c sits on template vertex class_map[c] with weights[...] twins."""
    classes = twin_classes(rows)
    t = len(template)
    if len(classes) != t or sorted(class_map) != list(range(t)) or len(weights) != t:
        return False
    for c, members in enumerate(classes):
        if weights[class_map[c]] != len(members):
            return False
        for d, others in enumerate(classes):
            adjacent = bool(rows[members[0]] >> others[0] & 1)
            if adjacent != bool(template[class_map[c]] >> class_map[d] & 1):
                return False
    return True


def extremal_value(n: int, s: int) -> int:
    """Closed-form edge maximum of the template blow-up construction at
    order n and independence at most s, for n/3 < s <= n/2:
    k(k-1)n^2/2 - k(3k-4)ns + (3k-4)(3k-1)s^2/2 with k = ceil(s / (3s - n))."""
    k = -(-s // (3 * s - n))
    twice = k * (k - 1) * n * n - 2 * k * (3 * k - 4) * n * s + (3 * k - 4) * (3 * k - 1) * s * s
    return twice // 2


# -- one operation -----------------------------------------------------------


def _refutation_ok(rows: list[int], level, witness, fail_level: int) -> str | None:
    if level != fail_level:
        return f"failing level {level}, expected {fail_level}"
    if witness is None or not load_witness_ok(rows, level, witness):
        return "witness fails the load arithmetic"
    return None


def _census(op: dict, rc, report: dict) -> str | None:
    n = op["n"]
    if rc != 0:
        return f"exit code {rc}"
    rows = report.get("rows", [])
    if report.get("count") != A216783[n] or len(rows) != A216783[n]:
        return f"count {report.get('count')}, expected {A216783[n]}"
    codes = [row["graph6"] for row in rows]
    if len(set(codes)) != len(codes):
        return "repeated graph"
    for code in codes:
        graph = parse_graph6(code)
        if len(graph) != n or not is_maximal_triangle_free(graph):
            return f"row {code} is not maximal triangle-free on {n} vertices"
    return None


def _covering(op: dict, rc, report: dict) -> str | None:
    rows = parse_graph6(op["graph6"])
    if op["cayley_k"] is not None and rows != cayley_6k(op["cayley_k"]):
        return "input is not the Cayley circulant"
    verdict = report["verdict"]
    if op["holds"]:
        if rc != 0 or verdict["holds"] is not True or verdict["level"] != 4:
            return f"expected the property to hold up to level 4, got {verdict}"
        return None
    if rc != 1 or verdict["holds"] is not False:
        return f"expected a refutation, got exit code {rc}"
    problem = _refutation_ok(rows, verdict["level"], verdict["witness"], op["fail_level"])
    if problem is None and op["property"] == "q":
        if not certificate_free_ok(rows, verdict["level"], verdict["witness"]):
            return "witness has an independent support subset that is too heavy"
    return problem


def _registry(op: dict, rc, report: dict) -> str | None:
    checks = report.get("checks", [])
    if rc != 0 or report.get("failed") != [] or len(checks) != 1:
        return f"exit code {rc}, failed {report.get('failed')}"
    if checks[0]["name"] != op["check"] or checks[0]["passed"] is not True:
        return "check did not pass"
    return None


def _extremal(op: dict, rc, report: dict) -> str | None:
    n, s = op["n"], op["s"]
    value = extremal_value(n, s)
    search = report.get("search", {})
    if rc != 0 or report.get("formula_value") != value or search.get("best_found") != value:
        return f"expected {value} edges, got {search.get('best_found')} (exit code {rc})"
    if not search.get("witnesses"):
        return "no witness"
    for witness in search["witnesses"]:
        template = parse_graph6(witness["template_graph6"])
        weights = witness["weights"]
        rows = blowup(template, weights)
        if (len(rows) != n or not is_triangle_free(rows) or edge_count(rows) != value
                or max_weight_independent(template, weights) > s):
            return f"witness {witness} does not attain the bound"
    return None


def _recognize(op: dict, rc, report: dict) -> str | None:
    rows = parse_graph6(op["graph6"])
    template = parse_graph6(op["template"])
    if op["cayley_k"] is not None:
        if rows != cayley_6k(op["cayley_k"]):
            return "input is not the Cayley circulant"
    elif rows != blowup(template, op["weights"]):
        return "input is not the blow-up of its template"
    family = op["family"]
    if family is None:
        refutation = report.get("refutation")
        if rc != 1 or refutation is None or refutation["kind"] != "level4_covering_fails":
            return f"expected a covering refutation, got exit code {rc}"
        return _refutation_ok(rows, refutation["level"], refutation["witness"], 2)
    if family["kind"] == "andrasfai" and template != andrasfai(family["k"]):
        return "template is not the Andrasfai circulant"
    certificate = report.get("certificate")
    if rc != 0 or certificate is None or certificate["family"] != family:
        return f"expected a certificate for {family}, got exit code {rc}"
    if Counter(certificate["weights"]) != Counter(op["weights"]):
        return "certificate weights differ from the drawn weights"
    if not certificate_ok(rows, template, certificate["class_map"], certificate["weights"]):
        return "certificate does not describe the input"
    return None


def _alpha(op: dict, rc, report: dict) -> str | None:
    rows = parse_graph6(op["graph6"])
    template = parse_graph6(op["template"])
    if rows != blowup(template, op["weights"]):
        return "input is not the blow-up of its template"
    expected = max_weight_independent(template, op["weights"])
    verdict = report["verdict"]
    members = verdict["maximum_independent_set"]
    if rc != 0 or verdict["alpha"] != expected:
        return f"alpha {verdict['alpha']}, expected {expected}"
    if len(members) != expected or not is_independent(rows, members):
        return "reported maximum independent set is wrong"
    return None


def _certify(op: dict, rc, report: dict) -> str | None:
    return None if rc == 0 and report["certified"] is True else "certificate rejected"


_CHECKS = {"census": _census, "covering": _covering, "registry": _registry,
           "extremal": _extremal, "recognize": _recognize, "alpha": _alpha,
           "certify": _certify}


def check_op(op: dict, rc, report: dict) -> str | None:
    """None when the report agrees with the facts in ``op``, else why not."""
    try:
        return _CHECKS[op["kind"]](op, rc, report)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
