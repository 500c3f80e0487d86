"""Blow-up recognition with certificates and refutations.

A maximal triangle-free graph is a blow-up of a twin-free template exactly
when its twin quotient is isomorphic to that template, so recognition is:
quotient, take the ids of the quotient's order from `families.templates`,
and test isomorphism against each in turn.  The order alone picks the
candidates, and at most one family can match: Andrásfai graphs are
3-colourable, while every Vega graph contains the 4-chromatic 11-vertex
graph, so no quotient is isomorphic to templates of both families.  When
no candidate matches, a level-4 covering witness must exist; if it does
not, the input would contradict the characterization, which is reported
as its own first-class outcome rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .families import AndrasfaiId, VegaId, template, templates
from .graph import (
    BlowupSpec,
    Graph,
    TwinPartition,
    blowup,
    isomorphic,
    quotient,
)
from .properties import (
    _maximality,
    check_d,
)

NOT_MAXIMAL_TF = "not_maximal_triangle_free"
D4_FAILS = "level4_covering_fails"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class RecognitionCertificate:
    """Witness that the input is a blow-up of a named template.

    ``class_map[c]`` is the template vertex carrying twin class c, and
    ``weights[t]`` is the size of the class sitting on template vertex t.
    """

    family: Union[AndrasfaiId, VegaId]
    class_map: tuple[int, ...]
    weights: tuple[int, ...]


@dataclass(frozen=True)
class Refutation:
    kind: str
    triangle: Optional[tuple[int, int, int]] = None
    missing_pair: Optional[tuple[int, int]] = None
    level: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None
    details: Optional[str] = None


def match_template(
    partition: TwinPartition, omega: Graph
) -> Optional[RecognitionCertificate]:
    """The certificate of the template isomorphic to omega, or None.

    The candidates are the ids in `templates(omega.n)` of order omega.n;
    the module docstring says why at most one family can match.  For
    (partition, omega) = quotient(g), a match makes g a blow-up of a
    maximal triangle-free, twin-free template without isolated vertices,
    hence maximal triangle-free, and `recognize(g)` returns this certificate.
    """
    for family in templates(omega.n):
        if family.order != omega.n:
            continue
        base = template(family)
        perm = isomorphic(omega, base)
        if perm is None:
            continue
        weights = [0] * base.n
        for cls_index, members in enumerate(partition.classes):
            weights[perm[cls_index]] = len(members)
        return RecognitionCertificate(family, perm, tuple(weights))
    return None


def recognize(g: Graph) -> Union[RecognitionCertificate, Refutation]:
    """Certificate that g is a template blow-up, or an explicit refutation.

    Inputs that are not maximal triangle-free are refuted directly, with
    maximality decided on the twin quotient taken for the match; the
    remaining refutations carry the level-4 covering witness of `check_d`,
    which re-validates it on g.
    """
    if g.n < 2:
        raise ValueError("recognition needs at least two vertices")
    partition, omega = quotient(g)
    maximality = _maximality(g, omega)
    if not maximality.holds:
        return Refutation(
            NOT_MAXIMAL_TF,
            triangle=maximality.triangle,
            missing_pair=maximality.missing_pair,
        )
    certificate = match_template(partition, omega)
    if certificate is not None:
        return certificate
    verdict = check_d(g, 4)
    if verdict.holds:
        return Refutation(
            INCONSISTENT,
            details=(
                "maximal triangle-free, level-4 covering holds, but the twin "
                f"quotient (order {omega.n}) matches no template"
            ),
        )
    return Refutation(D4_FAILS, level=verdict.level, witness=verdict.witness)


def certify(g: Graph, certificate: RecognitionCertificate) -> bool:
    """Independently re-validate a certificate using core primitives only."""
    base = template(certificate.family)
    weights = certificate.weights
    if len(weights) != base.n or any(w < 1 for w in weights) or sum(weights) != g.n:
        return False
    expanded = blowup(BlowupSpec(base, weights))
    return isomorphic(g, expanded) is not None
