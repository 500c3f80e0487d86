"""Blow-up recognition: round trips, certificates, refutations, completeness."""

from __future__ import annotations

import random

import pytest
from conftest import petersen

from trifree.families import AndrasfaiId, VegaId, andrasfai, haggkvist_spec, vega
from trifree.graph import BlowupSpec, blowup, from_edge_list
from trifree.properties import check_d, validate_d_witness
from trifree.recognition import (
    D4_FAILS,
    INCONSISTENT,
    NOT_MAXIMAL_TF,
    RecognitionCertificate,
    Refutation,
    certify,
    recognize,
)
from trifree.search import enumerate_maximal_tf


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("k", range(1, 7))
def test_circulant_blowup_round_trip(k):
    rng = random.Random(200 + k)
    base = andrasfai(k)
    for _ in range(50):
        weights = tuple(rng.randint(1, 3) for _ in range(base.n))
        outcome = recognize(blowup(BlowupSpec(base, weights)))
        assert isinstance(outcome, RecognitionCertificate)
        assert outcome.family == AndrasfaiId(k)
        assert sorted(outcome.weights) == sorted(weights)
        assert certify(blowup(BlowupSpec(base, weights)), outcome)


@pytest.mark.parametrize("i", range(2, 5))
@pytest.mark.parametrize("mu", (0, 1))
@pytest.mark.parametrize("nu", (0, 1))
def test_vega_blowup_round_trip(i, mu, nu):
    rng = random.Random(300 + 10 * i + 2 * mu + nu)
    base = vega(i, mu, nu)[0]
    for _ in range(20):
        weights = tuple(rng.randint(1, 3) for _ in range(base.n))
        big = blowup(BlowupSpec(base, weights))
        outcome = recognize(big)
        assert isinstance(outcome, RecognitionCertificate)
        if i == 2:
            # the exceptional map makes the two mixed members one graph
            assert outcome.family in (VegaId(i, mu, nu), VegaId(i, nu, mu))
        else:
            assert outcome.family == VegaId(i, mu, nu)
        assert certify(big, outcome)


def test_haggkvist_graph_is_certified():
    big = blowup(haggkvist_spec())
    outcome = recognize(big)
    assert isinstance(outcome, RecognitionCertificate)
    assert outcome.family == VegaId(2, 1, 1)
    assert certify(big, outcome)


def test_unit_weights_recognize_templates_themselves():
    # every template of order <= 40, listed by brute force
    for k in range(1, 14):
        outcome = recognize(andrasfai(k))
        assert outcome.family == AndrasfaiId(k)
        assert all(w == 1 for w in outcome.weights)
    idents = [VegaId(i, mu, nu) for i in range(2, 14) for mu in (0, 1) for nu in (0, 1)]
    for ident in idents:
        if ident.order > 40:
            continue
        outcome = recognize(vega(ident.i, ident.mu, ident.nu)[0])
        if ident.i == 2:
            # the exceptional map makes the two mixed members one graph
            assert outcome.family in (ident, VegaId(2, ident.nu, ident.mu))
        else:
            assert outcome.family == ident
        assert all(w == 1 for w in outcome.weights)


def test_recognition_runs_no_pattern_search(monkeypatch):
    import trifree.graph as graph_module

    calls = []
    original = graph_module.find_induced_all

    def counted(host, pattern):
        calls.append(pattern.n)
        return original(host, pattern)

    monkeypatch.setattr(graph_module, "find_induced_all", counted)
    rng = random.Random(6)
    base = vega(3, 1, 1)[0]
    weights = tuple(rng.randint(1, 3) for _ in range(base.n))
    expected = (AndrasfaiId(8), VegaId(5, 0, 0), VegaId(3, 1, 1))
    inputs = (andrasfai(8), vega(5, 0, 0)[0], blowup(BlowupSpec(base, weights)))
    for g, family in zip(inputs, expected):
        outcome = recognize(g)
        assert isinstance(outcome, RecognitionCertificate)
        assert outcome.family == family
    assert calls == []


def test_refutation_not_triangle_free():
    outcome = recognize(from_edge_list(3, [(0, 1), (0, 2), (1, 2)]))
    assert isinstance(outcome, Refutation)
    assert outcome.kind == NOT_MAXIMAL_TF
    assert outcome.triangle == (0, 1, 2)


def test_refutation_not_maximal():
    outcome = recognize(cycle(6))
    assert isinstance(outcome, Refutation)
    assert outcome.kind == NOT_MAXIMAL_TF
    assert outcome.missing_pair == (0, 3)


def test_refutation_covering_failure_with_witness():
    outcome = recognize(petersen())
    assert isinstance(outcome, Refutation)
    assert outcome.kind == D4_FAILS
    assert outcome.level == 2
    assert validate_d_witness(petersen(), outcome.level, outcome.witness)


def test_recognize_rejects_trivial_orders():
    with pytest.raises(ValueError):
        recognize(from_edge_list(1, []))


def test_certify_rejects_tampered_certificates():
    base = andrasfai(2)
    big = blowup(BlowupSpec(base, (2, 1, 1, 1, 1)))
    outcome = recognize(big)
    assert certify(big, outcome)
    # rotated weights still certify: the rebuilt blow-up stays isomorphic
    rotated = RecognitionCertificate(
        outcome.family, outcome.class_map, (1, 2, 1, 1, 1))
    assert certify(big, rotated)
    wrong_total = RecognitionCertificate(
        outcome.family, outcome.class_map, (3, 1, 1, 1, 1))
    assert not certify(big, wrong_total)
    wrong_shape = RecognitionCertificate(
        outcome.family, outcome.class_map, (3, 1, 1, 1))
    assert not certify(big, wrong_shape)
    wrong_family = RecognitionCertificate(
        AndrasfaiId(3), outcome.class_map, outcome.weights)
    assert not certify(big, wrong_family)


def test_completeness_against_level_four_census():
    for n in range(2, 11):
        for g in enumerate_maximal_tf(n):
            outcome = recognize(g)
            holds = check_d(g, 4).holds
            if holds:
                assert isinstance(outcome, RecognitionCertificate)
                assert certify(g, outcome)
            else:
                assert isinstance(outcome, Refutation)
                assert outcome.kind == D4_FAILS
                assert outcome.kind != INCONSISTENT
                assert validate_d_witness(g, outcome.level, outcome.witness)


def test_hexagon_free_members_are_circulant_blowups():
    from trifree.graph import find_induced

    hexagon = cycle(6)
    for n in range(2, 11):
        for g in enumerate_maximal_tf(n):
            outcome = recognize(g)
            hexagon_free = g.n < 6 or find_induced(g, hexagon) is None
            is_circulant = (
                isinstance(outcome, RecognitionCertificate)
                and isinstance(outcome.family, AndrasfaiId)
            )
            assert hexagon_free == is_circulant


def test_level_three_upsilon_free_members_are_circulant_blowups():
    # at these orders the 11-vertex pattern can never occur, so the pattern
    # hypothesis is vacuous and level-3 covering alone must route to the
    # circulant family
    for n in range(2, 11):
        for g in enumerate_maximal_tf(n):
            if check_d(g, 3).holds:
                outcome = recognize(g)
                assert isinstance(outcome, RecognitionCertificate)
                assert isinstance(outcome.family, AndrasfaiId)
