"""The benchmark's oracles on cases small enough to check by hand, and
against each other."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles


def _path(t):
    return oracles.linear_forest((t,))[1]


def test_linear_forest_labelling():
    assert oracles.linear_forest((2,)) == (5, [(1, 2, 3), (3, 4, 5)])
    assert oracles.linear_forest((1, 3)) == (10, [(1, 2, 3), (4, 5, 6), (6, 7, 8), (8, 9, 10)])
    assert oracles.linear_forest((2, 2)) == (10, [(1, 2, 3), (3, 4, 5), (6, 7, 8), (8, 9, 10)])


def test_linear_paths_by_hand():
    p3 = _path(3)
    assert oracles.linear_path_sets(p3, 3) == {oracles.vertex_mask(range(1, 8))}
    assert len(oracles.linear_path_sets(p3, 2)) == 2
    assert not oracles.has_linear_path(p3, 4)
    # a loose triangle: every two edges share one vertex, so no 3-path
    tri = [(1, 2, 3), (3, 4, 5), (1, 5, 6)]
    assert oracles.has_linear_path(tri, 2) and not oracles.has_linear_path(tri, 3)
    # two edges through a common pair are not a linear 2-path
    assert not oracles.has_linear_path([(1, 2, 3), (1, 2, 4)], 2)
    # K_6^3 has 6 vertices, a 3-path needs 7; K_7^3 holds one
    k = lambda t: list(itertools.combinations(range(1, t + 1), 3))
    assert not oracles.has_linear_path(k(6), 3)
    assert oracles.has_linear_path(k(7), 3)


def test_linear_paths_agree_with_brute_force_embedding():
    rnd = random.Random(3)
    p3 = _path(3)
    triples = list(itertools.combinations(range(1, 8), 3))
    tri = oracles.Triples(7)
    seen = set()
    for _ in range(40):
        edges = [e for e in triples if rnd.random() < rnd.uniform(0.05, 0.4)]
        got = oracles.has_linear_path(edges, 3)
        assert got == tri.embeds(7, p3, edges)
        seen.add(got)
    assert seen == {True, False}


def test_linear_forests():
    n, f1 = oracles.linear_forest((2, 2))
    assert oracles.contains_linear_forest(n, f1, (2, 2))
    assert not oracles.contains_linear_forest(n, f1, (1, 3))
    assert not oracles.contains_linear_forest(9, list(itertools.combinations(range(1, 10), 3)), (2, 2))
    assert oracles.contains_linear_forest(6, [(1, 2, 3), (4, 5, 6)], (1, 1))
    assert not oracles.contains_linear_forest(6, [(1, 2, 3), (3, 4, 5)], (1, 1))


def test_verify_embedding():
    pat = [(1, 2, 3), (3, 4, 5)]
    host = [(2, 4, 6), (6, 7, 8), (1, 2, 3)]
    good = {1: 2, 2: 4, 3: 6, 4: 7, 5: 8}
    assert oracles.verify_embedding(good, 5, pat, host) is None
    assert "injective" in oracles.verify_embedding({**good, 5: 2}, 5, pat, host)
    assert "not a host edge" in oracles.verify_embedding({**good, 5: 1}, 5, pat, host)
    assert "domain" in oracles.verify_embedding({1: 2, 2: 4, 3: 6, 4: 7}, 5, pat, host)


def test_cliques_and_pairs():
    k6 = list(itertools.combinations(range(1, 7), 3))
    assert oracles.holds_clique(k6, 7, 6)
    assert not oracles.holds_clique(k6[:-1], 7, 6)
    assert oracles.covers_pairs(6, k6) and not oracles.covers_pairs(7, k6)


def test_canonical_classes():
    tri = oracles.Triples(5)
    a = tri.mask([(1, 2, 3), (1, 2, 4)])
    b = tri.mask([(2, 4, 5), (3, 4, 5)])       # also two edges on a common pair
    c = tri.mask([(1, 2, 3), (3, 4, 5)])       # two edges on one vertex
    ca, cb, cc = tri.canonical([a, b, c])
    assert ca == cb != cc
    assert set(tri.edges(a)) == {(1, 2, 3), (1, 2, 4)}


def test_free_subset_counts_by_hand():
    f5 = [(1, 2, 3), (1, 2, 4), (3, 4, 5)]
    res = oracles.extremal(6, 5, f5)
    counts = res["counts_by_size"]
    # F5 has three edges, so every subset of at most two triples is free
    assert counts[:3] == [1, 20, 190]
    assert sum(counts) <= 2 ** 20
    # ex(6, F5) = 10, reached only by the six full stars (all one class)
    assert res["max_edges"] == 10 and res["labelled"] == 6 and len(res["classes"]) == 1
    star = [e for e in itertools.combinations(range(1, 7), 3) if 1 in e]
    assert res["classes"] == [oracles.Triples(6).class_of(star)]
    # a single edge is forbidden: only the empty graph is free
    assert oracles.extremal(4, 3, [(1, 2, 3)])["max_edges"] == 0


def test_k4_minus_extremal_is_the_six_point_design():
    # any three triples of a 4-set form K4^-, so a free graph has at most
    # two edges in each 4-set; each edge lies in three 4-sets of [6], so
    # 3m <= 2 * C(6, 4) = 30 and m <= 10
    res = oracles.extremal(6, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    assert res["max_edges"] == 10 and len(res["classes"]) == 1
    (cls,) = res["classes"]
    edges = oracles.Triples(6).edges(cls)
    for quad in itertools.combinations(range(1, 7), 4):
        assert sum(1 for e in edges if set(e) <= set(quad)) <= 2


def test_clique_number():
    assert oracles.clique_number(4, list(itertools.combinations(range(1, 5), 2))) == 4
    assert oracles.clique_number(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]) == 2
    assert oracles.clique_number(3, []) == 1
    rnd = random.Random(5)
    for _ in range(30):
        n = rnd.randint(2, 8)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rnd.random() < 0.5]
        es = set(edges)
        brute = max(k for k in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), k)
                    if all(p in es for p in itertools.combinations(s, 2)))
        assert oracles.clique_number(n, edges) == brute


def test_closed_forms():
    assert oracles.complete_value(6) == Fraction(5, 54)
    assert oracles.complete_value(8) == Fraction(7, 64)
    assert oracles.complete_minus_value(4) == pytest.approx(4 / 81, abs=1e-15)
    assert oracles.complete_minus_value(6) == pytest.approx(oracles.k6_minus_value(), abs=1e-15)
    assert oracles.k6_minus_value() == pytest.approx(0.0886621079036, abs=1e-12)
    a = (4 - math.sqrt(13)) / 3          # the critical point of (5a^3 - 20a^2 + 5a)/3
    assert oracles.complete_minus_value(8) == pytest.approx((5 * a ** 3 - 20 * a ** 2 + 5 * a) / 3, abs=1e-15)
    assert oracles.complete_minus_value(6) < float(oracles.complete_value(6))


@pytest.mark.parametrize("t", [4, 6, 8])
def test_complete_minus_form_matches_unconstrained_search(t):
    # the closed form assumes a weighting constant on the two vertex orbits;
    # a replicator search over all weightings reaches it and never beats it
    edges = [e for e in itertools.combinations(range(1, t + 1), 3) if e != (t - 2, t - 1, t)]
    best = oracles.replicator_best(t, edges, starts=31, iterations=1500, seed=t)
    assert best == pytest.approx(oracles.complete_minus_value(t), abs=1e-9)
    assert best <= oracles.complete_minus_value(t) + 1e-12


def test_evaluate_and_replicator():
    k5 = list(itertools.combinations(range(1, 6), 3))
    assert oracles.evaluate(k5, [0.2] * 5) == pytest.approx(10 / 125, abs=1e-15)
    assert oracles.replicator_best(5, k5, starts=3, iterations=50, seed=0) == pytest.approx(10 / 125, abs=1e-12)
    # Motzkin-Straus: a triangle with a pendant edge has lambda (1/2)(1 - 1/3)
    g2 = [(1, 2), (2, 3), (1, 3), (3, 4)]
    assert oracles.replicator_best(4, g2, starts=7, iterations=500, seed=0) == pytest.approx(1 / 3, abs=1e-9)
    assert oracles.replicator_best(4, [], starts=3, iterations=5, seed=0) == 0.0
