import random

from hyperlag.corpora import (
    covering_path4_free_9,
    covers_pairs_path_free,
    full_star,
    left_compressed_dense_path4_free_9,
    random_hypergraph,
    random_simplex_point,
)
from hyperlag.freeness import contains
from hyperlag.hypergraph import covers_pairs, is_left_compressed, linear_path, new
from hyperlag.search import enumerate_left_compressed


def test_random_simplex_point_is_feasible():
    rnd = random.Random(0)
    for _ in range(50):
        x = random_simplex_point(rnd, rnd.randint(2, 9))
        assert all(w >= 0 for w in x)
        assert abs(sum(x) - 1.0) < 1e-12


def test_random_hypergraph_deterministic():
    a = random_hypergraph(random.Random(7), 6)
    b = random_hypergraph(random.Random(7), 6)
    assert a == b


def test_covers_pairs_path_free_contract():
    rnd = random.Random(1)
    for i in range(12):
        n = 9 + (i % 2)
        t = 4 if i % 3 else 3
        if t == 3 and n > 7:
            n = 7
        g = covers_pairs_path_free(rnd, n, t)
        assert covers_pairs(g)
        assert contains(g, linear_path(t)) is None


def test_covers_pairs_path_free_deterministic():
    a = covers_pairs_path_free(random.Random(5), 9, 4)
    b = covers_pairs_path_free(random.Random(5), 9, 4)
    assert a == b


def test_full_star_covers_pairs():
    s = full_star(9)
    assert covers_pairs(s) and len(s.edges) == 28
    assert contains(s, linear_path(3)) is None


def test_dense_lc_path4_free_sample_contract():
    rnd = random.Random(2)
    for _ in range(8):
        g = left_compressed_dense_path4_free_9(rnd)
        assert g.n == 9
        assert covers_pairs(g)
        assert is_left_compressed(g)
        assert contains(g, linear_path(4)) is None
        assert set(full_star(9).edges) <= set(g.edges)


def test_covering_path4_free_9_equals_a_brute_force_filter():
    # every down-set on [8] with no prune, moved up one onto [2..9] and
    # added to a star built here, kept when the whole-graph matcher finds
    # no length-4 path: the family must be exactly these
    star = [(1, a, b) for a in range(2, 10) for b in range(a + 1, 10)]
    downsets = []
    enumerate_left_compressed(8, 3, visit=downsets.append)
    assert len(downsets) == 2431
    oracle = set()
    for d in downsets:
        g = new(3, 9, star + [tuple(v + 1 for v in e) for e in d])
        if contains(g, linear_path(4)) is None:
            oracle.add(g.edges)
    family = covering_path4_free_9()
    assert len(family) == len(oracle) == 9
    assert {g.edges for g in family} == oracle
    for g in family:
        assert g.n == 9 and covers_pairs(g) and is_left_compressed(g)


def test_dense_lc_path4_free_sampler_reaches_the_whole_family():
    # the sampler draws only the dense members of the family, and all of
    # them: exactly three
    family = {g.edges for g in covering_path4_free_9()}
    rnd = random.Random(3)
    seen = set()
    for _ in range(60):
        g = left_compressed_dense_path4_free_9(rnd)
        assert g.edges in family
        seen.add(g.edges)
    assert len(seen) == 3
