import random

from hyperlag.corpora import (
    covers_pairs_path_free,
    full_star,
    left_compressed_dense_path4_free_9,
    random_hypergraph,
    random_simplex_point,
)
from hyperlag.freeness import contains, creates_linear_path
from hyperlag.hypergraph import covers_pairs, is_left_compressed, linear_path
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


def test_dense_lc_path4_free_sampler_reaches_the_whole_family():
    # the family of candidate extras is exhaustively enumerable: down-sets
    # of triples avoiding vertex 1 whose union with the star stays free of
    # the length-4 path; the sampler must draw only from it
    star = full_star(9)
    star_masks = [sum(1 << v for v in e) for e in star.edges]

    def mask(e):  # a triple of [8] moved up one, onto [2..9]
        return sum(1 << (v + 1) for v in e)

    found = []
    enumerate_left_compressed(
        8, 3,
        prune=lambda edges, e: creates_linear_path(star_masks + [mask(f) for f in edges], mask(e), 4),
        visit=lambda edges: found.append(frozenset(tuple(v + 1 for v in f) for f in edges)))
    family = set(found)
    assert len(family) == 9  # exhaustively small space

    rnd = random.Random(3)
    seen = set()
    for _ in range(60):
        g = left_compressed_dense_path4_free_9(rnd)
        extras = frozenset(e for e in g.edges if 1 not in e)
        assert extras in family
        seen.add(extras)
    # the dense sub-family has exactly three members and all get sampled
    assert len(seen) == 3
