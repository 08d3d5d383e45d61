"""Seeded generators for property-test corpora, and the nine-vertex
family behind the length-4 path evidence.

The seeded generators back the bulk structural checks: random graphs and
simplex points, and covering-pairs path-free graphs.  They are
deterministic given their seed and are part of the tested surface.
:func:`covering_path4_free_9` is no sample: it lists every
left-compressed 3-graph on [9] that covers its pairs and has no linear
path of 4 edges, and ``verify`` checks each member.
"""

from __future__ import annotations

import functools
import itertools
import random

from .hypergraph import Hypergraph, new
from .freeness import creates_linear_path
from .lagrangian import is_dense
from .search import enumerate_left_compressed

# attempts before covers_pairs_path_free gives up on its seed stream
_COVERING_TRIES = 400


def random_simplex_point(rnd: random.Random, n: int) -> list[float]:
    cuts = sorted(rnd.random() for _ in range(n - 1))
    return [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]


def random_hypergraph(rnd: random.Random, n: int, r: int = 3, p: float | None = None) -> Hypergraph:
    if p is None:
        p = rnd.uniform(0.1, 0.7)
    edges = [e for e in itertools.combinations(range(1, n + 1), r) if rnd.random() < p]
    return new(r, n, edges)


def covers_pairs_path_free(rnd: random.Random, n: int, t: int) -> Hypergraph:
    """A covering-pairs 3-graph on [n] with no linear path of t edges,
    grown greedily: cover uncovered pairs in random order, choosing third
    vertices that keep the graph path-free, then sprinkle extra safe edges.
    Every pair is covered in the first loop and every edge passed
    ``creates_linear_path``, so the result needs no final check."""
    for _try in range(_COVERING_TRIES):
        edges: list[tuple[int, int, int]] = []
        masks: list[int] = []
        covered: set[tuple[int, int]] = set()
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rnd.shuffle(pairs)
        ok = True
        for (a, b) in pairs:
            if (a, b) in covered:
                continue
            thirds = [c for c in range(1, n + 1) if c != a and c != b]
            rnd.shuffle(thirds)
            placed = False
            for c in thirds:
                e = tuple(sorted((a, b, c)))
                m = (1 << e[0]) | (1 << e[1]) | (1 << e[2])
                if not creates_linear_path(masks, m, t):
                    edges.append(e)
                    masks.append(m)
                    covered.update(itertools.combinations(e, 2))
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if not ok:
            continue
        extras = rnd.randint(0, 6)
        cand = list(itertools.combinations(range(1, n + 1), 3))
        rnd.shuffle(cand)
        have = set(edges)
        for e in cand:
            if extras <= 0:
                break
            if e in have:
                continue
            m = (1 << e[0]) | (1 << e[1]) | (1 << e[2])
            if not creates_linear_path(masks, m, t):
                edges.append(e)
                masks.append(m)
                have.add(e)
                extras -= 1
        return new(3, n, edges)
    raise RuntimeError(f"could not build a covering-pairs length-{t}-path-free graph on {n} vertices")


def full_star(n: int) -> Hypergraph:
    """All triples through vertex 1."""
    return new(3, n, [(1, a, b) for a, b in itertools.combinations(range(2, n + 1), 2)])


@functools.cache
def covering_path4_free_9() -> tuple[Hypergraph, ...]:
    """Every left-compressed 3-graph on [9] that covers its pairs and has
    no linear path of 4 edges, in the order the enumeration visits them.
    There are 9.

    These are the graphs that matter for λ on [9]: an optimal weighting
    of least support covers its pairs (Frankl & Rödl, "Hypergraphs do not
    jump", Combinatorica 1984).  A left-compressed G on [9] covers its
    pairs exactly when it holds {1, 8, 9}.  The pair {8, 9}
    lies in some edge {a, 8, 9}, which dominates {1, 8, 9}; and {1, 8, 9}
    dominates every triple through vertex 1, so G holds the full star,
    which covers every pair.  So G is the star plus a set D of triples of
    [2..9].  A lower cover of a triple of D either holds 1, and is a star
    edge, or lies in [2..9] and so in D: moved down one vertex, D is a
    down-set on [8], and every such down-set gives a left-compressed G.

    So :func:`~hyperlag.search.enumerate_left_compressed` on [8], shifted
    up one, visits every candidate D once.  Its prune cuts an include
    whose edge, added to the star and the edges included so far, creates
    a linear path of 4 edges.  A path once present stays in every
    superset, so the prune is monotone and cuts only graphs that hold
    one, and every visited graph is path-free."""
    star = full_star(9)
    star_masks = [sum(1 << v for v in e) for e in star.edges]

    def mask(e) -> int:   # a triple of [8] moved up one, onto [2..9]
        return sum(1 << (v + 1) for v in e)

    found = []
    enumerate_left_compressed(
        8, 3,
        prune=lambda edges, e: creates_linear_path(star_masks + [mask(f) for f in edges], mask(e), 4),
        visit=lambda edges: found.append(
            new(3, 9, list(star.edges) + [tuple(v + 1 for v in f) for f in edges])))
    return tuple(found)


@functools.cache
def _dense_covering_path4_free_9() -> tuple[Hypergraph, ...]:
    return tuple(g for g in covering_path4_free_9() if is_dense(g))


def left_compressed_dense_path4_free_9(rnd: random.Random) -> Hypergraph:
    """A dense, left-compressed 3-graph on exactly 9 vertices with no
    linear path of 4 edges: a uniform draw from the dense members of
    :func:`covering_path4_free_9`.  A dense graph covers its pairs
    (Frankl & Rödl), so these are all such graphs."""
    return rnd.choice(_dense_covering_path4_free_9())
