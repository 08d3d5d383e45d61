"""Seeded generators for property-test corpora.

The sampled families here back the bulk structural checks: covering-pairs
path-free graphs, and dense left-compressed path-free graphs on nine
vertices.  Generators are deterministic given their seed and are part of
the tested surface.
"""

from __future__ import annotations

import functools
import itertools
import random

from .hypergraph import Hypergraph, is_left_compressed, linear_path, lower_covers, new
from .freeness import contains, creates_linear_path
from .lagrangian import OptimizerConfig, is_dense

_GEN_OPT = OptimizerConfig(restarts=12, iterations=250)
# attempts before a generator gives up on its seed stream
_COVERING_TRIES = 400
_PATH4_SAMPLE_TRIES = 200


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


def _downset_closure(seeds, lo: int) -> set[tuple[int, int, int]]:
    """Dominance closure of seed triples among the triples whose least
    vertex is at least ``lo``."""
    out: set[tuple[int, int, int]] = set()
    stack = [tuple(sorted(s)) for s in seeds]
    while stack:
        e = stack.pop()
        if e not in out:
            out.add(e)
            stack.extend(c for c in lower_covers(e) if c[0] >= lo)
    return out


def full_star(n: int) -> Hypergraph:
    """All triples through vertex 1."""
    return new(3, n, [(1, a, b) for a, b in itertools.combinations(range(2, n + 1), 2)])


@functools.lru_cache(maxsize=4096)
def _path4_sample_accepted(edges: tuple) -> bool:
    """The verdict of :func:`left_compressed_dense_path4_free_9` on a
    candidate on [9]: free of the linear path of 4 edges, left-compressed
    and dense.  It depends only on the edge set and draws no randomness,
    and the candidate space is small, so draws repeat and hit the cache."""
    g = Hypergraph(3, 9, edges)
    return (contains(g, linear_path(4)) is None and is_left_compressed(g)
            and is_dense(g, _GEN_OPT))


def left_compressed_dense_path4_free_9(rnd: random.Random) -> Hypergraph:
    """A dense, left-compressed 3-graph on exactly 9 vertices with no
    linear path of 4 edges.

    Any covering-pairs left-compressed graph on [9] contains the full star
    at vertex 1, so candidates are the star plus a dominance-closed family
    of low triples avoiding vertex 1; candidates failing path-freeness,
    left-compression, or strict density are rejected.
    """
    star = full_star(9)
    for _try in range(_PATH4_SAMPLE_TRIES):
        # Low triples through vertex 2 close downward into triples through
        # vertex 2 again, and those absorb into the two-apex family, which
        # stays path-free; spread-out seeds almost always get rejected, so
        # they are drawn rarely.
        seeds = []
        for _ in range(rnd.randint(0, 4)):
            b, c = sorted(rnd.sample(range(3, 10), 2))
            seeds.append((2, b, c))
        if rnd.random() < 0.30:
            seeds.append((3, 4, 5))
        if rnd.random() < 0.10:
            seeds.append(tuple(sorted(rnd.sample(range(2, 10), 3))))
        extras = _downset_closure(seeds, 2)
        g = new(3, 9, list(star.edges) + sorted(extras))
        if _path4_sample_accepted(g.edges):
            return g
    raise RuntimeError("could not build a dense left-compressed path-free sample")
