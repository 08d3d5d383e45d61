"""Independent reference computations for the benchmark's output checks.

Nothing here imports hyperlag.  Each function recomputes an expected
answer from first principles, by a different method than the program
uses where that is practical, so a check never compares the program with
a stored copy of its own earlier output.

Graphs are plain edge lists: tuples of vertex ids in 1..n.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np


def vertex_mask(edge) -> int:
    m = 0
    for v in edge:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# linear paths and forests, by edge sequences


def linear_path_sets(edges, t: int) -> set[int]:
    """Vertex sets (as bitmasks) of every 3-uniform linear path with t edges.

    A sequence e1..ek grows by an edge that meets e_k in exactly one vertex
    and misses every vertex of e1..e(k-1); that is the definition of a
    linear path (consecutive edges share one vertex, others are disjoint).
    """
    masks = [vertex_mask(e) for e in edges]
    found: set[int] = set()

    def grow(last: int, earlier: int, k: int) -> None:
        if k == t:
            found.add(earlier | last)
            return
        for m in masks:
            if (m & last).bit_count() == 1 and not m & earlier:
                grow(m, earlier | last, k + 1)

    if t >= 1:
        for m in masks:
            grow(m, 0, 1)
    return found


def has_linear_path(edges, t: int) -> bool:
    return bool(linear_path_sets(edges, t))


def linear_forest(lengths) -> tuple[int, list[tuple[int, int, int]]]:
    """Vertex count and edges of vertex-disjoint linear paths with the given
    edge counts, labelled consecutively: a path of t edges starting at s is
    {s, s+1, s+2}, {s+2, s+3, s+4}, ..."""
    edges = []
    start = 1
    for t in lengths:
        for i in range(t):
            a = start + 2 * i
            edges.append((a, a + 1, a + 2))
        start += 2 * t + 1
    return start - 1, edges


def contains_linear_forest(n: int, edges, lengths) -> bool:
    """Whether the graph holds vertex-disjoint linear paths with the given
    edge counts (a non-induced copy of the linear forest)."""
    if sum(2 * t + 1 for t in lengths) > n:
        return False
    pools = [sorted(linear_path_sets(edges, t)) for t in lengths]

    def pick(i: int, used: int) -> bool:
        if i == len(pools):
            return True
        return any(not m & used and pick(i + 1, used | m) for m in pools[i])

    return pick(0, 0)


# ---------------------------------------------------------------------------
# small graphs by brute force


def covers_pairs(n: int, edges) -> bool:
    covered = {p for e in edges for p in itertools.combinations(sorted(e), 2)}
    return all(p in covered for p in itertools.combinations(range(1, n + 1), 2))


def holds_clique(edges, n: int, k: int) -> bool:
    """Whether some k vertices span all their triples."""
    es = {tuple(sorted(e)) for e in edges}
    return any(all(t in es for t in itertools.combinations(s, 3))
               for s in itertools.combinations(range(1, n + 1), k))


def verify_embedding(assignment: dict[int, int], pattern_n: int, pattern_edges, host_edges) -> str | None:
    """None if the map is an injective, edge-preserving embedding of the
    pattern into the host, otherwise what is wrong with it."""
    if set(assignment) != set(range(1, pattern_n + 1)):
        return f"map domain {sorted(assignment)} is not the pattern's vertices 1..{pattern_n}"
    if len(set(assignment.values())) != pattern_n:
        return "map is not injective"
    hs = {tuple(sorted(e)) for e in host_edges}
    for e in pattern_edges:
        image = tuple(sorted(assignment[v] for v in e))
        if image not in hs:
            return f"pattern edge {e} maps onto {image}, which is not a host edge"
    return None


class Triples:
    """The triples of [n] as bit positions, with every vertex permutation
    as a map on those positions; used to count and canonicalise small
    3-graphs as integer bitmasks (n <= 7)."""

    def __init__(self, n: int):
        if n > 7:
            raise ValueError("bitmask brute force is limited to n <= 7")
        self.n = n
        self.triples = list(itertools.combinations(range(1, n + 1), 3))
        self.index = {t: i for i, t in enumerate(self.triples)}

    @functools.cached_property
    def weight(self) -> np.ndarray:
        """weight[i, p] = bit of the image of triple i under permutation p."""
        perms = list(itertools.permutations(range(1, self.n + 1)))
        return np.array([[1 << self.index[tuple(sorted(p[v - 1] for v in t))] for p in perms]
                         for t in self.triples], dtype=np.int64)

    def mask(self, edges) -> int:
        return sum(1 << self.index[tuple(sorted(e))] for e in edges)

    def edges(self, mask: int) -> list[tuple[int, int, int]]:
        return [t for i, t in enumerate(self.triples) if mask >> i & 1]

    def canonical(self, masks) -> np.ndarray:
        """Least image of each mask over all vertex permutations."""
        masks = np.asarray(masks, dtype=np.int64).reshape(-1)
        bits = (masks[:, None] >> np.arange(len(self.triples))) & 1
        return (bits @ self.weight).min(axis=1)

    def copies(self, pattern_n: int, pattern_edges) -> set[int]:
        """Masks of every copy of the pattern in the complete 3-graph, one
        per injective vertex map (the brute-force embedding)."""
        out = set()
        for image in itertools.permutations(range(1, self.n + 1), pattern_n):
            out.add(self.mask([tuple(image[v - 1] for v in e) for e in pattern_edges]))
        return out

    def embeds(self, pattern_n: int, pattern_edges, host_edges) -> bool:
        """Containment by trying every injective vertex map."""
        host = self.mask(host_edges)
        return any(c & host == c for c in self.copies(pattern_n, pattern_edges))

    def class_of(self, edges) -> int:
        """Isomorphism class of a graph on [n]: its least image."""
        return int(self.canonical([self.mask(edges)])[0])


def free_subsets(n: int, pattern_n: int, pattern_edges) -> tuple[np.ndarray, np.ndarray]:
    """Every pattern-free subset of the triples of [n] as a bitmask, with its
    edge count; all 2^C(n,3) subsets are tested against every copy.  The
    subsets go in blocks of 2^16 so the oracle's memory stays far below the
    program's and does not show in the benchmark's peak RSS."""
    tri = Triples(n)
    copies = sorted(tri.copies(pattern_n, pattern_edges))
    total = 1 << len(tri.triples)
    block = min(total, 1 << 16)
    kept = []
    for lo in range(0, total, block):
        subsets = np.arange(lo, lo + block, dtype=np.int64)
        free = np.ones(block, dtype=bool)
        for c in copies:
            free &= (subsets & c) != c
        kept.append(subsets[free])
    subsets = np.concatenate(kept)
    return subsets, np.bitwise_count(subsets)


def extremal(n: int, pattern_n: int, pattern_edges) -> dict:
    """Turan number ex(n, F) and its extremal graphs up to isomorphism, by
    brute force over edge subsets: m is the size of the largest F-free
    subset, so no (m+1)-edge subset is F-free and some m-edge subset is."""
    tri = Triples(n)
    subsets, sizes = free_subsets(n, pattern_n, pattern_edges)
    m = int(sizes.max())
    labelled = subsets[sizes == m]
    classes = sorted({int(c) for c in tri.canonical(labelled)})
    return {"max_edges": m, "labelled": len(labelled), "classes": classes,
            "counts_by_size": np.bincount(sizes).tolist()}


# ---------------------------------------------------------------------------
# 2-graphs


def clique_number(n: int, edges) -> int:
    """Largest clique of a 2-graph by Bron-Kerbosch with pivoting; an
    edgeless graph on n >= 1 vertices has clique number 1."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    best = 0

    def bk(r: int, p: set, x: set) -> None:
        nonlocal best
        if not p and not x:
            best = max(best, r)
            return
        if r + len(p) <= best:
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            bk(r + 1, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(0, set(adj), set())
    return best


# ---------------------------------------------------------------------------
# Lagrangians


def evaluate(edges, weights) -> float:
    """Edge polynomial sum over edges of the product of vertex weights;
    weights[v - 1] is the weight of vertex v."""
    return math.fsum(math.prod(weights[v - 1] for v in e) for e in edges)


def complete_value(t: int) -> Fraction:
    """lambda(K_t^3) = C(t,3)/t^3, at the uniform weighting."""
    return Fraction(math.comb(t, 3), t ** 3)


def complete_minus_value(t: int) -> float:
    """lambda(K_t^-), K_t^3 less one edge, over weightings that are constant
    on the t-3 vertices off the missing edge (weight a) and on its 3
    vertices (weight b = (1 - (t-3) a)/3).

    With u = t-3 the edge polynomial is
        C(u,3) a^3 + 3 C(u,2) a^2 b + 3 u a b^2,
    a cubic in a on [0, 1/u].  Its maximum is at an end point or at a root
    of the quadratic derivative, solved in closed form.  The tests check
    against a multi-start replicator search that no unconstrained weighting
    does better.
    """
    u = t - 3
    if u < 1:
        raise ValueError("K_t^- needs t >= 4")
    third = Fraction(1, 3)
    # b as a polynomial in a: [b0, b1] with b = b0 + b1 a
    b = [third, -Fraction(u, 3)]

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    a = [Fraction(0), Fraction(1)]
    terms = [
        (math.comb(u, 3), mul(mul(a, a), a)),
        (3 * math.comb(u, 2), mul(mul(a, a), b)),
        (3 * u, mul(a, mul(b, b))),
    ]
    poly = [Fraction(0)] * 4
    for c, p in terms:
        for i, x in enumerate(p):
            poly[i] += c * x
    # derivative, ascending powers; its leading coefficient 3 poly[3] = u is
    # never 0, so the critical points are the roots of a true quadratic
    d = [poly[1], 2 * poly[2], 3 * poly[3]]
    candidates = [0.0, 1.0 / u]
    disc = float(d[1] ** 2 - 4 * d[2] * d[0])
    if disc >= 0:
        for sign in (1.0, -1.0):
            candidates.append((-float(d[1]) + sign * math.sqrt(disc)) / (2 * float(d[2])))

    def f(x: float) -> float:
        return sum(float(c) * x ** i for i, c in enumerate(poly))

    return max(f(x) for x in candidates if 0.0 <= x <= 1.0 / u)


def k6_minus_value() -> float:
    """lambda(K_6^-) = (4 sqrt 6 - 9)/9.  For t = 6 the cubic of
    complete_minus_value is a^3 - 3a^2 + a, whose critical point in
    [0, 1/3] is a = (3 - sqrt 6)/3; with s = sqrt(6)/3 and s^2 = 2/3 the
    value there is -1 + 4s/3 = (4 sqrt 6 - 9)/9."""
    return (4 * math.sqrt(6) - 9) / 9


def replicator_best(n: int, edges, starts: int, iterations: int, seed: int) -> float:
    """Best edge-polynomial value reached by the replicator (Baum-Eagon)
    map x_i <- x_i * df/dx_i / (r f) from the uniform point and from
    seeded random points of the simplex.  Each step never lowers f, so
    every value seen is a lower bound for the Lagrangian."""
    if not edges:
        return 0.0
    r = len(edges[0])
    E = np.array(edges, dtype=np.int64) - 1
    incidence = np.zeros((E.size, n))          # row (edge, slot) -> its vertex
    incidence[np.arange(E.size), E.reshape(-1)] = 1.0
    rng = np.random.default_rng(seed)
    X = np.vstack([np.full((1, n), 1.0 / n), rng.dirichlet(np.ones(n), size=starts)])
    ones = np.ones(X.shape[:1] + E.shape[:1] + (1,))
    best = 0.0
    for _ in range(iterations + 1):
        cols = X[:, E]                                    # (starts, edges, r)
        before = np.cumprod(np.concatenate([ones, cols[:, :, :-1]], axis=2), axis=2)
        after = np.cumprod(np.concatenate([ones, cols[:, :, :0:-1]], axis=2), axis=2)[:, :, ::-1]
        others = before * after                           # product of the other r-1 weights
        f = (cols[:, :, 0] * others[:, :, 0]).sum(axis=1)
        best = max(best, float(f.max()))
        G = others.reshape(len(X), -1) @ incidence        # partial derivatives
        X = X * G / (r * f[:, None])
        X /= X.sum(axis=1, keepdims=True)
    return best
