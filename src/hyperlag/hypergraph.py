"""Core types, named constructions, and combinatorial operators for
r-uniform hypergraphs on the vertex set [n] = {1, ..., n}.

Vertices are 1-based dense integers.  Isolated vertices are representable:
``n`` may exceed every id that appears in an edge, which matters for
density checks.  An edge is a strictly increasing tuple of vertex ids and a
Hypergraph stores a duplicate-free, lexicographically sorted tuple of
edges, so equality and hashing are structural.  All values are immutable
after construction; every operator below is a pure function.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import comb

Edge = tuple[int, ...]


def _fmt_edge(e) -> str:
    return "{" + ",".join(str(v) for v in e) + "}"


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph in canonical form.

    Construct through :func:`new` unless the edges are already canonical
    (strictly increasing tuples, sorted, no duplicates); the constructor
    verifies canonical form but does not repair it.
    """

    r: int
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"uniformity must be >= 1, got {self.r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        prev = None
        for e in self.edges:
            if len(e) != self.r:
                raise ValueError(f"edge {_fmt_edge(e)} has arity {len(e)}, expected {self.r}")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise ValueError(f"edge {_fmt_edge(e)} is not strictly increasing")
            if e[0] < 1 or e[-1] > self.n:
                raise ValueError(f"edge {_fmt_edge(e)} has a vertex outside [1, {self.n}]")
            if prev is not None and not prev < e:
                raise ValueError(f"edges not sorted/unique at {_fmt_edge(e)}")
            prev = e

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * (self.n + 1)
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d[1:]

    def __repr__(self) -> str:
        shown = ",".join("".join(map(str, e)) if self.n <= 9 else _fmt_edge(e) for e in self.edges[:12])
        more = "..." if len(self.edges) > 12 else ""
        return f"Hypergraph(r={self.r}, n={self.n}, edges=[{shown}{more}])"


def new(r: int, n: int, edges) -> Hypergraph:
    """Validate and canonicalize: duplicate edges collapse, unsorted input
    is sorted.  r, n and the vertex ids must be integers, not booleans or
    floats.  Raises ValueError naming the offending edge."""
    for what, x in (("uniformity", r), ("vertex count", n)):
        if type(x) is not int:
            raise ValueError(f"{what} must be an integer, got {x!r}")
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    canon = set()
    for e in edges:
        e = tuple(e)
        for v in e:
            if type(v) is not int or v < 1:
                raise ValueError(f"edge {_fmt_edge(e)}: vertex ids must be positive integers")
            if v > n:
                raise ValueError(f"edge {_fmt_edge(e)}: vertex {v} > n={n}")
        if len(set(e)) != len(e):
            raise ValueError(f"edge {_fmt_edge(e)} repeats a vertex")
        if len(e) != r:
            raise ValueError(f"edge {_fmt_edge(e)} has {len(e)} vertices, expected {r}")
        canon.add(tuple(sorted(e)))
    return Hypergraph(r, n, tuple(sorted(canon)))


# ---------------------------------------------------------------------------
# named constructions


def complete(t: int, r: int = 3) -> Hypergraph:
    """Complete r-graph on t vertices: every r-subset is an edge."""
    if t < r:
        raise ValueError(f"complete graph needs t >= r, got t={t}, r={r}")
    return Hypergraph(r, t, tuple(itertools.combinations(range(1, t + 1), r)))


def complete_minus(t: int, r: int = 3) -> Hypergraph:
    """Complete r-graph on t vertices minus one edge.

    The removed edge is {t-r+1, ..., t}, the colex-largest; all choices are
    isomorphic, this one keeps the result left-compressed.
    """
    if t < r:
        raise ValueError(f"complete graph needs t >= r, got t={t}, r={r}")
    removed = tuple(range(t - r + 1, t + 1))
    return Hypergraph(r, t, tuple(e for e in itertools.combinations(range(1, t + 1), r) if e != removed))


def linear_path(t: int) -> Hypergraph:
    """3-uniform linear path with t edges on 2t+1 vertices: edge i is
    {2i-1, 2i, 2i+1}, so consecutive edges share exactly one vertex and all
    other pairs of edges are disjoint."""
    if t < 1:
        raise ValueError(f"path length must be >= 1, got {t}")
    return Hypergraph(3, 2 * t + 1, tuple((2 * i - 1, 2 * i, 2 * i + 1) for i in range(1, t + 1)))


def matching(t: int, r: int = 3) -> Hypergraph:
    """Perfect matching of t pairwise disjoint r-edges on t*r vertices."""
    if t < 1:
        raise ValueError(f"matching size must be >= 1, got {t}")
    return Hypergraph(r, t * r, tuple(tuple(range((i - 1) * r + 1, i * r + 1)) for i in range(1, t + 1)))


# Fixed published labelings for small forbidden configurations.  The
# labelings are a normalization of ours; any relabeling gives an isomorphic
# graph.
_NAMED: dict[str, tuple[int, tuple[Edge, ...]]] = {
    # two triples through a common pair, plus the edge closing the one
    # uncovered pair via a fresh vertex
    "T2": (4, ((1, 2, 3), (1, 2, 4))),
    "F5": (5, ((1, 2, 3), (1, 2, 4), (3, 4, 5))),
    # two vertex-disjoint copies of the length-2 linear path
    "F1": (10, ((1, 2, 3), (3, 4, 5), (6, 7, 8), (8, 9, 10))),
    # a single edge disjoint from a length-3 linear path
    "F2": (10, ((1, 2, 3), (4, 5, 6), (6, 7, 8), (8, 9, 10))),
    # a central triple {1,2,3} with one pendant edge at each of its vertices
    "F3": (9, ((1, 2, 3), (1, 4, 5), (2, 6, 7), (3, 8, 9))),
}


# ---------------------------------------------------------------------------
# combinatorial operators


def covers_pairs(g: Hypergraph) -> bool:
    """True iff every 2-subset of [n] lies inside some edge."""
    want = comb(g.n, 2)
    seen: set[tuple[int, int]] = set()
    for e in g.edges:
        seen.update(itertools.combinations(e, 2))
        if len(seen) == want:
            return True
    return len(seen) == want


def link_diff(g: Hypergraph, j: int, i: int) -> frozenset[Edge]:
    """The (r-1)-sets f avoiding both i and j with f+{j} an edge but
    f+{i} not an edge."""
    if i == j:
        raise ValueError("link_diff needs two distinct vertices")
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range [1, {g.n}]")
    es = g.edge_set()
    out = []
    for e in g.edges:
        if j in e and i not in e:
            f = tuple(v for v in e if v != j)
            if tuple(sorted(f + (i,))) not in es:
                out.append(f)
    return frozenset(out)


def compress(g: Hypergraph, i: int, j: int) -> Hypergraph:
    """Reroute to i every edge through j whose remainder does not already
    extend to an edge through i.  Edge count is preserved."""
    moved = link_diff(g, j, i)
    if not moved:
        return g
    edges = set(g.edges)
    for f in moved:
        edges.discard(tuple(sorted(f + (j,))))
        edges.add(tuple(sorted(f + (i,))))
    return Hypergraph(g.r, g.n, tuple(sorted(edges)))


def lower_covers(e: Edge) -> list[Edge]:
    """Immediate predecessors under componentwise dominance of sorted
    edges: lower one coordinate by one where the result stays strictly
    increasing and positive.  Their transitive closure is the whole
    dominance order."""
    out = []
    for k in range(len(e)):
        c = e[k] - 1
        if c >= 1 and (k == 0 or c > e[k - 1]):
            out.append(e[:k] + (c,) + e[k + 1:])
    return out


def is_left_compressed(g: Hypergraph) -> bool:
    """True iff the edge set is a down-set under componentwise dominance
    of sorted edges: every lower cover of every edge is an edge.
    Equivalently no compression toward a smaller index can move an edge,
    since replacing a vertex of an edge by a smaller one outside it gives
    a dominated r-set, and a lower cover is such a replacement."""
    es = g.edge_set()
    return all(c in es for e in g.edges for c in lower_covers(e))


def induced(g: Hypergraph, vertices) -> Hypergraph:
    """Induced subgraph on a vertex subset, relabeled 1..|U| preserving
    order."""
    u = sorted(set(vertices))
    if u and (u[0] < 1 or u[-1] > g.n):
        raise ValueError(f"vertex set not within [1, {g.n}]")
    relabel_map = {v: k + 1 for k, v in enumerate(u)}
    keep = set(u)
    edges = sorted(
        tuple(relabel_map[v] for v in e) for e in g.edges if all(v in keep for v in e)
    )
    return Hypergraph(g.r, len(u), tuple(edges))


def relabel(g: Hypergraph, mapping: dict[int, int]) -> Hypergraph:
    """Apply a vertex bijection of [n]; structural result is canonical."""
    if sorted(mapping) != list(range(1, g.n + 1)) or sorted(mapping.values()) != list(range(1, g.n + 1)):
        raise ValueError("mapping must be a bijection of [1, n]")
    edges = sorted(tuple(sorted(mapping[v] for v in e)) for e in g.edges)
    return Hypergraph(g.r, g.n, tuple(edges))


def blowup(pattern: Hypergraph, sizes) -> Hypergraph:
    """Replace vertex i of the pattern by a class of sizes[i-1] fresh
    vertices; edges are all transversals of the classes of a pattern edge."""
    sizes = list(sizes)
    if len(sizes) != pattern.n:
        raise ValueError(f"need {pattern.n} class sizes, got {len(sizes)}")
    if any(s < 0 for s in sizes):
        raise ValueError("class sizes must be nonnegative")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    classes = [list(range(starts[k] + 1, starts[k + 1] + 1)) for k in range(pattern.n)]
    n = starts[-1]
    edges = set()
    for e in pattern.edges:
        for combo in itertools.product(*(classes[v - 1] for v in e)):
            edges.add(tuple(sorted(combo)))
    return Hypergraph(pattern.r, n, tuple(sorted(edges)))


def turan_blowup(m: int, r: int, n: int) -> Hypergraph:
    """Balanced blowup of the complete r-graph on m classes over n
    vertices: edges are the r-sets meeting every class at most once.
    Class sizes differ by at most one, smaller classes first."""
    if m < r:
        raise ValueError(f"need m >= r, got m={m}, r={r}")
    q, rem = divmod(n, m)
    sizes = [q] * (m - rem) + [q + 1] * rem
    return blowup(complete(m, r), sizes)


def turan_count(m: int, r: int, n: int) -> int:
    """Edge count of turan_blowup(m, r, n), by the product-sum closed form."""
    if m < r:
        raise ValueError(f"need m >= r, got m={m}, r={r}")
    q, rem = divmod(n, m)
    sizes = [q] * (m - rem) + [q + 1] * rem
    total = 0
    for combo in itertools.combinations(sizes, r):
        p = 1
        for s in combo:
            p *= s
        total += p
    return total


def extension(f: Hypergraph) -> Hypergraph:
    """Close every uncovered pair of f with a fresh edge: for each pair of
    vertices of f in no common edge, append r-2 brand-new vertices and the
    edge through the pair and those vertices.  Uncovered pairs are
    processed in lexicographic order (a normalization; all orders give
    isomorphic results), so outputs are deterministic."""
    covered = set()
    for e in f.edges:
        covered.update(itertools.combinations(e, 2))
    uncovered = [p for p in itertools.combinations(range(1, f.n + 1), 2) if p not in covered]
    edges = list(f.edges)
    nxt = f.n + 1
    for (a, b) in uncovered:
        fresh = tuple(range(nxt, nxt + f.r - 2))
        nxt += f.r - 2
        edges.append(tuple(sorted((a, b) + fresh)))
    return Hypergraph(f.r, nxt - 1, tuple(sorted(set(edges))))


# ---------------------------------------------------------------------------
# construction names


# family: (constructor, fewest parameters, most parameters)
_FAMILIES = {
    "P": (linear_path, 1, 1),
    "K": (complete, 1, 2),
    "K-": (complete_minus, 1, 2),
    "M": (matching, 1, 2),
    "T": (turan_blowup, 3, 3),
}
# a family letter, then integer parameters; K may carry a minus marker
# (-, ^-, MINUS, or M right after the K) before or after its first one
_SPEC = re.compile(r"([KPMT])(MINUS|M|\^?-)?[\s_]*(\d+)(?:[\s_]*(MINUS|\^?-))?((?:[\s_]+\d+)*)[\s_]*")


def named(spec: str) -> Hypergraph:
    """The one reader of construction names, case-insensitive.

    A fixed graph of ``_NAMED``: T2, F5, F1, F2, F3, where ``_`` and spaces
    are ignored.  An exact name wins, so T2 is never read as a blowup.
    Otherwise a family letter and its integer parameters:

    - ``P<t>``: :func:`linear_path`;
    - ``K<t>[_r]``: :func:`complete`, r = 3 by default;
    - ``K<t>-[_r]``, also spelt ``K<t>^-``, ``K<t>MINUS``, ``K-<t>``,
      ``KMINUS<t>`` or ``KM<t>``: :func:`complete_minus`;
    - ``M<t>[_r]``: :func:`matching`;
    - ``T<m>_<r>_<n>``: :func:`turan_blowup`.

    Parameters are fused to the family (``K6_4``) or separated from it by
    ``_`` or spaces (``K_6_4``, ``K 6 4``, ``Kminus 6 3``, ``T 3 3 7``);
    parameters after the first are separated from each other.  Raises
    ValueError on anything else, a wrong parameter count included.
    """
    s = spec.strip().upper()
    key = re.sub(r"[\s_]", "", s)
    if key in _NAMED:
        n, edges = _NAMED[key]
        return Hypergraph(3, n, edges)
    m = _SPEC.fullmatch(s)
    if m is None or (m[2] and m[4]) or (m[1] != "K" and (m[2] or m[4])):
        raise ValueError(f"unknown construction {spec!r}")
    family = m[1] + ("-" if m[2] or m[4] else "")
    build, least, most = _FAMILIES[family]
    params = [int(p) for p in (m[3], *re.findall(r"\d+", m[5]))]
    if not least <= len(params) <= most:
        raise ValueError(f"wrong number of parameters for {family} in {spec!r}")
    return build(*params)


# ---------------------------------------------------------------------------
# vertex partitions


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint nonempty classes covering [n]."""

    n: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.classes:
            if not c:
                raise ValueError("empty class")
            for v in c:
                if v in seen:
                    raise ValueError(f"vertex {v} in two classes")
                seen.add(v)
        if seen != set(range(1, self.n + 1)):
            raise ValueError("classes do not cover [1, n]")

    def __len__(self) -> int:
        return len(self.classes)


def _exchangeable(g: Hypergraph, es: frozenset[Edge], u: int, v: int) -> bool:
    # u ~ v iff swapping any weight between them never changes the edge
    # polynomial: f+{u} is an edge iff f+{v} is, for every f avoiding both.
    for e in g.edges:
        if u in e and v not in e:
            f = tuple(x for x in e if x != u)
            if tuple(sorted(f + (v,))) not in es:
                return False
        elif v in e and u not in e:
            f = tuple(x for x in e if x != v)
            if tuple(sorted(f + (u,))) not in es:
                return False
    return True


def equivalence_classes(g: Hypergraph) -> VertexPartition:
    """Coarsest partition into weight-exchangeable classes: u and v share a
    class iff every edge through exactly one of them stays an edge when
    that one is swapped for the other.  For nonadjacent vertices this is
    literal link equality; adjacent vertices can also be exchangeable (the
    relation is transitive either way).
    """
    es = g.edge_set()
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            if find(u) != find(v) and _exchangeable(g, es, u, v):
                parent[find(v)] = find(u)
    groups: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        groups.setdefault(find(v), []).append(v)
    classes = tuple(sorted(tuple(sorted(c)) for c in groups.values()))
    return VertexPartition(g.n, classes)
