"""Subgraph containment by a bitmask matcher compiled once per pattern,
linear-path detectors (grown outward from a new edge inside searches),
the dense-and-left-compressed rewriting loop, and the symmetrize-and-clean
iteration."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from .hypergraph import (
    Hypergraph,
    compress,
    covers_pairs,
    induced,
    link_diff,
    named,
    relabel,
)
from .lagrangian import DEFAULT_CONFIG, OptimizerConfig, densify, is_dense, maximize


@dataclass(frozen=True)
class EmbeddingMap:
    """Injective, edge-preserving vertex map witnessing containment."""

    assignment: tuple[tuple[int, int], ...]  # (pattern vertex, host vertex)

    def __post_init__(self):
        hosts = [h for _, h in self.assignment]
        if len(set(hosts)) != len(hosts):
            raise ValueError("embedding must be injective")

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)

    def verify(self, pattern: Hypergraph, host: Hypergraph) -> bool:
        m = self.as_dict()
        if set(m) != set(range(1, pattern.n + 1)):
            return False
        es = host.edge_set()
        return all(tuple(sorted(m[v] for v in e)) in es for e in pattern.edges)

    def to_json(self) -> dict:
        return {"assignment": {str(p): h for p, h in self.assignment}}


def _pattern_order(pattern: Hypergraph) -> list[int]:
    # most-constrained first: highest degree seeds, then vertices sharing
    # edges with already-ordered ones
    deg = {v: 0 for v in range(1, pattern.n + 1)}
    for e in pattern.edges:
        for v in e:
            deg[v] += 1
    ordered: list[int] = []
    placed: set[int] = set()
    while len(ordered) < pattern.n:
        best = None
        best_key = None
        for v in range(1, pattern.n + 1):
            if v in placed:
                continue
            attach = sum(1 for e in pattern.edges if v in e and any(u in placed for u in e))
            key = (attach, deg[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        ordered.append(best)
        placed.add(best)
    return ordered


@functools.lru_cache(maxsize=256)
def _plan(r: int, n: int, edges: tuple) -> tuple:
    """The search plan of a pattern, built once: its vertices in
    ``_pattern_order``, their degrees, and per position the edges whose
    last vertex sits there ("ready") and the edges left with exactly one
    unplaced vertex once it is placed -- those that already were
    ("carried") and those it brings to that state ("fresh").  An edge is
    stored as the positions of its placed vertices, less this one for a
    fresh edge."""
    order = _pattern_order(Hypergraph(r, n, edges))
    pos = {v: i for i, v in enumerate(order)}
    deg = [0] * (n + 1)
    ready, carried, fresh = ([[] for _ in range(n)] for _ in range(3))
    for e in edges:
        ps = sorted(pos[v] for v in e)
        for v in e:
            deg[v] += 1
        ready[ps[-1]].append(tuple(ps[:-1]))
        if r > 1:
            fresh[ps[-2]].append(tuple(ps[:-2]))
            for i in range(ps[-2] + 1, ps[-1]):
                carried[i].append(tuple(ps[:-1]))
    return (tuple(order), tuple(deg[v] for v in order),
            *(tuple(map(tuple, lists)) for lists in (ready, carried, fresh)))


def _contains_edges(n: int, edges: tuple, pattern: Hypergraph):
    """Backtracking embedding search of pattern into (n, edges) over host
    vertex bitmasks, following the pattern's cached ``_plan``.

    ``completions`` maps the bitmask of any r-1 host vertices to the
    bitmask of the vertices that complete them to a host edge.  A pattern
    vertex's candidates are the unused host vertices of large enough
    degree that complete each of its ready edges; a placement must leave
    every edge with one unplaced vertex an unused completion.  Candidates
    are tried lowest id first, so the witness is the first embedding in
    pattern order and increasing host id."""
    if pattern.n > n:
        return None
    order, pdeg, ready, carried, fresh = _plan(pattern.r, pattern.n, pattern.edges)
    completions: dict[int, int] = {}
    host_deg = [0] * (n + 1)
    for e in edges:
        m = 0
        for v in e:
            m |= 1 << v
            host_deg[v] += 1
        for v in e:
            key = m ^ (1 << v)
            completions[key] = completions.get(key, 0) | (1 << v)
    deg_ok = {d: sum(1 << v for v in range(1, n + 1) if host_deg[v] >= d) for d in set(pdeg)}
    allowed = [deg_ok[d] for d in pdeg]
    k = len(order)
    img = [0] * k  # the host vertex bit placed at each position

    def extend(i: int, used: int) -> bool:
        if i == k:
            return True
        cand = allowed[i] & ~used
        for others in ready[i]:
            key = 0
            for j in others:
                key |= img[j]
            cand &= completions.get(key, 0)
        for others in carried[i]:
            key = 0
            for j in others:
                key |= img[j]
            c = completions.get(key, 0) & ~used
            if c & (c - 1) == 0:  # at most one completion left: keep it free
                cand &= ~c
        bases = []
        for others in fresh[i]:
            key = 0
            for j in others:
                key |= img[j]
            bases.append(key)
        while cand:
            low = cand & -cand
            cand ^= low
            now = used | low
            for base in bases:
                if not completions.get(base | low, 0) & ~now:
                    break
            else:
                img[i] = low
                if extend(i + 1, now):
                    return True
        return False

    if not extend(0, 0):
        return None
    return EmbeddingMap(tuple(sorted((p, img[i].bit_length() - 1) for i, p in enumerate(order))))


def contains(g: Hypergraph, pattern: Hypergraph):
    """A witness embedding of the pattern into g, or None.  The search
    (``_contains_edges``) follows the pattern's compiled plan, placing
    pattern vertices most-constrained first, and filters host vertices
    through completion masks, trying them in increasing id, so the
    witness is the first embedding in that order."""
    if g.r != pattern.r:
        raise ValueError(f"uniformity mismatch: host r={g.r}, pattern r={pattern.r}")
    return _contains_edges(g.n, g.edges, pattern)


def is_free(g: Hypergraph, pattern: Hypergraph) -> bool:
    return contains(g, pattern) is None


# ---------------------------------------------------------------------------
# linear paths, specialized


def _find_path_sequence(masks: list[int], t: int):
    """Indices of t edges forming a linear path: consecutive edges share
    exactly one vertex, the rest are pairwise disjoint."""
    nedges = len(masks)
    if nedges < t:
        return None

    def extend(seq: list[int], used_before: int):
        if len(seq) == t:
            return list(seq)
        cur = masks[seq[-1]]
        for j in range(nedges):
            if j in seq:
                continue
            mj = masks[j]
            if (mj & used_before) == 0 and (mj & cur).bit_count() == 1:
                seq.append(j)
                found = extend(seq, used_before | cur)
                seq.pop()
                if found:
                    return found
        return None

    for i in range(nedges):
        found = extend([i], 0)
        if found:
            return found
    return None


def contains_linear_path(g: Hypergraph, t: int):
    """Witness embedding of the 3-uniform linear path with t edges, by a
    DFS over edge sequences with the path's intersection pattern; agrees
    with contains(g, linear_path(t)) but is much faster inside inner
    loops."""
    if g.r != 3:
        raise ValueError(f"needs a 3-uniform graph, got r={g.r}")
    if g.n < 2 * t + 1:
        return None
    masks = [sum(1 << v for v in e) for e in g.edges]
    seq = _find_path_sequence(masks, t)
    if seq is None:
        return None
    return _path_embedding(g, seq, t)


def _path_embedding(g: Hypergraph, seq: list[int], t: int) -> EmbeddingMap:
    # pattern edge i is {2i-1, 2i, 2i+1}; shared host vertices sit at the
    # odd joints, leftover vertices fill the free slots in increasing order
    edges = [set(g.edges[j]) for j in seq]
    assign: dict[int, int] = {}
    for i in range(t - 1):
        (shared,) = edges[i] & edges[i + 1]
        assign[2 * i + 3] = shared
    first_free = sorted(edges[0] - {assign.get(3, -1)})
    assign[1], assign[2] = first_free[0], first_free[1]
    if t == 1:
        assign[3] = first_free[2]
    for i in range(2, t + 1):
        e = edges[i - 1]
        rest = sorted(e - {assign.get(2 * i - 1, -1), assign.get(2 * i + 1, -1)})
        assign[2 * i] = rest[0]
        if 2 * i + 1 not in assign and len(rest) > 1:
            assign[2 * i + 1] = rest[1]
    return EmbeddingMap(tuple(sorted(assign.items())))


def creates_linear_path(edge_masks: list[int], new_mask: int, t: int) -> bool:
    """Whether adding the edge with bitmask ``new_mask`` creates a linear
    path of t edges through it; ``edge_masks`` are the existing edges.
    Used as the incremental prune inside enumerations.

    The path is grown outward from the new edge, first to the right and
    then to the left, each step by an edge meeting the path's vertex union
    in exactly one free vertex of that end (a vertex of the end edge not
    shared with its neighbour).  That keeps consecutive edges meeting in
    one vertex and all others disjoint.  A path and its reverse are the
    same, so the left arm is never made longer than the right one."""

    def grow(union: int, left: int, right: int, need: int, arm: int) -> bool:
        # arm: length of the right arm while it still grows, -1 afterwards
        if need == 0:
            return True
        for m in edge_masks:
            x = m & union
            if x & (x - 1):
                continue
            if arm >= 0 and x & right and grow(union | m, left & ~m, m & ~union, need - 1, arm + 1):
                return True
            if need <= arm or arm < 0:
                if x & left and grow(union | m, m & ~union, right, need - 1, -1):
                    return True
        return False

    return grow(new_mask, new_mask, new_mask, t - 1, 0)


def contains_core(g: Hypergraph, pattern: Hypergraph, p: int) -> bool:
    """Whether some p vertices of g induce a copy of the pattern while
    every pair of them is covered by an edge of g (the covering edge need
    not stay inside the p-set)."""
    if p < pattern.n:
        raise ValueError(f"core size {p} smaller than pattern order {pattern.n}")
    if p > g.n:
        return False
    covered: set[tuple[int, int]] = set()
    for e in g.edges:
        covered.update(itertools.combinations(e, 2))
    for c in itertools.combinations(range(1, g.n + 1), p):
        if all(pr in covered for pr in itertools.combinations(c, 2)):
            if contains(induced(g, c), pattern) is not None:
                return True
    return False


# ---------------------------------------------------------------------------
# dense and left-compressed rewriting


_K8_FLOOR = comb(8, 3) / 8**3 - 0.005


def left_compress_loop(g: Hypergraph, t: int, lambda_floor: float | None = None,
                       config: OptimizerConfig = DEFAULT_CONFIG,
                       max_rounds: int | None = None) -> Hypergraph:
    """Rewrite a path-free 3-graph into a dense, left-compressed, path-free
    one of no smaller Lagrangian.

    Each round takes a dense subgraph with the same optimum, relabels by
    descending optimum weight (ties broken by current id), and applies one
    compression toward a smaller index; compression preserves path-freeness
    on the inputs this loop accepts.  For t=4 the input must have optimum
    at least ``lambda_floor`` (default the near-complete threshold), the
    precondition under which compressions cannot create the length-4 path.

    Termination: after the weight-ordered relabeling, a compression moves
    every rerouted edge strictly down in componentwise rank, so the sum of
    vertex ids over edges strictly decreases within a round; a generous
    round cap guards the alternation with relabeling.
    """
    if g.r != 3:
        raise ValueError(f"needs a 3-uniform graph, got r={g.r}")
    if t not in (3, 4):
        raise ValueError(f"loop supports path lengths 3 and 4, got {t}")
    if contains_linear_path(g, t) is not None:
        raise ValueError(f"input contains a linear path of length {t}")
    if t == 4:
        if lambda_floor is None:
            lambda_floor = _K8_FLOOR
        if maximize(g, config).value < lambda_floor - 1e-9:
            raise ValueError(
                f"optimum below the required floor {lambda_floor:.6f} for t=4 rewriting")
    cur = g
    rounds = 0
    cap = max_rounds if max_rounds is not None else 60 + 12 * comb(max(g.n, 3), 3)
    while True:
        rounds += 1
        if rounds > cap:
            raise RuntimeError("left_compress_loop failed to terminate within the round cap")
        cur, opt = densify(cur, config)
        ws = opt.weighting.as_floats()
        order = sorted(range(1, cur.n + 1), key=lambda v: (-ws[v - 1], v))
        mapping = {old: new for new, old in enumerate(order, start=1)}
        cur = relabel(cur, mapping)
        moved = None
        for j in range(2, cur.n + 1):
            for i in range(1, j):
                if link_diff(cur, j, i):
                    moved = (i, j)
                    break
            if moved:
                break
        if moved is None:
            return cur
        cur = compress(cur, *moved)
        if contains_linear_path(cur, t) is not None:
            raise RuntimeError(
                f"compression {moved} created a length-{t} path; loop preconditions violated")


# ---------------------------------------------------------------------------
# symmetrization and cleaning


def _alpha_dense(edges: set, alive: list[int], r: int, alpha: float) -> bool:
    if not alive:
        return False
    deg = {v: 0 for v in alive}
    for e in edges:
        for v in e:
            deg[v] += 1
    need = alpha * comb(len(alive) - 1, r - 1)
    return min(deg.values()) >= need


def symmetrize_clean(g: Hypergraph, alpha: float, max_rounds: int | None = None) -> Hypergraph:
    """Iterate: pick two nonadjacent vertices with different links, the
    higher degree first (ties by smallest ids); give every vertex of the
    lower one's link-equality class a copy of the higher one's link; then
    while the graph is not alpha-dense (minimum degree at least alpha
    times the full degree), delete a minimum-degree vertex, except that a
    minimum-degree vertex inside the class just symmetrized *to* is spared
    and a just-symmetrized source vertex is deleted instead, while any
    remain.  Stops when no nonadjacent pair with different links is left;
    the survivors are renumbered 1..k in increasing original id.

    The result is a blowup of its induced subgraph on one representative
    per link-equality class.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    alive = list(range(1, g.n + 1))
    edges = set(g.edges)
    cap = max_rounds if max_rounds is not None else 4 * g.n * g.n + 64
    for _round in range(cap):
        if not alive or not edges:
            break
        deg = {v: 0 for v in alive}
        links: dict[int, frozenset] = {v: frozenset() for v in alive}
        by_vertex: dict[int, list] = {v: [] for v in alive}
        for e in edges:
            for v in e:
                deg[v] += 1
                by_vertex[v].append(e)
        for v in alive:
            links[v] = frozenset(tuple(x for x in e if x != v) for e in by_vertex[v])
        adjacent: set[tuple[int, int]] = set()
        for e in edges:
            adjacent.update(itertools.combinations(sorted(e), 2))
        pick = None
        for u in alive:
            for v in alive:
                if u == v:
                    continue
                a, b = min(u, v), max(u, v)
                if (a, b) in adjacent or links[u] == links[v]:
                    continue
                if deg[u] >= deg[v]:
                    if pick is None or (u, v) < pick:
                        pick = (u, v)
        if pick is None:
            break
        u, v = pick
        cls_v = sorted(w for w in alive if links[w] == links[v])
        cls_u = set(w for w in alive if links[w] == links[u])
        for w in cls_v:
            edges = {e for e in edges if w not in e}
        for w in cls_v:
            for f in links[u]:
                if w not in f:
                    edges.add(tuple(sorted(f + (w,))))
        # cleaning: a graph with no edges left is cleaned down to nothing
        sources = list(cls_v)
        while alive and not (edges and _alpha_dense(edges, alive, g.r, alpha)):
            d = {x: 0 for x in alive}
            for e in edges:
                for x in e:
                    d[x] += 1
            z = min(alive, key=lambda x: (d[x], x))
            if z in cls_u and sources:
                victim = sources.pop(0)
            else:
                victim = z
            alive.remove(victim)
            edges = {e for e in edges if victim not in e}
        if not edges:
            break
    else:
        raise RuntimeError("symmetrize_clean failed to terminate within the round cap")
    keep = sorted(alive)
    mapping = {old: new for new, old in enumerate(keep, start=1)}
    out = sorted(tuple(sorted(mapping[v] for v in e)) for e in edges)
    return Hypergraph(g.r, len(keep), tuple(out))


# ---------------------------------------------------------------------------
# structure reports


@dataclass(frozen=True)
class StructureCheck:
    check: str
    violated: bool
    witness: EmbeddingMap | tuple | None = None

    def to_json(self) -> dict:
        out = {"check": self.check, "violated": self.violated}
        if isinstance(self.witness, EmbeddingMap):
            out["witness_embedding"] = self.witness.to_json()
        elif self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[StructureCheck, ...]

    @property
    def violated(self) -> bool:
        return any(c.violated for c in self.checks)

    def to_json(self) -> dict:
        return {"checks": [c.to_json() for c in self.checks], "violated": self.violated}


def check_structures(g: Hypergraph, config: OptimizerConfig = DEFAULT_CONFIG) -> StructureReport:
    """Structural consequences a graph in this regime must satisfy.

    For a covering-pairs, length-4-path-free graph on at least 9 vertices:
    no disjoint pair of length-2 paths (F1) and no edge disjoint from a
    length-3 path (F2) may embed; when additionally the optimum is within
    0.005 of the near-complete threshold, no central triple with three
    pendant edges (F3) may embed.  For a dense graph on at least 5
    (resp. 4) vertices, some two edges intersect in exactly 1 (resp. 2)
    vertices.
    """
    checks: list[StructureCheck] = []
    if g.r == 3 and g.n >= 9 and contains_linear_path(g, 4) is None:
        # the freeness guarantees only bind covering-pairs graphs; scans on
        # other inputs still report witnesses (detector sanity) but are not
        # violations
        covering = covers_pairs(g)
        for name in ("F1", "F2"):
            w = contains(g, named(name))
            checks.append(StructureCheck(f"{name.lower()}-free", covering and w is not None, w))
        if covering and maximize(g, config).value >= _K8_FLOOR:
            w = contains(g, named("F3"))
            checks.append(StructureCheck("f3-free", w is not None, w))
    if g.r == 3 and g.n >= 4 and is_dense(g, config):
        for size, min_n in ((1, 5), (2, 4)):
            if g.n >= min_n:
                found = None
                for e1, e2 in itertools.combinations(g.edges, 2):
                    if len(set(e1) & set(e2)) == size:
                        found = (e1, e2)
                        break
                checks.append(StructureCheck(
                    f"intersecting-pair-{size}", found is None, found))
    return StructureReport(tuple(checks))
