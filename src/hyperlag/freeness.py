"""Subgraph containment by a bitmask matcher compiled once per pattern
(whole-graph linear-path tests are ``contains(g, linear_path(t))``), the
incremental linear-path test that grows a path outward from a new edge
inside searches, and the dense-and-left-compressed rewriting loop."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .hypergraph import (
    Hypergraph,
    complete,
    compress,
    induced,
    linear_path,
    link_diff,
    relabel,
)
from .lagrangian import DEFAULT_CONFIG, OptimizerConfig, closed_form, densify, maximize


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


def _pattern_order(pattern: Hypergraph, anchor: tuple = ()) -> list[int]:
    # most-constrained first: highest degree seeds, then vertices sharing
    # edges with already-ordered ones; the anchor's vertices come first.
    # attach[v] counts the edges at v that hold an ordered vertex
    n = pattern.n
    deg = [0] * (n + 1)
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for i, e in enumerate(pattern.edges):
        for v in e:
            deg[v] += 1
            incident[v].append(i)
    attach = [0] * (n + 1)
    reached = [False] * len(pattern.edges)
    ordered: list[int] = []
    placed: set[int] = set()
    while len(ordered) < n:
        pool = anchor if len(ordered) < len(anchor) else range(1, n + 1)
        best = max((v for v in pool if v not in placed), key=lambda v: (attach[v], deg[v], -v))
        ordered.append(best)
        placed.add(best)
        for i in incident[best]:
            if not reached[i]:
                reached[i] = True
                for u in pattern.edges[i]:
                    attach[u] += 1
    return ordered


class _Plan(NamedTuple):
    """A pattern's search plan (see :func:`_plan`).  Every field but
    ``order`` is indexed by position, and an edge is stored as a tuple of
    positions."""

    order: tuple  # the pattern's vertices in search order
    degrees: tuple  # the pattern degree of each position's vertex
    ready: tuple  # edges whose last vertex sits at the position
    carried: tuple  # edges one vertex short before and after the position
    fresh: tuple  # edges the position leaves one vertex short
    below: tuple  # earlier positions whose host vertex must be lower
    boundary: tuple  # None, or the earlier positions the search from here reads


def _boundary(cuts: set, below) -> tuple:
    """Per position i: for a cut (no edge has positions both below i and
    at or above i), the positions p < i named in ``below[j]`` for some
    j >= i, in increasing order; None elsewhere."""
    return tuple(tuple(sorted({p for ps in below[i:] for p in ps if p < i})) if i in cuts else None
                 for i in range(len(below)))


def _free_plan(pattern: Hypergraph, anchor: tuple = ()) -> _Plan:
    """The search plan of ``pattern`` without symmetry-breaking conditions:
    its vertices in ``_pattern_order`` (the vertices of ``anchor`` first),
    their degrees, and per position the edges whose last vertex sits there
    ("ready") and the edges left with exactly one unplaced vertex once it
    is placed -- those that already were ("carried") and those it brings
    to that state ("fresh").  An edge is stored as the positions of its
    placed vertices, less this one for a fresh edge.  Every ``below`` is
    empty, so ``boundary`` is () at each component cut and None elsewhere.

    The plan serves any allowed sets: :func:`_plan` finds the pattern's
    orbits with it, and a pinned search (see :func:`_contains_edges`)
    follows it with the pinned vertices as ``anchor``.  Nothing caches
    it; ``_plan`` caches only the plan it builds from it."""
    r, n, edges = pattern.r, pattern.n, pattern.edges
    order = _pattern_order(pattern, anchor)
    pos = {v: i for i, v in enumerate(order)}
    deg = [0, *pattern.degrees()]
    ready, carried, fresh = ([[] for _ in range(n)] for _ in range(3))
    cuts = set(range(1, n))
    for e in edges:
        ps = sorted(pos[v] for v in e)
        ready[ps[-1]].append(tuple(ps[:-1]))
        if r > 1:
            fresh[ps[-2]].append(tuple(ps[:-2]))
            for i in range(ps[-2] + 1, ps[-1]):
                carried[i].append(tuple(ps[:-1]))
        cuts.difference_update(range(ps[0] + 1, ps[-1] + 1))
    unordered = ((),) * n
    return _Plan(tuple(order), tuple(deg[v] for v in order),
                 *(tuple(map(tuple, lists)) for lists in (ready, carried, fresh)),
                 unordered, _boundary(cuts, unordered))


@functools.lru_cache(maxsize=256)
def _plan(r: int, n: int, edges: tuple, anchor: tuple = ()) -> _Plan:
    """The search plan of a pattern, built once: :func:`_free_plan` with
    ``anchor`` a pattern edge or nothing, and then, per position j, the
    positions p < j whose host vertex must have a lower id than j's
    ("below"): the symmetry-breaking conditions of Grochow & Kellis
    (RECOMB 2007) over the stabilizer chain of the pattern's automorphism
    group (McKay & Piperno, 2014).  Let G_p be the automorphisms fixing
    ``order[:p]`` pointwise.  For every other vertex ``order[j]`` in the
    G_p-orbit of ``order[p]`` an embedding f must have f(order[p]) <
    f(order[j]); only the transitive reduction of these pairs is stored,
    and the search enforces the rest through it.

    Soundness.  Order embeddings lexicographically by their host ids in
    pattern order, and call f and f o s, for s an automorphism, one class.
    The lex-least member g of a class meets every condition: were
    g(order[j]) < g(order[p]) with order[j] = s(order[p]) for s in G_p,
    then g o s would agree with g on ``order[:p]`` and be smaller at
    position p, so lex-smaller.  No other member meets them all: for
    g o s with s not the identity, let p be the first position s moves;
    then s and its inverse lie in G_p, and the conditions at p for g and
    for g o s would need g(order[p]) < g(s(order[p])) and
    g(s(order[p])) < g(order[p]).  So exactly one embedding per class
    survives, and the lex-least embedding of the host, being lex-least in
    its class, survives: the first witness is the one found without the
    conditions, and a miss stays a miss.

    The orbits come from ``_search`` itself, embedding the pattern into
    itself with ``order[:p]`` pinned and position p pinned to each later
    vertex of its degree; an edge-preserving injection of a pattern into
    itself is an automorphism.

    An anchored plan (see :func:`_anchor_plans`) serves a search whose
    anchor positions, the first r, may take only the vertices of one host
    edge, so it keeps only the embeddings that map the anchor onto that
    edge.  Its conditions come from the same chain over the anchor's
    setwise stabilizer A in place of the whole group: the self-embeddings
    keep the anchor positions inside the anchor, and an injection that
    maps the anchor into itself maps it onto itself.  The argument above
    holds for A word for word, because A keeps every position's allowed
    set.  An s in A sends a position to one of the same degree, and an
    anchor position to an anchor position, so f o s maps each position
    into the same allowed set as f: the embeddings a search may take are
    a union of classes under A.  (For p >= r the pinned ``order[:p]``
    holds the anchor, so there A's chain is the whole group's.)

    Last, the component boundaries ("boundary").  ``_pattern_order``
    places each connected component of the pattern in one contiguous
    block, so a disconnected pattern has cuts: positions i > 0 where
    ``order[i:]`` is a union of whole components, that is where no edge
    has positions on both sides.  At a cut the field holds the positions
    p < i that some ``below[j]`` with j >= i names (for P2 + P2 the
    centre of the first path; for P1 + P3 none); elsewhere it is None.
    Ready, carried and fresh edges never cross a component, so the search
    from a cut reads only the used host vertices, the fixed allowed masks
    and completion map, and the images of those positions: whether it
    succeeds is a function of that state, which ``_search`` remembers
    when it fails."""
    free = _free_plan(Hypergraph(r, n, edges), anchor)
    order, pdeg = free.order, free.degrees
    completions = _Host(n, r, edges).completions
    cuts = {i for i, refs in enumerate(free.boundary) if refs is not None}
    same = {d: sum(1 << v for v, dv in zip(order, pdeg) if dv == d) for d in set(pdeg)}
    inside = sum(1 << v for v in anchor)
    # per position, the images a self-embedding may give it: the vertices
    # of its degree, inside the anchor for an anchor position
    mine = [same[d] & inside if i < len(anchor) else same[d] for i, d in enumerate(pdeg)]
    below = [[] for _ in range(n)]
    reach = [0] * n  # per position, the later positions it must map below
    for p in reversed(range(n)):
        allowed = [1 << v for v in order[:p]] + [0] + mine[p + 1:]
        orbit = []
        for j in range(p + 1, n):
            allowed[p] = 1 << order[j] & mine[p]
            if allowed[p] and _search(free, completions, allowed) is not None:
                orbit.append(j)
        implied = 0
        for j in orbit:
            implied |= reach[j]
        for j in orbit:
            reach[p] |= 1 << j | reach[j]
            if not implied >> j & 1:
                below[j].append(p)
    below = tuple(map(tuple, below))
    return free._replace(below=below, boundary=_boundary(cuts, below))


class _Host:
    """A host r-graph on [n] in the form :func:`_contains_edges` reads: the
    completion map ``completions`` (the bitmask of any r-1 vertices of an
    edge to the bitmask of the vertices completing them to an edge), the
    degree ``deg[v]`` of each vertex, ``deg_masks[d]`` the bitmask of the
    vertices of degree at least d (for every degree an r-graph on [n] can
    have, up to C(n-1, r-1), so for every degree of a pattern that fits on
    [n]), and the edge bitmasks ``masks`` in the order they were added.

    :meth:`add` adds an edge and :meth:`remove` takes back the last
    :meth:`add`: a search and every test only ever undo in LIFO order, its
    includes and the candidate edges it adds around a test alike.  This is
    the only code that writes the completion map."""

    def __init__(self, n: int, r: int, edges=()):
        self.n = n
        self.completions: dict[int, int] = {}
        self.deg = [0] * (n + 1)
        self.deg_masks = [0] * (comb(max(n - 1, 0), r - 1) + 1)
        self.deg_masks[0] = (1 << n + 1) - 2
        self.masks: list[int] = []
        for e in edges:
            self.add(e)

    def add(self, e) -> None:
        m = 0
        for v in e:
            m |= 1 << v
        self.masks.append(m)
        completions, deg, deg_masks = self.completions, self.deg, self.deg_masks
        for v in e:
            b = 1 << v
            completions[m ^ b] = completions.get(m ^ b, 0) | b
            deg[v] += 1
            deg_masks[deg[v]] |= b

    def remove(self, e) -> None:
        """Take back the last :meth:`add`, of edge ``e``; a key left with
        no completion goes."""
        m = self.masks.pop()
        completions, deg, deg_masks = self.completions, self.deg, self.deg_masks
        for v in e:
            b = 1 << v
            rest = completions[m ^ b] ^ b
            if rest:
                completions[m ^ b] = rest
            else:
                del completions[m ^ b]
            deg_masks[deg[v]] ^= b
            deg[v] -= 1


def _search(plan: _Plan, completions: dict[int, int], allowed: list[int]):
    """The first embedding, following ``plan``, that maps position i into
    ``allowed[i]`` and every pattern edge onto an edge of ``completions``:
    the host vertex bit of each position, or None.

    A position's candidates are the unused allowed vertices that complete
    each of its ready edges and lie above the vertices of its "below"
    positions; a placement must leave every edge with one unplaced vertex
    an unused completion.  Candidates are tried lowest id first, so
    embeddings are visited in lexicographic order of their host ids.

    At a component boundary i (see ``_plan``) the search records, for this
    call only, each state -- the used vertices and the images of the
    boundary's positions -- whose subtree failed, and fails at once when it
    meets that state again.  The subtree below a boundary reads nothing
    else, so it would fail again; a state is recorded only after it failed,
    so the memo changes neither the first witness nor a miss.  A state is
    ``used`` followed by those images, each shifted in by the bit length
    L of ``used``; an image lies inside ``used``, so the state has bit
    length L times one more than the number of images, which fixes L and
    so every part: distinct states stay distinct, for any host size.  A
    connected pattern has no boundary and keeps no memo."""
    _, _, ready, carried, fresh, below, boundary = plan
    k = len(ready)
    img = [0] * k  # the host vertex bit placed at each position
    failed = {}  # per boundary position, the states whose subtree failed

    def extend(i: int, used: int) -> bool:
        if i == k:
            return True
        refs = boundary[i]
        if refs is not None:
            state, width = used, used.bit_length()
            for p in refs:
                state = state << width | img[p]
            if state in failed.get(i, ()):
                return False
        cand = allowed[i] & ~used
        for p in below[i]:
            cand &= -(img[p] << 1)
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
        if refs is not None:
            failed.setdefault(i, set()).add(state)
        return False

    return img if extend(0, 0) else None


def _allowed(plan: _Plan, host: _Host, through) -> list[int]:
    """Per position of ``plan``, the host vertices of at least its degree;
    with an edge ``through``, only its vertices for the first r positions,
    the anchor's."""
    allowed = [host.deg_masks[d] for d in plan.degrees]
    if through is not None:
        inside = 0
        for v in through:
            inside |= 1 << v
        for i in range(len(through)):
            allowed[i] &= inside
    return allowed


@functools.lru_cache(maxsize=256)
def _anchor_plans(r: int, n: int, edges: tuple) -> tuple:
    """One anchored ``_plan`` per orbit of the pattern's edges under its
    automorphism group, anchored at the orbit's first edge in ``edges``.

    The orbits come from ``_search``, as the plans' conditions do: an edge
    b lies in the orbit of a representative a when the pattern embeds into
    itself along a's plan with the anchor mapped onto b, since an
    edge-preserving injection of a pattern into itself is an automorphism.
    The plan's conditions keep such an embedding when one exists: the
    embeddings that map a onto b are a union of classes under a's
    stabilizer (see ``_plan``)."""
    pattern = _Host(n, r, edges)
    plans: list[_Plan] = []
    for b in edges:
        if all(_search(plan, pattern.completions, _allowed(plan, pattern, b)) is None
               for plan in plans):
            plans.append(_plan(r, n, edges, b))
    return tuple(plans)


def _contains_edges(host: _Host, pattern: Hypergraph, through=None, pin=None):
    """Backtracking embedding search of pattern into ``host``: ``_search``
    following the pattern's cached ``_plan``, with each position allowed
    the host vertices of at least its degree.  The host is read, never
    changed, so a search can keep one up to date edge by edge and call
    this at every node without a rebuild.  Returns the raw image, the host
    vertex bit of each position of the plan that found it, or None;
    :func:`contains` turns a whole-host image into an ``EmbeddingMap``,
    and every other caller only asks whether there is one.

    The witness is the first embedding in pattern order and increasing
    host id.  The plan's symmetry-breaking conditions keep one embedding
    per automorphism class of the pattern, the lex-least one among them
    included (the ``_plan`` docstring has the argument), so they change
    neither that witness nor a miss; they only spare the search the
    repeats of a failing partial map under the pattern's automorphisms.
    Nor does the memo at the boundaries of a disconnected pattern (see
    ``_search``), which spares it the repeats of a failing search for the
    later components.

    With ``through``, an edge of ``host``, the search looks only for the
    copies that map some pattern edge onto it, and returns one or None: it
    follows each plan of :func:`_anchor_plans` with the anchor's positions
    allowed only the edge's vertices.  A copy maps some edge a' onto
    ``through``, a' = s(a) for an automorphism s and a representative a,
    and then the copy composed with s maps a onto it; so one plan per
    orbit finds every copy there is.  Which copy it returns is not fixed
    beyond that.  On a host that was pattern-free before ``through`` was
    added, this is a hit exactly when the whole-host search is.

    With ``pin``, a dict from pattern vertices to host vertices, the search
    looks only for the embeddings that map each pinned vertex to its host
    vertex.  It follows :func:`_free_plan` with the pinned vertices first,
    built for this call and cached nowhere, so a one-off pattern (a graph
    ``canonical_form`` embeds into itself) evicts no plan from ``_plan``'s
    cache.  The conditions of ``_plan`` would be wrong here: they keep one
    embedding per class f, f o s, which is sound only when the allowed
    sets are unions of such classes, and pinning a vertex that some
    automorphism moves breaks that."""
    if pattern.n > host.n:
        return None
    if pin is not None:
        plan = _free_plan(pattern, tuple(pin))
        allowed = _allowed(plan, host, None)
        for i, v in enumerate(plan.order[:len(pin)]):
            allowed[i] &= 1 << pin[v]
        return _search(plan, host.completions, allowed)
    if through is None:
        plans = (_plan(pattern.r, pattern.n, pattern.edges),)
    else:
        plans = _anchor_plans(pattern.r, pattern.n, pattern.edges)
    for plan in plans:
        img = _search(plan, host.completions, _allowed(plan, host, through))
        if img is not None:
            return img
    return None


def contains(g: Hypergraph, pattern: Hypergraph):
    """A witness embedding of the pattern into g, or None.  The search
    (``_contains_edges``) follows the pattern's compiled plan, placing
    pattern vertices most-constrained first, and filters host vertices
    through completion masks, trying them in increasing id, so the
    witness is the first embedding in that order.  Of each class of
    embeddings that differ by an automorphism of the pattern, the search
    visits only one, which for the first witness is that witness itself
    (see ``_plan``), so misses cost one search per class.  For a
    disconnected pattern the search remembers each failed search for its
    later components by the host vertices the earlier ones use (and the
    images the order constraints read), and does not repeat it: a
    subtree that failed once fails again, so witnesses and misses are
    those of the search without the memo.  The host is built once per
    call; searches keep theirs across nodes."""
    if g.r != pattern.r:
        raise ValueError(f"uniformity mismatch: host r={g.r}, pattern r={pattern.r}")
    img = _contains_edges(_Host(g.n, g.r, g.edges), pattern)
    if img is None:
        return None
    order = _plan(pattern.r, pattern.n, pattern.edges).order
    return EmbeddingMap(tuple(sorted((p, b.bit_length() - 1) for p, b in zip(order, img))))


def is_free(g: Hypergraph, pattern: Hypergraph) -> bool:
    return contains(g, pattern) is None


# ---------------------------------------------------------------------------
# linear paths, grown from a new edge


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


_K8_FLOOR = closed_form(complete(8)).value - 0.005


def left_compress_loop(g: Hypergraph, t: int,
                       config: OptimizerConfig = DEFAULT_CONFIG) -> Hypergraph:
    """Rewrite a path-free 3-graph into a dense, left-compressed, path-free
    one of no smaller Lagrangian.

    Each round takes a dense subgraph with the same optimum, relabels by
    descending optimum weight (ties broken by current id), and applies one
    compression toward a smaller index; compression preserves path-freeness
    on the inputs this loop accepts.  For t=4 the input must have optimum
    at least the near-complete threshold ``_K8_FLOOR``, the
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
    path = linear_path(t)
    if contains(g, path) is not None:
        raise ValueError(f"input contains a linear path of length {t}")
    if t == 4 and maximize(g, config).value < _K8_FLOOR - 1e-9:
        raise ValueError(
            f"optimum below the required floor {_K8_FLOOR:.6f} for t=4 rewriting")
    cur = g
    rounds = 0
    cap = 60 + 12 * comb(max(g.n, 3), 3)
    while True:
        rounds += 1
        if rounds > cap:
            raise RuntimeError("left_compress_loop failed to terminate within the round cap")
        cur, opt = densify(cur, config)
        ws = opt.weighting.weights
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
        if contains(cur, path) is not None:
            raise RuntimeError(
                f"compression {moved} created a length-{t} path; loop preconditions violated")
