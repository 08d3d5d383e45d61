"""Exhaustive and pruned searches.

The workhorse is a resumable binary DFS over r-subsets of [n] in colex
order.  In down-set mode an element may be included only when all of its
lower covers under componentwise dominance are already included, which
enumerates exactly the left-compressed graphs; in full mode every subset
is reachable.  Subtrees are cut by three rules, each counted apart in
:class:`SearchStats`:

- ``pruned``: monotone prunes.  A forbidden configuration, once present,
  stays present in every superset, so an include that creates one cuts
  only graphs that contain it.
- ``bound_cuts``: for the Turan search, the counting bound.  A node whose
  included edges plus all undecided ones fall short of the best count so
  far has no leaf that reaches it.
- ``symmetry_cuts``: in full mode only, the lex-leader cut (Crawford,
  Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search
  problems", KR 1996; see :class:`_ColexDFS`).  An include is refused
  when the decided prefix with it is lex-smaller than its image under an
  adjacent transposition of vertices.  The lex-largest labelled copy of
  each graph is at least its image under every relabelling, so no prefix
  of it is ever cut.

Together the rules keep every isomorphism class.  Take a graph G that
the search without the symmetry cut reaches as a leaf and reports (an
extremal Turan witness, a maximal density survivor), and its lex-largest
labelled copy x*.  The edges every prefix of x* includes form a subgraph
of x*, a copy of G, so they hold no configuration G avoids and no
monotone prune fires; its included and undecided edges number at least
e(G), which is at least the best count, so the bound does not fire; and
the symmetry cut spares it.  So x* is reached as a leaf.  The leaf tests
(freeness, maximality, the Lagrangian) do not depend on the labelling, so
a finished run has the values, statuses and canonical witness classes of
the uncut search; only the counts differ.

Down-set density runs also skip tests, without cutting anything: by the
restriction lemma (see :class:`DensityRun`) a down-set contains a pattern
H exactly when its part inside [v(H)] does, so no position past the
r-sets of [v(H)] is tested for H, and the reference clique is read off
the included positions.  A skipped test is one that would have accepted,
so no count changes.

The DFS decision list is the whole search state: include is always tried
before exclude, so a token list reconstructs the frontier exactly.  That
is what checkpoints serialize, with the counts and the graphs a run has
found (Turan witnesses, density running bests) and nothing a run can
recompute from them; resuming replays each stored graph and then the
tokens through the run's own tests and produces bit-identical final
results.  Everything else the DFS keeps across nodes (the included edges,
the counts of missing lower covers and the host the matcher searches) is
derived from the included edges, updated on each include and undo, and
rebuilt by :meth:`_ColexDFS.replay`.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from math import comb

from .freeness import _contains_edges, _Host, creates_linear_path
from .hgio import to_json_obj
from .hypergraph import (
    Hypergraph,
    complete,
    equivalence_classes,
    linear_path,
    lower_covers,
    named,
    new,
)
from .lagrangian import DEFAULT_CONFIG, OptimizerConfig, closed_form, maximize, upper_bound

CHECKPOINT_VERSION = 8
# the patterns a density run supports, by canonical name
_DENSITY_PATTERNS = ("P2", "T2", "P3", "P4")
# enumerate_all walks 2^C(n, r) edge sets; past this many r-sets it refuses
_ENUMERATE_ALL_MAX_BITS = 24


class CheckpointError(ValueError):
    pass


def colex_ground(n: int, r: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(1, n + 1), r), key=lambda e: tuple(reversed(e)))


def adjacent_swaps(n: int, ground: list[tuple[int, ...]]) -> list[tuple[tuple[int, int], ...]]:
    """For each adjacent transposition (i i+1) of [n], i = 1..n-1, the
    permutation it induces on the indices of ``ground``, given by its
    2-cycles (a, b), a < b, in ascending order of a.  The permutation is an
    involution, and its fixed points (r-sets holding both of i, i+1 or
    neither) always match their image, so these pairs are all that a lex
    comparison with the image needs."""
    index = {e: k for k, e in enumerate(ground)}
    out = []
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        pairs = []
        for a, e in enumerate(ground):
            b = index[tuple(sorted(swap.get(v, v) for v in e))]
            if a < b:
                pairs.append((a, b))
        out.append(tuple(pairs))
    return out


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    pruned: int = 0
    bound_cuts: int = 0
    symmetry_cuts: int = 0

    def to_json(self) -> dict:
        return asdict(self)


class _ColexDFS:
    """Binary DFS over a colex-ordered ground set with optional down-set
    constraint.  Subclasses override the hooks and add their accumulators
    to the state through ``super()``; the decision token list and the
    stats are the resumable state of the engine itself.

    The engine also keeps state derived from the included edges, updated
    by :meth:`_apply_include` and :meth:`_undo_include` and rebuilt from
    the tokens by :meth:`replay`, so a checkpoint never stores it:

    - ``included``: the included ground indices in ascending order;
    - ``missing`` (down-set mode only, else None): per position, how many
      of its lower covers are not included, so the down-set test is
      ``missing[k] == 0``;
    - ``host``: the included edges as the
      :class:`~hyperlag.freeness._Host` that the matcher searches, its
      ``masks`` in the order of ``included``.  :meth:`_creates` adds a
      candidate edge to it around a matcher test.

    In down-set mode a position with a lower cover missing is a forced
    exclude, and a run of them is taken in one step: every position is
    still counted as a node, and the run stops at a ``max_nodes`` budget
    exactly where the node-by-node walk would.  ``bound_cut`` is asked
    where the run starts, not inside it.  Every include token sits at an
    included index, so a backtrack jumps straight to ``included[-1]``.

    In full mode the include at depth d is tried only when the decision
    vector x[0..d] with x[d] = 1 is not lex-smaller than its image under
    any adjacent transposition (i i+1) of the vertices (see
    :meth:`_lex_smaller`).  Soundness:

    - Relabelling a graph by a vertex permutation s permutes its indicator
      vector: the image of x is x o p, where p is the permutation s
      induces on ground indices.  The lex-largest labelled copy x* of a
      graph satisfies x* >= x* o p for every s.  For an involution p the
      first position where x and x o p differ is the smaller end a of a
      2-cycle (a, b), so comparing the pairs in ascending order of a finds
      it.  A prefix of x* scans an initial run of those pairs, so it either
      finds no difference or the first one, where x*[a] > x*[b].  No
      prefix of x* is cut.  The other cuts keep x* as well (see the module
      docstring).
    - Only includes are tested.  An adjacent transposition maps an r-set
      holding i but not i+1 to the one with i+1 in its place, and this map
      keeps the colex order of the r-sets it applies to, so the pairs
      (a, b) of :func:`adjacent_swaps` have b increasing in a.  Take a
      prefix P of length d that is not cut.  For each transposition, the
      comparison of P with its image either ended on a win, which every
      extension keeps, or stopped undecided at a pair (a, b) with b >= d.
      If b > d, appending x[d] changes nothing.  If b = d, appending
      x[d] = 0 compares x[a] with 0, a win or a tie, and the next pair has
      b > d.  So an exclude never makes a prefix lex-smaller, and every
      prefix the search reaches passes the test.

    In down-set mode the test is not made at all: a transposition need not
    keep a graph left-compressed, so its lex-largest copy may lie outside
    the space.
    """

    def __init__(self, n: int, r: int, downset: bool):
        if n < 0:
            raise ValueError(f"n must be nonnegative, got n={n}")
        self.n = n
        self.r = r
        self.downset = downset
        self.ground = colex_ground(n, r)
        self.M = len(self.ground)
        index = {e: i for i, e in enumerate(self.ground)}
        self.cover_idx = [[index[c] for c in lower_covers(e)] for e in self.ground]
        self.upper_idx: list[list[int]] = [[] for _ in self.ground]
        for k, covers in enumerate(self.cover_idx):
            for c in covers:
                self.upper_idx[c].append(k)
        self.masks = [sum(1 << v for v in e) for e in self.ground]
        self.swaps = [] if downset else adjacent_swaps(n, self.ground)
        self.stats = SearchStats()
        self.finished = False
        self.replay([])

    # hooks -----------------------------------------------------------
    def include_accept(self, k: int) -> bool:
        return True

    def bound_cut(self, depth: int) -> bool:
        return False

    def on_leaf(self) -> None:
        pass

    # engine ----------------------------------------------------------
    def _lex_smaller(self, x: list[int]) -> bool:
        """Is the decided prefix ``x`` lex-smaller than its image under some
        adjacent transposition?  For each transposition the pairs (a, b) are
        scanned in order; the scan stops undecided at the first pair that
        reaches past the prefix, and decided at the first pair where x and
        its image differ."""
        d = len(x)
        for pairs in self.swaps:
            for a, b in pairs:
                if b >= d:
                    break
                if x[a] != x[b]:
                    if x[a] < x[b]:
                        return True
                    break
        return False

    def _lex_allowed(self, k: int) -> bool:
        """Full-mode include test at depth k: the lex-leader cut."""
        x = self.decisions
        x.append(1)
        smaller = self._lex_smaller(x)
        x.pop()
        if smaller:
            self.stats.symmetry_cuts += 1
        return not smaller

    def _creates(self, k: int, patterns) -> bool:
        """Does including ground edge k give the host a copy of one of
        ``patterns``?  The edge is added, the matcher run anchored at it
        and the edge taken back.

        Precondition: the host is free of every one of ``patterns`` before
        the add, so a copy in the host with the edge must use the edge, and
        the anchored search, which finds exactly the copies through it, is
        a hit exactly when the whole-host search would be.  Every caller
        keeps it: a Turan or density include test asks about a host whose
        every edge passed the same test, and the full-mode clique test at
        a leaf runs only once the leaf was found free of the clique."""
        e = self.ground[k]
        self.host.add(e)
        try:
            return any(_contains_edges(self.host, p, through=e) is not None for p in patterns)
        finally:
            self.host.remove(e)

    def _apply_include(self, k: int) -> None:
        self.included.append(k)
        if self.missing is not None:
            for u in self.upper_idx[k]:
                self.missing[u] -= 1
        self.host.add(self.ground[k])

    def _undo_include(self, k: int) -> None:
        self.included.pop()
        if self.missing is not None:
            for u in self.upper_idx[k]:
                self.missing[u] += 1
        self.host.remove(self.ground[k])

    def _backtrack(self) -> bool:
        """Turn the last include into an exclude, dropping the tokens after
        it; False when no include is left, so the search is over."""
        if not self.included:
            return False
        d = self.included[-1]
        del self.decisions[d + 1:]
        self._undo_include(d)
        self.decisions[d] = 0
        return True

    def replay(self, tokens: list[int]) -> None:
        """Set the decision list to ``tokens`` and rebuild the derived state.

        Each include is made only where the run could have made it: with
        every lower cover included (down-set mode) and ``include_accept``
        passing on the edges included before it.  By induction the host
        is then free of the run's patterns before every include test, as
        :meth:`_creates` requires.  An include the run would have refused
        raises :class:`CheckpointError`."""
        self.decisions = []
        self.included: list[int] = []           # ground indices, ascending
        self.missing = [len(c) for c in self.cover_idx] if self.downset else None
        self.host = _Host(self.n, self.r)
        for d, tok in enumerate(tokens):
            if tok == 1:
                e = self.ground[d]
                if self.missing is not None and self.missing[d]:
                    raise CheckpointError(f"checkpoint includes {e} without all its lower covers")
                if not self.include_accept(d):
                    raise CheckpointError(f"checkpoint includes {e}, which the include test refuses")
                self._apply_include(d)
            self.decisions.append(tok)

    def _replay_graph(self, edges: list) -> Hypergraph:
        """Check a graph a checkpoint stores with the run's own tests: the
        :class:`~hyperlag.hypergraph.Hypergraph` constructor that ``edges``
        are sorted distinct r-sets of [n], then :meth:`replay` of their
        indicator vector that the run could have included each one.  Leaves
        the derived state that of the graph, so a caller replays its own
        decisions last."""
        try:
            g = Hypergraph(self.r, self.n, tuple(map(tuple, edges)))
        except ValueError as exc:
            raise CheckpointError(f"checkpoint graph does not fit the run: {exc}") from exc
        stored = g.edge_set()
        self.replay([int(e in stored) for e in self.ground])
        return g

    def run(self, max_nodes: int | None = None, max_seconds: float | None = None) -> bool:
        """Drive the DFS to completion; False means a budget stopped it.
        The deadline is read each time another 256 nodes are counted."""
        deadline = time.monotonic() + max_seconds if max_seconds is not None else None
        budget = max_nodes
        stats = self.stats
        decisions = self.decisions
        missing = self.missing
        M = self.M
        next_clock = stats.nodes
        while True:
            if budget is not None and stats.nodes >= budget:
                return False
            if deadline is not None and stats.nodes >= next_clock:
                if time.monotonic() >= deadline:
                    return False
                next_clock = stats.nodes + 256
            d = len(decisions)
            if d == M:
                stats.leaves += 1
                self.on_leaf()
                if not self._backtrack():
                    return True
                continue
            if self.bound_cut(d):
                stats.bound_cuts += 1
                if not self._backtrack():
                    return True
                continue
            if missing is not None and missing[d]:
                # a run of forced excludes, cut short at the node budget
                stop = M if budget is None else min(M, d + budget - stats.nodes)
                j = d + 1
                while j < stop and missing[j]:
                    j += 1
                stats.nodes += j - d
                decisions.extend(itertools.repeat(0, j - d))
                continue
            stats.nodes += 1
            # chosen by mode, so down-set runs make no lex test
            if missing is not None or self._lex_allowed(d):
                if self.include_accept(d):
                    decisions.append(1)
                    self._apply_include(d)
                    continue
                stats.pruned += 1
            decisions.append(0)

    def execute(self, max_nodes=None, max_seconds=None):
        """Run until done or a budget stops it, then return the subclass's
        ``result()``, which reads ``finished``."""
        self.finished = self.run(max_nodes, max_seconds)
        return self.result()

    # state -------------------------------------------------------------
    def to_state(self) -> dict:
        return {"decisions": list(self.decisions), "stats": self.stats.to_json()}

    def load_state(self, state: dict) -> None:
        self.replay([int(t) for t in state["decisions"]])
        self.stats = SearchStats(**state["stats"])

    # conveniences for subclasses --------------------------------------
    def included_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.ground[i] for i in self.included))


# ---------------------------------------------------------------------------
# plain enumerations


class _CallbackDFS(_ColexDFS):
    def __init__(self, n, r, downset, prune, visit):
        super().__init__(n, r, downset)
        self._prune = prune
        self._visit = visit

    def include_accept(self, k: int) -> bool:
        if self._prune is None:
            return True
        return not self._prune(self.included_edges(), self.ground[k])

    def on_leaf(self) -> None:
        if self._visit is not None:
            self._visit(self.included_edges())


def enumerate_left_compressed(n: int, r: int, prune=None, visit=None) -> SearchStats:
    """Visit every down-set of the dominance order on r-subsets of [n]
    exactly once (these are exactly the left-compressed graphs), and
    return the search counts.  The enumeration always runs to the end.

    ``prune(edges, candidate)`` may return True to cut the subtree rooted
    at including ``candidate``; sound whenever the rejected property is
    inherited by supersets.  ``visit(edges)`` runs once per enumerated
    down-set.
    """
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    dfs = _CallbackDFS(n, r, True, prune, visit)
    dfs.run()
    return dfs.stats


def enumerate_all(n: int, r: int, visit=None) -> SearchStats:
    """Iterate all 2^C(n,r) edge subsets, for C(n,r) up to 24."""
    M = comb(n, r)
    if M > _ENUMERATE_ALL_MAX_BITS:
        raise ValueError(f"ground set of {M} edges exceeds the cap of {_ENUMERATE_ALL_MAX_BITS} bits")
    ground = colex_ground(n, r)
    stats = SearchStats()
    for bits in range(1 << M):
        stats.leaves += 1
        edges = []
        b = bits
        while b:
            low = b & -b
            edges.append(ground[low.bit_length() - 1])
            b ^= low
        edges = tuple(sorted(edges))
        stats.nodes += 1
        if visit is not None:
            visit(edges)
    return stats


def canonical_form(g: Hypergraph) -> Hypergraph:
    """Minimum lexicographic sorted edge list over all vertex labellings,
    for any n, found by a branch-and-bound labelling search (after McKay
    and Piperno, "Practical graph isomorphism, II", 2014) in place of
    trying all n! permutations.

    Soundness:

    - Sorted edge lists compare like indicator vectors.  Every labelling
      gives a list of the same length m.  Two such lists compare the way
      their edge sets compare at the lex-smallest r-set in which they
      differ: the list that holds that r-set is the smaller one.  So the
      canonical form is the labelling whose indicator vector over r-sets
      of labels, taken in lex order, is lex-largest.  Read as an integer
      with the first r-set as the most significant bit, it is the largest
      integer.
    - What this allows at each step.  Labels are given out as 1, 2, ...,
      k.  An r-set's value is fixed once all its labels are given out.
      Every r-set lex-before the first one not yet fixed, which is
      (1, ..., r-1, k+1) once k >= r-1 and (1, ..., r) before, is fixed,
      so every completion agrees on them.  So the vertex that gets label
      k+1 only needs to be tried among those that can make that r-set an
      edge, when any can: every other choice loses at it.  Two unlabelled
      vertices in one class of :func:`~hyperlag.hypergraph.equivalence_classes`
      lead to identical subtrees, because swapping them is an automorphism
      that fixes every labelled vertex.  So one vertex per class is tried.
    - The incumbent cut.  An edge of g whose labelled vertices hold the
      labels S (|S| < r) ends up as an r-set S + T, T a set of labels
      above k.  All of T exceeds all of S, so these r-sets come in the
      lex order of T.  Let c edges share S, and let the bound hold the
      r-sets of the edges already fixed and, for every S, the first c
      r-sets S + T.  Take a completion above the bound and the first
      r-set where the two differ: the completion holds it, the bound does
      not.  It is not fixed, so it is some S + T beyond the first c of
      its S, all of which come before it and so are held by the
      completion too: c + 1 edges with labels S, one too many.  So no
      completion is above the bound, and a node is cut when its bound is
      not above the best labelling found so far.  Ties are cut too, since
      a completion equal to the best gives the same form.
    - The automorphism cut.  A node's children are explored in
      descending order of bound, and a child x is skipped when an
      explored sibling y has the same bound and some automorphism s of g
      fixes every labelled vertex and maps y to x.  Composing with the
      inverse of s maps the labellings below y one to one onto those
      below x: it keeps labels 1..k on the labelled vertices, moves label
      k+1 from y to x, and, as s maps edges onto edges, keeps the set of
      labelled edges.  So the best labelling below x is the best below y,
      which the search has already taken into the best so far.  Such
      siblings always have equal bounds, since the bound reads only the
      label sets the edges hold, and s carries those of y's partial
      labelling onto x's.  So testing only siblings of equal bound loses
      no cut, and spares a graph whose equal-bound siblings are rare, an
      asymmetric one above all, the tests.  The test asks the matcher
      whether g embeds into itself with each labelled vertex pinned to
      itself and y pinned to x, since an edge-preserving injection of g
      into itself is an automorphism.  McKay and Piperno find their
      automorphisms at leaves of equal value instead, but the incumbent
      cut removes every node whose bound only ties the best, so a leaf
      equal to the best labelling is never reached and no two equal
      leaves ever show up.  On the 2-(6,3,2) design, vertex-transitive
      with singleton classes, the cut takes the search from 159 nodes to
      7 with 10 tests.

    There is no size cap.
    """
    r, n = g.r, g.n
    if not g.edges:
        return Hypergraph(r, n, ())
    sets = list(itertools.combinations(range(1, n + 1), r))
    bit = {s: 1 << (len(sets) - 1 - i) for i, s in enumerate(sets)}
    incident = {v: [] for v in g.vertices}
    for e in g.edges:
        for v in e:
            incident[v].append(e)
    cls = {v: c[0] for c in equivalence_classes(g).classes for v in c}
    part = dict.fromkeys(g.edges, ())
    best = _extend_labelling(g, bit, incident, cls, part, _Host(n, r, g.edges), [], 0)
    return Hypergraph(r, n, tuple(s for s in sets if best & bit[s]))


def _extend_labelling(g: Hypergraph, bit: dict, incident: dict, cls: dict, part: dict,
                      host: _Host, order: list, best: int) -> int:
    """Give out label k+1 (k = len(order)) in every way :func:`canonical_form`'s
    search allows below the node that gave labels 1..k to ``order``.
    ``part`` maps each edge to the labels its vertices hold so far, in
    ascending order; ``host`` is g in the matcher's form, for the
    automorphism tests.  Returns the larger of ``best`` and the indicator
    integer of the best completion."""
    k = len(order)
    if k == g.n:
        return _completion_bound(g, bit, part, k)
    free = [v for v in g.vertices if v not in order]
    head = tuple(range(1, min(k, g.r - 1) + 1))
    forced = [x for x in free if any(part[e] == head for e in incident[x])]
    children = []
    tried = set()
    for x in forced or free:
        if cls[x] not in tried:
            tried.add(cls[x])
            _give_label(incident[x], part, k + 1)
            children.append((_completion_bound(g, bit, part, k + 1), x))
            _take_label(incident[x], part)
    children.sort(reverse=True)
    explored = []
    for bound, x in children:
        if bound <= best:
            break
        if any(b == bound and _maps_to(g, host, order, y, x) for b, y in explored):
            continue
        explored.append((bound, x))
        _give_label(incident[x], part, k + 1)
        order.append(x)
        best = _extend_labelling(g, bit, incident, cls, part, host, order, best)
        order.pop()
        _take_label(incident[x], part)
    return best


def _maps_to(g: Hypergraph, host: _Host, order: list, y: int, x: int) -> bool:
    """Whether some automorphism of g fixes ``order`` pointwise and maps y
    to x: whether g embeds into itself (``host``) with those vertices
    pinned, since an edge-preserving injection of g into itself is an
    automorphism."""
    pin = {v: v for v in order}
    pin[y] = x
    return _contains_edges(host, g, pin=pin) is not None


def _give_label(edges, part: dict, label: int) -> None:
    for e in edges:
        part[e] += (label,)


def _take_label(edges, part: dict) -> None:
    for e in edges:
        part[e] = part[e][:-1]


def _completion_bound(g: Hypergraph, bit: dict, part: dict, k: int) -> int:
    """The bits of the edges whose labels are all given out plus, for each
    set S of labels that c other edges hold, the first c r-sets S + T with
    T drawn from the labels above k (see :func:`canonical_form`).  Once
    every label is given out, this is the labelling's indicator integer."""
    bound = 0
    shared: dict[tuple, int] = {}
    for s in part.values():
        if len(s) == g.r:
            bound |= bit[s]
        else:
            shared[s] = shared.get(s, 0) + 1
    above = range(k + 1, g.n + 1)
    for s, c in shared.items():
        for t in itertools.islice(itertools.combinations(above, g.r - len(s)), c):
            bound |= bit[s + t]
    return bound


def isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    if a.r != b.r or a.n != b.n or len(a.edges) != len(b.edges):
        return False
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Turan numbers


@dataclass(frozen=True)
class TuranResult:
    n: int
    forbidden: tuple[Hypergraph, ...]
    max_edges: int
    witnesses: tuple[Hypergraph, ...]
    status: str  # "exact" | "lower_bound"
    stats: SearchStats

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "forbidden": [to_json_obj(f) for f in self.forbidden],
            "max_edges": self.max_edges,
            "witnesses": [to_json_obj(w) for w in self.witnesses],
            "status": self.status,
            "stats": self.stats.to_json(),
        }


class TuranRun(_ColexDFS):
    """Branch and bound for the maximum edge count avoiding every
    forbidden graph, over every edge set on [n] in colex order.  The bound
    is the current count plus all undecided edges; ties with the best are
    explored so all extremal witnesses are collected, one canonical form
    per isomorphism class.  A leaf that ties the best keeps only its
    edges; they are canonicalized when the run reports them, in
    :meth:`result` and :meth:`to_state`, since a later rise of the best
    would drop them unread."""

    kind = "turan"

    def __init__(self, n: int, forbidden):
        forbidden = tuple(forbidden)
        if not forbidden:
            raise ValueError("need at least one forbidden graph")
        r = forbidden[0].r
        for f in forbidden:
            if f.r != r:
                raise ValueError("forbidden graphs must share the uniformity")
            if not f.edges:
                raise ValueError("forbidden graphs must have at least one edge")
        super().__init__(n, r, False)
        self.forbidden = forbidden
        self.best = -1
        # the edges of every leaf that ties the best so far, canonicalized
        # only when reported: a rise of the best drops them all
        self.ties: list[tuple] = []

    def space_descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n, "r": self.r,
                "forbidden": [to_json_obj(f) for f in self.forbidden]}

    def include_accept(self, k: int) -> bool:
        return not self._creates(k, self.forbidden)

    def bound_cut(self, depth: int) -> bool:
        return len(self.included) + (self.M - depth) < self.best

    def on_leaf(self) -> None:
        cnt = len(self.included)
        if cnt > self.best:
            self.best = cnt
            self.ties = []
        if cnt == self.best:
            self.ties.append(self.included_edges())

    def _witness_edges(self) -> list[tuple]:
        """The canonical forms' edges of the tying leaves, one per
        isomorphism class, in increasing order."""
        return sorted({canonical_form(Hypergraph(self.r, self.n, w)).edges for w in self.ties})

    # state -------------------------------------------------------------
    def to_state(self) -> dict:
        return {**super().to_state(),
                "witnesses": [list(map(list, w)) for w in self._witness_edges()]}

    def load_state(self, state: dict) -> None:
        """The best count is the witnesses' common size, -1 with none."""
        sizes = sorted({len(w) for w in state["witnesses"]})
        if len(sizes) > 1:
            raise CheckpointError(f"checkpoint witnesses have unequal sizes {sizes}")
        self.ties = [self._replay_graph(w).edges for w in state["witnesses"]]
        self.best = sizes[0] if sizes else -1
        super().load_state(state)

    def result(self) -> TuranResult:
        witnesses = tuple(Hypergraph(self.r, self.n, w) for w in self._witness_edges())
        status = "exact" if self.finished else "lower_bound"
        return TuranResult(self.n, self.forbidden, max(self.best, 0), witnesses, status, self.stats)


def turan_number(n: int, forbidden, max_nodes: int | None = None,
                 max_seconds: float | None = None, checkpoint=None) -> TuranResult:
    """Exact maximum edge count of a graph on [n] avoiding every forbidden
    graph, with one canonical witness per extremal isomorphism class.
    Budgets degrade the status to lower_bound, never silently truncate;
    ``checkpoint`` is as in :func:`_checkpointed`."""
    return _checkpointed(TuranRun(n, forbidden), max_nodes, max_seconds, checkpoint)


# ---------------------------------------------------------------------------
# density evidence


@dataclass(frozen=True)
class DensityReport:
    space: dict
    counts: dict
    max_lambda: float | None
    argmax_graph: Hypergraph | None
    max_lambda_complete_free: float | None
    argmax_complete_free: Hypergraph | None
    separations: dict
    status: str

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "counts": self.counts,
            "max_lambda": self.max_lambda,
            "argmax_graph": (
                None if self.argmax_graph is None else to_json_obj(self.argmax_graph)),
            "max_lambda_complete_free": self.max_lambda_complete_free,
            "argmax_complete_free": (
                None if self.argmax_complete_free is None
                else to_json_obj(self.argmax_complete_free)),
            "separations": self.separations,
            "status": self.status,
        }


class DensityRun(_ColexDFS):
    """Enumerate the pattern-free graphs on [n] (left-compressed space or
    the full one, where the lex-leader cut of :class:`_ColexDFS` still
    visits the lex-largest labelled copy of each), track the largest
    Lagrangian and the largest over graphs avoiding the reference clique.

    Subgraph monotonicity makes the maximum over a subset-closed family
    equal to the maximum over its maximal members, so only maximal
    survivors (within the family, and within its clique-free subfamily)
    are optimized, each once with ``config``.  A running best, value and
    edges, is kept for the family and for its clique-free part; on a tie
    the survivor found first stays.  The reported argmax graphs are their
    canonical forms.

    Before a survivor is optimized it is screened: when the bound of
    :func:`~hyperlag.lagrangian.upper_bound` proves it strictly below
    every running best it is offered to, it is counted as ``screened`` and
    not optimized, since its value could not have replaced either best.
    So screening changes no value, argmax graph or status, only the counts
    (``optimized`` + ``screened`` is the count without it).

    In down-set mode the pattern and clique tests look only inside
    [v(H)], by the restriction lemma (after Frankl, "The shifting
    technique in extremal set theory", 1987): a down-set G contains a
    graph H exactly when G restricted to [v(H)] does.  Proof: send the
    vertex set of a copy of H in G to [v(H)] by the order-preserving
    bijection.  Each edge goes to an r-set it dominates, which lies in G
    and inside [v(H)], so the image is a copy of H there.  In colex order
    the r-sets of [h] are exactly the first C(h, 3) positions, and every
    graph a test asks about is a down-set: the included edges with a
    position k whose lower covers are all included.  So:

    - The include test accepts every k >= C(v(H), 3) untested: G + k is
      H-free exactly when its part inside [v(H)], which is G's and so
      H-free, is.
    - The leaf scan tries those free positions first, and a path test
      below them grows the path in the included edges inside [v(H)]
      only, the first ``bisect_left(included, span)`` host masks.
    - The reference clique K_{v(H)-1} is read off the first
      C(v(H)-1, 3) positions: the graph has it when all of them are
      included, and a candidate k creates it when k is the one missing.

    Every skipped test is one the lemma proves would give the same
    answer, so no count changes.  Full mode tests every position on the
    whole host.
    """

    kind = "density"

    def __init__(self, pattern: str, n: int, mode: str = "left_compressed",
                 config: OptimizerConfig = DEFAULT_CONFIG):
        if mode not in ("left_compressed", "all"):
            raise ValueError(f"mode must be left_compressed or all, got {mode!r}")
        pat = named(pattern)
        name = next((s for s in _DENSITY_PATTERNS if named(s) == pat), None)
        if name is None:
            raise ValueError(f"density evidence supports {', '.join(_DENSITY_PATTERNS)}; "
                             f"got {pattern!r}")
        super().__init__(n, 3, mode == "left_compressed")
        self.pattern = name
        self.mode = mode
        self.config = config
        self.clique_order = pat.n - 1
        self.clique = complete(self.clique_order, 3)
        # the grower tests a linear path that fits on [n]; the matcher tests
        # anything else, and refuses a pattern too large for [n] at once
        t = len(pat.edges)
        self._path_length = t if pat == linear_path(t) and pat.n <= n else None
        self._pattern = pat
        # positions from _span on need no pattern test; in full mode none
        self._span = min(comb(pat.n, 3), self.M) if self.downset else self.M
        self._clique_span = comb(self.clique_order, 3)
        # (value, edges); edges is None until a survivor is optimized
        self.best_plain: tuple[float, tuple | None] = (-1.0, None)
        self.best_cfree: tuple[float, tuple | None] = (-1.0, None)
        self.evaluated = 0
        self.screened = 0

    def space_descriptor(self) -> dict:
        return {"kind": self.kind, "pattern": self.pattern, "n": self.n,
                "mode": self.mode, "config": asdict(self.config)}

    def include_accept(self, k: int) -> bool:
        if k >= self._span:
            return True
        if self._path_length is not None:
            inside = self.host.masks
            if self.included and self.included[-1] >= self._span:   # at a leaf only
                inside = inside[:bisect_left(self.included, self._span)]
            return not creates_linear_path(inside, self.masks[k], self._path_length)
        return not self._creates(k, (self._pattern,))

    def _screen(self, g: Hypergraph, plain: bool, cfree: bool) -> bool:
        """Does a proved bound place ``g`` strictly below every running best
        it is offered to?  Its ``maximize`` value could then replace none of
        them (see :func:`~hyperlag.lagrangian.upper_bound`)."""
        target = min(best[0] for best, offered in ((self.best_plain, plain),
                                                   (self.best_cfree, cfree)) if offered)
        return target > 0 and upper_bound(g, target) < target

    def _optimize(self, edges: tuple, plain: bool, cfree: bool) -> None:
        """Maximize one survivor and offer its value to the running bests
        it belongs to, unless it is screened out."""
        g = Hypergraph(3, self.n, edges)
        if self._screen(g, plain, cfree):
            self.screened += 1
            return
        self.evaluated += 1
        value = maximize(g, self.config).value
        if plain and value > self.best_plain[0]:
            self.best_plain = (value, edges)
        if cfree and value > self.best_cfree[0]:
            self.best_cfree = (value, edges)

    def on_leaf(self) -> None:
        if self.downset:
            # how many positions of the clique's r-sets are not included
            gap = self._clique_span - bisect_left(self.included, self._clique_span)
            has_clique = gap == 0
        else:
            has_clique = _contains_edges(self.host, self.clique) is not None
        decisions, missing = self.decisions, self.missing
        ext_plain = False
        ext_cfree = False
        # the positions that need no test first
        for k in itertools.chain(range(self._span, self.M), range(self._span)):
            if decisions[k] or (missing is not None and missing[k]) or not self.include_accept(k):
                continue
            ext_plain = True
            if has_clique:
                break
            # no clique yet, so any clique in the extension contains ground[k]
            if self.downset:
                ext_cfree = gap > 1 or k >= self._clique_span
            else:
                ext_cfree = not self._creates(k, (self.clique,))
            if ext_cfree:
                break
        cfree = not has_clique and not ext_cfree
        if not ext_plain or cfree:
            self._optimize(self.included_edges(), not ext_plain, cfree)

    # state ---------------------------------------------------------------
    def to_state(self) -> dict:
        def best(b):
            return None if b[1] is None else list(map(list, b[1]))

        return {**super().to_state(), "evaluated": self.evaluated, "screened": self.screened,
                "best_plain": best(self.best_plain), "best_cfree": best(self.best_cfree)}

    def _load_best(self, edges) -> tuple[float, tuple | None]:
        """A running best from its stored edges, replayed through the run's
        tests, with the value of the call :meth:`_optimize` made."""
        if edges is None:
            return (-1.0, None)
        g = self._replay_graph(edges)
        return (maximize(g, self.config).value, g.edges)

    def load_state(self, state: dict) -> None:
        self.best_cfree = self._load_best(state["best_cfree"])
        if self.best_cfree[1] is not None and _contains_edges(self.host, self.clique) is not None:
            raise CheckpointError(
                f"checkpoint best_cfree holds the reference clique K_{self.clique_order}")
        self.best_plain = self._load_best(state["best_plain"])
        self.evaluated = state["evaluated"]
        self.screened = state["screened"]
        super().load_state(state)

    def _argmax(self, best) -> Hypergraph | None:
        return None if best[1] is None else canonical_form(Hypergraph(3, self.n, best[1]))

    def result(self) -> DensityReport:
        # a family with no optimized survivor has no maximum to report
        val, cval = (None if best[1] is None else best[0]
                     for best in (self.best_plain, self.best_cfree))
        lam_complete = closed_form(self.clique).value
        return DensityReport(
            space=self.space_descriptor(),
            counts={"nodes": self.stats.nodes, "survivors": self.stats.leaves,
                    "pruned": self.stats.pruned, "symmetry_cuts": self.stats.symmetry_cuts,
                    "optimized": self.evaluated, "screened": self.screened},
            max_lambda=val,
            argmax_graph=self._argmax(self.best_plain),
            max_lambda_complete_free=cval,
            argmax_complete_free=self._argmax(self.best_cfree),
            separations={
                "clique_order": self.clique_order,
                "lambda_complete": lam_complete,
                "epsilon_observed": None if cval is None else lam_complete - cval,
            },
            status="exact" if self.finished else "partial",
        )


def density_evidence(pattern: str, n: int, mode: str = "left_compressed",
                     config: OptimizerConfig = DEFAULT_CONFIG,
                     max_nodes: int | None = None, max_seconds: float | None = None,
                     checkpoint=None) -> DensityReport:
    """Enumerate pattern-free graphs on [n], report the maximum Lagrangian
    found, its witness, and the separation of clique-free survivors from
    the complete reference value.  Budget overruns flag the report as
    partial instead of truncating silently; ``checkpoint`` is as in
    :func:`_checkpointed`."""
    return _checkpointed(DensityRun(pattern, n, mode, config), max_nodes, max_seconds, checkpoint)


def _checkpointed(run, max_nodes, max_seconds, checkpoint):
    """Execute ``run``.  With a ``checkpoint`` path, an existing file is
    resumed first (refused unless its space is exactly ``run``'s), so
    ``max_nodes`` counts the whole run's nodes, and a run a budget stops is
    saved there.  Without one no file is touched.  A budget of 0 stops the
    run at once; a negative one is refused."""
    for name, budget in (("max_nodes", max_nodes), ("max_seconds", max_seconds)):
        if budget is not None and not budget >= 0:
            raise ValueError(f"{name} must be nonnegative, got {budget}")
    if checkpoint is not None and os.path.exists(checkpoint):
        run = checkpoint_resume(checkpoint, expect_space=run.space_descriptor())
    result = run.execute(max_nodes, max_seconds)
    if checkpoint is not None and not run.finished:
        checkpoint_save(run, checkpoint)
    return result


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_save(run, path) -> None:
    """Serialize a paused run (Turan or density) atomically."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "space": run.space_descriptor(),
        "state": run.to_state(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _require_fields(what: str, got, want) -> None:
    want = sorted(want)
    got = sorted(got) if isinstance(got, dict) else f"a JSON {type(got).__name__}"
    if got != want:
        raise CheckpointError(f"checkpoint {what} {got} are not {want}")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _is_edges(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(e, list) and all(type(v) is int and v >= 1 for v in e) for e in x)


# the value each state field other than decisions and stats must hold, as
# checkpoint.schema.json states it; the graphs are then replayed on load
_STATE_VALUES = {
    "witnesses": lambda x: isinstance(x, list) and all(map(_is_edges, x)),
    "evaluated": _is_count, "screened": _is_count,
    **dict.fromkeys(("best_plain", "best_cfree"), lambda x: x is None or _is_edges(x)),
}


def checkpoint_resume(path, expect_space: dict | None = None):
    """Rebuild a paused run from a checkpoint file.  Raises
    CheckpointError on version, search-space or optimizer-settings mismatch;
    on a space that describes no run (a missing key, an unknown pattern or
    mode, a malformed forbidden graph) or is not exactly the space of the
    run it rebuilds (an unknown key, another ``r``); and on a state that
    does not hold exactly the fields of the run's kind, whose stats are not
    exactly the :class:`SearchStats` fields, whose values are not of the
    types ``checkpoint.schema.json`` gives them, or whose decisions are not
    0/1 tokens at most as many as the ground set has; and on a stored graph
    or decision list the run itself would refuse (see the ``load_state``
    methods)."""
    with open(path) as fh:
        payload = json.load(fh)
    _require_fields("parts", payload, ("version", "space", "state"))
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload['version']!r} != {CHECKPOINT_VERSION}")
    space = payload["space"]
    kind = space.get("kind") if isinstance(space, dict) else None
    if kind not in ("turan", "density"):
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    if expect_space is not None:
        for key, val in expect_space.items():
            if space.get(key) != val:
                raise CheckpointError(
                    f"checkpoint space mismatch on {key!r}: {space.get(key)!r} != {val!r}")
    if kind == "density":
        _require_fields("config settings", space.get("config"),
                        (f.name for f in fields(OptimizerConfig)))
    try:
        if kind == "turan":
            forbidden = [new(f["r"], f["n"], [tuple(e) for e in f["edges"]])
                         for f in space["forbidden"]]
            run = TuranRun(space["n"], forbidden)
        else:
            run = DensityRun(space["pattern"], space["n"], space["mode"],
                             OptimizerConfig(**space["config"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint space describes no run: {exc!r}") from exc
    if run.space_descriptor() != space:
        raise CheckpointError(
            f"checkpoint space {space!r} is not that of the run it rebuilds, "
            f"{run.space_descriptor()!r}")
    state = payload["state"]
    _require_fields("state fields", state, run.to_state())
    _require_fields("stats fields", state["stats"], (f.name for f in fields(SearchStats)))
    bad = [f"stats.{k}" for k, v in sorted(state["stats"].items()) if not _is_count(v)]
    bad += [k for k in run.to_state() if k in _STATE_VALUES and not _STATE_VALUES[k](state[k])]
    if bad:
        raise CheckpointError(f"checkpoint state values {bad} are malformed")
    decisions = state["decisions"]
    if (not isinstance(decisions, list) or len(decisions) > run.M
            or any(t not in (0, 1) for t in decisions)):
        raise CheckpointError(
            f"checkpoint decisions are not at most {run.M} tokens of 0 or 1")
    run.load_state(state)
    return run
