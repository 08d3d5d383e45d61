"""Exhaustive and pruned searches.

The workhorse is a resumable binary DFS over r-subsets of [n] in colex
order.  In down-set mode an element may be included only when all of its
lower covers under componentwise dominance are already included, which
enumerates exactly the left-compressed graphs; in full mode every subset
is reachable.  Subtrees are cut by monotone prunes (a configuration, once
present, stays present in every superset) and, for the Turan search, by
the counting bound.

The DFS decision list is the whole search state: include is always tried
before exclude, so a token list reconstructs the frontier exactly.  That
is what checkpoints serialize; resuming replays the tokens and produces
bit-identical final results.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb

from .freeness import _contains_edges, creates_linear_path
from .hgio import to_json_obj
from .hypergraph import Hypergraph, complete, covers_pairs, induced, linear_path, named, new
from .lagrangian import DEFAULT_CONFIG, OptimizerConfig, maximize

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def colex_ground(n: int, r: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(1, n + 1), r), key=lambda e: tuple(reversed(e)))


def lower_covers(e: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Immediate predecessors under componentwise dominance: lower one
    coordinate by one where the result stays strictly increasing."""
    out = []
    for k in range(len(e)):
        c = e[k] - 1
        if c >= 1 and (k == 0 or c > e[k - 1]):
            out.append(e[:k] + (c,) + e[k + 1:])
    return out


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    pruned: int = 0
    bound_cuts: int = 0

    def to_json(self) -> dict:
        return {"nodes": self.nodes, "leaves": self.leaves,
                "pruned": self.pruned, "bound_cuts": self.bound_cuts}


class _ColexDFS:
    """Binary DFS over a colex-ordered ground set with optional down-set
    constraint.  Subclasses override the hooks; the decision token list is
    the resumable state."""

    def __init__(self, n: int, r: int, downset: bool):
        self.n = n
        self.r = r
        self.downset = downset
        self.ground = colex_ground(n, r)
        self.M = len(self.ground)
        index = {e: i for i, e in enumerate(self.ground)}
        self.cover_idx = [[index[c] for c in lower_covers(e)] for e in self.ground]
        self.masks = []
        for e in self.ground:
            m = 0
            for v in e:
                m |= 1 << v
            self.masks.append(m)
        self.decisions: list[int] = []
        self.included: list[int] = []           # ground indices, ascending
        self.included_set: set[int] = set()
        self.stats = SearchStats()
        self.floor = 0

    # hooks -----------------------------------------------------------
    def include_accept(self, k: int) -> bool:
        return True

    def bound_cut(self, depth: int) -> bool:
        return False

    def on_leaf(self) -> None:
        pass

    # engine ----------------------------------------------------------
    def _include_allowed(self, k: int) -> bool:
        if not self.downset:
            return True
        return all(c in self.included_set for c in self.cover_idx[k])

    def _apply_include(self, k: int) -> None:
        self.included.append(k)
        self.included_set.add(k)

    def _undo_include(self, k: int) -> None:
        self.included.pop()
        self.included_set.discard(k)

    def _backtrack(self) -> bool:
        while len(self.decisions) > self.floor and self.decisions[-1] == 0:
            self.decisions.pop()
        if len(self.decisions) <= self.floor:
            return False
        d = len(self.decisions) - 1
        self._undo_include(d)
        self.decisions[-1] = 0
        return True

    def replay(self, tokens: list[int]) -> None:
        self.decisions = []
        self.included = []
        self.included_set = set()
        for d, tok in enumerate(tokens):
            if tok == 1:
                self._apply_include(d)
            self.decisions.append(tok)

    def run(self, max_nodes: int | None = None, max_seconds: float | None = None) -> bool:
        """Drive the DFS to completion; False means a budget stopped it."""
        deadline = time.monotonic() + max_seconds if max_seconds else None
        budget = max_nodes
        while True:
            if budget is not None and self.stats.nodes >= budget:
                return False
            if deadline is not None and self.stats.nodes % 256 == 0 and time.monotonic() > deadline:
                return False
            d = len(self.decisions)
            if d == self.M:
                self.stats.leaves += 1
                self.on_leaf()
                if not self._backtrack():
                    return True
                continue
            if self.bound_cut(d):
                self.stats.bound_cuts += 1
                if not self._backtrack():
                    return True
                continue
            self.stats.nodes += 1
            if self._include_allowed(d):
                if self.include_accept(d):
                    self.decisions.append(1)
                    self._apply_include(d)
                    continue
                self.stats.pruned += 1
            self.decisions.append(0)

    # conveniences for subclasses --------------------------------------
    def included_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.ground[i] for i in self.included))

    def included_masks(self) -> list[int]:
        return [self.masks[i] for i in self.included]


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


def enumerate_left_compressed(n: int, r: int, prune=None, visit=None,
                              max_nodes: int | None = None,
                              max_seconds: float | None = None) -> SearchStats:
    """Visit every down-set of the dominance order on r-subsets of [n]
    exactly once (these are exactly the left-compressed graphs).

    ``prune(edges, candidate)`` may return True to cut the subtree rooted
    at including ``candidate``; sound whenever the rejected property is
    inherited by supersets.  ``visit(edges)`` runs once per enumerated
    down-set.
    """
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    dfs = _CallbackDFS(n, r, True, prune, visit)
    dfs.run(max_nodes, max_seconds)
    return dfs.stats


def enumerate_all(n: int, r: int, filter=None, visit=None, up_to_iso: bool = False,
                  max_bits: int = 24) -> SearchStats:
    """Iterate all 2^C(n,r) edge subsets (capped), optionally restricted
    to a filter and reduced modulo isomorphism by the minimum-image
    canonical form."""
    M = comb(n, r)
    if M > max_bits:
        raise ValueError(f"ground set of {M} edges exceeds the cap of {max_bits} bits")
    if up_to_iso and n > 7:
        raise ValueError("isomorphism reduction is limited to n <= 7")
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
        if filter is not None and not filter(edges):
            continue
        stats.nodes += 1
        if up_to_iso:
            g = Hypergraph(r, n, edges)
            if canonical_form(g).edges != edges:
                continue
        if visit is not None:
            visit(edges)
    return stats


def canonical_form(g: Hypergraph) -> Hypergraph:
    """Minimum lexicographic edge list over all vertex permutations."""
    if g.n > 7:
        raise ValueError("canonical form by full permutation search is limited to n <= 7")
    best = None
    ids = list(range(1, g.n + 1))
    for perm in itertools.permutations(ids):
        mapping = {old: newv for old, newv in zip(ids, perm)}
        edges = tuple(sorted(tuple(sorted(mapping[v] for v in e)) for e in g.edges))
        if best is None or edges < best:
            best = edges
    return Hypergraph(g.r, g.n, best if best is not None else ())


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
    forbidden graph, over edges in colex order.  The bound is the current
    count plus all undecided edges; ties with the best are explored so all
    extremal witnesses are collected (canonical forms when n <= 7)."""

    kind = "turan"

    def __init__(self, n: int, forbidden, downset: bool = False):
        forbidden = tuple(forbidden)
        if not forbidden:
            raise ValueError("need at least one forbidden graph")
        r = forbidden[0].r
        for f in forbidden:
            if f.r != r:
                raise ValueError("forbidden graphs must share the uniformity")
            if not f.edges:
                raise ValueError("forbidden graphs must have at least one edge")
        super().__init__(n, r, downset)
        self.forbidden = forbidden
        self.best = -1
        self.witness_edges: set[tuple] = set()
        self.finished = False

    def space_descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n, "r": self.r,
                "forbidden": [to_json_obj(f) for f in self.forbidden]}

    def include_accept(self, k: int) -> bool:
        edges = self.included_edges() + (self.ground[k],)
        for f in self.forbidden:
            if _contains_edges(self.n, edges, f) is not None:
                return False
        return True

    def prefix_valid(self) -> bool:
        """Replayed include decisions bypass the incremental freeness check;
        a shard rooted at an already-forbidden prefix covers only subtrees
        the plain search prunes, and must be skipped whole."""
        edges = self.included_edges()
        return all(_contains_edges(self.n, edges, f) is None for f in self.forbidden)

    def bound_cut(self, depth: int) -> bool:
        return len(self.included) + (self.M - depth) < self.best

    def on_leaf(self) -> None:
        cnt = len(self.included)
        if cnt > self.best:
            self.best = cnt
            self.witness_edges = set()
        if cnt == self.best:
            g = Hypergraph(self.r, self.n, self.included_edges())
            if self.n <= 7:
                g = canonical_form(g)
            self.witness_edges.add(g.edges)

    # state -------------------------------------------------------------
    def to_state(self) -> dict:
        return {
            "decisions": list(self.decisions),
            "stats": self.stats.to_json(),
            "best": self.best,
            "witnesses": sorted([list(map(list, w)) for w in self.witness_edges]),
        }

    def load_state(self, state: dict) -> None:
        self.replay([int(t) for t in state["decisions"]])
        s = state["stats"]
        self.stats = SearchStats(s["nodes"], s["leaves"], s["pruned"], s["bound_cuts"])
        self.best = state["best"]
        self.witness_edges = {tuple(tuple(e) for e in w) for w in state["witnesses"]}

    def result(self) -> TuranResult:
        witnesses = tuple(Hypergraph(self.r, self.n, w) for w in sorted(self.witness_edges))
        status = "exact" if self.finished else "lower_bound"
        return TuranResult(self.n, self.forbidden, max(self.best, 0), witnesses, status, self.stats)

    def execute(self, max_nodes=None, max_seconds=None) -> TuranResult:
        self.finished = self.run(max_nodes, max_seconds)
        return self.result()


def _shard_prefixes(n: int, r: int, depth: int) -> list[list[int]]:
    """All structurally valid decision prefixes of the given depth (no
    pruning, so shards cover the whole space)."""
    base = _ColexDFS(n, r, False)
    depth = min(depth, base.M)
    prefixes: list[list[int]] = []

    def rec(d: int, toks: list[int]):
        if d == depth:
            prefixes.append(list(toks))
            return
        for tok in (1, 0):
            toks.append(tok)
            rec(d + 1, toks)
            toks.pop()

    rec(0, [])
    return prefixes


def turan_number(n: int, forbidden, max_nodes: int | None = None,
                 max_seconds: float | None = None, shards: int = 1,
                 threads: int = 1) -> TuranResult:
    """Exact maximum edge count of a graph on [n] avoiding every forbidden
    graph, with all extremal witnesses (canonical when n <= 7).  Budgets
    degrade the status to lower_bound, never silently truncate.

    ``shards > 1`` splits the space at a fixed depth into independent
    subtrees whose accumulators merge associatively, so sharded runs give
    results identical to a single run.
    """
    forbidden = tuple(forbidden)
    if shards <= 1:
        return TuranRun(n, forbidden).execute(max_nodes, max_seconds)
    depth = max(1, min((shards - 1).bit_length(), comb(n, forbidden[0].r)))
    prefixes = _shard_prefixes(n, forbidden[0].r, depth)

    def run_prefix(prefix):
        run = TuranRun(n, forbidden)
        run.replay(prefix)
        run.floor = len(prefix)
        if not run.prefix_valid():
            return True, run
        finished = run.run(max_nodes, max_seconds)
        return finished, run

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            outcomes = list(ex.map(run_prefix, prefixes))
    else:
        outcomes = [run_prefix(p) for p in prefixes]
    best = -1
    witnesses: set[tuple] = set()
    stats = SearchStats()
    all_finished = True
    for finished, run in outcomes:
        all_finished = all_finished and finished
        stats.nodes += run.stats.nodes
        stats.leaves += run.stats.leaves
        stats.pruned += run.stats.pruned
        stats.bound_cuts += run.stats.bound_cuts
        if run.best > best:
            best = run.best
            witnesses = set()
        if run.best == best:
            witnesses |= run.witness_edges
    out = tuple(Hypergraph(forbidden[0].r, n, w) for w in sorted(witnesses))
    status = "exact" if all_finished else "lower_bound"
    return TuranResult(n, forbidden, max(best, 0), out, status, stats)


# ---------------------------------------------------------------------------
# density evidence


def _pattern_graph(name: str) -> Hypergraph:
    if name in ("P2", "P3", "P4"):
        return linear_path(int(name[1]))
    if name == "T2":
        return named("T2")
    raise ValueError(f"density evidence supports P2, T2, P3, P4; got {name!r}")


def _creates_pattern(name: str, n: int):
    """Incremental test ``check(masks, new_mask)``: does adding the new
    edge create the pattern through it?  On fewer vertices than the
    pattern has, it never can."""
    if n < _pattern_graph(name).n:
        return lambda masks, new_mask: False
    if name in ("P3", "P4"):
        t = int(name[1])
        return lambda masks, new_mask: creates_linear_path(masks, new_mask, t)
    if name == "P2":
        return lambda masks, new_mask: any((m & new_mask).bit_count() == 1 for m in masks)
    if name == "T2":
        return lambda masks, new_mask: any((m & new_mask).bit_count() == 2 for m in masks)
    raise ValueError(name)


@dataclass(frozen=True)
class DensityReport:
    space: dict
    counts: dict
    max_lambda: float
    argmax_graph: Hypergraph | None
    max_lambda_complete_free: float
    argmax_complete_free: Hypergraph | None
    separations: dict
    status: str

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "counts": self.counts,
            "max_lambda": self.max_lambda,
            "argmax_graph": to_json_obj(self.argmax_graph) if self.argmax_graph else None,
            "max_lambda_complete_free": self.max_lambda_complete_free,
            "argmax_complete_free": (
                to_json_obj(self.argmax_complete_free) if self.argmax_complete_free else None),
            "separations": self.separations,
            "status": self.status,
        }


class DensityRun(_ColexDFS):
    """Enumerate the pattern-free graphs on [n] (left-compressed space or
    the full one), track the largest Lagrangian and the largest over
    graphs avoiding the reference clique.

    Subgraph monotonicity makes the maximum over a subset-closed family
    equal to the maximum over its maximal members, so by default only
    maximal survivors (within the family, and within its clique-free
    subfamily) are optimized; ``evaluate_every_survivor`` forces the
    exhaustive behaviour.  Survivors are optimized with a reduced-effort
    profile and the leading candidates are re-optimized at full strength.
    """

    kind = "density"

    def __init__(self, pattern: str, n: int, mode: str = "left_compressed",
                 config: OptimizerConfig = DEFAULT_CONFIG,
                 evaluate_every_survivor: bool = False,
                 require_covered_pairs: bool = True,
                 top: int = 32):
        if mode not in ("left_compressed", "all"):
            raise ValueError(f"mode must be left_compressed or all, got {mode!r}")
        pat = _pattern_graph(pattern)
        super().__init__(n, 3, mode == "left_compressed")
        self.pattern = pattern
        self.mode = mode
        self.config = config
        self.evaluate_every_survivor = evaluate_every_survivor
        self.require_covered_pairs = require_covered_pairs
        self.top = top
        self.clique_order = pat.n - 1
        self.clique = complete(self.clique_order, 3)
        self._creates = _creates_pattern(pattern, n)
        self.cand_plain: list[tuple[float, tuple]] = []
        self.cand_cfree: list[tuple[float, tuple]] = []
        self.evaluated = 0
        self.finished = False

    def space_descriptor(self) -> dict:
        return {"kind": self.kind, "pattern": self.pattern, "n": self.n,
                "mode": self.mode, "evaluate_every_survivor": self.evaluate_every_survivor}

    def include_accept(self, k: int) -> bool:
        return not self._creates(self.included_masks(), self.masks[k])

    def _push(self, heap: list, value: float, edges: tuple) -> None:
        heap.append((value, edges))
        heap.sort(key=lambda t: (-t[0], t[1]))
        del heap[self.top:]

    def _cheap_value(self, edges: tuple) -> float:
        self.evaluated += 1
        res = maximize(Hypergraph(3, self.n, edges), self.config.cheap())
        if self.require_covered_pairs:
            support_graph = induced(Hypergraph(3, self.n, edges), res.support)
            if support_graph.n and not covers_pairs(support_graph):
                return -1.0
        return res.value

    def on_leaf(self) -> None:
        edges = self.included_edges()
        masks = self.included_masks()
        has_clique = _contains_edges(self.n, edges, self.clique) is not None
        if self.evaluate_every_survivor:
            v = self._cheap_value(edges)
            self._push(self.cand_plain, v, edges)
            if not has_clique:
                self._push(self.cand_cfree, v, edges)
            return
        ext_plain = False
        ext_cfree = False
        for k in range(self.M):
            if k in self.included_set:
                continue
            if not self._include_allowed(k):
                continue
            if self._creates(masks, self.masks[k]):
                continue
            ext_plain = True
            if has_clique:
                break
            # no clique yet, so any clique in the extension contains ground[k]
            if _contains_edges(self.n, edges + (self.ground[k],), self.clique) is None:
                ext_cfree = True
                break
        value = None
        if not ext_plain:
            value = self._cheap_value(edges)
            self._push(self.cand_plain, value, edges)
        if not has_clique and not ext_cfree:
            if value is None:
                value = self._cheap_value(edges)
            self._push(self.cand_cfree, value, edges)

    # state ---------------------------------------------------------------
    def to_state(self) -> dict:
        return {
            "decisions": list(self.decisions),
            "stats": self.stats.to_json(),
            "evaluated": self.evaluated,
            "cand_plain": [[v, list(map(list, e))] for v, e in self.cand_plain],
            "cand_cfree": [[v, list(map(list, e))] for v, e in self.cand_cfree],
        }

    def load_state(self, state: dict) -> None:
        self.replay([int(t) for t in state["decisions"]])
        s = state["stats"]
        self.stats = SearchStats(s["nodes"], s["leaves"], s["pruned"], s["bound_cuts"])
        self.evaluated = state["evaluated"]
        self.cand_plain = [(v, tuple(tuple(x) for x in e)) for v, e in state["cand_plain"]]
        self.cand_cfree = [(v, tuple(tuple(x) for x in e)) for v, e in state["cand_cfree"]]

    def _recertify(self, heap):
        best_val = -1.0
        best_graph = None
        for _, edges in heap:
            g = Hypergraph(3, self.n, edges)
            res = maximize(g, self.config)
            if res.value > best_val:
                best_val = res.value
                best_graph = g
        if best_graph is not None and best_graph.n <= 7:
            best_graph = canonical_form(best_graph)
        return best_val, best_graph

    def result(self) -> DensityReport:
        val, argmax = self._recertify(self.cand_plain)
        cval, cargmax = self._recertify(self.cand_cfree)
        lam_complete = comb(self.clique_order, 3) / self.clique_order**3
        return DensityReport(
            space=self.space_descriptor(),
            counts={"nodes": self.stats.nodes, "survivors": self.stats.leaves,
                    "pruned": self.stats.pruned, "optimized": self.evaluated},
            max_lambda=val,
            argmax_graph=argmax,
            max_lambda_complete_free=cval,
            argmax_complete_free=cargmax,
            separations={
                "clique_order": self.clique_order,
                "lambda_complete": lam_complete,
                "epsilon_observed": lam_complete - cval if cval >= 0 else None,
            },
            status="exact" if self.finished else "partial",
        )

    def execute(self, max_nodes=None, max_seconds=None) -> DensityReport:
        self.finished = self.run(max_nodes, max_seconds)
        return self.result()


def density_evidence(pattern: str, n: int, mode: str = "left_compressed",
                     config: OptimizerConfig = DEFAULT_CONFIG,
                     max_nodes: int | None = None, max_seconds: float | None = None,
                     evaluate_every_survivor: bool = False) -> DensityReport:
    """Enumerate pattern-free graphs on [n], report the maximum Lagrangian
    found, its witness, and the separation of clique-free survivors from
    the complete reference value.  Budget overruns flag the report as
    partial instead of truncating silently."""
    run = DensityRun(pattern, n, mode, config, evaluate_every_survivor)
    return run.execute(max_nodes, max_seconds)


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
    os.replace(tmp, path)


def checkpoint_resume(path, expect_space: dict | None = None):
    """Rebuild a paused run from a checkpoint file.  Raises
    CheckpointError on version or search-space mismatch."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload.get('version')!r} != {CHECKPOINT_VERSION}")
    space = payload["space"]
    if expect_space is not None:
        for key, val in expect_space.items():
            if space.get(key) != val:
                raise CheckpointError(
                    f"checkpoint space mismatch on {key!r}: {space.get(key)!r} != {val!r}")
    if space["kind"] == "turan":
        forbidden = [new(f["r"], f["n"], [tuple(e) for e in f["edges"]])
                     for f in space["forbidden"]]
        run = TuranRun(space["n"], forbidden)
    elif space["kind"] == "density":
        run = DensityRun(space["pattern"], space["n"], space["mode"],
                         evaluate_every_survivor=space["evaluate_every_survivor"])
    else:
        raise CheckpointError(f"unknown checkpoint kind {space.get('kind')!r}")
    run.load_state(payload["state"])
    return run
