import itertools
import random
import sys
import types
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlag import freeness
from hyperlag.corpora import covers_pairs_path_free, random_hypergraph
from hyperlag.freeness import (
    EmbeddingMap,
    _contains_edges,
    _Host,
    _pattern_order,
    _plan,
    contains,
    contains_core,
    creates_linear_path,
    is_free,
    left_compress_loop,
)
from hyperlag.hypergraph import (
    Hypergraph,
    complete,
    complete_minus,
    compress,
    covers_pairs,
    is_left_compressed,
    linear_path,
    matching,
    named,
    new,
    relabel,
    turan_blowup,
)
from hyperlag.lagrangian import OptimizerConfig, is_dense, maximize
from hyperlag.search import enumerate_left_compressed

FAST_OPT = OptimizerConfig(restarts=16)


# ---------------------------------------------------------------------------
# generic containment


def test_contains_path_in_complete():
    w = contains(complete(7, 3), linear_path(3))
    assert w is not None and w.verify(linear_path(3), complete(7, 3))


def test_contains_needs_enough_vertices():
    assert contains(complete(6, 3), linear_path(3)) is None


def test_contains_identity_witness():
    w = contains(named("F5"), named("T2"))
    assert w is not None and w.as_dict() == {1: 1, 2: 2, 3: 3, 4: 4}


def test_contains_uniformity_mismatch():
    with pytest.raises(ValueError):
        contains(complete(4, 3), new(2, 3, [(1, 2)]))


def test_contains_invariant_under_relabeling():
    rnd = random.Random(11)
    for _ in range(30):
        g = random_hypergraph(rnd, 7)
        pat = named("T2")
        perm = list(range(1, 8))
        rnd.shuffle(perm)
        h = relabel(g, {i + 1: perm[i] for i in range(7)})
        assert (contains(g, pat) is None) == (contains(h, pat) is None)


def _as_embedding(order, img):
    """The ``EmbeddingMap`` of a raw image from ``_contains_edges``: the
    host vertex bit of each position of a plan with this ``order``."""
    return EmbeddingMap(tuple(sorted((p, b.bit_length() - 1) for p, b in zip(order, img))))


def _rescanning_pattern_order(pattern, anchor=()):
    """Reference for ``_pattern_order``: at each step, rescan every edge to
    count, per unordered vertex, the edges it shares with ordered ones,
    and take the vertex of most such edges, then highest degree, then
    lowest id, from the anchor while it lasts."""
    deg = {v: sum(v in e for e in pattern.edges) for v in range(1, pattern.n + 1)}
    ordered = []
    while len(ordered) < pattern.n:
        pool = anchor if len(ordered) < len(anchor) else range(1, pattern.n + 1)
        ordered.append(max((v for v in pool if v not in ordered), key=lambda v: (
            sum(1 for e in pattern.edges if v in e and any(u in ordered for u in e)), deg[v], -v)))
    return ordered


def _first_embedding(n, edges, pattern):
    """Brute-force oracle: the first injective map, with pattern vertices
    taken in _pattern_order and host ids increasing, that sends every
    pattern edge onto a host edge."""
    order = _pattern_order(pattern)
    es = set(edges)
    for hosts in itertools.permutations(range(1, n + 1), pattern.n):
        m = dict(zip(order, hosts))
        if all(tuple(sorted(m[v] for v in e)) in es for e in pattern.edges):
            return m
    return None


# patterns with large automorphism groups, each on at most 8 vertices
LINEAR_STAR_3 = new(3, 7, [(1, 2, 3), (1, 4, 5), (1, 6, 7)])
EDGE_PLUS_P2 = new(3, 8, [(1, 2, 3), (4, 5, 6), (6, 7, 8)])
# the 2-(6,3,2) design: ten triples, every pair in exactly two of them
DESIGN_6_3_2 = new(3, 6, [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                          (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])


def _named_patterns(r):
    if r == 2:
        return [complete(m, 2) for m in (2, 3, 4, 5)] + [complete_minus(4, 2)]
    return ([complete(m, 3) for m in (3, 4, 5)]
            + [complete_minus(4), named("F1"), named("F2"), named("F5"), named("T2")]
            + [linear_path(t) for t in (1, 2, 3)]
            + [matching(2), LINEAR_STAR_3, EDGE_PLUS_P2, DESIGN_6_3_2])


@st.composite
def _host_and_pattern(draw):
    r = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        pattern = draw(st.sampled_from(_named_patterns(r)))
    else:
        pn = draw(st.integers(r, 5))
        pool = list(itertools.combinations(range(1, pn + 1), r))
        pattern = new(r, pn, draw(st.lists(st.sampled_from(pool), max_size=6)))
    n = draw(st.integers(r, 8))
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = set(draw(st.lists(st.sampled_from(pool), max_size=len(pool))))
    if pattern.n <= n and draw(st.booleans()):
        # plant a copy under a random injective map, so hits are common
        image = draw(st.permutations(range(1, n + 1)))
        edges |= {tuple(sorted(image[v - 1] for v in e)) for e in pattern.edges}
    return n, tuple(sorted(edges)), pattern


@settings(max_examples=300, deadline=None)
@given(_host_and_pattern(), st.randoms(use_true_random=False))
def test_pattern_order_matches_the_rescanning_reference(case, rnd):
    _, _, pattern = case
    some = tuple(rnd.sample(range(1, pattern.n + 1), rnd.randint(1, pattern.n)))
    anchors = [(), *pattern.edges[:2], some]
    for anchor in anchors:
        assert _pattern_order(pattern, anchor) == _rescanning_pattern_order(pattern, anchor)


def host_from_scratch(n, r, edges):
    """The matcher's host format (see ``freeness._Host``) built field by
    field from its definition."""
    completions = {}
    for e in edges:
        for v in e:
            rest = sum(1 << u for u in e if u != v)
            completions[rest] = completions.get(rest, 0) | 1 << v
    deg = [0] + [sum(v in e for e in edges) for v in range(1, n + 1)]
    deg_masks = [sum(1 << v for v in range(1, n + 1) if deg[v] >= d)
                 for d in range(comb(max(n - 1, 0), r - 1) + 1)]
    return types.SimpleNamespace(n=n, completions=completions, deg=deg, deg_masks=deg_masks,
                                 masks=[sum(1 << v for v in e) for e in edges])


@settings(max_examples=400, deadline=None)
@given(_host_and_pattern())
def test_matcher_agrees_with_brute_force_first_witness(case):
    n, edges, pattern = case
    host = host_from_scratch(n, pattern.r, edges)
    assert vars(_Host(n, pattern.r, edges)) == vars(host)
    found = _contains_edges(host, pattern)
    oracle = _first_embedding(n, edges, pattern)
    assert (found is None) == (oracle is None)
    if found is not None:
        order = _plan(pattern.r, pattern.n, pattern.edges).order
        assert _as_embedding(order, found).as_dict() == oracle


def test_f1_f2_witnesses_unchanged_without_symmetry_breaking(monkeypatch):
    rnd = random.Random(2024)
    patterns = (named("F1"), named("F2"))
    for pat in patterns:
        assert any(_plan(pat.r, pat.n, pat.edges).below)
    hosts = []
    for i in range(30):
        base = random_hypergraph(rnd, 10, p=rnd.uniform(0.02, 0.2))
        image = rnd.sample(range(1, 11), 10)
        planted = {tuple(sorted(image[v - 1] for v in e)) for e in patterns[i % 2].edges}
        hosts.append(new(3, 10, sorted(set(base.edges) | planted)))
    found = [[contains(g, pat) for pat in patterns] for g in hosts]
    # the same searches with the plan's symmetry-breaking conditions removed
    # (so its boundaries read no earlier position)
    monkeypatch.setattr(freeness, "_plan", lambda r, n, edges: _unordered(_plan(r, n, edges)))
    plain = [[contains(g, pat) for pat in patterns] for g in hosts]
    assert found == plain
    assert all(found[i][i % 2] is not None for i in range(30))
    assert any(w is None for row in found for w in row)
    for g, row in zip(hosts, found):
        for pat, w in zip(patterns, row):
            assert w is None or w.verify(pat, g)


def _unordered(plan):
    """The plan with no symmetry-breaking conditions: what ``_plan``
    would build with every ``below`` list empty."""
    return plan._replace(below=((),) * len(plan.order),
                         boundary=tuple(None if refs is None else () for refs in plan.boundary))


def _automorphisms(pattern):
    """Every automorphism of the pattern, as a dict, by trying each
    permutation that keeps the vertex degrees."""
    deg = {v: sum(v in e for e in pattern.edges) for v in range(1, pattern.n + 1)}
    classes = [[v for v in deg if deg[v] == d] for d in sorted(set(deg.values()))]
    es = {frozenset(e) for e in pattern.edges}
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        s = {v: w for c, image in zip(classes, images) for v, w in zip(c, image)}
        if all(frozenset(s[v] for v in e) in es for e in es):
            yield s


def _brute_constraints(pattern, anchor=()):
    """The plan's symmetry-breaking pairs (p, j) from the automorphism
    group found by trying every degree-keeping permutation, or from the
    setwise stabilizer of ``anchor`` in it for the plan anchored there:
    for each position p of the plan's order, the positions j of the other
    vertices in the orbit of ``order[p]`` under the group's elements
    fixing ``order[:p]`` pointwise, then the transitive reduction of all
    those pairs."""
    order = _plan(pattern.r, pattern.n, pattern.edges, anchor).order
    pos = {v: i for i, v in enumerate(order)}
    group = [s for s in _automorphisms(pattern) if {s[v] for v in anchor} == set(anchor)]
    pairs = set()
    for p, v in enumerate(order):
        stab = [s for s in group if all(s[u] == u for u in order[:p])]
        pairs |= {(p, pos[s[v]]) for s in stab if s[v] != v}
    closure = set(pairs)
    while True:
        more = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not more:
            break
        closure |= more
    return {(a, b) for a, b in pairs
            if not any((a, c) in closure and (c, b) in closure for c in range(a + 1, b))}


def _plan_constraints(pattern):
    below = _plan(pattern.r, pattern.n, pattern.edges).below
    return {(p, j) for j, ps in enumerate(below) for p in ps}


SYMMETRIC_PATTERNS = {
    "T2": named("T2"), "F5": named("F5"), "K4-": complete_minus(4), "M2": matching(2),
    "linear-3-star": LINEAR_STAR_3,
    **{f"P{t}": linear_path(t) for t in (1, 2, 3)},
    **{f"K{m}-r2": complete(m, 2) for m in range(2, 9)},
    **{f"K{m}-r3": complete(m, 3) for m in range(3, 9)},
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_PATTERNS))
def test_plan_constraints_match_brute_force_stabilizer_chain(name):
    pattern = SYMMETRIC_PATTERNS[name]
    assert _plan_constraints(pattern) == _brute_constraints(pattern)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plan_constraints_match_brute_force_on_random_patterns(data):
    r = data.draw(st.sampled_from((2, 3)))
    pn = data.draw(st.integers(r, 6))
    pool = list(itertools.combinations(range(1, pn + 1), r))
    pattern = new(r, pn, data.draw(st.lists(st.sampled_from(pool), max_size=len(pool))))
    assert _plan_constraints(pattern) == _brute_constraints(pattern)


# P1 + P1 + P1, P2 + P2, P1 + P3, and a star (three edges through the pair
# {1, 2}) plus an edge: disconnected patterns, so their plans have boundaries
DISCONNECTED_PATTERNS = {
    "M3": matching(3), "F1": named("F1"), "F2": named("F2"),
    "star+edge": new(3, 8, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (6, 7, 8)]),
}


def test_disconnected_patterns_have_the_expected_boundaries():
    boundary = {name: _plan(p.r, p.n, p.edges).boundary for name, p in DISCONNECTED_PATTERNS.items()}
    # the second P2 of F1 must place its centre above the first one's
    assert {i: refs for i, refs in enumerate(boundary["F1"]) if refs is not None} == {5: (0,)}
    # the edge of F2 follows its P3 and is not isomorphic to any part of it
    assert {i: refs for i, refs in enumerate(boundary["F2"]) if refs is not None} == {7: ()}
    assert [i for i, refs in enumerate(boundary["M3"]) if refs is not None] == [3, 6]
    for pat in (linear_path(4), complete(5, 3), named("F5"), LINEAR_STAR_3):
        assert _plan(pat.r, pat.n, pat.edges).boundary == (None,) * pat.n


def _plan_without_memo(r, n, edges):
    return _plan(r, n, edges)._replace(boundary=(None,) * n)


def _extend_calls(fn):
    """The result of ``fn()`` and how many ``extend`` frames it entered."""
    calls = [0]

    def trace(frame, event, arg):
        if frame.f_code.co_name == "extend":
            calls[0] += 1

    sys.settrace(trace)
    try:
        out = fn()
    finally:
        sys.settrace(None)
    return out, calls[0]


def test_boundary_memo_changes_no_result(monkeypatch):
    rnd = random.Random(23)
    hosts = []
    for i in range(160):
        n = 6 + i % 5
        base = random_hypergraph(rnd, n, p=rnd.uniform(0.05, 0.5))
        pat = list(DISCONNECTED_PATTERNS.values())[i % 4]
        edges = set(base.edges)
        if pat.n <= n and i % 3 == 0:
            image = rnd.sample(range(1, n + 1), pat.n)
            edges |= {tuple(sorted(image[v - 1] for v in e)) for e in pat.edges}
        hosts.append(new(3, n, sorted(edges)))
    found = [[contains(g, pat) for pat in DISCONNECTED_PATTERNS.values()] for g in hosts]
    # the same searches with no boundary, so with no memo
    monkeypatch.setattr(freeness, "_plan", _plan_without_memo)
    plain = [[contains(g, pat) for pat in DISCONNECTED_PATTERNS.values()] for g in hosts]
    assert found == plain
    for k, pat in enumerate(DISCONNECTED_PATTERNS.values()):
        column = [row[k] for row in found]
        assert any(w is None for w in column) and any(w is not None for w in column)
        for g, w in zip(hosts, column):
            assert w is None or w.verify(pat, g)


def test_boundary_memo_shortens_an_f2_miss(monkeypatch):
    # a covering-pairs P4-free 3-graph on 10 vertices has no F2
    g = covers_pairs_path_free(random.Random(961), 10, 4)
    f2 = named("F2")
    found, memo = _extend_calls(lambda: contains(g, f2))
    monkeypatch.setattr(freeness, "_plan", _plan_without_memo)
    plain, no_memo = _extend_calls(lambda: contains(g, f2))
    assert found is None and plain is None
    assert memo < no_memo


def _brute_boundary(pattern):
    """The plan's boundary from the pattern's connected components: at each
    position i > 0 whose suffix of the plan's order is a union of whole
    components, the earlier positions that the "below" lists of the
    suffix name; None elsewhere."""
    plan = _plan(pattern.r, pattern.n, pattern.edges)
    comp = {v: {v} for v in range(1, pattern.n + 1)}
    for e in pattern.edges:
        merged = set().union(*(comp[v] for v in e))
        for v in merged:
            comp[v] = merged
    out = []
    for i in range(pattern.n):
        rest = set(plan.order[i:])
        if i == 0 or any(comp[v] - rest for v in rest):
            out.append(None)
        else:
            out.append(tuple(sorted({p for j in range(i, pattern.n) for p in plan.below[j] if p < i})))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plan_boundary_matches_components(data):
    r = data.draw(st.sampled_from((2, 3)))
    edges, n = [], 0
    for _ in range(data.draw(st.integers(1, 3))):
        size = data.draw(st.integers(r, 4))
        pool = list(itertools.combinations(range(n + 1, n + size + 1), r))
        edges += data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool)))
        n += size
    image = data.draw(st.permutations(range(1, n + 1)))
    pattern = new(r, n, [tuple(sorted(image[v - 1] for v in e)) for e in set(edges)])
    assert _plan(pattern.r, pattern.n, pattern.edges).boundary == _brute_boundary(pattern)


# the patterns of the anchored search's tests; F1 and F2 are disconnected,
# so their searches pass component boundaries
ANCHORED_PATTERNS = {
    "K4-": complete_minus(4), "F5": named("F5"), "T2": named("T2"), "M2": matching(2),
    "K6": complete(6, 3), **{f"P{t}": linear_path(t) for t in (2, 3, 4)},
    "F1": named("F1"), "F2": named("F2"),
}


def _pattern_free_host(rnd, n, pattern):
    """A host on [n] free of the pattern and a further r-set e: the
    r-sets in a random order, each kept when it makes no copy, until a
    random number of them was tried; then e is a random r-set not kept."""
    pool = list(itertools.combinations(range(1, n + 1), pattern.r))
    rnd.shuffle(pool)
    host = _Host(n, pattern.r)
    tried = rnd.randrange(len(pool) + 1)
    kept = []
    for e in pool[:tried]:
        host.add(e)
        if _contains_edges(host, pattern) is None:
            kept.append(e)
        else:
            host.remove(e)
    left = [e for e in pool if e not in kept]
    return kept, rnd.choice(left)


@pytest.mark.parametrize("name", sorted(ANCHORED_PATTERNS))
def test_anchored_search_agrees_with_the_whole_host_search(name):
    pattern = ANCHORED_PATTERNS[name]
    rnd = random.Random(sum(map(ord, name)))
    hits = misses = 0
    for i in range(30):
        n = pattern.n + i % 2
        edges, e = _pattern_free_host(rnd, n, pattern)
        host = _Host(n, pattern.r, [*edges, e])
        anchored = _contains_edges(host, pattern, through=e)
        whole = _contains_edges(host, pattern)
        assert (anchored is None) == (whole is None)
        if anchored is None:
            misses += 1
            continue
        hits += 1
        g = new(pattern.r, n, [*edges, e])
        # the image is in the order of the anchored plan that found it
        maps = [_as_embedding(plan.order, anchored)
                for plan in freeness._anchor_plans(pattern.r, pattern.n, pattern.edges)]
        assert any(w.verify(pattern, g)
                   and e in {tuple(sorted(w.as_dict()[v] for v in f)) for f in pattern.edges}
                   for w in maps)
    assert hits and misses


ORBIT_PATTERNS = {**ANCHORED_PATTERNS, **DISCONNECTED_PATTERNS, "linear-3-star": LINEAR_STAR_3,
                  "edge+P2": EDGE_PLUS_P2, "2-(6,3,2)": DESIGN_6_3_2, "K4-r2-minus": complete_minus(4, 2)}


@pytest.mark.parametrize("name", sorted(ORBIT_PATTERNS))
def test_anchor_plans_cover_each_edge_orbit_once(name):
    pattern = ORBIT_PATTERNS[name]
    plans = freeness._anchor_plans(pattern.r, pattern.n, pattern.edges)
    anchors = [frozenset(plan.order[:pattern.r]) for plan in plans]
    group = list(_automorphisms(pattern))
    orbits = {frozenset(frozenset(s[v] for v in e) for s in group) for e in pattern.edges}
    assert sorted(sum(a in orbit for a in anchors) for orbit in orbits) == [1] * len(orbits)
    for plan, anchor in zip(plans, anchors):
        assert plan == _plan(pattern.r, pattern.n, pattern.edges, tuple(sorted(anchor)))


def test_anchor_plan_counts():
    counts = {name: len(freeness._anchor_plans(p.r, p.n, p.edges))
              for name, p in ANCHORED_PATTERNS.items()}
    assert counts == {"K4-": 1, "F5": 2, "T2": 1, "M2": 1, "K6": 1, "P2": 1, "P3": 2, "P4": 2,
                      "F1": 1, "F2": 3}


@pytest.mark.parametrize("name", sorted(ANCHORED_PATTERNS))
def test_anchored_plan_constraints_match_the_anchor_stabilizer(name):
    pattern = ANCHORED_PATTERNS[name]
    for anchor in pattern.edges:
        plan = _plan(pattern.r, pattern.n, pattern.edges, anchor)
        assert set(plan.order[:pattern.r]) == set(anchor)
        got = {(p, j) for j, ps in enumerate(plan.below) for p in ps}
        assert got == _brute_constraints(pattern, anchor)


@st.composite
def _graph_and_pin(draw):
    """A graph on at most 7 vertices and a pin: a permutation s restricted
    to some vertices.  Half the time the edges are closed under s first,
    so s is an automorphism and the pin extends to one."""
    r = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(r, 7))
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = set(draw(st.lists(st.sampled_from(pool), max_size=len(pool))))
    s = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    if draw(st.booleans()):
        todo = list(edges)
        while todo:
            f = tuple(sorted(s[v] for v in todo.pop()))
            if f not in edges:
                edges.add(f)
                todo.append(f)
    pinned = draw(st.lists(st.integers(1, n), unique=True))
    return new(r, n, sorted(edges)), {v: s[v] for v in pinned}


def _extends_to_automorphism(g, pin):
    es = set(g.edges)
    for perm in itertools.permutations(range(1, g.n + 1)):
        if all(perm[v - 1] == w for v, w in pin.items()) and all(
                tuple(sorted(perm[v - 1] for v in e)) in es for e in g.edges):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(_graph_and_pin())
def test_pinned_self_embedding_agrees_with_brute_force(case):
    g, pin = case
    found = _contains_edges(_Host(g.n, g.r, g.edges), g, pin=pin)
    assert (found is not None) == _extends_to_automorphism(g, pin)
    if found is not None:
        order = freeness._free_plan(g, tuple(pin)).order
        w = _as_embedding(order, found)
        assert w.verify(g, g)
        assert all(w.as_dict()[v] == x for v, x in pin.items())


def test_embedding_map_rejects_collisions():
    with pytest.raises(ValueError):
        EmbeddingMap(((1, 3), (2, 3)))


# ---------------------------------------------------------------------------
# linear paths


def test_path_too_few_vertices():
    # the path of length t spans 2t+1 vertices
    assert contains(complete(8, 3), linear_path(4)) is None


def test_path_length_one_is_any_edge():
    one_edge = new(3, 5, [(2, 3, 5)])
    w = contains(one_edge, linear_path(1))
    assert w is not None and w.verify(linear_path(1), one_edge)
    assert contains(Hypergraph(3, 5, ()), linear_path(1)) is None


def test_path_identity():
    w = contains(linear_path(4), linear_path(4))
    assert w.as_dict() == {i: i for i in range(1, 10)}


# ---------------------------------------------------------------------------
# linear paths grown from a new edge


def test_creates_linear_path_incremental_matches_full():
    rnd = random.Random(5)
    for _ in range(400):
        n = rnd.randint(5, 8)
        g = random_hypergraph(rnd, n, p=rnd.uniform(0.05, 0.3))
        pool = [e for e in itertools.combinations(range(1, n + 1), 3)
                if e not in g.edge_set()]
        if not pool:
            continue
        e = rnd.choice(pool)
        masks = [sum(1 << v for v in ed) for ed in g.edges]
        em = sum(1 << v for v in e)
        t = rnd.choice((2, 3))
        if contains(g, linear_path(t)) is not None:
            continue
        bigger = new(3, n, list(g.edges) + [e])
        assert creates_linear_path(masks, em, t) == (contains(bigger, linear_path(t)) is not None)


@st.composite
def _path_free_base_and_edge(draw):
    n = draw(st.integers(3, 9))
    t = draw(st.integers(1, 4))
    pool = list(itertools.combinations(range(1, n + 1), 3))
    new_edge = draw(st.sampled_from(pool))
    offered = draw(st.lists(st.sampled_from(pool), unique=True, max_size=40))
    base: list[tuple[int, ...]] = []
    for e in offered:  # keep the base free of the path, greedily
        if e != new_edge and contains(new(3, n, base + [e]), linear_path(t)) is None:
            base.append(e)
    return n, t, base, new_edge


def test_creates_linear_path_at_every_position_of_the_new_edge():
    for t in range(1, 5):
        masks = [sum(1 << v for v in e) for e in linear_path(t).edges]
        for j in range(t):
            assert creates_linear_path(masks[:j] + masks[j + 1:], masks[j], t)
            assert not creates_linear_path(masks[:j] + masks[j + 1:], masks[j], t + 1)


@settings(max_examples=300, deadline=None)
@given(_path_free_base_and_edge())
def test_creates_linear_path_agrees_with_full_search_on_superset(case):
    n, t, base, e = case
    masks = [sum(1 << v for v in ed) for ed in base]
    grown = contains(new(3, n, base + [e]), linear_path(t)) is not None
    assert creates_linear_path(masks, sum(1 << v for v in e), t) == grown


# ---------------------------------------------------------------------------
# cores


def test_core_in_complete():
    assert contains_core(complete(7, 3), linear_path(3), 7)


def test_core_blocked_by_uncovered_pairs():
    for n in (12, 13, 14):
        assert not contains_core(turan_blowup(6, 3, n), linear_path(3), 7)


def test_core_size_larger_than_graph():
    assert not contains_core(complete(7, 3), linear_path(3), 8)
    with pytest.raises(ValueError):
        contains_core(complete(7, 3), linear_path(3), 5)


def test_core_exhaustive_cross_check():
    # independent scan: every 7-subset of the blowup on 12 vertices has an
    # uncovered pair, because two vertices fall in one class
    g = turan_blowup(6, 3, 12)
    covered = set()
    for e in g.edges:
        covered.update(itertools.combinations(e, 2))
    for c in itertools.combinations(range(1, 13), 7):
        assert any(p not in covered for p in itertools.combinations(c, 2))


# ---------------------------------------------------------------------------
# rewriting loop


def test_loop_drops_isolated_vertex():
    g = new(3, 7, complete(6, 3).edges)
    assert left_compress_loop(g, 3, config=FAST_OPT) == complete(6, 3)


def test_loop_fixed_point():
    assert left_compress_loop(complete(6, 3), 3, config=FAST_OPT) == complete(6, 3)


def test_loop_rejects_paths():
    with pytest.raises(ValueError):
        left_compress_loop(complete(7, 3), 3)


def test_loop_rejects_low_value_for_length_4():
    with pytest.raises(ValueError, match="floor"):
        left_compress_loop(new(3, 9, [(1, 2, 3)]), 4)


def test_loop_accepts_near_complete_for_length_4():
    out = left_compress_loop(complete(8, 3), 4, config=FAST_OPT)
    assert out == complete(8, 3)


def test_loop_output_contract_on_sampled_inputs():
    rnd = random.Random(21)
    for _ in range(6):
        g = covers_pairs_path_free(rnd, 7, 3)
        before = maximize(g, FAST_OPT).value
        out = left_compress_loop(g, 3, config=FAST_OPT)
        assert contains(out, linear_path(3)) is None
        assert is_left_compressed(out)
        assert is_dense(out, FAST_OPT)
        assert maximize(out, FAST_OPT).value >= before - 1e-8


# ---------------------------------------------------------------------------
# compression preserves freeness


def test_compress_preserves_path3_freeness_exhaustive_n6():
    # every covering-pairs left-compressed graph on [6]; the result stays
    # on 6 vertices so path-freeness is structural, and near-complete
    # freeness is preserved as well
    survivors = []
    enumerate_left_compressed(6, 3, visit=lambda e: survivors.append(e))
    k6 = complete(6, 3)
    for edges in survivors:
        g = Hypergraph(3, 6, edges)
        if not covers_pairs(g):
            continue
        free_k6 = is_free(g, k6)
        for i, j in itertools.permutations(range(1, 7), 2):
            pg = compress(g, i, j)
            assert contains(pg, linear_path(3)) is None
            if free_k6:
                assert is_free(pg, k6)


def test_compress_preserves_path3_freeness_sampled_n7():
    rnd = random.Random(31)
    for _ in range(12):
        g = covers_pairs_path_free(rnd, 7, 3)
        for i, j in itertools.permutations(range(1, 8), 2):
            assert contains(compress(g, i, j), linear_path(3)) is None


def test_compress_preserves_path4_freeness_on_matched_samples():
    # the near-complete optimum floor only ever serves to force freeness
    # from the central-triple-with-pendants configuration, and no 9-vertex
    # covering-pairs sample can reach the floor anyway, so the property is
    # exercised through that operative hypothesis directly
    rnd = random.Random(41)
    k8 = complete(8, 3)
    floor = 7 / 64 - 0.005
    qualifying = 0
    for _ in range(10):
        g = covers_pairs_path_free(rnd, 9, 4)
        assert maximize(g, FAST_OPT).value < floor  # the floor filter is vacuous here
        if contains(g, named("F3")) is not None:
            continue
        qualifying += 1
        free_k8 = is_free(g, k8)
        for i, j in itertools.permutations(range(1, 10), 2):
            pg = compress(g, i, j)
            assert contains(pg, linear_path(4)) is None
            if free_k8:
                assert is_free(pg, k8)
    assert qualifying >= 5
