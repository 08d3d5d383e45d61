import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlag.corpora import covers_pairs_path_free, random_hypergraph
from hyperlag.freeness import (
    EmbeddingMap,
    _contains_edges,
    _pattern_order,
    check_structures,
    contains,
    contains_core,
    contains_linear_path,
    creates_linear_path,
    is_free,
    left_compress_loop,
    symmetrize_clean,
)
from hyperlag.hypergraph import (
    Hypergraph,
    complete,
    complete_minus,
    compress,
    covers_pairs,
    induced,
    is_left_compressed,
    linear_path,
    link_equal_classes,
    named,
    new,
    relabel,
    turan_blowup,
)
from hyperlag.lagrangian import OptimizerConfig, is_dense, maximize
from hyperlag.search import enumerate_left_compressed

FAST_OPT = OptimizerConfig(restarts=16, exact_support_n=6, iterations=250)


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


def _named_patterns(r):
    if r == 2:
        return [complete(m, 2) for m in (2, 3, 4, 5)] + [complete_minus(4, 2)]
    return ([complete(m, 3) for m in (3, 4, 5)]
            + [complete_minus(4), named("F1"), named("F2"), named("F5"), named("T2")]
            + [linear_path(t) for t in (1, 2, 3)])


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
@given(_host_and_pattern())
def test_matcher_agrees_with_brute_force_first_witness(case):
    n, edges, pattern = case
    found = _contains_edges(n, edges, pattern)
    oracle = _first_embedding(n, edges, pattern)
    assert (found is None) == (oracle is None)
    if found is not None:
        assert found.as_dict() == oracle


def test_embedding_map_rejects_collisions():
    with pytest.raises(ValueError):
        EmbeddingMap(((1, 3), (2, 3)))


# ---------------------------------------------------------------------------
# specialized path search


def test_path_agreement_bulk():
    rnd = random.Random(99)
    for trial in range(10_000):
        n = rnd.randint(5, 9)
        p = rnd.uniform(0.03, 0.45)
        edges = [e for e in itertools.combinations(range(1, n + 1), 3) if rnd.random() < p]
        g = new(3, n, edges)
        t = rnd.choice((2, 3, 4))
        fast = contains_linear_path(g, t)
        assert (fast is None) == (contains(g, linear_path(t)) is None)
        if fast is not None:
            assert fast.verify(linear_path(t), g)


def test_path_too_few_vertices():
    assert contains_linear_path(complete(8, 3), 4) is None


def test_path_length_one_is_any_edge():
    w = contains_linear_path(new(3, 5, [(2, 3, 5)]), 1)
    assert w is not None and w.verify(linear_path(1), new(3, 5, [(2, 3, 5)]))
    assert contains_linear_path(Hypergraph(3, 5, ()), 1) is None


def test_path_identity():
    w = contains_linear_path(linear_path(4), 4)
    assert w.as_dict() == {i: i for i in range(1, 10)}


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
        if contains_linear_path(g, t) is not None:
            continue
        bigger = new(3, n, list(g.edges) + [e])
        assert creates_linear_path(masks, em, t) == (contains_linear_path(bigger, t) is not None)


@st.composite
def _path_free_base_and_edge(draw):
    n = draw(st.integers(3, 9))
    t = draw(st.integers(1, 4))
    pool = list(itertools.combinations(range(1, n + 1), 3))
    new_edge = draw(st.sampled_from(pool))
    offered = draw(st.lists(st.sampled_from(pool), unique=True, max_size=40))
    base: list[tuple[int, ...]] = []
    for e in offered:  # keep the base free of the path, greedily
        if e != new_edge and contains_linear_path(new(3, n, base + [e]), t) is None:
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
    grown = contains_linear_path(new(3, n, base + [e]), t) is not None
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
        assert contains_linear_path(out, 3) is None
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
            assert contains_linear_path(pg, 3) is None
            if free_k6:
                assert is_free(pg, k6)


def test_compress_preserves_path3_freeness_sampled_n7():
    rnd = random.Random(31)
    for _ in range(12):
        g = covers_pairs_path_free(rnd, 7, 3)
        for i, j in itertools.permutations(range(1, 8), 2):
            assert contains_linear_path(compress(g, i, j), 3) is None


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
            assert contains_linear_path(pg, 4) is None
            if free_k8:
                assert is_free(pg, k8)
    assert qualifying >= 5


# ---------------------------------------------------------------------------
# symmetrize and clean


def test_symmetrize_clean_complete_unchanged():
    assert symmetrize_clean(complete(5, 3), 0.5) == complete(5, 3)


def test_symmetrize_clean_two_disjoint_edges_hand_trace():
    # degrees all equal, so the smallest nonadjacent pair with different
    # links is (1, 4); vertex 4 takes the link of 1, the isolated 5 and 6
    # are cleaned away, and the survivors blow up a single covering edge
    g = new(3, 6, [(1, 2, 3), (4, 5, 6)])
    out = symmetrize_clean(g, 0.01)
    assert out == new(3, 4, [(1, 2, 3), (2, 3, 4)])
    part = link_equal_classes(out)
    reps = [c[0] for c in part.classes]
    core = induced(out, reps)
    assert covers_pairs(core)


def test_symmetrize_clean_empty():
    assert symmetrize_clean(Hypergraph(3, 0, ()), 0.5).n == 0
    g = Hypergraph(3, 4, ())
    assert symmetrize_clean(g, 0.5) == g  # all links equal, nothing to do


def test_symmetrize_clean_alpha_validation():
    with pytest.raises(ValueError):
        symmetrize_clean(complete(4, 3), 0.0)
    with pytest.raises(ValueError):
        symmetrize_clean(complete(4, 3), 1.5)


def _is_blowup_of_representative_core(g):
    part = link_equal_classes(g)
    reps = [c[0] for c in part.classes]
    core = induced(g, reps)
    # rebuild the blowup of the core with the class sizes and compare
    from hyperlag.hypergraph import blowup

    rebuilt = blowup(core, [len(part.classes[k]) for k in range(len(part.classes))])
    # rebuilt labels classes consecutively; compare canonically via sizes
    return len(rebuilt.edges) == len(g.edges)


def test_symmetrize_clean_output_is_blowup_and_never_loses_edges():
    rnd = random.Random(17)
    for _ in range(25):
        g = random_hypergraph(rnd, rnd.randint(4, 7), p=rnd.uniform(0.1, 0.5))
        out = symmetrize_clean(g, rnd.choice([0.05, 0.2, 0.5]))
        if out.n == 0:
            continue
        assert _is_blowup_of_representative_core(out)


def test_symmetrize_step_never_decreases_edge_count():
    # within one iteration the rerouted class had the lower degree, so the
    # edge count cannot drop; observe it through single symmetrize calls
    from hyperlag.hypergraph import symmetrize

    rnd = random.Random(13)
    for _ in range(80):
        g = random_hypergraph(rnd, rnd.randint(4, 7))
        verts = range(1, g.n + 1)
        covered = {p for e in g.edges for p in itertools.combinations(e, 2)}
        degs = [0] + g.degrees()
        for u, v in itertools.permutations(verts, 2):
            if (min(u, v), max(u, v)) in covered:
                continue
            if degs[u] >= degs[v]:
                assert len(symmetrize(g, v, u).edges) >= len(g.edges)


# ---------------------------------------------------------------------------
# structure report


def test_structure_report_on_dense_complete():
    rep = check_structures(complete(5, 3), FAST_OPT)
    by_name = {c.check: c for c in rep.checks}
    assert not by_name["intersecting-pair-2"].violated
    assert not by_name["intersecting-pair-1"].violated
    assert not rep.violated


def test_structure_report_detects_planted_configuration():
    # sanity of the detector itself: the forbidden configuration embeds
    # into itself, so scanning it must produce a witness; it does not
    # cover pairs, so no guarantee is violated
    f1 = named("F1")
    rep = check_structures(f1, FAST_OPT)
    by_name = {c.check: c for c in rep.checks}
    w = by_name["f1-free"].witness
    assert w is not None and w.verify(f1, f1)
    assert not by_name["f1-free"].violated


def test_structure_report_sampled_covering_path_free():
    rnd = random.Random(61)
    for i in range(6):
        g = covers_pairs_path_free(rnd, 9 + (i % 2), 4)
        rep = check_structures(g, FAST_OPT)
        by_name = {c.check: c for c in rep.checks}
        assert not by_name["f1-free"].violated
        assert not by_name["f2-free"].violated


def test_structure_report_serializes():
    rep = check_structures(complete(5, 3), FAST_OPT)
    payload = rep.to_json()
    assert "checks" in payload and isinstance(payload["violated"], bool)
