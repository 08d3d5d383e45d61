import functools
import itertools
import json
import random
import time
import types
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlag.cli import main
from hyperlag.corpora import random_hypergraph
from hyperlag.freeness import _plan, contains, creates_linear_path
from hyperlag.lagrangian import closed_form
import hyperlag.search as search_mod
from hyperlag.hypergraph import (
    Hypergraph,
    complete,
    complete_minus,
    induced,
    is_left_compressed,
    linear_path,
    lower_covers,
    matching,
    named,
    new,
    relabel,
    turan_blowup,
)
from hyperlag.search import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DensityRun,
    TuranRun,
    adjacent_swaps,
    canonical_form,
    checkpoint_resume,
    checkpoint_save,
    colex_ground,
    density_evidence,
    enumerate_all,
    enumerate_left_compressed,
    isomorphic,
    turan_number,
)
from test_freeness import host_from_scratch

P3_MASKS = lambda edges: [sum(1 << v for v in e) for e in edges]


def p3_prune(edges, cand):
    return creates_linear_path(P3_MASKS(edges), sum(1 << v for v in cand), 3)


# ---------------------------------------------------------------------------
# ground set and covers


def test_colex_order_extends_dominance():
    ground = colex_ground(6, 3)
    index = {e: i for i, e in enumerate(ground)}
    for e in ground:
        for c in lower_covers(e):
            assert index[c] < index[e]


def test_lower_covers_chain_on_four_vertices():
    assert lower_covers((1, 2, 3)) == []
    assert lower_covers((2, 3, 4)) == [(1, 3, 4)]
    assert lower_covers((1, 3, 4)) == [(1, 2, 4)]


# ---------------------------------------------------------------------------
# down-set enumeration


def test_downset_count_n4_chain():
    assert enumerate_left_compressed(4, 3).leaves == 5


def test_downset_enumeration_matches_brute_filter():
    seen = []
    enumerate_left_compressed(5, 3, visit=lambda e: seen.append(e))
    brute = []
    enumerate_all(5, 3, visit=lambda e: brute.append(e))
    expected = sorted(e for e in brute if is_left_compressed(Hypergraph(3, 5, e)))
    assert sorted(seen) == expected


def test_prune_on_minimum_element_leaves_only_empty():
    got = []
    enumerate_left_compressed(5, 3, prune=lambda edges, cand: cand == (1, 2, 3),
                              visit=lambda e: got.append(e))
    assert got == [()]


def test_prune_soundness_same_maximal_survivors():
    # with a monotone prune, the maximal accepted graphs agree with
    # filtering an unpruned enumeration
    pruned = []
    enumerate_left_compressed(6, 3, prune=p3_prune, visit=lambda e: pruned.append(e))
    unpruned = []
    enumerate_left_compressed(6, 3, visit=lambda e: unpruned.append(e))
    filtered = [e for e in unpruned
                if contains(Hypergraph(3, 6, e), linear_path(3)) is None]
    assert sorted(pruned) == sorted(filtered)

    def maximal(family):
        fam = set(family)
        out = set()
        for e in fam:
            if not any(set(e) < set(f) for f in fam):
                out.add(e)
        return out

    assert maximal(pruned) == maximal(filtered)


def test_enumerate_all_counts():
    assert enumerate_all(4, 3).leaves == 16
    with pytest.raises(ValueError):
        enumerate_all(7, 3)


def test_enumerate_all_double_counting_cross_check():
    # clique containment as direct subset masks: graph bitmask covers the
    # four triples of some 4-set
    ground = colex_ground(6, 3)
    index = {e: i for i, e in enumerate(ground)}
    four_sets = []
    for verts in itertools.combinations(range(1, 7), 4):
        m = 0
        for t in itertools.combinations(verts, 3):
            m |= 1 << index[t]
        four_sets.append(m)
    contains_count = 0
    free_count = 0

    def visit(edges):
        nonlocal contains_count, free_count
        gm = 0
        for e in edges:
            gm |= 1 << index[e]
        if any(gm & m == m for m in four_sets):
            contains_count += 1
        else:
            free_count += 1

    stats = enumerate_all(6, 3, visit=visit)
    assert contains_count + free_count == stats.leaves == 2**20
    # spot-agreement of the mask test with the generic embedding search
    import random

    rnd = random.Random(3)
    k4 = complete(4, 3)
    for _ in range(200):
        bits = rnd.getrandbits(20)
        edges = tuple(sorted(ground[i] for i in range(20) if bits >> i & 1))
        by_mask = any(bits & m == m for m in four_sets)
        assert by_mask == (contains(Hypergraph(3, 6, edges), k4) is not None)


def test_enumerate_all_up_to_iso():
    def classes(n, r):
        """The edge sets enumerate_all visits that are their own canonical form."""
        reps = []

        def visit(edges):
            if canonical_form(Hypergraph(r, n, edges)).edges == edges:
                reps.append(edges)

        enumerate_all(n, r, visit=visit)
        return reps

    # subsets of the 4-edge clique up to symmetry: one per edge count
    assert len(classes(4, 3)) == 5
    # with no size cap on the canonical form, the same holds on 8 vertices
    assert classes(8, 1) == [tuple((v,) for v in range(1, k + 1)) for k in range(9)]


def test_canonical_form_identifies_relabelings():
    g = new(3, 5, [(1, 2, 3), (3, 4, 5)])
    h = relabel(g, {1: 5, 2: 4, 3: 3, 4: 2, 5: 1})
    assert canonical_form(g) == canonical_form(h)
    assert isomorphic(g, h)
    assert not isomorphic(g, new(3, 5, [(1, 2, 3), (1, 2, 4)]))
    assert canonical_form(complete(8, 3)) == complete(8, 3)
    k8 = complete(8, 3).edges
    minus_meeting = new(3, 8, [e for e in k8 if e not in ((1, 2, 3), (1, 2, 4))])
    minus_disjoint = new(3, 8, [e for e in k8 if e not in ((1, 2, 3), (4, 5, 6))])
    assert isomorphic(minus_meeting, new(3, 8, [e for e in k8 if e not in ((3, 7, 8), (5, 7, 8))]))
    assert not isomorphic(minus_meeting, minus_disjoint)


def brute_canonical_form(g):
    """Reference canonical form: the minimum sorted edge list over all n!
    vertex permutations."""
    best = None
    ids = list(range(1, g.n + 1))
    for perm in itertools.permutations(ids):
        mapping = dict(zip(ids, perm))
        edges = tuple(sorted(tuple(sorted(mapping[v] for v in e)) for e in g.edges))
        if best is None or edges < best:
            best = edges
    return Hypergraph(g.r, g.n, best if best is not None else ())


def _on(n, g):
    return new(g.r, n, g.edges)


def _shuffled(g, seed):
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)
    return relabel(g, dict(zip(range(1, g.n + 1), perm)))


# the 2-(6,3,2) design: ten triples, every pair in exactly two of them
DESIGN_6_3_2 = new(3, 6, [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                          (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])
FANO = new(3, 7, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)])
PETERSEN = new(2, 10, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                       (5, 10), (6, 8), (8, 10), (7, 10), (7, 9), (6, 9)])

SMALL_FAMILIES = [
    new(3, 0, []), new(3, 2, []), new(3, 6, []), new(2, 5, []),
    new(3, 7, [(2, 4, 6)]), new(2, 7, [(1, 2), (3, 4)]),
    *[_on(7, complete(t, 3)) for t in range(3, 8)],
    *[_on(7, complete(t, 2)) for t in range(2, 8)],
    *[_on(7, complete_minus(t, 3)) for t in range(4, 8)],
    *[_on(7, complete_minus(t, 2)) for t in range(3, 8)],
    turan_blowup(3, 3, 6), turan_blowup(3, 3, 7), turan_blowup(4, 3, 7),
    turan_blowup(3, 2, 7), turan_blowup(2, 2, 6),
    named("F5"), _on(7, named("F5")), named("T2"),
    DESIGN_6_3_2, _on(7, DESIGN_6_3_2), FANO, linear_path(3),
]


@pytest.mark.parametrize("g", SMALL_FAMILIES, ids=range(len(SMALL_FAMILIES)))
def test_canonical_form_matches_brute_force_on_families(g):
    form = brute_canonical_form(g)
    assert canonical_form(g) == form
    for seed in range(3):
        assert canonical_form(_shuffled(g, seed)) == form


def test_canonical_form_prunes_the_design_by_its_automorphisms(monkeypatch):
    # vertex-transitive, with singleton weight-exchangeable classes: 159
    # labelling nodes without the automorphism tests, 7 with them
    calls = 0
    extend = search_mod._extend_labelling

    def counted(*args):
        nonlocal calls
        calls += 1
        return extend(*args)

    monkeypatch.setattr(search_mod, "_extend_labelling", counted)
    assert canonical_form(DESIGN_6_3_2) == brute_canonical_form(DESIGN_6_3_2)
    assert calls <= 12


def test_an_automorphism_test_that_always_answers_yes_breaks_canonical_form(monkeypatch):
    # the pruning rests on the test's answer: a sibling skipped without a
    # real automorphism can hold the best labelling
    monkeypatch.setattr(search_mod, "_maps_to", lambda *args: True)
    assert any(canonical_form(g) != brute_canonical_form(g) for g in SMALL_FAMILIES)


def test_canonical_form_leaves_the_plan_cache_alone(monkeypatch):
    # the automorphism tests follow plans built per call, so canonicalizing
    # many one-off graphs evicts no pattern plan a search keeps cached
    rnd = random.Random(26)
    graphs = {}
    while len(graphs) < 300:
        g = random_hypergraph(rnd, rnd.randint(4, 7), rnd.choice((2, 3)))
        graphs[(g.r, g.n, g.edges)] = g
    tests = 0
    match = search_mod._contains_edges

    def counted(*args, **kwargs):
        nonlocal tests
        tests += 1
        return match(*args, **kwargs)

    monkeypatch.setattr(search_mod, "_contains_edges", counted)
    before = _plan.cache_info()
    for g in graphs.values():
        canonical_form(g)
    after = _plan.cache_info()
    assert tests > 0
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


@st.composite
def _graph_and_relabelling(draw, n_min, n_max):
    r = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(n_min, n_max))
    slots = list(itertools.combinations(range(1, n + 1), r))
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    g = new(r, n, [e for e, k in zip(slots, keep) if k])
    perm = draw(st.permutations(range(1, n + 1)))
    return g, relabel(g, dict(zip(range(1, n + 1), perm)))


@settings(max_examples=250, deadline=None)
@given(_graph_and_relabelling(0, 7))
def test_canonical_form_matches_brute_force(pair):
    g, h = pair
    form = brute_canonical_form(g)
    assert canonical_form(g) == form
    assert canonical_form(h) == form


LARGE_FAMILIES = [complete(8, 3), complete_minus(8), complete_minus(9), turan_blowup(3, 3, 9),
                  turan_blowup(4, 3, 10), turan_blowup(3, 2, 10), PETERSEN,
                  _on(10, DESIGN_6_3_2), _on(9, FANO), linear_path(4)]


def _check_form_beyond_seven(g, h):
    form = canonical_form(g)
    assert canonical_form(h) == form
    # every labelling is a candidate, the form is one of them
    assert form.edges <= g.edges and form.edges <= h.edges
    assert canonical_form(form) == form
    assert sorted(form.degrees()) == sorted(g.degrees())


@pytest.mark.parametrize("g", LARGE_FAMILIES, ids=range(len(LARGE_FAMILIES)))
def test_canonical_form_relabelling_invariance_on_families_beyond_seven(g):
    for seed in range(3):
        _check_form_beyond_seven(g, _shuffled(g, seed))


@settings(max_examples=60, deadline=None)
@given(_graph_and_relabelling(8, 10))
def test_canonical_form_relabelling_invariance_beyond_seven(pair):
    _check_form_beyond_seven(*pair)


# ---------------------------------------------------------------------------
# Turan search


def test_turan_pattern_too_big_to_embed():
    res = turan_number(4, [named("F5")])
    assert res.max_edges == 4 and res.status == "exact"
    assert res.witnesses == (complete(4, 3),)


def test_turan_five_f5_exact_value_and_witness():
    res = turan_number(5, [named("F5")])
    # frozen from the independent whole-space oracle below
    assert res.max_edges == 6
    assert res.status == "exact"
    assert len(res.witnesses) == 1
    star = canonical_form(new(3, 5, [(1, a, b) for a, b in itertools.combinations(range(2, 6), 2)]))
    assert res.witnesses[0] == star


def _whole_space_extremal(n, f):
    """The maximum edge count of an f-free graph on [n] and the canonical
    forms of the extremal graphs, from all 2^C(n,3) edge sets."""
    best, wit = -1, set()

    def visit(edges):
        nonlocal best, wit
        g = Hypergraph(3, n, edges)
        if contains(g, f) is None:
            if len(edges) > best:
                best, wit = len(edges), set()
            if len(edges) == best:
                wit.add(canonical_form(g).edges)

    enumerate_all(n, 3, visit=visit)
    return best, wit


def test_turan_whole_space_oracle_agreement():
    res = turan_number(5, [named("F5")])
    assert (res.max_edges, {w.edges for w in res.witnesses}) == _whole_space_extremal(5, named("F5"))


def test_turan_single_edge_pattern():
    assert turan_number(4, [new(3, 3, [(1, 2, 3)])]).max_edges == 0


def test_turan_monotone_in_n():
    f5 = [named("F5")]
    assert turan_number(5, f5).max_edges >= turan_number(4, f5).max_edges


def test_turan_witnesses_are_free():
    res = turan_number(5, [named("T2")])
    for w in res.witnesses:
        assert contains(w, named("T2")) is None
        assert len(w.edges) == res.max_edges


def test_turan_budget_degrades_to_lower_bound():
    res = turan_number(5, [named("F5")], max_nodes=10)
    assert res.status == "lower_bound"
    assert res.max_edges <= 6
    assert res.stats.nodes <= 10


def _full_star(n):
    return tuple((1, a, b) for a, b in itertools.combinations(range(2, n + 1), 2))


def test_turan_six_f5_pinned_report():
    # the witness is frozen from the vertex-backtracking matcher the
    # bitmask one replaced; the counts are those of the lex-leader tree
    res = turan_number(6, [named("F5")])
    assert res.max_edges == 10 and res.status == "exact"
    assert res.stats.to_json() == {"nodes": 208, "leaves": 4, "pruned": 45, "bound_cuts": 35,
                                   "symmetry_cuts": 125}
    assert tuple(w.edges for w in res.witnesses) == (_full_star(6),)


K4_MINUS_SIX_WITNESS = ((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6))


def test_turan_six_k4_minus_pinned_report():
    res = turan_number(6, [complete_minus(4)])
    assert res.max_edges == 10 and res.status == "exact"
    assert res.stats.to_json() == {"nodes": 435, "leaves": 48, "pruned": 136, "bound_cuts": 128,
                                   "symmetry_cuts": 124}
    assert tuple(w.edges for w in res.witnesses) == (K4_MINUS_SIX_WITNESS,)


def test_turan_seven_f5_is_the_full_star():
    res = turan_number(7, [named("F5")])
    assert res.max_edges == 15 and res.status == "exact"
    assert tuple(w.edges for w in res.witnesses) == (_full_star(7),)


def test_turan_eight_f5_is_the_full_star():
    # out of reach without the lex-leader cut; one witness per class now
    # that every n is canonicalized
    res = turan_number(8, [named("F5")])
    assert res.max_edges == 21 and res.status == "exact"
    assert tuple(w.edges for w in res.witnesses) == (_full_star(8),)


# ---------------------------------------------------------------------------
# the lex-leader cut


class _Uncut:
    """The full-space tree with the lex-leader cut switched off: the
    oracle the cut is checked against."""

    def _lex_smaller(self, x):
        return False


class UncutTuranRun(_Uncut, TuranRun):
    pass


class UncutDensityRun(_Uncut, DensityRun):
    pass


def test_uncut_oracle_keeps_the_old_counts():
    f5 = UncutTuranRun(6, [named("F5")]).execute()
    assert f5.stats.to_json() == {"nodes": 6294, "leaves": 44, "pruned": 3965, "bound_cuts": 2286,
                                  "symmetry_cuts": 0}
    assert tuple(w.edges for w in f5.witnesses) == (_full_star(6),)
    k4m = UncutTuranRun(6, [complete_minus(4)]).execute()
    assert k4m.stats.to_json() == {"nodes": 13173, "leaves": 203, "pruned": 6925, "bound_cuts": 6046,
                                   "symmetry_cuts": 0}
    assert tuple(w.edges for w in k4m.witnesses) == (K4_MINUS_SIX_WITNESS,)


LINEAR_STAR_3 = new(3, 7, [(1, 2, 3), (1, 4, 5), (1, 6, 7)])
CUT_PATTERNS = {"F5": named("F5"), "K4-": complete_minus(4), "T2": named("T2"), "P2": linear_path(2),
                "M2": matching(2), "S3": LINEAR_STAR_3, "K4": complete(4, 3)}


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", list(CUT_PATTERNS))
def test_lex_leader_cut_matches_uncut_oracle(name, n):
    cut = turan_number(n, [CUT_PATTERNS[name]])
    uncut = UncutTuranRun(n, [CUT_PATTERNS[name]]).execute()
    assert (cut.max_edges, cut.status) == (uncut.max_edges, uncut.status)
    assert cut.witnesses == uncut.witnesses
    assert cut.stats.nodes <= uncut.stats.nodes


@pytest.mark.parametrize("name", list(CUT_PATTERNS))
def test_lex_leader_cut_matches_whole_space_at_five(name):
    res = turan_number(5, [CUT_PATTERNS[name]])
    assert (res.max_edges, {w.edges for w in res.witnesses}) == _whole_space_extremal(5, CUT_PATTERNS[name])


@st.composite
def _small_pattern(draw):
    n = draw(st.integers(3, 5))
    slots = list(itertools.combinations(range(1, n + 1), 3))
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)).filter(any))
    return new(3, n, [e for e, k in zip(slots, keep) if k])


@settings(max_examples=40, deadline=None)
@given(_small_pattern(), st.integers(4, 5))
def test_lex_leader_cut_matches_uncut_oracle_on_random_patterns(f, n):
    cut = turan_number(n, [f])
    uncut = UncutTuranRun(n, [f]).execute()
    assert (cut.max_edges, cut.witnesses) == (uncut.max_edges, uncut.witnesses)


def _indicator(ground, edges):
    edges = set(edges)
    return [int(e in edges) for e in ground]


@settings(max_examples=60, deadline=None)
@given(_graph_and_relabelling(3, 6).filter(lambda pair: pair[0].r == 3))
def test_lex_largest_copy_is_never_cut(pair):
    g, _ = pair
    dfs = TuranRun(g.n, [named("T2")])
    ids = list(range(1, g.n + 1))
    best = max(_indicator(dfs.ground, relabel(g, dict(zip(ids, perm))).edges)
               for perm in itertools.permutations(ids))
    for d in range(dfs.M + 1):
        assert not dfs._lex_smaller(best[:d])


def test_swap_pairs_keep_colex_order():
    # b increasing in a is what lets an exclude never lose (see _ColexDFS)
    for n, r in itertools.product(range(3, 10), (2, 3)):
        for pairs in adjacent_swaps(n, colex_ground(n, r)):
            assert all(a < b for a, b in pairs)
            assert [b for _, b in pairs] == sorted(b for _, b in pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 1), min_size=0, max_size=len(colex_ground(n, 3)) - 1))))
def test_an_exclude_never_creates_a_lex_smaller_prefix(case):
    n, x = case
    dfs = TuranRun(n, [named("T2")])
    if not dfs._lex_smaller(x):
        assert not dfs._lex_smaller(x + [0])


@pytest.mark.parametrize("pattern,n", [("P2", 5), ("P2", 6), ("T2", 4)])
def test_all_mode_density_matches_uncut_oracle(pattern, n):
    cut = density_evidence(pattern, n, "all")
    uncut = UncutDensityRun(pattern, n, "all").execute()
    assert cut.max_lambda == uncut.max_lambda
    assert cut.max_lambda_complete_free == uncut.max_lambda_complete_free
    assert cut.status == uncut.status == "exact"
    for a, b in ((cut.argmax_graph, uncut.argmax_graph),
                 (cut.argmax_complete_free, uncut.argmax_complete_free)):
        assert (a is None) == (b is None)
        if a is not None:
            assert canonical_form(a) == canonical_form(b)
    assert cut.counts["nodes"] < uncut.counts["nodes"]


def test_left_compressed_runs_make_no_lex_test(monkeypatch):
    def never(*args):
        raise AssertionError("lex test ran in a down-set search")

    monkeypatch.setattr(search_mod._ColexDFS, "_lex_smaller", never)
    assert enumerate_left_compressed(5, 3, prune=p3_prune).symmetry_cuts == 0
    rep = density_evidence("P3", 7)
    assert rep.status == "exact" and rep.counts["symmetry_cuts"] == 0


def test_turan_input_validation():
    with pytest.raises(ValueError):
        turan_number(5, [])
    with pytest.raises(ValueError):
        turan_number(5, [named("F5"), new(2, 3, [(1, 2)])])


# ---------------------------------------------------------------------------
# density evidence


def test_density_p2_all_mode():
    rep = density_evidence("P2", 6, "all")
    assert rep.max_lambda == pytest.approx(1 / 16, abs=1e-9)
    assert isomorphic(rep.argmax_graph, new(3, 6, complete(4, 3).edges))
    assert rep.status == "exact"
    # clique-free survivors top out at the near-complete value
    assert rep.max_lambda_complete_free == pytest.approx(4 / 81, abs=1e-9)


def test_density_t2_reference_clique_is_single_edge():
    rep = density_evidence("T2", 4, "all")
    assert rep.separations["clique_order"] == 3
    assert rep.max_lambda == pytest.approx(1 / 27, abs=1e-9)
    # forbidding even one edge leaves only the empty graph
    assert rep.max_lambda_complete_free == 0.0


class TwoVertexRuleDensityRun(DensityRun):
    """Checks every T2 include test, those of the leaf scans too, against
    the rule the matcher replaced: a candidate creates T2 exactly when
    some included edge meets it in two vertices."""

    def __init__(self, *args):
        super().__init__(*args)
        self.outcomes = []

    def include_accept(self, k):
        ok = super().include_accept(k)
        rule = not any((self.masks[i] & self.masks[k]).bit_count() == 2 for i in self.included)
        assert ok == rule, (self.included_edges(), self.ground[k])
        self.outcomes.append(ok)
        return ok


def test_t2_include_agrees_with_the_two_vertex_rule():
    run = TwoVertexRuleDensityRun("T2", 6, "all")
    assert run.execute().to_json() == density_evidence("T2", 6, "all").to_json()
    assert len(run.outcomes) > run.stats.nodes
    assert set(run.outcomes) == {True, False}


class _Unscreened:
    """Optimizes every survivor it is offered, with no bound screening."""

    def _screen(self, g, plain, cfree):
        return False


class UnscreenedDensityRun(_Unscreened, DensityRun):
    """Optimizes every maximal survivor: the oracle for screening."""


class EverySurvivorDensityRun(_Unscreened, DensityRun):
    """Optimizes every survivor at full strength, maximal or not, with no
    screening: the oracle for optimizing only the maximal ones."""

    def on_leaf(self):
        has_clique = search_mod._contains_edges(self.host, self.clique) is not None
        self._optimize(self.included_edges(), True, not has_clique)


@pytest.mark.parametrize("pattern,n,mode", [("P2", 5, "all"), ("P2", 6, "all"), ("T2", 4, "all"),
                                            ("P3", 7, "left_compressed")])
def test_maximal_survivors_match_every_survivor_oracle(pattern, n, mode):
    fast = density_evidence(pattern, n, mode)
    oracle = EverySurvivorDensityRun(pattern, n, mode).execute()
    assert fast.status == oracle.status == "exact"
    assert fast.max_lambda == oracle.max_lambda
    assert fast.max_lambda_complete_free == oracle.max_lambda_complete_free
    for a, b in ((fast.argmax_graph, oracle.argmax_graph),
                 (fast.argmax_complete_free, oracle.argmax_complete_free)):
        assert a == b                   # both canonical forms, or both None
    assert oracle.counts["optimized"] == oracle.counts["survivors"]
    assert fast.counts["optimized"] <= oracle.counts["optimized"]


ORACLE_CASES = [("P2", 5, "all"), ("P2", 6, "all"), ("T2", 4, "all"), ("P3", 7, "left_compressed"),
                ("P3", 7, "all"), ("P4", 8, "left_compressed")]


@pytest.mark.parametrize("pattern,n,mode", ORACLE_CASES)
def test_screening_changes_nothing_but_the_counts(pattern, n, mode):
    screened = density_evidence(pattern, n, mode).to_json()
    oracle = UnscreenedDensityRun(pattern, n, mode).execute().to_json()
    got, want = screened.pop("counts"), oracle.pop("counts")
    assert screened == oracle
    assert want.pop("screened") == 0
    got["optimized"] += got.pop("screened")
    assert got == want


class _MaximizeOnly:
    """Values every survivor by maximize, never by a closed form."""

    def _value(self, g):
        return search_mod.maximize(g, self.seed).value


class MaximizeOnlyDensityRun(_MaximizeOnly, DensityRun):
    """The oracle for valuing survivors by the closed forms of their cores."""


@pytest.mark.parametrize("pattern,n,mode", ORACLE_CASES)
def test_closed_forms_change_nothing_but_the_last_digits(pattern, n, mode):
    fast = density_evidence(pattern, n, mode).to_json()
    oracle = MaximizeOnlyDensityRun(pattern, n, mode).execute().to_json()
    for key in ("max_lambda", "max_lambda_complete_free"):
        assert fast.pop(key) == pytest.approx(oracle.pop(key), abs=1e-12)
    eps = "epsilon_observed"
    assert fast["separations"].pop(eps) == pytest.approx(oracle["separations"].pop(eps), abs=1e-12)
    assert fast == oracle               # counts, argmax graphs and status


def _has_closed_form(g):
    try:
        closed_form(induced(g, {v for e in g.edges for v in e}))
    except ValueError:
        return False
    return True


def test_one_valuation_per_optimized_survivor(monkeypatch):
    valued, maximized = [], []
    value, maximize = DensityRun._value, search_mod.maximize

    def counting_value(self, g):
        valued.append(g)
        return value(self, g)

    def counting_maximize(g, seed):
        maximized.append(g)
        return maximize(g, seed)

    monkeypatch.setattr(DensityRun, "_value", counting_value)
    monkeypatch.setattr(search_mod, "maximize", counting_maximize)
    runs = {}
    for pattern, n, mode in (("P3", 7, "left_compressed"), ("P3", 7, "all"), ("P2", 6, "all")):
        valued.clear()
        maximized.clear()
        rep = density_evidence(pattern, n, mode)
        assert len(valued) == rep.counts["optimized"]
        # maximize runs exactly on the survivors whose core has no closed form
        assert maximized == [g for g in valued if not _has_closed_form(g)]
        runs[pattern, mode] = (rep.counts["optimized"], rep.counts["screened"], len(maximized))
    # on seven vertices every P3 survivor the screen passes is a K_6 or a
    # K_6^-, bar in full mode the first one, which no running best screens
    assert runs["P3", "left_compressed"] == (2, 5, 0)
    assert runs["P3", "all"] == (3, 13, 1)
    assert runs["P2", "all"] == (2, 2, 0)    # a K_4 and a K_4^-


def test_value_takes_the_closed_form_of_the_core(monkeypatch):
    spots = (1, 2, 3, 5, 6, 7)
    k6m = new(3, 7, [tuple(spots[v - 1] for v in e) for e in complete_minus(6).edges])
    path = new(3, 9, linear_path(3).edges)
    maximize, calls = search_mod.maximize, []

    def refuse(g, seed):
        raise AssertionError(f"maximize called on {g!r}")

    monkeypatch.setattr(search_mod, "maximize", refuse)
    assert DensityRun("P3", 7)._value(k6m) == closed_form(complete_minus(6)).value

    def counting(g, seed):
        calls.append((g, seed))
        return maximize(g, seed)

    monkeypatch.setattr(search_mod, "maximize", counting)
    assert DensityRun("P3", 9, seed=3)._value(path) == maximize(path, 3).value
    assert calls == [(path, 3)]


@pytest.mark.parametrize("n,mode", [(7, "left_compressed"), (7, "all"), (11, "left_compressed")])
def test_p3_reports_do_not_depend_on_the_seed(n, mode):
    reports = []
    for seed in (0, 1, 5):
        rep = density_evidence("P3", n, mode, seed).to_json()
        assert rep["space"].pop("seed") == seed
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["max_lambda"] == closed_form(complete(6)).value
    assert reports[0]["max_lambda_complete_free"] == closed_form(complete_minus(6)).value


# ---------------------------------------------------------------------------
# the restriction lemma


class _Unrestricted:
    """The down-set run without the restriction lemma: every candidate is
    tested on the whole host, and the clique by the matcher.  The oracle
    for the lemma's three uses in :class:`DensityRun`."""

    def include_accept(self, k):
        if self._path_length is not None:
            return not creates_linear_path(self.host.masks, self.masks[k], self._path_length)
        return not self._creates(k, (self._pattern,))

    def on_leaf(self):
        has_clique = search_mod._contains_edges(self.host, self.clique) is not None
        ext_plain = False
        ext_cfree = False
        for k in range(self.M):
            if self.decisions[k] or self.missing[k] or not self.include_accept(k):
                continue
            ext_plain = True
            if has_clique:
                break
            ext_cfree = not self._creates(k, (self.clique,))
            if ext_cfree:
                break
        cfree = not has_clique and not ext_cfree
        if not ext_plain or cfree:
            self._optimize(self.included_edges(), not ext_plain, cfree)


class UnrestrictedDensityRun(_Unrestricted, DensityRun):
    pass


# n from v(H) - 1 to v(H) + 2, and P4 up to n = 10
RESTRICTION_CASES = [(p, n) for p, v in (("P2", 5), ("T2", 4), ("P3", 7), ("P4", 9))
                     for n in range(v - 1, min(v + 2, 10) + 1)]


@pytest.mark.parametrize("pattern,n", RESTRICTION_CASES)
def test_restriction_lemma_matches_unrestricted_oracle(pattern, n):
    fast = density_evidence(pattern, n).to_json()
    assert fast == UnrestrictedDensityRun(pattern, n).execute().to_json()
    assert fast["status"] == "exact"


@functools.lru_cache(maxsize=None)
def _downsets(n):
    out = []
    enumerate_left_compressed(n, 3, visit=out.append)
    return tuple(out)


def _same_inside(g, h):
    """Does g contain h exactly when g restricted to [v(h)] does?"""
    return (contains(g, h) is None) == (contains(induced(g, range(1, h.n + 1)), h) is None)


@pytest.mark.parametrize("name", ["P2", "T2", "P3", "K4-", "F5"])
def test_restriction_lemma_on_every_downset_of_eight(name):
    h = named(name)
    downsets = _downsets(8)
    assert len(downsets) == 2431
    for edges in downsets:
        assert _same_inside(Hypergraph(3, 8, edges), h), edges


def _downset_closure(seeds):
    out = set()
    stack = list(seeds)
    while stack:
        e = stack.pop()
        if e not in out:
            out.add(e)
            stack.extend(lower_covers(e))
    return tuple(sorted(out))


def test_restriction_lemma_for_p4_beyond_nine():
    # every down-set on [9] is its own restriction to [v(P4)] = [9], so the
    # lemma is checked on down-sets on [10] and [11], each the closure of a
    # few random r-sets, and on both sides of it: with edges past [9] and
    # without, containing P4 and free of it
    rnd = random.Random(9)
    h = linear_path(4)
    seen = set()
    for _ in range(150):
        n = rnd.choice((10, 11))
        seeds = [tuple(sorted(rnd.sample(range(1, n + 1), 3))) for _ in range(rnd.randint(1, 3))]
        g = Hypergraph(3, n, _downset_closure(seeds))
        assert is_left_compressed(g)
        assert _same_inside(g, h), g.edges
        seen.add((contains(g, h) is None, max(map(max, g.edges)) > 9))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_path_tests_stop_at_the_span_and_no_leaf_tests_the_clique(monkeypatch):
    # P3 spans 7 vertices, so on [11] the r-sets of [7], the first C(7, 3)
    # positions, are the only ones a path test may see or be made for
    span = comb(7, 3)
    run = DensityRun("P3", 11)
    index = {m: k for k, m in enumerate(run.masks)}
    tested = set()
    grow = search_mod.creates_linear_path

    def recording(masks, new_mask, t):
        tested.add(index[new_mask])
        assert all(index[m] < span for m in masks)
        return grow(masks, new_mask, t)

    matched = []
    match = search_mod._contains_edges

    def matching_(host, pattern, **anchor):
        matched.append(pattern)
        return match(host, pattern, **anchor)

    monkeypatch.setattr(search_mod, "creates_linear_path", recording)
    monkeypatch.setattr(search_mod, "_contains_edges", matching_)
    assert run.execute().counts["nodes"] == 63356
    assert 0 < max(tested) < span
    assert matched == []
    # no search reaches position span - 1, {5, 6, 7}: a down-set holding it
    # holds every r-set of [7], so a P3.  So the boundary is pinned on the
    # finished run, whose host is empty: a span one smaller or one larger
    # fails here
    assert run.included == []
    tested.clear()
    assert run.include_accept(span - 1) and tested == {span - 1}
    assert run.include_accept(span) and tested == {span - 1}
    # T2 goes through the matcher, but the clique never does
    t2 = DensityRun("T2", 7)
    t2.execute()
    assert matched and all(p == named("T2") for p in matched)


def test_density_p3_eleven_pinned_report():
    rep = density_evidence("P3", 11)
    assert rep.counts == {"nodes": 63356, "survivors": 787, "pruned": 29, "symmetry_cuts": 0,
                          "optimized": 2, "screened": 5}
    assert rep.max_lambda == pytest.approx(5 / 54, abs=1e-12)
    assert rep.argmax_graph == new(3, 11, complete(6, 3).edges)
    assert rep.max_lambda_complete_free == pytest.approx(0.08866210790363471, abs=1e-12)
    assert rep.argmax_complete_free == new(3, 11, complete_minus(6).edges)
    assert rep.status == "exact"


def test_density_p4_on_eight_vertices_skips_the_path_test(monkeypatch):
    # a linear 4-path spans 9 vertices, so on 8 nothing can be pruned and
    # the path test must not run at all; the report is the exhaustive one
    def never(*args):
        raise AssertionError("path test ran on a graph too small to hold the path")

    monkeypatch.setattr(search_mod, "creates_linear_path", never)
    rep = density_evidence("P4", 8)
    assert rep.counts == {"nodes": 40682, "survivors": 2431, "pruned": 0, "symmetry_cuts": 0,
                          "optimized": 2, "screened": 0}
    assert rep.max_lambda == pytest.approx(7 / 64, abs=1e-12)
    assert rep.argmax_graph == complete(8, 3)
    assert rep.max_lambda_complete_free == pytest.approx(0.10767488654714333, abs=1e-12)
    assert rep.argmax_complete_free == complete_minus(8)
    assert rep.status == "exact"


def test_density_budget_marks_partial():
    rep = density_evidence("P2", 5, "all", max_nodes=5)
    assert rep.status == "partial"


def test_deadline_stops_a_long_downset_run():
    # P4 at n=12 takes millions of nodes, most of them in forced runs
    t0 = time.monotonic()
    rep = density_evidence("P4", 12, max_seconds=0.3)
    assert rep.status == "partial"
    assert 0 < rep.counts["nodes"] < 2_378_964
    assert time.monotonic() - t0 < 10


def _fake_maximize(g, seed):
    # the budget tests exercise the engine, not the optimizer; a resume
    # recomputes its running bests' values with this same stand-in
    return types.SimpleNamespace(value=len(g.edges) / g.n**3)


def test_budget_inside_a_forced_run_stops_there_and_resumes(tmp_path, monkeypatch):
    monkeypatch.setattr(search_mod, "maximize", _fake_maximize)
    full = density_evidence("P3", 6).to_json()
    # a run stepped one node per call is the node-by-node walk
    stepped = DensityRun("P3", 6)
    walk = {}
    while not stepped.run(max_nodes=stepped.stats.nodes + 1):
        walk[stepped.stats.nodes] = list(stepped.decisions)

    def forced(x, k):
        return any(not x[c] for c in stepped.cover_idx[k])

    # stops between two forced excludes
    inside = [b for b, x in walk.items() if len(x) < stepped.M and forced(x, len(x) - 1)
              and forced(x, len(x))]
    assert len(inside) > 300
    path = tmp_path / "c.json"
    for b in inside:
        run = DensityRun("P3", 6)
        assert not run.run(max_nodes=b)
        assert run.stats.nodes == b
        assert run.decisions == walk[b]
        checkpoint_save(run, path)
        assert checkpoint_resume(path).execute().to_json() == full


def _assert_derived_state(run):
    """The state the DFS keeps across nodes equals a rebuild from scratch."""
    inc = [k for k, t in enumerate(run.decisions) if t]
    assert run.included == inc
    if run.downset:
        assert run.missing == [sum(1 for c in covers if c not in inc) for covers in run.cover_idx]
    else:
        assert run.missing is None
    assert vars(run.host) == vars(host_from_scratch(run.n, run.r, [run.ground[k] for k in inc]))


class _Checked:
    """Asserts the derived state at every node the hooks see: before each
    bound test and include test, and at each leaf, before and after."""

    checked = 0

    def _check(self):
        _assert_derived_state(self)
        self.checked += 1

    def bound_cut(self, depth):
        self._check()
        return super().bound_cut(depth)

    def include_accept(self, k):
        self._check()
        ok = super().include_accept(k)
        self._check()
        return ok

    def on_leaf(self):
        self._check()
        super().on_leaf()
        self._check()


class CheckedDensityRun(_Checked, DensityRun):
    pass


class CheckedTuranRun(_Checked, TuranRun):
    pass


@pytest.mark.parametrize("make", [
    lambda: CheckedDensityRun("P3", 7, "left_compressed"),
    lambda: CheckedDensityRun("P2", 6, "all"),
    lambda: CheckedTuranRun(6, (named("F5"),)),
], ids=["P3-7-left_compressed", "P2-6-all", "turan-F5-6"])
def test_derived_state_matches_a_rebuild_at_every_node(make, tmp_path):
    run = make()
    full = run.execute().to_json()
    assert run.checked > run.stats.leaves
    # a run paused mid-way and replayed from its checkpoint rebuilds the
    # same state and goes on to the same report
    paused = make()
    assert not paused.run(max_nodes=run.stats.nodes // 2)
    path = tmp_path / "c.json"
    checkpoint_save(paused, path)
    _assert_derived_state(checkpoint_resume(path))
    checked = make()
    checked.load_state(json.loads(path.read_text())["state"])
    _assert_derived_state(checked)
    assert checked.execute().to_json() == full


PRECONDITION_RUNS = {
    "turan-F5": lambda: TuranRun(6, [named("F5")]),
    "turan-K4-": lambda: TuranRun(6, [complete_minus(4)]),
    "turan-F5+M2": lambda: TuranRun(6, [named("F5"), matching(2)]),
    "density-T2-all": lambda: DensityRun("T2", 6, "all"),
    "density-P2-all": lambda: DensityRun("P2", 6, "all"),
}


@pytest.mark.parametrize("name", list(PRECONDITION_RUNS))
def test_every_creates_call_meets_its_precondition(monkeypatch, name):
    # the host is free of every pattern before the add, so the anchored
    # answer is the whole-host search's on the host with the edge
    calls = []
    creates = search_mod._ColexDFS._creates

    def checked(self, k, patterns):
        assert all(search_mod._contains_edges(self.host, p) is None for p in patterns)
        got = creates(self, k, patterns)
        self.host.add(self.ground[k])
        whole = any(search_mod._contains_edges(self.host, p) is not None for p in patterns)
        self.host.remove(self.ground[k])
        assert got == whole
        calls.append(got)
        return got

    monkeypatch.setattr(search_mod._ColexDFS, "_creates", checked)
    PRECONDITION_RUNS[name]().execute()
    assert True in calls and False in calls


@given(st.sampled_from([2, 3]), st.integers(4, 8), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_host_state_after_random_includes_and_undos_matches_a_rebuild(r, n, seed):
    # includes and undos in a random stack order, each undo of the last
    # include, with candidate edges added and taken back around them
    rnd = random.Random(seed)
    run = TuranRun(n, (complete(r + 1, r),))
    for _ in range(60):
        if run.included and rnd.random() < 0.4:
            run._undo_include(run.included[-1])
        else:
            free = [k for k in range(run.M) if k not in run.included]
            if not free:
                continue
            k = rnd.choice(free)
            run._creates(k, run.forbidden)
            run._apply_include(k)
        want = host_from_scratch(n, r, [run.ground[k] for k in run.included])
        assert vars(run.host) == vars(want)


def test_density_report_serializes():
    rep = density_evidence("P2", 5, "all")
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["status"] == "exact"
    assert payload["argmax_graph"]["r"] == 3


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_immediate_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    fresh = DensityRun("P2", 5, "all")
    checkpoint_save(fresh, path)
    resumed = checkpoint_resume(path)
    rep_resumed = resumed.execute()
    rep_fresh = density_evidence("P2", 5, "all")
    assert rep_resumed.to_json() == rep_fresh.to_json()


def test_checkpoint_midrun_resume_equals_full(tmp_path):
    path = tmp_path / "c.json"
    partial = DensityRun("P3", 7, "left_compressed")
    finished = partial.run(max_nodes=400)
    assert not finished
    checkpoint_save(partial, path)
    resumed = checkpoint_resume(path)
    rep = resumed.execute()
    full = density_evidence("P3", 7, "left_compressed")
    assert rep.to_json() == full.to_json()


def test_checkpoint_midrun_turan(tmp_path):
    path = tmp_path / "t.json"
    for n, pause in ((5, 30), (6, 50)):
        run = TuranRun(n, (named("F5"),))
        assert not run.run(max_nodes=pause)
        checkpoint_save(run, path)
        resumed = checkpoint_resume(path)
        res = resumed.execute()
        base = turan_number(n, [named("F5")])
        assert res.to_json() == base.to_json()
        assert res.stats.symmetry_cuts > 0


def test_checkpoint_keeps_every_setting(tmp_path):
    def fresh():
        return DensityRun("P2", 6, "all", 3)

    path = tmp_path / "c.json"
    partial = fresh()
    assert not partial.run(max_nodes=60)
    assert partial.evaluated > 0
    checkpoint_save(partial, path)
    payload = json.loads(path.read_text())
    # the space holds exactly the constructor arguments
    assert payload["space"] == {"kind": "density", "pattern": "P2", "n": 6, "mode": "all",
                                "seed": 3}
    resumed = checkpoint_resume(path)
    assert (resumed.seed, resumed.mode) == (3, "all")
    assert (resumed.best_plain, resumed.best_cfree) == (partial.best_plain, partial.best_cfree)
    assert resumed.execute().to_json() == fresh().execute().to_json()

    run = TuranRun(5, (named("F5"),))
    assert not run.run(max_nodes=10)
    checkpoint_save(run, path)
    assert set(json.loads(path.read_text())["space"]) == {"kind", "n", "r", "forbidden"}

    # a version 3 file carries the heaps and knobs this version no longer
    # has, a version 4 file the deleted support-enumeration size, a
    # version 5 file no screened count, a version 6 file the values a
    # version 7 run derives from its graphs, a version 7 file the deleted
    # iterations setting, and a version 8 file the restarts and kkt_tol
    # settings that are now constants
    for version in (3, 4, 5, 6, 7, 8):
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_resume(path)


def test_checkpoint_config_must_hold_exactly_the_settings(tmp_path):
    # the density space holds the seed alone of the optimizer's settings:
    # one that is now a constant, or a version 8 configuration, is refused
    # rather than ignored
    path = tmp_path / "c.json"
    checkpoint_save(DensityRun("P2", 5, "all", 3), path)
    payload = json.loads(path.read_text())
    space = payload["space"]
    for bad in ({**space, "restarts": 64}, {**space, "kkt_tol": 1e-8},
                {**space, "config": {"restarts": 64, "seed": 3, "kkt_tol": 1e-8}}):
        payload["space"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="not that of the run"):
            checkpoint_resume(path)
    payload["space"] = space
    path.write_text(json.dumps(payload))
    assert checkpoint_resume(path).seed == 3


def test_checkpoint_config_must_be_usable(tmp_path):
    # DensityRun refuses these seeds; the checkpoint reports it as its own
    # error rather than letting a ValueError or a bad run through
    path = tmp_path / "c.json"
    checkpoint_save(DensityRun("P2", 5, "all"), path)
    payload = json.loads(path.read_text())
    for bad in (-5, True, "3", None):
        payload["space"]["seed"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="seed"):
            checkpoint_resume(path)


def _paused_turan_payload(path):
    """A turan run on 6 vertices (20 ground edges) paused mid-run, saved
    to ``path``; returns the saved payload."""
    run = TuranRun(6, (named("F5"),))
    assert not run.run(max_nodes=50)
    checkpoint_save(run, path)
    assert checkpoint_resume(path).to_state() == run.to_state()
    return json.loads(path.read_text())


def _refused(path, payload, match):
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=match):
        checkpoint_resume(path)


def test_checkpoint_refuses_stats_missing_a_field(tmp_path):
    # a file written before the lex-leader cut has no symmetry_cuts; it is
    # refused rather than resumed with 0
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    del payload["state"]["stats"]["symmetry_cuts"]
    _refused(path, payload, "stats fields")


def test_checkpoint_refuses_stats_with_an_unknown_field(tmp_path):
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    payload["state"]["stats"]["shards"] = 4
    _refused(path, payload, "stats fields")


def test_checkpoint_refuses_state_missing_a_field(tmp_path):
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    del payload["state"]["witnesses"]
    _refused(path, payload, "state fields")
    checkpoint_save(DensityRun("P2", 5, "all"), path)
    saved = path.read_text()
    # a version 5 density state has no screened count
    for field in ("evaluated", "screened", "best_plain"):
        payload = json.loads(saved)
        del payload["state"][field]
        _refused(path, payload, "state fields")


def test_checkpoint_refuses_state_with_an_unknown_field(tmp_path):
    # a version 6 turan state stores its best count, which a version 7
    # run derives from its witnesses
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    payload["state"]["best"] = 10
    _refused(path, payload, "state fields")


def test_checkpoint_refuses_decisions_past_the_ground_set(tmp_path):
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    payload["state"]["decisions"] = [0] * 500
    _refused(path, payload, "at most 20 tokens")
    # one token more than the ground set is refused, a full leaf is not
    payload["state"]["decisions"] = [0] * 21
    _refused(path, payload, "at most 20 tokens")
    payload["state"]["decisions"] = [0] * 20
    path.write_text(json.dumps(payload))
    assert checkpoint_resume(path).decisions == [0] * 20


def test_checkpoint_refuses_decision_tokens_other_than_0_1(tmp_path):
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    for bad in (2, -1, "1", None):
        payload["state"]["decisions"] = [1, bad]
        _refused(path, payload, "tokens of 0 or 1")
    payload["state"]["decisions"] = 1
    _refused(path, payload, "tokens of 0 or 1")


def test_checkpoint_refuses_an_include_the_turan_run_would_refuse(tmp_path):
    # every triple of [5] holds F5: unchecked, the run resumed to an
    # exact 10 with a K_5^3 witness.  {1, 2, 5} is the first that makes
    # one, with {1, 3, 4} and {2, 3, 4}
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    payload["state"]["decisions"] = [1] * 10
    _refused(path, payload, r"includes \(1, 2, 5\), which the include test refuses")


def test_checkpoint_refuses_an_include_without_its_lower_covers(tmp_path):
    # position 5 is {1, 3, 5}, whose lower covers {1, 3, 4} and {1, 2, 5}
    # are excluded: unchecked, the run resumed to an exact report
    path = tmp_path / "c.json"
    checkpoint_save(DensityRun("P3", 8), path)
    payload = json.loads(path.read_text())
    payload["state"]["decisions"] = [0] * 5 + [1]
    _refused(path, payload, r"includes \(1, 3, 5\) without all its lower covers")


@pytest.mark.parametrize("make", [
    lambda: DensityRun("P3", 7),
    lambda: DensityRun("P4", 10),
    lambda: TuranRun(7, (named("F5"),)),
], ids=["P3-7", "P4-10", "turan-F5-7"])
def test_checkpoint_replay_accepts_a_genuine_midrun_state(tmp_path, make):
    # replaying through the include tests accepts what the run itself
    # saved, and the resumed report is the uninterrupted one, byte for byte
    full = make()
    want = json.dumps(full.execute().to_json())
    path = tmp_path / "c.json"
    for pause in (full.stats.nodes // 3, 2 * full.stats.nodes // 3):
        paused = make()
        assert not paused.run(max_nodes=pause)
        assert 1 in paused.decisions
        checkpoint_save(paused, path)
        assert json.dumps(checkpoint_resume(path).execute().to_json()) == want


def _density_payload(path):
    checkpoint_save(DensityRun("P2", 5, "all"), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("kind,edit,match", [
    ("turan", lambda p: [p], "parts a JSON list"),
    ("turan", lambda p: {**p, "state": {**p["state"], "stats": sorted(p["state"]["stats"])}},
     "stats fields a JSON list"),
    ("turan", lambda p: {**p, "state": {**p["state"], "witnesses": 5}}, r"\['witnesses'\]"),
    ("density", lambda p: {**p, "state": {**p["state"], "best_plain": 3}}, r"\['best_plain'\]"),
    ("turan", lambda p: {**p, "state": {**p["state"],
                                        "stats": {**p["state"]["stats"], "nodes": "x"}}},
     r"\['stats.nodes'\]"),
    ("turan", lambda p: {**p, "state": {**p["state"], "best": "x"}}, "state fields"),
    ("density", lambda p: {**p, "state": {**p["state"], "evaluated": "x"}}, r"\['evaluated'\]"),
    ("density", lambda p: {**p, "state": {**p["state"], "best_plain": [0.9, [[1, 2, 3]]]}},
     r"\['best_plain'\]"),
    ("density", lambda p: {**p, "state": {**p["state"], "best_cfree": [0.5, None]}},
     r"\['best_cfree'\]"),
], ids=["top-level-array", "stats-list", "witnesses-int", "best-plain-int", "stats-nodes-str",
        "best-str", "evaluated-str", "best-plain-above-bound", "best-cfree-value-without-edges"])
def test_checkpoint_refuses_malformed_state_values(tmp_path, kind, edit, match):
    # unchecked, each but the last three would raise a raw AttributeError or
    # TypeError, on load or later in the resumed run.  A version 7 state has
    # no best count and no running-best values: they are derived on load, so
    # the last three are refused as fields that do not exist or values that
    # are not edges or null
    path = tmp_path / "c.json"
    payload = _paused_turan_payload(path) if kind == "turan" else _density_payload(path)
    _refused(path, edit(payload), match)


@pytest.mark.parametrize("kind,field,edges", [
    ("turan", "witnesses", [[1, 2, 99]]),
    ("turan", "witnesses", [[1, 2, 4], [1, 2, 3]]),
    ("turan", "witnesses", [[1, 2, 3], [1, 2, 3]]),
    ("turan", "witnesses", [[2, 1, 3]]),
    ("turan", "witnesses", [[1, 2]]),
    ("density", "best_plain", [[1, 2, 99]]),
    ("density", "best_cfree", [[1, 3, 3]]),
], ids=["witness-out-of-range", "witness-unsorted", "witness-repeated-edge",
        "witness-decreasing-edge", "witness-short-edge", "best-plain-out-of-range",
        "best-cfree-repeated-vertex"])
def test_checkpoint_refuses_edges_that_do_not_fit_the_run(tmp_path, kind, field, edges):
    # unchecked, the first one loads on n = 6 (turan) or n = 5 (density) and
    # the resumed run's result() raises a raw ValueError
    path = tmp_path / "c.json"
    payload = _paused_turan_payload(path) if kind == "turan" else _density_payload(path)
    payload["state"][field] = [edges] if kind == "turan" else edges
    _refused(path, payload, "graph does not fit the run")
    # the same payload with its edges in order loads
    payload["state"][field] = [[[1, 2, 3], [1, 2, 4]]] if kind == "turan" else [[1, 2, 3]]
    path.write_text(json.dumps(payload))
    checkpoint_resume(path)


def _paused_payload(path, run, nodes):
    """``run`` paused at ``nodes`` nodes and saved to ``path``; returns the
    saved payload."""
    assert not run.run(max_nodes=nodes)
    checkpoint_save(run, path)
    return json.loads(path.read_text())


def _forge_density_value(state):
    # a running best with a value above 7/64 beside a genuine survivor
    state["best_plain"] = [0.11, state["best_plain"]]


def _forge_density_clique(state):
    # K_7^3 contains P3
    state["best_plain"] = [list(e) for e in complete(7).edges]


def _forge_turan_best(state):
    state["best"] = 15


def _forge_turan_witness(state):
    # K_5^3 contains F5
    state["witnesses"] = [[list(e) for e in complete(5).edges]]


# each forgery resumed to a false exact report while the state stored
# values it could derive and checked them apart from the run's own tests
@pytest.mark.parametrize("make,nodes,forge,match,argv", [
    (lambda: DensityRun("P4", 9), 100, _forge_density_value, r"\['best_plain'\]",
     ["density", "--pattern", "P4", "--n", "9"]),
    (lambda: DensityRun("P3", 7), 100, _forge_density_clique, "which the include test refuses",
     ["density", "--pattern", "P3", "--n", "7"]),
    (lambda: TuranRun(6, (named("F5"),)), 50, _forge_turan_best, "state fields",
     ["turan", "--n", "6", "--forbid", "F5"]),
    (lambda: TuranRun(6, (named("F5"),)), 50, _forge_turan_witness,
     "which the include test refuses", ["turan", "--n", "6", "--forbid", "F5"]),
], ids=["density-P4-9-value-0.11", "density-P3-7-best-K7", "turan-F5-6-best-15",
        "turan-F5-6-witness-K5"])
def test_checkpoint_refuses_a_forged_result(tmp_path, make, nodes, forge, match, argv):
    path = tmp_path / "c.json"
    payload = _paused_payload(path, make(), nodes)
    forge(payload["state"])
    _refused(path, payload, match)
    saved = path.read_text()
    assert main([*argv, "--checkpoint", str(path)]) == 1
    assert path.read_text() == saved


def test_checkpoint_derives_a_running_best_value_from_its_edges(tmp_path):
    # a running best is stored as its edges alone, and its value is the one
    # the run's valuation gives them, as when the run optimized them
    path = tmp_path / "c.json"
    run = DensityRun("P4", 9)
    payload = _paused_payload(path, run, 200)
    assert run.best_plain[0] == 7 / 64 > run.best_cfree[0] > 0
    assert checkpoint_resume(path).best_plain == run.best_plain
    payload["state"]["best_plain"] = payload["state"]["best_cfree"]
    path.write_text(json.dumps(payload))
    assert checkpoint_resume(path).best_plain == run.best_cfree


def test_checkpoint_refuses_witnesses_of_unequal_sizes(tmp_path):
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    payload["state"]["witnesses"] = [[[1, 2, 3]], [[1, 2, 3], [1, 2, 4]]]
    _refused(path, payload, r"unequal sizes \[1, 2\]")
    # either alone loads, and its size is the best count
    for w in payload["state"]["witnesses"]:
        path.write_text(json.dumps({**payload, "state": {**payload["state"], "witnesses": [w]}}))
        assert checkpoint_resume(path).best == len(w)


def test_checkpoint_refuses_a_clique_free_best_holding_the_clique(tmp_path):
    # K_6^3 is P3-free and left-compressed, so it may be the plain running
    # best of a P3 run on 7 vertices, but it is the reference clique
    path = tmp_path / "c.json"
    payload = _paused_payload(path, DensityRun("P3", 7), 100)
    k6 = [list(e) for e in complete(6).edges]
    payload["state"]["best_cfree"] = k6
    _refused(path, payload, "best_cfree holds the reference clique K_6")
    payload["state"]["best_cfree"] = None
    payload["state"]["best_plain"] = k6
    path.write_text(json.dumps(payload))
    assert checkpoint_resume(path).best_plain[1] == complete(6).edges


def test_checkpoint_refuses_a_running_best_outside_the_left_compressed_space(tmp_path):
    # {1, 2, 4} without its lower cover {1, 2, 3} is no down-set
    path = tmp_path / "c.json"
    payload = _paused_payload(path, DensityRun("P3", 7), 100)
    payload["state"]["best_plain"] = [[1, 2, 4]]
    _refused(path, payload, r"includes \(1, 2, 4\) without all its lower covers")


def test_checkpoint_state_fields_are_all_checked_and_in_the_schema():
    # every field a state holds is checked on resume and described by the
    # schema, and the schema describes no other
    schema = json.loads((Path(__file__).resolve().parent.parent / "docs" / "schemas"
                         / "checkpoint.schema.json").read_text())
    runs = (TuranRun(5, (named("F5"),)), DensityRun("P2", 5))
    for run in runs:
        written = set(run.to_state())
        assert written == {"decisions", "stats"} | (written & set(search_mod._STATE_VALUES))
        assert written == set(schema["$defs"][f"{run.kind}_state"]["properties"])
    assert ({"decisions", "stats"} | set(search_mod._STATE_VALUES)
            == set().union(*(run.to_state() for run in runs)))


@pytest.mark.parametrize("part", ["space", "state"])
def test_checkpoint_refuses_a_payload_missing_a_part(tmp_path, part):
    path = tmp_path / "t.json"
    payload = _paused_turan_payload(path)
    del payload[part]
    _refused(path, payload, "parts")


def _edited_space(path, kind, edit):
    if kind == "turan":
        payload = _paused_turan_payload(path)
    else:
        checkpoint_save(DensityRun("P2", 5, "all"), path)
        payload = json.loads(path.read_text())
    edit(payload["space"])
    return payload


@pytest.mark.parametrize("kind,edit,match", [
    ("density", lambda sp: sp.pop("kind"), "unknown checkpoint kind None"),
    ("turan", lambda sp: sp.pop("kind"), "unknown checkpoint kind None"),
    ("density", lambda sp: sp.pop("n"), "describes no run: KeyError"),
    ("turan", lambda sp: sp.pop("n"), "describes no run: KeyError"),
    ("density", lambda sp: sp.pop("pattern"), "describes no run: KeyError"),
    ("density", lambda sp: sp.pop("mode"), "describes no run: KeyError"),
    ("turan", lambda sp: sp.pop("forbidden"), "describes no run: KeyError"),
    ("density", lambda sp: sp.update(pattern="P9"), "describes no run"),
    ("density", lambda sp: sp.update(mode="some"), "describes no run"),
    ("density", lambda sp: sp.update(n="5"), "describes no run"),
    ("turan", lambda sp: sp["forbidden"][0].pop("edges"), "describes no run"),
    ("turan", lambda sp: sp["forbidden"][0]["edges"].append([1, 2]), "describes no run"),
    ("turan", lambda sp: sp.update(r=2), "not that of the run"),
    ("density", lambda sp: sp.pop("seed"), "describes no run: KeyError"),
    ("density", lambda sp: sp.update(config={"restarts": 64, "seed": 0, "kkt_tol": 1e-8}),
     "not that of the run"),
    ("density", lambda sp: sp.update(shards=2), "not that of the run"),
], ids=["density-kind", "turan-kind", "density-n", "turan-n", "pattern", "mode", "forbidden",
        "pattern-P9", "unknown-mode", "n-not-int", "forbidden-edges", "forbidden-bad-edge",
        "turan-r", "seed", "config", "unknown-key"])
def test_checkpoint_refuses_a_malformed_space(tmp_path, kind, edit, match):
    path = tmp_path / "c.json"
    _refused(path, _edited_space(path, kind, edit), match)


def test_checkpoint_space_mismatch(tmp_path):
    path = tmp_path / "c.json"
    checkpoint_save(DensityRun("P3", 7), path)
    with pytest.raises(CheckpointError, match="mismatch"):
        checkpoint_resume(path, expect_space={"n": 6})
    with pytest.raises(CheckpointError, match="mismatch"):
        checkpoint_resume(path, expect_space={"pattern": "P4", "n": 7})


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "c.json"
    checkpoint_save(DensityRun("P2", 5), path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_resume(path)
    # a version 2 decision list belongs to the tree without the lex-leader cut
    assert CHECKPOINT_VERSION == 9
    payload["version"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_resume(path)
