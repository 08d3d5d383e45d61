import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlag.hypergraph import (
    Hypergraph,
    VertexPartition,
    blowup,
    complete,
    complete_minus,
    compress,
    covers_pairs,
    equivalence_classes,
    extension,
    induced,
    is_left_compressed,
    linear_path,
    link_diff,
    lower_covers,
    matching,
    named,
    new,
    relabel,
    shadow,
    turan_blowup,
    turan_count,
)
from hyperlag.search import enumerate_left_compressed


@st.composite
def hypergraphs(draw, max_n=7, r=3):
    n = draw(st.integers(min_value=r, max_value=max_n))
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = draw(st.sets(st.sampled_from(pool)))
    return Hypergraph(r, n, tuple(sorted(edges)))


def test_new_basic():
    g = new(3, 4, [{1, 2, 3}])
    assert g.edges == ((1, 2, 3),)
    assert g.n == 4


def test_new_collapses_duplicates():
    g = new(3, 3, [(1, 2, 3), (3, 2, 1)])
    assert g.edges == ((1, 2, 3),)


def test_new_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"4 > n=3"):
        new(3, 3, [(1, 2, 4)])


def test_new_rejects_repeats_and_arity():
    with pytest.raises(ValueError):
        new(3, 5, [(1, 1, 2)])
    with pytest.raises(ValueError):
        new(3, 5, [(1, 2)])
    with pytest.raises(ValueError):
        new(1, 5, [])


def test_complete_counts():
    assert len(complete(4, 3).edges) == 4
    assert len(complete(6, 3).edges) == 20
    with pytest.raises(ValueError):
        complete(2, 3)


def test_complete_minus_removes_colex_largest():
    g = complete_minus(4, 3)
    assert g.edges == ((1, 2, 3), (1, 2, 4), (1, 3, 4))


def test_linear_path_layout():
    assert linear_path(3).edges == ((1, 2, 3), (3, 4, 5), (5, 6, 7))
    assert linear_path(1).edges == ((1, 2, 3),)
    p4 = linear_path(4)
    assert p4.n == 9 and len(p4.edges) == 4


def test_named_graphs():
    assert named("F5").edges == ((1, 2, 3), (1, 2, 4), (3, 4, 5))
    f3 = named("F3")
    assert f3.n == 9 and len(f3.edges) == 4
    degs = f3.degrees()
    assert degs[0] == degs[1] == degs[2] == 2
    assert matching(2).edges == ((1, 2, 3), (4, 5, 6))
    f1, f2 = named("F1"), named("F2")
    assert (f1.n, len(f1.edges)) == (10, 4)
    assert (f2.n, len(f2.edges)) == (10, 4)
    with pytest.raises(ValueError):
        named("F9")


def test_shadow():
    for t in range(3, 8):
        assert shadow(complete(t, 3)) == complete(t, 2)
    assert shadow(complete(6, 4)) == complete(6, 2)
    assert len(shadow(linear_path(3)).edges) == 9
    g = new(2, 5, [(1, 2), (2, 3), (4, 5)])
    assert shadow(g) == g
    assert shadow(new(3, 4, [])) == new(2, 4, [])


def test_covers_pairs():
    assert covers_pairs(complete(4, 3))
    assert not covers_pairs(linear_path(3))
    assert not covers_pairs(named("F5"))


def test_link_diff():
    assert link_diff(new(3, 4, [(2, 3, 4)]), 2, 1) == {(3, 4)}
    assert link_diff(complete(4, 3), 2, 1) == frozenset()
    assert link_diff(new(3, 4, [(1, 2, 3), (1, 2, 4)]), 4, 3) == frozenset()
    with pytest.raises(ValueError):
        link_diff(complete(4, 3), 2, 2)


def test_compress_examples():
    assert compress(new(3, 4, [(2, 3, 4)]), 1, 2).edges == ((1, 3, 4),)
    assert compress(complete(4, 3), 1, 2) == complete(4, 3)
    assert compress(new(3, 5, [(1, 2, 3), (1, 4, 5)]), 2, 4).edges == ((1, 2, 3), (1, 2, 5))


@given(hypergraphs())
def test_compress_preserves_edge_count(g):
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            if i != j:
                assert len(compress(g, i, j).edges) == len(g.edges)


def test_is_left_compressed_examples():
    assert is_left_compressed(complete(5, 3))
    assert not is_left_compressed(new(3, 5, [(3, 4, 5)]))
    assert is_left_compressed(new(3, 5, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4)]))


def _dominated_down(e, n):
    for f in itertools.combinations(range(1, n + 1), len(e)):
        if all(f[k] <= e[k] for k in range(len(e))):
            yield f


@given(hypergraphs(max_n=6))
def test_left_compressed_iff_dominance_downset(g):
    es = g.edge_set()
    downset = all(f in es for e in g.edges for f in _dominated_down(e, g.n))
    assert is_left_compressed(g) == downset


def _no_compression_moves(g):
    """The link_diff scan is_left_compressed once was, kept as its oracle:
    no compression toward a smaller index moves an edge."""
    return not any(link_diff(g, j, i) for j in range(2, g.n + 1) for i in range(1, j))


@st.composite
def _near_downsets(draw):
    """A down-set closed from a few seeds, with maybe one edge dropped and
    one added, so both verdicts come up often."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 7))
    pool = list(itertools.combinations(range(1, n + 1), r))
    closure = set()
    stack = list(draw(st.sets(st.sampled_from(pool), max_size=4)))
    while stack:
        e = stack.pop()
        if e not in closure:
            closure.add(e)
            stack.extend(lower_covers(e))
    drop = draw(st.sets(st.sampled_from(sorted(closure)), max_size=1)) if closure else set()
    add = draw(st.sets(st.sampled_from(pool), max_size=1))
    return Hypergraph(r, n, tuple(sorted((closure - drop) | add)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(2, 4).flatmap(lambda r: hypergraphs(max_n=7, r=r)), _near_downsets()))
def test_left_compressed_matches_compression_scan(g):
    assert is_left_compressed(g) == _no_compression_moves(g)


@pytest.mark.parametrize("n", [5, 6])
def test_every_downset_passes_both_definitions(n):
    downsets = []
    enumerate_left_compressed(n, 3, visit=downsets.append)
    for edges in downsets:
        g = Hypergraph(3, n, edges)
        assert is_left_compressed(g) and _no_compression_moves(g)
        for e in edges:
            # one edge fewer is a down-set exactly when no edge covers it
            h = Hypergraph(3, n, tuple(f for f in edges if f != e))
            assert is_left_compressed(h) == _no_compression_moves(h)


def test_induced():
    assert induced(complete(6, 3), range(1, 5)) == complete(4, 3)
    assert induced(linear_path(3), [1, 2, 3, 4]).edges == ((1, 2, 3),)
    assert induced(complete(4, 3), []) == Hypergraph(3, 0, ())


@given(hypergraphs())
def test_induced_identity_and_monotone(g):
    assert induced(g, range(1, g.n + 1)) == g
    sub = induced(g, range(1, g.n))
    assert len(sub.edges) <= len(g.edges)


def test_blowup_and_turan_counts():
    assert turan_count(3, 3, 6) == 8
    assert turan_count(4, 3, 5) == 7
    assert turan_blowup(6, 3, 6) == complete(6, 3)
    assert turan_count(3, 3, 7) == 2 * 2 * 3
    # with fewer vertices than classes the classes have sizes 0 and 1
    assert turan_count(2000, 3, 6) == comb(6, 3)


@given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 15))
def test_turan_count_matches_blowup(r, extra, n):
    m = r + extra
    assert turan_count(m, r, n) == len(turan_blowup(m, r, n).edges)


@given(hypergraphs(max_n=5), st.lists(st.integers(0, 2), min_size=5, max_size=5))
@settings(max_examples=40)
def test_blowup_edge_count_formula(g, sizes):
    sizes = sizes[: g.n]
    b = blowup(g, sizes)
    expect = 0
    for e in g.edges:
        p = 1
        for v in e:
            p *= sizes[v - 1]
        expect += p
    assert len(b.edges) == expect


def test_extension_examples():
    assert extension(named("T2")).edges == named("F5").edges
    h = extension(linear_path(3))
    assert h.n == 19 and len(h.edges) == 15
    assert extension(complete(4, 3)) == complete(4, 3)


@given(hypergraphs(max_n=6))
@settings(max_examples=60)
def test_extension_covers_base_pairs_disjoint_fresh(g):
    h = extension(g)
    covered = set()
    for e in h.edges:
        covered.update(itertools.combinations(e, 2))
    for p in itertools.combinations(range(1, g.n + 1), 2):
        assert p in covered
    fresh_edges = [e for e in h.edges if e not in g.edge_set()]
    fresh_sets = [tuple(v for v in e if v > g.n) for e in fresh_edges]
    flat = [v for s in fresh_sets for v in s]
    assert len(flat) == len(set(flat))


def test_equivalence_classes_examples():
    assert equivalence_classes(complete(5, 3)).classes == ((1, 2, 3, 4, 5),)
    assert equivalence_classes(complete_minus(6, 3)).classes == ((1, 2, 3), (4, 5, 6))
    assert equivalence_classes(linear_path(3)).classes == ((1, 2), (3,), (4,), (5,), (6, 7))


def test_vertex_partition_validation():
    with pytest.raises(ValueError):
        VertexPartition(3, ((1, 2),))
    with pytest.raises(ValueError):
        VertexPartition(2, ((1, 2), (2,)))


def test_relabel_roundtrip():
    g = linear_path(2)
    perm = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    inv = {v: k for k, v in perm.items()}
    assert relabel(relabel(g, perm), inv) == g


def test_structural_equality_and_hash():
    a = new(3, 5, [(1, 2, 3), (2, 3, 4)])
    b = new(3, 5, [(2, 3, 4), (3, 2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != new(3, 6, [(1, 2, 3), (2, 3, 4)])
