import itertools
import json

import pytest

from hyperlag.freeness import contains, creates_linear_path, is_free
import hyperlag.search as search_mod
from hyperlag.hypergraph import (
    Hypergraph,
    complete,
    complete_minus,
    is_left_compressed,
    linear_path,
    named,
    new,
    relabel,
)
from hyperlag.search import (
    CheckpointError,
    DensityRun,
    TuranRun,
    canonical_form,
    checkpoint_resume,
    checkpoint_save,
    colex_ground,
    density_evidence,
    enumerate_all,
    enumerate_left_compressed,
    isomorphic,
    lower_covers,
    turan_number,
)

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
    reps = []
    enumerate_all(4, 3, visit=lambda e: reps.append(e), up_to_iso=True)
    # subsets of the 4-edge clique up to symmetry: one per edge count
    assert len(reps) == 5


def test_canonical_form_identifies_relabelings():
    g = new(3, 5, [(1, 2, 3), (3, 4, 5)])
    h = relabel(g, {1: 5, 2: 4, 3: 3, 4: 2, 5: 1})
    assert canonical_form(g) == canonical_form(h)
    assert isomorphic(g, h)
    assert not isomorphic(g, new(3, 5, [(1, 2, 3), (1, 2, 4)]))
    with pytest.raises(ValueError):
        canonical_form(complete(8, 3))


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


def test_turan_whole_space_oracle_agreement():
    res = turan_number(5, [named("F5")])
    best = -1
    wit = set()

    def visit(edges):
        nonlocal best, wit
        g = Hypergraph(3, 5, edges)
        if is_free(g, named("F5")):
            c = len(edges)
            if c > best:
                best, wit = c, set()
            if c == best:
                wit.add(canonical_form(g).edges)

    enumerate_all(5, 3, visit=visit)
    assert best == res.max_edges
    assert wit == {w.edges for w in res.witnesses}


def test_turan_single_edge_pattern():
    assert turan_number(4, [new(3, 3, [(1, 2, 3)])]).max_edges == 0


def test_turan_monotone_in_n():
    f5 = [named("F5")]
    assert turan_number(5, f5).max_edges >= turan_number(4, f5).max_edges


def test_turan_witnesses_are_free():
    res = turan_number(5, [named("T2")])
    for w in res.witnesses:
        assert is_free(w, named("T2"))
        assert len(w.edges) == res.max_edges


def test_turan_budget_degrades_to_lower_bound():
    res = turan_number(5, [named("F5")], max_nodes=10)
    assert res.status == "lower_bound"
    assert res.max_edges <= 6


def test_turan_shard_determinism():
    base = turan_number(5, [named("F5")])
    for shards, threads in ((2, 1), (4, 2), (8, 2)):
        sharded = turan_number(5, [named("F5")], shards=shards, threads=threads)
        assert sharded.max_edges == base.max_edges
        assert tuple(w.edges for w in sharded.witnesses) == tuple(w.edges for w in base.witnesses)
        assert sharded.status == "exact"


def test_turan_shard_determinism_with_forbidden_prefixes():
    # deep sharding makes some prefixes contain the pattern already; those
    # shards cover only pruned subtrees and must contribute nothing
    for pattern in (named("T2"), linear_path(2)):
        base = turan_number(5, [pattern])
        sharded = turan_number(5, [pattern], shards=256, threads=2)
        assert sharded.max_edges == base.max_edges
        assert tuple(w.edges for w in sharded.witnesses) == tuple(w.edges for w in base.witnesses)
        assert sharded.status == "exact"


def test_turan_six_f5_pinned_report():
    # frozen from the vertex-backtracking matcher the bitmask one replaced
    res = turan_number(6, [named("F5")])
    assert res.max_edges == 10 and res.status == "exact"
    assert res.stats.to_json() == {"nodes": 6294, "leaves": 44, "pruned": 3965, "bound_cuts": 2286}
    star = tuple((1, a, b) for a, b in itertools.combinations(range(2, 7), 2))
    assert tuple(w.edges for w in res.witnesses) == (star,)


def test_turan_six_k4_minus_pinned_report():
    res = turan_number(6, [complete_minus(4)])
    assert res.max_edges == 10 and res.status == "exact"
    assert res.stats.to_json() == {"nodes": 13173, "leaves": 203, "pruned": 6925, "bound_cuts": 6046}
    assert tuple(w.edges for w in res.witnesses) == ((
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)),)


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


def test_density_every_survivor_mode_agrees():
    fast = density_evidence("P2", 5, "all")
    slow = density_evidence("P2", 5, "all", evaluate_every_survivor=True)
    assert fast.max_lambda == pytest.approx(1 / 16, abs=1e-9)
    assert fast.max_lambda == pytest.approx(slow.max_lambda, abs=1e-10)
    assert fast.max_lambda_complete_free == pytest.approx(slow.max_lambda_complete_free, abs=1e-10)


def test_density_p3_eleven_pinned_report():
    rep = density_evidence("P3", 11)
    assert rep.counts == {"nodes": 63356, "survivors": 787, "pruned": 29, "optimized": 7}
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
    assert rep.counts == {"nodes": 40682, "survivors": 2431, "pruned": 0, "optimized": 2}
    assert rep.max_lambda == pytest.approx(7 / 64, abs=1e-12)
    assert rep.argmax_graph == complete(8, 3)
    assert rep.max_lambda_complete_free == pytest.approx(0.10767488654714333, abs=1e-12)
    assert rep.argmax_complete_free == complete_minus(8)
    assert rep.status == "exact"


def test_density_budget_marks_partial():
    rep = density_evidence("P2", 5, "all", max_nodes=5)
    assert rep.status == "partial"


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
    run = TuranRun(5, (named("F5"),))
    assert not run.run(max_nodes=30)
    checkpoint_save(run, path)
    resumed = checkpoint_resume(path)
    res = resumed.execute()
    base = turan_number(5, [named("F5")])
    assert res.to_json() == base.to_json()


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
