"""Each workload's checker passes a right report and rejects one with a
single value wrong; a cut-down round of every workload passes its checks
on the program's real outputs."""

import copy
import dataclasses
import itertools

import pytest

import oracles
import workloads


def _graph(n, edges):
    return {"r": 3, "n": n, "edges": [list(e) for e in sorted(edges)]}


def _triples(t):
    return list(itertools.combinations(range(1, t + 1), 3))


# -- density-paths ----------------------------------------------------------


@pytest.fixture(scope="module")
def density_ref():
    return workloads.DensityPaths().reference(None)


def _density_report(t, n, ref):
    clique = 2 * t
    minus = _triples(clique)[:-1]
    return {"space": {}, "counts": {"nodes": 1, "survivors": 1, "optimized": 1},
            "max_lambda": ref[f"K{clique}"], "argmax_graph": _graph(n, _triples(clique)),
            "max_lambda_complete_free": ref[f"K{clique}-"], "argmax_complete_free": _graph(n, minus),
            "separations": {}, "status": "exact"}


@pytest.mark.parametrize("t,n", [(3, 7), (3, 12), (4, 9)])
def test_density_check(t, n, density_ref):
    good = _density_report(t, n, density_ref)
    assert workloads.check_density(t, n, 0, good, density_ref) == []
    for mutate in (lambda r: r.__setitem__("max_lambda", r["max_lambda"] + 1e-4),
                   lambda r: r.__setitem__("max_lambda_complete_free", r["max_lambda"]),
                   lambda r: r.__setitem__("status", "partial"),
                   lambda r: r["argmax_graph"]["edges"].pop(),
                   lambda r: r["argmax_complete_free"]["edges"].append([1, 2, n]),
                   lambda r: r.pop("argmax_graph")):
        bad = copy.deepcopy(good)
        mutate(bad)
        assert workloads.check_density(t, n, 0, bad, density_ref)
    assert workloads.check_density(t, n, 3, good, density_ref)


def test_density_check_bounds_the_clique_free_maximum(density_ref):
    above = _density_report(3, 12, density_ref)
    above["max_lambda_complete_free"] += 1e-6          # allowed above K6^- for n > 7 ...
    assert workloads.check_density(3, 12, 0, above, density_ref) == []
    assert workloads.check_density(3, 7, 0, _retag(above, 7), density_ref)   # ... but not on 7
    below = _density_report(3, 12, density_ref)
    below["max_lambda_complete_free"] -= 1e-6
    assert workloads.check_density(3, 12, 0, below, density_ref)


def _retag(report, n):
    out = copy.deepcopy(report)
    for key in ("argmax_graph", "argmax_complete_free"):
        out[key]["n"] = n
    return out


def test_density_check_rejects_a_path_in_the_argmax(density_ref):
    bad = _density_report(3, 7, density_ref)
    bad["argmax_complete_free"]["edges"].append([5, 6, 7])     # K6^- plus an edge through 7
    assert any("linear path" in p for p in workloads.check_density(3, 7, 0, bad, density_ref))


# -- turan-small ------------------------------------------------------------


@pytest.fixture(scope="module")
def turan_ref():
    wl = workloads.TuranSmall()
    return wl.reference(wl.build(0))


def _turan_report(name, ref):
    pn, pe = {p: (pn, pe) for p, pn, pe in workloads.TuranSmall.PATTERNS}[name]
    tri = ref["triples"]
    want = ref["extremal"][name]
    return {"n": 6, "forbidden": [_graph(pn, pe)], "max_edges": want["max_edges"],
            "witnesses": [_graph(6, tri.edges(c)) for c in want["classes"]],
            "status": "exact", "stats": {"nodes": 1, "leaves": 1}}


@pytest.mark.parametrize("name", ["F5", "K4-"])
def test_turan_check(name, turan_ref):
    good = _turan_report(name, turan_ref)
    pn = 5 if name == "F5" else 4
    assert workloads.check_turan(name, pn, 0, good, turan_ref) == []
    plus_one = copy.deepcopy(good)
    plus_one["max_edges"] += 1
    dropped = copy.deepcopy(good)
    dropped["witnesses"].pop()
    doubled = copy.deepcopy(good)
    doubled["witnesses"].append(doubled["witnesses"][0])
    other = copy.deepcopy(good)
    other["forbidden"] = [_graph(3, [(1, 2, 3)])]
    for bad in (plus_one, dropped, doubled, other):
        assert workloads.check_turan(name, pn, 0, bad, turan_ref)


def test_turan_check_rejects_a_witness_outside_the_class(turan_ref):
    bad = _turan_report("F5", turan_ref)
    bad["witnesses"] = [_graph(6, _triples(5))]         # ten edges, but holds F5
    assert workloads.check_turan("F5", 5, 0, bad, turan_ref)


# -- forbidden-configs ------------------------------------------------------


def test_embedding_check():
    n, f1 = oracles.linear_forest((2, 2))
    image = [4, 9, 1, 7, 2, 10, 3, 6, 5, 8]
    host = [tuple(sorted(image[v - 1] for v in e)) for e in f1] + [(1, 5, 9)]
    hit = {"assignment": {str(v): image[v - 1] for v in range(1, n + 1)}}
    assert workloads.check_embedding("c", "F1", n, f1, host, True, hit) == []
    assert workloads.check_embedding("c", "F1", n, f1, host, True, None)      # None on a hit control
    assert workloads.check_embedding("h", "F1", n, f1, host, False, hit)      # a hit where none exists
    assert workloads.check_embedding("h", "F1", n, f1, host, False, None) == []
    swapped = {"assignment": {**hit["assignment"], "1": image[4]}}
    assert workloads.check_embedding("c", "F1", n, f1, host, True, swapped)


# -- lambda-corpus ----------------------------------------------------------


def test_lambda_check():
    k5 = _triples(5)
    good = {"value": 10 / 125, "weights": [0.2] * 5}
    assert workloads.check_lambda("K", 5, k5, 10 / 125, good) == []
    assert workloads.check_lambda("K", 5, k5, 10 / 125, {**good, "value": good["value"] - 1e-6})
    assert workloads.check_lambda("K", 5, k5, 10 / 125, {**good, "weights": [0.25] * 4 + [0.0]})
    k4m = [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
    w = [1 / 3, 2 / 9, 2 / 9, 2 / 9]
    best = oracles.replicator_best(4, k4m, starts=7, iterations=400, seed=0)
    right = {"value": oracles.evaluate(k4m, w), "weights": w}
    assert workloads.check_lambda("random3", 4, k4m, best, right) == []
    assert workloads.check_lambda("random3", 4, k4m, best, {**right, "value": right["value"] - 1e-6})
    low = [0.25] * 4                        # a real point, but below the replicator's value
    assert workloads.check_lambda("random3", 4, k4m, best, {"value": oracles.evaluate(k4m, low), "weights": low})
    assert workloads.check_lambda("K-", 4, k4m, 4 / 81, {**right, "value": right["value"] - 1e-6})
    g2 = [(1, 2), (2, 3), (1, 3), (3, 4)]
    tri = [1 / 3, 1 / 3, 1 / 3, 0.0]
    assert workloads.check_lambda("random2", 4, g2, 1 / 3, {"value": 1 / 3, "weights": tri}) == []
    assert workloads.check_lambda("random2", 4, g2, 1 / 3, {"value": 1 / 3 - 1e-6, "weights": tri})


def test_blowup_recognition():
    from hyperlag import hypergraph

    g = hypergraph.turan_blowup(4, 3, 10)
    assert workloads._is_balanced_blowup(g, 4, 10)
    assert not workloads._is_balanced_blowup(g, 5, 10)
    assert not workloads._is_balanced_blowup(hypergraph.new(3, 10, g.edges[1:]), 4, 10)
    unbalanced = hypergraph.blowup(hypergraph.complete(4), [1, 1, 1, 7])
    assert not workloads._is_balanced_blowup(unbalanced, 4, 10)


# -- cut-down rounds on real outputs ----------------------------------------


class _SmallDensity(workloads.DensityPaths):
    CASES = ((3, 7),)


class _SmallTuran(workloads.TuranSmall):
    PATTERNS = workloads.TuranSmall.PATTERNS[:1]


class _SmallForbidden(workloads.ForbiddenConfigs):
    HOSTS = 2
    CONTROLS = 2


class _SmallLambda(workloads.LambdaCorpus):
    BLOWUPS = ((3, 7),)
    RANDOM2 = 3
    RANDOM3 = 3


@pytest.mark.parametrize("cls", [_SmallDensity, _SmallTuran, _SmallForbidden, _SmallLambda])
def test_round_on_real_outputs(cls):
    wl = cls()
    inputs = wl.build(11)
    ref = wl.reference(inputs)
    assert ref["input_problems"] == []
    problems = wl.check(inputs, ref, wl.run(inputs))
    assert problems and all(p == [] for p in problems), problems


def test_lambda_round_rejects_a_lowered_value():
    wl = _SmallLambda()
    inputs = wl.build(11)
    ref = wl.reference(inputs)
    outputs = wl.run(inputs)
    for i in range(len(outputs)):
        bad = list(outputs)
        bad[i] = dataclasses.replace(bad[i], value=bad[i].value - 1e-6)
        problems = wl.check(inputs, ref, bad)
        assert problems[i] and all(p == [] for j, p in enumerate(problems) if j != i)


def test_forbidden_round_rejects_none_on_a_hit_control():
    wl = _SmallForbidden()
    inputs = wl.build(11)
    ref = wl.reference(inputs)
    outputs = wl.run(inputs)
    controls = [i for i, (label, _, _) in enumerate(inputs["ops"]) if label.startswith("control")]
    assert controls and all(outputs[i] is not None for i in controls)
    bad = list(outputs)
    bad[controls[0]] = None
    assert wl.check(inputs, ref, bad)[controls[0]]
