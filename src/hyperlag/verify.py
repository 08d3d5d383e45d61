"""The bundled verification suite.

Each check recomputes a published quantity or a structural claim from
scratch and compares at a pinned tolerance.  The suite is the single
implementation behind both the ``hyperlag verify`` command and the
acceptance test module, whose tests each assert the checks of one
criterion; checks are deterministic given the seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import corpora
from .freeness import contains
from .hypergraph import (
    Hypergraph,
    complete,
    complete_minus,
    compress,
    covers_pairs,
    extension,
    is_left_compressed,
    linear_path,
    named,
    new,
    shadow,
    turan_blowup,
    turan_count,
)
from .lagrangian import (
    check_seed,
    closed_form,
    evaluate,
    gradient,
    maximize,
    motzkin_straus,
)
from .search import (
    canonical_form,
    density_evidence,
    enumerate_all,
    enumerate_left_compressed,
    isomorphic,
    turan_number,
)


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {"group": self.group, "name": self.name, "passed": self.passed,
                "detail": self.detail}


@dataclass
class SuiteReport:
    seed: int
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {"seed": self.seed, "passed": self.passed,
                "results": [r.to_json() for r in self.results]}


# ---------------------------------------------------------------------------


def check_closed_forms(seed: int) -> list[CheckResult]:
    out = []
    graphs = {}
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(3, 10):
        g = complete(t, 3)
        res = maximize(g, seed)
        graphs[f"complete-{t}"] = (g, res)
        worst = max(worst, abs(res.value - comb(t, 3) / t**3))
    elapsed = time.perf_counter() - t0
    out.append(CheckResult("closed-forms", "complete-family",
                           worst <= 1e-9 and elapsed < 1.0,
                           {"worst_diff": worst, "elapsed_s": elapsed, "budget_s": 1.0}))

    g4 = complete_minus(4, 3)
    r4 = maximize(g4, seed)
    graphs["near-complete-4"] = (g4, r4)
    out.append(CheckResult("closed-forms", "near-complete-4",
                           abs(r4.value - 4.0 / 81.0) <= 1e-9,
                           {"value": r4.value, "expected": 4.0 / 81.0}))

    g6 = complete_minus(6, 3)
    r6 = maximize(g6, seed)
    graphs["near-complete-6"] = (g6, r6)
    cf6 = closed_form(g6).value
    out.append(CheckResult("closed-forms", "near-complete-6",
                           abs(r6.value - cf6) <= 1e-7 and r6.value < 0.0887,
                           {"value": r6.value, "closed_form": cf6, "strict_bound": 0.0887}))

    g8 = complete_minus(8, 3)
    r8 = maximize(g8, seed)
    graphs["near-complete-8"] = (g8, r8)
    cf8 = closed_form(g8).value
    out.append(CheckResult("closed-forms", "near-complete-8",
                           abs(r8.value - cf8) <= 1e-7 and r8.value < 0.1077,
                           {"value": r8.value, "closed_form": cf8, "strict_bound": 0.1077}))

    worst_kkt = 0.0
    for key, (g, res) in graphs.items():
        grads = gradient(g, res.weighting.weights)
        for v in res.support:
            worst_kkt = max(worst_kkt, abs(grads[v - 1] - 3 * res.value))
    out.append(CheckResult("closed-forms", "kkt-support", worst_kkt <= 1e-6,
                           {"worst_residual": worst_kkt, "tolerance": 1e-6}))
    return out


def check_clique_oracle(seed: int) -> list[CheckResult]:
    count = 500
    rng = np.random.default_rng(seed + 101)
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    for _ in range(count):
        n = int(rng.integers(3, 11))
        p = float(rng.uniform(0.15, 0.85))
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
        g = new(2, n, edges)
        lam, _ = motzkin_straus(g)
        res = maximize(g, seed)
        d = abs(res.value - lam)
        worst = max(worst, d)
        if d > 1e-7:
            failures += 1
    elapsed = time.perf_counter() - t0
    return [CheckResult("clique-oracle", f"random-{count}",
                        failures == 0 and elapsed < 30.0,
                        {"worst_diff": worst, "failures": failures,
                         "elapsed_s": elapsed, "budget_s": 30.0})]


def check_compression_monotone(seed: int) -> list[CheckResult]:
    count = 10_000
    rnd = random.Random(seed + 202)
    violations = 0
    worst = 0.0
    for _ in range(count):
        n = rnd.randint(4, 8)
        g = corpora.random_hypergraph(rnd, n)
        x = corpora.random_simplex_point(rnd, n)
        i = rnd.randint(1, n - 1)
        j = rnd.randint(i + 1, n)
        if x[i - 1] < x[j - 1]:
            x[i - 1], x[j - 1] = x[j - 1], x[i - 1]
        before = evaluate(g, x)
        after = evaluate(compress(g, i, j), x)
        gap = after - before
        worst = min(worst, gap)
        if gap < -1e-12:
            violations += 1
    return [CheckResult("compression-monotone", f"instances-{count}", violations == 0,
                        {"violations": violations, "worst_gap": worst, "tolerance": -1e-12})]


def check_compress_preserve(seed: int) -> list[CheckResult]:
    t0 = time.perf_counter()
    k6 = complete(6, 3)
    survivors: list[tuple] = []
    enumerate_left_compressed(6, 3, visit=lambda e: survivors.append(e))
    checked = 0
    bad_path = 0
    bad_clique = 0
    p3 = linear_path(3)
    for edges in survivors:
        g = Hypergraph(3, 6, edges)
        if not covers_pairs(g):
            continue
        g_k6_free = contains(g, k6) is None
        for i in range(1, 7):
            for j in range(1, 7):
                if i == j:
                    continue
                pg = compress(g, i, j)
                checked += 1
                if contains(pg, p3) is not None:
                    bad_path += 1
                if g_k6_free and contains(pg, k6) is not None:
                    bad_clique += 1
    elapsed = time.perf_counter() - t0
    return [CheckResult("compress-preserve", "exhaustive-n6",
                        bad_path == 0 and bad_clique == 0 and elapsed < 300.0,
                        {"graphs": len(survivors), "compressions": checked,
                         "path_violations": bad_path, "clique_violations": bad_clique,
                         "elapsed_s": elapsed, "budget_s": 300.0})]


def check_short_path_density(seed: int) -> list[CheckResult]:
    # forbidding the length-2 path caps the optimum at the complete graph
    # on four vertices; among survivors avoiding that clique, at its
    # near-complete value
    rep = density_evidence("P2", 6, "all", seed)
    ok = (rep.status == "exact"
          and abs(rep.max_lambda - 1.0 / 16.0) <= 1e-9
          and abs(rep.max_lambda_complete_free - 4.0 / 81.0) <= 1e-9)
    return [CheckResult("short-path-density", "path2-on-six", ok,
                        {"max_lambda": rep.max_lambda, "expected": 1.0 / 16.0,
                         "clique_free": rep.max_lambda_complete_free,
                         "clique_free_expected": 4.0 / 81.0})]


def check_path3_density(seed: int) -> list[CheckResult]:
    t0 = time.perf_counter()
    rep = density_evidence("P3", 7, "left_compressed", seed)
    elapsed = time.perf_counter() - t0
    lam6 = 5.0 / 54.0
    k6_plus_iso = Hypergraph(3, 7, complete(6, 3).edges)
    argmax_ok = rep.argmax_graph is not None and isomorphic(rep.argmax_graph, k6_plus_iso)
    out = [CheckResult("path3-density", "max-is-complete-6",
                       abs(rep.max_lambda - lam6) <= 1e-7 and argmax_ok and elapsed < 3600.0
                       and rep.status == "exact",
                       {"max_lambda": rep.max_lambda, "expected": lam6,
                        "elapsed_s": elapsed, "counts": rep.counts})]
    # the near-complete graph on six vertices is path-free (the path spans
    # seven), clique-free, covers its pairs and is left-compressed, so the
    # clique-free optimum is exactly its closed form
    expected = closed_form(complete_minus(6, 3)).value
    eps_expected = lam6 - expected
    k6_minus_plus_iso = Hypergraph(3, 7, complete_minus(6, 3).edges)
    cargmax_ok = (rep.argmax_complete_free is not None
                  and isomorphic(rep.argmax_complete_free, k6_minus_plus_iso))
    eps = rep.separations["epsilon_observed"]
    out.append(CheckResult("path3-density", "clique-free-separation",
                           abs(rep.max_lambda_complete_free - expected) <= 1e-7
                           and cargmax_ok
                           and eps is not None and abs(eps - eps_expected) <= 1e-7 and eps > 0,
                           {"max_lambda_clique_free": rep.max_lambda_complete_free,
                            "expected": expected,
                            "argmax_is_complete_minus_6": cargmax_ok,
                            "observed_epsilon": eps,
                            "expected_epsilon": eps_expected}))
    # the same search over every labelled graph, with no compression lemma
    # behind it, must find the same maxima and argmax classes
    full = density_evidence("P3", 7, "all", seed)
    # both reports give canonical forms, so equal classes are equal graphs
    same_argmax = ((full.argmax_graph, full.argmax_complete_free)
                   == (rep.argmax_graph, rep.argmax_complete_free))
    out.append(CheckResult("path3-density", "all-mode-equals-left-compressed",
                           rep.status == full.status == "exact" and same_argmax
                           and abs(full.max_lambda - rep.max_lambda) <= 1e-12
                           and abs(full.max_lambda_complete_free
                                   - rep.max_lambda_complete_free) <= 1e-12,
                           {"max_lambda": full.max_lambda,
                            "max_lambda_clique_free": full.max_lambda_complete_free,
                            "same_argmax_classes": same_argmax,
                            "counts": full.counts}))
    return out


def check_path4_evidence(seed: int) -> list[CheckResult]:
    out = []
    k8 = complete(8, 3)
    res8 = maximize(k8, seed)
    lower_ok = contains(k8, linear_path(4)) is None and abs(6 * res8.value - 21.0 / 32.0) <= 1e-9
    out.append(CheckResult("path4-evidence", "lower-bound-8", lower_ok,
                           {"six_lambda": 6 * res8.value, "expected": 21.0 / 32.0}))

    # each member must be what the family claims to be and stay under
    # both caps
    cap_all = 7.0 / 64.0 + 1e-9
    cap_free = max(2.0 / 27.0, 1250.0 / 11907.0) + 1e-7
    t0 = time.perf_counter()
    family = corpora.covering_path4_free_9()
    members = []
    for g in family:
        # a K_8^3 sits on one of the nine 8-subsets: test each directly,
        # so the check does not rest on the matcher it also exercises
        es = g.edge_set()
        has_k8 = any(all(e in es for e in itertools.combinations(vs, 3))
                     for vs in itertools.combinations(range(1, g.n + 1), 8))
        lam = maximize(g, seed).value
        members.append({
            "non_star_edges": [list(e) for e in g.edges if e[0] != 1],
            "lambda": lam,
            "has_k8": has_k8,
            "passed": (contains(g, linear_path(4)) is None and is_left_compressed(g)
                       and covers_pairs(g) and lam <= cap_all
                       and (has_k8 or lam <= cap_free)),
        })
    elapsed = time.perf_counter() - t0
    out.append(CheckResult("path4-evidence", "covering-nine-exhaustive",
                           len(family) == 9 and all(m["passed"] for m in members),
                           {"members": members, "family_size": len(family),
                            "largest_lambda": max(m["lambda"] for m in members),
                            "cap": cap_all, "clique_free_cap": cap_free,
                            "elapsed_s": elapsed}))
    return out


def apex_fan_clique() -> Hypergraph:
    """The 14-edge graph: complete on [5] plus the fan {1,x,6} for x in
    2..5.  It has a clique of order five and at most C(5,3)+C(4,2) edges,
    so its optimum equals the clique's."""
    edges = list(complete(5, 3).edges) + [(1, x, 6) for x in range(2, 6)]
    return new(3, 6, edges)


def check_clique_extension_value(seed: int) -> list[CheckResult]:
    g = apex_fan_clique()
    res = maximize(g, seed)
    return [CheckResult("clique-extension-value", "apex-fan-clique",
                        abs(res.value - 2.0 / 25.0) <= 1e-8,
                        {"value": res.value, "expected": 2.0 / 25.0,
                         "edges": len(g.edges)})]


def check_turan_machinery(seed: int) -> list[CheckResult]:
    out = []
    ext = extension(named("T2"))
    out.append(CheckResult("turan-machinery", "extension-closes-t2",
                           isomorphic(ext, named("F5")),
                           {"extension_edges": [list(e) for e in ext.edges]}))

    bnb = turan_number(5, [named("F5")])
    oracle_best = -1
    oracle_wit: set = set()

    def visit(edges):
        nonlocal oracle_best, oracle_wit
        g = Hypergraph(3, 5, edges)
        if contains(g, named("F5")) is None:
            c = len(edges)
            if c > oracle_best:
                oracle_best, oracle_wit = c, set()
            if c == oracle_best:
                oracle_wit.add(canonical_form(g).edges)

    enumerate_all(5, 3, visit=visit)
    dual_ok = (bnb.status == "exact" and bnb.max_edges == oracle_best
               and set(w.edges for w in bnb.witnesses) == oracle_wit
               and bnb.max_edges == 6)
    out.append(CheckResult("turan-machinery", "turan-5-dual-strategy", dual_ok,
                           {"branch_and_bound": bnb.max_edges, "whole_space": oracle_best,
                            "witnesses": len(bnb.witnesses)}))

    bad = []
    for m in range(3, 7):
        for n in range(m, 16):
            if turan_count(m, 3, n) != len(turan_blowup(m, 3, n).edges):
                bad.append((m, n))
    out.append(CheckResult("turan-machinery", "blowup-counts", not bad,
                           {"mismatches": bad, "m_range": [3, 6], "n_max": 15}))

    # a copy of P3 whose 7 vertices are pairwise covered is a 7-clique of
    # the 2-shadow, so a shadow clique number below 7 rules out every such
    # copy, induced or not, and any 7 pairwise covered vertices at all
    order = linear_path(3).n
    core_hits = [n for n in range(7, 15)
                 if motzkin_straus(shadow(turan_blowup(6, 3, n)))[1] >= order]
    out.append(CheckResult("turan-machinery", "balanced-blowup-core-free", not core_hits,
                           {"violating_n": core_hits, "n_range": [7, 14]}))
    return out


def check_forbidden_configs(seed: int) -> list[CheckResult]:
    # F1 and F2 have ten vertices, so every host has at least ten
    count = 200
    n_range = [10, 11]
    rnd = random.Random(seed + 404)
    f1 = named("F1")
    f2 = named("F2")
    hits_f1 = 0
    hits_f2 = 0
    t0 = time.perf_counter()
    for i in range(count):
        n = n_range[0] + i % 2
        g = corpora.covers_pairs_path_free(rnd, n, 4)
        if contains(g, f1) is not None:
            hits_f1 += 1
        if contains(g, f2) is not None:
            hits_f2 += 1
    elapsed = time.perf_counter() - t0
    return [CheckResult("forbidden-configs", f"sampled-{count}",
                        hits_f1 == 0 and hits_f2 == 0,
                        {"f1_embeddings": hits_f1, "f2_embeddings": hits_f2,
                         "n_range": n_range, "hosts": count, "elapsed_s": elapsed})]


_CHECKS = {
    "closed-forms": check_closed_forms,
    "clique-oracle": check_clique_oracle,
    "compression-monotone": check_compression_monotone,
    "compress-preserve": check_compress_preserve,
    "short-path-density": check_short_path_density,
    "path3-density": check_path3_density,
    "path4-evidence": check_path4_evidence,
    "clique-extension-value": check_clique_extension_value,
    "turan-machinery": check_turan_machinery,
    "forbidden-configs": check_forbidden_configs,
}
GROUPS = tuple(_CHECKS)


def run_suite(seed: int = 0, only=None) -> SuiteReport:
    check_seed(seed)
    report = SuiteReport(seed=seed)
    groups = list(GROUPS)
    if only:
        unknown = [g for g in only if g not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown verification groups: {unknown}; choose from {list(GROUPS)}")
        groups = [g for g in groups if g in only]
    for name in groups:
        report.results.extend(_CHECKS[name](seed))
    return report
