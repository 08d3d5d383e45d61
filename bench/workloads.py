"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``build``), computes what
the outputs must satisfy by its own means outside the timed region
(``reference``), lists one round of operations as calls into hyperlag's
public entry points (``calls``; the worker times each call, and only the
calls), and checks every output (``check``, one list of problems per
operation).  Checkers take the
program's JSON-shaped reports, so tests can feed them synthetic ones.

The program is reached through module attributes looked up at call time
(``cli.main``, ``freeness.contains``, ``lagrangian.maximize``), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
from pathlib import Path

import oracles
from hyperlag import cli, corpora, freeness, hypergraph, lagrangian

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _schema_validator(name: str):
    """A draft 2020-12 validator for one of the repository's report schemas,
    resolving the cross-file references between them.

    jsonschema is imported here, after set-up is timed, rather than at the
    top: it belongs to the checker, not the program, and takes about as
    long to import as hyperlag itself."""
    import jsonschema
    from referencing import Registry, Resource
    from referencing.jsonschema import DRAFT202012

    registry = Registry().with_resources(
        (p.name, Resource.from_contents(json.loads(p.read_text()), default_specification=DRAFT202012))
        for p in SCHEMAS.glob("*.json"))
    schema = json.loads((SCHEMAS / name).read_text())
    return jsonschema.Draft202012Validator(schema, registry=registry)


def _schema_problems(validator, payload) -> list[str]:
    return [f"schema: {e.message}" for e in validator.iter_errors(payload)]


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one ``hyperlag`` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    def run(self, inputs) -> list:
        """One untimed round: the output of every call, in order."""
        return [call() for call in self.calls(inputs)]


def _parse_cli(out: tuple[int, str]) -> tuple[int, dict | None, str | None]:
    code, stdout = out
    try:
        return code, json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return code, None, f"exit {code}, stdout is not JSON: {exc}"


def _program_seed(rnd: random.Random) -> str:
    return str(rnd.randrange(2 ** 31))


def _edges(graph_json) -> list[tuple[int, ...]]:
    return [tuple(e) for e in graph_json["edges"]]


# ---------------------------------------------------------------------------


class DensityPaths(Workload):
    """``hyperlag density`` for P3 on 7 and on 11 vertices, left-compressed,
    through cli.main: the paper's perfectness evidence for P3.

    P4 on 9 vertices (about 50 s a run) does not fit the benchmark's time
    budget; check_density still covers P4 for when it does."""

    name = "density-paths"
    CASES = ((3, 7), (3, 11))

    def build(self, seed: int):
        rnd = random.Random(seed)
        return [(t, n, ["density", "--pattern", f"P{t}", "--n", str(n), "--json",
                        "--seed", _program_seed(rnd)]) for t, n in self.CASES]

    def reference(self, inputs) -> dict:
        return {"validator": _schema_validator("density_report.schema.json"),
                "K6": float(oracles.complete_value(6)), "K6-": oracles.k6_minus_value(),
                "K8": float(oracles.complete_value(8)), "K8-": oracles.complete_minus_value(8),
                "input_problems": []}

    def calls(self, inputs) -> list:
        return [functools.partial(_cli, argv) for _, _, argv in inputs]

    def check(self, inputs, ref, outputs) -> list[list[str]]:
        out = []
        for (t, n, _), raw in zip(inputs, outputs):
            code, report, err = _parse_cli(raw)
            out.append([err] if err else check_density(t, n, code, report, ref))
        return out

    def counts(self, outputs) -> dict:
        tot = {"nodes": 0, "leaves": 0, "optimized": 0}
        for raw in outputs:
            _, report, _ = _parse_cli(raw)
            if report is None:
                continue
            c = report["counts"]
            tot["nodes"] += c["nodes"]
            tot["leaves"] += c["survivors"]
            tot["optimized"] += c["optimized"]
        return tot


def check_density(t: int, n: int, code: int, report: dict, ref: dict) -> list[str]:
    problems = _schema_problems(ref["validator"], report)
    if problems:
        return problems
    if code != 0 or report["status"] != "exact":
        problems.append(f"exit {code}, status {report['status']!r}, want 0 and 'exact'")
    clique = 2 * t                      # P_t spans 2t+1 vertices
    lam = report["max_lambda"]
    cfree = report.get("max_lambda_complete_free")
    top = ref[f"K{clique}"]
    if abs(lam - top) > 1e-9:
        problems.append(f"max_lambda {lam!r} != lambda(K_{clique}) = {top!r}")
    minus = ref[f"K{clique}-"]
    if cfree is None:
        problems.append("no clique-free maximum reported")
    elif (t, n) == (3, 7) and abs(cfree - minus) > 1e-7:
        # on 7 vertices the clique-free maximum is K6^- itself
        problems.append(f"clique-free max {cfree!r} != (4 sqrt 6 - 9)/9 = {minus!r}")
    elif not minus - 1e-7 <= cfree < top:
        # K_{2t}^- (plus isolated vertices) is P_t-free and clique-free
        problems.append(f"clique-free max {cfree!r} outside [lambda(K{clique}-), lambda(K{clique})) = "
                        f"[{minus!r}, {top!r})")
    for key, want_clique in (("argmax_graph", True), ("argmax_complete_free", False)):
        g = report.get(key)
        if g is None:
            problems.append(f"{key} missing")
            continue
        edges = _edges(g)
        if g["n"] != n or g["r"] != 3:
            problems.append(f"{key} is on {g['n']} vertices, r={g['r']}; want {n}, 3")
        if oracles.holds_clique(edges, g["n"], clique) != want_clique:
            problems.append(f"{key} {'lacks' if want_clique else 'holds'} all triples of a {clique}-set")
        if oracles.has_linear_path(edges, t):
            problems.append(f"{key} contains a linear path of {t} edges")
    return problems


# ---------------------------------------------------------------------------


class TuranSmall(Workload):
    """``hyperlag turan --n 6`` forbidding F5, then K4^-, through cli.main."""

    name = "turan-small"
    N = 6
    # (CLI name, vertex count, edges) -- the benchmark's own copies
    PATTERNS = (("F5", 5, ((1, 2, 3), (1, 2, 4), (3, 4, 5))),
                ("K4-", 4, ((1, 2, 3), (1, 2, 4), (1, 3, 4))))

    def build(self, seed: int):
        rnd = random.Random(seed)
        return [(name, pn, pe, ["turan", "--n", str(self.N), "--forbid", name, "--json",
                                "--seed", _program_seed(rnd)])
                for name, pn, pe in self.PATTERNS]

    def reference(self, inputs) -> dict:
        tri = oracles.Triples(self.N)
        return {"validator": _schema_validator("turan.schema.json"), "triples": tri,
                "extremal": {name: oracles.extremal(self.N, pn, pe) for name, pn, pe, _ in inputs},
                "pattern_class": {name: oracles.Triples(pn).class_of(pe) for name, pn, pe, _ in inputs},
                "input_problems": []}

    def calls(self, inputs) -> list:
        return [functools.partial(_cli, argv) for *_, argv in inputs]

    def check(self, inputs, ref, outputs) -> list[list[str]]:
        out = []
        for (name, pn, pe, _), raw in zip(inputs, outputs):
            code, report, err = _parse_cli(raw)
            out.append([err] if err else check_turan(name, pn, code, report, ref))
        return out

    def counts(self, outputs) -> dict:
        tot = {"nodes": 0, "leaves": 0, "optimized": 0}
        for raw in outputs:
            _, report, _ = _parse_cli(raw)
            if report is None:
                continue
            tot["nodes"] += report["stats"]["nodes"]
            tot["leaves"] += report["stats"]["leaves"]
        return tot


def check_turan(name: str, pattern_n: int, code: int, report: dict, ref: dict) -> list[str]:
    problems = _schema_problems(ref["validator"], report)
    if problems:
        return problems
    want = ref["extremal"][name]
    tri = ref["triples"]
    if code != 0 or report["status"] != "exact":
        problems.append(f"exit {code}, status {report['status']!r}, want 0 and 'exact'")
    forb = report["forbidden"]
    if (len(forb) != 1 or forb[0]["n"] != pattern_n
            or oracles.Triples(pattern_n).class_of(_edges(forb[0])) != ref["pattern_class"][name]):
        problems.append(f"forbidden graph {forb} is not {name}")
    if report["max_edges"] != want["max_edges"]:
        problems.append(f"max_edges {report['max_edges']} != brute force {want['max_edges']}")
    witnesses = report["witnesses"]
    bad = [w for w in witnesses if w["n"] != tri.n or w["r"] != 3 or len(w["edges"]) != want["max_edges"]]
    if bad:
        problems.append(f"{len(bad)} witnesses are not {want['max_edges']}-edge graphs on [{tri.n}]")
        return problems
    classes = [int(c) for c in tri.canonical([tri.mask(_edges(w)) for w in witnesses])] if witnesses else []
    if len(set(classes)) != len(classes):
        problems.append("witness list repeats an isomorphism class")
    if set(classes) != set(want["classes"]):
        problems.append(f"witnesses give {len(set(classes))} isomorphism classes, brute force "
                        f"{len(want['classes'])}; they differ")
    return problems


# ---------------------------------------------------------------------------


class ForbiddenConfigs(Workload):
    """freeness.contains(g, F1) and contains(g, F2) on covering-pairs
    P4-free hosts from corpora (every fourth on 9 vertices, the rest on 10),
    plus hit controls with F1 or F2 planted under a random relabelling.

    A miss on a 10-vertex host takes 0.2 to 0.7 s, depending on the host;
    fifteen of them make a round's time differ little from seed to seed."""

    name = "forbidden-configs"
    HOSTS = 20
    CONTROLS = 12
    # F1: two disjoint linear 2-paths; F2: an edge disjoint from a linear 3-path
    FORESTS = {"F1": (2, 2), "F2": (1, 3)}

    def build(self, seed: int):
        rnd = random.Random(seed)
        patterns = {}
        for name, lengths in self.FORESTS.items():
            pn, pe = oracles.linear_forest(lengths)
            patterns[name] = hypergraph.new(3, pn, pe)
        hosts = [corpora.covers_pairs_path_free(rnd, 9 if i % 4 == 0 else 10, 4) for i in range(self.HOSTS)]
        ops = [(f"host{i}", g, name) for i, g in enumerate(hosts) for name in self.FORESTS]
        for j in range(self.CONTROLS):
            name = "F1" if j % 2 == 0 else "F2"
            base = corpora.random_hypergraph(rnd, 10)
            image = rnd.sample(range(1, 11), 10)
            planted = {tuple(sorted(image[v - 1] for v in e)) for e in patterns[name].edges}
            g = hypergraph.new(3, 10, sorted(set(base.edges) | planted))
            ops.append((f"control{j}", g, name))
        return {"patterns": patterns, "hosts": hosts, "ops": ops}

    def reference(self, inputs) -> dict:
        problems = []
        for i, g in enumerate(inputs["hosts"]):
            if not oracles.covers_pairs(g.n, g.edges):
                problems.append(f"host{i} does not cover its pairs")
            if oracles.has_linear_path(g.edges, 4):
                problems.append(f"host{i} contains a linear 4-path")
        expect = [oracles.contains_linear_forest(g.n, g.edges, self.FORESTS[name])
                  for _, g, name in inputs["ops"]]
        for (label, _, name), hit in zip(inputs["ops"], expect):
            if label.startswith("control") and not hit:
                problems.append(f"{label} lacks its planted {name}")
        return {"expect": expect, "input_problems": problems}

    def calls(self, inputs) -> list:
        patterns = inputs["patterns"]
        return [lambda g=g, p=patterns[name]: freeness.contains(g, p) for _, g, name in inputs["ops"]]

    def check(self, inputs, ref, outputs) -> list[list[str]]:
        out = []
        for (label, g, name), expect, res in zip(inputs["ops"], ref["expect"], outputs):
            report = None if res is None else res.to_json()
            pat = inputs["patterns"][name]
            out.append(check_embedding(label, name, pat.n, pat.edges, g.edges, expect, report))
        return out

    def counts(self, outputs) -> dict:
        return {}


def check_embedding(label: str, name: str, pattern_n: int, pattern_edges, host_edges,
                    expect_hit: bool, report: dict | None) -> list[str]:
    if report is None:
        return [f"{label}: no {name} found, but the host holds one"] if expect_hit else []
    if not expect_hit:
        return [f"{label}: reported a {name} in a host that holds none"]
    assignment = {int(p): int(h) for p, h in report["assignment"].items()}
    err = oracles.verify_embedding(assignment, pattern_n, pattern_edges, host_edges)
    return [f"{label}: {err}"] if err else []


# ---------------------------------------------------------------------------


class LambdaCorpus(Workload):
    """lagrangian.maximize with the default profile on complete graphs,
    near-complete graphs, balanced blow-ups, and random 2- and 3-graphs."""

    name = "lambda-corpus"
    BLOWUPS = ((3, 9), (4, 10), (5, 12), (6, 12), (7, 14))
    # maximize's time on one random 3-graph varies tenfold with the graph
    # (coefficient of variation about 0.5 within a vertex count), so the
    # random part is large enough that a round's time differs by a few
    # percent from seed to seed, and small enough that a run holds three
    # rounds, whose per-call medians a burst of load on the host cannot move
    RANDOM2 = 16        # on 3..10 vertices, cycling
    RANDOM3 = 100       # on 6..10 vertices, cycling
    REPLICATOR = {"starts": 7, "iterations": 300}

    def build(self, seed: int):
        rnd = random.Random(seed)
        graphs = []
        for t in range(3, 10):
            graphs.append(("K", t, hypergraph.new(3, t, itertools.combinations(range(1, t + 1), 3))))
        for t in (4, 6, 8):
            missing = tuple(sorted(rnd.sample(range(1, t + 1), 3)))
            edges = [e for e in itertools.combinations(range(1, t + 1), 3) if e != missing]
            graphs.append(("K-", t, hypergraph.new(3, t, edges)))
        for m, n in self.BLOWUPS:
            perm = rnd.sample(range(1, n + 1), n)
            g = hypergraph.relabel(hypergraph.turan_blowup(m, 3, n), dict(zip(range(1, n + 1), perm)))
            graphs.append(("blowup", (m, n), g))
        for i in range(self.RANDOM2):
            graphs.append(("random2", None, corpora.random_hypergraph(rnd, 3 + i % 8, r=2)))
        for i in range(self.RANDOM3):
            graphs.append(("random3", rnd.randrange(2 ** 32), corpora.random_hypergraph(rnd, 6 + i % 5)))
        return {"graphs": graphs}

    def reference(self, inputs) -> dict:
        problems = []
        expect = []
        for i, (kind, param, g) in enumerate(inputs["graphs"]):
            if kind == "K":
                expect.append(float(oracles.complete_value(param)))
            elif kind == "K-":
                expect.append(oracles.complete_minus_value(param))
            elif kind == "blowup":
                m, n = param
                if not _is_balanced_blowup(g, m, n):
                    problems.append(f"graph {i} is not a balanced blow-up of K_{m} on {n} vertices")
                expect.append(float(oracles.complete_value(m)))
            elif kind == "random2":
                w = oracles.clique_number(g.n, g.edges)
                expect.append(0.5 * (1 - 1 / w))
            else:   # random3: param seeds the replicator's random starts
                expect.append(oracles.replicator_best(g.n, list(g.edges), seed=param, **self.REPLICATOR))
        return {"expect": expect, "input_problems": problems}

    def calls(self, inputs) -> list:
        return [lambda g=g: lagrangian.maximize(g) for _, _, g in inputs["graphs"]]

    def check(self, inputs, ref, outputs) -> list[list[str]]:
        return [check_lambda(kind, g.n, g.edges, expect, res.to_json())
                for (kind, _, g), expect, res in zip(inputs["graphs"], ref["expect"], outputs)]

    def counts(self, outputs) -> dict:
        return {}


def _is_balanced_blowup(g, m: int, n: int) -> bool:
    """Whether g is the complete m-partite 3-graph on n vertices with class
    sizes differing by at most one: nonadjacent pairs must form an
    equivalence relation with m balanced classes, and every triple across
    three classes must be an edge."""
    es = {tuple(sorted(e)) for e in g.edges}
    covered = {p for e in es for p in itertools.combinations(e, 2)}
    classes: list[set[int]] = []
    for v in range(1, g.n + 1):
        for c in classes:
            if all((min(u, v), max(u, v)) not in covered for u in c):
                c.add(v)
                break
        else:
            classes.append({v})
    if g.n != n or len(classes) != m or max(map(len, classes)) - min(map(len, classes)) > 1:
        return False
    cls = {v: k for k, c in enumerate(classes) for v in c}
    want = {t for t in itertools.combinations(range(1, n + 1), 3) if len({cls[v] for v in t}) == 3}
    return es == want


def check_lambda(kind: str, n: int, edges, expect: float, report: dict) -> list[str]:
    problems = []
    value = report["value"]
    w = report["weights"]
    if len(w) != n or min(w, default=0.0) < 0.0 or abs(math.fsum(w) - 1.0) > 1e-9:
        problems.append(f"weights {w} are not a point of the simplex on {n} vertices")
    elif abs(oracles.evaluate(edges, w) - value) > 1e-12:
        problems.append(f"value {value!r} != the weights' own value {oracles.evaluate(edges, w)!r}")
    if kind == "random3":
        if value < expect - 1e-9:
            problems.append(f"value {value!r} below the replicator's {expect!r}")
    else:
        tol = 1e-7 if kind == "K-" else 1e-9
        if abs(value - expect) > tol:
            problems.append(f"{kind}: value {value!r} != expected {expect!r}")
    return problems


WORKLOADS = {w.name: w for w in (DensityPaths(), TuranSmall(), ForbiddenConfigs(), LambdaCorpus())}
