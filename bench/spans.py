"""Span tracing from outside the program.

The tracer replaces module attributes through which one hyperlag layer
calls another (for example ``hyperlag.search.creates_linear_path``) with
wrappers that record a span per call: name, start, end, parent span and a
small tag computed from the call.  Spans live in flat arrays in memory and
are written once, when the run ends.  Nothing under ``src/`` changes: a
wrapper sees only what crosses the module boundary.

A wrapped name that the program no longer has is reported as absent; the
metrics built on it then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from array import array

import numpy as np

# tag bits
HIT = 1          # an embedding search found a copy
CHEAP = 2        # maximize ran with the bulk profile (exact_support_n == 0)
CERTIFIED = 4    # maximize result certified
RATIONAL = 8     # maximize result rational-certified

DFS = ("search.density_evidence", "search.turan_number")
CORPORA = ("random_hypergraph", "covers_pairs_path_free",
           "left_compressed_dense_path4_free_9", "random_simplex_point", "full_star")


def _embed_tag(args, kwargs, result) -> int:
    return HIT if result is not None else 0


def _maximize_tag(args, kwargs, result) -> int:
    config = args[1] if len(args) > 1 else kwargs.get("config")
    tag = CHEAP if config is not None and getattr(config, "exact_support_n", None) == 0 else 0
    if getattr(result, "certified", False):
        tag |= CERTIFIED
    if getattr(result, "mode", "") == "rational-certified":
        tag |= RATIONAL
    return tag


# (module, attribute, span name, tagger).  The benchmark calls cli.main,
# freeness.contains and lagrangian.maximize through their modules, so
# those wrappers give the root span of each operation.
TARGETS = [
    ("hyperlag.cli", "main", "cli.main", None),
    ("hyperlag.cli", "density_evidence", "search.density_evidence", None),
    ("hyperlag.cli", "turan_number", "search.turan_number", None),
    ("hyperlag.search", "creates_linear_path", "freeness.creates_linear_path", None),
    ("hyperlag.search", "_contains_edges", "freeness._contains_edges", _embed_tag),
    ("hyperlag.search", "maximize", "lagrangian.maximize", _maximize_tag),
    ("hyperlag.search", "canonical_form", "search.canonical_form", None),
    ("hyperlag.freeness", "contains", "freeness.contains", None),
    ("hyperlag.freeness", "_contains_edges", "freeness._contains_edges", _embed_tag),
    ("hyperlag.lagrangian", "maximize", "lagrangian.maximize", _maximize_tag),
    ("hyperlag.lagrangian", "_pga", "lagrangian._pga", None),
    ("hyperlag.lagrangian", "_newton_polish", "lagrangian._newton_polish", None),
    ("hyperlag.lagrangian", "_try_rational_snap", "lagrangian._try_rational_snap", None),
    ("hyperlag.lagrangian", "equivalence_classes", "hypergraph.equivalence_classes", None),
    ("hyperlag.corpora", "creates_linear_path", "freeness.creates_linear_path", None),
] + [("hyperlag.corpora", fn, f"corpora.{fn}", None) for fn in CORPORA]

# name, unit, better -- the order BENCHMARK.json lists them in
PER_LAYER = [
    ("search.nodes", "count", "lower"),
    ("search.leaves", "count", "lower"),
    ("search.nodes_per_s", "1/s", "higher"),
    ("search.self_s", "s", "lower"),
    ("search.optimized", "count", "lower"),
    ("search.canonical_calls", "count", "lower"),
    ("search.canonical_s", "s", "lower"),
    ("freeness.path_calls", "count", "lower"),
    ("freeness.path_s", "s", "lower"),
    ("freeness.path_us", "us", "lower"),
    ("freeness.embed_calls", "count", "lower"),
    ("freeness.embed_s", "s", "lower"),
    ("freeness.embed_hit_us", "us", "lower"),
    ("freeness.embed_miss_us", "us", "lower"),
    ("lagrangian.maximize_calls", "count", "lower"),
    ("lagrangian.maximize_s", "s", "lower"),
    ("lagrangian.maximize_cheap_ms", "ms", "lower"),
    ("lagrangian.maximize_full_ms", "ms", "lower"),
    ("lagrangian.pga_s", "s", "lower"),
    ("lagrangian.newton_s", "s", "lower"),
    ("lagrangian.snap_s", "s", "lower"),
    ("hypergraph.classes_s", "s", "lower"),
    ("lagrangian.certified_ratio", "ratio", "higher"),
    ("lagrangian.rational_ratio", "ratio", "higher"),
    ("corpora.generate_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("b")
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.phases: list[tuple[str, int, int]] = []   # label, first span, end span

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span: str, fn, tagger):
        nid = self._name_id(span)
        names, parents, starts, ends, tags, stack = (
            self.name, self.parent, self.start, self.end, self.tag, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            tags.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tagger is not None:
                tags[i] = tagger(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, span, tagger in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                if f"{module}.{attr}" not in self.absent:
                    self.absent.append(f"{module}.{attr}")
                continue
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn, tagger))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def phase(self, label: str, run):
        """Call run() and remember which spans it produced."""
        first = len(self.start)
        out = run()
        self.phases.append((label, first, len(self.start)))
        return out

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = end - start
        covered = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        return {"name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
                "parent": parent, "start": start, "end": end,
                "tag": np.frombuffer(self.tag, dtype=np.int8).astype(np.int64),
                "dur": dur, "self": dur - covered, "one": np.ones_like(dur)}

    def layer_metrics(self, counts: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics: span totals are the set-up phase plus the mean
        over traced rounds; per-call figures pool every traced call.
        ``counts`` holds the per-round search counts from the reports."""
        a = self.arrays()
        rounds = [(lo, hi) for label, lo, hi in self.phases if label == "round"]
        setup = [(lo, hi) for label, lo, hi in self.phases if label == "setup"]

        def select(names, lo_hi):
            ids = [self._ids[n] for n in names if n in self._ids]
            idx = np.zeros(len(a["dur"]), dtype=bool)
            for lo, hi in lo_hi:
                idx[lo:hi] = True
            return idx & np.isin(a["name"], ids)

        def total(names, field="dur"):
            """Setup total plus mean round total of a span field."""
            return sum(float(a[field][select(names, part)].sum()) * scale
                       for part, scale in ((setup, 1.0), (rounds, 1.0 / max(len(rounds), 1))))

        def calls(names):
            return total(names, field="one")

        everywhere = setup + rounds

        def per_call(names, scale, mask=None):
            sel = select(names, everywhere)
            if mask is not None:
                sel &= mask
            return float(a["dur"][sel].mean()) * scale if sel.any() else 0.0

        def median_ms(names, mask):
            sel = select(names, everywhere) & mask
            return statistics.median(a["dur"][sel].tolist()) * 1e3 if sel.any() else 0.0

        hit = (a["tag"] & HIT) > 0
        cheap = (a["tag"] & CHEAP) > 0
        emb = ["freeness._contains_edges"]
        path = ["freeness.creates_linear_path"]
        mx = ["lagrangian.maximize"]
        corpora = [f"corpora.{fn}" for fn in CORPORA]
        mx_sel = select(mx, everywhere)
        n_mx = int(mx_sel.sum())
        dfs_s = total(list(DFS))
        return {
            "search.nodes": counts.get("nodes", 0),
            "search.leaves": counts.get("leaves", 0),
            "search.nodes_per_s": counts.get("nodes", 0) / dfs_s if dfs_s > 0 else 0.0,
            "search.self_s": total(list(DFS), field="self"),
            "search.optimized": counts.get("optimized", 0),
            "search.canonical_calls": calls(["search.canonical_form"]),
            "search.canonical_s": total(["search.canonical_form"]),
            "freeness.path_calls": calls(path),
            "freeness.path_s": total(path),
            "freeness.path_us": per_call(path, 1e6),
            "freeness.embed_calls": calls(emb),
            "freeness.embed_s": total(emb),
            "freeness.embed_hit_us": per_call(emb, 1e6, hit),
            "freeness.embed_miss_us": per_call(emb, 1e6, ~hit),
            "lagrangian.maximize_calls": calls(mx),
            "lagrangian.maximize_s": total(mx),
            "lagrangian.maximize_cheap_ms": median_ms(mx, cheap),
            "lagrangian.maximize_full_ms": median_ms(mx, ~cheap),
            "lagrangian.pga_s": total(["lagrangian._pga"]),
            "lagrangian.newton_s": total(["lagrangian._newton_polish"]),
            "lagrangian.snap_s": total(["lagrangian._try_rational_snap"]),
            "hypergraph.classes_s": total(["hypergraph.equivalence_classes"]),
            "lagrangian.certified_ratio":
                float(((a["tag"] & CERTIFIED) > 0)[mx_sel].sum()) / n_mx if n_mx else 0.0,
            "lagrangian.rational_ratio":
                float(((a["tag"] & RATIONAL) > 0)[mx_sel].sum()) / n_mx if n_mx else 0.0,
            # corpora entry points call no other corpora entry point, so
            # their spans do not nest and their durations add up
            "corpora.generate_s": total(corpora),
        }

    def write(self, path, extra: dict) -> None:
        a = self.arrays()
        np.savez_compressed(
            path, name=a["name"], parent=a["parent"], start=a["start"], end=a["end"],
            tag=a["tag"], names=np.array(self.names),
            meta=np.array(json.dumps({"phases": self.phases, "absent": self.absent, **extra})))
