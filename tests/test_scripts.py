"""Every name the benchmark's span tracer wraps exists, and the matcher
it wraps is the one the searches call, since a missing or bypassed one
would make its metrics read 0 silently.  The Lagrangian layer builds
its block form in one function.  Every function and class of
the package is reached from outside tests, every JSON schema is used,
the checkpoint schema names exactly the optimizer's settings,
no module imports a name it does not use, and neither the command line
nor the searches read graph names themselves."""

import ast
import importlib
import importlib.util
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_tracer_targets_resolve():
    targets = _load(ROOT / "bench" / "spans.py").TARGETS
    assert targets
    missing = [(module, attr) for module, attr, *_ in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_span_tracer_sees_the_matcher_in_searches():
    from hyperlag.hypergraph import named
    from hyperlag.search import density_evidence, turan_number

    spans = _load(ROOT / "bench" / "spans.py")
    tracer = spans.Tracer()
    tracer.install()
    try:
        # a full-space run tests the clique with the matcher; a down-set
        # run reads it off the included positions and only grows paths
        tracer.phase("density", lambda: density_evidence("P2", 6, "all"))
        tracer.phase("turan", lambda: turan_number(6, [named("F5")]))
        tracer.phase("paths", lambda: density_evidence("P3", 7))
    finally:
        tracer.uninstall()
    matcher = tracer._ids["freeness._contains_edges"]
    grower = tracer._ids["freeness.creates_linear_path"]
    for label, lo, hi in tracer.phases:
        assert (grower if label == "paths" else matcher) in tracer.name[lo:hi], label


def test_searches_reach_the_matcher_only_through_contains_edges():
    # the tracer wraps search._contains_edges; a search that called the
    # matcher's parts itself would make its metrics miss those calls
    tree = ast.parse((ROOT / "src" / "hyperlag" / "freeness.py").read_text())
    parts = {stmt.name for stmt in tree.body
             if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")} - {"_contains_edges"}
    assert {"_search", "_plan", "_anchor_plans"} <= parts
    search = ast.parse((ROOT / "src" / "hyperlag" / "search.py").read_text())
    used = _names(search) | {alias.name for node in ast.walk(search)
                             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_contains_edges" in used
    assert sorted(used & parts) == []


def test_the_block_form_is_built_in_one_place():
    # the tracer times lagrangian.equivalence_classes, and every reader of
    # the block form (the ascent, the Newton polish, upper_bound) takes
    # the tensor from _block_form; a second caller would be a second builder
    tree = ast.parse((ROOT / "src" / "hyperlag" / "lagrangian.py").read_text())
    callers = sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == "equivalence_classes"})
    assert callers == ["_block_form"]


# Top-level names no code outside tests reaches, each with its reason.
REACHED_ONLY_BY_TESTS = {
    "isomorphic": "public API: graph comparison up to relabelling, on canonical_form",
}


def _names(node) -> set[str]:
    """Every name the node uses: identifiers, attributes, and the parts of
    dotted string constants (``bench/spans.py`` names its targets as
    strings)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and re.fullmatch(r"[\w.]+", n.value):
            out.update(n.value.split("."))
    return out


def test_every_package_definition_is_reached_outside_tests():
    package = ROOT / "src" / "hyperlag"
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += [p for p in sorted((ROOT / "bench").rglob("*.py")) if "tests" not in p.parts]
    defined, uses = [], []
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = (path, stmt.name)
                if path.parent == package:
                    defined.append(own)
            uses.append((own, _names(stmt)))
    unreached = sorted(own[1] for own in defined
                       if not any(own[1] in names for user, names in uses if user != own))
    assert unreached == sorted(REACHED_ONLY_BY_TESTS)


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__ imports only to re-export
    files = [p for p in sorted((ROOT / "src" / "hyperlag").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}: {name}" for name in names if name not in used]
    assert unused == []


# calls that would mean a second reader of graph names beside
# hypergraph.named: method name and the first arguments that give it away
NAME_PARSING_CALLS = {"replace": {"-"}, "partition": {"_"}, "startswith": {"K", "M", "P"}}


@pytest.mark.parametrize("name", ["cli.py", "search.py"])
def test_no_second_reader_of_graph_names(name):
    tree = ast.parse((ROOT / "src" / "hyperlag" / name).read_text())
    found = [f"line {node.lineno}: .{node.func.attr}({node.args[0].value!r})"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.args and isinstance(node.args[0], ast.Constant)
             and node.args[0].value in NAME_PARSING_CALLS.get(node.func.attr, ())]
    assert found == []


def test_every_schema_is_validated_or_referenced():
    schemas = sorted((ROOT / "docs" / "schemas").glob("*.json"))
    used = set()
    for path in [*(ROOT / "tests").rglob("*.py"), *(ROOT / "bench" / "tests").rglob("*.py")]:
        used |= {n.value for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    for path in schemas:
        used |= {ref.split("#")[0] for ref in re.findall(r'"\$ref":\s*"([^"]+)"', path.read_text())}
    assert [p.name for p in schemas if p.name not in used] == []


def test_the_checkpoint_schema_names_exactly_the_optimizer_settings():
    # density reports and checkpoints both refer to this definition
    from hyperlag.lagrangian import OptimizerConfig

    schema = json.loads((ROOT / "docs" / "schemas" / "checkpoint.schema.json").read_text())
    config = schema["$defs"]["optimizer_config"]
    names = [f.name for f in fields(OptimizerConfig)]
    assert list(config["properties"]) == names
    assert config["required"] == names
