import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperlag.cli import build_parser, main, pattern_by_name
from hyperlag.hgio import emit_hg, load
from hyperlag.hypergraph import (
    _NAMED,
    Hypergraph,
    complete,
    complete_minus,
    linear_path,
    matching,
    named,
    turan_blowup,
    turan_count,
)
from hyperlag import cli, lagrangian
from hyperlag.search import DensityRun, TuranRun, canonical_form, checkpoint_save

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / name).read_text())


def _validate(payload, schema_name):
    if jsonschema is None:
        return
    from referencing import Registry, Resource
    from referencing.jsonschema import DRAFT202012

    resources = [(p.name, Resource.from_contents(json.loads(p.read_text()),
                                                 default_specification=DRAFT202012))
                 for p in SCHEMAS.glob("*.json")]
    registry = Registry().with_resources(resources)
    validator = jsonschema.Draft202012Validator(_schema(schema_name), registry=registry)
    validator.validate(payload)


def test_pattern_resolver():
    assert pattern_by_name("P3") == linear_path(3)
    assert pattern_by_name("K6") == complete(6, 3)
    assert pattern_by_name("K6-") == complete_minus(6, 3)
    assert pattern_by_name("K5_4") == complete(5, 4)
    assert pattern_by_name("M2") == matching(2, 3)
    assert pattern_by_name("F5") == named("F5")
    with pytest.raises(ValueError):
        pattern_by_name("Q9")


def _fixed(name):
    n, edges = _NAMED[name]
    return Hypergraph(3, n, edges)


# spelling, its word form for construct, and the graph its constructor
# builds; K6-_4 is the K<t>-_r form of the README
GRAMMAR = [
    ("P4", ["P", "4"], linear_path(4)),
    ("K6", ["K", "6"], complete(6)),
    ("K6_4", ["K", "6", "4"], complete(6, 4)),
    ("k6_4", ["k", "6", "4"], complete(6, 4)),
    ("K6-", ["K-", "6"], complete_minus(6)),
    ("K6^-", ["K6^-"], complete_minus(6)),
    ("K4MINUS", ["Kminus", "4"], complete_minus(4)),
    ("Kminus 6 3", ["Kminus", "6", "3"], complete_minus(6, 3)),
    ("KM 6", ["KM", "6"], complete_minus(6)),
    ("K6-_4", ["K-", "6", "4"], complete_minus(6, 4)),
    ("M2_4", ["M", "2", "4"], matching(2, 4)),
    ("T 3 3 7", ["T", "3", "3", "7"], turan_blowup(3, 3, 7)),
    ("T2", ["T2"], _fixed("T2")),
    ("t2", ["t2"], _fixed("T2")),
    ("F1", ["F1"], _fixed("F1")),
    ("F2", ["F2"], _fixed("F2")),
    ("F3", ["F3"], _fixed("F3")),
    ("F5", ["F5"], _fixed("F5")),
]


@pytest.mark.parametrize("spelling, words, expected", GRAMMAR, ids=[row[0] for row in GRAMMAR])
def test_one_grammar_reads_every_spelling(spelling, words, expected, tmp_path, capsys):
    assert named(spelling) == expected
    assert pattern_by_name(spelling) == expected
    out = tmp_path / "g.hg"
    assert main(["construct", *words, "--out", str(out)]) == 0
    assert load(out) == expected


@pytest.mark.parametrize("argv", [
    ["turan", "--n", "5", "--forbid", "Q9"],
    ["check", "{p3}", "--free-of", "Q9"],
    ["construct", "K", "two", "3"],
    ["construct", "K"],
    ["compress", "{p3}", "--loop", "3"],
], ids=["turan-forbid", "check-free-of", "construct-word", "construct-no-params", "compress-loop"])
def test_input_errors_exit_one_with_an_error_line(argv, tmp_path, capsys):
    p3 = tmp_path / "p3.hg"
    p3.write_text(emit_hg(linear_path(3)))
    assert main([a.format(p3=p3) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_lambda_certified_exit_zero(tmp_path, capsys):
    path = tmp_path / "k8.hg"
    path.write_text(emit_hg(complete(8, 3)))
    code = main(["lambda", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "7/64" in out and "certified: True" in out


def test_lambda_json_output_validates(tmp_path, capsys):
    path = tmp_path / "k5.hg"
    path.write_text(emit_hg(complete(5, 3)))
    code = main(["lambda", str(path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["value"] == pytest.approx(2 / 25)
    _validate(payload, "optimum.schema.json")


def test_lambda_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.hg"
    path.write_text("r=3 n=4\n")
    code = main(["lambda", str(path)])
    assert code == 0
    assert "value: 0.0" in capsys.readouterr().out


def test_lambda_parse_error_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("r=3 nonsense\n1 2 3\n")
    code = main(["lambda", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("obj,match", [
    ({"r": 3, "n": 4.9, "edges": [[1, 2, 3]]}, "vertex count must be an integer, got 4.9"),
    ({"r": "3", "n": 4, "edges": [[1, 2, 3]]}, "uniformity must be an integer, got '3'"),
    ({"r": 3, "n": 4, "edges": [[True, 2, 3]]}, "vertex ids must be positive integers"),
], ids=["float-n", "string-r", "boolean-vertex"])
def test_lambda_refuses_json_numbers_that_are_not_integers(tmp_path, capsys, obj, match):
    # each was read as an integer: n = 4, r = 3, vertex 1
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    assert main(["lambda", str(path)]) == 1
    assert match in capsys.readouterr().err


def test_lambda_uncertified_exit_two(tmp_path, monkeypatch):
    # an irrational optimum cannot land on an exactly stationary float
    # point, so an absurd tolerance leaves it uncertified
    path = tmp_path / "g.hg"
    path.write_text(emit_hg(complete_minus(6, 3)))
    monkeypatch.setattr(lagrangian, "_KKT_TOL", 1e-30)
    assert main(["lambda", str(path)]) == 2


def test_check_free_and_containing(tmp_path, capsys):
    k6 = tmp_path / "k6.hg"
    k6.write_text(emit_hg(complete(6, 3)))
    assert main(["check", str(k6), "--free-of", "P3"]) == 0
    assert "P3: free" in capsys.readouterr().out
    k7 = tmp_path / "k7.hg"
    k7.write_text(emit_hg(complete(7, 3)))
    assert main(["check", str(k7), "--free-of", "P3"]) == 0
    assert "contains" in capsys.readouterr().out
    f5 = tmp_path / "f5.hg"
    f5.write_text(emit_hg(named("F5")))
    assert main(["check", str(f5), "--free-of", "T2"]) == 0
    assert "contains" in capsys.readouterr().out


def test_compress_single_and_loop(tmp_path, capsys):
    src = tmp_path / "g.hg"
    src.write_text("r=3 n=4\n2 3 4\n")
    out = tmp_path / "out.hg"
    assert main(["compress", str(src), "--i", "1", "--j", "2", "--out", str(out)]) == 0
    assert load(out).edges == ((1, 3, 4),)
    capsys.readouterr()

    k6iso = tmp_path / "k6iso.hg"
    k6iso.write_text(emit_hg(complete(6, 3)).replace("n=6", "n=7"))
    out2 = tmp_path / "out2.hg"
    assert main(["compress", str(k6iso), "--loop", "3", "--out", str(out2)]) == 0
    assert load(out2) == complete(6, 3)
    text = capsys.readouterr().out
    assert "lambda before" in text


def test_compress_loop_rejects_bad_input(tmp_path, capsys):
    src = tmp_path / "k7.hg"
    src.write_text(emit_hg(complete(7, 3)))
    assert main(["compress", str(src), "--loop", "3"]) == 1


@pytest.mark.parametrize("extra", [
    ["--loop", "3", "--i", "5", "--j", "6"], ["--loop", "3", "--j", "2"], ["--i", "1"], [],
], ids=["loop-i-j", "loop-j", "i-alone", "neither"])
def test_compress_refuses_flags_it_would_not_read(tmp_path, capsys, extra):
    # the loop chooses its own compressions, and a single one needs both
    # vertices
    src = tmp_path / "k6.hg"
    src.write_text(emit_hg(complete(6, 3)))
    assert main(["compress", str(src), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_extend_writes_extension(tmp_path, capsys):
    src = tmp_path / "t2.hg"
    src.write_text(emit_hg(named("T2")))
    out = tmp_path / "ext.hg"
    assert main(["extend", str(src), "--out", str(out)]) == 0
    assert canonical_form(load(out)) == canonical_form(named("F5"))


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "hyperlag", "construct", "K", "4", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == "r=3 n=4 1 2 3 1 2 4 1 3 4 2 3 4".split()


def test_value_tol_flag_is_gone():
    with pytest.raises(SystemExit):
        main(["lambda", "--value-tol", "1e-9", "x.hg"])


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit):
        main(["turan", "--n", "5", "--forbid", "F5", "--threads", "2"])


def test_shards_flag_is_gone():
    with pytest.raises(SystemExit):
        main(["turan", "--n", "5", "--forbid", "F5", "--shards", "2"])


def test_checkpoints_validate(tmp_path):
    path = tmp_path / "c.json"
    for run in (DensityRun("P3", 7, seed=3),
                DensityRun("P2", 6, "all"), TuranRun(5, (named("F5"),))):
        run.run(max_nodes=50)
        checkpoint_save(run, path)
        _validate(json.loads(path.read_text()), "checkpoint.schema.json")
    if jsonschema is not None:
        # the schema, like checkpoint_resume, refuses an unknown setting
        checkpoint_save(DensityRun("P2", 5), path)
        payload = json.loads(path.read_text())
        payload["space"]["restarts"] = 64
        with pytest.raises(jsonschema.ValidationError):
            _validate(payload, "checkpoint.schema.json")
        # and a state field a run derives, such as a version 6 best count
        checkpoint_save(TuranRun(5, (named("F5"),)), path)
        payload = json.loads(path.read_text())
        payload["state"]["best"] = -1
        with pytest.raises(jsonschema.ValidationError):
            _validate(payload, "checkpoint.schema.json")
        # and a version 8 file, whose space carries the optimizer settings
        # that are now constants
        checkpoint_save(DensityRun("P2", 5), path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 9
        assert payload["space"]["seed"] == 0
        payload["version"] = 8
        del payload["space"]["seed"]
        payload["space"]["config"] = {"restarts": 64, "seed": 0, "kkt_tol": 1e-8}
        with pytest.raises(jsonschema.ValidationError):
            _validate(payload, "checkpoint.schema.json")


def test_construct_variants(tmp_path, capsys):
    out = tmp_path / "g.hg"
    assert main(["construct", "K", "6", "3", "--out", str(out)]) == 0
    assert len(load(out).edges) == 20
    assert main(["construct", "T", "3", "3", "7", "--out", str(out)]) == 0
    assert len(load(out).edges) == 12
    assert "t = 12" in capsys.readouterr().out
    assert main(["construct", "P", "4", "--out", str(out)]) == 0
    assert load(out) == linear_path(4)
    assert main(["construct", "F3", "--out", str(out)]) == 0
    assert load(out) == named("F3")
    assert main(["construct", "K", "two", "3"]) == 1


# one command line per subcommand, and the writers again with --out; {g}
# is a graph file, {out} a path to write
JSON_RUNS = [
    ["lambda", "{g}"],
    ["check", "{g}", "--free-of", "P2", "T2"],
    ["compress", "{g}", "--i", "1", "--j", "2"],
    ["compress", "{g}", "--i", "1", "--j", "2", "--out", "{out}"],
    ["extend", "{g}"],
    ["extend", "{g}", "--out", "{out}"],
    ["construct", "T", "3", "3", "6"],
    ["construct", "T", "3", "3", "6", "--out", "{out}"],
    ["turan", "--n", "5", "--forbid", "F5"],
    ["density", "--pattern", "P2", "--n", "5"],
    ["verify", "--only", "closed-forms"],
]


def test_json_runs_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in JSON_RUNS} == set(sub.choices)


def _strict_json(text):
    """``text`` as one JSON document; NaN and Infinity, which Python's
    json module writes and reads but JSON does not have, are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", JSON_RUNS, ids=" ".join)
def test_json_stdout_is_one_json_document(argv, tmp_path, capsys):
    g = tmp_path / "g.hg"
    g.write_text(emit_hg(named("F5")))
    out = tmp_path / "out.hg"
    main([a.format(g=g, out=out) for a in argv] + ["--json"])
    _strict_json(capsys.readouterr().out)


@pytest.mark.parametrize("flag, value", [("--seed", "-5"), ("--seed", "-1")])
def test_an_optimizer_setting_it_cannot_use_exits_one(flag, value, tmp_path, capsys):
    # without the check a negative seed failed inside numpy; verify checks
    # it itself, since some of its groups never reach the optimizer
    g = tmp_path / "g.hg"
    g.write_text(emit_hg(named("F5")))
    for argv in (["lambda", str(g)], ["compress", str(g), "--i", "1", "--j", "2"],
                 ["density", "--pattern", "P2", "--n", "5"],
                 ["verify", "--only", "compression-monotone"]):
        assert main([*argv, flag, value, "--json"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be")


def test_turan_command_with_comparison(capsys):
    code = main(["turan", "--n", "5", "--forbid", "F5", "--compare-m", "4", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["max_edges"] == 6
    assert payload["status"] == "exact"
    assert payload["balanced_blowup_edges"] == 7
    _validate(payload, "turan.schema.json")


def test_turan_compare_m_is_checked_before_the_search(monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "turan_number", no_search)
    assert main(["turan", "--n", "7", "--forbid", "K4-", "--compare-m", "2"]) == 1
    assert "need m >= r" in capsys.readouterr().err


def test_turan_compare_m_counts_at_the_forbidden_uniformity(capsys):
    code = main(["turan", "--n", "6", "--forbid", "K5_4", "--compare-m", "5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["balanced_blowup_edges"] == turan_count(5, 4, 6) == 9
    _validate(payload, "turan.schema.json")


def test_turan_capped_exit_three(capsys):
    code = main(["turan", "--n", "5", "--forbid", "F5", "--max-nodes", "5"])
    assert code == 3


def test_density_command(capsys):
    code = main(["density", "--pattern", "P2", "--n", "5", "--mode", "all", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["max_lambda"] == pytest.approx(1 / 16)
    _validate(payload, "density_report.schema.json")


@pytest.mark.parametrize("argv, want", [
    # a budget that stops the run before any survivor is optimized: no maximum
    (["--pattern", "P3", "--n", "7", "--max-nodes", "0"],
     {"max_lambda": None, "argmax_graph": None,
      "max_lambda_complete_free": None, "argmax_complete_free": None}),
    # the only survivor is the edgeless graph, whose maximum is 0
    (["--pattern", "P2", "--n", "2"],
     {"max_lambda": 0.0, "argmax_graph": {"r": 3, "n": 2, "edges": []},
      "max_lambda_complete_free": 0.0, "argmax_complete_free": {"r": 3, "n": 2, "edges": []}}),
    (["--pattern", "T2", "--n", "3", "--mode", "all"],
     {"max_lambda_complete_free": 0.0, "argmax_complete_free": {"r": 3, "n": 3, "edges": []}}),
], ids=["unoptimized", "edgeless", "edgeless-clique-free"])
def test_density_reports_no_sentinel_values(argv, want, capsys):
    code = main(["density", *argv, "--json"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == (3 if "--max-nodes" in argv else 0)
    assert {k: payload[k] for k in want} == want
    _validate(payload, "density_report.schema.json")


def test_density_capped_exit_three(capsys):
    assert main(["density", "--pattern", "P2", "--n", "5", "--mode", "all",
                 "--max-nodes", "3"]) == 3


@pytest.mark.parametrize("budget", [["--max-nodes", "0"], ["--max-seconds", "0"]],
                         ids=["nodes", "seconds"])
def test_a_zero_budget_stops_the_run_at_once(budget, capsys):
    assert main(["turan", "--n", "6", "--forbid", "F5", "--json", *budget]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "lower_bound"
    assert payload["stats"]["nodes"] == 0


@pytest.mark.parametrize("budget, message", [
    (["--max-nodes", "-1"], "max_nodes must be nonnegative, got -1"),
    (["--max-seconds", "-1"], "max_seconds must be nonnegative, got -1.0"),
], ids=["nodes", "seconds"])
def test_a_negative_budget_exits_one(budget, message, capsys):
    assert main(["density", "--pattern", "P2", "--n", "5", *budget]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_negative_vertex_count_exits_one(capsys):
    assert main(["turan", "--n", "-3", "--forbid", "F5"]) == 1
    assert capsys.readouterr().err == "error: n must be nonnegative, got n=-3\n"


def test_density_unknown_pattern_exit_one(capsys):
    # the search's own list of patterns is the only one
    assert main(["density", "--pattern", "P5", "--n", "5"]) == 1
    assert "P2, T2, P3, P4; got 'P5'" in capsys.readouterr().err


def test_density_pattern_is_read_like_every_other_name(capsys):
    # the pattern goes through hypergraph.named, and the report names it
    # canonically, so every spelling of P3 prints the same report
    outs = []
    for spelling in ("P3", "P_3", "p 3"):
        assert main(["density", "--pattern", spelling, "--n", "6", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["space"]["pattern"] == "P3"
    # a graph the run does not support is refused whatever it is called
    assert main(["density", "--pattern", "K4-", "--n", "5"]) == 1
    assert "P2, T2, P3, P4; got 'K4-'" in capsys.readouterr().err


def test_density_checkpoint_resume_matches_uninterrupted(tmp_path, capsys):
    argv = ["density", "--pattern", "P3", "--n", "7", "--json"]
    assert main(argv) == 0
    full = capsys.readouterr().out

    state = tmp_path / "state.json"
    assert main([*argv, "--checkpoint", str(state), "--max-nodes", "200"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["counts"]["nodes"] == 200
    assert "at 200 nodes; checkpoint written" in captured.err
    saved = state.read_text()
    # the checkpoint's mode is part of its space: another --mode is refused
    assert main([*argv, "--mode", "all", "--checkpoint", str(state)]) == 1
    assert "mode" in capsys.readouterr().err
    assert state.read_text() == saved
    assert main([*argv, "--checkpoint", str(state)]) == 0
    assert capsys.readouterr().out == full
    report = json.loads(full)
    assert report["status"] == "exact"
    assert (report["counts"]["optimized"], report["counts"]["screened"]) == (2, 5)


def test_turan_checkpoint_resume_matches_uninterrupted(tmp_path, capsys):
    argv = ["turan", "--n", "6", "--forbid", "F5", "--json"]
    assert main(argv) == 0
    full = capsys.readouterr().out

    state = tmp_path / "state.json"
    assert main([*argv, "--checkpoint", str(state), "--max-nodes", "100"]) == 3
    assert "at 100 nodes; checkpoint written" in capsys.readouterr().err
    # the node budget counts the whole run, the resumed nodes included
    assert main([*argv, "--checkpoint", str(state), "--max-nodes", "150"]) == 3
    assert json.loads(capsys.readouterr().out)["stats"]["nodes"] == 150
    saved = state.read_text()
    # the forbidden graphs are the checkpoint's space: another --forbid is refused
    assert main(["turan", "--n", "6", "--forbid", "K4-", "--checkpoint", str(state)]) == 1
    assert "forbidden" in capsys.readouterr().err
    assert state.read_text() == saved
    assert main([*argv, "--checkpoint", str(state)]) == 0
    assert capsys.readouterr().out == full
    assert json.loads(full)["status"] == "exact"


@pytest.mark.parametrize("argv", [
    ["lambda", "g.hg", "--out", "x.hg"],
    ["check", "g.hg", "--free-of", "P3", "--max-nodes", "5"],
    ["verify", "--checkpoint", "c.json"],
    ["check", "g.hg", "--free-of", "P3", "--seed", "1"],
    ["check", "g.hg", "--free-of", "P3", "--restarts", "2"],
    ["extend", "g.hg", "--kkt-tol", "1e-6"],
    ["extend", "g.hg", "--seed", "1"],
    ["construct", "K", "6", "--restarts", "2"],
    ["construct", "K", "6", "--seed", "1"],
    ["turan", "--n", "5", "--forbid", "F5", "--restarts", "2"],
    ["turan", "--n", "5", "--forbid", "F5", "--kkt-tol", "1e-6"],
    ["lambda", "g.hg", "--restarts", "2"],
    ["lambda", "g.hg", "--kkt-tol", "1e-6"],
    ["compress", "g.hg", "--loop", "3", "--restarts", "2"],
    ["density", "--pattern", "P3", "--n", "7", "--restarts", "2"],
    ["density", "--pattern", "P3", "--n", "7", "--kkt-tol", "1e-6"],
    ["verify", "--kkt-tol", "1e-6"],
], ids=["lambda-out", "check-max-nodes", "verify-checkpoint", "check-seed", "check-restarts",
        "extend-kkt-tol", "extend-seed", "construct-restarts", "construct-seed",
        "turan-restarts", "turan-kkt-tol", "lambda-restarts", "lambda-kkt-tol",
        "compress-restarts", "density-restarts", "density-kkt-tol", "verify-kkt-tol"])
def test_flags_a_subcommand_never_reads_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_turan_accepts_a_seed_that_changes_nothing(capsys):
    argv = ["turan", "--n", "5", "--forbid", "F5", "--json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--seed", "7"]) == 0
    assert capsys.readouterr().out == plain


def test_the_command_line_has_33_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a.option_strings[0] for p in sub.choices.values() for a in p._actions
             if a.option_strings and a.option_strings[0] != "-h"]
    assert len(flags) == 33


def test_verify_subset_json(capsys):
    code = main(["verify", "--only", "turan-machinery", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["seed"] == 0
    _validate(payload, "verify_report.schema.json")


def test_verify_path3_density_json(capsys):
    code = main(["verify", "--only", "path3-density", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["passed"] is True
    assert {r["name"] for r in payload["results"]} == {"max-is-complete-6",
                                                       "clique-free-separation",
                                                       "all-mode-equals-left-compressed"}
    _validate(payload, "verify_report.schema.json")


def test_verify_human_output_prints_seed(capsys):
    main(["verify", "--only", "clique-extension-value"])
    out = capsys.readouterr().out
    assert "seed: 0" in out and "PASS" in out


def test_environment_does_not_set_the_seed(monkeypatch, capsys):
    monkeypatch.setenv("HYPERLAG_SEED", "7")
    main(["verify", "--only", "clique-extension-value"])
    assert "seed: 0" in capsys.readouterr().out


def test_missing_file_exit_one(capsys):
    assert main(["lambda", "/nonexistent/file.hg"]) == 1
