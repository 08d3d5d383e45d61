"""Command-line surface.

One tool in subcommand style.  A subcommand accepts only the flags it
reads: the optimizer's one setting, ``--seed`` (default 0), where it
optimizes, ``--out`` where it writes a graph, the budgets and
``--checkpoint`` where it searches.  The one exception is ``turan``'s
``--seed``, accepted and ignored so that existing command lines keep
working.  A subcommand that optimizes reports the seed in effect so its
run can be reproduced.  Under ``--json`` stdout is exactly one JSON
document, and every line meant for a reader goes to stderr.
Graph names (``construct``, ``check --free-of``, ``turan --forbid``) are
read by :func:`~hyperlag.hypergraph.named` alone, fused (``K6_4``) or in
words (``K 6 4``); ``check`` and ``turan`` also take a graph file's path.
Exit codes: 0 success/certified, 1 input error, 2 an uncertified numeric
result, 3 a resource-capped partial result.  Every input error, an
unreadable name included, exits 1 through :func:`main` with one
``error:`` line on stderr (``parse error:`` for a malformed graph file).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .freeness import contains, left_compress_loop
from .hgio import HgParseError, emit_hg, load, save, to_json_obj
from .hypergraph import Hypergraph, compress, extension, named, turan_count
from .lagrangian import maximize
from .search import density_evidence, turan_number
from .verify import GROUPS, run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNCERTIFIED = 2
EXIT_CAPPED = 3


def _subcommand(sub, name: str, fn, help: str, optimizes: bool = False, writes: bool = False,
                searches: bool = False) -> argparse.ArgumentParser:
    """Add a subcommand with ``--json``, ``--seed`` if it ``optimizes``,
    ``--out`` if it ``writes`` a graph, and the budgets and
    ``--checkpoint`` if it ``searches``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(fn=fn)
    if optimizes:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    if writes:
        p.add_argument("--out", type=str, default=None, help="write the result graph to this file")
    if searches:
        p.add_argument("--max-nodes", type=int, default=None,
                       help="node budget of the whole run, resumed nodes included")
        p.add_argument("--max-seconds", type=float, default=None)
        p.add_argument("--checkpoint", default=None,
                       help="resume from this file if it exists; save there when a budget stops the run")
    return p


def _note_checkpoint(args, finished: bool, nodes: int) -> None:
    # on stderr, so --json stdout stays one JSON document
    if args.checkpoint and not finished:
        print(f"budget stopped the run at {nodes} nodes; checkpoint written to {args.checkpoint}",
              file=sys.stderr)


def pattern_by_name(name: str) -> Hypergraph:
    """The graph file at ``name`` if that path exists, else the construction
    :func:`~hyperlag.hypergraph.named` reads from it."""
    return load(name) if os.path.exists(name) else named(name)


def _say(args, line: str) -> None:
    """Print a line for the reader: on stderr under ``--json``, so that
    stdout stays one JSON document."""
    print(line, file=sys.stderr if args.json else sys.stdout)


def _print_graph(g: Hypergraph, args, comment: str | None = None) -> None:
    if args.out:
        save(g, args.out, comment)
        _say(args, f"wrote {args.out} ({len(g.edges)} edges on {g.n} vertices)")
    if args.json:
        print(json.dumps(to_json_obj(g)))
    elif not args.out:
        sys.stdout.write(emit_hg(g, comment))


def _fmt_value(value: float, exact: Fraction | None) -> str:
    return f"{value!r} (= {exact})" if exact is not None else repr(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_lambda(args) -> int:
    g = load(args.input)
    res = maximize(g, args.seed)
    if args.json:
        print(json.dumps(res.to_json()))
    else:
        print(f"seed: {args.seed}")
        print(f"value: {_fmt_value(res.value, res.exact_value)}")
        print(f"support: {list(res.support)}")
        print(f"weights: {[round(w, 12) for w in res.weighting.weights]}")
        print(f"kkt_residual: {res.kkt_residual:.3e}")
        print(f"certified: {res.certified} ({res.mode})")
    return EXIT_OK if res.certified else EXIT_UNCERTIFIED


def cmd_check(args) -> int:
    g = load(args.input)
    report = []
    for name in args.free_of:
        pat = pattern_by_name(name)
        witness = contains(g, pat)
        report.append({"pattern": name, "free": witness is None,
                       "witness_embedding": witness.to_json() if witness else None})
    if args.json:
        print(json.dumps({"input": args.input, "checks": report}))
    else:
        for entry in report:
            if entry["free"]:
                print(f"{entry['pattern']}: free")
            else:
                print(f"{entry['pattern']}: contains, witness {entry['witness_embedding']}")
    return EXIT_OK


def cmd_compress(args) -> int:
    if args.loop is not None and (args.i, args.j) != (None, None):
        print("error: --loop takes no --i or --j", file=sys.stderr)
        return EXIT_INPUT
    if args.loop is None and None in (args.i, args.j):
        print("error: single compression needs --i and --j", file=sys.stderr)
        return EXIT_INPUT
    g = load(args.input)
    before = maximize(g, args.seed)
    if args.loop is not None:
        out = left_compress_loop(g, args.loop, args.seed)
    else:
        out = compress(g, args.i, args.j)
    after = maximize(out, args.seed)
    _say(args, f"seed: {args.seed}")
    _say(args, f"lambda before: {before.value!r}  after: {after.value!r}")
    _print_graph(out, args)
    return EXIT_OK


def cmd_extend(args) -> int:
    g = load(args.input)
    out = extension(g)
    _print_graph(out, args, comment="extension closing all uncovered pairs")
    return EXIT_OK


def cmd_construct(args) -> int:
    g = named(" ".join([args.kind, *args.params]))
    if args.kind.upper() == "T":
        _say(args, f"# balanced blowup edge count t = {len(g.edges)}")
    _print_graph(g, args)
    return EXIT_OK


def cmd_turan(args) -> int:
    forbidden = [pattern_by_name(s) for s in args.forbid]
    # the balanced-blowup count is the conjectured extremal value only for
    # large n; report both numbers side by side, asserting nothing.  It is
    # computed first so that a bad --compare-m fails before the search
    blowup_edges = None
    if args.compare_m is not None:
        blowup_edges = turan_count(args.compare_m, forbidden[0].r, args.n)
    res = turan_number(args.n, forbidden, max_nodes=args.max_nodes, max_seconds=args.max_seconds,
                       checkpoint=args.checkpoint)
    _note_checkpoint(args, res.status == "exact", res.stats.nodes)
    payload = res.to_json()
    if blowup_edges is not None:
        payload["balanced_blowup_edges"] = blowup_edges
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"max_edges: {res.max_edges} ({res.status})")
        if blowup_edges is not None:
            print(f"balanced blowup with {args.compare_m} classes: "
                  f"{blowup_edges} edges (no claim at this n)")
        for w in res.witnesses:
            print(f"witness: {[list(e) for e in w.edges]}")
    return EXIT_OK if res.status == "exact" else EXIT_CAPPED


def cmd_density(args) -> int:
    rep = density_evidence(args.pattern, args.n, args.mode, args.seed,
                           max_nodes=args.max_nodes, max_seconds=args.max_seconds,
                           checkpoint=args.checkpoint)
    _note_checkpoint(args, rep.status == "exact", rep.counts["nodes"])
    if args.json:
        print(json.dumps(rep.to_json()))
    else:
        print(f"seed: {args.seed}")
        print(f"space: {rep.space}")
        print(f"max_lambda: {rep.max_lambda!r}")
        print(f"argmax: {rep.argmax_graph}")
        print(f"max_lambda over clique-free survivors: {rep.max_lambda_complete_free!r}")
        print(f"separations: {rep.separations}")
        print(f"counts: {rep.counts}  status: {rep.status}")
    return EXIT_OK if rep.status == "exact" else EXIT_CAPPED


def cmd_verify(args) -> int:
    only = args.only or None
    rep = run_suite(args.seed, only=only)
    if args.json:
        print(json.dumps(rep.to_json()))
    else:
        print(f"seed: {args.seed}")
        for r in rep.results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.group}/{r.name}: {r.detail}")
        print("all passed" if rep.passed else "FAILURES present")
    return EXIT_OK if rep.passed else EXIT_UNCERTIFIED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the
    process: building it takes a few milliseconds, and parsing leaves it
    as it was."""
    ap = argparse.ArgumentParser(prog="hyperlag",
                                 description="Hypergraph Lagrangians and Turan-type searches")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "lambda", cmd_lambda, "maximize the edge polynomial of a graph file",
                    optimizes=True)
    p.add_argument("input")

    p = _subcommand(sub, "check", cmd_check, "test containment of named or file patterns")
    p.add_argument("input")
    p.add_argument("--free-of", nargs="+", required=True)

    p = _subcommand(sub, "compress", cmd_compress,
                    "single compression or the dense+left-compressed loop", optimizes=True,
                    writes=True)
    p.add_argument("input")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--loop", type=int, default=None, choices=(3, 4),
                   help="run the full rewriting loop for this path length")

    p = _subcommand(sub, "extend", cmd_extend, "close all uncovered pairs with fresh edges",
                    writes=True)
    p.add_argument("input")

    p = _subcommand(sub, "construct", cmd_construct, "write a named construction: P t | K t [r] | "
                    "K- t [r] | M t [r] | T m r n | T2|F1|F2|F3|F5, fused or in words",
                    writes=True)
    p.add_argument("kind")
    p.add_argument("params", nargs="*")

    p = _subcommand(sub, "turan", cmd_turan, "exact maximum edge count avoiding given patterns",
                    searches=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", nargs="+", required=True)
    # the search optimizes nothing; the flag stays so existing command
    # lines that pass it keep working
    p.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    p.add_argument("--compare-m", type=int, default=None,
                   help="also print the balanced blowup count with this many classes")

    p = _subcommand(sub, "density", cmd_density,
                    "enumerate pattern-free graphs and report the largest Lagrangian",
                    optimizes=True, searches=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="left_compressed", choices=["left_compressed", "all"])

    p = _subcommand(sub, "verify", cmd_verify, "run the bundled verification suite",
                    optimizes=True)
    p.add_argument("--only", nargs="+", choices=list(GROUPS), default=None)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HgParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
