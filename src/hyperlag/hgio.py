"""Reading and writing hypergraphs.

Text format (``.hg``): optional ``#`` comment lines, a header line
``r=<int> n=<int>``, then one edge per line as space-separated vertex ids.
Writers always emit canonical sorted form.  A JSON mirror with fields
``r``, ``n``, ``edges`` serves machine exchange.
"""

from __future__ import annotations

import json
from pathlib import Path

from .hypergraph import Hypergraph, new


class HgParseError(ValueError):
    """Parse failure with 1-based line/column diagnostics."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_hg(text: str) -> Hypergraph:
    """Read the text format.  Each edge line is checked against the header
    as it is read, so an error names the line and column it is at."""
    lines = text.splitlines()
    r = n = None
    edges = []
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if r is None:
            r, n = _parse_header(raw, no)
            continue
        verts = []
        for col, tok in _fields(raw):
            try:
                v = int(tok)
            except ValueError:
                raise HgParseError(f"expected a vertex id, got {tok!r}", no, col)
            if not 1 <= v <= n:
                raise HgParseError(f"vertex {v} is outside [1, {n}]", no, col)
            if v in verts:
                raise HgParseError(f"vertex {v} repeats in this edge", no, col)
            verts.append(v)
        if len(verts) != r:
            raise HgParseError(f"edge has {len(verts)} vertices, expected {r}", no)
        edges.append(verts)
    if r is None:
        raise HgParseError("missing header line 'r=<int> n=<int>'", max(1, len(lines)))
    return new(r, n, edges)


def _fields(raw: str):
    """The whitespace-separated fields of a line with their 1-based columns."""
    end = 0
    for tok in raw.split():
        start = raw.index(tok, end)
        yield start + 1, tok
        end = start + len(tok)


def _parse_header(raw: str, no: int) -> tuple[int, int]:
    """The header's r and n; each must appear once, and nothing else."""
    vals = {}
    for col, part in _fields(raw):
        if "=" not in part:
            raise HgParseError(f"malformed header field {part!r}", no, col)
        key, _, sval = part.partition("=")
        if key not in ("r", "n"):
            raise HgParseError(f"unknown header field {key!r}; the header is 'r=<int> n=<int>'",
                               no, col)
        if key in vals:
            raise HgParseError(f"header field {key!r} repeats", no, col)
        try:
            vals[key] = int(sval)
        except ValueError:
            raise HgParseError(f"header field {part!r} is not an integer", no, col)
    if "r" not in vals or "n" not in vals:
        raise HgParseError("header must define both r= and n=", no)
    try:
        new(vals["r"], vals["n"], ())
    except ValueError as exc:
        raise HgParseError(str(exc), no) from exc
    return vals["r"], vals["n"]


def emit_hg(g: Hypergraph, comment: str | None = None) -> str:
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"r={g.r} n={g.n}")
    for e in g.edges:
        out.append(" ".join(str(v) for v in e))
    return "\n".join(out) + "\n"


def to_json_obj(g: Hypergraph) -> dict:
    return {"r": g.r, "n": g.n, "edges": [list(e) for e in g.edges]}


def from_json_obj(obj) -> Hypergraph:
    try:
        return new(obj["r"], obj["n"], [tuple(e) for e in obj["edges"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"hypergraph JSON needs fields r, n, edges: {exc}") from exc


def load(path) -> Hypergraph:
    """Load from a .hg or .json file, dispatching on suffix."""
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".json":
        return from_json_obj(json.loads(text))
    return parse_hg(text)


def save(g: Hypergraph, path, comment: str | None = None) -> None:
    p = Path(path)
    if p.suffix.lower() == ".json":
        p.write_text(json.dumps(to_json_obj(g), indent=1) + "\n")
    else:
        p.write_text(emit_hg(g, comment))
