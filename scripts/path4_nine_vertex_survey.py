"""Survey the dense left-compressed 3-graphs on exactly 9 vertices with
no linear path of 4 edges.

Any covering-pairs left-compressed graph on [9] contains the full star at
vertex 1, so the whole family is the star plus a dominance-closed set of
triples avoiding vertex 1.  This script enumerates that family
exhaustively, filters to dense members, and prints each with its
Lagrangian next to the relevant bounds.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperlag.corpora import full_star
from hyperlag.freeness import contains, creates_linear_path
from hyperlag.hypergraph import is_left_compressed, linear_path, new
from hyperlag.lagrangian import closed_form, is_dense, maximize
from hyperlag.search import enumerate_left_compressed


def _mask(e) -> int:
    """The vertex bitmask of a triple of [8] moved up one, onto [2..9]."""
    return sum(1 << (v + 1) for v in e)


def main() -> int:
    t0 = time.time()
    star = full_star(9)
    star_masks = [sum(1 << v for v in e) for e in star.edges]
    # the down-sets of triples of [2..9] whose union with the star stays
    # path-free, enumerated on [8] and moved up one
    found = []
    enumerate_left_compressed(
        8, 3,
        prune=lambda edges, e: creates_linear_path(star_masks + [_mask(f) for f in edges], _mask(e), 4),
        visit=lambda edges: found.append(tuple(tuple(v + 1 for v in e) for e in edges)))
    rows = []
    for extras in found:
        g = new(3, 9, list(star.edges) + list(extras))
        assert contains(g, linear_path(4)) is None and is_left_compressed(g)
        dense = is_dense(g)
        lam = maximize(g).value
        rows.append({"extra_edges": [list(e) for e in extras], "edges": len(g.edges),
                     "dense": dense, "lambda": lam})
    rows.sort(key=lambda r: (-r["dense"], -r["lambda"]))
    print(json.dumps({
        "family_size": len(rows),
        "dense_members": sum(r["dense"] for r in rows),
        "bounds": {"complete_8": closed_form("K", 8).value, "nine_vertex_chain": 1250 / 11907},
        "members": rows,
    }, indent=1))
    print(f"# wall time {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
