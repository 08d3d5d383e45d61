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
from hyperlag.search import _ColexDFS


class ExtrasRun(_ColexDFS):
    """Down-sets of triples of [2..9] whose union with the star stays
    path-free (ground shifted down by one so the engine sees [1..8])."""

    def __init__(self, star_masks):
        super().__init__(8, 3, True)
        self.star_masks = star_masks
        self.found = []

    def _shift(self, e):
        return tuple(v + 1 for v in e)

    def include_accept(self, k):
        mask = sum(1 << v for v in self._shift(self.ground[k]))
        masks = self.star_masks + [sum(1 << (v + 1) for v in self.ground[i])
                                   for i in self.included]
        return not creates_linear_path(masks, mask, 4)

    def on_leaf(self):
        self.found.append(tuple(sorted(self._shift(self.ground[i]) for i in self.included)))


def main() -> int:
    t0 = time.time()
    star = full_star(9)
    star_masks = [sum(1 << v for v in e) for e in star.edges]
    run = ExtrasRun(star_masks)
    run.run()
    rows = []
    for extras in run.found:
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
