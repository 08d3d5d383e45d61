"""Enumerate left-compressed path-free graphs on 7 vertices and report
the extremal Lagrangians, with optional checkpointing.

Usage:
    python scripts/path3_density_scan.py [--n 7] [--pattern P3] [--mode left_compressed]
        [--checkpoint state.json] [--resume] [--max-nodes N]

A run that hits --max-nodes with --checkpoint set saves its state and
exits 3; --resume with the same pattern, n and mode continues it and
prints the report the uninterrupted run would have printed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperlag.search import DensityRun, checkpoint_resume, checkpoint_save


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pattern", default="P3", choices=["P2", "T2", "P3", "P4"])
    ap.add_argument("--n", type=int, default=7)
    ap.add_argument("--mode", default="left_compressed", choices=["left_compressed", "all"])
    ap.add_argument("--checkpoint", default=None)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--max-nodes", type=int, default=None)
    args = ap.parse_args(argv)

    if args.resume:
        if not args.checkpoint:
            ap.error("--resume needs --checkpoint")
        run = checkpoint_resume(args.checkpoint,
                                expect_space={"pattern": args.pattern, "n": args.n,
                                              "mode": args.mode})
        print(f"resumed at {run.stats.nodes} nodes, {run.stats.leaves} survivors")
    else:
        run = DensityRun(args.pattern, args.n, args.mode)

    t0 = time.time()
    report = run.execute(max_nodes=args.max_nodes)
    if not run.finished and args.checkpoint:
        checkpoint_save(run, args.checkpoint)
        print(f"budget hit after {run.stats.nodes} nodes; checkpoint written to {args.checkpoint}")
        return 3
    print(json.dumps(report.to_json(), indent=1))
    print(f"# wall time {time.time() - t0:.1f}s", file=sys.stderr)
    return 0 if report.status == "exact" else 3


if __name__ == "__main__":
    raise SystemExit(main())
