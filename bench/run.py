"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are density-paths,
turan-small, forbidden-configs and lambda-corpus (see README.md).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with ``--trace 0`` the metrics are wall_ref_s,
setup_s and peak_rss_mib, with ``--trace 1`` the per-layer metrics.

The work runs in a child process (worker.py) so that set-up can be timed
from interpreter start: setup_s is the median, over that process and more
that only build the inputs and exit, of the time from starting the process
to its ``ready`` line, scaled to the reference host speed by the factor the
worker measured for wall_ref_s (see worker.py).  Set-up is sampled at least
SETUP_SAMPLES times and for at least SETUP_SECONDS in all, so cheap set-ups
get more samples.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0
SETUP_MAX_SAMPLES = 15
TIMEOUT_S = 170
# One BLAS thread: the numpy arrays here are tiny, and a second thread
# would only contend for the machine's cores and widen the spread.
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONHASHSEED": "0"}


def _start(args, setup_only: bool, deadline: float) -> tuple[subprocess.Popen, float | None]:
    """Start a worker and wait, until the deadline at most, for its
    ``ready`` line; returns the process and the set-up time, or None if it
    did not become ready."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **ENV})
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
        line = proc.stdout.readline() if readable else ""
    except BaseException:
        _stop(proc)
        raise
    setup = time.perf_counter() - t0
    return proc, setup if line == "ready\n" else None


def _stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def _finish(proc: subprocess.Popen, deadline: float) -> tuple[int, list[str]]:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        print(f"worker exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3, []
    except BaseException:
        _stop(proc)
        raise
    return proc.returncode, out.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "hyperlag" / "__init__.py").is_file():
        print(f"no hyperlag sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the worker being waited for is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + TIMEOUT_S
    proc, setup = _start(args, setup_only=False, deadline=deadline)
    code, lines = _finish(proc, deadline)
    if setup is None or code != 0 or not lines:
        print(f"worker failed (exit {code})", file=sys.stderr)
        return code or 1
    *chatter, last = lines
    for line in chatter:
        print(line)
    result = json.loads(last)
    speed = result.pop("host_speed", None)

    if not args.trace:
        samples = [setup]
        while len(samples) < SETUP_MAX_SAMPLES and (
                len(samples) < SETUP_SAMPLES or sum(samples) < SETUP_SECONDS):
            probe, s = _start(args, setup_only=True, deadline=deadline)
            code, _ = _finish(probe, deadline)
            if s is None or code != 0:
                print(f"set-up probe failed (exit {code})", file=sys.stderr)
                return code or 1
            samples.append(s)
        print("setup samples: " + ", ".join(f"{s:.4f}" for s in samples)
              + f"; median {statistics.median(samples):.4f} s, at reference speed "
              f"{statistics.median(samples) * speed:.4f} s")
        result["metrics"]["setup_s"] = {"value": statistics.median(samples) * speed, "unit": "s"}

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
