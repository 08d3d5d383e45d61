"""One benchmark process: build the inputs, run rounds, check, report.

Started by run.py.  It prints ``ready`` as soon as the inputs are built
(run.py times set-up up to that line), then runs whole rounds of the
workload's operations for ``--seconds`` give or take half a round, timing
every call on its own and sampling the host's speed between calls, checks
every output, and prints one JSON line: correct, attempted, failed and
metrics.

With ``--trace 1`` it first runs one untraced round as the reference for
the tracing overhead, then traced rounds; set-up is traced as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


# The host's speed is sampled by timing a fixed pure-Python search: other
# tenants of a shared host slow every call by up to half for minutes at a
# time, and the search slows with them.
CAL_REPEAT = 15         # 8-queens solved this many times per sample
CAL_REF_S = 0.1         # about a sample's median time on the 2-vCPU Xeon host
CAL_EDGE = 5            # samples before the first round and after the last
CAL_EVERY_S = 1.0       # a fresh sample after at least this much call time


def _queens(n: int, row: int = 0, cols=frozenset(), up=frozenset(), down=frozenset()) -> int:
    if row == n:
        return 1
    return sum(_queens(n, row + 1, cols | {c}, up | {row + c}, down | {row - c})
               for c in range(n) if c not in cols and row + c not in up and row - c not in down)


def _calibrate() -> float:
    """Seconds the host takes right now for 8-queens over frozensets,
    CAL_REPEAT times: branchy, set-heavy interpreter work like the
    program's own searches."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPEAT):
        _queens(8)
    return time.perf_counter() - t0


def _rounds(workload, inputs, ref, seconds: float, wrap=None, cals: list | None = None):
    """Run whole rounds until the next one, taking as long as the last,
    would end more than half a round past ``seconds`` (at least one round),
    so a run lasts ``seconds`` give or take half a round.  Returns the wall
    time of every call, one list per round, the last round's outputs, and
    the problems found per round.

    Given a list ``cals``, appends host-speed samples to it (see
    _calibrate): CAL_EDGE before the first round, one before each call
    that follows at least CAL_EVERY_S of call time since the last sample,
    and CAL_EDGE after the last round.  Samples are never taken inside a
    call."""
    times, problems = [], []
    since = 0.0
    if cals is not None:
        cals.extend(_calibrate() for _ in range(CAL_EDGE))
    start = time.perf_counter()
    while True:
        calls = workload.calls(inputs)

        def timed():
            nonlocal since
            outputs, took = [], []
            for call in calls:
                if cals is not None and since >= CAL_EVERY_S:
                    cals.append(_calibrate())
                    since = 0.0
                t0 = time.perf_counter()
                outputs.append(call())
                took.append(time.perf_counter() - t0)
                since += took[-1]
            return took, outputs

        took, outputs = wrap(timed) if wrap else timed()
        times.append(took)
        problems.append(workload.check(inputs, ref, outputs))
        if time.perf_counter() - start + sum(took) / 2 > seconds:
            if cals is not None:
                cals.extend(_calibrate() for _ in range(CAL_EDGE))
            return times, outputs, problems


def _round_time(times) -> float:
    """A round's time as the sum over its calls of each call's median time
    over the rounds: a burst of load on the host then spoils one sample of
    one call, not a whole round."""
    return sum(statistics.median(column) for column in zip(*times))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        inputs = tracer.phase("setup", lambda: workload.build(args.seed))
        tracer.uninstall()
    else:
        inputs = workload.build(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ref = workload.reference(inputs)
    problems = []
    if tracer:
        untraced, _, p = _rounds(workload, inputs, ref, 0)
        problems += p
        tracer.install()
        times, outputs, p = _rounds(workload, inputs, ref, args.seconds,
                                    wrap=lambda fn: tracer.phase("round", fn))
        tracer.uninstall()
        problems += p
    else:
        cals = []
        times, outputs, problems = _rounds(workload, inputs, ref, args.seconds, cals=cals)

    failed = sum(1 for round_ in problems for op in round_ if op)
    attempted = sum(len(round_) for round_ in problems)
    for msg in ref["input_problems"] + [m for round_ in problems for op in round_ for m in op][:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if tracer:
        counts = workload.counts(outputs)
        layer = tracer.layer_metrics(counts)
        walls = [sum(took) for took in times]
        overhead = statistics.median(walls) / sum(untraced[0]) - 1.0
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "untraced_round_s": sum(untraced[0]), "traced_round_s": walls,
                            "overhead": overhead, "counts": counts})
        print(f"trace: overhead {overhead:+.1%} (untraced round {sum(untraced[0]):.3f} s, "
              f"traced median {statistics.median(walls):.3f} s over {len(walls)}); "
              f"{len(tracer.start)} spans in {path.relative_to(ROOT)}; "
              f"absent: {', '.join(tracer.absent) or 'none'}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the host's speed over the run: the median sample, so that a burst
        # of load during one sample moves nothing
        speed = CAL_REF_S / statistics.median(cals)
        wall = _round_time(times)
        metrics = {"wall_ref_s": {"value": wall * speed, "unit": "s"},
                   "peak_rss_mib": {"value": rss_mib, "unit": "MiB"}}
        print(f"rounds: {len(times)}, calls per round: {len(times[0])}, wall time per round: "
              + ", ".join(f"{sum(took):.4f}" for took in times))
        print(f"round time from per-call medians: {wall:.4f} s; host speed samples: {len(cals)}, "
              f"median {statistics.median(cals):.4f} s (reference {CAL_REF_S} s); "
              f"at reference speed: {wall * speed:.4f} s")
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"times-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"wall": times, "cal": cals}) + "\n")
    result = {"correct": not ref["input_problems"] and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    if not tracer:
        result["host_speed"] = speed     # for run.py to scale setup_s; not printed by it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
