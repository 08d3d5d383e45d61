"""BENCHMARK.json agrees with the code, run.py refuses to run without the
program's sources, and the worker samples the host's speed only between
calls."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_benchmark_json_lists_what_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spans.PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_ref_s", "setup_s", "peak_rss_mib"}
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "turan-small", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_unknown_workload_fails():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "nope", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0 and '"correct"' not in out.stdout


def test_rounds_sample_host_speed_between_calls_only(monkeypatch):
    class Clock:
        now = 0.0

        def perf_counter(self):
            return self.now

    clock, events = Clock(), []

    def call():
        events.append("call")
        clock.now += 1.0

    class Stub(workloads.Workload):
        def calls(self, inputs):
            return [call] * 3

        def check(self, inputs, ref, outputs):
            return [[] for _ in outputs]

    monkeypatch.setattr(worker, "time", clock)
    monkeypatch.setattr(worker, "_calibrate", lambda: events.append("cal") or 0.1)
    monkeypatch.setattr(worker, "CAL_EVERY_S", 1.5)
    cals = []
    times, _, problems = worker._rounds(Stub(), None, None, 0, cals=cals)
    assert times == [[1.0, 1.0, 1.0]] and problems == [[[], [], []]]
    edge = ["cal"] * worker.CAL_EDGE
    assert events == edge + ["call", "call", "cal", "call"] + edge
    assert cals == [0.1] * (2 * worker.CAL_EDGE + 1)
