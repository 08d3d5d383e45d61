"""Acceptance suite: one test per criterion, at the default configuration
(seed 0), printing one pass/fail line per check.  The criteria and their
tolerances live in ``hyperlag.verify`` alone; each test here names the
verify checks that make up its criterion and asserts that they pass.
Each verify group runs once per session and is shared by its tests.

Checkpoint-resume determinism is the one criterion tested here itself: a
length-3 path density run on seven vertices stopped after 600 nodes,
saved and resumed must give the uninterrupted report.
"""

import functools
import json
import tempfile
from pathlib import Path

from hyperlag.search import DensityRun, checkpoint_resume, checkpoint_save, density_evidence
from hyperlag.verify import run_suite


@functools.lru_cache(maxsize=None)
def _group(group: str) -> dict:
    return {r.name: r for r in run_suite(only=[group]).results}


def _accept(group: str, *names: str) -> None:
    results = _group(group)
    for name in names:
        r = results[name]
        mark = "PASS" if r.passed else "FAIL"
        print(f"ACCEPTANCE {group}/{name}: {mark} {json.dumps(r.detail, default=str)}")
    failed = [n for n in names if not results[n].passed]
    assert not failed, [(n, results[n].detail) for n in failed]


def test_c01_complete_family_closed_forms():
    _accept("closed-forms", "complete-family")


def test_c02_near_complete_four():
    _accept("closed-forms", "near-complete-4")


def test_c03_near_complete_six_and_eight():
    _accept("closed-forms", "near-complete-6", "near-complete-8")


def test_c04_quadratic_clique_oracle():
    _accept("clique-oracle", "random-500")


def test_c05_kkt_certificates():
    _accept("closed-forms", "kkt-support")


def test_c06_compression_monotonicity_bulk():
    _accept("compression-monotone", "instances-10000")


def test_c07_compress_preserves_freeness_exhaustive_n6():
    _accept("compress-preserve", "exhaustive-n6")


def test_c08_short_path_density():
    _accept("short-path-density", "path2-on-six")


def test_c08a_path3_density_extremal():
    _accept("path3-density", "max-is-complete-6")


def test_c08b_path3_density_clique_free_separation():
    _accept("path3-density", "clique-free-separation")


def test_c08d_path3_all_mode_equals_left_compressed():
    _accept("path3-density", "all-mode-equals-left-compressed")


def test_c08_checkpoint_resume_matches_uninterrupted():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p3.ckpt.json"
        run = DensityRun("P3", 7, "left_compressed")
        assert not run.run(max_nodes=600)
        checkpoint_save(run, path)
        resumed = checkpoint_resume(path, expect_space={"pattern": "P3", "n": 7})
        rep = resumed.execute()
    same = rep.to_json() == density_evidence("P3", 7, "left_compressed").to_json()
    print(f"ACCEPTANCE 08c path3-checkpoint-determinism: {'PASS' if same else 'FAIL'} "
          f"resumed max {rep.max_lambda:.9f}")
    assert same


def test_c09a_path4_lower_bound():
    _accept("path4-evidence", "lower-bound-8")


def test_c09b_path4_nine_vertex_family():
    _accept("path4-evidence", "covering-nine-exhaustive")


def test_c10_clique_with_pendant_fan():
    _accept("clique-extension-value", "apex-fan-clique")


def test_c11_turan_machinery():
    _accept("turan-machinery", "extension-closes-t2", "turan-5-dual-strategy",
            "blowup-counts", "balanced-blowup-core-free")


def test_c12_forbidden_configuration_run():
    _accept("forbidden-configs", "sampled-200")
