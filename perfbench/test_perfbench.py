"""Tests of the benchmark itself: its checks reject corrupted outputs, and
its printed metrics match BENCHMARK.json.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from lowrank_ar import evalkit, solver  # noqa: E402
from lowrank_ar.field import EmpiricalField, FieldSpec  # noqa: E402
from lowrank_ar.model import LinkFunction, SequenceCollection  # noqa: E402


@pytest.fixture(scope="module")
def problem():
    """A small identity-link fit: (slices, design, targets, radius)."""
    gen = np.random.default_rng(7)
    seqs = []
    for i in range(12):
        x = np.zeros(60)
        coef = 0.5 if i % 2 else -0.4
        for t in range(1, 60):
            x[t] = coef * x[t - 1] + gen.standard_normal()
        seqs.append(x)
    coll = SequenceCollection(sequences=seqs, ids=[f"s{i}" for i in range(12)])
    slices = EmpiricalField(coll, FieldSpec(link=LinkFunction("identity"), order=3)).slices
    design, targets = checks.stacked_design(seqs, 3)
    ols = solver.least_squares_unconstrained(slices, 1, 3).data
    return slices, design, targets, 0.3 * checks.nuclear_norm(ols)


def test_design_reproduces_the_package_slices(problem):
    slices, design, targets, _ = problem
    regs = np.stack([s.regressors for s in slices], axis=1)
    assert np.array_equal(regs, design)
    obs = np.stack([s.target / s.weight for s in slices], axis=1)
    assert np.allclose(obs, targets[:, :, 0], rtol=1e-14, atol=0)


def test_ball_and_gap_accept_the_solve_and_reject_corruptions(problem):
    slices, design, targets, radius = problem
    params, _ = solver.constrained_least_squares(slices, 1, 3, radius)
    assert checks.in_ball(params.data, radius)[0]
    assert checks.relative_gap(params.data, design, targets, radius) <= 1e-9
    assert not checks.in_ball(1.01 * params.data, radius)[0]
    # a non-optimal iterate: the splitting stopped after two iterations
    early, _ = solver.constrained_least_squares(slices, 1, 3, radius, max_iters=2)
    assert checks.in_ball(early.data, radius)[0]
    assert checks.relative_gap(early.data, design, targets, radius) > 1e-3


def test_optimum_bracket_holds_the_exact_solve(problem):
    slices, design, targets, radius = problem
    lower, upper = checks.constrained_optimum(design, targets, radius)
    params, _ = solver.constrained_least_squares(slices, 1, 3, radius)
    loss = checks.ls_loss(params.data, design, targets)
    assert lower <= loss * (1 + 1e-9)
    assert upper - lower <= 1e-6 * upper
    assert abs(loss - upper) <= 1e-6 * upper


def test_knn_vote_matches_and_catches_a_flipped_label():
    gen = np.random.default_rng(3)
    train = gen.standard_normal((3, 40))
    labels = np.arange(40) % 3
    test = gen.standard_normal((3, 25))
    for k in (1, 2, 4, 8):
        pred = evalkit.knn_classify(train, labels, test, k=k)
        assert np.array_equal(checks.knn_vote(train, labels, test, k), pred)
    pred[0] = (pred[0] + 1) % 3
    assert not np.array_equal(checks.knn_vote(train, labels, test, 8), pred)


def test_lloyd_fixed_point_catches_a_moved_assignment():
    gen = np.random.default_rng(5)
    points = np.concatenate([gen.normal(c, 0.3, size=(2, 20)) for c in (-3, 0, 3)], axis=1)
    part = evalkit.kmeans(points, 3, np.random.default_rng(0))
    assert checks.lloyd_fixed_point(points, part.assignments)[0]
    moved = part.assignments.copy()
    moved[0] = (moved[0] + 1) % 3
    assert not checks.lloyd_fixed_point(points, moved)[0]


def test_code_length_bounds_reject_a_wasteful_code():
    texts = ["aaaaabbbc" * 20]
    assert checks.code_length_bounds(texts, {"a": "0", "b": "1", "c": "2"}, 4)[0]
    assert not checks.code_length_bounds(texts, {"a": "000", "b": "1", "c": "2"}, 4)[0]


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ucr-classify",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_package():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(bare, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
