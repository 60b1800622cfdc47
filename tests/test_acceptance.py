"""Acceptance checklist: one scoreboard line per shipped guarantee.

Each test prints ``criterion NN: PASS|FAIL (detail)`` straight to the
terminal (bypassing capture) before asserting, so a plain pytest run shows
the full scoreboard. Criteria 07a-07c pin the synthetic recovery study to
thresholds the estimator does not reach on this generation: with matched
perturbation and innovation variances the within-class coefficient spread
dominates estimation noise, so shrinking toward low rank removes structure,
not noise. Those three stay red by design and document the gap; everything
else must pass.
"""

import importlib.util
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import make_collection, make_evaluator
from lowrank_ar import cli
from lowrank_ar.dataio import read_json, write_json
from lowrank_ar.encoders import (
    build_huffman,
    decode_symbols,
    encode_nucleotides,
    encode_text,
)
from lowrank_ar.field import EmpiricalField, FieldSpec, ls_loss
from lowrank_ar.measurement import correlations, enumerate_slices, predictions
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection
from lowrank_ar.nuclear import capped_simplex_project, nuclear_norm
from lowrank_ar.solver import (
    SolverConfig,
    least_squares_unconstrained,
    solve,
)
from lowrank_ar.study import desk_study as desk_study_runs
from lowrank_ar.study import radius_sweep
from lowrank_ar.synthetic import GenClassSpec, gen_benchmark, standard_class_specs


@pytest.fixture
def report(capsys):
    def _report(tag, ok, detail):
        line = f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ------------------------------------------------------------------ 01


def simplex_oracle(sigma, radius):
    """Root-finding route: theta solves sum max(sigma - theta, 0) = radius."""
    s = np.asarray(sigma, dtype=float)
    if s.sum() <= radius:
        return s.copy()
    theta = brentq(
        lambda t: np.maximum(s - t, 0.0).sum() - radius, 0.0, float(s.max()),
        xtol=1e-14,
    )
    return np.maximum(s - theta, 0.0)


def test_criterion_01_capped_simplex(report):
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    worst = 0.0
    for i in range(1000):
        r = int(gen.integers(1, 7))
        sigma = gen.uniform(0.0, 3.0, size=r)
        if i % 3 == 0 and r >= 2:
            sigma[int(gen.integers(0, r))] = 0.0
            sigma[int(gen.integers(0, r))] = sigma.max()  # force a tie
        radius = float(gen.uniform(0.05, 1.3)) * max(sigma.sum(), 1e-3)
        got = capped_simplex_project(sigma, radius)
        worst = max(worst, float(np.abs(got - simplex_oracle(sigma, radius)).max()))
    dt = time.perf_counter() - t0
    report("01", worst <= 1e-8 and dt < 10.0,
           f"max deviation {worst:.2e} from root-finding oracle, 1000 instances, {dt:.1f}s")


# ------------------------------------------------------------------ 02


def test_criterion_02_adjoint_identity(report):
    t0 = time.perf_counter()
    gen = np.random.default_rng(202)
    worst, count = 0.0, 0
    for c in (1, 2, 4):
        for d in (1, 5, 20):
            for n in (1, 3, 10):
                coll = make_collection(gen, n=n, c=c, t_len=d + 6)
                slices = enumerate_slices(coll, d)
                for _ in range(4):
                    params = ParameterMatrix(
                        gen.standard_normal((c * c * d + c, n)), c, d
                    )
                    y = gen.standard_normal((n, c, len(slices)))
                    # A = w * predictions, A* = w * correlations
                    lhs = float(np.vdot(slices.weight * predictions(slices, params.data), y))
                    rhs = float(np.vdot(params.data, slices.weight * correlations(slices, y)))
                    worst = max(worst, abs(lhs - rhs))
                    count += 1
    dt = time.perf_counter() - t0
    report("02", worst <= 1e-10 and dt < 5.0,
           f"max |<Ab,y> - <b,A*y>| = {worst:.2e} over {count} instances, {dt:.1f}s")


# ------------------------------------------------------------------ 03


def test_criterion_03_field_matches_gradient(report):
    gen = np.random.default_rng(303)
    shapes = [(1, 1, 2), (1, 2, 3), (2, 1, 2), (1, 3, 4)] * 5
    worst = 0.0
    for c, d, n in shapes:
        ev = make_evaluator(gen, n=n, c=c, t_len=12, d=d, link="identity")
        m = c * c * d + c
        params = ParameterMatrix(0.5 * gen.standard_normal((m, n)), c, d)
        grad = np.zeros((m, n))
        h = 1e-6
        for r in range(m):
            for j in range(n):
                bump = np.zeros((m, n))
                bump[r, j] = h
                up = ls_loss(ParameterMatrix(params.data + bump, c, d), ev.slices)
                dn = ls_loss(ParameterMatrix(params.data - bump, c, d), ev.slices)
                grad[r, j] = (up - dn) / (2 * h)
        rel = np.linalg.norm(ev.field(params.data) - 0.5 * grad) / np.linalg.norm(0.5 * grad)
        worst = max(worst, float(rel))
    report("03", worst <= 1e-5,
           f"field vs half the numeric loss gradient: worst rel err {worst:.2e}, 20 instances")


# ------------------------------------------------------------------ 04


def test_criterion_04_monotonicity(report):
    gen = np.random.default_rng(404)
    worst = np.inf
    for link in ("identity", "softmax", "exponential", "logistic"):
        ev = make_evaluator(gen, n=3, c=2, t_len=20, d=2, link=link)
        m = ev.param_rows
        for _ in range(50):
            x = ParameterMatrix(0.3 * gen.standard_normal((m, 3)), 2, 2)
            y = ParameterMatrix(0.3 * gen.standard_normal((m, 3)), 2, 2)
            inner = float(np.vdot(ev.field(x.data) - ev.field(y.data), x.data - y.data))
            worst = min(worst, inner)
    report("04", worst >= -1e-10,
           f"min <F(X)-F(Y), X-Y> = {worst:.2e} over 200 pairs, 4 links")


# ------------------------------------------------------------------ 05


def test_criterion_05_zero_at_truth(report):
    spec = GenClassSpec(
        baseline="uniform", perturbation="gaussian", d=5, n_per_class=20,
        t_len=60, noise_var=0.0, perturbation_var=0.005,
    )
    coll, truth = gen_benchmark([spec], np.random.default_rng(7))
    ev = EmpiricalField(coll, FieldSpec(link=LinkFunction("identity"), order=5))
    fro = float(np.linalg.norm(ev.field(truth.data)))
    report("05", fro <= 1e-12, f"field at the generating matrix, noiseless: {fro:.2e}")


# ------------------------------------------------------------------ 06


def test_criterion_06_slack_ball_matches_ols(report):
    t0 = time.perf_counter()
    gen = np.random.default_rng(42)
    d, n, t_len = 5, 5, 100
    coll = SequenceCollection(
        sequences=[gen.normal(size=t_len) for _ in range(n)],
        ids=[f"s{i}" for i in range(n)],
        kind="real",
    )
    ev = EmpiricalField(coll, FieldSpec(link=LinkFunction("identity"), order=d))
    ols = least_squares_unconstrained(ev.slices, 1, d)
    opt_loss = ls_loss(ols, ev.slices)
    lam = 1.5 * nuclear_norm(ols.data)
    params, state = solve(
        ev, SolverConfig(mode="mirror-prox-backtracking", lambda_=lam, max_iters=512)
    )
    gap = ls_loss(params, ev.slices) - opt_loss
    dt = time.perf_counter() - t0
    report("06", 0 <= gap <= 1e-4 and state.t <= 512 and dt < 30.0,
           f"loss gap to per-sequence optimum {gap:.2e} after {state.t} iterations, {dt:.1f}s")


# ------------------------------------------------------------------ 07


@pytest.fixture(scope="module")
def desk_study():
    """Ten random 3-class benchmarks, exact solver, error-optimal radius."""
    t0 = time.perf_counter()
    runs = [run for _, run in desk_study_runs()]
    return {
        "wins": sum(r.err_best <= 0.6 * r.err_unconstrained for r in runs),
        "mean_ratio": float(np.mean([r.err_best / r.err_unconstrained for r in runs])),
        "mean_ari": float(np.mean([r.ari for r in runs])),
        "rank_opt": float(np.mean([r.rank_best for r in runs])),
        "rank_unc": float(np.mean([r.rank_unconstrained for r in runs])),
        "seconds": time.perf_counter() - t0,
    }


def test_criterion_07a_error_reduction(desk_study, report):
    report(
        "07a", desk_study["wins"] >= 9,
        f"error <= 0.6x unconstrained in {desk_study['wins']}/10 runs, "
        f"mean ratio {desk_study['mean_ratio']:.3f}",
    )


def test_criterion_07b_cluster_recovery(desk_study, report):
    report("07b", desk_study["mean_ari"] >= 0.9,
           f"mean k-means ARI at the error-optimal radius {desk_study['mean_ari']:.3f}")


def test_criterion_07c_rank_reduction(desk_study, report):
    report(
        "07c", desk_study["rank_opt"] < desk_study["rank_unc"],
        f"mean numerical rank {desk_study['rank_opt']:.2f} (optimal radius) vs "
        f"{desk_study['rank_unc']:.2f} (unconstrained)",
    )


def test_criterion_07d_study_runtime(desk_study, report):
    report("07d", desk_study["seconds"] < 900.0,
           f"full ten-benchmark study in {desk_study['seconds']:.0f}s")


# ------------------------------------------------------------------ 08


def test_criterion_08_sweep_curve(report):
    t0 = time.perf_counter()
    pool = standard_class_specs(d=15, n_per_class=60, t_len=250, noise_var=0.02)
    gen = np.random.default_rng(1)
    coll, truth = gen_benchmark([pool[i] for i in (1, 2, 4)], gen)
    sweep = radius_sweep(coll, truth, 0.30, 0.78, 20)
    errs, best_i = sweep.errors, sweep.best
    interior = 0 < best_i < errs.size - 1
    below = errs[best_i] < errs[0] and errs[best_i] < errs[-1]
    ev2 = float(sweep.explained.sum())
    dt = time.perf_counter() - t0
    report(
        "08", interior and below and 0.75 <= ev2 <= 0.95,
        f"20-point sweep: min {errs[best_i]:.4f} at point {best_i} vs endpoints "
        f"({errs[0]:.4f}, {errs[-1]:.4f}), top-2 explained variance {ev2:.3f}, {dt:.0f}s",
    )


# ------------------------------------------------------------------ 09


def _ucr_dir():
    candidates = [
        os.environ.get("UCR_ARCHIVE_DIR"),
        "/root/data/UCRArchive_2018",
        "/root/data/UCR",
        str(Path.home() / "UCRArchive_2018"),
        str(Path.home() / "datasets" / "UCRArchive_2018"),
    ]
    for cand in candidates:
        if cand and (Path(cand) / "Coffee" / "Coffee_TRAIN.tsv").exists():
            return Path(cand)
    return None


_UCR = _ucr_dir()


@pytest.mark.skipif(_UCR is None, reason="UCR archive not present locally")
def test_criterion_09_ucr_spot_checks(report, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "ucr_benchmark", Path(__file__).resolve().parents[1] / "scripts" / "ucr_benchmark.py"
    )
    ucr_benchmark = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ucr_benchmark)
    t0 = time.perf_counter()
    scores = {
        name: ucr_benchmark.run_dataset(_UCR, name, d=20, iters=256, work=tmp_path)["accuracy"]
        for name in ("Coffee", "GunPoint")
    }
    dt = time.perf_counter() - t0
    ok = scores["Coffee"] >= 1.0 - 1e-12 and scores["GunPoint"] >= 0.90 and dt < 600
    report("09", ok,
           f"KNN accuracy Coffee {scores['Coffee']:.3f}, GunPoint {scores['GunPoint']:.3f}, {dt:.0f}s")


# ------------------------------------------------------------------ 10


def test_criterion_10_encoders(report):
    gen = np.random.default_rng(17)
    pool = "abcdefghijklmnopqrstuvwxyz0123456789"
    kraft_ok = round_trip_ok = True
    for _ in range(100):
        size = int(gen.integers(2, 19))
        letters = list(gen.choice(list(pool), size=size, replace=False))
        freqs = {ch: float(gen.uniform(0.1, 10.0)) for ch in letters}
        arity = int(gen.choice([2, 3, 4]))
        code = build_huffman(freqs, arity=arity)
        kraft_ok &= sum(arity ** -len(w) for w in code.codebook.values()) <= 1 + 1e-12
        text = "".join(gen.choice(letters, size=60))
        round_trip_ok &= decode_symbols(encode_text(text, code), code) == text

    iupac = "ACGTURYSWKMBDHVN"
    seq = "".join(np.random.default_rng(18).choice(list(iupac), size=300))
    probs = encode_nucleotides(seq)
    columns_ok = bool(np.allclose(probs.sum(axis=0), 1.0, atol=1e-12))
    n_col = encode_nucleotides("N")
    n_ok = n_col.shape == (4, 1) and np.array_equal(n_col, np.full((4, 1), 0.25))
    report(
        "10", kraft_ok and round_trip_ok and columns_ok and n_ok,
        "100 codebooks round-trip within Kraft budget; nucleotide columns are "
        "distributions and 'N' spreads uniformly",
    )


# ------------------------------------------------------------------ 11


def test_criterion_11_rerun_determinism(report, tmp_path):
    synth_cfg = tmp_path / "synth.json"
    write_json({"n_classes": 2, "d": 3, "t_len": 40, "n_per_class": 5, "seed": 5}, synth_cfg)
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0

    same = True
    # the full-horizon field, and a stochastic-subwindow one under the default solver
    for name, extra in (("full", {}), ("window", {"window_g": 12, "seed": 3})):
        embed_cfg = tmp_path / f"{name}.json"
        write_json(
            {
                "input": {
                    "path": str(data / "dataset.csv"),
                    "labels_path": str(data / "labels.csv"),
                },
                "d": 3,
                "iters": 64,
                **extra,
            },
            embed_cfg,
        )
        out_a = tmp_path / f"{name}_a"
        assert cli.main(["embed", "--config", str(embed_cfg), "--out", str(out_a)]) == 0

        # replay from the recorded manifest, as a fresh run would
        replay_cfg = tmp_path / f"{name}_replay.json"
        write_json(read_json(out_a / "manifest.json"), replay_cfg)
        out_b = tmp_path / f"{name}_b"
        assert cli.main(["embed", "--config", str(replay_cfg), "--out", str(out_b)]) == 0
        for output in ("embeddings.csv", "history.csv"):
            same &= (out_a / output).read_bytes() == (out_b / output).read_bytes()

    # a sweep rerun into the same directory with new settings keeps no old row
    sweep_a, sweep_b = tmp_path / "sweep_a", tmp_path / "sweep_b"
    for iters in (4, 32):
        sweep_cfg = tmp_path / f"sweep_{iters}.json"
        write_json(
            {
                "input": {"path": str(data / "dataset.csv")},
                "d": 3, "n_points": 3, "lower": 0.5, "upper": 5.0, "iters": iters,
            },
            sweep_cfg,
        )
        assert cli.main(["sweep", "--config", str(sweep_cfg), "--out", str(sweep_a)]) == 0
    replay_cfg = tmp_path / "sweep_replay.json"
    write_json(read_json(sweep_a / "manifest.json"), replay_cfg)
    assert cli.main(["sweep", "--config", str(replay_cfg), "--out", str(sweep_b)]) == 0
    same &= (sweep_a / "sweep.csv").read_bytes() == (sweep_b / "sweep.csv").read_bytes()
    report("11", same, "manifest replays reproduced embeddings.csv and history.csv byte for "
           "byte, full-horizon and stochastic-subwindow, and sweep.csv after a rerun "
           "with new settings")
