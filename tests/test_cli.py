"""End-to-end command line runs through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lowrank_ar import cli, evalkit
from lowrank_ar.dataio import (
    read_csv,
    read_json,
    read_labels_csv,
    read_matrix_csv,
    write_collection_csv,
    write_json,
    write_matrix_csv,
    write_split_csv,
)
from lowrank_ar.embedding import read_embedding_csv
from lowrank_ar.model import SequenceCollection
from lowrank_ar.synthetic import STANDARD_PROCEDURES


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A tiny generated benchmark shared by the embed/eval/sweep tests."""
    root = tmp_path_factory.mktemp("cli_synth")
    cfg = root / "cfg.json"
    write_json(
        {"n_classes": 2, "d": 3, "t_len": 40, "n_per_class": 5, "seed": 5}, cfg
    )
    out = root / "data"
    assert run(["synth", "--config", cfg, "--out", out]) == 0
    return out


def embed_config(synth_dir, **extra):
    config = {
        "input": {
            "path": str(synth_dir / "dataset.csv"),
            "labels_path": str(synth_dir / "labels.csv"),
        },
        "d": 3,
        "iters": 48,
    }
    config.update(extra)
    return config


def run_embed(tmp_path, synth_dir, name="embed", **extra):
    cfg = tmp_path / f"{name}.json"
    write_json(embed_config(synth_dir, **extra), cfg)
    out = tmp_path / name
    rc = run(["embed", "--config", cfg, "--out", out])
    return rc, out


# ---------------------------------------------------------------- synth


def test_synth_outputs(synth_dir):
    labels = read_labels_csv(synth_dir / "labels.csv")
    assert len(labels) == 10
    assert sorted(set(labels.values())) == [0, 1]
    names, truth = read_matrix_csv(synth_dir / "truth.csv")
    assert truth.shape == (3, 10)  # lag rows only; the bias row is omitted
    assert list(labels) == names
    dataset_lines = (synth_dir / "dataset.csv").read_text().splitlines()
    assert len(dataset_lines) == 1 + 10 * 40
    manifest = read_json(synth_dir / "manifest.json")
    assert manifest["command"] == "synth"
    assert manifest["n_classes"] == 2
    assert manifest["d"] == 3
    assert manifest["out"] == str(synth_dir)


def test_synth_rerun_is_byte_identical(tmp_path, synth_dir):
    manifest = read_json(synth_dir / "manifest.json")
    cfg = tmp_path / "replay.json"
    write_json(manifest, cfg)
    out = tmp_path / "replay"
    assert run(["synth", "--config", cfg, "--out", out]) == 0
    for name in ("dataset.csv", "labels.csv", "truth.csv"):
        assert (out / name).read_bytes() == (synth_dir / name).read_bytes()


def test_synth_explicit_classes(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(
        {
            "classes": [
                {"baseline": "uniform", "perturbation": "gaussian"},
                {"baseline": "exp-decay", "perturbation": "most-recent-third"},
            ],
            "d": 4,
            "t_len": 30,
            "n_per_class": 3,
        },
        cfg,
    )
    out = tmp_path / "out"
    assert run(["synth", "--config", cfg, "--out", out]) == 0
    assert sorted(set(read_labels_csv(out / "labels.csv").values())) == [0, 1]


def test_synth_variances_apply_to_the_standard_classes(tmp_path):
    # n_classes draws the standard procedures under the same variances as classes
    sizes = {"d": 3, "t_len": 30, "n_per_class": 3, "perturbation_var": 0.05, "gamma_decay": 0.7}
    classes = [{"baseline": b, "perturbation": p} for b, p in STANDARD_PROCEDURES[:2]]
    for name, extra in (("standard", {"n_classes": 2}), ("named", {"classes": classes})):
        write_json({**sizes, **extra}, tmp_path / f"{name}.json")
        assert run(["synth", "--config", tmp_path / f"{name}.json", "--out", tmp_path / name]) == 0
    standard, named = (tmp_path / "standard" / "truth.csv"), (tmp_path / "named" / "truth.csv")
    assert standard.read_bytes() == named.read_bytes()


def test_synth_unstable_class_exits_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(
        {
            "classes": [{"baseline": "exp-decay", "perturbation": "gaussian"}],
            "perturbation_var": 100.0,
            "d": 5,
            "t_len": 100,
            "n_per_class": 2,
            "seed": 0,
        },
        cfg,
    )
    assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 3


def test_synth_redraws_unstable_sequences(tmp_path):
    # seed 1 draws explosive coefficients for some sequences more than once
    out = tmp_path / "out"
    assert run(["synth", "--d", 3, "--seed", 1, "--out", out]) == 0
    assert len(read_labels_csv(out / "labels.csv")) == 900


# ---------------------------------------------------------------- embed


def test_embed_outputs_and_manifest(tmp_path, synth_dir):
    rc, out = run_embed(tmp_path, synth_dir)
    assert rc == 0
    for name in ("embeddings.csv", "history.csv", "metrics.json", "manifest.json"):
        assert (out / name).exists()
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "embed"
    assert manifest["link"] == "identity"  # resolved default for real data
    assert manifest["mode"] == "mirror-prox-backtracking"
    assert manifest["lambda"] == "inf"
    metrics = read_json(out / "metrics.json")
    assert set(metrics) == set(cli._METRIC_KEYS) | {"solves", "environment", "peak_rss_mb"}
    assert metrics["peak_rss_mb"] > 0
    assert metrics["lambda"] is None  # inf is not representable in JSON
    assert metrics["solves"] == {"iteration-cap": 1}
    assert set(metrics["environment"]) == {"python", "numpy", "scipy", "blas", "scipy_blas"}
    assert metrics["environment"]["numpy"] == np.__version__
    assert metrics["approx_rank"] >= 1
    header = (out / "embeddings.csv").read_text().splitlines()[0]
    assert header.startswith("id,label,dim_1")


def test_embed_rerun_is_byte_identical(tmp_path, synth_dir):
    rc_a, out_a = run_embed(tmp_path, synth_dir, name="run_a", iters=32)
    rc_b, out_b = run_embed(tmp_path, synth_dir, name="run_b", iters=32)
    assert rc_a == rc_b == 0
    assert (out_a / "embeddings.csv").read_bytes() == (out_b / "embeddings.csv").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


def test_embed_reruns_differ_only_in_runtime(tmp_path, synth_dir):
    search = {"strategy": "grid", "objective": "train-metric", "n_points": 4}
    outputs = []
    for _ in range(2):  # the same config and output directory: the manifest names it
        rc, out = run_embed(tmp_path, synth_dir, iters=16, search=search)
        assert rc == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    first, second = outputs
    assert sorted(first) == sorted(second)
    assert "search.csv" in first
    metrics_a = json.loads(first.pop("metrics.json"))
    metrics_b = json.loads(second.pop("metrics.json"))
    assert first == second
    for key in ("runtime_seconds", "peak_rss_mb"):  # wall time and the process's memory
        assert metrics_a.pop(key) > 0
        metrics_b.pop(key)
    assert metrics_a == metrics_b
    assert sum(metrics_a["solves"].values()) == 5  # inf and the grid's four radii


def test_embed_admm_mode(tmp_path, synth_dir):
    rc, out = run_embed(
        tmp_path, synth_dir, name="admm", mode="admm-ls", **{"lambda": 2.0}
    )
    assert rc == 0
    metrics = read_json(out / "metrics.json")
    assert metrics["lambda"] == 2.0


def test_embed_search_bisect(tmp_path, synth_dir):
    rc, out = run_embed(
        tmp_path, synth_dir, name="bisect",
        search={"strategy": "bisect-to-rank1"}, iters=32,
    )
    assert rc == 0
    metrics = read_json(out / "metrics.json")
    assert metrics["approx_rank"] in (0, 1)


def test_embed_search_writes_search_csv(tmp_path, synth_dir, monkeypatch):
    found = {}
    real_search = cli.lambda_search

    def recording_search(*args, **kwargs):
        found["result"] = real_search(*args, **kwargs)
        return found["result"]

    monkeypatch.setattr(cli, "lambda_search", recording_search)
    rc, out = run_embed(
        tmp_path, synth_dir, name="brent", mode="admm-ls",
        truth_path=str(synth_dir / "truth.csv"), search={"strategy": "brent"},
    )
    assert rc == 0
    result = found["result"]
    with open(out / "search.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "score", "iterations", "termination"]
    assert [float(r[0]) for r in rows[1:]] == result.lambdas_tried
    assert [float(r[1]) for r in rows[1:]] == result.scores
    assert len(rows) > 2
    for row in rows[1:]:
        assert int(row[2]) >= 0
        assert row[3] in ("converged", "slack", "diverged", "iteration-cap")


def test_embed_search_csv_leaves_unsolved_radius_empty(tmp_path, synth_dir):
    rc, out = run_embed(
        tmp_path, synth_dir, name="bisect_csv", mode="admm-ls",
        search={"strategy": "bisect-to-rank1"},
    )
    assert rc == 0
    with open(out / "search.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["0", "0", "", ""]  # radius 0 is the zero matrix, never solved
    assert all(row[3] in ("converged", "slack", "iteration-cap") for row in rows[2:])


def search_rows(out):
    with open(out / "search.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def test_embed_admm_search_runs_under_the_admm_cap(tmp_path, synth_dir):
    common = dict(
        mode="admm-ls", truth_path=str(synth_dir / "truth.csv"), search={"strategy": "brent"},
    )
    rc, out = run_embed(tmp_path, synth_dir, name="own_cap", iters=None, **common)
    assert rc == 0
    assert read_json(out / "manifest.json")["iters"] is None
    rows = search_rows(out)
    assert not [row for row in rows if row[2:] == ["256", "iteration-cap"]]
    # Brent scores the unconstrained fit it already holds, as radius inf
    assert rows[0][0] == "inf" and rows[0][2:] == ["0", "slack"]
    # an explicit iteration count still caps every solve
    rc, out = run_embed(tmp_path, synth_dir, name="set_cap", iters=5, **common)
    assert rc == 0
    assert max(int(row[2]) for row in search_rows(out)) <= 5


def test_embed_exits_3_when_the_fit_collapses_to_zero(tmp_path, capsys):
    # one explosive sequence (1e8) beside four unit-scale ones: the first
    # prox step keeps the whole radius 5, but kappa cannot climb from 1e-6
    # to the field's scale in 60 doublings
    rng = np.random.default_rng(0)
    seqs = [rng.standard_normal((1, 40)) for _ in range(4)]
    seqs.append(1e8 * 1.9 ** np.arange(-39.0, 1.0)[None])
    collection = SequenceCollection(sequences=seqs, ids=[f"s{i}" for i in range(5)])
    write_collection_csv(collection, tmp_path / "data.csv")
    cfg = tmp_path / "cfg.json"
    write_json({"input": str(tmp_path / "data.csv"), "d": 3, "lambda": 5.0}, cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert "backtracking exceeded 60 doublings" in err


def test_embed_with_truth_and_stochastic_window(tmp_path, synth_dir):
    # mirror descent steps at 1/(kappa0 sqrt(k)), so it needs a kappa0 on the
    # data's scale; the step-doubling search of the default mode finds its own.
    # The truth scores a search's radii: a fixed radius does not read it
    rc, out = run_embed(
        tmp_path, synth_dir, name="stoch",
        truth_path=str(synth_dir / "truth.csv"), window_g=10, iters=16,
        mode="mirror-descent", kappa0=1.0, search={"strategy": "grid", "n_points": 3},
    )
    assert rc == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["window_g"] == 10
    scores = [float(row[1]) for row in search_rows(out)]
    assert len(scores) == 3 and all(0.0 < score < 1.0 for score in scores)


@pytest.fixture(scope="module")
def long_synth_dir(tmp_path_factory):
    """Eight generated sequences of length 100, long enough for window 40."""
    root = tmp_path_factory.mktemp("cli_long_synth")
    cfg = root / "cfg.json"
    write_json({"n_classes": 2, "d": 3, "t_len": 100, "n_per_class": 4, "seed": 0}, cfg)
    assert run(["synth", "--config", cfg, "--out", root / "data"]) == 0
    return root / "data"


def test_embed_exits_3_on_a_fit_worse_than_the_zero_matrix(tmp_path, long_synth_dir, capsys):
    # kappa0 = 1 is far below this data's scale: mirror descent's steps grow
    # the aggregate's loss to about 1e175, where the zero matrix scores 72
    cfg = tmp_path / "cfg.json"
    write_json({"input": str(long_synth_dir / "dataset.csv"), "d": 3, "mode": "mirror-descent",
                "kappa0": 1.0, "window_g": 40}, cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert "the fit at radius lambda = inf diverged" in err
    assert not (tmp_path / "out" / "embeddings.csv").exists()


def test_sweep_exits_3_on_a_diverged_path(tmp_path, long_synth_dir, capsys):
    # the embed test's settings: the diverged lambda = inf fit sets the grid's
    # upper end, so the grid itself is meaningless
    cfg = tmp_path / "cfg.json"
    write_json({"input": str(long_synth_dir / "dataset.csv"), "d": 3, "mode": "mirror-descent",
                "kappa0": 1.0, "window_g": 40, "n_points": 3}, cfg)
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert "the fit at radius lambda = inf diverged" in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "mode, extra",
    [("mirror-prox-backtracking", {}), ("mirror-descent", {"kappa0": 100.0, "lambda": 4.0})],
)
def test_embed_stochastic_window_under_each_mirror_method(tmp_path, long_synth_dir, mode, extra):
    # one window draw per solver step: mirror-prox's backtracking test compares
    # two fields of the same draw, so it settles, here at the default radius inf
    for window in (10, 40):
        for seed in (0, 1):
            cfg = tmp_path / "cfg.json"
            write_json({"input": str(long_synth_dir / "dataset.csv"), "d": 3, "mode": mode,
                        "window_g": window, "seed": seed, **extra}, cfg)
            out = tmp_path / f"w{window}s{seed}"
            assert run(["embed", "--config", cfg, "--out", out]) == 0
            with open(out / "history.csv", newline="") as fh:
                history = list(csv.DictReader(fh))
            assert len(history) == 256
            losses = [float(row["loss"]) for row in history]
            assert all(math.isfinite(v) for v in losses) and losses[-1] < losses[0]


# ---------------------------------------------------------------- eval


@pytest.fixture(scope="module")
def embedded(tmp_path_factory, synth_dir):
    root = tmp_path_factory.mktemp("cli_embed")
    cfg = root / "cfg.json"
    write_json(embed_config(synth_dir), cfg)
    out = root / "emb"
    assert run(["embed", "--config", cfg, "--out", out]) == 0
    return out


def test_eval_clustering(tmp_path, embedded):
    cfg = tmp_path / "cfg.json"
    write_json({"embeddings_path": str(embedded / "embeddings.csv")}, cfg)
    out = tmp_path / "eval"
    assert run(["eval", "--config", cfg, "--out", out]) == 0
    metrics = read_json(out / "metrics.json")
    assert metrics["ari"] is not None
    assert metrics["nmi"] is not None
    assignments = read_labels_csv(out / "assignments.csv")
    assert len(assignments) == 10
    assert set(assignments.values()) <= {0, 1}


def test_eval_clustering_deterministic(tmp_path, embedded):
    cfg = tmp_path / "cfg.json"
    write_json(
        {"embeddings_path": str(embedded / "embeddings.csv"), "seed": 3}, cfg
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["eval", "--config", cfg, "--out", out_a]) == 0
    assert run(["eval", "--config", cfg, "--out", out_b]) == 0
    assert (out_a / "assignments.csv").read_bytes() == (out_b / "assignments.csv").read_bytes()
    metrics_a = read_json(out_a / "metrics.json")
    metrics_b = read_json(out_b / "metrics.json")
    metrics_a.pop("runtime_seconds")
    metrics_b.pop("runtime_seconds")
    assert metrics_a == metrics_b


def test_eval_classification(tmp_path, embedded):
    ids, _, _ = read_embedding_csv(embedded / "embeddings.csv")
    split_path = tmp_path / "split.csv"
    roles = ["train" if i % 5 < 3 else "test" for i in range(len(ids))]
    write_split_csv(ids, roles, split_path)
    cfg = tmp_path / "cfg.json"
    write_json(
        {
            "embeddings_path": str(embedded / "embeddings.csv"),
            "split_path": str(split_path),
            "mode": "classification",
            "knn_k": 1,
        },
        cfg,
    )
    out = tmp_path / "eval"
    assert run(["eval", "--config", cfg, "--out", out]) == 0
    metrics = read_json(out / "metrics.json")
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert 0.0 <= metrics["macro_f1"] <= 1.0
    assert metrics["ari"] is None


def test_eval_classification_requires_split(tmp_path, embedded):
    cfg = tmp_path / "cfg.json"
    write_json(
        {"embeddings_path": str(embedded / "embeddings.csv"), "mode": "classification"},
        cfg,
    )
    assert run(["eval", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_eval_unreadable_inputs_exit_2_naming_the_file(tmp_path, embedded, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,dim_1\na,0.5\nb,half\n")
    cfg = tmp_path / "cfg.json"
    write_json({"embeddings_path": str(bad), "k": 2}, cfg)
    assert run(["eval", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "bad.csv" in capsys.readouterr().err
    write_json(
        {
            "embeddings_path": str(embedded / "embeddings.csv"),
            "mode": "classification",
            "split_path": str(tmp_path / "no_split.csv"),
        },
        cfg,
    )
    assert run(["eval", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "no_split.csv" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep


def test_sweep_solves_each_radius_once(tmp_path, synth_dir, monkeypatch):
    # one full-horizon design for solves and losses; the explicit upper
    # leaves the unconstrained fit unsolved
    designs, radii = [], []
    field_module = sys.modules["lowrank_ar.field"]
    enumerate_slices, solve = field_module.enumerate_slices, evalkit.solve
    monkeypatch.setattr(field_module, "enumerate_slices",
                        lambda *a: designs.append(a) or enumerate_slices(*a))
    monkeypatch.setattr(evalkit, "solve", lambda ev, c: radii.append(c.lambda_) or solve(ev, c))
    cfg = tmp_path / "cfg.json"
    write_json(
        embed_config(
            synth_dir,
            truth_path=str(synth_dir / "truth.csv"),
            n_points=3,
            lower=0.5,
            upper=4.0,
            iters=32,
        ),
        cfg,
    )
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    assert len(designs) == 1
    assert len(radii) == len(set(radii)) == 3 and math.inf not in radii
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["lambda", "loss", "reconstruction_error", "approx_rank", "ari"]
    assert len(rows) == 3
    for fields in rows:
        assert float(fields[1]) >= 0.0  # loss
        assert float(fields[2]) >= 0.0  # reconstruction error
        assert int(fields[3]) >= 1
        assert -1.0 <= float(fields[4]) <= 1.0  # ari


@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_zero_unconstrained_fit_exits_3(tmp_path, capsys, command):
    zeros = [np.zeros((1, 30)) for _ in range(4)]
    collection = SequenceCollection(sequences=zeros, ids=[f"z{i}" for i in range(4)])
    write_collection_csv(collection, tmp_path / "data.csv")
    # the search scores reconstruction error, so it is given a truth to score against
    write_matrix_csv(np.zeros((2, 4)), tmp_path / "truth.csv", column_names=collection.ids)
    extra = {"n_points": 3}
    if command == "embed":
        extra = {"search": "brent", "truth_path": str(tmp_path / "truth.csv")}
    cfg = tmp_path / "cfg.json"
    write_json({"input": str(tmp_path / "data.csv"), "d": 2, "mode": "admm-ls", **extra}, cfg)
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 3
    assert "unconstrained fit is zero" in capsys.readouterr().err


def test_sweep_ari_is_the_train_metric_score(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    write_json(embed_config(synth_dir, n_points=3, iters=16), cfg)
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    manifest = read_json(out / "manifest.json")
    del manifest["command"]
    config = cli._resolve(cli._SWEEP, manifest, "'sweep' config")
    collection, _ = cli._ingest(config)
    _, problem = cli._radius_path(collection, config)
    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3
    for row in rows:
        score = problem.objective("train-metric", problem.solve(float(row[0])))
        assert float(row[4]) == 0.0 - score


@pytest.mark.parametrize(
    "argv, extra, named",
    [(["--lambda", "3"], {}, "--lambda"), ([], {"lambda": 3}, "'lambda'"), ([], {"k": 2}, "'k'")],
    ids=["flag-lambda", "config-lambda", "config-k"],
)
def test_sweep_rejects_the_settings_it_does_not_read(tmp_path, synth_dir, capsys, argv, extra,
                                                     named):
    cfg = tmp_path / "cfg.json"
    write_json(embed_config(synth_dir, n_points=3, **extra), cfg)
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "out", *argv]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "embed"])
def test_truth_of_another_shape_exits_2_naming_truth_path(tmp_path, synth_dir, command):
    # the synth truth holds the 3 lag rows of d = 3; a fit at d = 2 has 2
    config = embed_config(synth_dir, d=2, mode="admm-ls", truth_path=str(synth_dir / "truth.csv"))
    if command == "sweep":
        config.update(n_points=3, iters=None)
    else:
        config.update(search="brent", iters=None)
    rc, err = run_config(tmp_path, command, config)
    assert rc == 2
    assert "'truth_path'" in err and "C^2 d = 2" in err and "Traceback" not in err


def test_sweep_rejects_bad_bracket(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    for lower in (5.0, "a"):
        write_json(
            embed_config(synth_dir, n_points=3, lower=lower, upper=4.0), cfg
        )
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 2


# ---------------------------------------------------------------- archive input


def test_ucr_round_trip(tmp_path):
    gen = np.random.default_rng(9)
    def rows(n, offset):
        lines = []
        for i in range(n):
            base = np.sin(np.linspace(0, 6, 24) + gen.uniform(0, 1)) + offset * (i % 2)
            lines.append("\t".join([str(1 + i % 2)] + [f"{v:.6f}" for v in base]))
        return "\n".join(lines) + "\n"

    train, test = tmp_path / "TRAIN.tsv", tmp_path / "TEST.tsv"
    train.write_text(rows(6, 3.0))
    test.write_text(rows(4, 3.0))
    cfg = tmp_path / "cfg.json"
    write_json(
        {
            "input": {"format": "ucr", "train_path": str(train), "test_path": str(test)},
            "d": 3,
            "iters": 32,
        },
        cfg,
    )
    out = tmp_path / "emb"
    assert run(["embed", "--config", cfg, "--out", out]) == 0
    assert (out / "split.csv").exists()

    eval_cfg = tmp_path / "eval_cfg.json"
    write_json(
        {
            "embeddings_path": str(out / "embeddings.csv"),
            "split_path": str(out / "split.csv"),
            "mode": "classification",
        },
        eval_cfg,
    )
    assert run(["eval", "--config", eval_cfg, "--out", tmp_path / "scores"]) == 0
    metrics = read_json(tmp_path / "scores" / "metrics.json")
    assert metrics["accuracy"] is not None


# ---------------------------------------------------------------- text, FASTA and re-encoded inputs


WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa")


def embed_then_cluster(tmp_path, config, k=None):
    """embed under config, then cluster its embeddings; returns (embed out, eval metrics)."""
    cfg = tmp_path / "embed.json"
    write_json(config, cfg)
    out = tmp_path / "emb"
    assert run(["embed", "--config", cfg, "--out", out]) == 0
    eval_cfg = tmp_path / "eval.json"
    write_json({"embeddings_path": str(out / "embeddings.csv"), "k": k}, eval_cfg)
    assert run(["eval", "--config", eval_cfg, "--out", tmp_path / "scores"]) == 0
    return out, read_json(tmp_path / "scores" / "metrics.json")


def history_losses(out):
    with open(out / "history.csv", newline="") as fh:
        return [float(row["loss"]) for row in csv.DictReader(fh)]


@pytest.mark.parametrize("per_line", [False, True])
def test_embed_text_documents(tmp_path, per_line):
    # Huffman-coded symbol sequences live on the simplex: the link defaults to softmax
    gen = np.random.default_rng(3)
    docs = [" ".join(gen.choice(WORDS, size=120)) + "." for _ in range(6)]
    if per_line:
        (tmp_path / "lines.txt").write_text("\n".join(docs) + "\n")
        source = {"format": "text", "path": str(tmp_path / "lines.txt"), "per_line": True}
    else:
        paths = [tmp_path / f"doc{i}.txt" for i in range(6)]
        for path, doc in zip(paths, docs):
            path.write_text(doc + "\n")
        source = {"format": "text", "path": [str(p) for p in paths]}
    out, metrics = embed_then_cluster(
        tmp_path, {"input": source, "cutoff": 300, "d": 2, "iters": 16}, k=2
    )
    assert read_json(out / "manifest.json")["link"] == "softmax"
    ids, labels, coords = read_embedding_csv(out / "embeddings.csv")
    assert len(ids) == 6 and labels is None and coords.shape[1] == 6
    losses = history_losses(out)
    assert len(losses) == 16 and all(math.isfinite(v) for v in losses)
    assert metrics["ari"] is None and len(read_labels_csv(tmp_path / "scores" / "assignments.csv")) == 6


def embed_text_in_child(tmp_path, paths):
    """embed on the text files, in a separate process so warnings reach stderr as for a user."""
    cfg = tmp_path / "embed.json"
    write_json({"input": {"format": "text", "path": [str(p) for p in paths]},
                "cutoff": 300, "d": 2, "iters": 4}, cfg)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "lowrank_ar.cli", "embed", "--config", str(cfg),
         "--out", str(tmp_path / "emb")],
        env=env, capture_output=True, text=True, timeout=120,
    )


def word_documents(tmp_path, n):
    gen = np.random.default_rng(3)
    paths = [tmp_path / f"doc{i}.txt" for i in range(n)]
    for path in paths:
        path.write_text(" ".join(gen.choice(WORDS, size=120)) + ".\n")
    return paths


def test_embed_text_warns_on_stderr_about_dropped_documents(tmp_path):
    paths = word_documents(tmp_path, 5)
    paths.append(tmp_path / "tiny.txt")
    paths[-1].write_text("alpha beta.\n")
    proc = embed_text_in_child(tmp_path, paths)
    assert proc.returncode == 0, proc.stderr
    assert "dropped 1 document(s) coded to fewer than 300 symbols: tiny" in proc.stderr
    ids, _, _ = read_embedding_csv(tmp_path / "emb" / "embeddings.csv")
    assert ids == [f"doc{i}" for i in range(5)]


def test_embed_text_drops_a_document_that_cleans_to_nothing(tmp_path):
    # clean_text drops every non-ASCII character, so this document becomes empty
    paths = word_documents(tmp_path, 4)
    paths.append(tmp_path / "accents.txt")
    paths[-1].write_text("\u00e9\u00e9\u00e9", encoding="utf-8")
    proc = embed_text_in_child(tmp_path, paths)
    assert proc.returncode == 0, proc.stderr
    assert "dropped 1 document(s) coded to fewer than 300 symbols: accents" in proc.stderr
    ids, _, _ = read_embedding_csv(tmp_path / "emb" / "embeddings.csv")
    assert ids == [f"doc{i}" for i in range(4)]


@pytest.mark.parametrize("cutoff", [300.5, 0, -5, True, "300", [300]])
def test_embed_rejects_a_cutoff_that_is_not_a_positive_integer(tmp_path, capsys, cutoff):
    paths = word_documents(tmp_path, 4)
    cfg = tmp_path / "embed.json"
    write_json({"input": {"format": "text", "path": [str(p) for p in paths]},
                "cutoff": cutoff, "d": 2, "iters": 4}, cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "emb"]) == 2
    assert "'cutoff'" in capsys.readouterr().err


def test_embed_fasta_records_labelled_by_description(tmp_path):
    # equal-length records: the slice set cuts every sequence to the shortest
    gen = np.random.default_rng(4)
    records = []
    for i in range(6):
        seq = "".join(gen.choice(list("ACGU"), size=150))
        records.append(f">r{i} fam{i % 2}\n{seq[:70]}\n{seq[70:]}\n")
    (tmp_path / "rna.fa").write_text("".join(records))
    out, metrics = embed_then_cluster(
        tmp_path, {"input": {"format": "fasta", "path": str(tmp_path / "rna.fa")},
                   "d": 2, "iters": 16},
    )
    assert read_json(out / "manifest.json")["link"] == "softmax"
    ids, labels, _ = read_embedding_csv(out / "embeddings.csv")
    assert ids == [f"r{i}" for i in range(6)]
    assert labels == [0, 1] * 3
    assert all(math.isfinite(v) for v in history_losses(out))
    assert -1.0 <= metrics["ari"] <= 1.0


def test_embed_signal_diff_encoder(tmp_path, synth_dir):
    # each univariate series becomes two channels: the signal and its difference
    config = embed_config(synth_dir, encoder="signal-diff", d=2, iters=16)
    config["lambda"] = 3.0
    out, metrics = embed_then_cluster(tmp_path, config)
    _, labels, coords = read_embedding_csv(out / "embeddings.csv")
    assert coords.shape == (2 * 2 * 2 + 2, 10)  # m = C^2 d + C at C = 2
    assert labels is not None and metrics["ari"] is not None
    assert all(math.isfinite(v) for v in history_losses(out))


def test_lambda_brent_spelling_runs_the_default_brent_search(tmp_path, synth_dir):
    common = dict(mode="admm-ls", truth_path=str(synth_dir / "truth.csv"))
    rc, spelled = run_embed(tmp_path, synth_dir, name="spelled", **common, **{"lambda": "brent"})
    assert rc == 0
    rc, explicit = run_embed(tmp_path, synth_dir, name="explicit", search={"strategy": "brent"}, **common)
    assert rc == 0
    for name in ("search.csv", "embeddings.csv", "history.csv"):
        assert (spelled / name).read_bytes() == (explicit / name).read_bytes()


def test_train_metric_grid_search(tmp_path, synth_dir):
    # the score of a radius is minus the ARI of k-means on its embedding
    rc, out = run_embed(
        tmp_path, synth_dir, name="train_metric", mode="admm-ls",
        search={"strategy": "grid", "objective": "train-metric", "n_points": 4},
    )
    assert rc == 0
    rows = search_rows(out)
    assert len(rows) == 4
    assert all(-1.0 <= float(row[1]) <= 1.0 for row in rows)
    # a zero ARI scores 0, not the signed zero -0
    scores = [row[1] for row in rows]
    assert "0" in scores and "-0" not in scores
    assert read_json(out / "metrics.json")["lambda"] in [float(row[0]) for row in rows]


# ---------------------------------------------------------------- config errors


def test_unknown_config_key_exits_2(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    write_json(embed_config(synth_dir, bogus_knob=1), cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_config_command_mismatch_exits_2(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    config = embed_config(synth_dir)
    config["command"] = "sweep"
    write_json(config, cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_bad_lambda_exits_2(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    write_json(embed_config(synth_dir), cfg)
    argv = ["embed", "--config", cfg, "--out", tmp_path / "out", "--lambda", "-3"]
    assert run(argv) == 2
    argv[-1] = "not-a-number"
    assert run(argv) == 2


def test_admm_gates_exit_2(tmp_path, synth_dir):
    rc, _ = run_embed(
        tmp_path, synth_dir, name="bad_link",
        mode="admm-ls", link="logistic", **{"lambda": 2.0},
    )
    assert rc == 2
    rc, _ = run_embed(
        tmp_path, synth_dir, name="bad_window",
        mode="admm-ls", window_g=10, **{"lambda": 2.0},
    )
    assert rc == 2


def test_inapplicable_flag_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json({"n_classes": 1, "d": 3, "t_len": 20, "n_per_class": 2}, cfg)
    argv = ["synth", "--config", cfg, "--out", tmp_path / "out", "--window-g", "8"]
    assert run(argv) == 2


def test_missing_and_invalid_config_exit_2(tmp_path):
    assert run(["embed", "--config", tmp_path / "nope.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["embed", "--config", bad]) == 2
    as_list = tmp_path / "list.json"
    as_list.write_text(json.dumps([1, 2]))
    assert run(["embed", "--config", as_list]) == 2


def test_missing_input_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json({"d": 3}, cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_unknown_input_key_exits_2(tmp_path, synth_dir):
    config = embed_config(synth_dir)
    config["input"]["bogus"] = True
    cfg = tmp_path / "cfg.json"
    write_json(config, cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_unknown_search_key_exits_2(tmp_path, synth_dir):
    rc, _ = run_embed(tmp_path, synth_dir, search={"strategy": "brent", "bogus": 1})
    assert rc == 2


@pytest.mark.parametrize(
    "settings", [{"link": "bogus"}, {"search": "golden"}], ids=["link", "search"]
)
def test_unknown_link_or_search_strategy_exits_2(tmp_path, synth_dir, capsys, settings):
    rc, _ = run_embed(tmp_path, synth_dir, **settings)
    assert rc == 2
    assert repr(next(iter(settings.values()))) in capsys.readouterr().err


@pytest.mark.parametrize("settings", [{"input": 5}, {"search": ["brent"]}])
def test_settings_that_are_not_objects_exit_2(tmp_path, synth_dir, capsys, settings):
    rc, _ = run_embed(tmp_path, synth_dir, **settings)
    assert rc == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_flags_override_the_config_file(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    write_json(embed_config(synth_dir, seed=1, link="logistic"), cfg)
    out = tmp_path / "out"
    argv = ["embed", "--config", cfg, "--out", out, "--lambda", "2", "--d", "2",
            "--iters", "4", "--seed", "3", "--link", "identity", "--window-g", "12"]
    assert run(argv) == 0
    manifest = read_json(out / "manifest.json")
    assert (manifest["lambda"], manifest["d"], manifest["iters"]) == ("2", 2, 4)
    assert (manifest["seed"], manifest["link"], manifest["window_g"]) == (3, "identity", 12)
    assert manifest["out"] == str(out)
    assert len(history_losses(out)) == 4


def _bad_input(tmp_path, case):
    """A config whose input file is malformed, and the name of that file."""
    series = tmp_path / "series.csv"
    series.write_text("id,t,c1\na,1,0.1\na,2,0.2\na,3,0.3\nb,1,0.4\nb,2,0.5\nb,3,0.6\n")
    if case == "label-missing":
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\na,0\n")
        return {"path": str(series), "labels_path": str(labels)}, labels.name
    if case == "label-not-an-integer":
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\na,0\nb,one\n")
        return {"path": str(series), "labels_path": str(labels)}, f"{labels.name}: line 3"
    if case == "t-out-of-order":
        series.write_text("id,t,c1\na,2,0.2\na,1,0.1\na,3,0.3\n")
        return {"path": str(series)}, series.name
    if case == "value-not-a-number":
        series.write_text("id,t,c1\na,1,0.1\na,2,0.2\na,3,zero\n")
        return {"path": str(series)}, f"{series.name}: line 4"
    if case == "row-too-short":
        series.write_text("id,t,c1\na,1,0.1\na,2\na,3,0.3\n")
        return {"path": str(series)}, f"{series.name}: line 3"
    fasta = tmp_path / "genomes.fa"
    if case == "fasta-data-before-header":
        fasta.write_text("ACGT\n>s1\nACGT\n")
        return {"format": "fasta", "path": str(fasta)}, f"{fasta.name}: line 1"
    if case == "fasta-empty-header":
        fasta.write_text(">s1\nACGT\n>\nACGT\n")
        return {"format": "fasta", "path": str(fasta)}, f"{fasta.name}: line 3"
    train = tmp_path / "TRAIN.tsv"
    bad_rows = {
        "ucr-value-not-a-number": "2\t0.5\tabc\t-1.0\n",
        "ucr-label-not-a-number": "x\t0.5\t0.1\t-1.0\n",
        "ucr-label-infinite": "inf\t0.5\t0.1\t-1.0\n",
        "ucr-label-fractional": "1.5\t0.5\t0.1\t-1.0\n",
        "ucr-only-separators": "\t,\t\n",
    }
    if case in bad_rows:
        train.write_text("1\t0.5\t0.25\t-1.0\n" + bad_rows[case])
        return {"format": "ucr", "train_path": str(train)}, f"{train.name}: line 2"
    if case == "ucr-nan-inside-row":
        train.write_text("1\t0.5\t0.25\t-1.0\t0.3\n2\t0.5\tNaN\t-1.0\t0.2\n")
    else:
        train.write_text("1\t0.5\t0.25\t-1.0\n2\tNaN\tNaN\tNaN\n")
    return {"format": "ucr", "train_path": str(train)}, train.name


@pytest.mark.parametrize(
    "case",
    [
        "label-missing", "label-not-an-integer", "t-out-of-order", "value-not-a-number",
        "row-too-short", "ucr-all-nan-row", "ucr-nan-inside-row", "ucr-value-not-a-number",
        "ucr-label-not-a-number", "ucr-label-infinite", "ucr-label-fractional",
        "ucr-only-separators", "fasta-data-before-header", "fasta-empty-header",
    ],
)
def test_malformed_input_exits_2_naming_the_file(tmp_path, capsys, case):
    source, name = _bad_input(tmp_path, case)
    cfg = tmp_path / "cfg.json"
    write_json({"input": source, "d": 1, "iters": 4}, cfg)
    assert run(["embed", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert name in capsys.readouterr().err


def test_blank_lines_in_input_csvs_are_skipped(tmp_path, synth_dir):
    for name in ("dataset.csv", "labels.csv"):
        lines = (synth_dir / name).read_text().splitlines()
        (tmp_path / name).write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n\n")
    rc, plain = run_embed(tmp_path, synth_dir, name="plain", iters=4)
    assert rc == 0
    rc, blank = run_embed(tmp_path, tmp_path, name="blank", iters=4)
    assert rc == 0
    assert (blank / "embeddings.csv").read_bytes() == (plain / "embeddings.csv").read_bytes()


# ---------------------------------------------------------------- output format


def test_every_csv_has_a_header_crlf_line_ends_and_equal_width_rows(tmp_path, synth_dir):
    truth = str(synth_dir / "truth.csv")
    rc, embed_out = run_embed(
        tmp_path, synth_dir, name="embed", mode="admm-ls", truth_path=truth, search="brent",
    )
    assert rc == 0
    cfg = tmp_path / "sweep.json"
    write_json(embed_config(synth_dir, truth_path=truth, n_points=3), cfg)
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "sweep"]) == 0
    cfg = tmp_path / "eval.json"
    write_json({"embeddings_path": str(embed_out / "embeddings.csv")}, cfg)
    assert run(["eval", "--config", cfg, "--out", tmp_path / "eval"]) == 0

    paths = sorted(synth_dir.glob("*.csv")) + sorted(tmp_path.glob("*/*.csv"))
    assert {path.name for path in paths} == {
        "dataset.csv", "labels.csv", "truth.csv", "embeddings.csv", "history.csv",
        "search.csv", "sweep.csv", "assignments.csv",
    }
    for path in paths:
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), path
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert all(header) and not any(cell[:1].isdigit() for cell in header), path
        assert rows and {len(row) for row in rows} == {len(header)}, path


# ---------------------------------------------------------------- the settings tables


def run_config(tmp_path, command, config, name="out"):
    """command under config, writing to tmp_path / name; returns (exit code, stderr)."""
    cfg = tmp_path / f"{name}.json"
    write_json(config, cfg)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run([command, "--config", cfg, "--out", tmp_path / name])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, synth_dir):
    """One small input of each format, and for each a truth matrix for order 2.

    Returns {format: (input settings, truth path)}. The truth has C^2 d rows
    at d = 2: C is 1 for the collection, 2 for UCR's value and difference
    channels, and 4 for nucleotide and Huffman symbols.
    """
    root = tmp_path_factory.mktemp("cli_inputs")
    gen = np.random.default_rng(21)

    def truth(name, channels, ids):
        path = root / f"{name}_truth.csv"
        write_matrix_csv(gen.standard_normal((2 * channels * channels, len(ids))), path,
                         column_names=list(ids))
        return str(path)

    labels = read_labels_csv(synth_dir / "labels.csv")
    found = {"collection": ({"path": str(synth_dir / "dataset.csv")},
                            truth("collection", 1, labels))}

    def ucr_rows(n):
        return "".join(
            "\t".join([str(1 + i % 2)]
                      + [f"{v:.6f}" for v in np.sin(np.linspace(0, 6, 30) + gen.uniform(0, 1))])
            + "\n" for i in range(n)
        )

    (root / "TRAIN.tsv").write_text(ucr_rows(6))
    (root / "TEST.tsv").write_text(ucr_rows(4))
    found["ucr"] = ({"format": "ucr", "train_path": str(root / "TRAIN.tsv")},
                    truth("ucr", 2, [f"seq_{i:05d}" for i in range(6)]))
    records = "".join(f">r{i} fam{i % 2}\n" + "".join(gen.choice(list("ACGU"), size=60)) + "\n"
                      for i in range(6))
    (root / "rna.fa").write_text(records)
    found["fasta"] = ({"format": "fasta", "path": str(root / "rna.fa")},
                      truth("fasta", 4, [f"r{i}" for i in range(6)]))
    docs = []
    for i in range(4):
        docs.append(root / f"doc{i}.txt")
        docs[-1].write_text(" ".join(gen.choice(WORDS, size=40)) + ".\n")
    found["text"] = ({"format": "text", "path": [str(p) for p in docs]},
                     truth("text", 4, [f"doc{i}" for i in range(4)]))
    return found


MODES = ("mirror-prox-backtracking", "mirror-descent", "admm-ls")


def fit_base(inputs, fmt, mode, command):
    """A config that runs, quickly, on the format's input under the mode."""
    config = {"input": inputs[fmt][0], "d": 2, "iters": 2, "mode": mode}
    if fmt == "text":
        config["cutoff"] = 60  # the documents code to fewer than the default 1000 symbols
    if mode == "mirror-descent":
        config["kappa0"] = 100.0  # the default 1e-6 steps far past this data's scale
    if mode == "admm-ls" and fmt in ("fasta", "text"):
        config["link"] = "identity"  # admm-ls solves least squares only
    if command == "sweep":
        config["n_points"] = 2
    return config


# embed's settings for each search, and which of seed and truth_path it reads without a window;
# written apart from cli's tables, so that a wrong read condition there shows
SEARCHES = {
    "none": ({}, set()),
    "bisect-to-rank1": ({"search": "bisect-to-rank1"}, set()),
    "grid/reconstruction-error": ({"search": {"strategy": "grid", "n_points": 3}},
                                  {"truth_path"}),
    "grid/train-metric": ({"search": {"strategy": "grid", "objective": "train-metric",
                                      "n_points": 3}}, {"seed"}),
    "brent/reconstruction-error": ({"search": "brent"}, {"truth_path"}),
    "brent/train-metric": ({"search": {"strategy": "brent", "objective": "train-metric"}},
                           {"seed"}),
    "lambda=grid": ({"lambda": "grid"}, {"truth_path"}),
    "lambda=brent": ({"lambda": "brent"}, {"truth_path"}),
}

# which of seed and truth_path a sweep reads without a window, by its input: the reconstruction
# error column always, and the ari column's k-means on labelled input, which a FASTA file
# without descriptions is not, but that depends on the file
SWEEP_READS = {
    "collection": {"truth_path"},
    "labelled collection": {"seed", "truth_path"},
    "ucr": {"seed", "truth_path"},
    "fasta": {"seed", "truth_path"},
    "unlabelled fasta": {"seed", "truth_path"},
    "text": {"truth_path"},
}


def unread_fit_keys(command, fmt, mode, search="none"):
    """The embed or sweep keys that a run on fmt under mode, with no window, never reads.

    search is a key of SEARCHES, and a sweep's fmt a key of SWEEP_READS;
    the base collection input has no labels_path.
    """
    unread = {"stop_tol"}  # retired: read by no run
    reads = SEARCHES[search][1] if command == "embed" else SWEEP_READS[fmt]
    unread |= {"seed", "truth_path"} - reads
    if fmt != "collection":
        unread.add("encoder")
    if fmt != "ucr":  # the base config keeps the collection's encoder at none
        unread.add("normalize")
    if fmt != "text":
        unread.add("cutoff")
    if mode == "admm-ls":
        unread |= {"kappa0", "window_g"}
    return unread


def fit_values(inputs, fmt, command):
    """A valid value other than the default for each embed or sweep key but input and out."""
    values = {
        "seed": 1, "encoder": "signal-diff", "normalize": False, "cutoff": 50,
        "link": "identity", "d": 3, "iters": 3, "kappa0": 1000.0, "stop_tol": 1e-3,
        "window_g": 12, "truth_path": inputs[fmt][1],
    }
    if command == "embed":
        values.update({"lambda": 2.0, "search": "bisect-to-rank1"})
    else:
        values.update({"n_points": 3, "lower": 1e-12, "upper": 100.0})
    return values


def check_cases(tmp_path, command, cases):
    """Run each (key, config, read) case: exit 0 if read, else exit 2 naming the key."""
    wrong = []
    for i, (key, config, read) in enumerate(cases):
        rc, err = run_config(tmp_path, command, config, name=f"{i}_{key}")
        if rc != (0 if read else 2) or (rc == 2 and f"'{key}'" not in err):
            wrong.append((key, config, rc, err.strip()))
    assert not wrong


def check_cell(tmp_path, command, base, values, unread):
    """Each value over base: exit 0 where read, exit 2 naming the key where not."""
    check_cases(tmp_path, command,
                [(key, {**base, key: value}, key not in unread) for key, value in values.items()])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt", ["collection", "ucr", "fasta", "text"])
@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_fit_keys_run_where_read_and_exit_2_where_not(tmp_path, inputs, command, fmt, mode):
    base = fit_base(inputs, fmt, mode, command)
    assert run_config(tmp_path, command, base, name="base")[0] == 0
    check_cell(tmp_path, command, base, fit_values(inputs, fmt, command),
               unread_fit_keys(command, fmt, mode))


@pytest.mark.parametrize("window", [None, 12], ids=["no-window", "window"])
@pytest.mark.parametrize("search", list(SEARCHES))
def test_embed_reads_seed_and_truth_path_where_its_search_uses_them(tmp_path, inputs, synth_dir,
                                                                    search, window):
    # only the mirror modes draw windows, and a window draw reads the seed whatever the search
    mode = "admm-ls" if window is None else "mirror-prox-backtracking"
    base = {**fit_base(inputs, "collection", mode, "embed"), **SEARCHES[search][0],
            "input": {**inputs["collection"][0], "labels_path": str(synth_dir / "labels.csv")}}
    values = {"seed": 1, "truth_path": inputs["collection"][1]}
    unread = unread_fit_keys("embed", "collection", mode, search) & set(values)
    if window is not None:
        base["window_g"] = window
        unread.discard("seed")
    if "truth_path" not in unread:  # a search scored against the truth cannot run without it
        base["truth_path"] = values["truth_path"]
    check_cell(tmp_path, "embed", base, values, unread)


@pytest.mark.parametrize("window", [None, 12], ids=["no-window", "window"])
@pytest.mark.parametrize("source", list(SWEEP_READS))
def test_sweep_reads_seed_on_labelled_input_or_with_a_window(tmp_path, inputs, synth_dir, source,
                                                             window):
    fmt = {"labelled collection": "collection", "unlabelled fasta": "fasta"}.get(source, source)
    base = fit_base(inputs, fmt, "mirror-prox-backtracking", "sweep")
    if source == "labelled collection":
        base["input"] = {**base["input"], "labels_path": str(synth_dir / "labels.csv")}
    elif source == "unlabelled fasta":  # the same records without their descriptions
        bare = re.sub(r"(>r\d+) fam\d", r"\1", Path(base["input"]["path"]).read_text())
        (tmp_path / "bare.fa").write_text(bare)
        base["input"] = {**base["input"], "path": str(tmp_path / "bare.fa")}
    values = {"seed": 1, "truth_path": inputs[fmt][1]}
    unread = unread_fit_keys("sweep", source, "mirror-prox-backtracking") & set(values)
    if window is not None:
        base["window_g"] = window
        unread.discard("seed")
    check_cell(tmp_path, "sweep", base, values, unread)
    if source == "unlabelled fasta":  # accepted, though no ari is computed for it to seed
        _, rows = read_csv(tmp_path / "0_seed" / "sweep.csv")
        assert rows and all(row[4] == "" for row in rows)


def input_values(inputs, synth_dir):
    """A valid value other than the default for each input key."""
    root = Path(inputs["ucr"][0]["train_path"]).parent
    return {
        "path": str(synth_dir / "dataset.csv"),
        "train_path": str(root / "TRAIN.tsv"),
        "test_path": str(root / "TEST.tsv"),
        "labels_path": str(synth_dir / "labels.csv"),
        "per_line": True,
        "kind": "probability-simplex",
    }


@pytest.mark.parametrize("fmt", ["collection", "ucr", "fasta", "text"])
def test_input_keys_run_where_read_and_exit_2_where_not(tmp_path, inputs, synth_dir, fmt):
    values = input_values(inputs, synth_dir)
    read = {"collection": {"path", "labels_path", "kind"}, "ucr": {"train_path", "test_path"},
            "fasta": {"path"}, "text": {"path", "per_line"}}[fmt]
    base = fit_base(inputs, fmt, "admm-ls", "embed")
    cases = [(key, {**base, "input": {**base["input"], key: value}}, key in read)
             for key, value in values.items() if key not in base["input"]]
    if fmt == "collection":
        # kind is read on a simplex collection: two channels whose columns sum to one
        p = np.random.default_rng(2).uniform(0.1, 0.9, (3, 20))
        collection = SequenceCollection(sequences=[np.stack([row, 1 - row]) for row in p],
                                        ids=["a", "b", "c"], kind="probability-simplex")
        write_collection_csv(collection, tmp_path / "simplex.csv")
        simplex = {"path": str(tmp_path / "simplex.csv"), "kind": "probability-simplex"}
        cases = [case for case in cases if case[0] != "kind"]
        cases.append(("kind", {**base, "link": "identity", "input": simplex}, True))
    check_cases(tmp_path, "embed", cases)


SEARCH_VALUES = {"objective": "train-metric", "n_points": 3, "tol": 1e-2}


def test_search_keys_run_where_read_and_exit_2_where_not(tmp_path, inputs):
    # train-metric scores the fits against the labels
    labels = str(Path(inputs["collection"][0]["path"]).parent / "labels.csv")
    base = {**fit_base(inputs, "collection", "admm-ls", "embed"),
            "input": {**inputs["collection"][0], "labels_path": labels}}
    read = {"bisect-to-rank1": set(), "grid": {"objective", "n_points"},
            "brent": {"objective", "tol"}}
    cases = []
    for strategy, keys in read.items():
        for key, value in SEARCH_VALUES.items():
            config = {**base, "search": {"strategy": strategy, key: value}}
            if strategy != "bisect-to-rank1" and key != "objective":  # scored against the truth
                config["truth_path"] = inputs["collection"][1]
            cases.append((key, config, key in keys))
    check_cases(tmp_path, "embed", cases)


@pytest.fixture(scope="module")
def ucr_embedding(tmp_path_factory, inputs):
    """An embedding of the UCR input with its test split."""
    root = tmp_path_factory.mktemp("cli_ucr_embedding")
    train = Path(inputs["ucr"][0]["train_path"])
    source = {**inputs["ucr"][0], "test_path": str(train.with_name("TEST.tsv"))}
    write_json({"input": source, "d": 2, "iters": 8}, root / "cfg.json")
    assert run(["embed", "--config", root / "cfg.json", "--out", root / "emb"]) == 0
    return root / "emb"


def eval_base(ucr_embedding, mode):
    base = {"embeddings_path": str(ucr_embedding / "embeddings.csv"), "mode": mode}
    if mode == "classification":
        base["split_path"] = str(ucr_embedding / "split.csv")
    return base


def eval_values(tmp_path, ucr_embedding):
    """A valid value other than the default for each eval key but embeddings_path, mode and out."""
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\n" + "".join(f"seq_{i:05d},{i % 2}\n" for i in range(10)))
    return {"seed": 1, "labels_path": str(labels), "knn_k": 1, "k": 2, "restarts": 3,
            "lambda": 2.0, "split_path": str(ucr_embedding / "split.csv")}


@pytest.mark.parametrize("mode", ["clustering", "classification"])
def test_eval_keys_run_where_read_and_exit_2_where_not(tmp_path, ucr_embedding, mode):
    base = eval_base(ucr_embedding, mode)
    values = eval_values(tmp_path, ucr_embedding)
    # the UCR embeddings carry their labels, so no run reads labels_path
    unread = {"clustering": {"split_path", "knn_k"},
              "classification": {"k", "restarts", "seed"}}[mode]
    check_cell(tmp_path, "eval", base, values, unread | {"labels_path"})


def test_eval_reads_labels_path_only_for_unlabelled_embeddings(tmp_path, ucr_embedding, capsys):
    ids, labels, coords = read_embedding_csv(ucr_embedding / "embeddings.csv")
    assert labels is not None
    bare = tmp_path / "bare.csv"
    rows = zip(ids, coords[0].tolist())
    bare.write_text("id,dim_1\n" + "".join(f"{i},{x!r}\n" for i, x in rows))
    labels_csv = tmp_path / "labels.csv"
    labels_csv.write_text("id,label\n" + "".join(f"{i},{y}\n" for i, y in zip(ids, labels)))
    for embeddings, rc in ((bare, 0), (ucr_embedding / "embeddings.csv", 2)):
        config = {"embeddings_path": str(embeddings), "labels_path": str(labels_csv)}
        got, err = run_config(tmp_path, "eval", config, name=embeddings.stem)
        assert got == rc, err
    assert "'labels_path'" in err and "carries labels" in err and "Traceback" not in err
    assert read_json(tmp_path / "bare" / "metrics.json")["ari"] is not None


SYNTH_VALUES = {"seed": 1, "n_classes": 2, "d": 3, "t_len": 25, "n_per_class": 3,
                "noise_var": 0.01, "gamma_decay": 0.8, "perturbation_var": 0.01,
                "classes": [{"baseline": "exp-decay", "perturbation": "gaussian"}]}


def synth_base(classes):
    base = {"d": 2, "t_len": 20, "n_per_class": 2}
    if classes:
        base["classes"] = [{"baseline": "uniform", "perturbation": "gaussian"}]
    return base


@pytest.mark.parametrize("classes", [False, True])
def test_synth_keys_run_where_read_and_exit_2_where_not(tmp_path, classes):
    base = synth_base(classes)
    check_cell(tmp_path, "synth", base, SYNTH_VALUES, {"n_classes"} if classes else set())


@pytest.mark.parametrize(
    "command, settings, key",
    [
        ("embed", {"mode": "mirror-descent", "stop_tol": "x"}, "stop_tol"),
        ("embed", {"window_g": 12, "seed": 1.5}, "seed"),
        ("synth", {"seed": 1.5}, "seed"),
        ("synth", {"n_per_class": 2.5}, "n_per_class"),
        ("embed", {"input": {"path": 5}}, "path"),
        ("embed", {"input": {"path": ["dataset.csv"]}}, "path"),
        ("embed", {"search": "brent", "truth_path": 5}, "truth_path"),
        ("embed", {"d": 2.5}, "d"),
        ("synth", {"d": 2.5}, "d"),
        ("embed", {"window_g": 10.7}, "window_g"),
        ("synth", {"n_classes": 1.9}, "n_classes"),
        ("sweep", {"n_points": 2.9}, "n_points"),
        ("eval", {"k": 2.5}, "k"),
        ("embed", {"mode": "admm-ls", "kappa0": 1.0}, "kappa0"),
        ("embed", {"mode": "admm-ls", "stop_tol": 1e-3}, "stop_tol"),
        ("embed", {"normalize": False}, "normalize"),
        ("embed", {"cutoff": 300}, "cutoff"),
        ("embed", {"search": "brent", "lambda": 2.0}, "lambda"),
        ("eval", {"knn_k": 1}, "knn_k"),
        ("eval", {"split_path": "split.csv"}, "split_path"),
        # past the 6 train rows and the 10 points of the UCR embedding: checked once it is read
        ("eval", {"mode": "classification", "knn_k": 50}, "knn_k"),
        ("eval", {"k": 50}, "k"),
        # a reconstruction-error search needs the truth it scores against
        ("embed", {"mode": "admm-ls", "search": "brent"}, "truth_path"),
        ("embed", {"mode": "admm-ls", "lambda": "grid"}, "truth_path"),
    ],
)
def test_mistyped_or_unread_settings_exit_2_naming_the_key(tmp_path, synth_dir, ucr_embedding,
                                                            command, settings, key):
    # all but the eval counts exit while the config resolves, before any file is read
    base = {"synth": {"d": 2, "t_len": 20, "n_per_class": 2},
            "eval": eval_base(ucr_embedding, settings.get("mode", "clustering"))}
    rc, err = run_config(tmp_path, command, {**base.get(command, embed_config(synth_dir)),
                                             **settings})
    assert rc == 2
    assert f"'{key}'" in err and "Traceback" not in err


def test_reconstruction_error_search_without_truth_exits_2_before_ingest(tmp_path):
    # the input file does not exist: the settings are refused before it is looked for
    config = {"input": str(tmp_path / "missing.csv"), "d": 3, "search": "brent"}
    rc, err = run_config(tmp_path, "embed", config)
    assert rc == 2
    assert "'truth_path'" in err and "'train-metric'" in err and "not found" not in err
    assert not (tmp_path / "out").exists()


def test_each_command_has_the_flags_of_its_table(capsys):
    for command, (_, table) in cli._COMMANDS.items():
        assert run([command, "--help"]) == 0
        shown = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        flags = {f"--{key.replace('_', '-')}" for key, s in table.items() if s.flag is not None}
        assert shown == {"-h", "--help", "--config"} | flags, command
    assert run(["synth", "--help"]) == 0
    assert "--window-g" not in capsys.readouterr().out


@pytest.mark.parametrize("case", ["ucr", "text", "fasta", "admm-ls", "synth", "eval"])
def test_manifest_replays_to_byte_identical_outputs(tmp_path, inputs, ucr_embedding, case):
    if case == "synth":
        command, config = "synth", {"n_classes": 2, "d": 2, "t_len": 20, "n_per_class": 2}
    elif case == "eval":
        command, config = "eval", {"embeddings_path": str(ucr_embedding / "embeddings.csv"),
                                   "split_path": str(ucr_embedding / "split.csv"),
                                   "mode": "classification"}
    elif case == "admm-ls":
        command, config = "embed", {**fit_base(inputs, "collection", "admm-ls", "embed"),
                                    "lambda": 2.0, "iters": None}
    else:
        command, config = "embed", fit_base(inputs, case, "mirror-prox-backtracking", "embed")
    rc, _ = run_config(tmp_path, command, config, name="first")
    assert rc == 0
    first = tmp_path / "first"
    assert run([command, "--config", first / "manifest.json", "--out", tmp_path / "replay"]) == 0
    replay = tmp_path / "replay"
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in replay.iterdir())
    for path in first.iterdir():
        if path.name in ("metrics.json", "manifest.json"):
            a, b = read_json(path), read_json(replay / path.name)
            for key in ("runtime_seconds", "peak_rss_mb", "out"):
                a.pop(key, None), b.pop(key, None)
            assert a == b, path.name
        else:
            assert path.read_bytes() == (replay / path.name).read_bytes(), path.name


# an embed and a sweep manifest as written while stop_tol was still read, out and path aside;
# so were they written while every fit read seed and truth_path
OLDER_MANIFESTS = {
    "embed": {"command": "embed", "cutoff": 1000, "d": 2, "encoder": "none", "iters": 2,
              "kappa0": 1e-06, "lambda": "inf", "link": "identity",
              "mode": "mirror-prox-backtracking", "normalize": True, "search": None, "seed": 0,
              "stop_tol": None, "truth_path": None, "window_g": None},
    "sweep": {"command": "sweep", "cutoff": 1000, "d": 2, "encoder": "none", "iters": 2,
              "kappa0": 1e-06, "link": "identity", "lower": None,
              "mode": "mirror-prox-backtracking", "n_points": 2, "normalize": True, "seed": 0,
              "stop_tol": None, "truth_path": None, "upper": None, "window_g": None},
}


@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_an_older_manifest_replays_to_byte_identical_outputs(tmp_path, inputs, command):
    older = {**OLDER_MANIFESTS[command], "input": inputs["collection"][0],
             "out": str(tmp_path / "older")}
    plain = {"input": inputs["collection"][0], "d": 2, "iters": 2}
    if command == "sweep":
        plain["n_points"] = 2
    for name, config in (("older", older), ("plain", plain)):
        assert run_config(tmp_path, command, config, name=name)[0] == 0
    assert read_json(tmp_path / "older" / "manifest.json") == older
    for path in (tmp_path / "plain").iterdir():
        if path.name not in ("metrics.json", "manifest.json"):
            assert path.read_bytes() == (tmp_path / "older" / path.name).read_bytes(), path.name


@pytest.mark.parametrize("key", ["seed", "truth_path"])
def test_an_older_manifest_giving_an_unread_seed_or_truth_exits_2(tmp_path, inputs, key):
    # a fixed-radius embed without a window reads neither, though it used to accept both
    value = {"seed": 5, "truth_path": inputs["collection"][1]}[key]
    older = {**OLDER_MANIFESTS["embed"], "input": inputs["collection"][0], key: value}
    rc, err = run_config(tmp_path, "embed", older)
    assert rc == 2 and f"'{key}'" in err and "is not read by this run" in err


# ---------------------------------------------------------------- the read-recording probe


class ReadRecording(dict):
    """A resolved settings table that records the keys a run reads from it."""

    def __init__(self, resolved):
        super().__init__(resolved)
        self.reads = set()

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)

    def __iter__(self):  # overridden, so ** unpacking reads each key through __getitem__
        return super().__iter__()


@pytest.fixture
def recorded(monkeypatch):
    """The tables each run resolves, nested ones first, every one a ReadRecording."""
    tables = []
    resolve = cli._resolve

    def recording(table, given, what):
        config = ReadRecording(resolve(table, given, what))
        for value in dict.values(config):
            if isinstance(value, ReadRecording):
                value.reads.clear()  # the read conditions of its parent's rows are not the run's
        tables.append(config)
        return config

    monkeypatch.setattr(cli, "_resolve", recording)
    return tables


def every_key(table, settings):
    """settings over every key of table at its default, as a manifest gives them."""
    return {**{key: setting.default for key, setting in table.items()}, **settings}


def probe(tmp_path, command, base, values, recorded):
    """The given keys a run of base does not read, each of which, given its value, exits 2.

    Returns a set of (outer, key): outer is None for a key of the command's
    table, else the key of the nested table that holds it.
    """
    rc, err = run_config(tmp_path, command, base, name="base")
    assert rc == 0, err
    top = recorded[-1]
    unread = {(None, key) for key in base if key not in top.reads}
    for outer, nested in dict.items(top):
        if isinstance(nested, ReadRecording):
            unread |= {(outer, key) for key in base[outer] if key not in nested.reads}
    wrong = []
    for outer, key in sorted(unread, key=str):
        config = ({**base, key: values[key]} if outer is None
                  else {**base, outer: {**base[outer], key: values[key]}})
        rc, err = run_config(tmp_path, command, config, name=f"{outer}_{key}")
        if rc != 2 or f"'{key}'" not in err:
            wrong.append((outer, key, rc, err.strip()))
    assert not wrong
    return unread


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt", ["collection", "ucr", "fasta", "text"])
@pytest.mark.parametrize("command", ["embed", "sweep"])
def test_probe_every_fit_key_is_read_or_exits_2(tmp_path, inputs, synth_dir, recorded,
                                                command, fmt, mode):
    table = {"embed": cli._EMBED, "sweep": cli._SWEEP}[command]
    given = fit_base(inputs, fmt, mode, command)
    base = every_key(table, {**given, "input": every_key(cli._INPUT, given["input"])})
    values = {**fit_values(inputs, fmt, command), **input_values(inputs, synth_dir)}
    assert (None, "stop_tol") in probe(tmp_path, command, base, values, recorded)


@pytest.mark.parametrize("strategy", cli.SEARCH_STRATEGIES)
def test_probe_every_search_key_is_read_or_exits_2(tmp_path, inputs, recorded, strategy):
    # the search's default objective, reconstruction-error, reads the truth under grid and brent
    truth = None if strategy == "bisect-to-rank1" else inputs["collection"][1]
    base = every_key(cli._EMBED, {**fit_base(inputs, "collection", "admm-ls", "embed"),
                                  "truth_path": truth,
                                  "search": every_key(cli._SEARCH, {"strategy": strategy})})
    values = {**fit_values(inputs, "collection", "embed"), **SEARCH_VALUES}
    assert (None, "stop_tol") in probe(tmp_path, "embed", base, values, recorded)


@pytest.mark.parametrize("mode", ["clustering", "classification"])
def test_probe_every_eval_key_is_read_or_exits_2(tmp_path, ucr_embedding, recorded, mode):
    base = every_key(cli._EVAL, eval_base(ucr_embedding, mode))
    probe(tmp_path, "eval", base, eval_values(tmp_path, ucr_embedding), recorded)


@pytest.mark.parametrize("classes", [False, True])
def test_probe_every_synth_key_is_read_or_exits_2(tmp_path, recorded, classes):
    probe(tmp_path, "synth", every_key(cli._SYNTH, synth_base(classes)), SYNTH_VALUES, recorded)
