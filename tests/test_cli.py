"""End-to-end command line runs through main(argv)."""

import csv
import json

import numpy as np
import pytest

from lowrank_ar import cli
from lowrank_ar.dataio import read_json, read_labels_csv, read_matrix_csv, write_json, write_split_csv
from lowrank_ar.embedding import read_embedding_csv


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
    assert set(metrics) == set(cli._METRIC_KEYS)
    assert metrics["lambda"] is None  # inf is not representable in JSON
    assert metrics["approx_rank"] >= 1
    header = (out / "embeddings.csv").read_text().splitlines()[0]
    assert header.startswith("id,label,dim_1")


def test_embed_rerun_is_byte_identical(tmp_path, synth_dir):
    rc_a, out_a = run_embed(tmp_path, synth_dir, name="run_a", iters=32)
    rc_b, out_b = run_embed(tmp_path, synth_dir, name="run_b", iters=32)
    assert rc_a == rc_b == 0
    assert (out_a / "embeddings.csv").read_bytes() == (out_b / "embeddings.csv").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


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
        assert row[3] in ("stop-tol", "converged", "slack", "iteration-cap")


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


def test_embed_with_truth_and_stochastic_window(tmp_path, synth_dir):
    # subwindow fields redraw per evaluation, so the step-doubling search
    # cannot settle; plain mirror descent is the supported pairing
    rc, out = run_embed(
        tmp_path, synth_dir, name="stoch",
        truth_path=str(synth_dir / "truth.csv"), window_g=10, iters=16,
        mode="mirror-descent", kappa0=1.0, **{"lambda": 4.0},
    )
    assert rc == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["window_g"] == 10


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


# ---------------------------------------------------------------- sweep


def test_sweep_and_resume(tmp_path, synth_dir):
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
    first = (out / "sweep.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "lambda,loss,reconstruction_error,approx_rank,ari"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) >= 0.0  # loss
        assert float(fields[2]) >= 0.0  # reconstruction error
        assert int(fields[3]) >= 1
        assert -1.0 <= float(fields[4]) <= 1.0  # ari
    # rerunning resumes from the existing rows and reproduces the file
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_sweep_rejects_bad_bracket(tmp_path, synth_dir):
    cfg = tmp_path / "cfg.json"
    write_json(
        embed_config(synth_dir, n_points=3, lower=5.0, upper=4.0), cfg
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
