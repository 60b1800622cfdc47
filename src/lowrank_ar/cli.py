"""Batch command line: synth, embed, eval, sweep.

Each command reads an optional JSON config, applies flag overrides, and
writes a manifest.json echoing the fully resolved configuration (defaults
included) into the output directory. Rerunning any command from its
manifest reproduces the outputs byte for byte.

This module only parses settings and wires the layers: embed and sweep fit
through one radius path per collection (evalkit.radius_path), which solves
each radius once, picks a sweep's radii and scores its fits, and every file
is written by dataio. A config key or flag that a command does not read exits 2.

Exit codes: 0 success, 2 configuration or input error, 3 numerical failure
(a zero unconstrained fit among them: it leaves no radius to choose).
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from lowrank_ar import dataio, encoders
from lowrank_ar.embedding import approx_rank_of, factorize, read_embedding_csv, write_embedding_csv
from lowrank_ar.evalkit import (
    SEARCH_STRATEGIES,
    accuracy_and_macro_f1,
    ari,
    kmeans,
    knn_classify,
    lambda_search,
    nmi,
    radius_path,
)
from lowrank_ar.field import EmpiricalField, FieldSpec
from lowrank_ar.model import LinkFunction, SequenceCollection
from lowrank_ar.solver import SolverConfig, SolverError, check_method
from lowrank_ar.synthetic import (
    STANDARD_PROCEDURES,
    GenClassSpec,
    UnstableCoefficientsError,
    gen_benchmark,
)

_METRIC_KEYS = ("ari", "nmi", "accuracy", "macro_f1", "approx_rank", "lambda", "runtime_seconds")


class ConfigError(Exception):
    """Bad configuration or unreadable input; exits with code 2."""


_SYNTH_DEFAULTS: dict = {
    "seed": 0,
    "out": "synth_out",
    "n_classes": 3,
    "classes": None,
    "d": 15,
    "t_len": 250,
    "n_per_class": 300,
    "noise_var": 0.02,
    "gamma_decay": 0.9,
    "perturbation_var": 0.02,
}

_INPUT_DEFAULTS: dict = {
    "format": "collection",
    "path": None,
    "train_path": None,
    "test_path": None,
    "labels_path": None,
    "per_line": False,
    "kind": "real",
}

_EMBED_DEFAULTS: dict = {
    "seed": 0,
    "out": "embed_out",
    "input": None,
    "encoder": "none",
    "normalize": True,
    "cutoff": 1000,
    "link": None,
    "d": 20,
    "lambda": "inf",
    "search": None,
    "mode": "mirror-prox-backtracking",
    "iters": None,
    "kappa0": 1e-6,
    "stop_tol": None,
    "window_g": None,
    "truth_path": None,
}

_EVAL_DEFAULTS: dict = {
    "seed": 0,
    "out": "eval_out",
    "embeddings_path": "embeddings.csv",
    "labels_path": None,
    "split_path": None,
    "mode": "clustering",
    "k": None,
    "restarts": 10,
    "knn_k": None,
    "lambda": None,
}

_SWEEP_DEFAULTS: dict = {
    **{key: value for key, value in _EMBED_DEFAULTS.items() if key not in ("lambda", "search")},
    "out": "sweep_out",
    "n_points": 40,
    "lower": None,
    "upper": None,
}

_SEARCH_DEFAULTS: dict = {
    "strategy": "brent",
    "objective": "reconstruction-error",
    "n_points": 20,
    "tol": 1e-3,
}


def _merge(defaults: dict, given: dict, what: str) -> dict:
    """The defaults with the given settings over them; an unknown key is a ConfigError."""
    if not isinstance(given, dict):
        raise ConfigError(f"{what} settings must be a JSON object, got {given!r}")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown {what} key {key!r}")
    return {**defaults, **given}


def _resolve_config(args, defaults: dict) -> dict:
    """The config file merged over the defaults, then every flag given on the line."""
    command = args.command
    loaded: dict = {}
    if args.config is not None:
        try:
            loaded = dataio.read_json(args.config)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
    named = loaded.pop("command", command)
    if named != command:
        raise ConfigError(f"config file is for command {named!r}, not {command!r}")
    config = _merge(defaults, loaded, f"{command!r} config")
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        if key not in config:
            raise ConfigError(f"--{key.replace('_', '-')} does not apply to {command!r}")
        config[key] = value
    config["command"] = command
    return config


def _parse_lambda(value) -> float:
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity"):
            return math.inf
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"lambda must be a number or 'inf', got {value!r}") from None
    lam = float(value)
    if not lam > 0:
        raise ConfigError("lambda must be positive (or 'inf')")
    return lam


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(config: dict, out: Path) -> None:
    dataio.write_json(config, out / "manifest.json")


def _environment() -> dict:
    """The interpreter, numpy and scipy versions and each one's BLAS build.

    numpy's BLAS runs the batched products; scipy's LAPACK factors the
    ball projection's Gram (nuclear.project_nuc).
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
    }


def _metrics_skeleton(**known) -> dict:
    metrics = {key: None for key in _METRIC_KEYS}
    metrics.update(known)
    return metrics


# ---------------------------------------------------------------- synth


def _synth_specs(config: dict) -> list[GenClassSpec]:
    try:
        if config["classes"] is not None:
            procedures = [(entry["baseline"], entry["perturbation"]) for entry in config["classes"]]
        else:
            n = int(config["n_classes"])
            if n < 1:
                raise ValueError("n_classes must be positive")
            procedures = [STANDARD_PROCEDURES[i % len(STANDARD_PROCEDURES)] for i in range(n)]
        sizes = {key: config[key] for key in
                 ("d", "n_per_class", "t_len", "noise_var", "gamma_decay", "perturbation_var")}
        return [GenClassSpec(baseline=b, perturbation=p, **sizes) for b, p in procedures]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid class specification: {exc}") from None


def cmd_synth(config: dict) -> int:
    specs = _synth_specs(config)
    rng = np.random.default_rng(config["seed"])
    collection, truth = gen_benchmark(specs, rng)
    out = _out_dir(config)
    dataio.write_collection_csv(collection, out / "dataset.csv")
    dataio.write_labels_csv(collection.ids, collection.labels, out / "labels.csv")
    # the bias row is identically zero
    dataio.write_matrix_csv(truth.lag_rows, out / "truth.csv", column_names=collection.ids)
    _write_manifest(config, out)
    print(f"wrote {len(collection.ids)} sequences to {out}")
    return 0


# ---------------------------------------------------------------- ingestion


def _ingest(config: dict):
    """Returns (collection, roles) where roles marks train/test or is None."""
    raw = config["input"]
    if raw is None:
        raise ConfigError("config key 'input' is required")
    cutoff = config["cutoff"]
    if cutoff is not None and (type(cutoff) is not int or cutoff < 1):
        raise ConfigError(
            f"config key 'cutoff' must be null or a positive integer, got {cutoff!r}"
        )
    if isinstance(raw, str):
        raw = {"format": "collection", "path": raw}
    spec = _merge(_INPUT_DEFAULTS, raw, "input")
    fmt = spec["format"]
    try:
        if fmt == "collection":
            if spec["path"] is None:
                raise ConfigError("input.path is required for format 'collection'")
            collection = dataio.read_collection_csv(
                spec["path"], labels_path=spec["labels_path"], kind=spec["kind"]
            )
            return _apply_encoder(collection, config), None
        if fmt == "ucr":
            return _ingest_ucr(spec, config)
        if fmt == "fasta":
            return _ingest_fasta(spec), None
        if fmt == "text":
            return _ingest_text(spec, config), None
    except ConfigError:
        raise
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {exc.filename}") from None
    except ValueError as exc:
        raise ConfigError(f"could not ingest input: {exc}") from None
    raise ConfigError(f"unknown input format {fmt!r}")


def _apply_encoder(collection: SequenceCollection, config: dict) -> SequenceCollection:
    encoder = config["encoder"]
    if encoder == "none":
        return collection
    if encoder == "signal-diff":
        if collection.channel_count != 1:
            raise ConfigError("signal-diff encoding expects univariate input")
        return encoders.encode_signals(
            [seq[0] for seq in collection.sequences],
            collection.ids,
            labels=collection.labels,
            normalize=config["normalize"],
        )
    raise ConfigError(f"encoder {encoder!r} cannot re-encode a numeric collection")


def _ingest_ucr(spec: dict, config: dict):
    if spec["train_path"] is None:
        raise ConfigError("input.train_path is required for format 'ucr'")
    train_labels, train_series = dataio.read_ucr_file(spec["train_path"])
    labels = list(train_labels)
    series = list(train_series)
    roles = ["train"] * len(train_labels)
    if spec["test_path"] is not None:
        test_labels, test_series = dataio.read_ucr_file(spec["test_path"])
        labels += test_labels
        series += test_series
        roles += ["test"] * len(test_labels)
    ids = [f"seq_{i:05d}" for i in range(len(series))]
    # archive labels are arbitrary ints; compact to 0..k-1
    remap = {v: i for i, v in enumerate(sorted(set(labels)))}
    labels = [remap[v] for v in labels]
    collection = encoders.encode_signals(
        series, ids, labels=labels, normalize=config["normalize"]
    )
    return collection, (roles if spec["test_path"] is not None else None)


def _ingest_fasta(spec: dict) -> SequenceCollection:
    if spec["path"] is None:
        raise ConfigError("input.path is required for format 'fasta'")
    ids, descriptions, texts = dataio.read_fasta(spec["path"])
    labels = None
    if any(descriptions):
        remap = {v: i for i, v in enumerate(sorted(set(descriptions)))}
        labels = [remap[v] for v in descriptions]
    return encoders.encode_genomes(texts, ids, labels=labels)


def _ingest_text(spec: dict, config: dict) -> SequenceCollection:
    if spec["path"] is None:
        raise ConfigError("input.path is required for format 'text'")
    paths = spec["path"] if isinstance(spec["path"], list) else [spec["path"]]
    ids, texts = dataio.read_text_documents(paths, per_line=spec["per_line"])
    texts = [encoders.clean_text(t) for t in texts]
    code = encoders.build_huffman(encoders.corpus_frequencies(texts))
    return encoders.encode_corpus(texts, ids, code, cutoff=config["cutoff"])


# ---------------------------------------------------------------- embed


def _read(reader, path):
    """reader(path); a missing or malformed file is a ConfigError that names it."""
    try:
        return reader(path)
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"could not read input: {exc}") from None


def _load_truth(config: dict, collection: SequenceCollection) -> np.ndarray | None:
    if config["truth_path"] is None:
        return None
    names, lag_rows = _read(dataio.read_matrix_csv, config["truth_path"])
    if list(names) != list(collection.ids):
        raise ConfigError("truth matrix columns do not match collection ids")
    return lag_rows


def _search_settings(config: dict) -> dict | None:
    raw = config.get("search")
    lam = config["lambda"]
    if raw is None and isinstance(lam, str) and lam in SEARCH_STRATEGIES:
        raw = {"strategy": lam}
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = {"strategy": raw}
    return _merge(_SEARCH_DEFAULTS, raw, "search")


def _radius_path(collection: SequenceCollection, config: dict):
    """The collection's field, its radius path, and each solved radius's SolverState."""
    if config["link"] is None:  # resolved in config, so the manifest records it
        config["link"] = "softmax" if collection.kind == "probability-simplex" else "identity"
    truth_lag = _load_truth(config, collection)
    window, iters = config["window_g"], config["iters"]
    try:
        spec = FieldSpec(
            link=LinkFunction(config["link"]),
            order=int(config["d"]),
            mode="full-horizon" if window is None else "stochastic-subwindow",
            window=None if window is None else int(window),
            seed=config["seed"],
        )
        evaluator = EmpiricalField(collection, spec)
        # the solve's settings at radius inf; iters = null leaves each solver its own cap
        solver_config = SolverConfig(
            mode=config["mode"],
            max_iters=None if iters is None else int(iters),
            kappa0=float(config["kappa0"]),
            stop_tol=config["stop_tol"],
        )
        check_method(solver_config, spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    problem, states = radius_path(
        evaluator, solver_config, truth_lag=truth_lag, labels=collection.labels,
        seed=config["seed"],
    )
    return evaluator, problem, states


def _raise_if_diverged(states: dict) -> None:
    """SolverError naming the first solved radius whose fit diverged."""
    for solved, state in states.items():
        if state.termination == "diverged":
            raise SolverError(
                f"the fit at radius lambda = {solved:.17g} diverged: its loss "
                f"{state.history[-1].loss:.6g} exceeds that of the zero matrix"
            )


def _write_search_csv(result, states: dict, path: Path) -> None:
    """One row per radius the search scored, in order, with how its solve ended.

    iterations and termination stay empty for a radius that needed no solve
    (bisect's lambda = 0, the zero matrix).
    """
    rows = []
    for lam, score in zip(result.lambdas_tried, result.scores):
        state = states.get(lam)
        rows.append([lam, score] + (["", ""] if state is None else [state.t, state.termination]))
    dataio.write_csv(path, ["lambda", "score", "iterations", "termination"], rows)


def cmd_embed(config: dict) -> int:
    collection, roles = _ingest(config)
    out = _out_dir(config)
    _, problem, states = _radius_path(collection, config)
    search = _search_settings(config)

    start = time.perf_counter()
    if search is not None:
        try:
            result = lambda_search(
                problem,
                strategy=search["strategy"],
                objective=search["objective"],
                n_points=int(search["n_points"]),
                tol=float(search["tol"]),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        params, lam = result.best_params, result.best_lambda
        _write_search_csv(result, states, out / "search.csv")
    else:
        lam = _parse_lambda(config["lambda"])
        params = problem.solve(lam)
    runtime = time.perf_counter() - start
    _raise_if_diverged(states)
    if lam > 0 and not np.any(params.data):
        raise SolverError(f"the fit at radius lambda = {lam:.17g} collapsed "
                          "to the zero matrix, which has no embedding")

    embedding = factorize(params, ids=list(collection.ids))
    write_embedding_csv(embedding, out / "embeddings.csv", labels=collection.labels)
    # bisect can settle on lambda = 0 (the zero matrix) without a solve
    state = states.get(lam)
    dataio.write_history_csv(state.history if state is not None else [], out / "history.csv")
    if roles is not None:
        dataio.write_split_csv(collection.ids, roles, out / "split.csv")
    metrics = _metrics_skeleton(
        approx_rank=embedding.approx_rank,
        runtime_seconds=runtime,
        solves=dict(Counter(st.termination for st in states.values())),
        environment=_environment(),
        **{"lambda": None if math.isinf(lam) else lam},
    )
    dataio.write_json(metrics, out / "metrics.json")
    _write_manifest(config, out)
    print(
        f"embedded {collection.n_sequences} sequences at rank {embedding.r} "
        f"(approx rank {embedding.approx_rank}) into {out}"
    )
    return 0


# ---------------------------------------------------------------- eval


def _load_embeddings(config: dict):
    ids, labels, coords = _read(read_embedding_csv, config["embeddings_path"])
    if labels is None and config["labels_path"] is not None:
        by_id = _read(dataio.read_labels_csv, config["labels_path"])
        try:
            labels = [by_id[i] for i in ids]
        except KeyError as exc:
            raise ConfigError(f"labels file missing id {exc.args[0]!r}") from None
    return ids, labels, coords


def cmd_eval(config: dict) -> int:
    ids, labels, coords = _load_embeddings(config)
    out = _out_dir(config)
    metrics = _metrics_skeleton(
        approx_rank=approx_rank_of(coords) if coords.size else 0,
        **{"lambda": config["lambda"]},
    )
    start = time.perf_counter()
    if config["mode"] == "classification":
        if config["split_path"] is None:
            raise ConfigError("classification mode needs split_path")
        if labels is None:
            raise ConfigError("classification mode needs labels")
        roles = _read(dataio.read_split_csv, config["split_path"])
        try:
            role_arr = np.array([roles[i] for i in ids])
        except KeyError as exc:
            raise ConfigError(f"split file missing id {exc.args[0]!r}") from None
        train = role_arr == "train"
        test = role_arr == "test"
        if not train.any() or not test.any():
            raise ConfigError("split must contain both train and test rows")
        labels_arr = np.asarray(labels)
        predicted = knn_classify(
            coords[:, train], labels_arr[train], coords[:, test], k=config["knn_k"]
        )
        acc, macro = accuracy_and_macro_f1(labels_arr[test], predicted)
        metrics["accuracy"], metrics["macro_f1"] = acc, macro
    elif config["mode"] == "clustering":
        k = config["k"]
        if k is None:
            if labels is None:
                raise ConfigError("clustering without labels needs explicit k")
            k = len(set(labels))
        part = kmeans(
            coords, int(k), np.random.default_rng(config["seed"]),
            restarts=int(config["restarts"]),
        )
        dataio.write_labels_csv(ids, part.assignments, out / "assignments.csv")
        if labels is None:
            print("warning: no labels available; wrote assignments only", file=sys.stderr)
        else:
            metrics["ari"] = ari(labels, part.assignments)
            metrics["nmi"] = nmi(labels, part.assignments)
    else:
        raise ConfigError(f"unknown eval mode {config['mode']!r}")
    metrics["runtime_seconds"] = time.perf_counter() - start
    dataio.write_json(metrics, out / "metrics.json")
    _write_manifest(config, out)
    shown = {k: v for k, v in metrics.items() if v is not None}
    print(f"metrics: {shown}")
    return 0


# ---------------------------------------------------------------- sweep


def cmd_sweep(config: dict) -> int:
    collection, _ = _ingest(config)
    out = _out_dir(config)
    evaluator, problem, states = _radius_path(collection, config)
    try:
        lambdas = problem.grid(int(config["n_points"]), config["lower"], config["upper"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    rows = []
    for lam in lambdas:
        params = problem.solve(lam)
        row = [lam, evaluator.loss(params.data), "", factorize(params).approx_rank, ""]
        if "reconstruction-error" in problem.objectives:
            row[2] = problem.objective("reconstruction-error", params)
        if "train-metric" in problem.objectives:
            row[4] = 0.0 - problem.objective("train-metric", params)  # the ARI
        rows.append(row)
    _raise_if_diverged(states)
    sweep_path = out / "sweep.csv"
    header = ["lambda", "loss", "reconstruction_error", "approx_rank", "ari"]
    dataio.write_csv(sweep_path, header, rows)
    _write_manifest(config, out)
    print(f"swept {len(rows)} penalty levels into {sweep_path}")
    return 0


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrank-ar",
        description="Low-rank autoregressive recovery and sequence embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "synth": "generate the synthetic benchmark",
        "embed": "solve and write per-sequence embeddings",
        "eval": "score embeddings by clustering or classification",
        "sweep": "solve across a grid of penalty levels",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="JSON config path")
        cmd.add_argument("--lambda", default=None, help="nuclear radius, a number or 'inf'")
        cmd.add_argument("--d", type=int, default=None, help="autoregressive order")
        cmd.add_argument("--iters", type=int, default=None, help="solver iterations")
        cmd.add_argument("--seed", type=int, default=None, help="random seed")
        cmd.add_argument("--link", default=None,
                         help="identity, softmax, exponential, or logistic")
        cmd.add_argument("--window-g", type=int, default=None, help="stochastic subwindow length")
        cmd.add_argument("--out", default=None, help="output directory")
    return parser


_DISPATCH = {
    "synth": (cmd_synth, _SYNTH_DEFAULTS),
    "embed": (cmd_embed, _EMBED_DEFAULTS),
    "eval": (cmd_eval, _EVAL_DEFAULTS),
    "sweep": (cmd_sweep, _SWEEP_DEFAULTS),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, defaults = _DISPATCH[args.command]
    try:
        config = _resolve_config(args, defaults)
        return handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, UnstableCoefficientsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
