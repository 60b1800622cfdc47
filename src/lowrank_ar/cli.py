"""Batch command line: synth, embed, eval, sweep.

Each command reads an optional JSON config, applies flag overrides, and
writes a manifest.json echoing the fully resolved configuration (defaults
included) into the output directory. Rerunning any command from its
manifest reproduces the outputs byte for byte.

Exit codes: 0 success, 2 configuration or input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from lowrank_ar import dataio, encoders
from lowrank_ar.embedding import approx_rank, factorize, read_embedding_csv, write_embedding_csv
from lowrank_ar.evalkit import (
    LambdaProblem,
    accuracy_and_macro_f1,
    ari,
    kmeans,
    knn_classify,
    lambda_search,
    nmi,
    reconstruction_error,
)
from lowrank_ar.field import EmpiricalField, FieldSpec
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection
from lowrank_ar.nuclear import nuclear_norm
from lowrank_ar.solver import SolverConfig, SolverError, solve, write_history_csv
from lowrank_ar.synthetic import (
    GenClassSpec,
    UnstableCoefficientsError,
    gen_benchmark,
    standard_class_specs,
)

_LAMBDA_FMT = "%.17g"

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
    "iters": 256,
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
    **_EMBED_DEFAULTS,
    "out": "sweep_out",
    "n_points": 40,
    "lower": None,
    "upper": None,
    "k": None,
}
_SWEEP_DEFAULTS.pop("search")

_SEARCH_DEFAULTS: dict = {
    "strategy": "brent",
    "objective": "reconstruction-error",
    "n_points": 20,
    "tol": 1e-3,
}


def _merge_config(defaults: dict, loaded: dict, command: str) -> dict:
    out = dict(defaults)
    for key, value in loaded.items():
        if key == "command":
            if value != command:
                raise ConfigError(
                    f"config file is for command {value!r}, not {command!r}"
                )
            continue
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        out[key] = value
    return out


def _resolve_config(args, command: str, defaults: dict) -> dict:
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
    config = _merge_config(defaults, loaded, command)
    overrides = {
        "lambda_": "lambda",
        "d": "d",
        "iters": "iters",
        "seed": "seed",
        "link": "link",
        "window_g": "window_g",
        "out": "out",
    }
    for attr, key in overrides.items():
        value = getattr(args, attr, None)
        if value is not None:
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


def _metrics_skeleton(**known) -> dict:
    metrics = {key: None for key in _METRIC_KEYS}
    metrics.update(known)
    return metrics


# ---------------------------------------------------------------- synth


def _synth_specs(config: dict) -> list[GenClassSpec]:
    common = dict(
        d=config["d"],
        n_per_class=config["n_per_class"],
        t_len=config["t_len"],
        noise_var=config["noise_var"],
    )
    try:
        if config["classes"] is not None:
            return [
                GenClassSpec(
                    baseline=entry["baseline"],
                    perturbation=entry["perturbation"],
                    gamma_decay=config["gamma_decay"],
                    perturbation_var=config["perturbation_var"],
                    **common,
                )
                for entry in config["classes"]
            ]
        n = int(config["n_classes"])
        if n < 1:
            raise ValueError("n_classes must be positive")
        repeats = -(-n // 5)  # ceil: the pool repeats five procedures
        pool = standard_class_specs(repeats=repeats, **common)
        return pool[:n]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid class specification: {exc}") from None


def cmd_synth(config: dict) -> int:
    specs = _synth_specs(config)
    rng = np.random.default_rng(config["seed"])
    collection, truth = gen_benchmark(specs, rng)
    out = _out_dir(config)
    dataio.write_collection_csv(collection, out / "dataset.csv")
    dataio.write_labels_csv(collection.ids, collection.labels, out / "labels.csv")
    # rows 1..d of the truth matrix; the bias row is identically zero
    dataio.write_matrix_csv(truth.data[1:], out / "truth.csv", column_names=collection.ids)
    _write_manifest(config, out)
    print(f"wrote {len(collection.ids)} sequences to {out}")
    return 0


# ---------------------------------------------------------------- ingestion


def _ingest(config: dict):
    """Returns (collection, roles) where roles marks train/test or is None."""
    raw = config["input"]
    if raw is None:
        raise ConfigError("config key 'input' is required")
    if isinstance(raw, str):
        raw = {"format": "collection", "path": raw}
    spec = dict(_INPUT_DEFAULTS)
    for key, value in raw.items():
        if key not in spec:
            raise ConfigError(f"unknown input key {key!r}")
        spec[key] = value
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


def _resolve_link(config: dict, collection: SequenceCollection) -> str:
    link = config["link"]
    if link is None:
        link = "softmax" if collection.kind == "probability-simplex" else "identity"
    if link not in ("identity", "softmax", "exponential", "logistic"):
        raise ConfigError(f"unknown link {link!r}")
    return link


def _make_evaluator(collection: SequenceCollection, config: dict) -> EmpiricalField:
    link = LinkFunction(config["link"])
    window = config["window_g"]
    try:
        spec = FieldSpec(
            link=link,
            order=int(config["d"]),
            mode="full-horizon" if window is None else "stochastic-subwindow",
            window=None if window is None else int(window),
            seed=config["seed"],
        )
        return EmpiricalField(collection, spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _solver_config(config: dict, lambda_: float) -> SolverConfig:
    if config["mode"] == "admm-ls":
        if config["link"] != "identity":
            raise ConfigError("mode admm-ls requires --link identity")
        if config["window_g"] is not None:
            raise ConfigError("mode admm-ls is incompatible with --window-g")
    try:
        return SolverConfig(
            mode=config["mode"],
            lambda_=lambda_,
            max_iters=int(config["iters"]),
            kappa0=float(config["kappa0"]),
            stop_tol=config["stop_tol"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _solve_factory(collection: SequenceCollection, config: dict):
    """solve_fn(lambda) plus the per-lambda solver states, keyed by %.17g.

    Full-horizon evaluators are stateless and shared; the stochastic mode
    rebuilds one per solve so every lambda sees the same window draws.
    """
    shared = _make_evaluator(collection, config)
    stochastic = shared.spec.mode == "stochastic-subwindow"
    states: dict = {}

    def solve_fn(lam: float) -> ParameterMatrix:
        evaluator = _make_evaluator(collection, config) if stochastic else shared
        params, state = solve(evaluator, _solver_config(config, lam))
        states[_LAMBDA_FMT % lam] = state
        return params

    return solve_fn, states


def _load_truth(config: dict, collection: SequenceCollection) -> np.ndarray | None:
    if config["truth_path"] is None:
        return None
    names, lag_block = dataio.read_matrix_csv(config["truth_path"])
    if list(names) != list(collection.ids):
        raise ConfigError("truth matrix columns do not match collection ids")
    return lag_block


def _search_settings(config: dict) -> dict | None:
    raw = config.get("search")
    lam = config["lambda"]
    if raw is None and isinstance(lam, str) and lam in ("bisect-to-rank1", "grid", "brent"):
        raw = {"strategy": lam}
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = {"strategy": raw}
    settings = dict(_SEARCH_DEFAULTS)
    for key, value in raw.items():
        if key not in settings:
            raise ConfigError(f"unknown search key {key!r}")
        settings[key] = value
    return settings


def _lag_block(params: ParameterMatrix, channel_count: int) -> np.ndarray:
    # drop each sequence's bias column before comparing against stored truth
    n = params.data.shape[1]
    per_channel = params.data.reshape(channel_count, -1, n)
    return per_channel[:, 1:, :].reshape(-1, n)


def _search_objectives(collection, truth, config) -> dict:
    objectives: dict = {}
    if truth is not None:
        objectives["reconstruction-error"] = lambda p: reconstruction_error(
            truth, _lag_block(p, collection.channel_count)
        )
    if collection.labels is not None:
        labels = np.asarray(collection.labels)
        k = len(set(labels.tolist()))
        seed = config["seed"]

        def train_metric(params: ParameterMatrix) -> float:
            coords = factorize(params, ids=list(collection.ids)).coordinates
            part = kmeans(coords, k, np.random.default_rng(seed), restarts=4)
            return -ari(labels, part.assignments)

        objectives["train-metric"] = train_metric
    return objectives


def _write_search_csv(result, states: dict, path: Path) -> None:
    """One row per radius the search scored, in order, with how its solve ended.

    iterations and termination stay empty for a radius that needed no solve
    (bisect's lambda = 0, the zero matrix).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("lambda,score,iterations,termination\n")
        for lam, score in zip(result.lambdas_tried, result.scores):
            state = states.get(_LAMBDA_FMT % lam)
            solved = ["", ""] if state is None else [str(state.t), state.termination]
            fh.write(",".join([_LAMBDA_FMT % lam, _LAMBDA_FMT % score, *solved]) + "\n")


def cmd_embed(config: dict) -> int:
    collection, roles = _ingest(config)
    config["link"] = _resolve_link(config, collection)
    out = _out_dir(config)
    truth = _load_truth(config, collection)
    solve_fn, states = _solve_factory(collection, config)
    search = _search_settings(config)

    start = time.perf_counter()
    if search is not None:
        problem = LambdaProblem(
            solve_fn=solve_fn,
            objectives=_search_objectives(collection, truth, config),
        )
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
        params = solve_fn(lam)
    runtime = time.perf_counter() - start

    embedding = factorize(params, ids=list(collection.ids))
    write_embedding_csv(embedding, out / "embeddings.csv", labels=collection.labels)
    # bisect can settle on lambda = 0 (the zero matrix) without a solve
    state = states.get(_LAMBDA_FMT % lam)
    write_history_csv(state.history if state is not None else [], out / "history.csv")
    if roles is not None:
        dataio.write_split_csv(collection.ids, roles, out / "split.csv")
    metrics = _metrics_skeleton(
        approx_rank=embedding.approx_rank,
        runtime_seconds=runtime,
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
    try:
        ids, labels, coords = read_embedding_csv(config["embeddings_path"])
    except FileNotFoundError:
        raise ConfigError(f"embeddings file not found: {config['embeddings_path']}") from None
    if labels is None and config["labels_path"] is not None:
        by_id = dataio.read_labels_csv(config["labels_path"])
        try:
            labels = [by_id[i] for i in ids]
        except KeyError as exc:
            raise ConfigError(f"labels file missing id {exc.args[0]!r}") from None
    return ids, labels, coords


def cmd_eval(config: dict) -> int:
    ids, labels, coords = _load_embeddings(config)
    out = _out_dir(config)
    sigma = np.linalg.svd(coords, compute_uv=False) if coords.size else np.zeros(0)
    metrics = _metrics_skeleton(
        approx_rank=approx_rank(sigma),
        **{"lambda": config["lambda"]},
    )
    start = time.perf_counter()
    if config["mode"] == "classification":
        if config["split_path"] is None:
            raise ConfigError("classification mode needs split_path")
        if labels is None:
            raise ConfigError("classification mode needs labels")
        roles = dataio.read_split_csv(config["split_path"])
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


def _sweep_lambdas(config: dict, solve_fn) -> np.ndarray:
    upper = config["upper"]
    if upper is None:
        unconstrained = solve_fn(math.inf)
        upper = nuclear_norm(unconstrained.data)
        if upper <= 0:
            raise SolverError("unconstrained solution is zero; sweep bracket is empty")
    lower = config["lower"] if config["lower"] is not None else 1e-2 * upper
    if not 0 < lower < upper:
        raise ConfigError(f"need 0 < lower < upper, got [{lower}, {upper}]")
    return np.geomspace(lower, upper, int(config["n_points"]))


def cmd_sweep(config: dict) -> int:
    collection, _ = _ingest(config)
    config["link"] = _resolve_link(config, collection)
    out = _out_dir(config)
    truth = _load_truth(config, collection)
    solve_fn, _ = _solve_factory(collection, config)
    stochastic = config["window_g"] is not None
    evaluator = None if stochastic else _make_evaluator(collection, config)
    labels = np.asarray(collection.labels) if collection.labels is not None else None
    k = config["k"]
    if k is None and labels is not None:
        k = len(set(labels.tolist()))

    sweep_path = out / "sweep.csv"
    header = ["lambda", "loss", "reconstruction_error", "approx_rank", "ari"]
    done: dict = {}
    if sweep_path.exists():
        with open(sweep_path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        if rows and rows[0] == header:
            done = {row[0]: row for row in rows[1:]}

    lambdas = _sweep_lambdas(config, solve_fn)
    table: list = []
    for index, lam in enumerate(lambdas.tolist()):
        key = _LAMBDA_FMT % lam
        if key in done:
            table.append(done[key])
            continue
        params = solve_fn(lam)
        # fresh evaluator per row in stochastic mode keeps rows resume-invariant
        loss_eval = _make_evaluator(collection, config) if stochastic else evaluator
        loss = loss_eval.loss(params.data)
        embedding = factorize(params, ids=list(collection.ids))
        row = [key, _LAMBDA_FMT % loss, "", str(embedding.approx_rank), ""]
        if truth is not None:
            err = reconstruction_error(truth, _lag_block(params, collection.channel_count))
            row[2] = _LAMBDA_FMT % err
        if labels is not None:
            part = kmeans(
                embedding.coordinates, int(k),
                np.random.default_rng([config["seed"], index]),
                restarts=4,
            )
            row[4] = _LAMBDA_FMT % ari(labels, part.assignments)
        table.append(row)
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(row) + "\n")
    _write_manifest(config, out)
    print(f"swept {len(table)} penalty levels into {sweep_path}")
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
        cmd.add_argument("--lambda", dest="lambda_", default=None,
                         help="nuclear radius, a number or 'inf'")
        cmd.add_argument("--d", type=int, default=None, help="autoregressive order")
        cmd.add_argument("--iters", type=int, default=None, help="solver iterations")
        cmd.add_argument("--seed", type=int, default=None, help="random seed")
        cmd.add_argument("--link", default=None,
                         help="identity, softmax, exponential, or logistic")
        cmd.add_argument("--window-g", dest="window_g", type=int, default=None,
                         help="stochastic subwindow length")
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
        config = _resolve_config(args, args.command, defaults)
        return handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, UnstableCoefficientsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
