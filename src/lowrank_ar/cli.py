"""Batch command line: synth, embed, eval, sweep.

One settings table per command (_SYNTH, _EMBED, _EVAL and _SWEEP, with
_INPUT and _SEARCH for the nested input and search objects) gives each
config key its default, one strict parser and the condition under which a
run reads it. The JSON merge, the validation, the command-line flags and
the manifest all come from these tables. Each command reads an optional
JSON config, applies flag overrides, and writes a manifest.json echoing
every setting as given or defaulted (link: null as the link it resolved
to) into the output directory. Rerunning any command from its manifest
reproduces the outputs byte for byte.

An unknown key, a value its parser rejects, and a key given a value other
than its default that the run will not read all exit 2 naming the key; an
unread key left at its default is accepted.

Beyond that this module only wires the layers: embed and sweep fit through
one radius path per collection (evalkit.radius_path), which solves each
radius once, picks a sweep's radii and scores its fits, and every file is
written by dataio.

Exit codes: 0 success, 2 configuration or input error, 3 numerical failure
(a zero unconstrained fit among them: it leaves no radius to choose).
"""

from __future__ import annotations

import argparse
import math
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

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


# ---------------------------------------------------------------- settings


class Setting(NamedTuple):
    """One config key of a command.

    parse maps a given value to the value the run uses, or raises a
    ValueError saying what it expects; a retired key, which no run reads,
    has none. reads is a condition on the settings
    resolved before this one (the rows above it in its table); None means
    every run reads the key. flag, an (argparse type, help) pair, makes the
    key a command-line flag too.
    """

    default: object
    parse: object
    reads: object = None
    flag: tuple | None = None


def _check(test, expects: str):
    """A parser passing each value that test accepts; any other raises ValueError(expects)."""

    def parse(value):
        if not test(value):
            raise ValueError(expects)
        return value

    return parse


def _optional(parse):
    """parse, but passing null through."""
    return lambda value: None if value is None else parse(value)


def _choice(*names: str):
    return _check(lambda v: type(v) is str and v in names, f"one of {names}")


def _is(key: str, *values):
    """The condition that the resolved setting key is one of values."""
    return lambda config: config[key] in values


_COUNT = _check(lambda v: type(v) is int and v >= 1, "a positive integer")
_NUMBER = _check(lambda v: type(v) in (int, float) and math.isfinite(v), "a number")
_POSITIVE = _check(lambda v: type(v) in (int, float) and 0 < v < math.inf, "a positive number")
_BOOL = _check(lambda v: type(v) is bool, "true or false")
_STRING = _check(lambda v: type(v) is str, "a string")
_PATHS = _check(
    lambda v: type(v) is str or (type(v) is list and v and all(type(p) is str for p in v)),
    "a path, or for format 'text' a list of paths",
)
_CLASSES = _check(
    lambda v: type(v) is list and v
    and all(type(e) is dict and set(e) == {"baseline", "perturbation"} for e in v),
    'a nonempty list of {"baseline": ..., "perturbation": ...} objects',
)


def _radius(value) -> float:
    """A positive number, or a string holding one ("inf" included)."""
    try:
        lam = float(value) if type(value) in (int, float, str) else math.nan
    except ValueError:  # a string naming no number
        lam = math.nan
    if not lam > 0:
        raise ValueError("a positive number or 'inf'")
    return lam


def _radius_or_search(value):
    """A radius, or the search settings of the strategy that lambda names."""
    return _search(value) if value in SEARCH_STRATEGIES else _radius(value)


def _nested(table: dict, what: str, short: str):
    """A parser of an object of table's settings, or of a string s standing for {short: s}."""
    return lambda value: _resolve(table, {short: value} if isinstance(value, str) else value, what)


def _resolve(table: dict, given, what: str) -> dict:
    """The given settings over the table's defaults, each key the run reads parsed.

    An unknown key, a value its parser rejects, or a key the run does not
    read given a value other than its default is a ConfigError naming it.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{what} settings must be a JSON object, got {given!r}")
    for key in given:
        if key not in table:
            raise ConfigError(f"unknown {what} key {key!r}")
    config: dict = {}
    for key, setting in table.items():
        value = given.get(key, setting.default)
        if setting.reads is None or setting.reads(config):
            try:
                config[key] = setting.parse(value)
            except ValueError as exc:
                raise ConfigError(f"{what} key {key!r} must be {exc}, got {value!r}") from None
        elif type(value) is type(setting.default) and value == setting.default:
            config[key] = value
        else:
            raise ConfigError(f"{what} key {key!r} = {value!r} is not read by this run; "
                              f"leave it at its default {setting.default!r}")
    return config


_SEED = Setting(0, _check(lambda v: type(v) is int and v >= 0, "a non-negative integer"),
                flag=(int, "random seed"))
_OUT_FLAG = (str, "output directory")
_ORDER_FLAG = (int, "autoregressive order")


_SYNTH = {
    "seed": _SEED,
    "out": Setting("synth_out", _STRING, flag=_OUT_FLAG),
    "classes": Setting(None, _optional(_CLASSES)),
    "n_classes": Setting(3, _COUNT, _is("classes", None)),
    "d": Setting(15, _COUNT, flag=_ORDER_FLAG),
    "t_len": Setting(250, _COUNT),
    "n_per_class": Setting(300, _COUNT),
    "noise_var": Setting(0.02, _NUMBER),
    "gamma_decay": Setting(0.9, _NUMBER),
    "perturbation_var": Setting(0.02, _NUMBER),
}

_INPUT = {
    "format": Setting("collection", _choice("collection", "ucr", "fasta", "text")),
    "path": Setting(None, _PATHS, _is("format", "collection", "fasta", "text")),
    "train_path": Setting(None, _STRING, _is("format", "ucr")),
    "test_path": Setting(None, _optional(_STRING), _is("format", "ucr")),
    "labels_path": Setting(None, _optional(_STRING), _is("format", "collection")),
    "per_line": Setting(False, _BOOL, _is("format", "text")),
    "kind": Setting("real", _STRING, _is("format", "collection")),
}

_SEARCH = {
    "strategy": Setting("brent", _choice(*SEARCH_STRATEGIES)),
    "objective": Setting("reconstruction-error", _STRING, _is("strategy", "grid", "brent")),
    "n_points": Setting(20, _COUNT, _is("strategy", "grid")),
    "tol": Setting(1e-3, _POSITIVE, _is("strategy", "brent")),
}
_search = _optional(_nested(_SEARCH, "search", "strategy"))

_MIRROR = _is("mode", "mirror-descent", "mirror-prox-backtracking")

# embed's and sweep's keys; a condition reads only the rows above it
_FIT = {
    "seed": _SEED,
    "input": Setting(None, _nested(_INPUT, "input", "path")),
    "encoder": Setting("none", _choice("none", "signal-diff"),
                       lambda c: c["input"]["format"] == "collection"),
    "normalize": Setting(True, _BOOL, lambda c: c["input"]["format"] == "ucr"
                         or c["encoder"] == "signal-diff"),
    "cutoff": Setting(encoders.DEFAULT_SYMBOL_CUTOFF, _optional(_COUNT),
                      lambda c: c["input"]["format"] == "text"),
    "link": Setting(None, _optional(_STRING),
                    flag=(str, "identity, softmax, exponential, or logistic")),
    "d": Setting(20, _COUNT, flag=_ORDER_FLAG),
    "mode": Setting("mirror-prox-backtracking", _STRING),
    "iters": Setting(None, _optional(_COUNT), flag=(int, "solver iterations")),
    "kappa0": Setting(1e-6, _POSITIVE, _MIRROR),
    # retired: no run reads it, and null stays accepted so older manifests replay
    "stop_tol": Setting(None, None, lambda c: False),
    "window_g": Setting(None, _optional(_COUNT), _MIRROR,
                        flag=(int, "stochastic subwindow length")),
    "truth_path": Setting(None, _optional(_STRING)),
}

_EMBED = {
    **_FIT,
    "out": Setting("embed_out", _STRING, flag=_OUT_FLAG),
    "search": Setting(None, _search),
    "lambda": Setting("inf", _radius_or_search, _is("search", None),
                      flag=(str, "nuclear radius: a number, 'inf' or a search strategy")),
}

_SWEEP = {
    **_FIT,
    "out": Setting("sweep_out", _STRING, flag=_OUT_FLAG),
    "n_points": Setting(40, _COUNT),
    "lower": Setting(None, _optional(_POSITIVE)),
    "upper": Setting(None, _optional(_POSITIVE)),
}

_EVAL = {
    "out": Setting("eval_out", _STRING, flag=_OUT_FLAG),
    "embeddings_path": Setting("embeddings.csv", _STRING),
    "labels_path": Setting(None, _optional(_STRING)),
    "mode": Setting("clustering", _choice("clustering", "classification")),
    "seed": _SEED._replace(reads=_is("mode", "clustering")),  # seeds k-means only
    "split_path": Setting(None, _STRING, _is("mode", "classification")),
    "knn_k": Setting(None, _optional(_COUNT), _is("mode", "classification")),
    "k": Setting(None, _optional(_COUNT), _is("mode", "clustering")),
    "restarts": Setting(10, _COUNT, _is("mode", "clustering")),
    "lambda": Setting(None, _optional(_radius),
                      flag=(str, "the radius the embeddings were fit at, echoed into metrics")),
}


def _given(args) -> dict:
    """The config file's settings with every flag given on the line over them."""
    flags = dict(vars(args))  # the parser leaves out each flag not given
    command, path = flags.pop("command"), flags.pop("config")
    loaded: dict = {}
    if path is not None:
        try:
            loaded = dataio.read_json(path)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
    named = loaded.pop("command", command)
    if named != command:
        raise ConfigError(f"config file is for command {named!r}, not {command!r}")
    return {**loaded, **flags}


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metrics_skeleton(**known) -> dict:
    return {**dict.fromkeys(_METRIC_KEYS), **known}


# ---------------------------------------------------------------- synth


def _synth_specs(config: dict) -> list[GenClassSpec]:
    if config["classes"] is not None:
        procedures = [(entry["baseline"], entry["perturbation"]) for entry in config["classes"]]
    else:
        procedures = [STANDARD_PROCEDURES[i % len(STANDARD_PROCEDURES)]
                      for i in range(config["n_classes"])]
    sizes = {key: config[key] for key in
             ("d", "n_per_class", "t_len", "noise_var", "gamma_decay", "perturbation_var")}
    try:
        return [GenClassSpec(baseline=b, perturbation=p, **sizes) for b, p in procedures]
    except ValueError as exc:
        raise ConfigError(f"invalid class specification: {exc}") from None


def cmd_synth(config: dict) -> None:
    """generate the synthetic benchmark"""
    specs = _synth_specs(config)
    rng = np.random.default_rng(config["seed"])
    collection, truth = gen_benchmark(specs, rng)
    out = _out_dir(config)
    dataio.write_collection_csv(collection, out / "dataset.csv")
    dataio.write_labels_csv(collection.ids, collection.labels, out / "labels.csv")
    # the bias row is identically zero
    dataio.write_matrix_csv(truth.lag_rows, out / "truth.csv", column_names=collection.ids)
    print(f"wrote {len(collection.ids)} sequences to {out}")


# ---------------------------------------------------------------- ingestion


def _ingest(config: dict):
    """Returns (collection, roles) where roles marks train/test or is None."""
    spec = config["input"]
    fmt = spec["format"]
    if fmt in ("collection", "fasta") and isinstance(spec["path"], list):
        raise ConfigError(f"input key 'path' must be one path for format {fmt!r}")
    try:
        if fmt == "collection":
            collection = dataio.read_collection_csv(
                spec["path"], labels_path=spec["labels_path"], kind=spec["kind"]
            )
            return _apply_encoder(collection, config), None
        if fmt == "ucr":
            return _ingest_ucr(spec, config)
        if fmt == "fasta":
            return _ingest_fasta(spec), None
        return _ingest_text(spec, config), None
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {exc.filename}") from None
    except ValueError as exc:
        raise ConfigError(f"could not ingest input: {exc}") from None


def _apply_encoder(collection: SequenceCollection, config: dict) -> SequenceCollection:
    if config["encoder"] == "none":
        return collection
    if collection.channel_count != 1:
        raise ConfigError("signal-diff encoding expects univariate input")
    return encoders.encode_signals(
        [seq[0] for seq in collection.sequences],
        collection.ids,
        labels=collection.labels,
        normalize=config["normalize"],
    )


def _ingest_ucr(spec: dict, config: dict):
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
    ids, descriptions, texts = dataio.read_fasta(spec["path"])
    labels = None
    if any(descriptions):
        remap = {v: i for i, v in enumerate(sorted(set(descriptions)))}
        labels = [remap[v] for v in descriptions]
    return encoders.encode_genomes(texts, ids, labels=labels)


def _ingest_text(spec: dict, config: dict) -> SequenceCollection:
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
    expected = collection.channel_count**2 * config["d"]
    if lag_rows.shape[0] != expected:
        raise ConfigError(f"'truth_path' {config['truth_path']!r} holds {lag_rows.shape[0]} "
                          f"rows, not the C^2 d = {expected} lag rows of this fit")
    return lag_rows


def _radius_path(collection: SequenceCollection, config: dict):
    """The collection's field and its radius path, which keeps each solve's SolverState."""
    if config["link"] is None:  # resolved in config, so the manifest records it
        config["link"] = "softmax" if collection.kind == "probability-simplex" else "identity"
    truth_lag = _load_truth(config, collection)
    window = config["window_g"]
    try:
        spec = FieldSpec(
            link=LinkFunction(config["link"]),
            order=config["d"],
            mode="full-horizon" if window is None else "stochastic-subwindow",
            window=window,
            seed=config["seed"],
        )
        evaluator = EmpiricalField(collection, spec)
        # the solve's settings at radius inf; iters = null leaves each solver its own cap
        solver_config = SolverConfig(
            mode=config["mode"],
            max_iters=config["iters"],
            kappa0=config["kappa0"],
        )
        check_method(solver_config, spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    problem = radius_path(
        evaluator, solver_config, truth_lag=truth_lag, labels=collection.labels,
        seed=config["seed"],
    )
    return evaluator, problem


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


def cmd_embed(config: dict) -> None:
    """solve and write per-sequence embeddings"""
    collection, roles = _ingest(config)
    out = _out_dir(config)
    _, problem = _radius_path(collection, config)
    search, lam = config["search"], config["lambda"]
    if isinstance(lam, dict):  # lambda named a search strategy
        search = lam

    start = time.perf_counter()
    if search is not None:
        try:
            result = lambda_search(problem, **search)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        params, lam = result.best_params, result.best_lambda
        _write_search_csv(result, problem.states, out / "search.csv")
    else:
        params = problem.solve(lam)
    runtime = time.perf_counter() - start
    _raise_if_diverged(problem.states)
    if lam > 0 and not np.any(params.data):
        raise SolverError(f"the fit at radius lambda = {lam:.17g} collapsed "
                          "to the zero matrix, which has no embedding")

    embedding = factorize(params, ids=list(collection.ids))
    write_embedding_csv(embedding, out / "embeddings.csv", labels=collection.labels)
    # bisect can settle on lambda = 0 (the zero matrix) without a solve
    state = problem.states.get(lam)
    dataio.write_history_csv(state.history if state is not None else [], out / "history.csv")
    if roles is not None:
        dataio.write_split_csv(collection.ids, roles, out / "split.csv")
    metrics = _metrics_skeleton(
        approx_rank=embedding.approx_rank,
        runtime_seconds=runtime,
        peak_rss_mb=_peak_rss_mb(),
        solves=dict(Counter(st.termination for st in problem.states.values())),
        environment=_environment(),
        **{"lambda": None if math.isinf(lam) else lam},  # JSON has no inf
    )
    dataio.write_json(metrics, out / "metrics.json")
    print(
        f"embedded {collection.n_sequences} sequences at rank {embedding.r} "
        f"(approx rank {embedding.approx_rank}) into {out}"
    )


# ---------------------------------------------------------------- eval


def _load_embeddings(config: dict):
    """ids, labels and coordinates; labels_path is read only when the embeddings carry none."""
    ids, labels, coords = _read(read_embedding_csv, config["embeddings_path"])
    if config["labels_path"] is not None:
        if labels is not None:
            raise ConfigError(f"'eval' config key 'labels_path' = {config['labels_path']!r} is "
                              f"not read by this run: {config['embeddings_path']!r} carries labels")
        by_id = _read(dataio.read_labels_csv, config["labels_path"])
        try:
            labels = [by_id[i] for i in ids]
        except KeyError as exc:
            raise ConfigError(f"labels file missing id {exc.args[0]!r}") from None
    return ids, labels, coords


def cmd_eval(config: dict) -> None:
    """score embeddings by clustering or classification"""
    ids, labels, coords = _load_embeddings(config)
    out = _out_dir(config)
    lam = config["lambda"]
    metrics = _metrics_skeleton(
        approx_rank=approx_rank_of(coords) if coords.size else 0,
        **{"lambda": None if lam is None or math.isinf(lam) else lam},
    )
    start = time.perf_counter()
    if config["mode"] == "classification":
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
    else:
        k = config["k"]
        if k is None:
            if labels is None:
                raise ConfigError("clustering without labels needs explicit k")
            k = len(set(labels))
        rng = np.random.default_rng(config["seed"])
        part = kmeans(coords, k, rng, restarts=config["restarts"])
        dataio.write_labels_csv(ids, part.assignments, out / "assignments.csv")
        if labels is None:
            print("warning: no labels available; wrote assignments only", file=sys.stderr)
        else:
            metrics["ari"] = ari(labels, part.assignments)
            metrics["nmi"] = nmi(labels, part.assignments)
    metrics["runtime_seconds"] = time.perf_counter() - start
    dataio.write_json(metrics, out / "metrics.json")
    shown = {k: v for k, v in metrics.items() if v is not None}
    print(f"metrics: {shown}")


# ---------------------------------------------------------------- sweep


def cmd_sweep(config: dict) -> None:
    """solve across a grid of penalty levels"""
    collection, _ = _ingest(config)
    out = _out_dir(config)
    evaluator, problem = _radius_path(collection, config)
    try:
        lambdas = problem.grid(config["n_points"], config["lower"], config["upper"])
    except ValueError as exc:
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
    _raise_if_diverged(problem.states)
    sweep_path = out / "sweep.csv"
    header = ["lambda", "loss", "reconstruction_error", "approx_rank", "ari"]
    dataio.write_csv(sweep_path, header, rows)
    print(f"swept {len(rows)} penalty levels into {sweep_path}")


# ---------------------------------------------------------------- wiring


_COMMANDS = {
    "synth": (cmd_synth, _SYNTH),
    "embed": (cmd_embed, _EMBED),
    "eval": (cmd_eval, _EVAL),
    "sweep": (cmd_sweep, _SWEEP),
}


def build_parser() -> argparse.ArgumentParser:
    """--config on every command, and a flag for each of its table's keys that has one."""
    parser = argparse.ArgumentParser(
        prog="lowrank-ar",
        description="Low-rank autoregressive recovery and sequence embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, table) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        cmd.add_argument("--config", default=None, help="JSON config path")
        for key, setting in table.items():
            if setting.flag is not None:
                kind, help_text = setting.flag
                cmd.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                                 default=argparse.SUPPRESS, help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, --help 0
        return exc.code
    handler, table = _COMMANDS[args.command]
    try:
        given = _given(args)
        config = _resolve(table, given, f"{args.command!r} config")
        handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, UnstableCoefficientsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    manifest = {key: given.get(key, setting.default) for key, setting in table.items()}
    if "link" in table:
        manifest["link"] = config["link"]
    dataio.write_json({**manifest, "command": args.command}, Path(config["out"]) / "manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
