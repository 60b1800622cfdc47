"""The three workloads: seeded inputs, set-up, timed run, and checks.

A workload's round is setup() followed by run(). setup() takes the inputs
as a user hands them over (a generator state, or files on disk) to the
evaluator the first solve needs; run() goes from the first solve to the
last score and output file. check() runs after the clock has stopped and
compares each round's outputs with computations made by `checks`, which
never calls the package.

Package functions are looked up on their modules at call time, so the
wrappers that `tracing` installs see every call.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

_PKG = "lowrank_ar"
dataio = importlib.import_module(f"{_PKG}.dataio")
embedding = importlib.import_module(f"{_PKG}.embedding")
encoders = importlib.import_module(f"{_PKG}.encoders")
evalkit = importlib.import_module(f"{_PKG}.evalkit")
fieldmod = importlib.import_module(f"{_PKG}.field")
model = importlib.import_module(f"{_PKG}.model")
solver = importlib.import_module(f"{_PKG}.solver")
synthetic = importlib.import_module(f"{_PKG}.synthetic")


@dataclass
class Outcome:
    """One round's outputs, kept for the checks that run after timing."""

    attempted: int
    data: dict = field(default_factory=dict)


@dataclass
class CheckReport:
    failed_ops: int = 0
    results: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return all(r["ok"] for r in self.results)


class Workload:
    """Inputs are made from `seed`; outputs and input files go to `workdir`."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir


def _znorm(sequences) -> list:
    return [(s - s.mean()) / s.std() for s in sequences]


# ------------------------------------------------------------------ desk-search

DESK_D = 15
# Frank-Wolfe gap allowed on a returned constrained solve, relative to its
# loss. The solve that stops at the iteration cap reaches 3.6e-4 and the
# converged ones stay below 1e-9, so the bound tests optimality, not
# termination.
DESK_REL_GAP = 1e-3
DESK_OLS_REL = 1e-9


class DeskSearch(Workload):
    """Criterion-07 desk-study benchmarks: OLS, Brent radius search, k-means."""

    name = "desk-search"

    def prepare(self) -> None:
        self.benchmarks = inputs.desk_benchmarks(synthetic)
        self.pool = synthetic.standard_class_specs(**inputs.STUDY_SIZES)

    def setup(self):
        state = []
        for bench in self.benchmarks:
            rng = np.random.default_rng()
            rng.bit_generator.state = bench.rng_state
            coll, truth = synthetic.gen_benchmark([self.pool[i] for i in bench.class_ids], rng)
            znormed = model.SequenceCollection(
                sequences=_znorm(coll.sequences), ids=coll.ids, labels=coll.labels, kind="real"
            )
            spec = fieldmod.FieldSpec(link=model.LinkFunction("identity"), order=DESK_D)
            evaluator = fieldmod.EmpiricalField(znormed, spec)
            state.append((bench, coll, truth, evaluator))
        return state

    def run(self, state) -> Outcome:
        outcome = Outcome(attempted=0, data={"benchmarks": []})
        for bench, coll, truth, evaluator in state:
            slices = evaluator.slices
            truth_lag = truth.data[1:]
            ols = solver.least_squares_unconstrained(slices, 1, DESK_D)
            solves = []

            def solve_fn(lam, slices=slices, solves=solves):
                params, _ = solver.constrained_least_squares(slices, 1, DESK_D, lam)
                solves.append((lam, params.data))
                return params

            problem = evalkit.LambdaProblem(
                solve_fn=solve_fn,
                objectives={
                    "reconstruction-error": lambda p, t=truth_lag: evalkit.reconstruction_error(
                        t, p.data[1:]
                    )
                },
            )
            result = evalkit.lambda_search(problem, strategy="brent")
            emb = embedding.factorize(result.best_params, ids=list(coll.ids))
            part = evalkit.kmeans(
                emb.coordinates, 3, np.random.default_rng(self.seed), restarts=10
            )
            tag = f"bench{bench.position}"
            dataio.write_matrix_csv(
                result.best_params.data, self.workdir / f"{tag}_estimate.csv", list(coll.ids)
            )
            dataio.write_labels_csv(coll.ids, part.assignments, self.workdir / f"{tag}_assign.csv")
            outcome.attempted += len(solves) + 3  # OLS, the solves, search, embed-and-score
            outcome.data["benchmarks"].append(
                {
                    "position": bench.position,
                    "raw": [s[0] for s in coll.sequences],
                    "labels": list(coll.labels),
                    "truth_lag": truth_lag,
                    "ols": ols.data,
                    "solves": solves,
                    "best": result.best_params.data,
                    "coords": emb.coordinates,
                    "assign": part.assignments,
                }
            )
        return outcome

    def check(self, outcomes) -> CheckReport:
        report = CheckReport()
        designs: dict = {}
        for r, outcome in enumerate(outcomes):
            for b in outcome.data["benchmarks"]:
                tag = f"round {r} bench {b['position']}"
                if b["position"] not in designs:
                    design, targets = checks.stacked_design(_znorm(b["raw"]), DESK_D)
                    ref_loss = checks.ls_loss(checks.lstsq_fit(design, targets), design, targets)
                    designs[b["position"]] = (design, targets, ref_loss)
                design, targets, ref_loss = designs[b["position"]]
                unconstrained = next(data for lam, data in b["solves"] if math.isinf(lam))
                for what, data in (("OLS", b["ols"]), ("unconstrained solve", unconstrained)):
                    loss = checks.ls_loss(data, design, targets)
                    report.add(f"{tag}: {what} matches lstsq", abs(loss - ref_loss) <= DESK_OLS_REL * ref_loss,
                               f"loss {loss:.17g} vs lstsq {ref_loss:.17g}")
                finite = [(lam, data) for lam, data in b["solves"] if not math.isinf(lam)]
                outside = [lam for lam, data in finite if not checks.in_ball(data, lam)[0]]
                report.add(f"{tag}: constrained solves in the ball", not outside, f"outside at radii {outside}")
                worst = max(checks.relative_gap(data, design, targets, lam) for lam, data in finite)
                report.add(f"{tag}: constrained solves optimal", worst <= DESK_REL_GAP,
                           f"worst Frank-Wolfe gap {worst:.3g} of the loss over {len(finite)} solves")
                ok, detail = checks.lloyd_fixed_point(b["coords"], b["assign"])
                report.add(f"{tag}: k-means is a Lloyd fixed point", ok, detail)

                err_best = _rel_error(b["truth_lag"], b["best"])
                err_unc = _rel_error(b["truth_lag"], unconstrained)
                if err_best > err_unc:  # the search returned worse than a fit it held
                    report.failed_ops += 1
                if r == 0:
                    report.reference[f"bench{b['position']}"] = {
                        "err_unconstrained": err_unc,
                        "err_search": err_best,
                        "ari": evalkit.ari(b["labels"], b["assign"]),
                    }
        return report


def _rel_error(truth_lag, data) -> float:
    return float(np.linalg.norm(truth_lag - data[1:]) / np.linalg.norm(truth_lag))


# ------------------------------------------------------------------ ucr-classify

UCR_D = 20
UCR_ITERS = 128
UCR_RADIUS_SHARE = 0.25
# Loss above the constrained optimum that a fixed-iteration mirror-prox fit
# may keep, relative to the optimum.
UCR_REL_GAP = 0.2


def _signal_diff(series) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    out = np.stack([x, np.concatenate([[0.0], np.diff(x)])])
    out = out - out.mean(axis=1, keepdims=True)
    return out / out.std(axis=1, keepdims=True)


class UcrClassify(Workload):
    """UCR-format train/test pair, identity-link mirror-prox fit, KNN."""

    name = "ucr-classify"

    def prepare(self) -> None:
        self.train_path, self.test_path = inputs.write_ucr(self.seed, self.workdir / "inputs")
        _, train, _, test = inputs.ucr_series(self.seed)
        self.design, self.targets = checks.stacked_design([_signal_diff(s) for s in train + test], UCR_D)
        self.radius = UCR_RADIUS_SHARE * checks.nuclear_norm(checks.lstsq_fit(self.design, self.targets))

    def setup(self):
        train_labels, train = dataio.read_ucr_file(self.train_path)
        test_labels, test = dataio.read_ucr_file(self.test_path)
        labels = train_labels + test_labels
        remap = {v: i for i, v in enumerate(sorted(set(labels)))}
        ids = [f"seq_{i:05d}" for i in range(len(labels))]
        coll = encoders.encode_signals(train + test, ids, labels=[remap[v] for v in labels])
        roles = ["train"] * len(train_labels) + ["test"] * len(test_labels)
        spec = fieldmod.FieldSpec(link=model.LinkFunction("identity"), order=UCR_D)
        return coll, roles, fieldmod.EmpiricalField(coll, spec)

    def run(self, state) -> Outcome:
        coll, roles, evaluator = state
        config = solver.SolverConfig(
            mode="mirror-prox-backtracking", lambda_=self.radius, max_iters=UCR_ITERS
        )
        params, _ = solver.solve(evaluator, config)
        emb = embedding.factorize(params, ids=list(coll.ids))
        embedding.write_embedding_csv(emb, self.workdir / "embeddings.csv", labels=coll.labels)
        dataio.write_split_csv(coll.ids, roles, self.workdir / "split.csv")
        labels = np.asarray(coll.labels)
        train = np.asarray(roles) == "train"
        coords = emb.coordinates
        k = evalkit.select_k(coords[:, train], labels[train])
        pred = evalkit.knn_classify(coords[:, train], labels[train], coords[:, ~train], k=k)
        return Outcome(
            attempted=2,  # the solve, one embed-and-score
            data={"agg": params.data, "coords": coords, "labels": labels, "train": train, "k": k, "pred": pred},
        )

    def check(self, outcomes) -> CheckReport:
        report = CheckReport()
        lower, upper = checks.constrained_optimum(self.design, self.targets, self.radius)
        report.reference["optimum_bracket"] = [lower, upper]
        for r, o in enumerate(outcomes):
            d = o.data
            ok, detail = checks.in_ball(d["agg"], self.radius)
            report.add(f"round {r}: aggregate in the ball", ok, detail)
            loss = checks.ls_loss(d["agg"], self.design, self.targets)
            rel = (loss - lower) / lower
            report.add(
                f"round {r}: loss within {UCR_REL_GAP:g} of the constrained optimum",
                loss >= lower * (1.0 - 1e-12) and rel <= UCR_REL_GAP,
                f"loss {loss:.10g}, optimum >= {lower:.10g}, relative excess {rel:.3g}",
            )
            train, coords, labels = d["train"], d["coords"], d["labels"]
            expected = checks.knn_vote(coords[:, train], labels[train], coords[:, ~train], d["k"])
            mismatched = int(np.sum(expected != d["pred"]))
            report.add(f"round {r}: KNN equals brute-force vote", mismatched == 0,
                       f"{mismatched} of {expected.size} differ at k={d['k']}")
            if r == 0:
                report.reference["accuracy"] = float(np.mean(d["pred"] == labels[~train]))
                report.reference["relative_loss_excess"] = rel
                report.reference["k"] = int(d["k"])
        return report


# ------------------------------------------------------------------ text-window

TEXT_D = 5
TEXT_WINDOW = 60
TEXT_ITERS = 64
TEXT_RADIUS = 20.0
TEXT_KAPPA0 = 1e-4


class TextWindow(Workload):
    """Markov-chain documents, Huffman symbols, softmax subwindow fit, k-means."""

    name = "text-window"

    def prepare(self) -> None:
        self.paths, self.labels = inputs.write_text(self.seed, self.workdir / "inputs")

    def setup(self):
        ids, texts = dataio.read_text_documents(self.paths)
        texts = [encoders.clean_text(t) for t in texts]
        code = encoders.build_huffman(encoders.corpus_frequencies(texts))
        coll = encoders.encode_corpus(texts, ids, code, labels=self.labels)
        spec = fieldmod.FieldSpec(
            link=model.LinkFunction("softmax"), order=TEXT_D,
            mode="stochastic-subwindow", window=TEXT_WINDOW, seed=self.seed,
        )
        return coll, code, fieldmod.EmpiricalField(coll, spec)

    def run(self, state) -> Outcome:
        coll, code, evaluator = state
        config = solver.SolverConfig(
            mode="mirror-descent", lambda_=TEXT_RADIUS, max_iters=TEXT_ITERS, kappa0=TEXT_KAPPA0
        )
        params, _ = solver.solve(evaluator, config)
        emb = embedding.factorize(params, ids=list(coll.ids))
        part = evalkit.kmeans(emb.coordinates, 3, np.random.default_rng(self.seed), restarts=10)
        dataio.write_labels_csv(coll.ids, part.assignments, self.workdir / "assignments.csv")
        return Outcome(
            attempted=2,  # the solve, one embed-and-score
            data={"agg": params.data, "codebook": dict(code.codebook), "coords": emb.coordinates,
                  "assign": part.assignments},
        )

    def check(self, outcomes) -> CheckReport:
        report = CheckReport()
        raw = [Path(p).read_text(encoding="utf-8") for p in self.paths]
        cleaned = [checks.clean_like_program(t, encoders.UNCOMMON_PUNCTUATION) for t in raw]
        cutoff = encoders.DEFAULT_SYMBOL_CUTOFF
        design = targets = None
        for r, o in enumerate(outcomes):
            d = o.data
            ok, detail = checks.code_length_bounds(cleaned, d["codebook"], encoders.HUFFMAN_ARITY)
            report.add(f"round {r}: Huffman code length within entropy bounds", ok, detail)
            if design is None:
                seqs = []
                for text in cleaned:
                    symbols = np.array([int(s) for s in "".join(d["codebook"][ch] for ch in text)[:cutoff]])
                    seqs.append(np.eye(encoders.HUFFMAN_ARITY)[symbols].T)
                design, targets = checks.stacked_design(seqs, TEXT_D)
                at_zero = checks.softmax_field_norm(np.zeros_like(d["agg"]), design, targets)
            at_agg = checks.softmax_field_norm(d["agg"], design, targets)
            report.add(f"round {r}: full-horizon field norm falls", at_agg < at_zero,
                       f"{at_zero:.4g} at zero, {at_agg:.4g} at the aggregate")
            ok, detail = checks.in_ball(d["agg"], TEXT_RADIUS)
            report.add(f"round {r}: aggregate in the ball", ok, detail)
            ok, detail = checks.lloyd_fixed_point(d["coords"], d["assign"])
            report.add(f"round {r}: k-means is a Lloyd fixed point", ok, detail)
            if r == 0:
                report.reference["field_norm_zero"] = at_zero
                report.reference["field_norm_aggregate"] = at_agg
                report.reference["ari"] = evalkit.ari(self.labels, d["assign"])
        return report


WORKLOADS = {w.name: w for w in (DeskSearch, UcrClassify, TextWindow)}
