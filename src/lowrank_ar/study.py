"""Parameter recovery on synthetic benchmarks, as the studies run it.

Sequences are z-normalized before fitting (the lag structure is scale
invariant and the intercept absorbs the centering). Each benchmark gets one
radius path (evalkit.radius_path under admm-ls) of exact constrained fits,
scored by reconstruction error against the generating coefficients; its fit
at radius inf is the unconstrained least-squares baseline. recovery_run
Brent-searches the path, embeds the best fit and clusters it with k-means,
and desk_study runs it on random 3-class benchmarks. radius_sweep scores the
path on LambdaProblem.grid's radii instead and embeds the best one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lowrank_ar.embedding import approx_rank_of, factorize, pca_project
from lowrank_ar.encoders import znormalize
from lowrank_ar.evalkit import LambdaProblem, ari, kmeans, lambda_search, radius_path
from lowrank_ar.field import EmpiricalField, FieldSpec
from lowrank_ar.model import LinkFunction, ParameterMatrix, SequenceCollection
from lowrank_ar.solver import SolverConfig
from lowrank_ar.synthetic import gen_benchmark, standard_class_specs


def znorm(collection: SequenceCollection) -> SequenceCollection:
    """Per-channel standardization of each sequence (encoders.znormalize)."""
    return SequenceCollection(
        sequences=[znormalize(s) for s in collection.sequences],
        ids=collection.ids,
        labels=collection.labels,
        kind="real",
    )


@dataclass(frozen=True)
class RecoveryRun:
    """Errors relative to the truth's lag rows, radius, clustering and ranks."""

    err_unconstrained: float
    err_best: float
    best_lambda: float
    ari: float
    rank_unconstrained: int
    rank_best: int


def _radius_path(collection: SequenceCollection, truth: ParameterMatrix) -> LambdaProblem:
    """Exact constrained fits of the z-normalized collection, scored on the truth's lags."""
    spec = FieldSpec(LinkFunction("identity"), truth.order)
    evaluator = EmpiricalField(znorm(collection), spec)
    return radius_path(evaluator, SolverConfig(mode="admm-ls"), truth_lag=truth.lag_rows)


def recovery_run(collection: SequenceCollection, truth: ParameterMatrix) -> RecoveryRun:
    """OLS, Brent radius search, factorize, then k-means (seed 0, 10 restarts).

    The AR order is the truth's, and k-means looks for one cluster per label.
    """
    problem = _radius_path(collection, truth)
    result = lambda_search(problem, strategy="brent", objective="reconstruction-error")
    ols, best = problem.solve(math.inf), result.best_params

    emb = factorize(best, ids=list(collection.ids))
    n_clusters = len(set(collection.labels))
    part = kmeans(emb.coordinates, n_clusters, np.random.default_rng(0), restarts=10)
    return RecoveryRun(
        err_unconstrained=problem.objective("reconstruction-error", ols),
        err_best=problem.objective("reconstruction-error", best),
        best_lambda=result.best_lambda,
        ari=ari(collection.labels, part.assignments),
        rank_unconstrained=approx_rank_of(ols.data),
        rank_best=approx_rank_of(best.data),
    )


def desk_study(seed: int = 3, runs: int = 10, d: int = 15, n_per_class: int = 60, t_len: int = 250):
    """Yields (classes, RecoveryRun) for runs random 3-class benchmarks in turn.

    One generator draws every class combination first, then each benchmark.
    The defaults are the criterion-07 study.
    """
    pool = standard_class_specs(d=d, n_per_class=n_per_class, t_len=t_len, noise_var=0.02)
    master = np.random.default_rng(seed)
    combos = [
        sorted(master.choice(len(pool), size=3, replace=False).tolist()) for _ in range(runs)
    ]
    for combo in combos:
        yield combo, recovery_run(*gen_benchmark([pool[i] for i in combo], master))


@dataclass(frozen=True)
class RadiusSweep:
    """Error and approximate rank of the constrained fit at each radius.

    best indexes the smallest error; explained holds the top-2
    explained-variance ratios of the best fit's embedding.
    """

    lambdas: np.ndarray
    errors: np.ndarray
    ranks: list
    best: int
    explained: np.ndarray


def radius_sweep(
    collection: SequenceCollection, truth: ParameterMatrix, lo: float, hi: float, points: int
) -> RadiusSweep:
    """Exact constrained fits at problem.grid(points, lo * upper, hi * upper).

    upper is the nuclear norm of the unconstrained least-squares fit, the
    error is taken against the truth's lag rows and the AR order is the
    truth's.
    """
    problem = _radius_path(collection, truth)
    lambdas = np.array(problem.grid(points, lo * problem.upper, hi * problem.upper))
    fits = [problem.solve(lam) for lam in lambdas]
    errors = np.array([problem.objective("reconstruction-error", p) for p in fits])
    best = int(np.argmin(errors))
    _, explained = pca_project(factorize(fits[best]).coordinates, 2)
    ranks = [approx_rank_of(p.data) for p in fits]
    return RadiusSweep(lambdas, errors, ranks, best, explained)
